#!/usr/bin/env python
"""Documentation gate: links, paths and types resolve, commands exist.

Five mechanical checks (run as ``make check-docs``; CI fails the build
on any finding).  The first three read ``README.md`` and ``docs/*.md``:

* **Links** — every intra-repo markdown link target (``[text](path)``
  with a relative path, anchors stripped) must name a file or
  directory that exists.  External ``http(s)``/``mailto`` targets and
  pure-anchor links are skipped.
* **Commands** — every ``repro ...`` / ``python -m repro ...``
  invocation inside a fenced ```` ```console ```` or ```` ```bash ````
  block is checked against the *real* CLI by introspecting
  ``repro.cli.build_parser()``: the subcommand (nested ones like
  ``cache gc`` included) must exist, and every ``--flag`` token must
  be an option that subcommand actually accepts.  A doc that invents a
  flag — or keeps one that was renamed — fails here rather than
  misleading a reader.
* **Types** — in a "Key data types" table, every backticked name in
  column 1 must be an attribute of ``repro.<module>`` for one of the
  backticked modules in column 2, so the table cannot keep listing a
  deleted class.

The fourth also reads every ``src/**/*.py`` file:

* **Paths** — every backticked repo path (``src/``, ``tests/``,
  ``benchmarks/``, ``scripts/``, ``perfbench/``, ``docs/`` or
  ``examples/``, ending in ``.py``, ``.md``, ``.json`` or ``.txt``;
  a pytest ``::`` node id or ``:line`` suffix is ignored) must name a
  file that exists, so a doc or docstring cannot keep citing a deleted
  file.  Globs and placeholders do not match the pattern.

The fifth reads ``src/**/*.py`` only:

* **Cross-references** — every ``:mod:``, ``:class:``, ``:func:``,
  ``:meth:``, ``:attr:``, ``:data:`` or ``:exc:`` role whose target is
  a dotted ``repro.…`` path (a leading ``~`` allowed) must resolve:
  its longest importable prefix is a module, and each remaining name
  an attribute of the object before it.  Relative targets
  (``:func:`main```) are not checked.

Placeholder invocations (any token containing ``<``, ``[``, or ``...``,
e.g. ``repro <command> [options...]``) are skipped; shell pipelines
are checked up to the first operator (``|``, ``&&``, ``>``, ...).

Exit status: 0 when clean, 1 with one line per finding otherwise.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import os
import re
import shlex
import sys

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.cli import build_parser  # noqa: E402

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PATH_RE = re.compile(
    r"`((?:src|tests|benchmarks|scripts|perfbench|docs|examples)/"
    r"[\w./-]*\.(?:py|md|json|txt))(?:::[\w\[\]-]*|:\d+)?`"
)
TICK_RE = re.compile(r"`([^`]+)`")
XREF_RE = re.compile(
    r":(?:mod|class|func|meth|attr|data|exc):`~?(repro(?:\.\w+)+)`"
)
TYPE_TABLE_HEADING = "## Key data types"
FENCE_RE = re.compile(r"```(console|bash)\n(.*?)```", re.S)
SHELL_OPERATORS = {"|", "||", "&&", "&", ";", ">", ">>", "<", "2>"}


def doc_files():
    files = [os.path.join(REPO, "README.md")]
    files.extend(sorted(glob.glob(os.path.join(REPO, "docs", "*.md"))))
    return files


def source_files():
    pattern = os.path.join(REPO, "src", "**", "*.py")
    return sorted(glob.glob(pattern, recursive=True))


def rel(path: str) -> str:
    return os.path.relpath(path, REPO)


# ----------------------------------------------------------------------
# links
# ----------------------------------------------------------------------
def check_links(path: str, text: str):
    """Yield findings for intra-repo link targets that do not exist."""
    base = os.path.dirname(path)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if not target:  # pure anchor, e.g. (#section)
            continue
        resolved = os.path.normpath(os.path.join(base, target))
        if not os.path.exists(resolved):
            line = text.count("\n", 0, match.start()) + 1
            yield (
                f"{rel(path)}:{line}: broken link "
                f"{match.group(1)!r} ({rel(resolved)} does not exist)"
            )


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------
def check_paths(path: str, text: str):
    """Yield findings for backticked repo paths that do not exist."""
    for match in PATH_RE.finditer(text):
        target = match.group(1)
        if not os.path.isfile(os.path.join(REPO, target)):
            line = text.count("\n", 0, match.start()) + 1
            yield f"{rel(path)}:{line}: dead path {target!r}"


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------
def _exports(module: str, name: str) -> bool:
    try:
        return hasattr(importlib.import_module(f"repro.{module}"), name)
    except ImportError:
        return False


def check_types(path: str, text: str):
    """Yield findings for type-table names their modules do not define."""
    start = text.find(TYPE_TABLE_HEADING)
    if start < 0:
        return
    line = text.count("\n", 0, start) + 1
    for row in text[start:].splitlines()[1:]:
        line += 1
        if row.startswith("#"):
            break
        cells = row.split("|")
        if len(cells) < 4:
            continue
        names = TICK_RE.findall(cells[1])
        modules = TICK_RE.findall(cells[2])
        for name in names:
            if not any(_exports(module, name) for module in modules):
                where = ", ".join(f"repro.{m}" for m in modules)
                yield (
                    f"{rel(path)}:{line}: type {name!r} is not defined in "
                    f"{where or 'any module'}"
                )


# ----------------------------------------------------------------------
# cross-references
# ----------------------------------------------------------------------
def _resolves(target: str) -> bool:
    parts = target.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def check_xrefs(path: str, text: str):
    """Yield findings for ``repro.…`` role targets that do not resolve."""
    for match in XREF_RE.finditer(text):
        if not _resolves(match.group(1)):
            line = text.count("\n", 0, match.start()) + 1
            yield f"{rel(path)}:{line}: unresolved reference {match.group(0)}"


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def subparsers_of(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def option_strings_of(parser: argparse.ArgumentParser):
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
    return options


def iter_doc_commands(text: str):
    """Yield (line_number, argv-after-'repro') for each documented call."""
    for fence in FENCE_RE.finditer(text):
        body = fence.group(2)
        body_line = text.count("\n", 0, fence.start(2)) + 1
        for offset, raw in enumerate(body.splitlines()):
            line = raw.strip()
            if line.startswith("$ "):
                line = line[2:]
            if line.startswith("#") or not line:
                continue
            try:
                tokens = shlex.split(line, comments=True)
            except ValueError:
                continue
            if tokens[:3] == ["python", "-m", "repro"]:
                argv = tokens[3:]
            elif tokens and tokens[0] == "repro":
                argv = tokens[1:]
            else:
                continue
            cut = [
                i for i, t in enumerate(argv) if t in SHELL_OPERATORS
            ]
            if cut:
                argv = argv[: cut[0]]
            if any("<" in t or "[" in t or "..." in t for t in argv):
                continue  # usage placeholder, not a real invocation
            if argv:
                yield body_line + offset, argv


def check_commands(path: str, text: str, root: argparse.ArgumentParser):
    """Yield findings for documented invocations the CLI would reject."""
    top = subparsers_of(root)
    for line, argv in iter_doc_commands(text):
        where = f"{rel(path)}:{line}"
        name, rest = argv[0], argv[1:]
        if name not in top:
            yield f"{where}: unknown subcommand 'repro {name}'"
            continue
        parser = top[name]
        nested = subparsers_of(parser)
        command = name
        if nested and rest and rest[0] in nested:
            command = f"{name} {rest[0]}"
            parser, rest = nested[rest[0]], rest[1:]
        options = option_strings_of(parser) | option_strings_of(root)
        for token in rest:
            if not token.startswith("--"):
                continue
            flag = token.split("=", 1)[0]
            if flag not in options:
                yield (
                    f"{where}: 'repro {command}' has no {flag!r} flag "
                    f"(documented invocation would fail to parse)"
                )


def main() -> int:
    root = build_parser()
    findings = []
    checked = 0
    for path in doc_files():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        findings.extend(check_links(path, text))
        findings.extend(check_paths(path, text))
        findings.extend(check_types(path, text))
        findings.extend(check_commands(path, text, root))
        checked += 1
    for path in source_files():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        findings.extend(check_paths(path, text))
        findings.extend(check_xrefs(path, text))
        checked += 1
    for finding in findings:
        print(finding)
    if findings:
        print(f"check-docs: {len(findings)} finding(s) in {checked} file(s)")
        return 1
    print(
        f"check-docs: OK ({checked} files, links, paths, types, "
        f"commands and cross-references verified)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
