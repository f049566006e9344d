"""Tests for the documentation gate (scripts/check_docs.py).

The gate is load-bearing — CI runs it via ``make check-docs`` — so its
five checkers are pinned here on synthetic text: real links, paths,
types, commands and docstring cross-references pass, broken links, dead
paths, undefined types, phantom flags/subcommands and stale references
are findings, and usage placeholders / globs /
pipelines / non-repro lines are skipped rather than false-positived.
The final tests run the gate for real over the repo's own docs and
sources, which must be clean.
"""

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(REPO, "scripts", "check_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK = _load()
PARSER = CHECK.build_parser()
FAKE = os.path.join(REPO, "docs", "fake.md")


def links(text):
    return list(CHECK.check_links(FAKE, text))


def commands(text):
    return list(CHECK.check_commands(FAKE, text, PARSER))


class TestLinkChecker:
    def test_resolving_link_passes(self):
        assert links("[arch](architecture.md) and [up](../README.md)") == []

    def test_broken_link_is_a_finding(self):
        found = links("see [nope](missing-chapter.md)")
        assert len(found) == 1
        assert "missing-chapter.md" in found[0]

    def test_external_and_anchor_links_are_skipped(self):
        text = (
            "[w](https://example.org/x.md) [m](mailto:a@b.c) "
            "[a](#the-budget) [ok](cli.md#repro-compile)"
        )
        assert links(text) == []

    def test_finding_carries_line_number(self):
        found = links("line one\n\n[bad](gone.md)\n")
        assert found[0].startswith("docs/fake.md:3:")


def paths(text):
    return list(CHECK.check_paths(FAKE, text))


class TestPathChecker:
    def test_existing_paths_pass(self):
        assert paths(
            "`scripts/check_docs.py`, ``docs/cli.md`` and "
            "`tests/test_check_docs.py::TestPathChecker`"
        ) == []

    def test_dead_path_is_a_finding(self):
        found = paths("line one\n\nswept by ``benchmarks/bench_gone.py``\n")
        assert found == [
            "docs/fake.md:3: dead path 'benchmarks/bench_gone.py'"
        ]

    def test_dead_source_file_is_a_finding(self):
        found = paths("see `src/repro/sdf/gone.py:12`")
        assert len(found) == 1
        assert "src/repro/sdf/gone.py" in found[0]

    def test_globs_placeholders_and_other_roots_are_skipped(self):
        assert paths(
            "`src/**/*.py` `tests/golden/<name>.txt` `BENCH_PR99.json` "
            "`/tmp/REPORT.md` `perfbench/`"
        ) == []


def types(text):
    return list(CHECK.check_types(FAKE, text))


def type_table(*rows):
    return (
        "intro\n\n## Key data types\n\n| Type | Module | Role |\n"
        "|---|---|---|\n" + "".join(f"{row}\n" for row in rows)
        + "\n## Next\n\n| `Nowhere` | `sdf.graph` | after the table |\n"
    )


class TestTypeChecker:
    def test_defined_names_pass(self):
        assert types(type_table(
            "| `SDFGraph`, `Edge` | `sdf.graph` | graphs |",
            "| `SharedMemoryVM`, `BatchedVM` | `codegen.vm`, "
            "`codegen.batched_vm` | either module may define a name |",
        )) == []

    def test_missing_name_is_a_finding(self):
        found = types(type_table(
            "| `SDFGraph` | `sdf.graph` | graphs |",
            "| `ChainContext`, `SplitTable` | `scheduling.common` | DP |",
        ))
        assert found == [
            "docs/fake.md:8: type 'SplitTable' is not defined in "
            "repro.scheduling.common"
        ]

    def test_unknown_module_is_a_finding(self):
        found = types(type_table("| `SDFGraph` | `sdf.nowhere` | x |"))
        assert len(found) == 1
        assert "repro.sdf.nowhere" in found[0]

    def test_text_without_the_table_is_skipped(self):
        assert types("| `Nowhere` | `sdf.graph` | not a type table |") == []


def xrefs(text):
    return list(CHECK.check_xrefs(FAKE, text))


class TestXrefChecker:
    def test_resolving_references_pass(self):
        assert xrefs(
            ":mod:`repro.codegen.vm` :class:`~repro.sdf.graph.SDFGraph` "
            ":meth:`repro.sdf.graph.SDFGraph.buffers` "
            ":data:`repro.native.CROSSOVER_ACTORS`"
        ) == []

    def test_stale_module_is_a_finding(self):
        found = xrefs("line one\nsee :mod:`repro.serve.cache` for keys\n")
        assert found == [
            "docs/fake.md:2: unresolved reference :mod:`repro.serve.cache`"
        ]

    def test_stale_attribute_is_a_finding(self):
        found = xrefs(":meth:`~repro.sdf.graph.SDFGraph.no_such_method`")
        assert len(found) == 1
        assert "SDFGraph.no_such_method" in found[0]

    def test_relative_and_foreign_targets_are_skipped(self):
        assert xrefs(":func:`main` :class:`dict` :mod:`os.path`") == []


def fence(*lines):
    return "```console\n" + "\n".join(lines) + "\n```\n"


class TestCommandChecker:
    def test_real_invocations_pass(self):
        assert commands(fence(
            "$ repro compile cddat --vectorize --memory-budget 300 --check",
            "$ python -m repro check --trials 5 --inject",
            "$ repro cache stats",
        )) == []

    def test_phantom_flag_is_a_finding(self):
        found = commands(fence("$ repro compile cddat --turbo"))
        assert len(found) == 1
        assert "--turbo" in found[0] and "repro compile" in found[0]

    def test_unknown_subcommand_is_a_finding(self):
        found = commands(fence("$ repro frobnicate"))
        assert len(found) == 1
        assert "frobnicate" in found[0]

    def test_placeholders_and_pipelines_are_skipped(self):
        assert commands(fence(
            "$ repro <command> [options...]",
            "$ repro dot cddat | dot -Tpng -o cddat.png",
            "$ ls BENCH_*.json",
            "# a comment",
        )) == []

    def test_output_lines_are_not_commands(self):
        # Only `$ `-prefixed (or bare repro/python -m repro) lines are
        # parsed; captured output below a command is ignored.
        assert commands(fence(
            "$ repro compile cddat",
            "graph:      cd2dat (6 actors)",
            "shared:     257 words (mco 257, mcp 257)",
        )) == []

    def test_nested_subcommand_flags_are_resolved(self):
        assert commands(fence("$ repro cache gc --max-age-days 30")) == []
        found = commands(fence("$ repro cache gc --no-such"))
        assert len(found) == 1


class TestRepoDocsAreClean:
    def test_gate_passes_on_the_real_docs(self):
        root = CHECK.build_parser()
        for path in CHECK.doc_files():
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            assert list(CHECK.check_links(path, text)) == []
            assert list(CHECK.check_paths(path, text)) == []
            assert list(CHECK.check_types(path, text)) == []
            assert list(CHECK.check_commands(path, text, root)) == []

    def test_sources_cite_only_existing_paths(self):
        for path in CHECK.source_files():
            with open(path, encoding="utf-8") as handle:
                assert list(CHECK.check_paths(path, handle.read())) == []

    def test_source_cross_references_resolve(self):
        for path in CHECK.source_files():
            with open(path, encoding="utf-8") as handle:
                assert list(CHECK.check_xrefs(path, handle.read())) == []
