"""Lazy package re-exports keep the eager API, and shadow nothing.

Every ``repro`` package ``__init__`` re-exports through
:func:`repro._lazy.attach`.  These checks run in fresh interpreters,
because the test process has long since imported every module, which
would hide a name that only resolves once its submodule is loaded.
"""

from __future__ import annotations

import pytest

from .test_cold_imports import _run

PACKAGES = (
    "repro",
    "repro.sdf",
    "repro.scheduling",
    "repro.lifetimes",
    "repro.allocation",
    "repro.obs",
    "repro.apps",
    "repro.artifacts",
    "repro.native",
    "repro.codegen",
    "repro.serve",
    "repro.check",
    "repro.experiments",
    "repro.baselines",
    "repro.extensions",
    "repro.actors",
)

#: Exports named like the submodule that defines them.
SAME_NAME = (
    ("scheduling", "dppo"),
    ("scheduling", "sdppo"),
    ("scheduling", "chain_sdppo"),
    ("scheduling", "rpmc"),
    ("scheduling", "apgan"),
    ("allocation", "first_fit"),
)


_EQUIVALENCE = """
import importlib, json, pkgutil, sys
pkg = importlib.import_module({package!r})
listed = dir(pkg)
missing_dir = [n for n in pkg.__all__ if n not in listed]
star = {{}}
exec("from {package} import *", star)
mismatched = [n for n in pkg.__all__
              if star.get(n, star) is not getattr(pkg, n)]
subs = [info.name for info in pkgutil.iter_modules(pkg.__path__)
        if info.name != "__main__"]
# A same-name export is the function, never its submodule.
unreachable = [s for s in subs if s not in pkg.__all__
               and getattr(pkg, s) is not sys.modules[pkg.__name__ + "." + s]]
print(json.dumps({{
    "all": len(pkg.__all__), "dupes": len(pkg.__all__) - len(set(pkg.__all__)),
    "missing_dir": missing_dir, "mismatched": mismatched,
    "subs": len(subs), "unreachable": unreachable,
}}))
"""


class TestExportEquivalence:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve_and_submodules_reachable(self, package):
        out = _run(_EQUIVALENCE.format(package=package))
        assert out["all"] > 0 and out["dupes"] == 0
        assert out["missing_dir"] == []
        assert out["mismatched"] == []
        assert out["subs"] > 0 and out["unreachable"] == []

    def test_unknown_name_is_attribute_error(self):
        out = _run(
            "import json, repro.sdf\n"
            "print(json.dumps([hasattr(repro.sdf, 'no_such_name'),\n"
            "                  hasattr(repro, '__no_such_dunder__')]))\n"
        )
        assert out == [False, False]

    def test_version_stays_a_literal(self):
        out = _run(
            "import json, sys, repro\n"
            "print(json.dumps([repro.__version__, '__version__' in "
            "repro.__all__, sorted(m for m in sys.modules "
            "if m.startswith('repro'))]))\n"
        )
        assert out == ["1.0.0", True, ["repro", "repro._lazy"]]


class TestNoShadowing:
    def test_same_name_exports_stay_functions_after_every_import(self):
        out = _run(
            "import importlib, json, pkgutil, types\n"
            "import repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not info.name.endswith('__main__'):\n"
            "        importlib.import_module(info.name)\n"
            f"pairs = {list(SAME_NAME)!r}\n"
            "print(json.dumps([\n"
            "    [name,\n"
            "     isinstance(getattr(repro, name), types.FunctionType),\n"
            "     isinstance(getattr(getattr(repro, pkg), name),\n"
            "                types.FunctionType)]\n"
            "    for pkg, name in pairs\n"
            "]))\n"
        )
        assert out == [[name, True, True] for _, name in SAME_NAME]

    @pytest.mark.parametrize("package, name", SAME_NAME)
    def test_submodule_imported_first(self, package, name):
        out = _run(
            "import json, types\n"
            f"import repro.{package}.{name}\n"
            "import repro\n"
            "print(json.dumps([\n"
            f"    isinstance(repro.{package}.{name}, types.FunctionType),\n"
            f"    isinstance(repro.{name}, types.FunctionType)]))\n"
        )
        assert out == [True, True]
