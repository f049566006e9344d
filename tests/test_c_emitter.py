"""End-to-end checks of the C emitter against a real compiler.

Complements :mod:`tests.test_codegen` (which exercises the cc-compiled
self-check on the Table 1 systems): here the emitted source itself is
the object under test.  The pool declaration and every per-buffer
``#define`` must agree exactly with what first-fit allocated, and the
generated program for the two narrative systems of the paper — CD-DAT
(section 3) and the satellite receiver (section 9) — must compile
cleanly under the platform's default ``cc`` and self-check.
"""

import re

import pytest

from repro.apps import cd_to_dat, satellite_receiver
from repro.codegen.c_emitter import emit_c
from repro.scheduling.pipeline import implement

from .conftest import build_and_run_c, requires_cc


def _flow(graph):
    result = implement(graph, "apgan")
    return result, emit_c(
        graph, result.lifetimes, result.allocation, instrument=True, periods=2
    )


class TestEmittedSourceMatchesAllocation:
    """The emitted constants are the first-fit allocation, verbatim."""

    @pytest.mark.parametrize("make", [cd_to_dat, satellite_receiver])
    def test_pool_size_matches_first_fit_total(self, make):
        graph = make()
        result, code = _flow(graph)
        match = re.search(r"static token_t memory\[(\d+)\];", code)
        assert match is not None
        assert int(match.group(1)) == max(result.allocation.total, 1)

    @pytest.mark.parametrize("make", [cd_to_dat, satellite_receiver])
    def test_buffer_offsets_and_sizes_match(self, make):
        graph = make()
        result, code = _flow(graph)
        defines = {
            name: (int(offset), int(words))
            for name, offset, words in re.findall(
                r"#define (BUF_\w+) \(memory \+ (\d+)\)\s*/\* (\d+) words",
                code,
            )
        }
        assert len(defines) == graph.num_edges
        for edge in graph.edge_list():
            lifetime = result.lifetimes.lifetimes[edge.key]
            macro = f"BUF_{edge.source}_{edge.sink}"
            if edge.index:
                macro += f"_{edge.index}"
            offset, words = defines[macro.upper()]
            assert offset == result.allocation.offsets[lifetime.name]
            assert words == lifetime.size
            assert offset + words <= result.allocation.total

    def test_buffers_fit_inside_pool_without_overlap_where_forbidden(self):
        graph = satellite_receiver()
        result, _ = _flow(graph)
        # Sanity on the allocation the defines were checked against:
        # every buffer window lies inside the declared pool.
        for lifetime in result.lifetimes.as_list():
            offset = result.allocation.offsets[lifetime.name]
            assert 0 <= offset
            assert offset + lifetime.size <= result.allocation.total


@requires_cc
class TestCompilesUnderCc:
    """CD-DAT and satrec compile with ``cc -Wall -Werror`` and self-check."""

    @pytest.mark.parametrize(
        "name,make", [("cddat", cd_to_dat), ("satrec", satellite_receiver)]
    )
    def test_self_check_passes(self, name, make, tmp_path):
        graph = make()
        _, code = _flow(graph)
        run = build_and_run_c(code, tmp_path, name)
        assert run.returncode == 0, run.stderr
        assert "SELFCHECK OK" in run.stdout
