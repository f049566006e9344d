"""Tests for graph serialization and the command-line interface."""

import io
import json
import os

import pytest

from repro.exceptions import GraphStructureError
from repro.sdf.graph import SDFGraph
from repro.sdf.io import from_json, load_graph, save_graph, to_dot, to_json
from repro.cli import main


def sample_graph():
    g = SDFGraph("sample")
    g.add_actor("A", execution_time=3)
    g.add_actor("B")
    g.add_edge("A", "B", 2, 1, delay=1, token_size=4)
    return g


class TestJson:
    def test_round_trip(self):
        g = sample_graph()
        again = from_json(to_json(g))
        assert again.name == "sample"
        assert again.actor("A").execution_time == 3
        e = again.edge("A", "B")
        assert (e.production, e.consumption, e.delay, e.token_size) == (2, 1, 1, 4)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "g.json")
        save_graph(sample_graph(), path)
        g = load_graph(path)
        assert g.num_actors == 2
        assert g.num_edges == 1

    def test_stream_round_trip(self):
        buf = io.StringIO()
        save_graph(sample_graph(), buf)
        buf.seek(0)
        assert load_graph(buf).num_actors == 2

    def test_parallel_edges_preserved(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 1, 1)
        g.add_edge("A", "B", 2, 2)
        again = from_json(to_json(g))
        assert again.num_edges == 2

    def test_malformed_document(self):
        with pytest.raises(GraphStructureError):
            from_json({"actors": [{"nope": 1}], "edges": []})
        with pytest.raises(GraphStructureError):
            from_json({"actors": [], "edges": [{"source": "A"}]})

    def test_defaults_optional(self):
        g = from_json(
            {
                "actors": [{"name": "A"}, {"name": "B"}],
                "edges": [
                    {"source": "A", "sink": "B",
                     "production": 1, "consumption": 1}
                ],
            }
        )
        assert g.edge("A", "B").delay == 0


class TestDot:
    def test_contains_annotations(self):
        text = to_dot(sample_graph())
        assert '"A" -> "B"' in text
        assert "2/1" in text
        assert "1D" in text
        assert "x4w" in text

    def test_plain_edge_label(self):
        g = SDFGraph()
        g.add_actors("AB")
        g.add_edge("A", "B", 3, 5)
        text = to_dot(g)
        assert "3/5" in text
        assert "D" not in text.split("label")[1].split("]")[0]


class TestCLI:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "satrec" in out
        assert "qmf12_5d" in out

    def test_compile_system(self, capsys):
        assert main(["compile", "4pamxmitrec", "--check"]) == 0
        out = capsys.readouterr().out
        assert "shared:" in out
        assert "execution check: OK" in out

    def test_compile_json_file(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        save_graph(sample_graph(), path)
        assert main(["compile", path]) == 0
        assert "non-shared:" in capsys.readouterr().out

    def test_compile_emit_c(self, tmp_path, capsys):
        target = str(tmp_path / "out.c")
        assert main(["compile", "4pamxmitrec", "--emit-c", target]) == 0
        with open(target) as handle:
            assert "run_one_period" in handle.read()

    def test_compile_unknown(self):
        with pytest.raises(SystemExit):
            main(["compile", "no_such_system"])

    def test_compile_unknown_message_is_one_actionable_line(self):
        with pytest.raises(SystemExit) as err:
            main(["compile", "no_such_system"])
        message = str(err.value)
        assert "no_such_system" in message
        assert "systems" in message
        assert "\n" not in message
        assert "Traceback" not in message

    def test_compile_missing_json_file(self, tmp_path):
        path = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as err:
            main(["compile", path])
        message = str(err.value)
        assert "cannot read graph file" in message
        assert "\n" not in message

    def test_compile_unparseable_json_file(self, tmp_path):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(SystemExit) as err:
            main(["compile", path])
        assert "invalid graph file" in str(err.value)

    def test_compile_malformed_graph_document(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"actors": [{"nope": 1}], "edges": []}, handle)
        with pytest.raises(SystemExit) as err:
            main(["compile", path])
        assert "invalid graph file" in str(err.value)


    def test_table1_subset(self, capsys):
        assert main(["table1", "--systems", "4pamxmitrec"]) == 0
        out = capsys.readouterr().out
        assert "4pamxmitrec" in out
        assert "average improvement" in out

    def test_fig25(self, capsys):
        assert main(["fig25", "--systems", "4pamxmitrec"]) == 0
        assert "#" in capsys.readouterr().out

    def test_fig26(self, capsys):
        assert main(["fig26", "--points", "2x3"]) == 0
        assert "bound" in capsys.readouterr().out

    def test_fig27(self, capsys):
        assert main(["fig27", "--sizes", "10", "--count", "2"]) == 0
        assert "(a)" in capsys.readouterr().out

    def test_satrec(self, capsys):
        assert main(["satrec"]) == 0
        assert "nested SAS" in capsys.readouterr().out

    def test_cddat(self, capsys):
        assert main(["cddat"]) == 0
        assert "147" in capsys.readouterr().out

    def test_dot(self, capsys):
        assert main(["dot", "overAddFFT"]) == 0
        assert "digraph" in capsys.readouterr().out


def _cyclic_graph():
    g = SDFGraph("loop")
    g.add_actors("ABC")
    g.add_edge("A", "B", 1, 1)
    g.add_edge("B", "C", 1, 1)
    g.add_edge("C", "A", 1, 1, delay=1)
    return g


def _inconsistent_graph():
    g = SDFGraph("skew")
    g.add_actors("ABC")
    g.add_edge("A", "B", 2, 1)
    g.add_edge("B", "C", 1, 1)
    g.add_edge("A", "C", 1, 1)
    return g


class TestCompileRejectedGraph:
    """A file that loads but that the pipeline rejects: one line out.

    The cyclic graph fails in RPMC's topological sort, the inconsistent
    one in the session's balance equations.  Either way the partial
    profile and the trace are flushed first, and the failing stage
    carries the error.
    """

    @pytest.mark.parametrize("graph, stage, kind", [
        (_cyclic_graph, "topsort", "GraphStructureError"),
        (_inconsistent_graph, "session", "InconsistentGraphError"),
    ])
    def test_one_line_exit_after_profile_and_trace(
        self, tmp_path, capsys, graph, stage, kind
    ):
        path = str(tmp_path / "g.json")
        save_graph(graph(), path)
        trace = str(tmp_path / "trace.json")
        with pytest.raises(SystemExit) as err:
            main(["compile", path, "--profile", "--trace", trace])
        message = str(err.value)
        assert message.startswith(f"cannot compile {path!r}: ")
        assert "\n" not in message
        out = capsys.readouterr().out
        (error_row,) = [line for line in out.splitlines()
                        if "error=" in line]
        assert error_row.strip().startswith(f"{stage}:")
        assert kind in error_row
        with open(trace) as handle:
            events = json.load(handle)["traceEvents"]
        assert any(e["name"] == stage and kind in e["args"]["error"]
                   for e in events)

    def test_plain_compile_exits_without_traceback(self, tmp_path):
        path = str(tmp_path / "g.json")
        save_graph(_cyclic_graph(), path)
        with pytest.raises(SystemExit) as err:
            main(["compile", path])
        assert "acyclic" in str(err.value)


class TestCompileProfile:
    def _profile_rows(self, out):
        lines = out.splitlines()
        start = lines.index("profile:") + 1
        rows = []
        for line in lines[start:]:
            if not line:
                break
            rows.append(line)
        return rows

    def test_profile_rows_are_the_traced_implement_children(
        self, tmp_path, capsys
    ):
        trace = str(tmp_path / "t.jsonl")
        assert main(["compile", "satrec", "--profile",
                     "--trace", trace]) == 0
        rows = self._profile_rows(capsys.readouterr().out)
        names = [row.split(":")[0].strip() for row in rows]
        assert names[-1] == "total"
        with open(trace) as handle:
            spans = [json.loads(line) for line in handle]
        spans = [s for s in spans if s["type"] == "span"]
        assert [s["name"] for s in spans if s["depth"] == 0] == [
            "implement"
        ]
        children = [s["name"] for s in spans if s["depth"] == 1]
        assert children == names[:-1]
        assert children[:3] == ["session", "native.resolve", "topsort"]
        assert children[-1] == "verify"

    def test_check_counters_land_in_the_profile(self, capsys):
        assert main(["compile", "satrec", "--check", "--profile"]) == 0
        rows = self._profile_rows(capsys.readouterr().out)
        assert [r.split(":")[0].strip() for r in rows][-7:] == [
            "lifetimes", "wig", "first_fit", "clique", "bmlb", "verify",
            "total",
        ]
        assert main(["compile", "satrec", "--vectorize", "--check",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        rows = self._profile_rows(out)
        # The blocking pass allocates its final schedule inside
        # ``vectorize``; implement does not allocate it again.
        assert [r.split(":")[0].strip() for r in rows][-6:] == [
            "sdppo", "vectorize", "clique", "bmlb", "verify", "total"
        ]
        counters = out.split("profile:")[1].split("counter")[1]
        assert "alloc.words" in counters
        assert "vm.firings" in counters


class TestCompileMemoryBudget:
    def test_negative_budget_is_one_line_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compile", "satrec", "--vectorize",
                  "--memory-budget", "-5"])
        assert str(err.value) == "--memory-budget must be >= 0, got -5"
        assert capsys.readouterr().out == ""


class TestJobsFlag:
    def test_table1_jobs(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["table1", "--systems", "4pamxmitrec",
                     "--jobs", "2"]) == 0
        assert "4pamxmitrec" in capsys.readouterr().out

    def test_fig27_jobs(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["fig27", "--sizes", "10", "--count", "2",
                     "--jobs", "2"]) == 0
        assert "(a)" in capsys.readouterr().out

    def test_negative_jobs_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(SystemExit):
            main(["table1", "--systems", "4pamxmitrec", "--jobs", "-1"])

    def test_flag_beats_environment(self, capsys, monkeypatch):
        # REPRO_JOBS is invalid; the explicit flag must win (and then
        # rewrite the environment for any nested fan-out).
        monkeypatch.setenv("REPRO_JOBS", "notanumber")
        assert main(["table1", "--systems", "4pamxmitrec",
                     "--jobs", "1"]) == 0
        assert os.environ["REPRO_JOBS"] == "1"
        assert "4pamxmitrec" in capsys.readouterr().out


class TestCacheCLI:
    def test_stats_empty(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:    0" in out
        assert str(tmp_path) in out

    def test_gc_and_clear(self, tmp_path, capsys):
        from repro.serve import ArtifactCache
        from repro.sdf.io import to_json
        from repro.serve.service import CompileService

        cache = ArtifactCache(str(tmp_path))
        CompileService(cache=cache).compile_document(to_json(sample_graph()))
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-entries", "5"]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert cache.stats()["entries"] == 0


class TestCheckCLI:
    def test_check_clean_run_exits_zero(self, capsys):
        assert main(["check", "--trials", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert "check: OK" in out

    def test_check_inject_exits_zero_when_all_caught(self, capsys):
        assert main(["check", "--trials", "1", "--inject"]) == 0
        out = capsys.readouterr().out
        assert "fault injection" in out
        assert "all caught" in out

    def test_check_inject_exits_nonzero_on_missed_mutation(
        self, capsys, monkeypatch
    ):
        # Disarm one mutation class: the self-test must notice that the
        # planted fault went uncaught and fail the whole command.
        from repro.check import fault_injection

        monkeypatch.setattr(
            fault_injection, "MUTATION_CLASSES",
            {"disarmed": lambda art, rng: fault_injection.InjectionOutcome(
                mutation="disarmed", graph_seed=art.seed,
                caught=False, detail="mutation applied, no oracle fired",
            )},
        )
        assert main(["check", "--trials", "1", "--inject"]) == 1
        captured = capsys.readouterr()
        assert "MUTATIONS MISSED" in captured.out
        assert "check: FAILED" in captured.err
