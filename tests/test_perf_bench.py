"""Bench harness: documents, baselines, and the regression gate.

Covers :mod:`repro.obs.perf.bench` (workload execution with an injected
clock, document serialization, tolerance parsing, baseline comparison),
the workload registry (:mod:`repro.obs.perf.workloads`), and the
``repro bench`` CLI front end -- including the acceptance criterion that
two runs of the smoke suite at the same seed produce byte-identical
``work`` sections and a passing compare.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.perf import bench
from repro.obs.perf.bench import (
    BENCH_SCHEMA,
    compare_documents,
    document_bytes,
    load_document,
    parse_tolerance,
    record_path,
    run_suite,
    run_workload,
    write_document,
)
from repro.obs.perf.workloads import (
    Workload,
    get_workload,
    iter_workloads,
    suite_names,
    workload_names,
)

pytestmark = pytest.mark.perf


def fake_clock():
    """Deterministic strictly-increasing stub clock."""
    state = {"t": 0.0}

    def tick():
        state["t"] += 0.5
        return state["t"]

    return tick


def make_document(suite="smoke", work=None, times=None, env=None):
    """Hand-built minimal document for comparison tests."""
    work = work if work is not None else {"wl": {"toggle_evals": 100}}
    times = times if times is not None else {"wl": 1.0}
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "environment": env or {"python": "3.x"},
        "timing": {
            name: {"best_time_s": t, "times_s": [t], "repeats": 1}
            for name, t in times.items()
        },
        "work": work,
        "details": {},
    }


class TestRegistry:
    def test_builtin_suites_present(self):
        assert "smoke" in suite_names()
        smoke = workload_names("smoke")
        assert "smoke_floc_exact" in smoke
        assert "smoke_floc_fast" in smoke
        assert "smoke_mining" in smoke

    def test_iter_workloads_sorted_and_filtered(self):
        names = [w.name for w in iter_workloads("smoke")]
        assert names == sorted(names)
        assert all("smoke" in w.suites for w in iter_workloads("smoke"))

    def test_get_workload_unknown_raises(self):
        with pytest.raises(KeyError):
            get_workload("no_such_workload")


class TestRunWorkload:
    def test_best_of_n_with_stub_clock(self):
        calls = []

        def runner(work):
            work.toggles += 3
            calls.append(1)
            return {"answer": 42}

        workload = Workload(
            name="stub", description="", suites=("test",), runner=runner
        )
        record = run_workload(workload, repeats=3, clock=fake_clock())
        assert len(calls) == 3
        # Stub clock: every repetition measures exactly 0.5s.
        assert record["times_s"] == [0.5, 0.5, 0.5]
        assert record["best_time_s"] == 0.5
        assert record["work"] == {
            **{k: 0 for k in record["work"]}, "toggles": 3,
        }
        assert record["details"] == {"answer": 42}

    def test_nondeterministic_workload_rejected(self):
        state = {"n": 0}

        def runner(work):
            state["n"] += 1
            work.toggles += state["n"]
            return {}

        workload = Workload(
            name="flaky", description="", suites=("test",), runner=runner
        )
        with pytest.raises(RuntimeError, match="not deterministic"):
            run_workload(workload, repeats=2, clock=fake_clock())

    def test_repeats_must_be_positive(self):
        workload = Workload(
            name="x", description="", suites=("test",),
            runner=lambda work: {},
        )
        with pytest.raises(ValueError):
            run_workload(workload, repeats=0, clock=fake_clock())


class TestDocuments:
    @pytest.fixture(scope="class")
    def smoke_docs(self):
        """Two smoke-suite runs -- the byte-identity acceptance check."""
        return (
            run_suite("smoke", repeats=1, clock=fake_clock()),
            run_suite("smoke", repeats=1, clock=fake_clock()),
        )

    def test_schema_and_sections(self, smoke_docs):
        doc, _ = smoke_docs
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["suite"] == "smoke"
        assert set(doc["timing"]) == set(doc["work"]) == set(doc["details"])
        for counters in doc["work"].values():
            assert all(isinstance(v, int) for v in counters.values())

    def test_work_sections_byte_identical_across_runs(self, smoke_docs):
        first, second = smoke_docs
        assert json.dumps(first["work"], sort_keys=True) == json.dumps(
            second["work"], sort_keys=True
        )
        assert first["details"] == second["details"]

    def test_compare_of_twin_runs_passes(self, smoke_docs):
        first, second = smoke_docs
        result = compare_documents(first, second)
        assert result.ok
        assert any("work counters match" in line for line in result.lines)

    @pytest.mark.parametrize("suite", ["smoke", "table23"])
    def test_counters_and_details_match_committed_baseline(self, suite):
        """The CI counter gate, in tier-1: every clustering and work
        counter of the gated suites equals the committed baseline."""
        baselines = Path(__file__).resolve().parent.parent / "benchmarks/baselines"
        baseline = load_document(baselines / f"BENCH_{suite}.json")
        doc = json.loads(document_bytes(run_suite(suite, repeats=1)))
        assert doc["work"] == baseline["work"]
        assert doc["details"] == baseline["details"]

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="no workloads"):
            run_suite("no_such_suite", clock=fake_clock())

    def test_write_and_load_round_trip(self, tmp_path):
        doc = make_document()
        path = write_document(doc, tmp_path / "sub" / "BENCH_smoke.json")
        assert path.read_bytes() == document_bytes(doc)
        assert load_document(path) == doc

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_document(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_document(path)

    def test_record_path_is_content_addressed(self, tmp_path):
        doc = make_document()
        first = record_path(tmp_path, doc)
        assert first == record_path(tmp_path, doc)
        assert first.name.startswith("bench_smoke_")
        changed = make_document(work={"wl": {"toggle_evals": 101}})
        assert record_path(tmp_path, changed) != first


class TestParseTolerance:
    @pytest.mark.parametrize("text,expected", [
        ("20%", 0.2), ("0.2", 0.2), ("0", 0.0), ("150%", 1.5),
        ("none", None), ("inf", None), ("INFINITY", None), ("off", None),
        (None, None), (0.3, 0.3),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_tolerance(text) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_tolerance("-5%")


class TestCompareDocuments:
    def test_identical_documents_pass(self):
        doc = make_document()
        assert compare_documents(doc, doc).ok

    def test_work_drift_is_regression_in_both_directions(self):
        old = make_document(work={"wl": {"toggle_evals": 100}})
        for drifted in (99, 101):
            new = make_document(work={"wl": {"toggle_evals": drifted}})
            result = compare_documents(old, new)
            assert not result.ok
            [regression] = result.regressions
            assert "toggle_evals" in regression
            assert f"100 -> {drifted}" in regression
            assert result.render().count("REGRESSION") == 1

    def test_work_tolerance_allows_small_drift(self):
        old = make_document(work={"wl": {"toggle_evals": 100}})
        new = make_document(work={"wl": {"toggle_evals": 104}})
        assert compare_documents(old, new, tol_work=0.05).ok
        assert not compare_documents(old, new, tol_work=0.01).ok
        assert compare_documents(old, new, tol_work=None).ok

    def test_slowdown_beyond_budget_is_regression(self):
        old = make_document(times={"wl": 1.0})
        slow = make_document(times={"wl": 1.5})
        result = compare_documents(old, slow, tol_time=0.2)
        assert not result.ok
        assert "exceeds +20% budget" in result.regressions[0]
        assert compare_documents(old, slow, tol_time=0.6).ok
        assert compare_documents(old, slow, tol_time=None).ok

    def test_speedup_is_never_a_regression(self):
        old = make_document(times={"wl": 1.0})
        fast = make_document(times={"wl": 0.1})
        assert compare_documents(old, fast, tol_time=0.0).ok

    def test_removed_workload_is_regression_added_is_not(self):
        old = make_document(work={"a": {"toggles": 1}, "b": {"toggles": 2}})
        new = make_document(work={"a": {"toggles": 1}, "c": {"toggles": 3}})
        result = compare_documents(old, new)
        assert any("b: workload missing" in r for r in result.regressions)
        assert not any(r.startswith("c:") for r in result.regressions)
        assert any("c: new workload" in line for line in result.lines)

    def test_environment_diffs_are_informational(self):
        old = make_document(env={"python": "3.11"})
        new = make_document(env={"python": "3.12"})
        result = compare_documents(old, new)
        assert result.ok
        assert any("environment.python" in line for line in result.lines)


class TestBenchCli:
    def test_list_prints_registry(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke_floc_fast" in out

    def test_list_unknown_suite_is_usage_error(self, capsys):
        assert main(["bench", "list", "--suite", "nope"]) == 2
        assert "no workloads" in capsys.readouterr().err

    def test_run_twice_and_compare(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = [
            "bench", "run", "--suite", "smoke", "--repeats", "1",
            "--results-dir", str(tmp_path / "results"),
        ]
        assert main(args + ["--out", str(tmp_path / "first.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "second.json")]) == 0
        capsys.readouterr()

        first = load_document(tmp_path / "first.json")
        second = load_document(tmp_path / "second.json")
        assert json.dumps(first["work"], sort_keys=True) == json.dumps(
            second["work"], sort_keys=True
        )
        # Per-run records landed content-addressed under --results-dir.
        records = sorted((tmp_path / "results").glob("bench_smoke_*.json"))
        assert records

        # Same-seed runs must pass the gate even with timing ungated
        # only on the work side.
        assert main([
            "bench", "compare",
            str(tmp_path / "first.json"), str(tmp_path / "second.json"),
            "--tol-time", "none",
        ]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_detects_counter_drift(self, tmp_path, capsys):
        old = make_document(work={"wl": {"toggle_evals": 100}})
        new = make_document(work={"wl": {"toggle_evals": 90}})
        old_path = write_document(old, tmp_path / "old.json")
        new_path = write_document(new, tmp_path / "new.json")
        assert main([
            "bench", "compare", str(old_path), str(new_path),
            "--tol-time", "none",
        ]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression(s)" in captured.err

    def test_compare_missing_file_is_usage_error(self, tmp_path, capsys):
        doc_path = write_document(make_document(), tmp_path / "ok.json")
        assert main([
            "bench", "compare", str(doc_path),
            str(tmp_path / "missing.json"),
        ]) == 2
        assert capsys.readouterr().err

    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys):
        path = write_document(make_document(), tmp_path / "doc.json")
        assert main([
            "bench", "compare", str(path), str(path),
            "--tol-work=-3%",
        ]) == 2
