"""Unit tests for the perf-regression harness (``repro.perf``)."""

import json

import pytest

from repro.perf.io import TableLog, bench_filename, find_bench_files, read_json, write_json
from repro.perf.runner import (
    compare_results,
    find_baseline,
    load_baseline,
    run_suite,
    write_bench,
)
from repro.perf.workloads import WORKLOADS
from repro.perf.__main__ import main as perf_main


def _doc(mode="quick", date="2026-01-01", profiled=False, **workloads):
    """A minimal result document for comparison tests."""
    return {
        "schema": 1,
        "date": date,
        "mode": mode,
        "profiled": profiled,
        "workloads": {
            name: {"wall_s": wall, "ops": 100, "ops_per_s": 100 / wall,
                   "fingerprint": fp}
            for name, (wall, fp) in workloads.items()
        },
    }


class TestBenchFiles:
    def test_bench_filename_modes(self):
        assert bench_filename("2026-08-06", quick=False) == "BENCH_2026-08-06.json"
        assert bench_filename("2026-08-06", quick=True) == "BENCH_2026-08-06-quick.json"

    def test_write_then_read_roundtrip(self, tmp_path):
        payload = {"b": 2, "a": [1, 2]}
        path = write_json(tmp_path / "x.json", payload)
        assert read_json(path) == payload
        assert path.read_text().endswith("\n")

    def test_find_bench_files_filters_by_mode_and_sorts(self, tmp_path):
        for name in (
            "BENCH_2026-03-02.json",
            "BENCH_2026-03-01.json",
            "BENCH_2026-03-03-quick.json",
            "BENCH_bogus.json",
            "notes.txt",
        ):
            (tmp_path / name).write_text("{}")
        full = find_bench_files(tmp_path, quick=False)
        assert [p.name for p in full] == [
            "BENCH_2026-03-01.json", "BENCH_2026-03-02.json",
        ]
        quick = find_bench_files(tmp_path, quick=True)
        assert [p.name for p in quick] == ["BENCH_2026-03-03-quick.json"]

    def test_find_baseline_excludes_todays_own_file(self, tmp_path):
        (tmp_path / "BENCH_2026-08-05.json").write_text("{}")
        (tmp_path / "BENCH_2026-08-06.json").write_text("{}")
        found = find_baseline(quick=False, out_dir=tmp_path, today="2026-08-06")
        assert found is not None and found.name == "BENCH_2026-08-05.json"

    def test_find_baseline_none_when_only_todays_file(self, tmp_path):
        (tmp_path / "BENCH_2026-08-06.json").write_text("{}")
        assert find_baseline(quick=False, out_dir=tmp_path, today="2026-08-06") is None

    def test_write_bench_uses_result_date_and_mode(self, tmp_path):
        doc = _doc(mode="quick", date="2026-02-03", hash=(1.0, "aa"))
        path = write_bench(doc, tmp_path)
        assert path.name == "BENCH_2026-02-03-quick.json"
        assert load_baseline(path) == doc


class TestCompareResults:
    def test_identical_runs_pass(self):
        doc = _doc(hash=(1.0, "aa"))
        failures, notes = compare_results(doc, doc)
        assert failures == [] and notes == []

    def test_regression_beyond_tolerance_fails(self):
        base = _doc(hash=(1.0, "aa"))
        cur = _doc(hash=(1.5, "aa"))
        failures, _ = compare_results(cur, base, tolerance=0.30)
        assert len(failures) == 1 and "hash" in failures[0]

    def test_growth_within_tolerance_passes(self):
        base = _doc(hash=(1.0, "aa"))
        cur = _doc(hash=(1.2, "aa"))
        failures, notes = compare_results(cur, base, tolerance=0.30)
        assert failures == [] and notes == []

    def test_improvement_is_a_note_not_a_failure(self):
        base = _doc(hash=(1.0, "aa"))
        cur = _doc(hash=(0.4, "aa"))
        failures, notes = compare_results(cur, base, tolerance=0.30)
        assert failures == []
        assert len(notes) == 1 and "faster" in notes[0]

    def test_fingerprint_mismatch_fails_even_when_faster(self):
        base = _doc(hash=(1.0, "aa"))
        cur = _doc(hash=(0.5, "bb"))
        failures, _ = compare_results(cur, base)
        assert any("fingerprint" in f for f in failures)

    def test_mode_mismatch_skips_comparison(self):
        base = _doc(mode="full", hash=(1.0, "aa"))
        cur = _doc(mode="quick", hash=(9.0, "bb"))
        failures, notes = compare_results(cur, base)
        assert failures == []
        assert any("mode" in n for n in notes)

    def test_profiled_baseline_skips_comparison(self):
        base = _doc(profiled=True, hash=(1.0, "aa"))
        cur = _doc(hash=(9.0, "bb"))
        failures, notes = compare_results(cur, base)
        assert failures == []
        assert any("cProfile" in n for n in notes)

    def test_new_workload_without_baseline_entry_is_a_note(self):
        base = _doc(hash=(1.0, "aa"))
        cur = _doc(hash=(1.0, "aa"), steer=(1.0, "cc"))
        failures, notes = compare_results(cur, base)
        assert failures == []
        assert any("steer" in n for n in notes)


class TestRunSuite:
    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            run_suite(quick=True, workload_names=["no_such_workload"])

    def test_quick_subset_produces_schema(self):
        doc = run_suite(quick=True, workload_names=["hash"], date="2026-01-01")
        assert doc["schema"] == 1
        assert doc["mode"] == "quick"
        assert doc["date"] == "2026-01-01"
        assert list(doc["workloads"]) == ["hash"]
        entry = doc["workloads"]["hash"]
        assert entry["ops"] > 0
        assert len(entry["fingerprint"]) == 8

    def test_fingerprints_are_deterministic_across_runs(self):
        first = run_suite(quick=True, workload_names=["hash", "steer"])
        second = run_suite(quick=True, workload_names=["hash", "steer"])
        for name in ("hash", "steer"):
            assert (first["workloads"][name]["fingerprint"]
                    == second["workloads"][name]["fingerprint"])

    def test_all_workloads_registered(self):
        assert set(WORKLOADS) == {
            "hash", "steer", "event_loop",
            "fig6a", "fig7a", "figr", "figs", "figc", "figp",
        }


class TestTableLog:
    def test_first_write_truncates_then_appends(self, tmp_path):
        path = tmp_path / "tables.txt"
        path.write_text("stale content from a previous session\n")
        log = TableLog(path)
        log.add("table one", title="one")
        log.add("table two", title="two")
        text = path.read_text()
        assert "stale" not in text
        assert text == "table one\n\ntable two\n\n"

    def test_new_instance_truncates_again(self, tmp_path):
        path = tmp_path / "tables.txt"
        TableLog(path).add("first session")
        TableLog(path).add("second session")
        assert path.read_text() == "second session\n\n"


class TestCli:
    def test_first_run_writes_baseline_and_exits_zero(self, tmp_path, capsys):
        code = perf_main(["--quick", "--workloads", "hash", "--out", str(tmp_path)])
        assert code == 0
        written = find_bench_files(tmp_path, quick=True)
        assert len(written) == 1
        out = capsys.readouterr().out
        assert "first baseline" in out

    def test_fingerprint_mismatch_exits_nonzero(self, tmp_path, capsys):
        doc = run_suite(quick=True, workload_names=["hash"])
        doc["workloads"]["hash"]["fingerprint"] = "deadbeef"
        baseline = tmp_path / "tampered.json"
        baseline.write_text(json.dumps(doc))
        code = perf_main([
            "--quick", "--workloads", "hash", "--no-write",
            "--out", str(tmp_path), "--baseline", str(baseline),
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_matching_baseline_exits_zero(self, tmp_path, capsys):
        doc = run_suite(quick=True, workload_names=["hash"])
        baseline = tmp_path / "good.json"
        baseline.write_text(json.dumps(doc))
        code = perf_main([
            "--quick", "--workloads", "hash", "--no-write",
            "--out", str(tmp_path), "--baseline", str(baseline),
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out
