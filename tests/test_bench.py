"""Tests for the kernel benchmark harness (repro.bench / `repro bench`)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import compare_payloads, format_results, run_benchmarks, write_results
from repro.kernels import available_kernels


@pytest.fixture(scope="module")
def payload():
    """One tiny benchmark run shared by the assertions below."""
    return run_benchmarks(
        sizes=(300,), repeats=1, batch=2,
        batched_batches=(4,), serve_windows_ms=(2.0,), serve_requests=8,
        memory_sizes=(300,),
    )


class TestRunBenchmarks:
    def test_meta_records_provenance(self, payload):
        meta = payload["meta"]
        assert meta["sizes"] == [300]
        assert meta["repeats"] == 1
        assert meta["kernels"] == list(available_kernels())
        assert meta["timestamp"]

    def test_all_sections_present(self, payload):
        sections = {record["section"] for record in payload["results"]}
        assert sections == {
            "peel", "peel_many", "iblt_decode", "batched", "serve",
            "memory", "incremental",
        }

    def test_batched_section_pairs_loop_with_fused(self, payload):
        records = [r for r in payload["results"] if r["section"] == "batched"]
        combos = {(r["engine"], r["batch"]) for r in records}
        assert combos == {("loop", 4), ("batched", 4)}

    def test_serve_section_reports_throughput_and_fusion(self, payload):
        records = [r for r in payload["results"] if r["section"] == "serve"]
        assert {r["window_ms"] for r in records} == {2.0}
        for record in records:
            assert record["batch"] == 8  # the concurrent-request count
            assert record["requests_per_s"] > 0
            assert set(record["latency_ms"]) == {"p50", "p95", "p99"}
            # 8 concurrent requests inside a 2 ms window must coalesce
            assert record["mean_batch_size"] > 1

    def test_incremental_section_pairs_scratch_with_incremental(self, payload):
        records = [r for r in payload["results"] if r["section"] == "incremental"]
        combos = {(r["engine"], r["churn"]) for r in records}
        assert combos == {
            (mode, churn)
            for mode in ("scratch", "incremental")
            for churn in (0.001, 0.01, 0.1)
        }
        for record in records:
            assert record["success"]
            assert record["kernel"] == "numpy"
            if record["engine"] == "incremental":
                assert record["cells_scanned"] >= 0
                assert record["rounds_incremental"] >= 0

    def test_peel_covers_engines_times_kernels(self, payload):
        combos = {
            (r["engine"], r["kernel"])
            for r in payload["results"]
            if r["section"] == "peel"
        }
        expected = {
            (engine, kernel)
            for engine in ("sequential", "parallel", "subtable")
            for kernel in available_kernels()
        }
        assert combos == expected

    def test_iblt_covers_decoders_times_kernels(self, payload):
        combos = {
            (r["decoder"], r["kernel"])
            for r in payload["results"]
            if r["section"] == "iblt_decode"
        }
        assert ("serial", None) in combos
        for decoder in ("flat", "subtable"):
            for kernel in available_kernels():
                assert (decoder, kernel) in combos

    def test_timings_are_positive(self, payload):
        for record in payload["results"]:
            assert record["seconds"] > 0

    def test_kernel_subset_selectable(self):
        run = run_benchmarks(
            sizes=(300,), kernels=("numpy",), repeats=1, batch=2,
            batched_batches=(4,), serve_windows_ms=(2.0,), serve_requests=8,
            memory_sizes=(300,),
        )
        assert run["meta"]["kernels"] == ["numpy"]
        assert {r["kernel"] for r in run["results"]} == {"numpy", None}

    def test_json_round_trip(self, payload, tmp_path):
        out = tmp_path / "BENCH_kernels.json"
        write_results(payload, out)
        assert json.loads(out.read_text()) == json.loads(json.dumps(payload))

    def test_memory_section_pairs_compact_with_wide(self, payload):
        records = {r["engine"]: r for r in payload["results"] if r["section"] == "memory"}
        assert set(records) == {"compact", "wide"}
        assert records["wide"]["state_bytes"] > records["compact"]["state_bytes"]
        for record in records.values():
            assert record["arena_allocations_steady"] == 0
            assert record["ru_maxrss_kb"] > 0

    def test_format_results_mentions_every_section(self, payload):
        report = format_results(payload)
        for section in (
            "peel", "peel_many", "iblt_decode", "batched", "serve",
            "memory", "incremental",
        ):
            assert section in report
        assert "batched[B=4]" in report
        assert "[win=2ms]" in report
        assert "[churn=0.01]" in report


class TestComparePayloads:
    def test_self_comparison_has_no_regressions(self, payload):
        report, regressions = compare_payloads(payload, payload, tolerance=0.25)
        assert regressions == 0
        assert "0 regression(s)" in report

    def test_flags_regressions_past_tolerance(self, payload):
        fast_baseline = copy.deepcopy(payload)
        for record in fast_baseline["results"]:
            record["seconds"] /= 10.0  # current run is 10x slower than baseline
        report, regressions = compare_payloads(payload, fast_baseline, tolerance=0.25)
        assert regressions == len(payload["results"])
        assert "REGRESSION" in report

    def test_slowdowns_within_tolerance_pass(self, payload):
        fast_baseline = copy.deepcopy(payload)
        for record in fast_baseline["results"]:
            record["seconds"] /= 10.0
        _, regressions = compare_payloads(payload, fast_baseline, tolerance=20.0)
        assert regressions == 0

    def test_disjoint_payloads_compare_nothing(self, payload):
        other = copy.deepcopy(payload)
        for record in other["results"]:
            record["section"] = "something_else"
        report, regressions = compare_payloads(payload, other, tolerance=0.25)
        assert regressions == 0
        assert "no comparable entries" in report
        assert "not in baseline" in report and "only in baseline" in report

    def test_negative_tolerance_rejected(self, payload):
        with pytest.raises(ValueError):
            compare_payloads(payload, payload, tolerance=-0.1)

    def test_informational_sections_report_but_do_not_gate(self, payload):
        # CI de-flake: regressions in a hardware-bound section are printed
        # but never counted toward the exit code.
        fast_baseline = copy.deepcopy(payload)
        for record in fast_baseline["results"]:
            if record["section"] == "serve":
                record["seconds"] /= 10.0
        report, regressions = compare_payloads(
            payload, fast_baseline, tolerance=0.25,
            informational_sections=("serve",),
        )
        assert regressions == 0
        assert "regression (info)" in report
        assert "not gated" in report
        # Without the informational marker the same delta fails the gate.
        _, gated = compare_payloads(payload, fast_baseline, tolerance=0.25)
        assert gated > 0

    def test_different_seeds_never_compare(self, payload):
        reseeded = copy.deepcopy(payload)
        for record in reseeded["results"]:
            record["seed"] = 999
        report, regressions = compare_payloads(payload, reseeded, tolerance=0.25)
        assert regressions == 0
        assert "no comparable entries" in report

    def test_duplicate_record_identities_are_reported(self, payload):
        doubled = copy.deepcopy(payload)
        doubled["results"] = doubled["results"] + copy.deepcopy(doubled["results"][:1])
        report, _ = compare_payloads(doubled, payload, tolerance=20.0)
        assert "duplicate record identity" in report

    def test_resumable_artifact(self, tmp_path):
        artifact = tmp_path / "bench_sweep.json"
        first = run_benchmarks(
            sizes=(300,), repeats=1, batch=2,
            batched_batches=(4,), serve_windows_ms=(2.0,), serve_requests=8,
            memory_sizes=(300,), artifact=artifact,
        )

        calls = []
        second = run_benchmarks(
            sizes=(300,), repeats=1, batch=2,
            batched_batches=(4,), serve_windows_ms=(2.0,), serve_requests=8,
            memory_sizes=(300,), artifact=artifact,
            resume=True, progress=calls.append,
        )
        assert all(event.cached for event in calls)
        assert second["results"] == first["results"]


class TestBenchCLI:
    def test_bench_compare_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_now.json"
        assert main(["bench", "--quick", "--sizes", "300", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())

        slow_baseline = copy.deepcopy(payload)
        for record in slow_baseline["results"]:
            record["seconds"] *= 1000.0
        baseline_path = tmp_path / "baseline_slow.json"
        baseline_path.write_text(json.dumps(slow_baseline))
        assert main(
            ["bench", "--quick", "--out", str(out), "--compare", str(baseline_path)]
        ) == 0
        assert "regression" in capsys.readouterr().out

        fast_baseline = copy.deepcopy(payload)
        for record in fast_baseline["results"]:
            record["seconds"] /= 1000.0
        baseline_path.write_text(json.dumps(fast_baseline))
        assert main(
            ["bench", "--quick", "--out", str(out), "--compare", str(baseline_path)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_kernels.json"
        code = main(
            ["bench", "--quick", "--sizes", "300", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "wrote" in captured
        data = json.loads(out.read_text())
        # --quick overrides --sizes with the smoke sizes.
        assert data["meta"]["repeats"] == 1
        assert data["results"]

    def test_bench_default_sizes_hit_the_trajectory_points(self):
        from repro.bench import DEFAULT_SIZES

        assert set(DEFAULT_SIZES) >= {10_000, 100_000}
