"""Self-test of the benchmark: one timed request per workload.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json declares is emitted, that each layer a
workload is meant to exercise is seen by the tracer (a missed binding reads
as zero calls), that a corrupted reference value is counted as a failure, and
that a directory without the coordline sources yields no result.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

EXACT_SPANS = ["cli.run_command", "cli.Experiment", "linestruct.from_joint", "codec.Scheme",
               "codec.node1_posterior", "codec.selection", "probability.staircase_map",
               "codebooks.build_codebooks", "evalharness.exact_induced",
               "evalharness.coordination_tv", "evalharness.cr_independence",
               "evalharness.piecing_check", "probability.product_extend"]
MUST_HIT = {
    "mc-dsbs": ["cli.run_command", "cli.Experiment", "codec.run_scheme", "codec.Scheme",
                "codec.node1_posterior", "codec.selection", "probability.staircase_map",
                "codebooks.build_codebooks", "evalharness.mc_coordination_tv",
                "rates.thm1_check", "rates.thm2_check_all"],
    "exact-dsbs": EXACT_SPANS,
    "exact-copy3": EXACT_SPANS,
    "analytic-mix": ["cli.run_command", "linestruct.build_aux_joint", "linestruct.from_joint",
                     "linestruct.validate_aux", "probability.info_measure", "rates.thm1_check",
                     "rates.thm2_check_all", "rates.region_check", "fme.fme_project"],
}
MUST_COUNT = {
    "mc-dsbs": ["codec.x1_likelihood.calls", "codebooks.lookups", "codebooks.stored_symbols"],
    "exact-dsbs": ["codec.x1_likelihood.calls", "codebooks.lookups", "evalharness.enum_paths"],
    "exact-copy3": ["codec.x1_likelihood.calls", "codebooks.parent_blocks",
                    "evalharness.enum_paths"],
    "analytic-mix": ["rates.thm1_check.constraints", "fme.rows_in", "fme.rows_out"],
}


def _run(workload, trace, refs=None):
    return bench.run(workload, 0, 600.0, trace, refs=refs, max_requests=1, setup_pairs=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, detail = _run(workload, trace=False)
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(detail["baseline_seconds"]) == detail["samples"] == 1
    assert len(detail["setup_samples"]) == len(detail["baseline_setup_samples"]) == 1
    assert detail["env"]["coordline_cap"] is None and detail["env"]["blas_threads"] in (None, "1")
    assert ("trials_per_s" in detail) == (workload == "mc-dsbs")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    result, detail = _run(workload, trace=True)
    assert result["correct"], detail["errors"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert not detail["missing_bindings"]
    calls = detail["span_calls"]
    assert [s for s in MUST_HIT[workload] if not calls.get(s)] == []
    assert [c for c in MUST_COUNT[workload] if not detail["counts"].get(c)] == []
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def _corrupt_exact(refs):
    for entry in refs["exact-dsbs"]:
        entry["piecing"] += 1e-6


def _corrupt_analytic(refs):
    for entry in refs["analytic-mix"]:
        rhs = entry["ref"][1]["rhs"]["nonzero"]
        rhs[0][1] += 1e-6


@pytest.mark.parametrize("workload,corrupt", [("exact-dsbs", _corrupt_exact),
                                              ("analytic-mix", _corrupt_analytic)])
def test_corrupted_reference_counts_as_failure(workload, corrupt):
    refs = copy.deepcopy(bench.load_refs())
    corrupt(refs)
    result, detail = _run(workload, trace=False, refs=refs)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] and detail["failed_ratio"] == 1.0


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
