"""Rebuild perfbench/refs.json: the request pools and their reference outputs.

    python3 perfbench/make_refs.py

Run from the root of a source checkout whose outputs are trusted. The pools
are fixed (codebook seeds 0..POOL-1 and a fixed generator for the analytic
networks), so rerunning on unchanged code rewrites the same file.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("COORDLINE_CAP", None)

import bench  # noqa: E402  (needs the sources on the path)
from coordline.linestruct import make_network  # noqa: E402
from coordline.probability import pmf_from_table  # noqa: E402
from coordline.rates import functional_lifted_system  # noqa: E402

POOL = 48
ANALYTIC_SEED = 20161017
POINTS = 8


def _round(x: float) -> float:
    return float(f"{x:.12g}")


def _sparse(values: list[float]) -> dict:
    """Index and value of each entry that is not 0 to 12 decimals (well inside
    the 1e-9 check tolerance); the rest are stored as zeros."""
    values = [round(v, 12) for v in values]
    return {"n": len(values), "nonzero": [[i, v] for i, v in enumerate(values) if v != 0.0]}


def analytic_entry(rng) -> dict:
    """One h=5 BSC chain: crossovers, a batch of region points, and the h=3
    functional lifted system of its first two hops as an FME input."""
    crossovers = [round(float(p), 4) for p in rng.uniform(0.05, 0.45, size=4)]
    h_cond = sum(-p * np.log2(p) - (1 - p) * np.log2(1 - p) for p in crossovers)
    points = [{"Rc": round(float(rng.uniform(0.5, 1.5) * h_cond), 4),
               "R": [round(float(v), 4) for v in rng.uniform(0.0, 1.2, size=4)],
               "rho": [round(float(rng.uniform(0.0, 2.0)), 4), 0.0, 0.0, 0.0, 0.0]}
              for _ in range(POINTS)]
    net = make_network(3, bench.chain_target(crossovers[:2]))
    # Z_i copies X_i: the functional factorization holds trivially
    zw = np.einsum("abc,bd,ce->abcde", net.target.weights, np.eye(2), np.eye(2))
    system = functional_lifted_system(net, pmf_from_table(["X1", "X2", "X3", "Z2", "Z3"], zw))
    lifted = [v for v in system.variables if v[0] in "med"]
    rows = [{"coeffs": {v: _round(float(c)) for v, c in zip(system.variables, coeffs) if c != 0},
             "rhs": _round(float(rhs))} for coeffs, rhs in system.rows]
    return {"crossovers": crossovers, "points": points,
            "fme": {"variables": list(system.variables), "rows": rows,
                    "eliminate": lifted[::-1]}}


def _run(req, work: Path) -> tuple[list, list[dict]]:
    """Execute a request through the benchmark's own path; return exit codes and reports."""
    reports: list[dict] = []
    req.check = lambda got: reports.extend(got) or []
    out = bench.execute(req, work)
    if out.errors:
        raise SystemExit(f"{req.key}: {out.errors}")
    return out.codes, reports


def main() -> int:
    refs: dict[str, list] = {}
    with tempfile.TemporaryDirectory(dir=bench.HERE) as tmp:
        work = Path(tmp)
        for name, preset, n in (("exact-dsbs", "dsbs", 6), ("exact-copy3", "copy3", 4)):
            refs[name] = []
            for cb_seed in range(POOL):
                req = bench.exact_request(preset, n, cb_seed, None)
                _, reports = _run(req, work)
                row = reports[0]["exact"]["series"][0]["per_seed"][0]
                refs[name].append({"codebook_seed": cb_seed,
                                   **{k: row[k] for k in bench.EXACT_FIELDS}})
        rng = np.random.default_rng(ANALYTIC_SEED)
        refs["analytic-mix"] = []
        for _ in range(POOL):
            entry = analytic_entry(rng)
            calls = bench.analytic_calls(entry, None)
            codes, reports = _run(bench.Request("ref", calls), work)
            entry["ref"] = []
            for call, code, report in zip(calls, codes, reports):
                exact, floats = bench.analytic_view(call.command, report)
                entry["ref"].append({"code": code, "digest": bench.digest(exact),
                                     "rhs": _sparse(floats)})
            refs["analytic-mix"].append(entry)

    parts = [json.dumps(name) + ": [\n" + ",\n".join(json.dumps(e, separators=(",", ":"))
                                                    for e in entries) + "\n]"
             for name, entries in refs.items()]
    bench.REFS.write_text("{\n" + ",\n".join(parts) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
