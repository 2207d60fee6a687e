"""Golden fixtures: scheme runs, exact induced laws and CLI reports.

Run from the repository root with the package importable:

    PYTHONPATH=src python tests/golden/regen.py           # rewrite the fixtures that differ
    PYTHONPATH=src python tests/golden/regen.py --check   # print the first path that differs,
                                                          # else each fixture's largest float drift

A fixture pins behaviour that report.json alone does not show: hop bundle
order, per-node bit metering, the audit and every selector's seeds, chosen
candidates and degenerate flags. Integers, strings, bools, list lengths and
dict keys (in order) must match exactly; floats must match within FLOAT_RTOL
relative, since log2 may differ in the last ulp between SIMD builds. A change
that moves a stream or a numeric on purpose regenerates the fixtures and
records the rerun in CHANGES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from coordline.cli import Experiment, run_command
from coordline.codebooks import build_codebooks
from coordline.codec import Scheme, run_scheme
from coordline.evalharness import cr_independence, exact_induced, piecing_check
from coordline.linestruct import make_network
from coordline.presets import preset_config
from coordline.probability import pmf_from_table
from coordline.rates import Mode, functional_lifted_system

GOLDEN_DIR = Path(__file__).resolve().parent
FLOAT_RTOL = 1e-12

N = 2
TRIALS = 50
CODEBOOK_SEED = 1
PRESETS = ("dsbs", "dsbs-control", "indep-uniform", "copy3", "markov3")
SCHEME_CASES = (("dsbs", "functional"), ("copy3", "functional"),
                ("markov3", "unrestricted"), ("markov3", "action-dependent"))
CLI_COMMANDS = ("validate", "rates", "exact", "simulate")
# small sweeps keep every CLI case well under a second
CLI_OVERRIDES = {"n": [1, 2], "trials": 100, "codebook_seeds": 2}


def _codebook(preset: str):
    exp = Experiment(preset_config(preset))
    return exp, build_codebooks(exp.spec, exp.rates, N, CODEBOOK_SEED)


def scheme_run(preset: str, mode: str) -> dict:
    """A run as its arrays: the run-level fields, each hop's bundle layout as (name,
    range), the actions (trials, h, n), each index component's values and, per selector
    key, the seeds, chosen candidates and degenerate flags."""
    exp, cb = _codebook(preset)
    run = run_scheme(cb, Mode(mode), TRIALS, exp.seed)
    hops = Scheme(cb, Mode(mode)).hop_entries
    return {"mode": run.mode, "n": run.n, "budgets": run.budgets, "checks_passed": run.checks_passed,
            "budget_violations": run.budget_violations, "degenerate_trials": run.degenerate_trials,
            "node_bits": run.node_bits,
            "hops": {hop: [[name, size] for name, _, size in entries] for hop, entries in hops.items()},
            "actions": run.actions.tolist(),
            "indices": {str(c): v.tolist() for c, v in run.indices.items()},
            "selected": {str(key): {"seeds": seeds.tolist(), "chosen": chosen.tolist(),
                                    "degenerate": degenerate.tolist()}
                         for key, (seeds, chosen, degenerate) in run.selected.items()}}


def scheme_layout(preset: str, mode: str) -> dict:
    """Seed ranges and per-node allowances; a run shows them only through violations."""
    _, cb = _codebook(preset)
    scheme = Scheme(cb, Mode(mode))
    return {"ell1": scheme.ell1, "ell_k": [scheme.ell_k[i] for i in sorted(scheme.ell_k)],
            "rho_allowance": list(scheme.rho_allowance)}


def exact_law(preset: str, mode: str) -> dict:
    _, cb = _codebook(preset)
    ex = exact_induced(cb, Mode(mode))
    return {"mode": ex.mode, "block_sizes": list(ex.block_sizes),
            "degenerate_paths": ex.degenerate_paths,
            "conditional": ex.conditional.ravel().tolist(),
            "x1_marginal": ex.x1_marginal.tolist(),
            "cr_independence": cr_independence(cb), "piecing": piecing_check(cb)}


def cli_report(command: str, preset: str, mode: str | None = None) -> dict:
    cfg = preset_config(preset)
    cfg.update(CLI_OVERRIDES)
    if mode is not None:
        cfg["mode"] = mode
    return _run_cli(command, cfg)


def report_text(report) -> str:
    """report as report.json holds it: one line of compact, key-sorted strict JSON."""
    return json.dumps(report, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"


def _run_cli(command: str, cfg: dict) -> dict:
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_command([command, "--config", str(path), "--out", out])
        text = (Path(out) / "report.json").read_text()
    report = json.loads(text)
    assert text == report_text(report), f"{command} wrote report.json in another form"
    report.pop("generated_at", None)
    return {"exit_code": code, "report": report}


# h=5 binary chains: a uniform X1 and one crossover per hop, A constant, B and
# C copying the actions, as in the benchmark's analytic requests
BSC_CROSSOVERS = (0.11, 0.23, 0.31, 0.17)
BSC_POINTS = [{"Rc": 1.9, "R": [0.9, 0.4, 1.1, 0.2], "rho": [1.2, 0.0, 0.0, 0.0, 0.0]},
              {"Rc": 3.1, "R": [0.6, 1.0, 0.7, 0.95], "rho": [0.3, 0.0, 0.0, 0.0, 0.0]},
              {"Rc": 0.8, "R": [1.2, 1.2, 1.2, 1.2], "rho": [2.0, 0.0, 0.0, 0.0, 0.0]},
              {"Rc": 2.4, "R": [0.6, 0.8, 0.9, 0.7], "rho": [0.9, 0.0, 0.0, 0.0, 0.0]}]
REGION_THEOREMS = ("large-cr", "zero-local")
# h=3 functional lifted systems (Z_i copies X_i) of two-hop chains, eliminating
# the lifted variables in reverse declaration order
FME_CROSSOVERS = {"a": (0.11, 0.23), "b": (0.31, 0.07), "c": (0.45, 0.45)}
# 2y >= 3 and -3y >= -1 combine to 0 >= 7 at the input scale; x + 2u + 3z >= 1,
# -x >= 0 and -2u - 3z >= 1 to 0 >= 4/9, the rows scaled to a z coefficient of +-1
FME_INFEASIBLE = {"variables": ["x", "y", "z", "u"],
                  "rows": [{"coeffs": {"y": 2}, "rhs": 3}, {"coeffs": {"y": -3}, "rhs": -1},
                           {"coeffs": {"x": 1, "u": 2, "z": 3}, "rhs": 1},
                           {"coeffs": {"x": -1}, "rhs": 0}, {"coeffs": {"u": -2, "z": -3}, "rhs": 1}],
                  "eliminate": ["y", "x", "u"]}


def _chain_target(crossovers) -> np.ndarray:
    w = np.full(2, 0.5)
    for p in crossovers:
        w = np.einsum("...i,ij->...ij", w, np.array([[1 - p, p], [p, 1 - p]]))
    return w


def bsc_config(region: str | None = None) -> dict:
    h = len(BSC_CROSSOVERS) + 1
    aux = {f"A{i}_{j}": {"kind": "constant"} for i in range(1, h) for j in range(i + 1, h + 1)}
    aux.update({f"B{i}_{i + 1}": {"kind": "copy", "source": f"X{i}"} for i in range(1, h)})
    aux.update({f"C{i}": {"kind": "copy", "source": f"X{i}"} for i in range(2, h + 1)})
    cfg = {"schema_version": 1, "network": {"h": h, "target": _chain_target(BSC_CROSSOVERS).tolist()},
           "aux": aux,
           "rates": {"mu_plus": {}, "mu_minus": {}, "kappa_minus": {},
                     "kappa_plus": {str(i): 1.1 for i in range(1, h)},
                     "lambda": {str(i): 1.0 for i in range(2, h + 1)}},
           "mode": "unrestricted"}
    if region is not None:
        cfg["region"] = {"theorem": region, "points": BSC_POINTS}
    return cfg


def lifted_fme_config(crossovers) -> dict:
    """The fme config of an h=3 functional lifted system, coefficients and
    right-hand sides rounded to 12 significant digits."""
    target = _chain_target(crossovers)
    net = make_network(3, target)
    zw = np.einsum("abc,bd,ce->abcde", target, np.eye(2), np.eye(2))
    system = functional_lifted_system(net, pmf_from_table(["X1", "X2", "X3", "Z2", "Z3"], zw))
    rows = [{"coeffs": {v: float(f"{float(c):.12g}") for v, c in zip(system.variables, coeffs) if c != 0},
             "rhs": float(f"{float(rhs):.12g}")} for coeffs, rhs in system.rows]
    lifted = [v for v in system.variables if v[0] in "med"]
    return {"schema_version": 1, "network": {"h": 3, "target": target.tolist()},
            "fme": {"variables": list(system.variables), "rows": rows, "eliminate": lifted[::-1]}}


def cases() -> dict:
    """Fixture name -> zero-argument builder."""
    out = {}
    for preset, mode in SCHEME_CASES:
        out[f"scheme-{preset}-{mode}"] = lambda p=preset, m=mode: scheme_run(p, m)
        out[f"layout-{preset}-{mode}"] = lambda p=preset, m=mode: scheme_layout(p, m)
        out[f"exact-{preset}-{mode}"] = lambda p=preset, m=mode: exact_law(p, m)
    for command in CLI_COMMANDS:
        for preset in PRESETS:
            out[f"cli-{command}-{preset}"] = lambda c=command, p=preset: cli_report(c, p)
    # no preset runs action-dependent mode; markov3 satisfies its restrictions
    for command in ("exact", "simulate"):
        out[f"cli-{command}-markov3-action-dependent"] = (
            lambda c=command: cli_report(c, "markov3", "action-dependent"))
    out["cli-rates-bsc5"] = lambda: _run_cli("rates", bsc_config())
    for theorem in REGION_THEOREMS:
        out[f"cli-region-{theorem}"] = lambda t=theorem: _run_cli("region", bsc_config(t))
    for tag, crossovers in FME_CROSSOVERS.items():
        out[f"cli-fme-lifted-{tag}"] = lambda c=crossovers: _run_cli("fme", lifted_fme_config(c))
    out["cli-fme-infeasible"] = lambda: _run_cli(
        "fme", {"schema_version": 1, "network": {"h": 2, "target": [[0.5, 0.0], [0.0, 0.5]]},
                "fme": FME_INFEASIBLE})
    return out


def fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def build(name: str):
    """The builder's output after a JSON round trip, as it would be stored."""
    return json.loads(json.dumps(cases()[name]()))


def load(name: str):
    return json.loads(fixture_path(name).read_text())


def first_difference(want, got, path: str = "$") -> str | None:
    """Path and values of the first mismatch, or None when got matches want."""
    if type(want) is not type(got):
        return f"{path}: type {type(want).__name__} != {type(got).__name__}"
    if isinstance(want, dict):
        if list(want) != list(got):
            return f"{path}: keys {list(want)} != {list(got)}"
        for key in want:
            diff = first_difference(want[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if len(want) != len(got):
            return f"{path}: length {len(want)} != {len(got)}"
        for i, (a, b) in enumerate(zip(want, got)):
            diff = first_difference(a, b, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(want, float):
        same = (math.isnan(want) and math.isnan(got)) or math.isclose(
            want, got, rel_tol=FLOAT_RTOL, abs_tol=0.0)
        return None if same else f"{path}: {want!r} != {got!r}"
    return None if want == got else f"{path}: {want!r} != {got!r}"


def largest_drift(want, got) -> float | None:
    """The largest relative difference |got - want| / |want| over the floats of two
    structures that first_difference matches (0 where want is 0); None without floats."""
    if isinstance(want, dict):
        want, got = list(want.values()), list(got.values())
    if isinstance(want, list):
        drifts = [d for d in map(largest_drift, want, got) if d is not None]
        return max(drifts, default=None)
    if isinstance(want, float):
        return abs(got - want) / abs(want) if want else 0.0
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the stored fixtures instead of rewriting those that differ")
    args = parser.parse_args(argv)
    written = []
    for name in cases():
        got = build(name)
        diff = first_difference(load(name), got) if fixture_path(name).exists() else "no stored fixture"
        if args.check:
            if diff:
                print(f"{name}: {diff}")
                return 1
            drift = largest_drift(load(name), got)
            if drift is not None:
                print(f"{name}: largest relative float drift {drift:.3g}")
        elif diff:
            fixture_path(name).write_text(json.dumps(got) + "\n")
            written.append(name)
            print(f"{name}: {diff}")
    print("fixtures match" if args.check else f"wrote {len(written)} of {len(cases())} fixtures to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
