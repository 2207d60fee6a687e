"""Workloads, the closed request loop and the metrics of the coordline benchmark.

One client sends requests to ``coordline.cli.run_command`` in this process and
sends the next only after the previous one returned (a closed loop, one client,
``--threads 1``). A request is one or more CLI calls on generated configs; its
time is the wall time of those calls. Each request is also run, right before or
after, on the frozen baseline copy of coordline in a child process
(refworker.py); the end-to-end times are reported relative to it, which cancels
the speed changes of a shared host. README.md says why each workload exists and
which metric each layer should move.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from coordline import cli
from coordline.codebooks import build_codebooks
from coordline.evalharness import coordination_tv, exact_induced
from coordline.presets import preset_config

from tracer import LAYERS, SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFS = HERE / "refs.json"
BASELINE_SRC = HERE / "baseline"

TOLERANCE = 1e-9  # absolute, against every stored float reference
SETUP_PAIRS = 5  # set-up pairs per run for setup_s (plus one warm-up pair)
# The baseline's median set-up time, measured when the benchmark was defined:
# 120 interpreters taking the four workloads' configs in turn, on a 2-vCPU Xeon
# VM with Python 3.11.7 and numpy 2.4.6 (the four medians were within 3%).
# setup_s is a run's set-up ratio to the baseline times this, so it reads in
# seconds while the host's changes of speed cancel out of it.
SETUP_BASELINE_S = 0.178
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
MC_N = 4
EXACT_FIELDS = ("coordination_tv", "cr_independence", "piecing")


@dataclass
class Call:
    command: str
    config: dict
    expect_code: int | None  # None only while references are being made


@dataclass
class Request:
    key: str
    calls: list[Call]
    check: Callable[[list[dict]], list[str]] | None = None  # reports -> errors
    trials: int = 0


@dataclass
class Outcome:
    seconds: float
    errors: list[str]
    codes: list
    baseline_seconds: float = 0.0


# ---------------------------------------------------------------------------
# Workloads: each yields an endless, seed-determined sequence of requests.


def _shuffled(keys, seed: int) -> Iterator:
    """Seeded permutations of a fixed pool, repeated once a run has used it up."""
    rng = np.random.default_rng(seed)
    keys = list(keys)
    while True:
        for i in rng.permutation(len(keys)):
            yield keys[i]


def mc_dsbs(seed: int, refs: dict) -> Iterator[Request]:
    exp = cli.Experiment(preset_config("dsbs"))
    rng = np.random.default_rng(seed)
    while True:
        cb_seed, mc_seed = (int(v) for v in rng.integers(0, 2 ** 31, size=2))
        cfg = preset_config("dsbs")
        cfg.update(n=[MC_N], codebook_seeds=[cb_seed], seed=mc_seed)
        yield Request(f"cb{cb_seed}", [Call("simulate", cfg, 0)],
                      partial(_check_mc, exp, cb_seed), trials=cfg["trials"])


def _check_mc(exp, cb_seed: int, reports: list[dict]) -> list[str]:
    """MC TV must lie within its reported radius of the exact TV of the same codebook."""
    row = reports[0]["simulate"]["series"][0]
    errors = []
    if row["budget_violations"] or row["excluded_seeds"]:
        errors.append(f"budget violations {row['budget_violations']}, "
                      f"excluded seeds {row['excluded_seeds']}")
    cb = build_codebooks(exp.spec, exp.rates, MC_N, cb_seed)
    exact = coordination_tv(exact_induced(cb, exp.mode), exp.network)
    if not abs(row["tv_mean"] - exact) <= row["radius"]:
        errors.append(f"MC tv {row['tv_mean']} is further than radius {row['radius']} "
                      f"from exact tv {exact}")
    return errors


def exact_request(preset: str, n: int, cb_seed: int, ref: dict | None) -> Request:
    cfg = preset_config(preset)
    cfg.update(n=[n], codebook_seeds=[cb_seed])
    check = partial(_check_exact, ref) if ref is not None else None
    return Request(f"cb{cb_seed}", [Call("exact", cfg, 0)], check)


def _check_exact(ref: dict, reports: list[dict]) -> list[str]:
    row = reports[0]["exact"]["series"][0]["per_seed"][0]
    return [f"{k} = {row[k]!r}, reference {ref[k]!r}" for k in EXACT_FIELDS
            if not abs(row[k] - ref[k]) <= TOLERANCE]


def _exact_workload(name: str, preset: str, n: int):
    def requests(seed: int, refs: dict) -> Iterator[Request]:
        pool = refs[name]
        for ref in _shuffled(pool, seed):
            yield exact_request(preset, n, ref["codebook_seed"], ref)
    return requests


def chain_target(crossovers) -> list:
    """Binary Markov chain with a uniform first node and one crossover per hop."""
    w = np.full(2, 0.5)
    for p in crossovers:
        w = np.einsum("...i,ij->...ij", w, np.array([[1 - p, p], [p, 1 - p]]))
    return w.tolist()


def analytic_calls(entry: dict, codes: list | None) -> list[Call]:
    """validate, rates, two region batches and one FME projection for one pool entry."""
    h = len(entry["crossovers"]) + 1
    aux = {f"A{i}_{j}": {"kind": "constant"} for i in range(1, h) for j in range(i + 1, h + 1)}
    aux.update({f"B{i}_{i + 1}": {"kind": "copy", "source": f"X{i}"} for i in range(1, h)})
    aux.update({f"C{i}": {"kind": "copy", "source": f"X{i}"} for i in range(2, h + 1)})
    base = {"schema_version": 1,
            "network": {"h": h, "target": chain_target(entry["crossovers"])},
            "aux": aux,
            "rates": {"mu_plus": {}, "mu_minus": {}, "kappa_minus": {},
                      "kappa_plus": {str(i): 1.1 for i in range(1, h)},
                      "lambda": {str(i): 1.0 for i in range(2, h + 1)}},
            "mode": "unrestricted"}
    fme = {"schema_version": 1,
           "network": {"h": 3, "target": chain_target(entry["crossovers"][:2])},
           "fme": entry["fme"]}
    commands = [("validate", base), ("rates", base),
                ("region", dict(base, region={"theorem": "large-cr", "points": entry["points"]})),
                ("region", dict(base, region={"theorem": "zero-local", "points": entry["points"]})),
                ("fme", fme)]
    codes = codes or [None] * len(commands)
    return [Call(cmd, cfg, code) for (cmd, cfg), code in zip(commands, codes)]


def analytic_view(command: str, report: dict) -> tuple[list, list[float]]:
    """Split a report into what must match exactly (names, flags, rational FME
    rows) and the right-hand sides that must match within TOLERANCE."""
    if command == "validate":
        checks = report["validate"]["checks"]
        exact = [[c["name"], c["passed"]] for c in checks]
        floats = [c["value"] for c in checks]
    elif command == "fme":
        f = report["fme"]
        exact = [f["variables"], sorted(json.dumps(r, sort_keys=True) for r in f["rows"])]
        floats = []
    else:
        groups = ([report["thm1"]] + report["thm2"] if command == "rates"
                  else [p["report"] for p in report["region"]["points"]])
        exact = [[g["applicable"], g["passed"],
                  [[c["name"], c["passed"], c["redundant"]] for c in g["constraints"]]]
                 for g in groups]
        floats = [c["rhs"] for g in groups for c in g["constraints"]]
    return [report["passed"], exact], floats


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _check_analytic(ref: list[dict], calls: list[Call], reports: list[dict]) -> list[str]:
    errors = []
    for call, want, report in zip(calls, ref, reports):
        exact, floats = analytic_view(call.command, report)
        if digest(exact) != want["digest"]:
            errors.append(f"{call.command}: names, flags or FME rows differ from the reference")
        dense = [0.0] * want["rhs"]["n"]
        for i, v in want["rhs"]["nonzero"]:
            dense[i] = v
        if len(floats) != len(dense):
            errors.append(f"{call.command}: {len(floats)} right-hand sides, reference {len(dense)}")
        else:
            bad = [i for i, (a, b) in enumerate(zip(floats, dense)) if not abs(a - b) <= TOLERANCE]
            if bad:
                errors.append(f"{call.command}: {len(bad)} right-hand sides off, first at {bad[0]}: "
                              f"{floats[bad[0]]!r} vs {dense[bad[0]]!r}")
    return errors


def analytic_mix(seed: int, refs: dict) -> Iterator[Request]:
    pool = refs["analytic-mix"]
    for i in _shuffled(range(len(pool)), seed):
        entry = pool[i]
        calls = analytic_calls(entry, [r["code"] for r in entry["ref"]])
        yield Request(f"entry{i}", calls, partial(_check_analytic, entry["ref"], calls))


WORKLOADS: dict[str, Callable[[int, dict], Iterator[Request]]] = {
    "mc-dsbs": mc_dsbs,
    "exact-dsbs": _exact_workload("exact-dsbs", "dsbs", 6),
    "exact-copy3": _exact_workload("exact-copy3", "copy3", 4),
    "analytic-mix": analytic_mix,
}


# ---------------------------------------------------------------------------
# Executing requests


class _Discard:
    """stdout sink for the report the CLI prints."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _reject_constant(name: str):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


def execute(req: Request, workdir: Path, tracer: Tracer | None = None,
            request_id: int | None = None, baseline: Baseline | None = None,
            baseline_first: bool = False) -> Outcome:
    """Run one request's CLI calls back to back; check exit codes, strict JSON
    and the request's own check after the clock has stopped. With a baseline,
    each call also runs on it, right before or right after."""
    paths = []
    for i, call in enumerate(req.calls):
        cfg_path, out = workdir / f"call{i}.json", workdir / f"out{i}"
        cfg_path.write_text(json.dumps(call.config))
        shutil.rmtree(out, ignore_errors=True)
        paths.append((cfg_path, out))

    elapsed, base_elapsed, codes, errors = 0.0, 0.0, [], []

    def on_baseline(call: Call) -> None:
        nonlocal base_elapsed
        seconds, code = baseline.run(call)
        base_elapsed += seconds
        if code != call.expect_code:
            errors.append(f"baseline {call.command} exited {code}, expected {call.expect_code}")

    for call, (cfg_path, out) in zip(req.calls, paths):
        argv = [call.command, "--config", str(cfg_path), "--out", str(out), "--threads", "1"]
        if baseline is not None and baseline_first:
            on_baseline(call)
        if tracer is not None:
            tracer.request = request_id
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(_Discard()):
                code = cli.run_command(argv)
        except Exception as exc:  # a traceback reaching the user is a failed request
            code = None
            errors.append(f"{call.command} raised {exc!r}")
        finally:
            elapsed += time.perf_counter() - start
            if tracer is not None:
                tracer.request = None
        codes.append(code)
        if baseline is not None and not baseline_first:
            on_baseline(call)

    reports = []
    for call, code, (_, out) in zip(req.calls, codes, paths):
        if call.expect_code is not None and code != call.expect_code:
            errors.append(f"{call.command} exited {code}, expected {call.expect_code}")
        try:
            reports.append(json.loads((out / "report.json").read_text(),
                                      parse_constant=_reject_constant))
        except (OSError, ValueError) as exc:
            errors.append(f"{call.command}: {exc}")
    if not errors and req.check is not None:
        try:
            errors += req.check(reports)
        except Exception as exc:  # a report without the expected fields
            errors.append(f"check failed: {exc!r}")
    return Outcome(elapsed, errors, codes, base_elapsed)


class Baseline:
    """The frozen baseline copy of coordline, serving requests in a child process."""

    def __init__(self, workdir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "refworker.py"), str(workdir / "baseline")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, call: Call) -> tuple[float, int | None]:
        """Wall time and exit code of one CLI call on the baseline."""
        self.proc.stdin.write(json.dumps({"command": call.command, "config": call.config}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the baseline worker ended with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["seconds"], reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _loop(requests: Iterator[Request], seconds: float, max_requests: int | None,
          workdir: Path, baseline: Baseline | None = None) -> list[tuple[Request, Outcome]]:
    """Closed loop for `seconds`; the baseline, if any, goes first on every other request."""
    done = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (max_requests is None or len(done) < max_requests):
        req = next(requests)
        done.append((req, execute(req, workdir, baseline=baseline,
                                  baseline_first=len(done) % 2 == 1)))
    return done


SETUP_SNIPPET = ("import json, sys\n"
                 "from coordline.cli import Experiment\n"
                 "Experiment(json.loads(open(sys.argv[1]).read()))\n")


def measure_setup(config: dict, workdir: Path, pairs: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import coordline and build one
    validated Experiment (network, aux joint, AuxSpec, rates) from the config:
    one on the code under test and one on the baseline per pair, back to back,
    the baseline first in every other pair."""
    path = workdir / "setup.json"
    path.write_text(json.dumps(config))

    def once(source: Path) -> float:
        env = dict(os.environ, PYTHONPATH=str(source))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(path)], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       timeout=120)
        return time.perf_counter() - start

    current, base = [], []
    for rep in range(pairs + 1):
        if rep % 2:
            b, c = once(BASELINE_SRC), once(ROOT / "src")
        else:
            c, b = once(ROOT / "src"), once(BASELINE_SRC)
        if rep:  # the first pair also writes bytecode caches
            current.append(c)
            base.append(b)
    return current, base


# ---------------------------------------------------------------------------
# Metrics


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it;
    the maximum when that percentile would not lie above the median."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k + 1 <= len(ordered) / 2:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def tail_mean(times: list[float]) -> float:
    """Mean of the slowest quarter of the times, and of at least three. A run
    has 6 to 30 requests, too few for a steady high percentile."""
    ordered = sorted(times)
    return statistics.mean(ordered[-max(3, len(ordered) // 4):])


def end_to_end(times: list[float], base: list[float],
               setup: tuple[list[float], list[float]]) -> dict[str, float]:
    """Request times as a share of the baseline's on the same requests: the median
    of the per-request ratios, the ratio of the two tail means and of the total times.
    Set-up: the median ratio to the baseline's, in seconds of SETUP_BASELINE_S."""
    setup_ratio = statistics.median(c / b for c, b in zip(*setup))
    return {
        "setup_s": setup_ratio * SETUP_BASELINE_S,
        "request_rel_p50": statistics.median(t / b for t, b in zip(times, base)),
        "request_rel_tail": tail_mean(times) / tail_mean(base),
        "throughput_rel": sum(base) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, requests: int, overhead_ratio: float) -> dict[str, float]:
    """Per traced request: span calls and self seconds, counters, and ratios
    (0 where the layer did no work)."""
    totals = tracer.span_totals()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name in {s[0] for s in SPANS}:
        row = totals.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"] / requests
        values[f"{name}.self_s"] = row["self_s"] / requests
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(r["self_s"] for n, r in totals.items()
                                        if n.split(".")[0] == layer) / requests
    for name in ("codec.x1_likelihood.calls", "codebooks.lookups", "codebooks.stored_symbols",
                 "codebooks.parent_blocks", "evalharness.enum_paths", "codec.degenerate_trials",
                 "codec.budget_violations", "rates.thm1_check.constraints", "fme.rows_in",
                 "fme.rows_out"):
        values[name] = counts[name] / requests
    run_scheme = totals.get("codec.run_scheme", {"incl_s": 0.0})
    values["codec.us_per_trial"] = 1e6 * ratio(run_scheme["incl_s"], counts["codec.trials"])
    values["codec.posterior_hit_ratio"] = ratio(counts["codec.node1_posterior.hits"],
                                                values["codec.node1_posterior.calls"] * requests)
    selections = values["codec.selection.calls"]
    values["codec.table_hit_ratio"] = (1.0 - values["probability.staircase_map.calls"] / selections
                                       if selections else 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "coordline_cap": os.environ.get("COORDLINE_CAP"),
    }


# ---------------------------------------------------------------------------
# One run


def load_refs() -> dict:
    return json.loads(REFS.read_text())


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _select(declared: list[dict], values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(workload: str, seed: int, seconds: float, trace: bool, *, refs: dict | None = None,
        max_requests: int | None = None, setup_pairs: int = SETUP_PAIRS) -> tuple[dict, dict]:
    """Measure one workload. Returns the result line and a detail record.

    Untraced: set-up runs, then the closed loop for `seconds`. Traced: the loop
    runs untraced for half of `seconds`, then the same requests are replayed
    with the tracer installed; their time ratio is the tracing overhead.
    """
    refs = load_refs() if refs is None else refs
    spec = load_spec()
    requests = WORKLOADS[workload](seed, refs)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    detail = {"workload": workload, "env": environment(seed), "seconds": seconds,
              "trace": int(trace)}
    # one CPU for this process and every child, so that a request and its
    # baseline run always share a core and its current speed
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    detail["env"]["bound_to_cpu"] = cpu
    baseline = None
    try:
        first = next(requests)
        setup = ([], []) if trace else measure_setup(first.calls[0].config, workdir,
                                                     setup_pairs)
        baseline = None if trace else Baseline(workdir)
        # checked, not timed: lazy imports and first calls
        warmup = execute(first, workdir, baseline=baseline)
        done = _loop(requests, seconds / 2 if trace else seconds, max_requests, workdir,
                     baseline)
        ran = [(first, warmup)] + done
        times = [o.seconds for _, o in done]
        base = [o.baseline_seconds for _, o in done]
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                replay = [execute(req, workdir, tracer, i) for i, (req, _) in enumerate(done)]
            finally:
                tracer.uninstall()
            overhead = sum(o.seconds for o in replay) / sum(times)
            values = per_layer(tracer, len(done), overhead)
            ran += [(req, o) for (req, _), o in zip(done, replay)]
            top = sorted(tracer.span_totals().items(), key=lambda kv: -kv[1]["self_s"])
            detail["top_self_s"] = [[name, row["self_s"] / len(done)] for name, row in top[:6]]
            detail["span_calls"] = {name: row["calls"] / len(done) for name, row in top}
            detail["counts"] = {name: n / len(done) for name, n in tracer.counts.items()}
            detail["missing_bindings"] = sorted(tracer.missing)
            detail["spans"] = len(tracer.spans)
            tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
            metrics = _select(spec["per_layer"], values)
        else:
            values = end_to_end(times, base, setup)
            metrics = _select(spec["end_to_end"], values)
            (tail_s, pct), (base_tail_s, _) = tail(times), tail(base)
            detail.update(tail_percentile=pct, samples=len(times), setup_samples=setup[0],
                          baseline_setup_samples=setup[1],
                          request_s_p50=statistics.median(times), request_s_tail=tail_s,
                          requests_per_s=len(times) / sum(times),
                          baseline_request_s_p50=statistics.median(base),
                          baseline_request_s_tail=base_tail_s,
                          request_seconds=times, baseline_seconds=base)
            trials = sum(req.trials for req, _ in done)
            if trials:
                detail["trials_per_s"] = trials / sum(times)
    finally:
        if baseline is not None:
            baseline.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(req.key, o.errors) for req, o in ran if o.errors]
    detail["failed_ratio"] = len(failed) / len(ran)
    detail["errors"] = failed[:5]
    result = {"correct": not failed, "attempted": len(ran), "failed": len(failed),
              "metrics": metrics}
    return result, detail
