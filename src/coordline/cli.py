"""Configuration-driven command line front end.

Subcommands: validate, rates, region, transfer, simulate, exact, fme. Every
command writes report.json, one line of compact key-sorted JSON, and series.csv
for sweeps to the output directory, and prints the report. Exit codes: 0 success,
2 usage, config or --out write error, 3 failed check, 4 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .codebooks import build_codebooks
from .errors import PreconditionError, ResourceCapError, UsageError
from .evalharness import (
    check_exact_sizes,
    coordination_tv,
    cr_independence,
    exact_induced,
    mc_coordination_tv,
    piecing_check,
)
from .fme import LinearSystem, fme_project
from .linestruct import CONSTANT, AuxSpec, build_aux_joint, channel_of, copy_of, make_network, validate_aux
from .presets import preset_config
from .rates import (
    CodebookRates,
    Mode,
    RatePoint,
    deterministic_region_check,
    functional_region_check,
    large_cr_region_check,
    markov_region_check,
    rate_transfer,
    resource_map,
    thm1_check,
    thm2_check_all,
    zero_local_region_check,
)
from .probability import JointPmf, pmf_from_table

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "network", "aux", "rates", "mode", "n", "trials", "seed",
             "codebook_seeds", "margin", "region", "transfer", "fme"}


class ConfigError(UsageError):
    pass


def _section(d, where: str) -> dict:
    """d, after checking that the config gives it as a JSON object."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    return d


def _required(d, key: str, where: str):
    """d[key], after checking that the config gives section where as a JSON object
    holding key."""
    if key not in _section(d, where):
        raise ConfigError(f"{where}: missing required field {key!r}")
    return d[key]


def _list(value, where: str) -> list:
    """value, after checking that the config gives it as a JSON list."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON list, got {type(value).__name__}")
    return value


def _integer(value, where: str) -> int:
    """value as an int: an integer, an integral float or an integer literal (a --n entry).
    A boolean, a fraction or any other value is a config error, never truncated."""
    try:
        number = int(value) if isinstance(value, str) else value
        if not isinstance(value, bool) and number == int(number):
            return int(number)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"malformed config value: {where} must be an integer, got {value!r}")


def _reject_unknown(d, allowed: set, where: str):
    unknown = set(_section(d, where)) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")


def _parses_config(fn):
    """Report a malformed config value (non-numeric, wrong shape) as a config
    error instead of letting the ValueError or TypeError escape."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except UsageError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc

    return wrapper


def _table_key(s: str, where: str, pair: bool) -> int | tuple[int, int]:
    """A rates table key: 'i,j' in a pair table, 'i' in a node table."""
    try:
        key = tuple(int(part) for part in str(s).split(","))
    except ValueError:
        key = ()
    if len(key) != 1 + pair:
        raise ConfigError(f"{where}: bad key {s!r}; expected {('i,j' if pair else 'i')!r}")
    return key if pair else key[0]


class Experiment:
    """Parsed and validated experiment configuration."""

    @_parses_config
    def __init__(self, cfg: dict):
        _reject_unknown(cfg, _TOP_KEYS, "config")
        if cfg.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
        net_cfg = cfg.get("network")
        if not net_cfg:
            raise ConfigError("config requires a network section")
        _reject_unknown(net_cfg, {"h", "target"}, "network")
        self.network = make_network(_integer(_required(net_cfg, "h", "network"), "network.h"),
                                    np.asarray(_required(net_cfg, "target", "network"), dtype=float))

        self.aux_joint: JointPmf | None = None
        if "aux" in cfg:
            defs = {}
            for label, d in _section(cfg["aux"], "aux").items():
                where = f"aux.{label}"
                _reject_unknown(d, {"kind", "source", "given", "weights", "size"}, where)
                kind = d.get("kind")
                if kind == "constant":
                    defs[label] = CONSTANT
                elif kind == "copy":
                    defs[label] = copy_of(_required(d, "source", where))
                elif kind == "channel":
                    defs[label] = channel_of(*(_required(d, key, where)
                                               for key in ("given", "weights", "size")))
                else:
                    raise ConfigError(f"{where}: unknown kind {kind!r}")
            self.aux_joint = build_aux_joint(self.network, defs)

        self.rates: CodebookRates | None = None
        if "rates" in cfg:
            r = cfg["rates"]
            _reject_unknown(r, {"mu_plus", "mu_minus", "kappa_plus", "kappa_minus", "lambda"},
                            "rates")

            def table(key, pair=False):
                where = f"rates.{key}"
                return {_table_key(k, where, pair): v for k, v in _section(r.get(key, {}), where).items()}

            self.rates = CodebookRates.for_network(
                self.network.h,
                mu_plus=table("mu_plus", pair=True),
                mu_minus=table("mu_minus", pair=True),
                kappa_plus=table("kappa_plus"),
                kappa_minus=table("kappa_minus"),
                lam=table("lambda"),
            )

        self.mode = Mode(cfg.get("mode", "functional"))
        self.n_list = [_integer(v, "n") for v in _list(cfg.get("n", [1]), "n")]
        if not self.n_list:
            raise ConfigError("n must list at least one block length")
        self.trials = _integer(cfg.get("trials", 1000), "trials")
        self.seed = _integer(cfg.get("seed", 0), "seed")
        cb = cfg.get("codebook_seeds", 10)
        self.codebook_seeds = (list(range(_integer(cb, "codebook_seeds"))) if isinstance(cb, (int, float))
                               else [_integer(v, "codebook_seeds") for v in _list(cb, "codebook_seeds")])
        self.margin = _finite_margin(cfg.get("margin", 1e-6), "margin", nonnegative=True)
        self.region = cfg.get("region", {})
        self.transfer = cfg.get("transfer", {})
        self.fme = cfg.get("fme", {})

    @functools.cached_property
    def spec(self) -> AuxSpec | None:
        """The aux joint's factored kernels, derived on first read; None without an aux section."""
        return None if self.aux_joint is None else AuxSpec.from_joint(self.network, self.aux_joint)


def _load_config(args) -> dict:
    if args.preset and args.config:
        raise ConfigError("pass either --preset or --config, not both")
    if args.preset:
        cfg = preset_config(args.preset)
    elif args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = json.loads(text)
    else:
        raise ConfigError("a --config file or --preset name is required")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.n is not None:
        cfg["n"] = args.n.split(",")
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.mode:
        cfg["mode"] = args.mode
    if args.margin is not None:
        cfg["margin"] = args.margin
    if args.theorem:
        _section(cfg.setdefault("region", {}), "region")["theorem"] = args.theorem
    return cfg


@_parses_config
def _finite_margin(value, where: str, nonnegative: bool = False) -> float:
    margin = float(value)
    if not math.isfinite(margin) or (nonnegative and margin < 0):
        raise ConfigError(f"{where} must be finite{' and nonnegative' if nonnegative else ''}, got {margin}")
    return margin


@_parses_config
def _point_from(d: dict) -> RatePoint:
    _reject_unknown(d, {"Rc", "R", "rho"}, "point")
    rc, r, rho = (_required(d, key, "point") for key in ("Rc", "R", "rho"))
    return RatePoint(float(rc), tuple(float(v) for v in _list(r, "point.R")),
                     tuple(float(v) for v in _list(rho, "point.rho")))


@_parses_config
def _points(region: dict) -> list[RatePoint]:
    return [_point_from(p) for p in region.get("points", [])]


@_parses_config
def _z_pmf(region: dict) -> JointPmf:
    """The region section's z joint."""
    d = _required(region, "z", "region")
    _reject_unknown(d, {"labels", "weights"}, "region.z")
    return pmf_from_table(list(_required(d, "labels", "region.z")),
                          np.asarray(_required(d, "weights", "region.z"), dtype=float))


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns (payload, ok))


def _cmd_validate(exp: Experiment) -> tuple[dict, bool]:
    if exp.spec is None:
        raise ConfigError("validate requires an aux section")
    report = validate_aux(exp.spec)
    return {"validate": report.to_dict()}, report.ok


def _cmd_rates(exp: Experiment) -> tuple[dict, bool]:
    if exp.spec is None or exp.rates is None:
        raise ConfigError("rates requires aux and rates sections")
    t1 = thm1_check(exp.rates, exp.spec, exp.margin)
    t2 = thm2_check_all(exp.rates, exp.spec, exp.margin)
    point = resource_map(exp.rates, exp.mode, exp.spec)
    ok = t1.passed and all(r.passed for r in t2)
    return {"thm1": t1.to_dict(), "thm2": [r.to_dict() for r in t2],
            "resource_point": point.to_dict(), "mode": exp.mode.value}, ok


def _cmd_region(exp: Experiment) -> tuple[dict, bool]:
    region = exp.region
    _reject_unknown(region, {"theorem", "points", "z", "margin"}, "region")
    theorem = region.get("theorem")
    pts = _points(region)
    if not pts:
        raise ConfigError("region requires at least one point")
    margin = _finite_margin(region.get("margin", 0.0), "region.margin")
    checks = {
        "deterministic": lambda pt: deterministic_region_check(pt, exp.network),
        "large-cr": lambda pt: large_cr_region_check(pt, exp.network),
        "zero-local": lambda pt: zero_local_region_check(pt, exp.network),
        "functional": lambda pt: functional_region_check(pt, exp.network, _z_pmf(region), margin),
        "markov": lambda pt: markov_region_check(pt, exp.network, _z_pmf(region), margin),
    }
    check = checks.get(theorem) if isinstance(theorem, str) else None
    if check is None:
        raise ConfigError(f"unknown region theorem {theorem!r}")
    reports = [check(pt) for pt in pts]
    out = [{"point": pt.to_dict(), "report": rep.to_dict()} for pt, rep in zip(pts, reports)]
    return {"region": {"theorem": theorem, "points": out}}, all(rep.passed for rep in reports)


def _cmd_transfer(exp: Experiment) -> tuple[dict, bool]:
    t = exp.transfer
    _reject_unknown(t, {"lemma", "mode_family", "node", "delta", "point"}, "transfer")
    pt = _point_from(_required(t, "point", "transfer"))
    lemma, node, delta = _transfer_numbers(t)
    moved = rate_transfer(pt, lemma, _required(t, "mode_family", "transfer"), node, delta)
    return {"transfer": {"input": pt.to_dict(), "output": moved.to_dict()}}, True


def _cmd_simulate(exp: Experiment) -> tuple[dict, bool]:
    if exp.spec is None or exp.rates is None:
        raise ConfigError("simulate requires aux and rates sections")
    series = [mc_coordination_tv(exp.spec, exp.rates, exp.mode, n, exp.trials,
                                 exp.codebook_seeds, exp.seed).to_dict() for n in exp.n_list]
    return {"simulate": {"series": series}}, True


def _cmd_exact(exp: Experiment) -> tuple[dict, bool]:
    if exp.spec is None or exp.rates is None:
        raise ConfigError("exact requires aux and rates sections")
    series = []
    for n in exp.n_list:
        per_seed = []
        for cb_seed in exp.codebook_seeds:
            cb = build_codebooks(exp.spec, exp.rates, n, cb_seed)
            check_exact_sizes(cb)
            ex = exact_induced(cb, exp.mode)
            per_seed.append({
                "codebook_seed": cb_seed,
                "coordination_tv": coordination_tv(ex, exp.network),
                "cr_independence": cr_independence(cb),
                "piecing": piecing_check(cb),
                "degenerate_paths": ex.degenerate_paths,
            })
        tvs = [r["coordination_tv"] for r in per_seed]
        series.append({"n": n, "per_seed": per_seed,
                       "tv_mean": float(np.mean(tvs)) if tvs else None})
    return {"exact": {"series": series}}, True


@_parses_config
def _transfer_numbers(t: dict) -> tuple[int, int, float]:
    lemma, node, delta = (_required(t, key, "transfer") for key in ("lemma", "node", "delta"))
    return int(lemma), int(node), float(delta)


@_parses_config
def _fme_lists(f: dict) -> tuple[list, list[tuple[dict, float]], list]:
    """(variables, rows, eliminate) of the fme section."""
    rows = [({k: float(v) for k, v in _section(_required(r, "coeffs", "fme row"), "fme row coeffs").items()},
             float(_required(r, "rhs", "fme row")))
            for r in _required(f, "rows", "fme")]
    return (_list(_required(f, "variables", "fme"), "fme.variables"), rows,
            _list(f.get("eliminate", []), "fme.eliminate"))


def _cmd_fme(exp: Experiment) -> tuple[dict, bool]:
    f = exp.fme
    _reject_unknown(f, {"variables", "rows", "eliminate"}, "fme")
    variables, rows, eliminate = _fme_lists(f)
    projected = fme_project(LinearSystem.build(variables, rows), eliminate)
    return {"fme": projected.to_dict()}, True


COMMANDS = {"validate": _cmd_validate, "rates": _cmd_rates, "region": _cmd_region,
            "transfer": _cmd_transfer, "simulate": _cmd_simulate, "exact": _cmd_exact, "fme": _cmd_fme}


# ---------------------------------------------------------------------------


def _emit(payload: dict, ok: bool, out_dir: str, command: str) -> None:
    payload = {**payload, "command": command, "passed": ok,
               "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":"))
    (out / "report.json").write_text(text + "\n")
    if command in ("simulate", "exact") and command in payload:  # not on an error report
        with (out / "series.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows([("n", "tv_mean", "radius")] + [
                (row["n"], row["tv_mean"], row.get("radius", "")) for row in payload[command]["series"]])
    try:
        print(text)
    except BrokenPipeError:  # stdout's reader is gone: keep the shutdown flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call: parse_args
    reads it without changing it, and returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(prog="coordline",
                                     description="strong-coordination line-network toolkit")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--preset", help="named preset configuration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--n", help="comma-separated block lengths")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--mode", choices=[m.value for m in Mode], default=None)
    parser.add_argument("--margin", type=float, default=None)
    parser.add_argument("--theorem",
                        choices=["functional", "large-cr", "markov", "deterministic", "zero-local"],
                        default=None, help="region subcommand: which region to test")
    parser.add_argument("--out", default=".", help="output directory for report.json/series.csv")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect (runs are sequential)")
    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        payload, ok = COMMANDS[args.command](Experiment(_load_config(args)))
        code = 0 if ok else 3
    except PreconditionError as exc:
        payload, code = {"error": str(exc), "broken": exc.broken}, 3
    except ResourceCapError as exc:
        payload, code = {"error": str(exc)}, 4
    except (ConfigError, UsageError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, code == 0, args.out, args.command)
    except OSError as exc:
        print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
