import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coordline.cli as cli
from coordline.cli import Experiment, run_command
from coordline.codebooks import build_codebooks
from coordline.linestruct import AuxSpec
from coordline.presets import preset_config
from coordline.rates import Mode

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which strict JSON has no spelling for,
    and any text other than the one line of compact, key-sorted JSON the CLI writes."""
    def reject(constant):
        raise ValueError(f"report holds {constant}")

    report = json.loads(text, parse_constant=reject)
    assert text == regen.report_text(report)
    return report


class TestValidate:
    def test_dsbs_preset_ok(self, tmp_path, capsys):
        code = run_command(["validate", "--preset", "dsbs", "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path)
        assert report["passed"]
        assert all(c["passed"] for c in report["validate"]["checks"])

    def test_unknown_field_rejected(self, tmp_path):
        cfg = preset_config("dsbs")
        cfg["surprise"] = 1
        code = run_command(["validate", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 2


class TestRates:
    def test_dsbs_rates_pass(self, tmp_path, capsys):
        code = run_command(["rates", "--preset", "dsbs", "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path)
        assert report["thm1"]["passed"]
        assert report["resource_point"]["Rc"] == pytest.approx(1.0 - 0.18872187554086717)

    def test_control_preset_fails_checks(self, tmp_path, capsys):
        code = run_command(["rates", "--preset", "dsbs-control", "--out", str(tmp_path)])
        assert code == 3


class TestRegion:
    def test_deterministic_inapplicable_on_random_target(self, tmp_path, capsys):
        cfg = preset_config("dsbs")
        cfg["region"] = {"theorem": "deterministic",
                        "points": [{"Rc": 0.0, "R": [1.0], "rho": [0.0, 0.0]}]}
        code = run_command(["region", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 3
        report = read_report(tmp_path)
        assert "inapplicable" in report["region"]["points"][0]["report"]["note"]

    def test_copy3_deterministic_classification(self, tmp_path, capsys):
        cfg = preset_config("copy3")
        cfg["region"] = {"theorem": "deterministic", "points": [
            {"Rc": 0.0, "R": [1.0, 1.0], "rho": [0.0, 0.0, 0.0]},
            {"Rc": 0.0, "R": [0.9, 1.0], "rho": [0.0, 0.0, 0.0]},
        ]}
        code = run_command(["region", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 3  # second point fails
        report = read_report(tmp_path)
        flags = [p["report"]["passed"] for p in report["region"]["points"]]
        assert flags == [True, False]

    def test_large_cr_boundary(self, tmp_path, capsys):
        mi = 0.18872187554086717
        cfg = preset_config("dsbs")
        cfg["region"] = {"theorem": "large-cr",
                        "points": [{"Rc": 0.9, "R": [mi + 1e-5], "rho": [0.0, 0.0]}]}
        code = run_command(["region", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 0


class TestTransfer:
    def test_lemma1(self, tmp_path, capsys):
        cfg = preset_config("dsbs")
        cfg["transfer"] = {"lemma": 1, "mode_family": "functional-AD", "node": 2,
                          "delta": 0.5, "point": {"Rc": 0.0, "R": [0.3], "rho": [0.1, 0.5]}}
        code = run_command(["transfer", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path)
        assert report["transfer"]["output"]["Rc"] == pytest.approx(0.5)
        assert report["transfer"]["output"]["rho"] == [pytest.approx(0.1), pytest.approx(0.0)]


class TestSimulateExact:
    def test_exact_indep_uniform_tv_zero(self, tmp_path, capsys):
        code = run_command(["exact", "--preset", "indep-uniform", "--n", "1",
                            "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path)
        assert report["exact"]["series"][0]["tv_mean"] == pytest.approx(0.0, abs=1e-12)
        assert (tmp_path / "series.csv").exists()

    def test_simulate_writes_series(self, tmp_path, capsys):
        cfg = preset_config("indep-uniform")
        cfg["codebook_seeds"] = 2
        cfg["trials"] = 200
        code = run_command(["simulate", "--config", write_config(tmp_path, cfg),
                            "--n", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "series.csv").read_text().startswith("n,tv_mean,radius")


class TestFme:
    def test_simple_projection(self, tmp_path, capsys):
        cfg = {"schema_version": 1,
               "network": {"h": 2, "target": [[0.25, 0.25], [0.25, 0.25]]},
               "fme": {"variables": ["x", "y"],
                       "rows": [{"coeffs": {"x": 1, "y": 1}, "rhs": 2},
                                {"coeffs": {"y": -1}, "rhs": -1}],
                       "eliminate": ["y"]}}
        code = run_command(["fme", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path)
        assert report["fme"]["variables"] == ["x"]

    def test_variable_eliminated_twice_is_usage_error(self, tmp_path, capsys):
        cfg = {"schema_version": 1,
               "network": {"h": 2, "target": [[0.25, 0.25], [0.25, 0.25]]},
               "fme": {"variables": ["x", "y"], "rows": [{"coeffs": {"x": 1}, "rhs": 0}],
                       "eliminate": ["y", "y"]}}
        code = run_command(["fme", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 2
        assert "eliminated twice" in capsys.readouterr().err


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_leak_between_calls(self, tmp_path, monkeypatch, capsys):
        """The shared parser gives each call a fresh namespace: flags set on one call
        read as their defaults on the next."""
        seen = []
        original = cli._load_config

        def spy(args):
            seen.append(dict(vars(args)))
            return original(args)

        monkeypatch.setattr(cli, "_load_config", spy)
        flags = {"seed": 7, "n": "2", "trials": 9, "mode": "unrestricted", "margin": 0.5,
                 "theorem": "markov", "threads": 2}
        argv = [f"--{k}={v}" for k, v in flags.items()]
        assert run_command(["validate", "--preset", "dsbs", *argv, "--out", str(tmp_path / "a")]) == 0
        assert run_command(["validate", "--preset", "copy3", "--out", str(tmp_path / "b")]) == 0
        first, second = seen
        assert {k: first[k] for k in flags} == flags
        assert second == {"command": "validate", "config": None, "preset": "copy3", "seed": None,
                          "n": None, "trials": None, "mode": None, "margin": None, "theorem": None,
                          "out": str(tmp_path / "b"), "threads": 1}
        cli.build_parser.cache_clear()
        assert run_command(["validate", "--preset", "copy3", "--out", str(tmp_path / "c")]) == 0
        assert seen[2] == second | {"out": str(tmp_path / "c")}


class TestDeterminism:
    def test_identical_runs_identical_reports(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_command(["exact", "--preset", "indep-uniform", "--n", "1,2",
                                "--seed", "5", "--out", str(out)])
            assert code == 0
        texts = [re.subn(r'"generated_at":"[^"]*"', '"generated_at":""', (out / "report.json").read_text())
                 for out in (out1, out2)]
        assert texts[0] == texts[1] and texts[0][1] == 1
        assert (out1 / "series.csv").read_text() == (out2 / "series.csv").read_text()

    def test_report_reparses(self, tmp_path, capsys):
        code = run_command(["rates", "--preset", "markov3", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "report.json").read_text()
        assert json.loads(text)["command"] == "rates"


class TestResourceCapExit:
    def test_exact_exit_code_4(self, tmp_path, monkeypatch, capsys):
        cfg = preset_config("dsbs")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setenv("COORDLINE_CAP", "64")
        code = run_command(["exact", "--config", str(path), "--n", "4",
                            "--out", str(tmp_path)])
        assert code == 4
        report = read_report(tmp_path)
        assert "error" in report

    def test_cap_error_names_needed_size_cap_and_env(self, tmp_path, monkeypatch, capsys):
        exp = Experiment(preset_config("dsbs"))
        cb = build_codebooks(exp.spec, exp.rates, 4, 0)
        stored = sum(book.words.size for books in (cb.a, cb.b, cb.c) for book in books.values())
        monkeypatch.setenv("COORDLINE_CAP", "64")
        code = run_command(["exact", "--preset", "dsbs", "--n", "4", "--out", str(tmp_path)])
        assert code == 4
        error = read_report(tmp_path)["error"]
        assert f"{stored} needed" in error
        assert "above the cap of 64" in error
        assert f"COORDLINE_CAP={stored}" in error

    def test_exact_sizes_checked_before_any_evaluator(self, tmp_path, monkeypatch, capsys):
        """copy3 at n=5 passes the exact-path and cr_independence caps but not
        piecing's; exact refuses it before exact_induced runs."""
        def refuse(*args):
            raise AssertionError("exact_induced ran before the piecing cap refused the codebook")

        monkeypatch.setattr(cli, "exact_induced", refuse)
        code = run_command(["exact", "--preset", "copy3", "--n", "5", "--out", str(tmp_path)])
        assert code == 4
        error = read_report(tmp_path)["error"]
        assert error.startswith("piecing enumeration cells: 192937984 needed")


class TestTheoremFlag:
    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = preset_config("copy3")
        cfg["region"] = {"points": [{"Rc": 0.0, "R": [1.0, 1.0], "rho": [0.0, 0.0, 0.0]}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_command(["region", "--config", str(path), "--theorem", "deterministic",
                            "--out", str(tmp_path)])
        assert code == 0
        assert read_report(tmp_path)["region"]["theorem"] == "deterministic"


class TestContractExitCodes:
    """Malformed input exits 2 with an error line, oversized books exit 4, and
    report.json stays strict JSON; none of these may surface a traceback."""

    def test_non_integer_cap_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COORDLINE_CAP", "abc")
        code = run_command(["validate", "--preset", "dsbs", "--out", str(tmp_path)])
        assert code == 2
        assert "error: COORDLINE_CAP" in capsys.readouterr().err

    def test_non_numeric_config_field_exits_2(self, tmp_path, capsys):
        for field, value in (("h", "two"), ("target", [[0.5], [0.25, 0.25]])):
            cfg = preset_config("dsbs")
            cfg["network"][field] = value
            code = run_command(["validate", "--config", write_config(tmp_path, cfg),
                                "--out", str(tmp_path)])
            assert code == 2
            assert "error: malformed config value" in capsys.readouterr().err

    def test_non_numeric_region_point_exits_2(self, tmp_path, capsys):
        cfg = preset_config("dsbs")
        cfg["region"] = {"theorem": "large-cr",
                         "points": [{"Rc": "lots", "R": [0.2], "rho": [0.0, 0.0]}]}
        code = run_command(["region", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 2

    def test_huge_non_integer_rate_exits_4(self, tmp_path, capsys):
        cfg = preset_config("dsbs")
        cfg["rates"]["lambda"] = {"2": 300.3}
        cfg["codebook_seeds"] = 1
        for command in ("exact", "simulate"):
            out = tmp_path / command
            code = run_command([command, "--config", write_config(tmp_path, cfg),
                                "--n", "4", "--out", str(out)])
            assert code == 4
            assert "above any cap" in read_report(out)["error"]

    def test_caps_config_key_exits_2(self, tmp_path, capsys):
        cfg = preset_config("dsbs")
        cfg["caps"] = {"cells": 1000}
        code = run_command(["validate", "--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path)])
        assert code == 2
        assert "unknown fields in config: ['caps']" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["2.5", "x", "1,,2", "1e3", "true"])
    def test_non_integer_n_flag_exits_2(self, tmp_path, capsys, value):
        code = run_command(["exact", "--preset", "dsbs", "--n", value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "n must be an integer" in err
        assert not (tmp_path / "report.json").exists()

    def test_empty_n_flag_exits_2(self, tmp_path, capsys):
        code = run_command(["exact", "--preset", "dsbs", "--n=", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "n must be an integer, got ''" in err
        assert not (tmp_path / "report.json").exists()

    def test_empty_n_list_exits_2(self, tmp_path, capsys):
        cfg = preset_config("dsbs")
        cfg["n"] = []
        code = run_command(["exact", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "n must list at least one block length" in err
        assert not (tmp_path / "report.json").exists()

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        code = run_command(["simulate", "--preset", "dsbs", "--n", "1", "--trials", "0",
                            "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("argv, cap", [(["validate", "--preset", "dsbs"], None),
                                           (["exact", "--preset", "dsbs", "--n", "4"], "64")])
    def test_unwritable_out_exits_2(self, tmp_path, monkeypatch, capsys, argv, cap, below):
        """--out naming a file, or a path below one, on a passing run and on a capped one."""
        if cap:
            monkeypatch.setenv("COORDLINE_CAP", cap)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "sub" if below else blocker
        code = run_command(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: cannot write report to {out}: ")
        assert captured.out == "" and blocker.read_text() == "kept"

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        """A --config that is a directory, or a file that is not UTF-8, is a config error
        naming the path; no report is written."""
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x7b")
        out = tmp_path / "out"
        code = run_command(["validate", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, preset, want", [("rates", "markov3", 0),
                                                       ("rates", "dsbs-control", 3),
                                                       ("validate", "dsbs", 0)])
    def test_closed_stdout_keeps_exit_code(self, tmp_path, command, preset, want):
        """stdout is a pipe whose reader is gone before the report is printed: no
        traceback, and report.json and the command's own exit code stand."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("COORDLINE_CAP", None)
        try:
            proc = subprocess.run([sys.executable, "-m", "coordline.cli", command, "--preset", preset,
                                   "--out", str(tmp_path)],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (want, b"")
        assert strict_json((tmp_path / "report.json").read_text())["command"] == command

    def test_no_codebook_seeds_reports_null(self, tmp_path, capsys):
        cfg = preset_config("dsbs")
        cfg["codebook_seeds"] = []
        code = run_command(["simulate", "--config", write_config(tmp_path, cfg),
                            "--n", "1", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "report.json").read_text()
        row = json.loads(text, parse_constant=pytest.fail)["simulate"]["series"][0]
        assert row["tv_mean"] is None and row["radius"] is None


FME_ROWS = [{"coeffs": {"x": 1, "y": 1}, "rhs": 2}]
DSBS_Z = {"labels": ["X1", "X2", "Z2"],  # Z2 = X2
          "weights": [[[0.375, 0.0], [0.125, 0.0]], [[0.0, 0.125], [0.0, 0.375]]]}


class TestMalformedSections:
    """A config section or list field of the wrong JSON type is a config error
    (exit 2), caught where the section is read."""

    @pytest.mark.parametrize("command, section, value", [
        ("region", "region", 5),
        ("region", "region", {"theorem": "large-cr", "points": 5}),
        ("transfer", "transfer", 5),
        ("validate", "aux", 5),
        ("fme", "fme", {"variables": 5, "rows": FME_ROWS, "eliminate": ["y"]}),
        ("fme", "fme", {"variables": ["x", "y"], "rows": FME_ROWS, "eliminate": 5}),
        # an integer field given a boolean or a fraction, which int() would truncate
        ("validate", "network", {"h": True, "target": preset_config("dsbs")["network"]["target"]}),
        ("validate", "network", {"h": 2.5, "target": preset_config("dsbs")["network"]["target"]}),
        ("exact", "n", [1.7]),
        ("exact", "n", [True]),
        ("simulate", "trials", True),
        ("simulate", "trials", 10.5),
        ("exact", "seed", 1.5),
        ("exact", "seed", False),
        ("exact", "codebook_seeds", True),
        ("exact", "codebook_seeds", 1.5),
        ("exact", "codebook_seeds", [0.5]),
        # variable names that cannot be hashed
        ("fme", "fme", {"variables": [["x"], "y"], "rows": [], "eliminate": []}),
        ("fme", "fme", {"variables": [{"x": 1}, "y"], "rows": [{"coeffs": {"y": 1}, "rhs": 2}],
                        "eliminate": ["y"]}),
        # finite rates and margins whose constraint sums overflow to inf
        ("region", "region", {"theorem": "functional", "z": DSBS_Z,
                              "points": [{"Rc": 1e308, "R": [0.0], "rho": [1e308, 1e308]}]}),
        ("region", "region", {"theorem": "functional", "z": DSBS_Z, "margin": -1.7e308,
                              "points": [{"Rc": 1.7e308, "R": [0.0], "rho": [0.0, 0.0]}]}),
        ("rates", "rates", {"mu_plus": {"1,2": 1.7e308}, "mu_minus": {"1,2": 1.7e308},
                            "lambda": {"2": 0.25}}),
    ], ids=["region", "region-points", "transfer", "aux", "fme-variables", "fme-eliminate",
            "h-bool", "h-fraction", "n-fraction", "n-bool", "trials-bool", "trials-fraction",
            "seed-fraction", "seed-bool", "seeds-bool", "seeds-fraction", "seeds-list-fraction",
            "fme-variable-list", "fme-variable-object", "region-lhs-overflow", "region-slack-overflow",
            "rates-lhs-overflow"])
    def test_exits_2_without_traceback(self, tmp_path, capsys, command, section, value):
        cfg = preset_config("dsbs")
        cfg[section] = value
        code = run_command([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("exact", "n", "12"),
        ("exact", "n", {"1": 0}),
        ("exact", "codebook_seeds", "01"),
        ("exact", "codebook_seeds", {"0": 1}),
        ("fme", "fme", {"variables": "xy", "rows": FME_ROWS, "eliminate": ["y"]}),
        ("fme", "fme", {"variables": ["x", "y"], "rows": FME_ROWS, "eliminate": "y"}),
    ], ids=["n-string", "n-object", "seeds-string", "seeds-object", "fme-variables-string",
            "fme-eliminate-string"])
    def test_list_field_of_another_type_exits_2(self, tmp_path, capsys, command, key, value):
        """Iterating a string or an object would read its characters or keys as the list."""
        cfg = preset_config("dsbs")
        cfg[key] = value
        code = run_command([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "must be a JSON list" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, section, value, missing", [
        ("transfer", "transfer", {"lemma": 1, "mode_family": "functional-AD", "node": 2, "delta": 0.1},
         "transfer: missing required field 'point'"),
        ("fme", "fme", {"variables": ["x", "y"], "eliminate": ["y"]}, "fme: missing required field 'rows'"),
        ("fme", "fme", {"variables": ["x", "y"], "rows": [{"coeffs": {"x": 1}}], "eliminate": ["y"]},
         "fme row: missing required field 'rhs'"),
        ("region", "region", {"theorem": "functional", "points": [{"Rc": 1.0, "R": [1.0], "rho": [0.0, 0.0]}]},
         "region: missing required field 'z'"),
        ("region", "region", {"theorem": "large-cr", "points": [{"Rc": 1.0, "R": [1.0]}]},
         "point: missing required field 'rho'"),
        ("validate", "aux", {"A1_2": {"kind": "copy"}, "B1_2": {"kind": "constant"},
                             "C2": {"kind": "copy", "source": "X2"}},
         "aux.A1_2: missing required field 'source'"),
        ("validate", "network", {"target": preset_config("dsbs")["network"]["target"]},
         "network: missing required field 'h'"),
    ], ids=["transfer-point", "fme-rows", "fme-row-rhs", "region-z", "point-rho", "aux-copy-source",
            "network-h"])
    def test_missing_field_names_its_section(self, tmp_path, capsys, command, section, value, missing):
        cfg = preset_config("dsbs")
        cfg[section] = value
        code = run_command([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {missing}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, section, value, message", [
        ("validate", "network", {"h": -1}, "h must be >= 2"),
        ("validate", "network", {"h": 0}, "h must be >= 2"),
        ("validate", "network", {"h": 1}, "h must be >= 2"),
        ("validate", "network", {"target": [[0.5, 0.2], [0.2, 0.5]]},
         "probability mass must sum to 1 within 1e-09, got total 1.4"),
        ("rates", "rates", {"kappa_plus": {"1,2": 0.5}}, "rates.kappa_plus: bad key '1,2'; expected 'i'"),
        ("rates", "rates", {"kappa_minus": {"1,2": 0.5}}, "rates.kappa_minus: bad key '1,2'; expected 'i'"),
        ("rates", "rates", {"lambda": {"1,2": 0.5}}, "rates.lambda: bad key '1,2'; expected 'i'"),
        ("rates", "rates", {"mu_plus": {"x": 0.5}}, "rates.mu_plus: bad key 'x'; expected 'i,j'"),
        ("rates", "rates", {"mu_minus": {"x": 0.5}}, "rates.mu_minus: bad key 'x'; expected 'i,j'"),
    ], ids=["h-negative", "h-zero", "h-one", "target-unnormalized", "rates-kappa-plus-key",
            "rates-kappa-minus-key", "rates-lambda-key", "rates-mu-plus-key", "rates-mu-minus-key"])
    def test_bad_value_names_its_fault(self, tmp_path, capsys, command, section, value, message):
        """h is checked before the target's axis count, a target's mass error names its
        total (not a Python keyword the config cannot pass), and a bad rates key names
        its table. The value is merged into the preset's section."""
        cfg = preset_config("dsbs")
        cfg[section] |= value
        code = run_command([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, point, message", [
        ("region", {"Rc": 1.0, "R": 5, "rho": [0.0, 0.0]}, "point.R must be a JSON list, got int"),
        ("region", {"Rc": 1.0, "R": [0.2], "rho": 0}, "point.rho must be a JSON list, got int"),
        ("transfer", {"Rc": 0.0, "R": 0.3, "rho": [0.1, 0.5]}, "point.R must be a JSON list, got float"),
        ("transfer", {"Rc": 0.0, "R": [0.3], "rho": 1}, "point.rho must be a JSON list, got int"),
    ], ids=["region-point-R", "region-point-rho", "transfer-point-R", "transfer-point-rho"])
    def test_point_field_of_another_type_names_it(self, tmp_path, capsys, command, point, message):
        """A region or transfer point's R and rho are lists; a number is named, not iterated."""
        cfg = preset_config("dsbs")
        cfg["region"] = {"theorem": "large-cr", "points": [point]}
        cfg["transfer"] = {"lemma": 1, "mode_family": "functional-AD", "node": 2, "delta": 0.5, "point": point}
        code = run_command([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("weights, shape", [([0.5, 0.5], "(2,)"), ([[0.5, 0.5, 0.0]] * 2, "(2, 3)")],
                             ids=["flat", "wide"])
    def test_misshapen_channel_weights_name_the_shapes(self, tmp_path, capsys, weights, shape):
        """A channel's weights are indexed by its given axes, then its own: the message names
        the aux label, the shape given and the one expected."""
        cfg = preset_config("dsbs")
        cfg["aux"]["C2"] = {"kind": "channel", "given": ["X2"], "weights": weights, "size": 2}
        code = run_command(["validate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: C2: kernel weights have shape {shape}, expected (2, 2) over (X2, C2)\n"
        assert not (tmp_path / "report.json").exists()


class TestKernelsDerivedOnFirstRead:
    """Experiment keeps the aux joint and derives the AuxSpec kernels when a command
    first reads exp.spec: region never does, validate and rates do once, and every aux
    config error still exits 2 before any command runs. The config is the golden h=5
    BSC chain, the shape of the analytic benchmark requests."""

    @pytest.fixture
    def derived(self, monkeypatch):
        calls = []
        from_joint = AuxSpec.from_joint.__func__

        def spy(cls, network, joint):
            calls.append(network.h)
            return from_joint(cls, network, joint)

        monkeypatch.setattr(AuxSpec, "from_joint", classmethod(spy))
        return calls

    @pytest.mark.parametrize("theorem", ["large-cr", "zero-local"])
    def test_region_never_derives_kernels(self, tmp_path, capsys, derived, theorem):
        code = run_command(["region", "--config", write_config(tmp_path, regen.bsc_config(theorem)),
                            "--out", str(tmp_path)])
        points = read_report(tmp_path)["region"]["points"]
        assert (code, [p["report"]["passed"] for p in points]) == (3, [False, True, False, False])
        assert derived == []

    @pytest.mark.parametrize("command", ["validate", "rates"])
    def test_validate_and_rates_derive_once(self, tmp_path, capsys, derived, command):
        code = run_command([command, "--config", write_config(tmp_path, regen.bsc_config()),
                            "--out", str(tmp_path)])
        assert (code, read_report(tmp_path)["command"]) == (0, command)
        assert derived == [5]

    @pytest.mark.parametrize("aux, message", [
        ({"kind": "copy", "source": "Q9"}, "C2: copy source 'Q9' not yet defined"),
        ({"kind": "channel", "given": ["X2"], "weights": [0.5, 0.5], "size": 2},
         "C2: kernel weights have shape (2,), expected (2, 2) over (X2, C2)")], ids=["copy", "channel"])
    def test_region_aux_config_errors_exit_2(self, tmp_path, capsys, derived, aux, message):
        cfg = regen.bsc_config("large-cr")
        cfg["aux"]["C2"] = aux
        code = run_command(["region", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2 and capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "report.json").exists() and derived == []


class TestMarginSign:
    """The top-level margin is nonnegative: a negative one exits 2, and 0 checks the
    strict inequalities non-strictly. region.margin may be negative (its inequalities
    are closed)."""

    @pytest.mark.parametrize("preset", ["dsbs-control", "copy3"])
    def test_negative_margin_flag(self, tmp_path, capsys, preset):
        """A negative margin would pass strict checks that fail: dsbs-control fails
        Theorem 1 at the default margin and at 0, copy3 fails Theorem 2 at the default."""
        code = run_command(["rates", "--preset", preset, "--margin=-1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: margin must be finite and nonnegative, got -1.0\n"
        assert not (tmp_path / "report.json").exists()

    def test_negative_margin_in_config(self, tmp_path, capsys):
        cfg = preset_config("dsbs-control")
        cfg["margin"] = -1e-9
        code = run_command(["rates", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: margin must be finite and nonnegative, got -1e-09\n"

    @pytest.mark.parametrize("flags", [[], ["--margin=0"], ["--margin=-0.0"]],
                             ids=["default", "zero", "minus-zero"])
    def test_zero_margin_checks_non_strictly(self, tmp_path, flags):
        """A margin of 0 is allowed: dsbs-control fails its checks with it, as with the default."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_command(["rates", "--preset", "dsbs-control", *flags, "--out", str(tmp_path)])
        assert code == 3
        assert (tmp_path / "report.json").exists()


class TestNonFiniteNumbers:
    """A NaN or infinite number from the config or a flag is a usage error (exit 2):
    never a traceback, a report with a non-JSON float, or an answer computed from it."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_margin_flag(self, tmp_path, capsys, value):
        code = run_command(["rates", "--preset", "dsbs", f"--margin={value}", "--out", str(tmp_path)])
        assert code == 2
        assert "error: margin must be finite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_margin_in_config(self, tmp_path, capsys):
        cfg = preset_config("dsbs")
        cfg["margin"] = float("nan")
        code = run_command(["rates", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "error: margin must be finite" in capsys.readouterr().err

    @staticmethod
    def _functional_region(margin=0.0, z_cell=0.375):
        cfg = preset_config("dsbs")
        z = [[[z_cell, 0.0], [0.125, 0.0]], [[0.0, 0.125], [0.0, 0.375]]]
        cfg["region"] = {"theorem": "functional", "margin": margin,
                         "points": [{"Rc": 1.0, "R": [1.0], "rho": [0.0, 0.0]}],
                         "z": {"labels": ["X1", "X2", "Z2"], "weights": z}}
        return cfg

    def test_region_margin(self, tmp_path, capsys):
        cfg = self._functional_region(margin=float("nan"))
        code = run_command(["region", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "error: region.margin must be finite" in capsys.readouterr().err

    def test_region_z_weight(self, tmp_path, capsys):
        cfg = self._functional_region(z_cell=float("nan"))
        code = run_command(["region", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "error: probability mass must be finite" in capsys.readouterr().err

    def test_fme_coefficient(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "network": {"h": 2, "target": [[0.5, 0.0], [0.0, 0.5]]},
               "fme": {"variables": ["x", "y"], "eliminate": ["y"],
                       "rows": [{"coeffs": {"x": float("nan"), "y": 1.0}, "rhs": 0.0}]}}
        code = run_command(["fme", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "must be finite, got nan" in capsys.readouterr().err


class TestRangesAboveInt64:
    def test_simulate_with_a_seed_range_of_2_to_the_65_exits_4(self, tmp_path, capsys):
        """indep-uniform's node-1 seed range is 2^(n/2); at n=130 it is 2^65, which
        no int64 draw can cover."""
        cfg = preset_config("indep-uniform")
        cfg["rates"]["lambda"] = {"2": 0.1}
        cfg["codebook_seeds"] = 1
        code = run_command(["simulate", "--config", write_config(tmp_path, cfg), "--n", "130",
                            "--out", str(tmp_path)])
        assert code == 4
        assert "2^65 values is above any cap" in read_report(tmp_path)["error"]


class TestLongLines:
    """BSC chains from the golden h=5 chain config with one crossover per hop: A
    constant, B and C copying the actions."""

    CROSSOVERS = (0.25, 0.2, 0.3, 0.15, 0.1)

    def _config(self, monkeypatch, crossovers):
        monkeypatch.setattr(regen, "BSC_CROSSOVERS", crossovers)
        cfg = regen.bsc_config()
        cfg["codebook_seeds"] = 1
        return cfg

    def test_h6_validate_rates_and_exact(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, self._config(monkeypatch, self.CROSSOVERS))
        assert run_command(["validate", "--config", path, "--out", str(tmp_path / "v")]) == 0
        start = time.perf_counter()
        assert run_command(["rates", "--config", path, "--out", str(tmp_path / "r")]) == 0
        assert time.perf_counter() - start < 10.0
        assert len(read_report(tmp_path / "r")["thm1"]["constraints"]) == 2 * 2 ** 14
        assert run_command(["exact", "--config", path, "--n", "1", "--out", str(tmp_path / "e")]) == 0

    @pytest.mark.parametrize("command", ["rates", "simulate"])
    def test_h7_thm1_subsets_exit_4(self, tmp_path, monkeypatch, capsys, command):
        """21 pairs: 2^20 subsets of up to 21 pairs, 22,020,096 cells, above 2^24."""
        path = write_config(tmp_path, self._config(monkeypatch, self.CROSSOVERS + (0.2,)))
        code = run_command([command, "--config", path, "--n", "1", "--trials", "10",
                            "--out", str(tmp_path)])
        assert code == 4
        error = read_report(tmp_path)["error"]
        assert error.startswith("thm1 subset-pair cells: 22020096 needed, above the cap of 16777216")

    def test_h9_validate_exits_4_naming_the_axes(self, tmp_path, monkeypatch, capsys):
        """9 actions, 36 A, 8 B and 8 C: 61 axes, more than np.einsum numbers."""
        path = write_config(tmp_path, self._config(monkeypatch, (0.25,) * 8))
        assert run_command(["validate", "--config", path, "--out", str(tmp_path)]) == 4
        assert "61 axes needed" in read_report(tmp_path)["error"]


class TestCliFuzz:
    """Every preset command, under any values of its flags, exits 0, 2, 3 or 4 without
    raising, and every report.json it writes is strict JSON."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(command=st.sampled_from(["validate", "rates", "simulate", "exact"]),
           preset=st.sampled_from(["dsbs", "dsbs-control", "indep-uniform", "copy3", "markov3"]),
           n=st.lists(st.sampled_from([str(v) for v in range(-1, 9)] + ["2.5", "x", ""]),
                      min_size=1, max_size=2),
           trials=st.none() | st.integers(-2, 40),
           seed=st.none() | st.integers(-2 ** 65, 2 ** 65),
           margin=st.none() | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf")]),
           mode=st.none() | st.sampled_from([m.value for m in Mode]))
    def test_exit_codes_and_strict_reports(self, command, preset, n, trials, seed, margin, mode):
        cfg = preset_config(preset)
        cfg["codebook_seeds"] = 1
        with tempfile.TemporaryDirectory() as out:
            argv = [command, "--config", write_config(Path(out), cfg), "--out", out,
                    f"--n={','.join(map(str, n))}"]
            for flag, value in (("--trials", trials), ("--seed", seed), ("--margin", margin),
                                ("--mode", mode)):
                if value is not None:
                    argv += [f"{flag}={value}"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run_command(argv)
            assert code in (0, 2, 3, 4)
            report = Path(out) / "report.json"
            assert report.exists() == (code != 2)
            if code != 2:
                assert strict_json(report.read_text())["command"] == command

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(command=st.sampled_from(["validate", "rates", "exact"]),
           preset=st.sampled_from(["dsbs", "copy3", "markov3"]), data=st.data())
    def test_config_fields(self, command, preset, data):
        """validate, rates and exact (n=1, one codebook seed) on a preset with one of its
        network, aux or rates sections fuzzed: most fields valid, some of a wrong type,
        shape or label, out of range, non-finite or missing."""
        cfg = preset_config(preset)
        cfg.update(n=[1], codebook_seeds=1)
        section = data.draw(st.sampled_from(["network", "aux", "rates"]))
        cfg[section] = data.draw(_mostly({"network": _network_section, "aux": _aux_section,
                                          "rates": _rates_section}[section](cfg[section])))
        with tempfile.TemporaryDirectory() as out:
            argv = [command, "--config", write_config(Path(out), cfg), "--out", out]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run_command(argv)
            assert code in (0, 2, 3, 4)
            report = Path(out) / "report.json"
            assert report.exists() == (code != 2)
            if code != 2:
                assert strict_json(report.read_text())["command"] == command

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(command=st.sampled_from(["region", "transfer", "fme"]),
           preset=st.sampled_from(["dsbs", "copy3"]), data=st.data())
    def test_section_commands(self, command, preset, data):
        """region, transfer and fme on fuzzed sections: most fields valid, some of a
        wrong type or length, out of range, non-finite or missing."""
        cfg = preset_config(preset)
        cfg[command] = data.draw(_mostly({"region": _region_section, "transfer": _transfer_section,
                                          "fme": _fme_section}[command](cfg["network"]["target"])))
        with tempfile.TemporaryDirectory() as out:
            argv = [command, "--config", write_config(Path(out), cfg), "--out", out]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run_command(argv)
            assert code in (0, 2, 3, 4)
            report = Path(out) / "report.json"
            assert report.exists() == (code != 2)
            if code != 2:
                assert strict_json(report.read_text())["command"] == command


_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.integers(-2, 3),
                  st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.text(max_size=1), st.integers(0, 2), max_size=1))
_RATE = st.floats(0, 3) | st.sampled_from([-1.0, 1e308, -1e308, float("nan"), float("inf")])
_THEOREMS = ["deterministic", "large-cr", "zero-local", "functional", "markov"]
_FAMILIES = ["unrestricted", "functional", "action-dependent", "functional-AD"]


def _mostly(valid, other=_JUNK):
    """valid, or other in one draw of ten."""
    return st.integers(0, 9).flatmap(lambda r: other if r == 3 else valid)


def _drop_one(fields: dict):
    """The section with all its fields, or, in one draw of ten, without one of them."""
    return st.fixed_dictionaries(fields).flatmap(lambda d: _mostly(st.just(d), st.sampled_from(sorted(d)).map(
        lambda key: {k: v for k, v in d.items() if k != key})))


def _point(h):
    number = _mostly(st.floats(0, 3), _RATE)
    valid = st.fixed_dictionaries({"Rc": number, "R": st.lists(number, min_size=h - 1, max_size=h - 1),
                                   "rho": st.lists(number, min_size=h, max_size=h)})
    misshapen = st.fixed_dictionaries({"Rc": _RATE, "R": st.lists(_RATE, max_size=3),
                                       "rho": st.lists(_RATE, max_size=3)})
    return _mostly(valid, _JUNK | misshapen)


def _z_section(target, theorem):
    """A z joint the theorem accepts, Z_i = X_i for i >= 2 (functional) or i < h (markov),
    as given or reshaped, relabeled or with out-of-range weights."""
    h = target.ndim
    copied = range(2, h + 1) if theorem == "functional" else range(1, h)
    xs, zs = "abcde"[:h], "pqrst"[:len(copied)]
    subscripts = ",".join([xs] + [xs[i - 1] + z for i, z in zip(copied, zs)]) + "->" + xs + zs
    weights = np.einsum(subscripts, target, *[np.eye(2)] * len(copied))
    labels = [f"X{i}" for i in range(1, h + 1)] + [f"Z{i}" for i in copied]
    out_of_range = st.lists(_RATE, min_size=weights.size, max_size=weights.size)
    wrong_weights = st.just(weights.ravel().tolist()) | out_of_range.map(
        lambda v: np.reshape(v, weights.shape).tolist())
    return st.fixed_dictionaries({
        "labels": _mostly(st.just(labels), st.lists(st.sampled_from(labels + ["Q"]), max_size=h + 2)),
        "weights": _mostly(st.just(weights.tolist()), wrong_weights)})


def _region_section(target):
    target = np.asarray(target)
    return st.sampled_from(_THEOREMS).flatmap(lambda theorem: st.fixed_dictionaries(
        {"theorem": _mostly(st.just(theorem)),
         "points": _mostly(st.lists(_point(target.ndim), min_size=1, max_size=2))},
        optional={"z": _mostly(_z_section(target, "markov" if theorem == "markov" else "functional")),
                  "margin": _mostly(st.floats(-1, 1), _RATE)}))


def _transfer_section(target):
    h = np.asarray(target).ndim
    return _drop_one({"lemma": _mostly(st.sampled_from([1, 2])),
                      "mode_family": _mostly(st.sampled_from(_FAMILIES)),
                      "node": _mostly(st.integers(1, h), st.integers(-1, h + 1)),
                      "delta": _mostly(st.floats(0, 0.5), _RATE), "point": _point(h)})


def _fme_section(target):
    names = st.sampled_from(["x", "y", "z"])
    coeffs = st.dictionaries(_mostly(names, st.text(max_size=1)), _mostly(st.integers(-3, 3), _RATE),
                             max_size=3)
    row = st.fixed_dictionaries({"coeffs": _mostly(coeffs), "rhs": _mostly(st.integers(-3, 3), _RATE)})
    return _drop_one({"variables": _mostly(st.just(["x", "y", "z"]), st.lists(_mostly(names), max_size=3)),
                      "rows": _mostly(st.lists(_mostly(row), max_size=5)),
                      "eliminate": _mostly(st.lists(names, max_size=2, unique=True),
                                           st.lists(names, max_size=3))})


def _network_section(network):
    """The preset's network, with h or the target replaced: another length, a
    reshaped, unnormalized, negative or non-finite table."""
    target = np.asarray(network["target"])
    tables = st.lists(_RATE, min_size=target.size, max_size=target.size).map(
        lambda v: np.reshape(v, target.shape).tolist())
    return _drop_one({"h": st.just(network["h"]) | st.integers(-1, 4) | _JUNK,
                      "target": st.just(target.tolist()) | tables | st.just(target.ravel().tolist())
                      | st.lists(st.lists(_RATE, max_size=3), max_size=3) | _JUNK})


def _aux_definition(labels):
    """One aux definition of any kind over the labels or an unknown one, with 2x2
    channel weights, some out of range."""
    label = st.sampled_from(labels + ["Q"])
    row = st.lists(_mostly(st.floats(0, 1), _RATE), min_size=2, max_size=2)
    weights = st.lists(row, min_size=2, max_size=2)
    return _drop_one({"kind": _mostly(st.sampled_from(["constant", "copy", "channel"])),
                      "source": _mostly(label), "given": _mostly(st.lists(label, min_size=1, max_size=2)),
                      "weights": _mostly(weights), "size": _mostly(st.integers(1, 3), st.integers(-1, 4))})


def _aux_section(aux):
    """The preset's aux definitions, each kept or redrawn over the actions and the other
    auxiliaries; in one draw of ten one definition is dropped."""
    labels = [f"X{i}" for i in range(1, 4)] + sorted(aux)
    return _drop_one({label: st.just(d) | _aux_definition(labels) for label, d in aux.items()})


def _rates_section(rates):
    """The preset's rates tables, each kept or redrawn with valid, out-of-line or
    malformed keys and any rate."""
    keys = st.sampled_from(["1", "2", "3", "1,2", "1,3", "2,3", "3,1", "1,4", "x", ""])
    table = st.dictionaries(keys, _mostly(st.floats(0, 2), _RATE | _JUNK), max_size=3)
    return _drop_one({name: st.just(values) | table for name, values in rates.items()})
