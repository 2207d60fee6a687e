import contextlib
import importlib.util
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coordline.cli as cli
from coordline.cli import Experiment, run_command
from coordline.codebooks import build_codebooks
from coordline.presets import preset_config
from coordline.rates import Mode

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


def strip_timestamp(report):
    report = dict(report)
    report.pop("generated_at", None)
    return report


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which strict JSON has no spelling for."""
    def reject(constant):
        raise ValueError(f"report holds {constant}")

    return json.loads(text, parse_constant=reject)


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


class TestDeterminism:
    def test_identical_runs_identical_reports(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_command(["exact", "--preset", "indep-uniform", "--n", "1,2",
                                "--seed", "5", "--out", str(out)])
            assert code == 0
        r1 = strip_timestamp(read_report(out1))
        r2 = strip_timestamp(read_report(out2))
        assert r1 == r2
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

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        code = run_command(["simulate", "--preset", "dsbs", "--n", "1", "--trials", "0",
                            "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "report.json").exists()

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
    ], ids=["region", "region-points", "transfer", "aux", "fme-variables", "fme-eliminate",
            "h-bool", "h-fraction", "n-fraction", "n-bool", "trials-bool", "trials-fraction",
            "seed-fraction", "seed-bool", "seeds-bool", "seeds-fraction", "seeds-list-fraction"])
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
