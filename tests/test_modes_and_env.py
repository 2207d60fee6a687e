import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest

import coordline
from coordline import codec
from coordline.cli import run_command
from coordline.codebooks import build_codebooks
from coordline.codec import Scheme, run_scheme
from coordline.errors import ResourceCapError, resolve_cap
from coordline.evalharness import exact_induced
from coordline.linestruct import aux_from_tags, copy_of
from coordline.presets import bsc_chain_network, preset_config
from coordline.probability import info_measure
from coordline.rates import CodebookRates, Mode, hop_selector_rate, resource_map


def markov3_spec(p=0.25):
    net = bsc_chain_network(3, p)
    return aux_from_tags(net, b_tags={1: copy_of("X2"), 2: copy_of("X3")})


class TestRemark5Identity:
    def test_markov_target_collapses_tail_information(self):
        for p in (0.1, 0.25, 0.4):
            t = bsc_chain_network(4, p).target
            for i in (1, 2):
                full = info_measure(t, ["X1"], [f"X{k}" for k in range(i + 1, 5)])
                single = info_measure(t, ["X1"], [f"X{i + 1}"])
                assert full == pytest.approx(single, abs=1e-9)


class TestActionDependentMode:
    def rates(self):
        return CodebookRates.for_network(
            3, kappa_plus={1: 1.2, 2: 1.2}, kappa_minus={1: 0.1, 2: 0.1},
            lam={2: 0.4, 3: 0.4})

    def test_resource_map_formulas(self):
        spec = markov3_spec()
        rates = self.rates()
        pt = resource_map(rates, Mode.ACTION_DEPENDENT, spec)
        sel1 = max(hop_selector_rate(spec, rates, 1), 0.0)
        sel2 = max(hop_selector_rate(spec, rates, 2), 0.0)
        # Rc = sum kappa- + sum mu-(1,.)
        assert pt.rc == pytest.approx(0.2)
        # R_i = mu+(1,l>i) + selector seeds for hops i+1..h-1
        assert pt.r[0] == pytest.approx(sel2)
        assert pt.r[1] == pytest.approx(0.0)
        # rho_1 carries the node-1 selector plus every hop selector
        assert pt.rho[0] == pytest.approx(sel1 + sel2)
        assert pt.rho[1] == pytest.approx(0.4)

    def test_run_scheme_bundles(self):
        spec = markov3_spec()
        cb = build_codebooks(spec, self.rates(), n=2, seed=4)
        run = run_scheme(cb, Mode.ACTION_DEPENDENT, trials=4, seed=9)
        assert run.budget_violations == []
        assert ("k", 2) in run.selected  # hop 1 ships this selector's seeds
        hop1, hop2 = Scheme(cb, Mode.ACTION_DEPENDENT).hop_entries.values()
        names1 = [name for name, *_ in hop1]
        assert "k+(1)" in names1
        assert any(n.startswith("seed(k+2)") for n in names1)
        names2 = [name for name, *_ in hop2]
        assert "k+(2)" in names2
        assert not any(n.startswith("seed") for n in names2)

    def test_exact_induced_runs_in_ad_mode(self):
        spec = markov3_spec()
        rates = CodebookRates.for_network(
            3, kappa_plus={1: 1.2, 2: 1.2}, lam={2: 0.2, 3: 0.2})
        cb = build_codebooks(spec, rates, n=1, seed=2)
        ex = exact_induced(cb, Mode.ACTION_DEPENDENT)
        assert np.allclose(ex.conditional.sum(axis=(1, 2)), 1.0, atol=1e-9)


class TestEnvCap:
    def test_env_overrides_cap(self, monkeypatch):
        spec = markov3_spec()
        monkeypatch.setenv("COORDLINE_CAP", "123")
        assert resolve_cap() == 123
        with pytest.raises(ResourceCapError):
            build_codebooks(spec, self_rates(), n=2, seed=0)

    def test_no_public_callable_takes_a_cap(self):
        # COORDLINE_CAP is the one size limit; no function may take its own
        offenders = []
        for info in pkgutil.iter_modules(coordline.__path__):
            module = importlib.import_module(f"coordline.{info.name}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                members = [(name, obj)]
                if inspect.isclass(obj):
                    members += [(f"{name}.{m}", f) for m, f in inspect.getmembers(obj, callable)
                                if not m.startswith("_")]
                for qual, fn in members:
                    try:
                        params = inspect.signature(fn).parameters
                    except (TypeError, ValueError):
                        continue
                    offenders += [f"{info.name}.{qual}({p})" for p in ("cap", "row_cap")
                                  if p in params]
        assert offenders == []


def self_rates():
    return CodebookRates.for_network(
        3, kappa_plus={1: 1.2, 2: 1.2}, kappa_minus={1: 0.1, 2: 0.1},
        lam={2: 0.4, 3: 0.4})


class TestThreadsFlag:
    def test_threaded_simulate_matches_sequential(self, tmp_path):
        cfg = preset_config("indep-uniform")
        cfg["codebook_seeds"] = 2
        cfg["trials"] = 300
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        reports = []
        for threads, name in ((1, "seq"), (3, "par")):
            out = tmp_path / name
            code = run_command(["simulate", "--config", str(path), "--n", "1,2",
                                "--threads", str(threads), "--out", str(out)])
            assert code == 0
            rep = json.loads((out / "report.json").read_text())
            rep.pop("generated_at")
            reports.append(rep)
        assert reports[0] == reports[1]


class TestNonConstantIntermediateMessages:
    def make_spec(self):
        # A_{1,3} carries X2; A_{2,3} is a noisy relay of it generated at node 2
        net = bsc_chain_network(3, 0.25)
        flip = np.array([[0.7, 0.3], [0.3, 0.7]])
        spec = aux_from_tags(
            net,
            a_tags={(1, 3): copy_of("X2"),
                    (2, 3): ("channel", ("A1_3",), flip, 2)})
        return net, spec

    def test_spec_is_valid(self):
        from coordline.linestruct import validate_aux

        net, spec = self.make_spec()
        report = validate_aux(spec)
        assert report.ok, report.violations

    def test_exact_matches_mc_unrestricted(self):
        from coordline.evalharness import coordination_tv, exact_induced, mc_coordination_tv

        net, spec = self.make_spec()
        rates = CodebookRates.for_network(
            3, mu_plus={(1, 3): 0.8, (2, 3): 0.5}, mu_minus={(1, 3): 0.8},
            kappa_plus={}, lam={2: 0.5, 3: 0.5})
        cb = build_codebooks(spec, rates, n=1, seed=3)
        ex = exact_induced(cb, Mode.UNRESTRICTED)
        exact_tv = coordination_tv(ex, net)
        rep = mc_coordination_tv(spec, rates, Mode.UNRESTRICTED, 1, 30_000, [3], seed=21)
        assert abs(rep.tv_per_seed[0] - exact_tv) <= 3 * rep.radius


class TestActionDependentExactVsMc:
    def test_matched_run(self):
        from coordline.evalharness import coordination_tv, exact_induced, mc_coordination_tv

        spec = markov3_spec()
        rates = CodebookRates.for_network(
            3, kappa_plus={1: 1.2, 2: 1.2}, lam={2: 0.3, 3: 0.3})
        net = spec.network
        cb = build_codebooks(spec, rates, n=1, seed=6)
        exact_tv = coordination_tv(exact_induced(cb, Mode.ACTION_DEPENDENT), net)
        rep = mc_coordination_tv(spec, rates, Mode.ACTION_DEPENDENT, 1, 30_000, [6], seed=4)
        assert abs(rep.tv_per_seed[0] - exact_tv) <= 3 * rep.radius


class TestH3FunctionalExactVsMc:
    def test_two_pair_node1_selection(self):
        from coordline.evalharness import coordination_tv, exact_induced, mc_coordination_tv
        from coordline.presets import copy_chain_network

        net = copy_chain_network(3)
        spec = aux_from_tags(net, a_tags={(1, 2): copy_of("X2"), (1, 3): copy_of("X3")})
        rates = CodebookRates.for_network(
            3, mu_plus={(1, 2): 0.3, (1, 3): 1.2}, mu_minus={(1, 2): 0.4, (1, 3): 0.4},
            lam={2: 0.0, 3: 0.0})
        cb = build_codebooks(spec, rates, n=1, seed=8)
        exact_tv = coordination_tv(exact_induced(cb, Mode.FUNCTIONAL), net)
        rep = mc_coordination_tv(spec, rates, Mode.FUNCTIONAL, 1, 30_000, [8], seed=2)
        assert abs(rep.tv_per_seed[0] - exact_tv) <= 3 * rep.radius


class TestBudgetAuditFlags:
    def test_oversized_selector_seed_is_reported(self, monkeypatch):
        from coordline.presets import dsbs_network

        spec = aux_from_tags(dsbs_network(), a_tags={(1, 2): copy_of("X2")})
        rates = CodebookRates.for_network(2, mu_plus={(1, 2): 0.44},
                                          mu_minus={(1, 2): 0.82}, lam={2: 0.25})
        cb = build_codebooks(spec, rates, n=2, seed=1)
        monkeypatch.setattr(codec, "node1_selector_rate", lambda spec, rates: 5.0)
        run = run_scheme(cb, Mode.FUNCTIONAL, trials=2, seed=3)
        assert any("node" in v and v["node"] == 1 for v in run.budget_violations)


class TestVeeConstruction:
    """Zero-common-randomness code for X1 = V1, X2 = (V1, V2), X3 = V2: the
    hop messages are the B-auxiliaries carrying each half of the pair."""

    def make(self):
        from coordline.linestruct import make_network

        # X1 = V1, X2 = (V1, V2) as symbol 2 * v1 + v2, X3 = V2 for a DSBS(0.25) pair
        vee = np.zeros((2, 4, 2))
        for v1, v2 in np.ndindex(2, 2):
            vee[v1, 2 * v1 + v2, v2] = 0.375 if v1 == v2 else 0.125
        net = make_network(3, vee)
        v2_of_x2 = np.zeros((4, 2))
        for sym in range(4):
            v2_of_x2[sym, sym % 2] = 1.0
        spec = aux_from_tags(net, b_tags={1: copy_of("X1"),
                                          2: ("channel", ("X2",), v2_of_x2, 2)})
        rates = CodebookRates.for_network(3, kappa_plus={1: 1.3, 2: 1.3},
                                          lam={2: 1.2, 3: 1.1})
        return net, spec, rates

    def test_structure_and_thresholds(self):
        from coordline.linestruct import validate_aux
        from coordline.rates import thm1_check, thm2_check_all

        net, spec, rates = self.make()
        assert validate_aux(spec).ok
        assert thm1_check(rates, spec).passed
        reports = thm2_check_all(rates, spec)
        rows = {c.name: c for r in reports for c in r.constraints}
        # node 2 needs kappa_1 + lambda_2 above H(X2) and kappa_1 above H(V1)
        assert rows["kappa+kappa-+lambda_2"].rhs == pytest.approx(
            1.0 + 0.8112781244591328, abs=1e-6)
        assert rows["kappa+_1"].rhs == pytest.approx(1.0, abs=1e-6)

    def test_exact_matches_mc(self):
        from coordline.evalharness import coordination_tv, exact_induced, mc_coordination_tv

        net, spec, rates = self.make()
        cb = build_codebooks(spec, rates, n=1, seed=3)
        exact_tv = coordination_tv(exact_induced(cb, Mode.UNRESTRICTED), net)
        rep = mc_coordination_tv(spec, rates, Mode.UNRESTRICTED, 1, 30_000, [3], seed=5)
        assert abs(rep.tv_per_seed[0] - exact_tv) <= 3 * rep.radius
