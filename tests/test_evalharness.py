import numpy as np
import pytest

import coordline.codec as codec
import coordline.probability as probability
from coordline.cli import Experiment
from coordline.codebooks import build_codebooks
from coordline.errors import ResourceCapError
from coordline.evalharness import (
    coordination_tv,
    cr_independence,
    exact_induced,
    mc_coordination_tv,
    piecing_check,
)
from coordline.linestruct import aux_from_tags, copy_of, make_network
from coordline.presets import preset_config
from coordline.rates import CodebookRates, Mode


def dsbs_network(p=0.25):
    w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
    return make_network(2, w)


def dsbs_spec(p=0.25):
    return aux_from_tags(dsbs_network(p), a_tags={(1, 2): copy_of("X2")})


def indep_uniform_spec(h=2):
    net = make_network(h, np.full((2,) * h, 1.0 / 2 ** h))
    return aux_from_tags(net)


def h2_rates(mu_p=0.44, mu_m=0.82, lam2=0.0):
    return CodebookRates.for_network(2, mu_plus={(1, 2): mu_p}, mu_minus={(1, 2): mu_m},
                                     lam={2: lam2})


class TestExactInduced:
    def test_conditional_rows_sum_to_one(self):
        cb = build_codebooks(dsbs_spec(), h2_rates(), n=2, seed=3)
        ex = exact_induced(cb, Mode.FUNCTIONAL)
        sums = ex.conditional.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_exact_divisor_gives_target_conditional(self):
        # independent uniform target, constant aux, lambda = log2|X2|
        spec = indep_uniform_spec(2)
        cb = build_codebooks(spec, h2_rates(0.0, 0.0, lam2=1.0), n=2, seed=5)
        ex = exact_induced(cb, Mode.FUNCTIONAL)
        assert np.allclose(ex.conditional, 0.25, atol=1e-12)

    def test_deterministic_scheme_zero_one_table(self):
        # copy target with a single huge-rate-free config: all index draws
        # point-mass => conditional entries in {0,1}
        w = np.zeros((2, 2))
        w[0, 0] = w[1, 1] = 0.5
        net = make_network(2, w)
        spec = aux_from_tags(net, a_tags={(1, 2): copy_of("X2")})
        rates = h2_rates(0.0, 0.0, 0.0)
        cb = build_codebooks(spec, rates, n=1, seed=2)
        ex = exact_induced(cb, Mode.FUNCTIONAL)
        assert set(np.round(ex.conditional.ravel(), 12)) <= {0.0, 1.0}

    def test_cap(self, monkeypatch):
        cb = build_codebooks(dsbs_spec(), h2_rates(1.0, 1.0, 1.0), n=2, seed=0)
        monkeypatch.setenv("COORDLINE_CAP", "100")
        with pytest.raises(ResourceCapError):
            exact_induced(cb, Mode.FUNCTIONAL)

    def test_matches_monte_carlo_histogram(self):
        spec = dsbs_spec()
        rates = h2_rates(0.44, 0.82, 0.0)
        net = spec.network
        cb = build_codebooks(spec, rates, n=1, seed=7)
        ex = exact_induced(cb, Mode.FUNCTIONAL)
        exact_tv = coordination_tv(ex, net)
        rep = mc_coordination_tv(spec, rates, Mode.FUNCTIONAL, n=1, trials=100_000,
                                 codebook_seeds=[7], seed=1)
        assert abs(rep.tv_per_seed[0] - exact_tv) <= 3 * rep.radius

    def test_walk_reads_no_certificate_and_snaps_only_kernels(self, monkeypatch):
        """exact_induced needs only the integer cuts: no table's certificate is read, and
        no posterior is snapped. Only the likelihood kernels are, once per Scheme (node
        1's and the one hop's on dsbs). A stacked staircase_map call counts one table per
        support row."""
        counts = {"tables": 0, "kernels": 0, "snaps": 0, "certificates": 0}

        def counted(key, fn, tables=lambda *args: 1):
            def wrapper(*args):
                counts[key] += tables(*args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(codec, "staircase_map", counted(
            "tables", codec.staircase_map, lambda q, support, *_: len(support)))
        monkeypatch.setattr(codec, "integer_kernel", counted("kernels", codec.integer_kernel))
        monkeypatch.setattr(probability, "snapped", counted("snaps", probability.snapped))
        for name in ("epsilon", "bound", "realized_l1"):
            monkeypatch.setattr(probability.StaircaseTable, name,
                                property(counted("certificates", lambda table: 0)))
        exp = Experiment(preset_config("dsbs"))
        exact_induced(build_codebooks(exp.spec, exp.rates, 6, 3), exp.mode)
        assert counts["certificates"] == 0
        assert counts["tables"] > 1000
        assert counts["kernels"] == counts["snaps"] == 2


class TestCoordinationTv:
    def test_zero_for_exact_divisor(self):
        spec = indep_uniform_spec(2)
        for n in (1, 2):
            cb = build_codebooks(spec, h2_rates(0.0, 0.0, lam2=1.0), n=n, seed=11)
            ex = exact_induced(cb, Mode.FUNCTIONAL)
            assert coordination_tv(ex, spec.network) == pytest.approx(0.0, abs=1e-12)

    def test_uncoordinated_dsbs_half(self):
        # induced X2 independent of X1: TV = 0.5 at n=1
        spec = dsbs_spec()
        rates = h2_rates(0.0, 0.0, lam2=1.0)
        net = dsbs_network()
        spec0 = aux_from_tags(net)  # constant A: no coordination at all
        cb = build_codebooks(spec0, rates, n=1, seed=1)
        ex = exact_induced(cb, Mode.FUNCTIONAL)
        assert coordination_tv(ex, net) == pytest.approx(0.5, abs=1e-9)

    def test_range(self):
        cb = build_codebooks(dsbs_spec(), h2_rates(), n=2, seed=9)
        ex = exact_induced(cb, Mode.FUNCTIONAL)
        tv = coordination_tv(ex, dsbs_network())
        assert 0.0 <= tv <= 2.0


class TestMonteCarlo:
    def test_determinism(self):
        spec = dsbs_spec()
        rates = h2_rates()
        r1 = mc_coordination_tv(spec, rates, Mode.FUNCTIONAL, 1, 500, [3, 4], seed=2)
        r2 = mc_coordination_tv(spec, rates, Mode.FUNCTIONAL, 1, 500, [3, 4], seed=2)
        assert r1.to_dict() == r2.to_dict()

    def test_proxy_label_when_blocks_too_big(self, monkeypatch):
        # the codebooks (10,206 stored symbols at n=7) fit the cap, the block
        # histogram (2^7 * 2^7 = 16,384 cells) does not
        monkeypatch.setenv("COORDLINE_CAP", "12000")
        spec = dsbs_spec()
        rep = mc_coordination_tv(spec, h2_rates(), Mode.FUNCTIONAL, 7, 50, [1], seed=0)
        assert rep.proxy
        assert "PROXY" in rep.note


class TestCrIndependence:
    def test_zero_when_minus_ranges_trivial(self):
        cb = build_codebooks(dsbs_spec(), h2_rates(0.44, 0.0), n=2, seed=3)
        assert cr_independence(cb) == pytest.approx(0.0, abs=1e-12)

    def test_margin_reduces_dependence(self):
        spec = dsbs_spec()
        lo, hi = [], []
        for s in range(30):
            cb_lo = build_codebooks(spec, h2_rates(0.18872, 1.0), n=3, seed=s)
            cb_hi = build_codebooks(spec, h2_rates(0.18872 + 0.5, 1.0), n=3, seed=s)
            lo.append(cr_independence(cb_lo))
            hi.append(cr_independence(cb_hi))
        assert np.mean(hi) < np.mean(lo)

    def test_pathological_cr_determined_x1(self):
        # mu+ = 0: X1-hat is a deterministic function of the CR index set,
        # so the m- slices are far from the average
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.0, 1.5), n=2, seed=4)
        val = cr_independence(cb)
        assert val > 0.5


class TestPiecing:
    def test_h2_value_in_range(self):
        cb = build_codebooks(dsbs_spec(), h2_rates(0.44, 0.82, 0.3), n=2, seed=6)
        val = piecing_check(cb)
        assert 0.0 <= val <= 2.0

    def test_margin_improves_piecing(self):
        spec = dsbs_spec()
        lo, hi = [], []
        for s in range(25):
            cb_lo = build_codebooks(spec, h2_rates(0.19, 0.82), n=3, seed=s)
            cb_hi = build_codebooks(spec, h2_rates(0.19 + 0.4, 0.82 + 0.4), n=3, seed=s)
            lo.append(piecing_check(cb_lo))
            hi.append(piecing_check(cb_hi))
        assert np.mean(hi) < np.mean(lo)

    def test_exact_divisor_piecing_zero(self):
        spec = indep_uniform_spec(2)
        cb = build_codebooks(spec, h2_rates(0.0, 0.0, lam2=1.0), n=2, seed=1)
        assert piecing_check(cb) == pytest.approx(0.0, abs=1e-12)


class TestEnsembleTrend:
    def test_tv_endpoint_decreases_for_compliant_rates(self):
        # rates 0.25 above the thresholds: mu+ >= I + .25, mu sum >= H(X2) + .25
        spec = dsbs_spec()
        mi = 0.18872187554086717
        rates = h2_rates(mi + 0.25, 1.0 - mi, lam2=0.25)
        net = spec.network
        seeds = list(range(25))
        means = {}
        for n in (1, 4):
            vals = []
            for s in seeds:
                cb = build_codebooks(spec, rates, n=n, seed=s)
                ex = exact_induced(cb, Mode.FUNCTIONAL)
                vals.append(coordination_tv(ex, net))
            means[n] = (np.mean(vals), np.std(vals) / np.sqrt(len(vals)))
        pooled = np.hypot(means[1][1], means[4][1])
        assert means[4][0] < means[1][0] - pooled


class TestExactMcMatchedRuns:
    def test_agreement_rate_h2(self):
        spec = dsbs_spec()
        rates = h2_rates(0.44, 0.82, 0.3)
        net = spec.network
        hits = 0
        runs = 10
        for cb_seed in range(runs):
            cb = build_codebooks(spec, rates, n=1, seed=cb_seed)
            exact_tv = coordination_tv(exact_induced(cb, Mode.FUNCTIONAL), net)
            rep = mc_coordination_tv(spec, rates, Mode.FUNCTIONAL, 1, 20_000,
                                     [cb_seed], seed=100 + cb_seed)
            hits += abs(rep.tv_per_seed[0] - exact_tv) <= 3 * rep.radius
        assert hits / runs >= 0.95

    def test_agreement_h3_unrestricted(self):
        from coordline.presets import bsc_chain_network

        net = bsc_chain_network(3, 0.25)
        spec = aux_from_tags(net, b_tags={1: copy_of("X2"), 2: copy_of("X3")})
        rates = CodebookRates.for_network(3, kappa_plus={1: 1.2, 2: 1.2},
                                          lam={2: 0.4, 3: 0.4})
        cb = build_codebooks(spec, rates, n=1, seed=5)
        exact_tv = coordination_tv(exact_induced(cb, Mode.UNRESTRICTED), net)
        rep = mc_coordination_tv(spec, rates, Mode.UNRESTRICTED, 1, 40_000, [5], seed=9)
        assert abs(rep.tv_per_seed[0] - exact_tv) <= 3 * rep.radius


class TestDeterministicConstructionZeroTv:
    def test_copy_target_exact_communication(self):
        # X2 = X1, A = X2 copy, generous message rate, no randomness anywhere:
        # the selected codeword always matches x1 and the induced law is exact
        w = np.zeros((2, 2))
        w[0, 0] = w[1, 1] = 0.5
        net = make_network(2, w)
        spec = aux_from_tags(net, a_tags={(1, 2): copy_of("X2")})
        rates = CodebookRates.for_network(2, mu_plus={(1, 2): 2.0})
        for n in (1, 2):
            cb = build_codebooks(spec, rates, n=n, seed=13)
            ex = exact_induced(cb, Mode.FUNCTIONAL)
            assert coordination_tv(ex, net) == pytest.approx(0.0, abs=1e-12)
