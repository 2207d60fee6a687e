import math

import numpy as np
import pytest
from scipy import stats

from coordline.codebooks import (
    ChainCodebook,
    Codebook,
    build_chain,
    build_codebooks,
    chain_channel_output,
    chain_from_line_h2,
    codeword_count,
    k_minus,
    k_plus,
    l_of,
    m_minus,
    m_plus,
    typical_list_size,
)
from coordline.errors import ResourceCapError, UsageError
from coordline.linestruct import aux_from_tags, copy_of, make_network
from coordline.codec import posterior_select
from coordline.probability import info_measure, is_jointly_typical, is_typical, pmf_from_table
from coordline.rates import CodebookRates


def dsbs_network(p=0.25):
    w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
    return make_network(2, w)


def dsbs_spec(p=0.25):
    return aux_from_tags(dsbs_network(p), a_tags={(1, 2): copy_of("X2")})


def h2_rates(mu_p=0.5, mu_m=0.5, lam2=0.0):
    return CodebookRates.for_network(2, mu_plus={(1, 2): mu_p}, mu_minus={(1, 2): mu_m},
                                     lam={2: lam2})


def h3_chain_spec(p=0.25):
    flip = np.array([[1 - p, p], [p, 1 - p]])
    w = np.einsum("a,ab,bc->abc", [0.5, 0.5], flip, flip)
    net = make_network(3, w)
    return aux_from_tags(net, a_tags={(1, 2): copy_of("X2"), (1, 3): copy_of("X3"),
                                      (2, 3): copy_of("X3")})


class TestSizes:
    def test_ceil_rule(self):
        assert codeword_count(3, 1.0) == 8
        assert codeword_count(4, 0.3) == math.ceil(2 ** 1.2)
        assert codeword_count(5, 0.0) == 1

    def test_snap_guard(self):
        # n*rate arithmetic that lands a hair above an integer must not bump up
        assert codeword_count(3, 0.2 + 0.2 + 0.2 + 0.2 + 0.2) == 8

    def test_counts_stay_below_2_to_the_63(self):
        assert codeword_count(62, 1.0) == 2 ** 62
        assert codeword_count(2, 31.49) == math.ceil(2 ** 62.98)
        for n, rate in ((63, 1.0), (2, 31.5), (1, 62.9999999999), (130, 0.5)):
            with pytest.raises(ResourceCapError, match="above any cap"):
                codeword_count(n, rate)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_rate_is_usage_error(self, rate):
        with pytest.raises(UsageError, match="finite and nonnegative"):
            codeword_count(4, rate)


class TestBuildAndLookup:
    def test_constant_alphabet_single_codeword(self):
        net = dsbs_network()
        spec = aux_from_tags(net)  # A constant
        cb = build_codebooks(spec, h2_rates(0.0, 1.0, 1.0), n=3, seed=1)
        w0 = cb.a_codeword((1, 2), {m_plus((1, 2)): 0, m_minus((1, 2)): 0})
        w1 = cb.a_codeword((1, 2), {m_plus((1, 2)): 0, m_minus((1, 2)): 7})
        assert np.array_equal(w0, np.zeros(3))
        assert np.array_equal(w0, w1)

    def test_seed_determinism_and_difference(self):
        spec = dsbs_spec()
        r = h2_rates(0.7, 0.7, 0.4)
        cb1 = build_codebooks(spec, r, n=3, seed=42)
        cb2 = build_codebooks(spec, r, n=3, seed=42)
        cb3 = build_codebooks(spec, r, n=3, seed=43)
        assert cb1.to_text() == cb2.to_text()
        assert cb1.to_text() != cb3.to_text()

    def test_h3_nesting_ignores_foreign_indices(self):
        spec = h3_chain_spec()
        rates = CodebookRates.for_network(
            3, mu_plus={(1, 2): 0.4, (1, 3): 0.4, (2, 3): 0.4},
            mu_minus={(1, 2): 0.4, (1, 3): 0.4, (2, 3): 0.4},
            lam={2: 0.4, 3: 0.4})
        cb = build_codebooks(spec, rates, n=2, seed=5)
        base = {m_plus(p): 0 for p in [(1, 2), (1, 3), (2, 3)]}
        base.update({m_minus(p): 0 for p in [(1, 2), (1, 3), (2, 3)]})
        ref = cb.a_codeword((1, 2), base)
        # A_{1,2} depends only on indices in phibar(1,2) = {(1,2), (1,3)}
        for v in range(cb.sizes[m_plus((2, 3))]):
            probe = dict(base)
            probe[m_plus((2, 3))] = v
            assert np.array_equal(cb.a_codeword((1, 2), probe), ref)
        # ... and changes with its own index (exhaustive check finds a change)
        seen = {tuple(ref)}
        for v in range(1, cb.sizes[m_plus((1, 2))]):
            probe = dict(base)
            probe[m_plus((1, 2))] = v
            seen.add(tuple(cb.a_codeword((1, 2), probe)))
        assert len(seen) > 1

    def test_rate_zero_books_have_one_codeword(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.0, 0.0, 0.0), n=4, seed=9)
        assert cb.sizes[m_plus((1, 2))] == 1
        assert cb.sizes[l_of(2)] == 1

    def test_out_of_range_index(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.5, 0.5), n=2, seed=0)
        with pytest.raises(UsageError):
            cb.a_codeword((1, 2), {m_plus((1, 2)): 99, m_minus((1, 2)): 0})

    def test_cap(self, monkeypatch):
        spec = dsbs_spec()
        monkeypatch.setenv("COORDLINE_CAP", "1000")
        with pytest.raises(ResourceCapError):
            build_codebooks(spec, h2_rates(3.0, 3.0, 3.0), n=10, seed=0)

    def test_text_roundtrip(self):
        spec = dsbs_spec()
        r = h2_rates(0.6, 0.6, 0.5)
        cb = build_codebooks(spec, r, n=3, seed=11)
        clone = Codebook.from_text(cb.to_text(), spec, r)
        probe = {m_plus((1, 2)): 1, m_minus((1, 2)): 2,
                 k_plus(1): 0, k_minus(1): 0, l_of(2): 1}
        assert np.array_equal(cb.a_codeword((1, 2), probe), clone.a_codeword((1, 2), probe))
        assert np.array_equal(cb.c_codeword(2, probe), clone.c_codeword(2, probe))
        assert clone.to_text() == cb.to_text()

    def test_positionwise_marginal_matches_kernel(self):
        # chi-square sanity check across seeds on one fixed codeword position
        spec = dsbs_spec()
        r = h2_rates(0.7, 0.0)
        counts = np.zeros(2)
        seeds = 400
        for s in range(seeds):
            cb = build_codebooks(spec, r, n=2, seed=s)
            w = cb.a_codeword((1, 2), {m_plus((1, 2)): 1, m_minus((1, 2)): 0})
            counts[w[0]] += 1
        # A = X2 marginal is uniform
        chi2 = ((counts - seeds / 2) ** 2 / (seeds / 2)).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=1)

    def test_exact_divisor_book_enumerates_blocks(self):
        # uniform conditional with count == |alphabet|^n covers every block once
        net = make_network(2, np.full((2, 2), 0.25))
        spec = aux_from_tags(net)  # C2 = X2 uniform, all else constant
        cb = build_codebooks(spec, h2_rates(0.0, 0.0, 1.0), n=2, seed=3)
        words = {tuple(cb.c_codeword(2, {m_plus((1, 2)): 0, m_minus((1, 2)): 0,
                                         k_plus(1): 0, k_minus(1): 0, l_of(2): l}))
                 for l in range(4)}
        assert words == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestChain:
    def make_chain(self, seed=0, n=6, nu=(0.5, 0.5)):
        # D1 - D2 - Y: D1 fair bit, D2 = D1 xor noise(0.2), Y = D2 xor noise(0.2)
        flip = lambda eps: np.array([[1 - eps, eps], [eps, 1 - eps]])
        w = np.einsum("a,ab,bc->abc", [0.5, 0.5], flip(0.2), flip(0.2))
        joint = pmf_from_table(["D1", "D2", "Y"], w)
        return joint, build_chain(joint, ["D1", "D2"], "Y", nu, n=n, seed=seed)

    def test_atypical_observation_counts_zero(self):
        joint, chain = self.make_chain()
        # impossible under a 0.05-ball: constant sequence is never 0.05-typical
        assert typical_list_size(chain, [0] * 6, 0.05) == 0

    def test_generating_tuple_usually_counted(self):
        hits = 0
        trials = 60
        for s in range(trials):
            joint, chain = self.make_chain(seed=s, n=8)
            rng = np.random.default_rng(1000 + s)
            y = chain_channel_output(chain, (0, 0), rng)
            # letter typicality with delta < 1 forces every positive-probability
            # joint symbol to appear, hopeless at n=8; use a coarse ball
            count = typical_list_size(chain, y, 1.5)
            hits += count >= 1
        assert hits / trials > 0.5

    def test_ensemble_mean_respects_list_size_bound(self):
        delta = 0.35
        n = 8
        total = 0.0
        seeds = 220
        for s in range(seeds):
            joint, chain = self.make_chain(seed=s, n=n, nu=(0.4, 0.4))
            rng = np.random.default_rng(5000 + s)
            flat = rng.integers(0, chain.tuple_count())
            l1, l2 = divmod(int(flat), chain.sizes[1])
            y = chain_channel_output(chain, (l1, l2), rng)
            total += typical_list_size(chain, y, delta)
        mean = total / seeds
        joint, _ = self.make_chain()
        mi = info_measure(joint, ["D1", "D2"], ["Y"])
        k_const = 2 * 2 * 2
        bound = (2 + 1) * 2 ** (n * (0.8 - mi + 2 * delta * math.log2(k_const)))
        assert mean <= bound

    def test_line_h2_view(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.5, 0.5, 0.5), n=3, seed=2)
        chain = chain_from_line_h2(cb, y_node=2)
        assert chain.k == 3
        # level-0 codewords coincide with the A-book
        w = chain.codeword(0, (1,))
        assert np.array_equal(w, cb.a_codeword((1, 2), {m_plus((1, 2)): 0, m_minus((1, 2)): 1}))


def _small_chain() -> ChainCodebook:
    """D1 -> D2 -> Y at n=4, with 3 and 2 codewords per level."""
    flip = np.array([[0.8, 0.2], [0.2, 0.8]])
    joint = pmf_from_table(["D1", "D2", "Y"], np.einsum("a,ab,bc->abc", [0.5, 0.5], flip, flip))
    return build_chain(joint, ["D1", "D2"], "Y", (0.39, 0.25), n=4, seed=1)


class TestChainIndices:
    """Every chain index and observation symbol is range-checked."""

    @pytest.mark.parametrize("call", [
        lambda c: c.codeword(0, (-1,)),
        lambda c: c.codeword(0, (3,)),
        lambda c: c.codeword(1, (0, -1)),
        lambda c: c.codeword(1, (3, 0)),
        lambda c: chain_channel_output(c, (-1, 0), np.random.default_rng(0)),
        lambda c: chain_channel_output(c, (0, 2), np.random.default_rng(0)),
        lambda c: chain_channel_output(c, (0,), np.random.default_rng(0)),
        lambda c: chain_channel_output(c, (0, 0, 5), np.random.default_rng(0)),
        lambda c: posterior_select(c, [0, 1, 0, 0], {0: -1}, ell=4, seed=0),
        lambda c: posterior_select(c, [0, 1, 0, 0], {0: 3}, ell=4, seed=0),
        lambda c: posterior_select(c, [0, 1, 0, 0], {5: 0}, ell=4, seed=0),
        lambda c: posterior_select(c, [0, 1, 0, 0], {-1: 0}, ell=4, seed=0),
    ], ids=["codeword-neg", "codeword-end", "codeword-neg-1", "codeword-parent-end",
            "channel-neg", "channel-end", "channel-short", "channel-long", "fixed-neg", "fixed-end",
            "fixed-level-5", "fixed-level-neg"])
    def test_out_of_range_index_is_a_usage_error(self, call):
        chain = _small_chain()
        assert chain.sizes == (3, 2)
        with pytest.raises(UsageError):
            call(chain)

    @pytest.mark.parametrize("y", [[0, -1, 0, 0], [0, 7, 0, 0], [0, 2, 0, 0], [0, 1, 0], [0, 1, 0, 0, 1]])
    @pytest.mark.parametrize("count", [
        lambda c, y: posterior_select(c, y, {}, ell=4, seed=0),
        lambda c, y: posterior_select(c, y, {0: 1}, ell=4, seed=0),
        lambda c, y: typical_list_size(c, y, 0.5),
    ], ids=["select", "select-fixed", "typical"])
    def test_bad_observation_is_a_usage_error(self, y, count):
        with pytest.raises(UsageError):
            count(_small_chain(), y)

    @pytest.mark.parametrize("call", [
        lambda c: c.codeword(0, (1.0,)),
        lambda c: c.codeword(1, (1, np.float64(1.0))),
        lambda c: c.letters({0: np.array([0.0, 1.0]), 1: np.array([0, 1])}),
        lambda c: chain_channel_output(c, (1.0, 0), np.random.default_rng(0)),
        lambda c: posterior_select(c, [0, 1, 0, 0], {0: 1.0}, ell=4, seed=0),
        lambda c: posterior_select(c, [0, 1, 0, 0], {0: np.float64(1.0)}, ell=4, seed=0),
    ], ids=["codeword-float", "codeword-float64", "letters-float-array", "channel-float",
            "fixed-float", "fixed-float64"])
    def test_float_index_is_a_usage_error(self, call):
        with pytest.raises(UsageError, match="is not an integer"):
            call(_small_chain())

    def test_in_range_indices_still_work(self):
        chain = _small_chain()
        assert chain.codeword(1, (2, 1)).shape == (4,)
        assert chain_channel_output(chain, (2, 1), np.random.default_rng(0)).shape == (4,)
        assert 0 <= posterior_select(chain, [0, 1, 0, 0], {0: 2}, ell=4, seed=0)["selected"] < 2


class TestBatchedTypicality:
    def test_batch_matches_one_sequence_at_a_time(self):
        rng = np.random.default_rng(4)
        p = pmf_from_table(["X"], [0.5, 0.3, 0.2, 0.0])
        x = rng.choice(4, size=(5, 7, 12), p=[0.45, 0.3, 0.2, 0.05])
        got = is_typical(x, p, 0.6)
        assert got.shape == (5, 7) and got.any() and not got.all()
        want = [[is_typical(row, p, 0.6) for row in block] for block in x]
        assert got.tolist() == want

    def test_joint_batch_broadcasts_a_shared_sequence(self):
        rng = np.random.default_rng(5)
        joint = pmf_from_table(["A", "B", "Y"], rng.dirichlet(np.full(12, 20.0)).reshape(2, 3, 2))
        a = rng.integers(0, 2, size=(40, 10))
        b = rng.integers(0, 3, size=(40, 10))
        y = rng.integers(0, 2, size=10)
        got = is_jointly_typical([a, b, y], joint, 2.0)
        assert got.dtype == bool and got.any() and not got.all()
        assert got.tolist() == [is_jointly_typical([ai, bi, y], joint, 2.0) for ai, bi in zip(a, b)]

    def test_joint_symbol_out_of_its_axis_is_rejected(self):
        joint = pmf_from_table(["A", "B"], np.full((2, 3), 1 / 6))
        # A = -1, B = 5 fuses to the in-range joint symbol 2
        with pytest.raises(UsageError):
            is_jointly_typical([[-1, 0], [5, 0]], joint, 0.5)

    def test_typical_list_size_matches_per_tuple_loop(self):
        flip = np.array([[0.7, 0.3], [0.2, 0.8]])
        joint = pmf_from_table(["D1", "D2", "Y"], np.einsum("a,ab,bc->abc", [0.4, 0.6], flip, flip))
        chain = build_chain(joint, ["D1", "D2"], "Y", (1.0, 0.7), n=6, seed=8)
        assert chain.sizes == (64, 19)
        for y, delta in [([0, 1, 1, 0, 1, 1], 1.5), ([1, 1, 1, 0, 1, 1], 0.9), ([0] * 6, 4.0)]:
            want = sum(is_jointly_typical([chain.codeword(0, (l1,)), chain.codeword(1, (l1, l2)), y],
                                          joint, delta)
                       for l1 in range(chain.sizes[0]) for l2 in range(chain.sizes[1]))
            assert typical_list_size(chain, y, delta) == want
