import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordline import codec
from coordline.codebooks import (
    build_codebooks,
    k_plus,
)
from coordline.codec import (
    Scheme,
    _bits,
    run_scheme,
)
from coordline.errors import ResourceCapError, UsageError
from coordline.linestruct import aux_from_tags, channel_of, copy_of, make_network
from coordline.probability import pmf_from_table
from coordline.rates import CodebookRates, Mode
from test_exact_batched import ref_selection_table, ref_support_sizes
from test_probability import fraction_staircase


def dsbs_network(p=0.25):
    w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
    return make_network(2, w)


def dsbs_spec(p=0.25):
    return aux_from_tags(dsbs_network(p), a_tags={(1, 2): copy_of("X2")})


def indep_uniform_network(h=2):
    return make_network(h, np.full((2,) * h, 1.0 / 2 ** h))


def h2_rates(mu_p=0.5, mu_m=0.82, lam2=0.0, kp=0.0, km=0.0):
    return CodebookRates.for_network(2, mu_plus={(1, 2): mu_p}, mu_minus={(1, 2): mu_m},
                                     kappa_plus={1: kp}, kappa_minus={1: km}, lam={2: lam2})


def markov3_spec_and_rates(p=0.25):
    flip = np.array([[1 - p, p], [p, 1 - p]])
    w = np.einsum("a,ab,bc->abc", [0.5, 0.5], flip, flip)
    net = make_network(3, w)
    spec = aux_from_tags(net, b_tags={1: copy_of("X2"), 2: copy_of("X3")})
    rates = CodebookRates.for_network(
        3, kappa_plus={1: 1.1, 2: 1.1}, kappa_minus={1: 0.0, 2: 0.0},
        lam={2: 0.3, 3: 0.3})
    return spec, rates


class TestBits:
    def test_exact_ceil_log2(self):
        assert [_bits(s) for s in (1, 2, 3, 4, 5, 2 ** 60)] == [0, 1, 2, 2, 3, 60]
        # float log2 rounds 2^60 + 1 down to exactly 60
        assert _bits(2 ** 60 + 1) == 61


class TestSelectorSeedRange:
    def test_unrepresentable_seed_range_is_a_cap_error(self, monkeypatch):
        cb = build_codebooks(dsbs_spec(), h2_rates(), n=4, seed=0)
        monkeypatch.setattr(codec, "node1_selector_rate", lambda spec, rates: 300.3)
        with pytest.raises(ResourceCapError, match="above any cap"):
            Scheme(cb, Mode.FUNCTIONAL)

    def test_seed_range_of_2_to_the_65_is_a_cap_error(self, monkeypatch):
        """A range Scheme could hold as a Python int, but no int64 seed draw covers."""
        cb = build_codebooks(dsbs_spec(), h2_rates(), n=4, seed=0)
        monkeypatch.setattr(codec, "node1_selector_rate", lambda spec, rates: 65 / 4 - codec.SEED_MARGIN)
        with pytest.raises(ResourceCapError, match="2\\^65 values is above any cap"):
            Scheme(cb, Mode.FUNCTIONAL)


def select_one(posterior, ell):
    """The table of one posterior, as Scheme.selection gives it: row 0 of a stack of one."""
    return _dsbs_scheme().selection(np.asarray(posterior, dtype=np.float64)[None], ell).row(0)


def ref_seed_map(posterior, ell):
    """The symbol of each seed 1..ell under the reference selection: the seeds run
    through its support in order, each symbol taking its induced count of them."""
    support, induced = ref_selection_table(posterior, ell)
    return np.repeat(support, np.rint(induced[support] * ell).astype(np.int64)).tolist()


class TestSelectFromPosterior:
    """One posterior selected through Scheme.selection, as a stack of one."""

    def test_single_candidate(self):
        table = select_one([1.0], 5)
        for seed in range(1, 6):
            assert table.map_seed(seed) == 0
            assert table.induced_array(1)[0] == pytest.approx(1.0)

    def test_two_equiprobable_ell2(self):
        table = select_one([0.5, 0.5], 2)
        assert table.realized_l1 == pytest.approx(0.0)
        assert table.bound == pytest.approx(1.0)
        assert np.allclose(table.induced_array(2), [0.5, 0.5])

    def test_certificate_never_understates_realized(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            size = int(rng.integers(1, 12))
            post = rng.dirichlet(np.ones(size))
            ell = int(rng.integers(1, 64))
            table = select_one(post, ell)
            induced = table.induced_array(size)
            assert induced[table.map_seed(int(rng.integers(1, ell + 1)))] > 0
            assert table.realized_l1 <= table.bound + 1e-12
            assert np.abs(induced - post).sum() == pytest.approx(float(table.realized_l1), abs=1e-12)

    def test_support_prefix_is_top_mass(self):
        post = np.array([0.05, 0.7, 0.25])
        table = select_one(post, 4)
        # with ell=4 the best certificate keeps the top-2 prefix or all three;
        # either way the chosen index must be a positive-mass candidate
        assert table.induced_array(3)[table.map_seed(1)] > 0


class TestRunScheme:
    def test_zero_trials(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(), n=2, seed=0)
        run = run_scheme(cb, Mode.FUNCTIONAL, trials=0, seed=0)
        assert run.traces == []

    def test_determinism(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.6, 0.9, 0.4), n=3, seed=5)
        r1 = run_scheme(cb, Mode.FUNCTIONAL, trials=6, seed=11)
        r2 = run_scheme(cb, Mode.FUNCTIONAL, trials=6, seed=11)
        assert [t.to_dict() for t in r1.traces] == [t.to_dict() for t in r2.traces]

    def test_functional_bundle_contents(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.6, 0.9, 0.4), n=3, seed=5)
        run = run_scheme(cb, Mode.FUNCTIONAL, trials=3, seed=1)
        for tr in run.traces:
            (msg,) = tr.messages
            names = [e[0] for e in msg.entries]
            assert names == ["m+(1,2)"]

    def test_functional_no_kplus_selector(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.6, 0.9, 0.4), n=3, seed=5)
        run = run_scheme(cb, Mode.FUNCTIONAL, trials=3, seed=1)
        for tr in run.traces:
            assert ("k", 1) not in tr.selectors

    def test_last_node_emits_no_message(self):
        spec, rates = markov3_spec_and_rates()
        cb = build_codebooks(spec, rates, n=2, seed=8)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=2, seed=3)
        for tr in run.traces:
            hops = [m.hop for m in tr.messages]
            assert hops == [1, 2]
            assert "X3" in tr.actions

    def test_markov_hop2_bundle_is_k_only(self):
        spec, rates = markov3_spec_and_rates()
        cb = build_codebooks(spec, rates, n=2, seed=8)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=2, seed=3)
        n = 2
        for tr in run.traces:
            hop2 = tr.messages[1]
            names = [e[0] for e in hop2.entries if e[2] > 1]
            assert names == ["k+(2)"]
            assert hop2.bit_size == int(np.ceil(np.log2(cb.sizes[k_plus(2)])))

    def test_budget_conformance_functional_and_unrestricted(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.5, 0.9, 0.4), n=3, seed=5)
        run = run_scheme(cb, Mode.FUNCTIONAL, trials=10, seed=2)
        assert run.budget_violations == []
        spec3, rates3 = markov3_spec_and_rates()
        cb3 = build_codebooks(spec3, rates3, n=2, seed=8)
        run3 = run_scheme(cb3, Mode.UNRESTRICTED, trials=10, seed=2)
        assert run3.budget_violations == []

    def test_node1_selection_typical_for_copy_target(self):
        # deterministic target X2=X1 with A=X2 and generous mu+: the selected
        # A-codeword should usually equal x1 itself
        w = np.zeros((2, 2))
        w[0, 0] = w[1, 1] = 0.5
        net = make_network(2, w)
        spec = aux_from_tags(net, a_tags={(1, 2): copy_of("X2")})
        rates = h2_rates(1.5, 0.4)
        cb = build_codebooks(spec, rates, n=4, seed=6)
        run = run_scheme(cb, Mode.FUNCTIONAL, trials=40, seed=13)
        hits = 0
        for tr in run.traces:
            word = cb.a_codeword((1, 2), dict(tr.indices))
            hits += list(map(int, word)) == tr.x1
        assert hits / 40 > 0.6

    def test_constant_aux_marginals_approach_target(self):
        net = indep_uniform_network(2)
        spec = aux_from_tags(net)
        cb = build_codebooks(spec, h2_rates(0.0, 0.0, lam2=1.0), n=2, seed=7)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=400, seed=1)
        counts = np.zeros(2)
        for tr in run.traces:
            for sym in tr.actions["X2"]:
                counts[sym] += 1
        freq = counts / counts.sum()
        assert np.abs(freq - 0.5).max() < 0.08

    def test_singleton_b_book_gives_k_zero(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.5, 0.82), n=2, seed=3)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=5, seed=2)
        for tr in run.traces:
            assert tr.indices[k_plus(1)] == 0

    def test_x2_equals_c_codeword(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.5, 0.82, lam2=0.5), n=3, seed=4)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=10, seed=9)
        for tr in run.traces:
            assignment = dict(tr.indices)
            word = cb.c_codeword(2, assignment)
            assert list(map(int, word)) == tr.actions["X2"]

    def test_requires_c_equals_action(self):
        net = dsbs_network()
        # C2 constant instead of a copy of X2: scheme cannot emit actions
        spec = aux_from_tags(net, a_tags={(1, 2): copy_of("X2")},
                             c_tags={2: ("constant",)})
        cb = build_codebooks(spec, h2_rates(), n=2, seed=1)
        with pytest.raises(UsageError, match="C2"):
            run_scheme(cb, Mode.FUNCTIONAL, trials=1, seed=0)

    def test_requires_copy_kernel_slices(self):
        # C2 a noisy channel of X2: same alphabet, but X2 given C2 is not a copy
        spec = aux_from_tags(dsbs_network(), a_tags={(1, 2): copy_of("X2")},
                             c_tags={2: channel_of(["X2"], [[0.9, 0.1], [0.1, 0.9]], 2)})
        cb = build_codebooks(spec, h2_rates(), n=2, seed=1)
        with pytest.raises(UsageError, match="X2 = C2; found a non-copy kernel slice"):
            run_scheme(cb, Mode.FUNCTIONAL, trials=1, seed=0)


@functools.cache
def _dsbs_scheme():
    return Scheme(build_codebooks(dsbs_spec(), h2_rates(), n=2, seed=0), Mode.FUNCTIONAL)


@st.composite
def posterior_stacks(draw):
    """(posteriors (R, M), ell): _normalized rows of random, dyadic, point-mass and
    all-zero (degenerate, so uniform) weights, so under a power-of-two ell only some
    rows have a cut on an integer; ell may fall below the support size."""
    size = draw(st.integers(1, 10))
    ell = draw(st.one_of(st.integers(1, size), st.integers(1, 300),
                         st.integers(0, 10).map(lambda k: 2 ** k)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "dyadic", "point", "zero"]))
        if kind == "random":
            rows.append(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
        elif kind == "dyadic":
            rows.append(draw(st.lists(st.integers(0, 8), min_size=size, max_size=size)))
        else:
            rows.append([0.0] * size)
            if kind == "point":
                rows[-1][draw(st.integers(0, size - 1))] = 0.5
    posteriors, _ = codec._normalized(np.array(rows, dtype=np.float64).reshape(-1, size))
    return posteriors, ell


class TestStackedSelection:
    """Scheme.selection's stacked table equals the one-posterior reference row by row:
    its support sizes, its induced laws and its seed map, for every seed."""

    @settings(max_examples=300, deadline=None)
    @given(case=posterior_stacks())
    @example(case=(np.array([[0.5, 0.25, 0.25], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]), 8))
    @example(case=(np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1]]), 2))
    # equal rows share one table
    @example(case=(np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]]), 5))
    def test_equals_row_by_row(self, case):
        posteriors, ell = case
        table = _dsbs_scheme().selection(posteriors, ell)
        induced = table.induced_array(posteriors.shape[-1])
        seeds = np.arange(1, ell + 1)
        chosen = table.map_seed(np.broadcast_to(seeds[:, None], (ell, len(posteriors))))
        _, sizes = codec._support_sizes(posteriors, ell)
        assert induced.shape == posteriors.shape
        for r, posterior in enumerate(posteriors):
            support, want = ref_selection_table(posterior, ell)
            assert np.array_equal(induced[r], want)
            assert sizes[r] == len(support)
            assert chosen[:, r].tolist() == ref_seed_map(posterior, ell)

    @settings(max_examples=200, deadline=None)
    @given(case=posterior_stacks())
    @example(case=(np.array([[0.5, 0.25, 0.25], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]), 8))
    @example(case=(np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1]]), 2))
    def test_rows_certify_as_fractions(self, case):
        """Each row of the table has the reference's support size and the certificate
        of the all-Fraction staircase on that support."""
        posteriors, ell = case
        table = _dsbs_scheme().selection(posteriors, ell)
        for r, posterior in enumerate(posteriors):
            row = table.row(r)
            support, _ = ref_selection_table(posterior, ell)
            ref = fraction_staircase(pmf_from_table(["X"], posterior), support, ell)
            assert row.support_size == len(support) and row.support.tolist() == support
            assert (row.epsilon, row.bound, row.realized_l1) == (ref["epsilon"], ref["bound"], ref["realized_l1"])
            assert row.vacuous == ref["vacuous"]


class TestSupportSizeTieRule:
    """The support-size rule is sequential: a longer prefix must beat the best
    certificate so far by 1e-15. Certificates 1, 1 - 0.67e-15, 1 - 1.33e-15, 1 select
    m=3; the first certificate within 1e-15 of the minimum would be m=2."""

    POSTERIOR = np.array([0.625, 0.125 + 3e-16, 0.125 + 3e-16, 0.125 - 6e-16])
    ELL = 4

    def test_certificates(self):
        cum = np.cumsum(self.POSTERIOR).tolist()
        certs = [2.0 * (1.0 - cum[m - 1]) + m / self.ELL for m in range(1, 5)]
        assert certs[0] == certs[3] == 1.0
        assert certs[1] >= certs[0] - 1e-15 and certs[2] < certs[0] - 1e-15
        assert certs[2] >= certs[1] - 1e-15

    def test_single_posterior(self):
        support, induced = ref_selection_table(self.POSTERIOR, self.ELL)
        assert len(support) == 3
        table = _dsbs_scheme().selection(self.POSTERIOR[None], self.ELL)
        assert table.row(0).support_size == 3
        assert np.array_equal(table.induced_array(4)[0], induced)

    def test_inside_a_stack(self):
        stack = np.stack([np.full(4, 0.25), self.POSTERIOR, np.array([1.0, 0.0, 0.0, 0.0])])
        _, sizes = codec._support_sizes(stack, self.ELL)
        assert sizes.tolist() == [len(ref_selection_table(p, self.ELL)[0]) for p in stack]
        assert sizes[1] == 3
        induced = _dsbs_scheme().selection(stack, self.ELL).induced_array(4)
        assert np.array_equal(induced[1], ref_selection_table(self.POSTERIOR, self.ELL)[1])


def _weights(draw, size):
    """size random weights, some zero and some tied."""
    values = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=4))
    return [draw(st.sampled_from(values)) for _ in range(size)]


@st.composite
def wide_posterior_stacks(draw):
    """(posteriors (R, M), ell) with M up to 50 and ell in [1, 60]: _normalized rows of
    random weights with zeros and ties, point masses and all-zero (degenerate, so
    uniform) rows; ell often falls below the support size, which makes the table vacuous."""
    size = draw(st.integers(1, 50))
    ell = draw(st.integers(1, 60))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "point", "zero"]))
        rows.append(_weights(draw, size) if kind == "random" else [0.0] * size)
        if kind == "point":
            rows[-1][draw(st.integers(0, size - 1))] = 1.0
    posteriors, _ = codec._normalized(np.array(rows, dtype=np.float64))
    return posteriors, ell


@st.composite
def scan_cut_stacks(draw):
    """(rows (R, M), ell) with ell < M/2 and M up to 50, each row's mass outside its top
    candidate at most 1 + 1/(2*ell), in shuffled positions:
    - "random": _normalized weights with zeros and ties;
    - "above": a _normalized row with some entries a few ulps up, so its cumsum can end above 1;
    - "near-tie": k <= 2*ell masses a few ulps off 1/(2*ell), the rest of the mass on one
      candidate, so consecutive certificates differ by less than 1e-15;
    - "zero": all zeros, not normalized;
    - "edge": 2*ell + 1 masses q in (1/(2*ell), 1/(2*ell) + 1/(4*ell**2)], whose best
      support size is 2*ell + 1."""
    size = draw(st.integers(3, 50))
    ell = draw(st.integers(1, (size - 1) // 2))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "above", "near-tie", "zero", "edge"]))
        row = np.zeros(size)
        if kind in ("random", "above"):
            row = codec._normalized(np.array(_weights(draw, size)))[0]
            for _ in range(draw(st.integers(0, 3)) if kind == "above" else 0):
                b = draw(st.integers(0, size - 1))
                row[b] = row[b] + draw(st.integers(1, 4)) * np.spacing(row[b])
        elif kind == "near-tie":
            k = draw(st.integers(1, min(2 * ell, size - 1)))
            row[:k] = [1 / (2 * ell) + draw(st.integers(-4, 4)) * np.spacing(1 / (2 * ell)) for _ in range(k)]
            row[k] = max(1.0 - row[:k].sum(), 0.0)
        elif kind == "edge":
            row[:2 * ell + 1] = 1 / (2 * ell) + draw(st.floats(0.01, 1.0)) / (4 * ell ** 2)
        rows.append(row[draw(st.permutations(range(size)))])
    return np.array(rows), ell


class TestSupportScanCut:
    """_support_sizes scans support sizes up to 2*ell + 1; a selection over ell seeds
    gives mass to at most ell candidates, which bounds the exact walk's fan-out."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=scan_cut_stacks())
    # four masses 1/4 + 4 ulps end their cumsum 8.9e-16 above 1, so m = 2*ell wins
    @example(case=(np.array([[0.25 + 4 * np.spacing(0.25)] * 4 + [0.0] * 3]), 2))
    @example(case=(np.array([[0.0] * 5, [0.2] * 5, [1 / 4 + 1 / 32] * 5]), 2))
    def test_matches_full_scan(self, case):
        rows, ell = case
        order, best_m = codec._support_sizes(rows, ell)
        want_order, want_m = ref_support_sizes(rows, ell)
        assert np.array_equal(order, want_order)
        assert np.array_equal(best_m, want_m)

    def test_examples_reach_the_cut(self):
        """The examples select 2*ell and 2*ell + 1 candidates, past any cut below 2*ell + 1."""
        _, sizes = ref_support_sizes(np.array([[0.25 + 4 * np.spacing(0.25)] * 4 + [0.0] * 3]), 2)
        assert sizes.tolist() == [4]
        _, sizes = ref_support_sizes(np.array([[1 / 4 + 1 / 32] * 5]), 2)
        assert sizes.tolist() == [5]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=wide_posterior_stacks())
    @example(case=(np.full((1, 50), 1 / 50), 1))
    @example(case=(np.full((1, 50), 1 / 50), 49))
    def test_selection_reaches_at_most_ell_candidates(self, case):
        posteriors, ell = case
        size = posteriors.shape[-1]
        induced = _dsbs_scheme().selection(posteriors, ell).induced_array(size)
        assert (np.count_nonzero(induced, axis=1) <= min(size, ell)).all()
