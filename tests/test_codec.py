import functools
import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordline import codec
from coordline.cli import Experiment
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
from coordline.presets import preset_config
from coordline.probability import integer_rows
from coordline.rates import CodebookRates, Mode
from test_exact_batched import _assert_runs_equal, ref_selection_table, ref_support_sizes
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
            assert table.induced_widths(1)[0] == 5

    def test_two_equiprobable_ell2(self):
        table = select_one([0.5, 0.5], 2)
        assert table.realized_l1 == pytest.approx(0.0)
        assert table.bound == pytest.approx(1.0)
        assert table.induced_widths(2).tolist() == [1, 1]

    def test_certificate_never_understates_realized(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            size = int(rng.integers(1, 12))
            post = rng.dirichlet(np.ones(size))
            ell = int(rng.integers(1, 64))
            table = select_one(post, ell)
            induced = table.induced_widths(size) / ell
            assert induced[table.map_seed(int(rng.integers(1, ell + 1)))] > 0
            assert table.realized_l1 <= table.bound + 1e-12
            assert np.abs(induced - post).sum() == pytest.approx(float(table.realized_l1), abs=1e-12)

    def test_support_prefix_is_top_mass(self):
        post = np.array([0.05, 0.7, 0.25])
        table = select_one(post, 4)
        # with ell=4 the best certificate keeps the top-2 prefix or all three;
        # either way the chosen index must be a positive-mass candidate
        assert table.induced_widths(3)[table.map_seed(1)] > 0


class TestRunScheme:
    def test_zero_trials(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(), n=2, seed=0)
        run = run_scheme(cb, Mode.FUNCTIONAL, trials=0, seed=0)
        assert run.actions.shape == (0, 2, 2)
        assert run.degenerate_trials == 0 and run.budget_violations == []
        assert run.indices == {} and run.selected == {}

    def test_determinism(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.6, 0.9, 0.4), n=3, seed=5)
        r1 = run_scheme(cb, Mode.FUNCTIONAL, trials=6, seed=11)
        r2 = run_scheme(cb, Mode.FUNCTIONAL, trials=6, seed=11)
        _assert_runs_equal(r1, r2)
        assert r1.node_bits == r2.node_bits

    def test_functional_bundle_contents(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.6, 0.9, 0.4), n=3, seed=5)
        (entries,) = Scheme(cb, Mode.FUNCTIONAL).hop_entries.values()
        assert [name for name, *_ in entries] == ["m+(1,2)"]

    def test_functional_no_kplus_selector(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.6, 0.9, 0.4), n=3, seed=5)
        run = run_scheme(cb, Mode.FUNCTIONAL, trials=3, seed=1)
        assert list(run.selected) == [("m1",)]

    def test_last_node_emits_no_message(self):
        spec, rates = markov3_spec_and_rates()
        cb = build_codebooks(spec, rates, n=2, seed=8)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=2, seed=3)
        assert list(Scheme(cb, Mode.UNRESTRICTED).hop_entries) == [1, 2]
        assert run.actions.shape == (2, 3, 2)

    def test_markov_hop2_bundle_is_k_only(self):
        spec, rates = markov3_spec_and_rates()
        cb = build_codebooks(spec, rates, n=2, seed=8)
        hop2 = Scheme(cb, Mode.UNRESTRICTED).hop_entries[2]
        assert [name for name, _, size in hop2 if size > 1] == ["k+(2)"]
        assert sum(_bits(size) for *_, size in hop2) == int(np.ceil(np.log2(cb.sizes[k_plus(2)])))

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
        for t, x1 in enumerate(run.actions[:, 0].tolist()):
            word = cb.a_codeword((1, 2), {c: int(v[t]) for c, v in run.indices.items()})
            hits += word.tolist() == x1
        assert hits / 40 > 0.6

    def test_constant_aux_marginals_approach_target(self):
        net = indep_uniform_network(2)
        spec = aux_from_tags(net)
        cb = build_codebooks(spec, h2_rates(0.0, 0.0, lam2=1.0), n=2, seed=7)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=400, seed=1)
        counts = np.bincount(run.actions[:, 1].ravel(), minlength=2)
        freq = counts / counts.sum()
        assert np.abs(freq - 0.5).max() < 0.08

    def test_singleton_b_book_gives_k_zero(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.5, 0.82), n=2, seed=3)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=5, seed=2)
        assert run.indices[k_plus(1)].tolist() == [0] * 5

    def test_x2_equals_c_codeword(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.5, 0.82, lam2=0.5), n=3, seed=4)
        run = run_scheme(cb, Mode.UNRESTRICTED, trials=10, seed=9)
        for t, x2 in enumerate(run.actions[:, 1].tolist()):
            word = cb.c_codeword(2, {c: int(v[t]) for c, v in run.indices.items()})
            assert word.tolist() == x2

    def test_no_per_trial_objects(self):
        """A run holds the same Python objects at 600 and at 32,000 trials: only its
        arrays grow."""
        exp = Experiment(preset_config("dsbs"))
        cb = build_codebooks(exp.spec, exp.rates, n=4, seed=1)
        held = []
        for trials in (600, 32_000):
            run = run_scheme(cb, exp.mode, trials, exp.seed)
            assert all(isinstance(v, np.ndarray) for v in run.indices.values())
            assert all(isinstance(a, np.ndarray) for arrays in run.selected.values() for a in arrays)
            assert run.budget_violations == []
            held.append(_reachable_objects(run))
        assert held[0] == held[1]
        assert held[0]["ndarray"] == 1 + len(run.indices) + 3 * len(run.selected)

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


def _reachable_objects(root) -> Counter:
    """The objects reachable from root through gc.get_referents, counted by type name;
    classes are not followed, and an array counts as one object (numpy arrays have no
    referents, so their buffers are not counted)."""
    seen, stack, counts = set(), [root], Counter()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        counts[type(obj).__name__] += 1
        stack.extend(gc.get_referents(obj))
    return counts


@functools.cache
def _dsbs_scheme():
    return Scheme(build_codebooks(dsbs_spec(), h2_rates(), n=2, seed=0), Mode.FUNCTIONAL)


@st.composite
def posterior_stacks(draw):
    """(posteriors (R, M), ell): integer rows of random, small (so some cuts land on
    integers), point-mass and all-zero (degenerate, so uniform) likelihoods, through
    codec._flagged; ell may fall below the support size."""
    size = draw(st.integers(1, 10))
    ell = draw(st.one_of(st.integers(1, size), st.integers(1, 300),
                         st.integers(0, 10).map(lambda k: 2 ** k)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "small", "point", "zero"]))
        if kind in ("random", "small"):
            rows.append(draw(st.lists(st.integers(0, 3 ** 12 if kind == "random" else 8),
                                      min_size=size, max_size=size)))
        else:
            rows.append([0] * size)
            if kind == "point":
                rows[-1][draw(st.integers(0, size - 1))] = 3
    posteriors, _ = codec._flagged(np.array(rows, dtype=np.int64).reshape(-1, size))
    return posteriors, ell


class TestStackedSelection:
    """Scheme.selection's stacked table equals the one-posterior reference row by row:
    its support sizes, its induced laws and its seed map, for every seed."""

    @settings(max_examples=300, deadline=None)
    @given(case=posterior_stacks())
    @example(case=(np.array([[2, 1, 1], [3, 3, 4], [1, 1, 0]]), 8))
    @example(case=(np.array([[1, 1, 1, 1], [4, 3, 2, 1]]), 2))
    # equal rows share one table
    @example(case=(np.array([[4, 3, 2, 1], [1, 2, 3, 4], [4, 3, 2, 1]]), 5))
    def test_equals_row_by_row(self, case):
        posteriors, ell = case
        table = _dsbs_scheme().selection(posteriors, ell)
        induced = table.induced_widths(posteriors.shape[-1]) / ell
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
    @example(case=(np.array([[2, 1, 1], [3, 3, 4], [1, 1, 0]]), 8))
    @example(case=(np.array([[1, 1, 1, 1], [4, 3, 2, 1]]), 2))
    def test_rows_certify_as_fractions(self, case):
        """Each row of the table has the reference's support size and the certificate
        of the all-Fraction staircase on that support."""
        posteriors, ell = case
        table = _dsbs_scheme().selection(posteriors, ell)
        for r, posterior in enumerate(posteriors):
            row = table.row(r)
            support, _ = ref_selection_table(posterior, ell)
            ref = fraction_staircase(posterior, support, ell)
            assert row.support_size == len(support) and row.support.tolist() == support
            assert (row.epsilon, row.bound, row.realized_l1) == (ref["epsilon"], ref["bound"], ref["realized_l1"])
            assert row.vacuous == ref["vacuous"]

    def test_float_rows_are_snapped_at_entry(self):
        """Float posteriors select as the integer rows they snap to."""
        floats = np.array([[0.5, 0.25, 0.25], [0.3, 0.3, 0.4], [1 / 3, 1 / 3, 1 / 3]])
        ints = np.array([[2, 1, 1], [3, 3, 4], [1, 1, 1]])
        for ell in (1, 3, 8, 10):
            got, want = (_dsbs_scheme().selection(rows, ell) for rows in (floats, ints))
            assert np.array_equal(got.induced_widths(3), want.induced_widths(3))
            assert got.support_size.tolist() == want.support_size.tolist()


class TestSupportSizeTieRule:
    """The support-size rule compares certificates exactly: a longer prefix wins only if
    its certificate is smaller, by however little. On [5q, q + 1, q + 1, q - 2] over T =
    8q with ell 4, the certificates are 1, 1 - 1/(4q), 1 - 1/(2q) and 1, so m = 3 wins
    by under 1e-15 of a certificate for q = 10**15, a margin no float rule resolves; at
    q = 10**14 the row is int64, at 10**15 ell * T passes 2**53 and it takes Python ints."""

    ELL = 4

    @pytest.mark.parametrize("q", [10 ** 14, 10 ** 15])
    def test_smallest_improvement_wins(self, q):
        row = np.array([[5 * q, q + 1, q + 1, q - 2]])
        _, sizes = codec._support_sizes(integer_rows(row, self.ELL), self.ELL)
        assert sizes.tolist() == [3] == [len(ref_selection_table(row[0], self.ELL)[0])]
        table = _dsbs_scheme().selection(row, self.ELL)
        assert table.row(0).support_size == 3
        assert np.array_equal(table.induced_widths(4)[0] / self.ELL, ref_selection_table(row[0], self.ELL)[1])

    def test_exact_ties_keep_the_shortest(self):
        """[5, 1, 1, 1] over ell 4 ties every certificate at exactly 1: m = 1."""
        stack = np.array([[1, 1, 1, 1], [5, 1, 1, 1], [1, 0, 0, 0]])
        _, sizes = codec._support_sizes(stack, self.ELL)
        assert sizes.tolist() == [4, 1, 1] == [len(ref_selection_table(p, self.ELL)[0]) for p in stack]


@st.composite
def wide_posterior_stacks(draw):
    """(posteriors (R, M), ell) with M up to 50 and ell in [1, 60]: integer rows of
    random weights with zeros and ties, point masses and all-zero (degenerate, so
    uniform) rows; ell often falls below the support size, which makes the table vacuous."""
    size = draw(st.integers(1, 50))
    ell = draw(st.integers(1, 60))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "point", "zero"]))
        rows.append(_weights(draw, size) if kind == "random" else [0] * size)
        if kind == "point":
            rows[-1][draw(st.integers(0, size - 1))] = 1
    return codec._flagged(np.array(rows, dtype=np.int64))[0], ell


def _weights(draw, size):
    """size random integer weights, some zero and some tied."""
    values = draw(st.lists(st.sampled_from([0, 0, 4, 16]) | st.integers(0, 10 ** 6), min_size=1, max_size=4))
    return [draw(st.sampled_from(values)) for _ in range(size)]


@st.composite
def scan_cut_stacks(draw):
    """(rows (R, M), ell) with ell < M/2 and M up to 50, in shuffled positions:
    - "random": integer weights with zeros and ties;
    - "near-tie": k <= 2*ell weights within 4 of T/(2*ell), the rest on one candidate, so
      consecutive certificates differ by a few parts in T;
    - "wide": 2*ell - 1 equal weights and a little mass spread over the rest, whose best
      support size is the largest any row can have."""
    size = draw(st.integers(3, 50))
    ell = draw(st.integers(1, (size - 1) // 2))
    total = 2 * ell * draw(st.integers(10 ** 3, 10 ** 12))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "near-tie", "wide"]))
        row = np.zeros(size, dtype=np.int64)
        if kind == "random":
            row[:] = _weights(draw, size)
        elif kind == "near-tie":
            k = draw(st.integers(1, min(2 * ell, size - 1)))
            row[:k] = [total // (2 * ell) + draw(st.integers(-4, 4)) for _ in range(k)]
            row[k] = max(total - row[:k].sum(), 0)
        else:
            row[:2 * ell - 1] = total // (2 * ell - 1)
            row[2 * ell - 1:] = draw(st.integers(0, 3))
        rows.append(row[draw(st.permutations(range(size)))])
    return codec._flagged(np.array(rows))[0], ell


class TestSupportScanCut:
    """_support_sizes scans support sizes up to 2*ell; a selection over ell seeds gives
    mass to at most ell candidates."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=scan_cut_stacks())
    @example(case=(np.array([[1, 1, 1, 0, 0]]), 2))  # 2*ell - 1 candidates win
    @example(case=(np.array([[0, 0, 0, 0, 0], [1] * 5, [5] * 5]), 2))
    def test_matches_full_scan(self, case):
        rows, ell = case
        rows = codec._flagged(rows)[0]
        order, best_m = codec._support_sizes(rows, ell)
        want_order, want_m = ref_support_sizes(rows, ell)
        assert np.array_equal(order, want_order)
        assert np.array_equal(best_m, want_m)

    def test_examples_reach_the_cut(self):
        """Three equal weights over ell 2 select 2*ell - 1 = 3 candidates: a row's mass
        outside its top candidate is below 1, so no m >= 2*ell beats m = 1."""
        _, sizes = ref_support_sizes(np.array([[1, 1, 1, 0, 0]]), 2)
        assert sizes.tolist() == [3]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=wide_posterior_stacks())
    @example(case=(np.ones((1, 50), dtype=np.int64), 1))
    @example(case=(np.ones((1, 50), dtype=np.int64), 49))
    def test_selection_reaches_at_most_ell_candidates(self, case):
        posteriors, ell = case
        size = posteriors.shape[-1]
        induced = _dsbs_scheme().selection(posteriors, ell).induced_widths(size)
        assert (np.count_nonzero(induced, axis=1) <= min(size, ell)).all()
