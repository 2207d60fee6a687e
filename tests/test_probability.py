import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordline import codec
from coordline.errors import ResourceCapError, UsageError
from coordline.probability import (
    KERNEL_TOL,
    MASS_TOL,
    Alphabet,
    ConditionalKernel,
    _entropy_of,
    _summed,
    condition,
    divergences,
    info_measure,
    marginalize,
    pmf_from_table,
    pmf_weights,
    product_extend,
    snapped,
    staircase_map,
)

H2_QUARTER = 0.8112781244591328  # binary entropy of 0.25


def dsbs(p=0.25):
    w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
    return pmf_from_table(["X1", "X2"], w)


def rand_pmf(rng, labels, sizes):
    w = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    return pmf_from_table(labels, w)


class TestJointPmf:
    def test_rejects_bad_mass(self):
        with pytest.raises(UsageError):
            pmf_from_table(["X"], [0.5, 0.6])

    def test_explicit_normalize_flag(self):
        p = pmf_from_table(["X"], [1.0, 3.0], normalize=True)
        assert np.allclose(p.weights, [0.25, 0.75])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(UsageError):
            pmf_from_table(["X", "X"], [[0.25] * 2] * 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, bad):
        """A NaN cell passes the mass check (comparisons with NaN are false) unless
        the total is checked for finiteness first."""
        for normalize in (False, True):
            with pytest.raises(UsageError, match="must be finite"):
                pmf_weights([0.5, 0.5, bad], normalize=normalize)

    def test_immutable(self):
        p = pmf_from_table(["X"], [0.5, 0.5])
        with pytest.raises((ValueError, AttributeError)):
            p.weights[0] = 0.9


class TestProductExtend:
    def test_fair_bit_n2_uniform(self):
        q = product_extend(pmf_from_table(["X"], [0.5, 0.5]), 2)
        assert q.sizes == (2, 2)
        assert np.allclose(q.weights, 0.25)

    def test_identity_n1(self):
        p = pmf_from_table(["X"], [0.7, 0.3])
        assert product_extend(p, 1) is p

    def test_biased_n2_products(self):
        # direct multiplication oracle: (0.75,0.25)^{x2}
        q = product_extend(pmf_from_table(["X"], [0.75, 0.25]), 2)
        assert np.allclose(q.weights, [[0.5625, 0.1875], [0.1875, 0.0625]])

    def test_cap(self, monkeypatch):
        p = pmf_from_table(["X"], np.full(16, 1 / 16))
        monkeypatch.setenv("COORDLINE_CAP", str(2 ** 20))
        with pytest.raises(ResourceCapError):
            product_extend(p, 12)

    def test_block_axes_grouped_per_source_axis(self):
        q = product_extend(dsbs(), 2)
        assert q.labels == ("X1@0", "X1@1", "X2@0", "X2@1")


class TestMarginalize:
    def test_uniform_pair_first(self):
        p = pmf_from_table(["X", "Y"], np.full((2, 2), 0.25))
        m = marginalize(p, ["X"])
        assert np.allclose(m.weights, [0.5, 0.5])

    def test_independent_factorizes(self):
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(4))
        p = pmf_from_table(["A", "B"], np.outer(a, b))
        assert np.allclose(marginalize(p, ["A"]).weights, a)
        assert np.allclose(marginalize(p, ["B"]).weights, b)

    def test_dsbs_row_sums(self):
        m = marginalize(dsbs(), ["X2"])
        assert np.allclose(m.weights, [0.5, 0.5])

    def test_unknown_label(self):
        with pytest.raises(UsageError):
            marginalize(dsbs(), ["Z"])

    def test_commutes_with_product_extend(self):
        rng = np.random.default_rng(7)
        p = rand_pmf(rng, ["A", "B"], (2, 3))
        big = product_extend(p, 2)
        per_letter = marginalize(p, ["A"])
        lifted = marginalize(big, ["A@0", "A@1"])
        want = product_extend(per_letter, 2)
        assert np.allclose(lifted.weights, want.weights, atol=1e-12)


class TestCondition:
    def test_copy_joint_identity(self):
        w = np.array([[0.5, 0.0], [0.0, 0.5]])
        k = condition(pmf_from_table(["X1", "X2"], w), ["X1"], ["X2"])
        assert np.allclose(k.weights, np.eye(2))
        assert not k.degenerate.any()

    def test_independent_slices_equal_marginal(self):
        p = pmf_from_table(["A", "B"], np.outer([0.3, 0.7], [0.6, 0.4]))
        k = condition(p, ["A"], ["B"])
        assert np.allclose(k.weights[0], [0.6, 0.4])
        assert np.allclose(k.weights[1], [0.6, 0.4])

    def test_dsbs_rows(self):
        k = condition(dsbs(), ["X1"], ["X2"])
        assert np.allclose(k.weights, [[0.75, 0.25], [0.25, 0.75]])

    def test_zero_mass_condition_flagged_uniform(self):
        w = np.array([[0.5, 0.5], [0.0, 0.0]])
        k = condition(pmf_from_table(["A", "B"], w, normalize=True), ["A"], ["B"])
        assert k.degenerate[1]
        assert np.allclose(k.weights[1], [0.5, 0.5])
        assert not k.degenerate[0]


def reference_condition(p, given):
    """Kernel p(the other axes | given): condition as it read a marginal JointPmf before
    it took output labels, kept as the reference for the one-pass condition."""
    given = list(given)
    g_pos = [p.axis_pos(lbl) for lbl in given]
    if len(set(g_pos)) != len(g_pos):
        raise UsageError("repeated labels in given")
    if len(g_pos) >= len(p.axes):
        raise UsageError("given must be a strict subset of the axes")
    o_pos = [i for i in range(len(p.axes)) if i not in g_pos]
    w = np.transpose(p.weights, g_pos + o_pos)
    g_shape = w.shape[: len(g_pos)]
    o_shape = w.shape[len(g_pos):]
    flat = w.reshape(g_shape + (-1,))
    mass = flat.sum(axis=-1)
    degenerate = mass <= 0.0
    safe = np.where(degenerate, 1.0, mass)
    out = flat / safe[..., None]
    if degenerate.any():
        out = np.where(degenerate[..., None], 1.0 / flat.shape[-1], out)
    out = out.reshape(g_shape + o_shape)
    return ConditionalKernel([p.axes[i] for i in g_pos], [p.axes[i] for i in o_pos], out, degenerate)


def marginal_condition(p, given, output):
    """Kernel p(output | given) through the marginal JointPmf on given + output."""
    return reference_condition(marginalize(p, list(given) + list(output)), given)


def assert_same_kernel(got, want):
    assert got.given_axes == want.given_axes and got.output_axes == want.output_axes
    assert np.array_equal(got.weights, want.weights) and got.weights.tobytes() == want.weights.tobytes()
    assert np.array_equal(got.degenerate, want.degenerate)


def splits(labels, rng):
    """Every (given, output) pair of disjoint label lists with a nonempty output, each
    list in a shuffled order."""
    for roles in itertools.product((0, 1, 2), repeat=len(labels)):
        if 1 in roles:
            given = [lbl for lbl, r in zip(labels, roles) if r == 0]
            output = [lbl for lbl, r in zip(labels, roles) if r == 1]
            yield list(rng.permutation(given)), list(rng.permutation(output))


class TestConditionMatchesMarginalReference:
    """condition(p, given, output) reads p's weights with no marginal JointPmf; it must
    equal the kernel of marginalize(p, given + output) bit for bit."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=5), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 0.8), off=st.booleans())
    def test_every_split_in_shuffled_order(self, sizes, seed, zeros, off):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(math.prod(sizes))) * (rng.random(math.prod(sizes)) >= zeros)
        if not w.any():
            w[0] = 1.0
        w = w.reshape(sizes) / w.sum()
        labels = [f"A{i}" for i in range(len(sizes))]
        p = pmf_from_table(labels, just_inside_mass_tol(w) if off else w)
        for given_labels, output in splits(labels, rng):
            assert_same_kernel(condition(p, given_labels, output), marginal_condition(p, given_labels, output))

    def test_zero_mass_conditions_are_flagged_alike(self):
        w = np.zeros((3, 2, 2))
        w[0] = [[0.2, 0.1], [0.0, 0.3]]
        w[2, 1] = [0.4, 0.0]
        p = pmf_from_table(["A", "B", "C"], w)
        degenerate = 0
        for given_labels, output in splits(p.labels, np.random.default_rng(3)):
            got = condition(p, given_labels, output)
            assert_same_kernel(got, marginal_condition(p, given_labels, output))
            degenerate += int(got.degenerate.sum())
        assert degenerate > 0

    def test_joint_off_by_just_under_mass_tol(self):
        p = joint_just_inside_mass_tol(11, (3, 2, 4, 2))
        renormalized = 0
        for given_labels, output in splits(p.labels, np.random.default_rng(5)):
            renormalized += abs(float(_summed(p, given_labels + output)[0].sum()) - 1.0) > MASS_TOL
            assert_same_kernel(condition(p, given_labels, output), marginal_condition(p, given_labels, output))
        assert renormalized > 0  # some marginals' totals fall outside MASS_TOL and are divided out

    @pytest.mark.parametrize("given_labels, output", [(["X1"], []), ([], []), (["X1", "X1"], ["X2"]),
                                                      ([], ["X2", "X2"]), (["X1"], ["X1"]),
                                                      (["X1"], ["Z"])])
    def test_bad_label_lists_are_usage_errors(self, given_labels, output):
        with pytest.raises(UsageError):
            condition(dsbs(), given_labels, output)


class TestKernelTolerance:
    """A kernel's given-slices must each sum to 1 within KERNEL_TOL, 1.01e-5: the bound
    np.allclose(atol=1e-7) applied with its default rtol."""

    @staticmethod
    def kernel(off):
        w = np.array([[0.5, 0.5 + off], [0.25, 0.75]])
        return ConditionalKernel([("A", Alphabet("A", 2))], [("B", Alphabet("B", 2))], w, np.zeros(2, dtype=bool))

    def test_tolerance_value(self):
        assert KERNEL_TOL == 1e-7 + 1e-5

    @pytest.mark.parametrize("off", [1e-5, -1e-5, 0.0])
    def test_slices_within_tolerance_are_accepted(self, off):
        assert self.kernel(off).weights[0, 1] == 0.5 + off

    @pytest.mark.parametrize("off", [1.02e-5, -1.02e-5, math.nan, math.inf, -math.inf])
    def test_slices_outside_tolerance_are_rejected(self, off):
        with pytest.raises(UsageError, match="conditional slices must each sum to 1"):
            self.kernel(off)


class TestInfoMeasure:
    def test_independent_zero(self):
        p = pmf_from_table(["X", "Y"], np.full((2, 2), 0.25))
        assert info_measure(p, ["X"], ["Y"]) == pytest.approx(0.0, abs=1e-12)

    def test_copy_one_bit(self):
        w = np.array([[0.5, 0.0], [0.0, 0.5]])
        p = pmf_from_table(["X", "Y"], w)
        assert info_measure(p, ["X"], ["Y"]) == pytest.approx(1.0, abs=1e-12)
        assert info_measure(p, ["X"]) == pytest.approx(1.0, abs=1e-12)

    def test_dsbs_plugin_value(self):
        val = info_measure(dsbs(), ["X1"], ["X2"])
        assert val == pytest.approx(1.0 - H2_QUARTER, abs=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(UsageError):
            info_measure(dsbs(), ["X1"], ["X1"])

    def test_chain_rule_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = rand_pmf(rng, ["A", "B"], (3, 4))
            h_ab = info_measure(p, ["A", "B"])
            h_a = info_measure(p, ["A"])
            h_b_given_a = info_measure(p, ["B"], (), ["A"])
            assert abs(h_ab - h_a - h_b_given_a) < 1e-9

    def test_conditional_mi_nonnegative_random(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = rand_pmf(rng, ["A", "B", "C"], (2, 3, 2))
            assert info_measure(p, ["A"], ["B"], ["C"]) >= 0.0


def marginal_entropy(p, labels):
    """H of the labels as computed through a marginal JointPmf: its C-order cells."""
    w = marginalize(p, labels).weights.ravel()
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def just_inside_mass_tol(w):
    """w scaled so that its total is off 1 by just under MASS_TOL."""
    w = w * ((1 + MASS_TOL) / w.sum())
    while abs(float(w.sum()) - 1.0) > MASS_TOL:
        w = np.nextafter(w, 0.0)
    return w


def joint_just_inside_mass_tol(seed, sizes):
    """A random joint scaled so that its total is off 1 by just under MASS_TOL."""
    rng = np.random.default_rng(seed)
    w = just_inside_mass_tol(rng.dirichlet(np.ones(math.prod(sizes))).reshape(sizes))
    return pmf_from_table([f"A{i}" for i in range(len(sizes))], w)


class TestEntropyOfJointWeights:
    """_entropy_of reads the joint's weights with no marginal JointPmf; it must equal
    the entropy of marginalize(p, labels) bit for bit, not approximately."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=5), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 0.6))
    def test_every_label_subset_in_shuffled_order(self, sizes, seed, zeros):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(math.prod(sizes))) * (rng.random(math.prod(sizes)) >= zeros)
        if not w.any():
            w[0] = 1.0
        labels = [f"A{i}" for i in range(len(sizes))]
        p = pmf_from_table(labels, w.reshape(sizes), normalize=True)
        for r in range(1, len(labels) + 1):
            for subset in itertools.combinations(labels, r):
                shuffled = [subset[i] for i in rng.permutation(r)]
                assert _entropy_of(p, shuffled) == marginal_entropy(p, shuffled), shuffled

    def test_joint_off_by_just_under_mass_tol(self):
        p = joint_just_inside_mass_tol(9, (3, 2, 4, 2))
        assert 0.99 * MASS_TOL < float(p.weights.sum()) - 1.0 <= MASS_TOL
        renormalized = 0
        for r in range(1, 5):
            for order in itertools.permutations(p.labels, r):
                renormalized += abs(float(_summed(p, order)[0].sum()) - 1.0) > MASS_TOL
                assert _entropy_of(p, order) == marginal_entropy(p, order), order
        assert renormalized > 0  # some marginals' totals fall outside MASS_TOL and are divided out


class TestDivergences:
    def test_equal_zero(self):
        p = dsbs()
        kl, tv = divergences(p, p)
        assert kl == 0.0 and tv == 0.0

    def test_point_mass_vs_uniform(self):
        kl, tv = divergences(pmf_from_table(["X"], [1.0, 0.0]), pmf_from_table(["X"], [0.5, 0.5]))
        assert kl == pytest.approx(1.0)
        assert tv == pytest.approx(1.0)

    def test_support_violation_infinite(self):
        kl, tv = divergences(pmf_from_table(["X"], [0.5, 0.5]), pmf_from_table(["X"], [1.0, 0.0]))
        assert math.isinf(kl)
        assert tv == pytest.approx(1.0)

    def test_axis_mismatch(self):
        with pytest.raises(UsageError):
            divergences(pmf_from_table(["X"], [0.5, 0.5]), pmf_from_table(["Y"], [0.5, 0.5]))

    def test_pinsker_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rand_pmf(rng, ["X"], (5,))
            q = rand_pmf(rng, ["X"], (5,))
            kl, tv = divergences(p, q)
            if math.isfinite(kl):
                assert tv <= math.sqrt(2.0 * math.log(2.0) * kl) + 1e-9


class TestStaircase:
    def test_exact_divisor(self):
        q = pmf_from_table(["X"], [0.5, 0.3, 0.2])
        t = staircase_map(q, [0, 1, 2], 10)
        assert t.cuts.tolist() == [5, 8]
        assert t.realized_l1 == 0
        assert [float(f) for f in t.induced] == [0.5, 0.3, 0.2]

    def test_thirds(self):
        q = pmf_from_table(["X"], [1 / 3, 1 / 3, 1 / 3])
        t = staircase_map(q, [0, 1, 2], 10)
        assert t.cuts.tolist() == [3, 6]
        assert [float(f) for f in t.induced] == [0.3, 0.3, 0.4]
        assert float(t.realized_l1) == pytest.approx(2 / 15)
        assert t.realized_l1 <= Fraction(3, 10)

    def test_point_mass(self):
        q = pmf_from_table(["X"], [0.0, 1.0])
        t = staircase_map(q, [1], 7)
        assert t.realized_l1 == 0
        assert t.map_seed(1) == 1 and t.map_seed(7) == 1

    def test_leftover_seeds_go_to_last_symbol(self):
        q = pmf_from_table(["X"], [0.26, 0.74])
        t = staircase_map(q, [0, 1], 4)
        # one cut, floor(0.26*4)=1; the last symbol takes every seed above it
        assert t.map_seed(1) == 0
        assert all(t.map_seed(s) == 1 for s in (2, 3, 4))

    def test_ell_range_above_float_precision(self):
        """ell up to 2^63 - 1, beyond what float64 holds exactly: the implied last cut
        ell gives the last symbol every seed up to ell, and the widths sum to ell."""
        half = pmf_from_table(["X"], [0.5, 0.5])
        for ell in (2 ** 53 + 1, 2 ** 60 + 1, 2 ** 63 - 1):
            point = staircase_map(np.array([1.0]), [0], ell)
            assert point.cuts.tolist() == [] and point.induced == (Fraction(1),)
            assert point.map_seed(ell) == 0
            t = staircase_map(half, [0, 1], ell)
            assert t.cuts.tolist() == [ell // 2]
            assert t.map_seed(ell) == 1 and t.map_seed(ell // 2) == 0
            assert sum(t._widths().tolist()) == ell
        for ell in (0, 2 ** 63):
            with pytest.raises(UsageError, match="ell must lie in"):
                staircase_map(half, [0, 1], ell)

    @pytest.mark.parametrize("weights, support, total", [
        (np.zeros((1, 3)), [[0, 1, 2]], "0.0"),
        ([[0.2, 0.2]], [[0, 1]], "0.4"),
        ([[0.5, 0.5], [0.5, 0.5 + 2 * MASS_TOL]], [[0, 1], [1, 0]], "1.000000002"),
        ([[0.5, np.nan]], [[0, 1]], "nan"),
    ], ids=["zero-row", "unnormalized-row", "second-row-off", "nan-row"])
    def test_rows_off_unit_mass_are_usage_errors(self, weights, support, total):
        """Checked before any divide: a zero row raises no RuntimeWarning (the suite
        turns warnings into errors) and gets no int64-min cuts."""
        with pytest.raises(UsageError, match=rf"must sum to 1 within 1e-09, got total {total}"):
            staircase_map(np.asarray(weights, dtype=float), np.array(support), 8)

    def test_row_just_inside_mass_tol_is_cut(self):
        table = staircase_map(np.array([[0.5, 0.5 + 0.9 * MASS_TOL]]), np.array([[0, 1]]), 8)
        assert table.cuts.tolist() == [[3]]

    def test_vacuous_flag(self):
        q = pmf_from_table(["X"], [0.25] * 4)
        t = staircase_map(q, [0, 1, 2, 3], 2)
        assert t.vacuous
        assert t.bound >= 1

    def test_bound_holds_exactly_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            size = int(rng.integers(2, 65))
            q = rand_pmf(rng, ["X"], (size,))
            ell = int(rng.integers(16, 4097))
            full = list(rng.permutation(size))
            t = staircase_map(q, full, ell)
            assert t.realized_l1 <= t.bound
            assert t.realized_l1 <= Fraction(size, ell)  # B = supp(q)
            # truncated support: epsilon > 0 branch
            m = int(rng.integers(1, size + 1))
            sub = full[:m]
            t2 = staircase_map(q, sub, ell)
            assert t2.realized_l1 <= t2.bound

    def test_induced_matches_seed_enumeration(self):
        rng = np.random.default_rng(23)
        q = rand_pmf(rng, ["X"], (5,))
        ell = 37
        t = staircase_map(q, [0, 1, 2, 3, 4], ell)
        counts = np.zeros(5)
        for s in range(1, ell + 1):
            counts[t.map_seed(s)] += 1
        assert np.array_equal(counts, t.induced_widths(5))


def exact_row(weights):
    """A weight row as exact rationals summing to 1: an integer row over its total, a float
    row with each weight first snapped to its closest rational with denominator at most
    10**12 (Fraction.limit_denominator)."""
    row = np.asarray(weights)
    values = ([Fraction(float(w)).limit_denominator(10 ** 12) for w in row] if row.dtype.kind == "f"
              else [Fraction(int(w)) for w in row])
    total = sum(values)
    return [v / total for v in values]


def fraction_staircase(weights, support, ell):
    """The all-Fraction staircase the integer table must reproduce exactly: the row's
    exact rationals (exact_row), cut, induced and certified in rationals."""
    exact = exact_row(weights)
    cuts, cum = [], Fraction(0)
    for b in support:
        cum += exact[b]
        cuts.append(math.floor(cum * ell))
    cuts.pop()  # N_M: the last symbol takes every seed above N_{M-1}
    m = len(support)
    edges = [0] + cuts + [ell]
    induced = tuple(Fraction(max(hi - lo, 0), ell) for lo, hi in zip(edges, edges[1:]))
    by_symbol = dict(zip(support, induced))
    epsilon = 1 - cum
    return {"cuts": tuple(cuts), "induced": induced, "epsilon": epsilon,
            "bound": 2 * epsilon + Fraction(m, ell),
            "realized_l1": sum(abs(exact[b] - by_symbol.get(b, 0)) for b in range(len(exact))),
            "vacuous": ell < m}


def assert_same_table(got, want):
    """Two tables agree in every field, each array with its dtype and shape; the integer
    weights by value, as a stack holds them on Python ints once any row needs them."""
    for name in ("support", "cuts", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype == b.dtype or name == "weights") and a.shape == b.shape and np.array_equal(a, b), name
    assert (got.ell, got.support_size, got.vacuous) == (want.ell, want.support_size, want.vacuous)


@st.composite
def staircase_cases(draw):
    """(weights, support, ell): random pmfs, dyadic weights under a power-of-two
    ell (cuts land exactly on integers), weights that snap to 0, truncated and
    full supports, and ell below the support size."""
    kind = draw(st.sampled_from(["random", "dyadic", "tiny"]))
    size = draw(st.integers(1, 24))
    if kind == "dyadic":
        k = draw(st.integers(0, 10))
        marks = sorted(draw(st.lists(st.integers(0, 2 ** k), min_size=size - 1, max_size=size - 1)))
        weights = [(hi - lo) / 2 ** k for lo, hi in zip([0] + marks, marks + [2 ** k])]
        ell = 2 ** draw(st.integers(0, 16))
    else:
        letter = st.floats(0.0, 1.0)
        if kind == "tiny":
            letter = st.one_of(st.sampled_from([0.0, 1e-16, 1e-14, 4.9e-13, 5.1e-13, 1e-12]), letter)
        weights = draw(st.lists(letter, min_size=size, max_size=size))
        ell = draw(st.one_of(st.integers(1, 8), st.integers(1, 5000)))
    if sum(weights) <= 0.0:
        weights[0] = 1.0
    order = draw(st.permutations(range(size)))
    if draw(st.booleans()):
        support = [b for b in order if weights[b] > 0.0]  # every positive weight
    else:
        support = order[:draw(st.integers(1, size))]
    return weights, support, ell


class TestStaircaseAgainstFractions:
    @settings(max_examples=400, deadline=None)
    @given(case=staircase_cases())
    @example(case=([0.25, 0.25, 0.5], [2, 0, 1], 8))
    @example(case=([0.5, 0.25, 0.125, 0.125], [0, 1, 2], 1024))
    @example(case=([1e-14, 1.0, 3e-13], [1], 7))
    @example(case=([0.1] * 10, list(range(10)), 3))
    def test_equals_fraction_reference(self, case):
        weights, support, ell = case
        q = pmf_from_table(["X"], weights, normalize=True)
        t = staircase_map(q, support, ell)
        ref = fraction_staircase(q.weights, support, ell)
        assert tuple(t.cuts.tolist()) == ref.pop("cuts")
        assert {key: getattr(t, key) for key in ref} == ref
        expected = np.zeros(len(weights))
        expected[support] = [float(f) for f in ref["induced"]]
        assert np.array_equal(t.induced_widths(len(weights)) / t.ell, expected)

    @settings(max_examples=200, deadline=None)
    @given(case=staircase_cases())
    def test_weights_array_equals_pmf(self, case):
        weights, support, ell = case
        q = pmf_from_table(["X"], weights, normalize=True)
        w = pmf_weights(weights, normalize=True)
        assert np.array_equal(w, q.weights) and not w.flags.writeable
        assert_same_table(staircase_map(w, support, ell), staircase_map(q, support, ell))


@st.composite
def staircase_stacks(draw, max_ell=5000):
    """(weight rows, support rows, ell) sharing size, support length and ell: rows of
    random, dyadic, near-zero and point-mass weights, so under a power-of-two ell only
    some rows have a cut on an integer; ell may fall below the support length, and a
    stack may be empty."""
    size = draw(st.integers(1, 12))
    m = draw(st.integers(1, size))
    ell = draw(st.one_of(st.integers(1, m), st.integers(1, max_ell),
                         st.integers(0, max_ell.bit_length() - 1).map(lambda k: 2 ** k)))
    rows, supports = [], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "dyadic", "tiny", "point"]))
        if kind == "dyadic":
            marks = sorted(draw(st.lists(st.integers(0, 64), min_size=size - 1, max_size=size - 1)))
            weights = [(hi - lo) / 64 for lo, hi in zip([0] + marks, marks + [64])]
        elif kind == "point":
            weights = [0.0] * size
            weights[draw(st.integers(0, size - 1))] = 1.0
        else:
            letter = st.floats(0.0, 1.0)
            if kind == "tiny":
                letter = st.one_of(st.sampled_from([0.0, 1e-16, 4.9e-13, 5.1e-13]), letter)
            weights = draw(st.lists(letter, min_size=size, max_size=size))
        if sum(weights) <= 0.0:
            weights[0] = 1.0
        rows.append(pmf_weights(weights, normalize=True))
        supports.append(draw(st.permutations(range(size)))[:m])
    return np.array(rows).reshape(-1, size), np.array(supports, dtype=np.int64).reshape(-1, m), ell


class TestStackedStaircase:
    """staircase_map on weight rows equals one call per row, in every field."""

    @settings(max_examples=300, deadline=None)
    @given(case=staircase_stacks())
    @example(case=(np.array([[0.5, 0.25, 0.25], [0.3, 0.3, 0.4]]), np.array([[0, 1], [0, 1]]), 8))
    @example(case=(np.array([[0.0, 1.0, 0.0], [0.25, 0.25, 0.5]]), np.array([[1, 0, 2], [2, 0, 1]]), 2))
    def test_equals_row_by_row(self, case):
        weights, supports, ell = case
        stack = staircase_map(weights, supports, ell)
        size = weights.shape[-1]
        assert stack.cuts.shape == supports.shape[:-1] + (supports.shape[-1] - 1,)
        assert stack.induced_widths(size).shape == weights.shape
        for r, (row, support) in enumerate(zip(weights, supports)):
            one = staircase_map(row, support.tolist(), ell)
            assert_same_table(stack.row(r), one)
            assert np.array_equal(stack.induced_widths(size)[r], one.induced_widths(size))

    @settings(max_examples=200, deadline=None)
    @given(case=staircase_stacks(max_ell=64))
    def test_seed_histogram_equals_induced(self, case):
        """map_seed and the induced law read the cuts by one rule: over seeds 1..ell,
        each row's count of seeds per symbol is ell times its induced law."""
        weights, supports, ell = case
        stack = staircase_map(weights, supports, ell)
        size = weights.shape[-1]
        symbols = stack.map_seed(np.repeat(np.arange(1, ell + 1)[:, None], len(weights), axis=1))
        for r, widths in enumerate(stack.induced_widths(size)):
            assert np.array_equal(np.bincount(symbols[:, r], minlength=size), widths)

    def test_mismatched_stack_is_a_usage_error(self):
        with pytest.raises(UsageError, match="single-axis"):
            staircase_map(np.full((2, 3), 1 / 3), np.array([[0, 1]]), 4)
        with pytest.raises(UsageError, match="repeated"):
            staircase_map(np.full((2, 3), 1 / 3), np.array([[0, 1], [2, 2]]), 4)


@st.composite
def sized_stacks(draw):
    """(weight rows, support rows, ell, support sizes): a staircase_stacks case with one
    size in [1, M] per row; its point-mass and zero-weight rows put trailing zero mass
    in some supports."""
    weights, supports, ell = draw(staircase_stacks())
    m = supports.shape[-1]
    sizes = draw(st.lists(st.integers(1, m), min_size=len(weights), max_size=len(weights)))
    return weights, supports, ell, np.array(sizes, dtype=np.int64)


# two primes under 10**12: k / p snaps back to k / p for k up to about 7,000, so a row
# mixing them has snapped denominators whose lcm is past 2**64
PRIMES = (999_999_999_989, 999_999_999_959)


class TestSupportSizes:
    """staircase_map with per-row support sizes: the tables of each row's first m symbols."""

    @settings(max_examples=300, deadline=None)
    @given(case=sized_stacks())
    @example(case=(np.array([[0.7, 0.3, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0]]),
                   np.array([[0, 1, 2, 3], [2, 0, 1, 3]]), 8, np.array([2, 3])))
    def test_equals_one_call_per_row(self, case):
        weights, supports, ell, sizes = case
        stack = staircase_map(weights, supports, ell, sizes)
        size, m = weights.shape[-1], supports.shape[-1]
        assert stack.cuts.shape == supports.shape[:-1] + (m - 1,)
        for r, (row, support, k) in enumerate(zip(weights, supports, sizes.tolist())):
            one = staircase_map(row, support[:k].tolist(), ell)
            assert stack.cuts[r].tolist() == one.cuts.tolist() + [ell] * (m - k)
            assert_same_table(stack.row(r), one)
            assert np.array_equal(stack.induced_widths(size)[r], one.induced_widths(size))

    def test_trailing_zero_mass_cuts_at_ell(self):
        """Past the support size every position is ell, as is a full-order cut whose
        cumulative reaches the whole mass."""
        weights = np.array([[0.7, 0.3, 0.0, 0.0], [0.3, 0.7, 0.0, 0.0]])
        supports = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
        assert staircase_map(weights, supports, 8, np.array([2, 2])).cuts.tolist() == [[5, 8, 8], [5, 8, 8]]
        assert staircase_map(weights, supports, 8).cuts.tolist() == [[5, 8, 8], [5, 8, 8]]

    def test_sizes_out_of_range_are_a_usage_error(self):
        for sizes in ([0, 2], [1, 4]):
            with pytest.raises(UsageError, match="support sizes"):
                staircase_map(np.full((2, 3), 1 / 3), np.array([[0, 1, 2], [2, 1, 0]]), 4, np.array(sizes))


class TestFloatRowsSnapped:
    """Float pmf rows are snapped at entry, one denominator per row, and cut as integers."""

    @settings(max_examples=200, deadline=None)
    @given(ks=st.lists(st.integers(1, 5000), min_size=1, max_size=5),
           ell=st.sampled_from([7, 2 ** 53 + 1, 2 ** 63 - 1]), data=st.data())
    def test_equals_all_fraction_reference(self, ks, ell, data):
        """Weights k / p snap back to k / p, so the row's denominator is past 2**64 and its
        cuts (ell up to 2**63 - 1) take Python ints."""
        weights = [k / PRIMES[i % 2] for i, k in enumerate(ks)]
        weights = np.array(weights + [1.0 - sum(weights)])
        support = data.draw(st.permutations(range(len(weights))))
        denominators = {Fraction(w).limit_denominator(10 ** 12).denominator for w in weights[:len(ks)]}
        assert denominators == set(PRIMES[:len(ks)])
        table = staircase_map(weights, support, ell)
        assert table.weights.dtype == object
        assert tuple(table.cuts.tolist()) == fraction_staircase(weights, support, ell)["cuts"]

    def test_snapped_is_one_denominator(self):
        numerators = snapped(np.array([[0.3, 0.7], [1 / 3, 2 / 3]]))
        assert numerators.dtype == object and numerators.tolist() == [[9, 21], [10, 20]]
        assert staircase_map(np.array([0.1] * 10), list(range(10)), 3).weights.tolist() == [1] * 10


@st.composite
def integer_stacks(draw):
    """(integer rows (R, size), support rows (R, M), ell): rows whose every cut lands
    exactly on an integer (seed widths scaled up, as dsbs posteriors give), rows with
    zeros, all-zero rows made uniform by codec._flagged, random rows and rows past 2**53;
    ell may fall below the support length, and a stack may be empty."""
    size = draw(st.integers(1, 10))
    m = draw(st.integers(1, size))
    ell = draw(st.one_of(st.integers(1, m), st.integers(1, 4096), st.sampled_from([2 ** 40, 2 ** 62 + 1])))
    rows, supports = [], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["exact", "zeros", "all-zero", "random", "big"]))
        if kind == "exact":
            marks = sorted(draw(st.lists(st.integers(0, ell), min_size=size - 1, max_size=size - 1)))
            scale = draw(st.integers(1, 3 ** 10))
            row = [(hi - lo) * scale for lo, hi in zip([0] + marks, marks + [ell])]
        elif kind == "big":
            row = draw(st.lists(st.integers(0, 2 ** 80), min_size=size, max_size=size))
        else:
            row = draw(st.lists(st.integers(0, 3 ** 12 if kind == "random" else 2), min_size=size, max_size=size))
            if kind == "all-zero":
                row = [0] * size
        rows.append(row)
        supports.append(draw(st.permutations(range(size)))[:m])
    rows = np.array(rows, dtype=object).reshape(-1, size)
    rows = codec._flagged(rows)[0] if len(rows) else rows
    if all(r.sum() <= 2 ** 62 for r in rows) and draw(st.booleans()):
        rows = rows.astype(np.int64)
    return rows, np.array(supports, dtype=np.int64).reshape(-1, m), ell


class TestIntegerCuts:
    """Cuts are ell * S_k // T on the integer rows: the exact floor, with no tolerance."""

    @settings(max_examples=400, deadline=None)
    @given(case=integer_stacks())
    @example(case=(np.array([[3, 1], [1, 3]]), np.array([[0, 1], [1, 0]]), 4))  # dsbs n=1: cuts 3 exactly
    @example(case=(np.array([[0, 0, 0]]), np.array([[0, 1, 2]]), 2))
    def test_equal_fraction_floor_row_by_row(self, case):
        rows, supports, ell = case
        if len(rows) and not (rows.sum(axis=-1) > 0).all():
            with pytest.raises(UsageError, match="positive total"):
                staircase_map(rows, supports, ell)
            return
        stack = staircase_map(rows, supports, ell)
        for r, (row, support) in enumerate(zip(rows, supports)):
            total = sum(row.tolist())
            want = [math.floor(Fraction(ell * cum, total))
                    for cum in itertools.accumulate(int(row[b]) for b in support[:-1])]
            assert stack.cuts[r].tolist() == want
            one = staircase_map(row, support, ell)
            assert_same_table(stack.row(r), one)
            ref = fraction_staircase(row, support.tolist(), ell)
            assert (one.epsilon, one.bound, one.realized_l1) == (ref["epsilon"], ref["bound"], ref["realized_l1"])
        assert_same_table(staircase_map(rows.astype(object), supports, ell), stack)

    def test_python_ints_past_exact_span(self):
        """ell * T past 2**53 runs the same cuts on Python ints."""
        rows = np.array([[3, 1], [1, 3]])
        assert staircase_map(rows, np.array([[0, 1], [1, 0]]), 4).weights.dtype == np.int64
        big = staircase_map(rows, np.array([[0, 1], [1, 0]]), 2 ** 52 + 1)
        assert big.weights.dtype == object and big.cuts.tolist() == [[3 * (2 ** 52 + 1) // 4]] * 2

    @pytest.mark.parametrize("rows", [[[1, -1, 2]], [[0, 0]]], ids=["negative", "zero"])
    def test_bad_integer_rows_are_usage_errors(self, rows):
        with pytest.raises(UsageError, match="staircase"):
            staircase_map(np.array(rows), np.array([[0, 1]]), 4)
