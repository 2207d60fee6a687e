import tracemalloc

import numpy as np
import pytest

from coordline.errors import ResourceCapError, UsageError
from coordline.linestruct import (
    CONSTANT,
    AuxSpec,
    aux_from_tags,
    build_aux_joint,
    copy_of,
    channel_of,
    a_label,
    all_pairs,
    b_label,
    c_label,
    index_sets,
    j_set,
    make_network,
    order_pairs,
    phi,
    phi_bar,
    psi,
    validate_aux,
    x_label,
)
from coordline.probability import divergences, info_measure, marginalize


def dsbs_network(p=0.25):
    w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
    return make_network(2, w)


def indep_bits_network(h):
    w = np.full((2,) * h, 1.0 / 2 ** h)
    return make_network(h, w)


class TestIndexSets:
    def test_h3_pair12(self):
        f, fbar, _, _ = index_sets(3, (1, 2))
        assert f == {(1, 3)}
        assert fbar == {(1, 2), (1, 3)}

    def test_h4_pair23(self):
        assert phi(4, (2, 3)) == {(1, 3), (1, 4), (2, 4)}

    def test_h3_psi2(self):
        assert psi(3, 2) == {(1, 2), (1, 3), (2, 3)}

    def test_phi_of_outermost_is_empty(self):
        assert phi(4, (1, 4)) == set()

    def test_invalid_pair(self):
        with pytest.raises(UsageError):
            phi(3, (2, 2))


class TestOrderPairs:
    def test_h3(self):
        assert order_pairs(3) == [(1, 3), (1, 2), (2, 3)]

    def test_h2(self):
        assert order_pairs(2) == [(1, 2)]

    def test_h4(self):
        assert order_pairs(4) == [(1, 4), (1, 3), (1, 2), (2, 4), (2, 3), (3, 4)]

    def test_pairs_come_after_their_phi(self):
        for h in (2, 3, 4, 5):
            order = order_pairs(h)
            for k, p in enumerate(order):
                for q in phi(h, p):
                    assert order.index(q) < k


class TestJSet:
    def test_h3_single(self):
        assert j_set(3, [(1, 2)]) == {(1, 2)}
        comp = set(all_pairs(3)) - j_set(3, [(1, 2)])
        assert comp == {(1, 3), (2, 3)}

    def test_empty(self):
        assert j_set(3, []) == set()

    def test_contains_outermost_gives_all(self):
        for h in (2, 3, 4):
            assert j_set(h, [(1, h)]) == set(all_pairs(h))

    def test_monotone_and_union(self):
        rng = np.random.default_rng(2)
        pairs = all_pairs(4)
        for _ in range(30):
            s1 = {p for p in pairs if rng.random() < 0.4}
            s2 = {p for p in pairs if rng.random() < 0.4}
            j1, j2 = j_set(4, s1), j_set(4, s2)
            assert j1 <= j_set(4, s1 | s2)
            assert j_set(4, s1 | s2) == j1 | j2


class TestAuxAssembly:
    def test_all_constant_independent_actions_valid(self):
        net = indep_bits_network(3)
        spec = aux_from_tags(net)
        report = validate_aux(spec)
        assert report.ok, report.violations

    def test_h2_equals_action_dsbs_valid(self):
        net = dsbs_network()
        spec = aux_from_tags(net, a_tags={(1, 2): copy_of("X2")})
        report = validate_aux(spec)
        assert report.ok, report.violations
        # marginal check passes and the A marginal matches X2's
        am = marginalize(spec.joint, [a_label((1, 2))])
        assert np.allclose(am.weights, [0.5, 0.5])

    def test_declared_joint_with_forbidden_x1_x3_coupling_flagged(self):
        # constant B's force X1 indep X3 given A13; declare a joint violating it
        net = make_network(3, _copy3_weights())
        defs = {}
        for p in order_pairs(3):
            defs[a_label(p)] = CONSTANT
        for i in (1, 2):
            defs[b_label(i)] = CONSTANT
        for i in (2, 3):
            defs[c_label(i)] = copy_of(x_label(i))
        joint = build_aux_joint(net, defs)
        spec = AuxSpec.from_joint(net, joint)
        report = validate_aux(spec)
        assert not report.ok
        names = [e.name for e in report.violations]
        assert any("reassembly" in n for n in names)
        assert any("declared" in n for n in names)

    def test_markov_b_assignment_valid(self):
        # h=3 chain actions with B_i = Z_i = X_{i+1}: a legal factorization
        net = _bsc_chain_network(3, 0.25)
        spec = aux_from_tags(net, b_tags={1: copy_of("X2"), 2: copy_of("X3")})
        report = validate_aux(spec)
        assert report.ok, report.violations

    def test_noisy_a_with_constant_b_violates_factorization(self):
        # Example-1 restriction: with B constant a noisy A|X2 cannot carry the
        # DSBS correlation, so the declared joint fails reassembly.
        rng = np.random.default_rng(9)
        net = dsbs_network()
        k = rng.dirichlet(np.ones(2), size=2)
        spec = aux_from_tags(net, a_tags={(1, 2): channel_of(["X2"], k, 2)})
        report = validate_aux(spec)
        assert not report.ok
        assert any(e.name == "factorization-reassembly" for e in report.violations)

    def test_reassembly_idempotent_on_valid_spec(self):
        net = _bsc_chain_network(3, 0.25)
        spec1 = aux_from_tags(net, b_tags={1: copy_of("X2"), 2: copy_of("X3")})
        spec2 = AuxSpec.from_joint(net, spec1.joint)
        _, tv = divergences(spec2.joint, spec1.joint)
        assert tv <= 1e-9
        assert validate_aux(spec2).ok

    def test_cap_checked_before_the_joint_is_allocated(self, monkeypatch):
        net = indep_bits_network(2)
        size = 200_000
        defs = {"A1_2": channel_of(["X1"], np.full((2, size), 1.0 / size), size),
                "B1_2": CONSTANT, "C2": copy_of("X2")}
        monkeypatch.setenv("COORDLINE_CAP", "1000")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="aux joint cells: 800000 needed"):
                build_aux_joint(net, defs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the refused 800,000-cell joint would take 6.4 MB
        assert peak < 1_000_000

    def test_pairwise_chain_on_incomparable_pairs(self):
        # random kernels, h=4: validated specs satisfy the pairwise chains
        rng = np.random.default_rng(21)
        net = indep_bits_network(4)
        a_tags = {}
        for p in order_pairs(4):
            given = [a_label(q) for q in sorted(phi(4, p))]
            shape = (2,) * len(given)
            k = rng.dirichlet(np.ones(2), size=shape) if given else rng.dirichlet(np.ones(2))
            a_tags[p] = _aux_channel(given, k)
        spec = aux_from_tags(net, a_tags=a_tags)
        assert validate_aux(spec).ok
        amarg = marginalize(spec.joint, [a_label(p) for p in order_pairs(4)])
        for p in all_pairs(4):
            for q in all_pairs(4):
                if p >= q:
                    continue
                if q in phi_bar(4, p) or p in phi_bar(4, q):
                    continue  # comparable: no chain imposed
                cond = sorted(phi(4, p) & phi(4, q))
                val = info_measure(amarg, [a_label(p)], [a_label(q)],
                                   [a_label(r) for r in cond])
                assert val <= 1e-9, (p, q, val)


def _aux_channel(given, weights):
    arr = np.asarray(weights)
    return ("channel", tuple(given), arr, arr.shape[-1])


def _copy3_weights():
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = 0.5
    w[1, 1, 1] = 0.5
    return w


def _bsc_chain_network(h, p):
    flip = np.array([[1 - p, p], [p, 1 - p]])
    w = np.full(2, 0.5)
    for _ in range(h - 1):
        w = np.einsum("...i,ij->...ij", w, flip)
    return make_network(h, w)
