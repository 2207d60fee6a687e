import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordline import probability
from coordline.errors import PreconditionError, UsageError, check_cap
from coordline.linestruct import (CONSTANT, a_label, all_pairs, aux_from_tags, channel_of, copy_of, make_network,
                                  order_pairs, phi_bar, x_label)
from coordline.probability import JointPmf, info_measure, pmf_from_table
from coordline.rates import (
    DEFAULT_MARGIN,
    ZERO_TOL,
    CodebookRates,
    Constraint,
    Mode,
    RatePoint,
    RegionReport,
    deterministic_region_check,
    functional_region_check,
    large_cr_region_check,
    markov_region_check,
    rate_transfer,
    resource_map,
    thm1_check,
    thm2_check,
    zero_local_region_check,
)

H2_QUARTER = 0.8112781244591328
MI_DSBS = 1.0 - H2_QUARTER


def dsbs_network(p=0.25):
    w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
    return make_network(2, w)


def dsbs_spec(p=0.25):
    return aux_from_tags(dsbs_network(p), a_tags={(1, 2): copy_of("X2")})


def indep_bits_network(h):
    return make_network(h, np.full((2,) * h, 1.0 / 2 ** h))


def copy_chain_network(h):
    w = np.zeros((2,) * h)
    w[(0,) * h] = 0.5
    w[(1,) * h] = 0.5
    return make_network(h, w)


def bsc_chain_network(h, p):
    flip = np.array([[1 - p, p], [p, 1 - p]])
    w = np.full(2, 0.5)
    for _ in range(h - 1):
        w = np.einsum("...i,ij->...ij", w, flip)
    return make_network(h, w)


def rates_h2(mu_p, mu_m, lam2=0.0, kp=0.0, km=0.0):
    return CodebookRates.for_network(2, mu_plus={(1, 2): mu_p}, mu_minus={(1, 2): mu_m},
                                     kappa_plus={1: kp}, kappa_minus={1: km}, lam={2: lam2})


# ---------------------------------------------------------------------------
# Reference: thm1_check on tuples of pairs, the form the integer masks replace


def ref_thm1_subsets(h):
    """All S subsets of the pair set that exclude (1, h): 2^(P-1) subsets of up to P
    pairs, sized as 2^(P-1) * P cells against the cap before any is built."""
    pairs = all_pairs(h)
    check_cap("thm1 subset-pair cells", 2 ** (len(pairs) - 1) * len(pairs))
    rest = [p for p in pairs if p != (1, h)]
    out = []
    for r in range(len(rest) + 1):
        out.extend(tuple(sorted(c)) for c in itertools.combinations(rest, r))
    return out


def ref_thm1_check(rates, spec, margin=DEFAULT_MARGIN):
    """thm1_check over subsets held as sorted tuples of pairs, each S's complement of
    J_S and each immediate superset found by set operations on the pairs."""
    h = spec.h
    pairs = all_pairs(h)
    x_axes = list(spec.network.x_labels)
    subsets = ref_thm1_subsets(h)
    rest = [p for p in pairs if p != (1, h)]

    # the complement of J_S: the pairs whose phi_bar misses S; many S share one
    covers = [(p, phi_bar(h, p)) for p in pairs]
    by_comp = {}
    rhs_joint, rhs_x1, trivial = {}, {}, set()
    for s in subsets:
        comp = tuple(p for p, cover in covers if cover.isdisjoint(s))
        if comp not in by_comp:
            a_axes = [a_label(p) for p in comp]
            by_comp[comp] = (
                info_measure(spec.joint, x_axes, a_axes) if a_axes else 0.0,
                info_measure(spec.joint, [x_label(1)], a_axes) if a_axes else 0.0,
                # constant auxiliaries need no covering: the margin does not apply
                all(spec.aux_alphabets[a].size == 1 for a in a_axes))
        rhs_joint[s], rhs_x1[s], is_trivial = by_comp[comp]
        if is_trivial:
            trivial.add(s)

    # J_S grows with S, so the rhs never increases along supersets: a superset
    # with an equal rhs exists iff an immediate superset S + {p} has one
    def redundant_in(rhs):
        return {s for s in subsets
                if any(abs(rhs[tuple(sorted(s + (p,)))] - rhs[s]) <= ZERO_TOL
                       for p in rest if p not in s)}

    red_joint = redundant_in(rhs_joint)
    red_x1 = redundant_in(rhs_x1)

    pair_names = {p: f"({p[0]},{p[1]})" for p in pairs}
    constraints = []
    for s in subsets:  # each a sorted tuple, so its name lists the pairs in order
        outside = [p for p in pairs if p not in s]
        lhs_sum = sum(rates.mu_plus[p] + rates.mu_minus[p] for p in outside)
        lhs_plus = sum(rates.mu_plus[p] for p in outside)
        eff_margin = 0.0 if s in trivial else margin
        set_name = "{" + ",".join(pair_names[p] for p in s) + "}"
        constraints.append(Constraint(
            name=f"sum-rate S={set_name}", lhs=lhs_sum,
            rhs=rhs_joint[s] + eff_margin, redundant=s in red_joint,
            vacuous=s in trivial))
        constraints.append(Constraint(
            name=f"plus-rate S={set_name}", lhs=lhs_plus,
            rhs=rhs_x1[s] + eff_margin, redundant=s in red_x1,
            vacuous=s in trivial))
    return RegionReport("thm1", True, tuple(constraints))



@st.composite
def thm1_cases(draw):
    """A random network of h = 2..5 binary nodes, its target with zero cells, each A a
    constant, copy or channel kernel of a drawn action, and random mu+ and mu-:
    (rates, spec, margin)."""
    h = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    target = rng.integers(0, 4, size=(2,) * h).astype(float)
    target[(0,) * h] += 1.0

    def kernel():
        kind, source = draw(st.sampled_from(["constant", "copy", "channel"])), x_label(draw(st.integers(1, h)))
        return {"constant": CONSTANT, "copy": copy_of(source),
                "channel": channel_of([source], rng.dirichlet(np.ones(2), size=2), 2)}[kind]

    spec = aux_from_tags(make_network(h, target / target.sum()), a_tags={p: kernel() for p in order_pairs(h)})
    rate = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0)
    rates = CodebookRates.for_network(h, mu_plus={p: draw(rate) for p in order_pairs(h)},
                                      mu_minus={p: draw(rate) for p in order_pairs(h)})
    return rates, spec, draw(st.sampled_from([0.0, DEFAULT_MARGIN]))


class TestThm1Reference:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=thm1_cases())
    def test_equals_tuple_reference(self, case):
        """thm1_check on integer subset masks reports what the tuple-of-pairs reference
        does, field for field: names, left-hand sums, right-hand sides and flags."""
        rates, spec, margin = case
        assert thm1_check(rates, spec, margin).to_dict() == ref_thm1_check(rates, spec, margin).to_dict()


class TestThm1:
    def test_h2_dsbs_equals_action(self):
        spec = dsbs_spec()
        rep = thm1_check(rates_h2(0.2, 0.82), spec, margin=1e-6)
        by_name = {c.name: c for c in rep.constraints}
        assert by_name["sum-rate S={}"].rhs == pytest.approx(1.0 + 1e-6, abs=1e-9)
        assert by_name["plus-rate S={}"].rhs == pytest.approx(MI_DSBS + 1e-6, abs=1e-9)
        assert rep.passed

    def test_all_constant_trivial(self):
        spec = aux_from_tags(indep_bits_network(3))
        rep = thm1_check(CodebookRates.for_network(3), spec, margin=0.0)
        assert rep.passed
        assert all(c.rhs == pytest.approx(0.0, abs=1e-9) for c in rep.constraints)

    def test_h4_remark_collapse(self):
        # A_{1,4}, A_{2,4}, A_{3,4} copies of actions; others constant
        net = indep_bits_network(4)
        spec = aux_from_tags(net, a_tags={(1, 4): copy_of("X1"), (2, 4): copy_of("X2"),
                                          (3, 4): copy_of("X3")})
        rep = thm1_check(CodebookRates.for_network(4), spec, margin=0.0)
        family = [((1, 3),), ((1, 2), (1, 3)), ((1, 3), (2, 3)), ((1, 2), (1, 3), (2, 3))]
        rows = {c.name: c for c in rep.constraints}
        rhs_vals = [rows[f"sum-rate S={_sname(s)}"].rhs for s in family]
        assert max(rhs_vals) - min(rhs_vals) < 1e-12
        # only the largest S in the equal-RHS family is non-redundant
        flags = [rows[f"sum-rate S={_sname(s)}"].redundant for s in family]
        assert flags == [True, True, True, False]

    def test_redundancy_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        for h in (2, 3, 4):
            net = indep_bits_network(h)
            a_tags = {}
            for p in order_pairs(h):
                if rng.random() < 0.5:
                    a_tags[p] = copy_of(f"X{p[1]}")
            spec = aux_from_tags(net, a_tags=a_tags)
            rep = thm1_check(CodebookRates.for_network(h), spec, margin=0.0)
            _assert_redundancy_bruteforce(rep, spec, h)


class TestEntropyMemo:
    """A joint memoizes its entropies by ordered label tuple; thm1_check at h=5
    asks for 3,072 marginal entropies over 125 distinct label tuples."""

    @staticmethod
    def spec():
        net = bsc_chain_network(5, 0.17)
        return aux_from_tags(net, a_tags={(1, 2): copy_of("X2"), (2, 4): copy_of("X4"),
                                          (1, 5): copy_of("X5")})

    def test_thm1_marginalizes_each_label_tuple_once(self, monkeypatch):
        spec = self.spec()
        calls = []
        summed = probability._summed  # the sum-out that marginalize and _entropy_of share

        def counted(p, keep):
            calls.append(tuple(keep))
            return summed(p, keep)

        monkeypatch.setattr(probability, "_summed", counted)
        thm1_check(CodebookRates.for_network(5), spec)
        assert 0 < len(calls) <= 126
        assert len(set(calls)) == len(calls)
        calls.clear()
        thm1_check(CodebookRates.for_network(5), spec)
        assert calls == []

    def test_report_equals_unmemoized(self, monkeypatch):
        rates = CodebookRates.for_network(5, mu_plus={(1, 2): 0.4}, mu_minus={(2, 4): 0.7})
        memoized = thm1_check(rates, self.spec()).to_dict()
        entropy_of = probability._entropy_of

        def fresh(p, labels):  # every entropy on a fresh copy of the joint, with an empty memo
            return entropy_of(JointPmf(p.axes, p.weights), labels)

        monkeypatch.setattr(probability, "_entropy_of", fresh)
        assert thm1_check(rates, self.spec()).to_dict() == memoized
        assert any(c["rhs"] > 0.1 for c in memoized["constraints"])

    def test_joint_stays_immutable(self):
        joint = self.spec().joint
        info_measure(joint, ["X1"], ["X2"])
        for name in ("axes", "weights", "_entropies", "other"):
            with pytest.raises(AttributeError):
                setattr(joint, name, None)
        with pytest.raises(ValueError):
            joint.weights[(0,) * joint.weights.ndim] = 0.5


def _sname(s):
    return "{" + ",".join(f"({a},{b})" for a, b in sorted(s)) + "}"


def _assert_redundancy_bruteforce(rep, spec, h):
    from coordline.linestruct import a_label, all_pairs, j_set

    rows = {c.name: c for c in rep.constraints}
    subsets = ref_thm1_subsets(h)
    for kind, axes_of in (("sum-rate", "joint"), ("plus-rate", "x1")):
        rhs = {}
        for s in subsets:
            comp = sorted(set(all_pairs(h)) - j_set(h, s))
            a_axes = [a_label(p) for p in comp]
            if not a_axes:
                rhs[s] = 0.0
            elif kind == "sum-rate":
                rhs[s] = info_measure(spec.joint, list(spec.network.x_labels), a_axes)
            else:
                rhs[s] = info_measure(spec.joint, ["X1"], a_axes)
        for s in subsets:
            want = any(set(s2) > set(s) and abs(rhs[s2] - rhs[s]) <= 1e-9
                       for s2 in subsets if s2 != s)
            assert rows[f"{kind} S={_sname(s)}"].redundant == want


class TestThm2:
    def test_b_constant_c_copy_reduces_to_conditional_entropy(self):
        spec = dsbs_spec()
        rep = thm2_check(CodebookRates.for_network(2, lam={2: 0.9}), spec, 2, margin=0.0)
        rows = {c.name: c for c in rep.constraints}
        want = info_measure(spec.joint, ["X2"], (), ["X1", "A1_2"])
        assert rows["kappa+kappa-+lambda_2"].rhs == pytest.approx(want, abs=1e-9)

    def test_all_constant_independent_actions(self):
        net = indep_bits_network(3)
        spec = aux_from_tags(net)
        for i in (2, 3):
            rep = thm2_check(CodebookRates.for_network(3, lam={2: 1.5, 3: 1.5}), spec, i, margin=0.0)
            rows = {c.name: c for c in rep.constraints}
            # conditioning vanishes: threshold is H(X_i) = 1 bit
            assert rows[f"kappa+kappa-+lambda_{i}"].rhs == pytest.approx(1.0, abs=1e-9)
            assert rep.passed

    def test_markov_b_assignment(self):
        net = bsc_chain_network(3, 0.25)
        spec = aux_from_tags(net, b_tags={1: copy_of("X2"), 2: copy_of("X3")})
        mi_12 = info_measure(spec.joint, ["X1", "X2"], ["B1_2"])  # I(X1 X2; Z1), Z1 = X2
        mi_1 = info_measure(net.target, ["X1"], ["X2"])
        rates = CodebookRates.for_network(
            3, kappa_plus={1: mi_12 + 0.01, 2: 2.0}, lam={2: 2.0, 3: 2.0})
        rep = thm2_check(rates, spec, 2, margin=1e-6)
        rows = {c.name: c for c in rep.constraints}
        assert rows["kappa+kappa-_1"].rhs == pytest.approx(mi_12 + 1e-6, abs=1e-9)
        assert rows["kappa+_1"].rhs == pytest.approx(mi_1 + 1e-6, abs=1e-9)


class TestResourceMap:
    def test_h2_functional_example(self):
        spec = dsbs_spec()
        pt = resource_map(rates_h2(0.2, 0.82), Mode.FUNCTIONAL, spec)
        assert pt.rc == pytest.approx(0.82)
        assert pt.r[0] == pytest.approx(0.2)
        assert pt.rho[0] == pytest.approx(0.2 - MI_DSBS, abs=1e-9)
        assert pt.rho[1] == 0.0

    def test_all_zero(self):
        spec = aux_from_tags(indep_bits_network(3))
        pt = resource_map(CodebookRates.for_network(3), Mode.FUNCTIONAL, spec)
        assert pt.rc == 0.0 and all(v == 0.0 for v in pt.r) and all(v == 0.0 for v in pt.rho)

    def test_theorem4_assignment(self):
        # A_{1,i} = X_i with the proof's rate split: decoupled resources
        h = 3
        net = bsc_chain_network(h, 0.25)
        t = net.target
        spec = aux_from_tags(net, a_tags={(1, 2): copy_of("X2"), (1, 3): copy_of("X3")})
        mu_p = {(1, 2): info_measure(t, ["X1"], ["X2"], ["X3"]),
                (1, 3): info_measure(t, ["X1"], ["X3"])}
        mu_m = {(1, 2): info_measure(t, ["X2"], (), ["X3", "X1"]),
                (1, 3): info_measure(t, ["X3"], (), ["X1"])}
        rates = CodebookRates.for_network(h, mu_plus=mu_p, mu_minus=mu_m)
        pt = resource_map(rates, Mode.FUNCTIONAL, spec)
        assert pt.rc == pytest.approx(info_measure(t, ["X2", "X3"], (), ["X1"]), abs=1e-9)
        assert pt.r[0] == pytest.approx(info_measure(t, ["X1"], ["X2", "X3"]), abs=1e-9)
        assert pt.r[1] == pytest.approx(info_measure(t, ["X1"], ["X3"]), abs=1e-9)
        assert all(abs(v) < 1e-9 for v in pt.rho)

    def test_mode_restriction_violation_names_aux(self):
        net = bsc_chain_network(3, 0.25)
        spec = aux_from_tags(net, b_tags={1: copy_of("X2"), 2: copy_of("X3")})
        with pytest.raises(UsageError, match="B1_2"):
            resource_map(CodebookRates.for_network(3), Mode.FUNCTIONAL, spec)


class TestRateTransfer:
    def test_part1_to_common(self):
        pt = RatePoint(0.0, (0.3,), (0.1, 0.5))
        out = rate_transfer(pt, 1, "unrestricted", 2, 0.5)
        assert out.rc == pytest.approx(0.5)
        assert out.rho == (0.1, 0.0)
        assert out.r == (0.3,)

    def test_part2_unrestricted(self):
        pt = RatePoint(0.2, (0.1, 0.2), (0.0, 0.3, 0.4))
        out = rate_transfer(pt, 2, "unrestricted", 3, 0.1)
        assert out.rho == pytest.approx((0.0, 0.4, 0.3))
        assert out.r == pytest.approx((0.1, 0.3))

    def test_part2_action_dependent(self):
        pt = RatePoint(0.2, (0.1, 0.2), (0.0, 0.3, 0.4))
        out = rate_transfer(pt, 2, "action-dependent", 3, 0.1)
        assert out.rho == pytest.approx((0.1, 0.3, 0.3))
        assert out.r == pytest.approx((0.2, 0.3))

    def test_delta_too_large(self):
        pt = RatePoint(0.0, (0.3,), (0.1, 0.5))
        with pytest.raises(UsageError):
            rate_transfer(pt, 1, "unrestricted", 2, 0.6)


def z_copy_joint(net):
    """Z_i = X_i for i >= 2 appended to the target."""
    h = net.h
    t = net.target
    w = t.weights
    for i in range(2, h + 1):
        size = t.sizes[i - 1]
        eye = np.eye(size)
        idx = "abcdefgh"[:w.ndim]
        w = np.einsum(f"{idx},{'abcdefgh'[i - 1]}z->{idx}z", w, eye)
        w = w.reshape(w.shape)
    labels = list(net.x_labels) + [f"Z{i}" for i in range(2, h + 1)]
    return pmf_from_table(labels, w)


class TestFunctionalRegion:
    def test_copy_network_z_copy(self):
        net = copy_chain_network(3)
        zj = z_copy_joint(net)
        good = RatePoint(0.0, (1.0, 1.0), (0.0, 0.0, 0.0))
        rep = functional_region_check(good, net, zj)
        assert rep.passed
        bad = RatePoint(0.0, (0.9, 1.0), (0.0, 0.0, 0.0))
        assert not functional_region_check(bad, net, zj).passed

    def test_constant_z_independent_actions(self):
        net = indep_bits_network(2)
        w = np.einsum("ab,z->abz", net.target.weights, [1.0])
        zj = pmf_from_table(["X1", "X2", "Z2"], w)
        rep = functional_region_check(RatePoint(0.5, (0.0,), (0.6, 0.6)), net, zj)
        rows = {c.name: c for c in rep.constraints}
        assert rows["R_1"].rhs == pytest.approx(0.0, abs=1e-9)
        # Rc + R_i + rho_S >= H(X_S); Rc + rho1 + rho_T >= H(X_T)
        assert rows["Rc+R_1+rho{2}"].rhs == pytest.approx(1.0, abs=1e-9)
        assert rows["Rc+rho1+rho{2}"].rhs == pytest.approx(1.0, abs=1e-9)
        assert rep.passed

    def test_specialization_matches_zero_local_remark(self):
        rng = np.random.default_rng(8)
        net = dsbs_network()
        zj = z_copy_joint(net)
        for _ in range(200):
            pt = RatePoint(rng.uniform(0, 1.5), (rng.uniform(0, 1.5),),
                           (rng.uniform(0, 1.5), 0.0))
            a = functional_region_check(pt, net, zj).passed
            b = zero_local_region_check(pt, net).passed
            assert a == b, pt

    def test_factorization_precondition(self):
        net = dsbs_network()
        # Z2 constant cannot carry the DSBS correlation
        w = np.einsum("ab,z->abz", net.target.weights, [1.0])
        zj = pmf_from_table(["X1", "X2", "Z2"], w)
        with pytest.raises(PreconditionError):
            functional_region_check(RatePoint(1.0, (1.0,), (1.0, 1.0)), net, zj)


class TestLargeCr:
    def test_copy_chain_thresholds(self):
        net = copy_chain_network(3)
        rep = large_cr_region_check(RatePoint(0.5, (1.0, 1.0), (0, 0, 0)), net)
        assert rep.applicable and rep.passed
        rows = {c.name: c for c in rep.constraints}
        assert rows["R_1"].rhs == pytest.approx(1.0)
        assert rows["R_2"].rhs == pytest.approx(1.0)

    def test_independent_actions(self):
        net = indep_bits_network(2)
        rep = large_cr_region_check(RatePoint(1.1, (0.0,), (0, 0)), net)
        assert rep.passed

    def test_dsbs_boundary(self):
        net = dsbs_network()
        rep = large_cr_region_check(RatePoint(0.9, (MI_DSBS + 1e-9,), (0, 0)), net)
        assert rep.applicable and rep.passed
        rep2 = large_cr_region_check(RatePoint(0.9, (MI_DSBS - 1e-6,), (0, 0)), net)
        assert not rep2.passed

    def test_inapplicable(self):
        net = dsbs_network()
        rep = large_cr_region_check(RatePoint(0.5, (1.0,), (0, 0)), net)
        assert not rep.applicable
        assert "inapplicable" in rep.note


def markov_z_joint(net, h):
    """Z_i = X_{i+1} appended to a Markov target."""
    t = net.target
    w = t.weights
    letters = "abcdefgh"
    for i in range(1, h):
        idx = letters[:w.ndim]
        w = np.einsum(f"{idx},{letters[i]}z->{idx}z", w, np.eye(t.sizes[i]))
    labels = list(net.x_labels) + [f"Z{i}" for i in range(1, h)]
    return pmf_from_table(labels, w)


class TestMarkovRegion:
    def test_h3_rhs_match_bruteforce(self):
        net = bsc_chain_network(3, 0.25)
        zj = markov_z_joint(net, 3)
        t = net.target
        big = RatePoint(0.0, (2.0, 2.0), (2.0, 2.0, 2.0))
        rep = markov_region_check(big, net, zj)
        rows = {c.name: c for c in rep.constraints}
        # i=j=1: I(X1,X2; Z1) with Z1=X2 is H(X2)
        assert rows["link i=1,j=1"].rhs == pytest.approx(1.0, abs=1e-9)
        # i=j=2: I(X2,X3; Z2) with Z2=X3 is H(X3) = 1 for the symmetric chain
        assert rows["link i=2,j=2"].rhs == pytest.approx(1.0, abs=1e-9)
        assert rows["link i=1,j=2"].rhs == pytest.approx(
            info_measure(t, ["X2"], (), ["X1"]) + info_measure(t, ["X1"], ["X2"])
            + info_measure(t, ["X3"], (), ["X2"]), abs=1e-9)
        assert rows["link i=1,j=3"].rhs == pytest.approx(
            info_measure(t, ["X2", "X3"], (), ["X1"]) + info_measure(t, ["X1"], ["X2"]), abs=1e-9)
        assert rows["local j=3"].rhs == pytest.approx(
            info_measure(t, ["X2", "X3"], (), ["X1"]), abs=1e-9)
        assert rows["link i=3,j=3"].vacuous
        assert rep.passed

    def test_broken_chain_precondition(self):
        net = dsbs_network()
        # Z1 constant: X1 -o Z1 -o X2 fails for correlated actions
        w = np.einsum("ab,z->abz", net.target.weights, [1.0])
        zj = pmf_from_table(["X1", "X2", "Z1"], w)
        with pytest.raises(PreconditionError, match="Z1"):
            markov_region_check(RatePoint(0.0, (1.0,), (1.0, 1.0)), net, zj)


class TestDeterministicRegion:
    def test_copy_chain(self):
        net = copy_chain_network(3)
        rep = deterministic_region_check(RatePoint(0.0, (1.0, 1.0), (0, 0, 0)), net)
        assert rep.passed
        rows = {c.name: c for c in rep.constraints}
        assert rows["R_1"].rhs == pytest.approx(1.0)
        assert rows["R_2"].rhs == pytest.approx(1.0)

    def test_x3_constant(self):
        w = np.zeros((2, 2, 1))
        w[0, 0, 0] = w[1, 1, 0] = 0.5
        net = make_network(3, w)
        rep = deterministic_region_check(RatePoint(0.0, (1.0, 0.0), (0, 0, 0)), net)
        assert rep.passed
        rows = {c.name: c for c in rep.constraints}
        assert rows["R_2"].rhs == pytest.approx(0.0, abs=1e-9)

    def test_inapplicable_on_random_target(self):
        net = dsbs_network()
        rep = deterministic_region_check(RatePoint(0.0, (1.0,), (0, 0)), net)
        assert not rep.applicable
        assert "inapplicable" in rep.note


class TestMonotonicityAndTransferSoundness:
    def test_region_monotone(self):
        rng = np.random.default_rng(12)
        net = dsbs_network()
        zj = z_copy_joint(net)
        for _ in range(50):
            pt = RatePoint(rng.uniform(0, 2), (rng.uniform(0, 2),),
                           (rng.uniform(0, 2), rng.uniform(0, 2)))
            if functional_region_check(pt, net, zj).passed:
                bigger = RatePoint(pt.rc + 0.1, (pt.r[0] + 0.2,),
                                   (pt.rho[0] + 0.05, pt.rho[1] + 0.3))
                assert functional_region_check(bigger, net, zj).passed

    def test_transfer_preserves_membership(self):
        net = dsbs_network()
        spec = aux_from_tags(net, a_tags={(1, 2): copy_of("X2")})
        zj = z_copy_joint(net)
        rng = np.random.default_rng(30)
        for _ in range(30):
            mu_p = MI_DSBS + rng.uniform(0.0, 0.5)
            mu_m = 1.0 - MI_DSBS + rng.uniform(0.0, 0.5)
            lam2 = rng.uniform(0.0, 0.5)
            pt = resource_map(rates_h2(mu_p, mu_m, lam2=lam2), Mode.FUNCTIONAL, spec)
            pt = RatePoint(pt.rc, pt.r, (pt.rho[0], pt.rho[1] + H2_QUARTER))
            assert functional_region_check(pt, net, zj).passed
            d1 = rng.uniform(0, pt.rho[1])
            moved = rate_transfer(pt, 1, "functional-AD", 2, d1)
            assert functional_region_check(moved, net, zj).passed
            d2 = rng.uniform(0, pt.rho[1])
            moved2 = rate_transfer(pt, 2, "functional-AD", 2, d2)
            assert functional_region_check(moved2, net, zj).passed


class TestUnrestrictedResourceMap:
    def test_markov_assignment_formulas(self):
        net = bsc_chain_network(3, 0.25)
        spec = aux_from_tags(net, b_tags={1: copy_of("X2"), 2: copy_of("X3")})
        rates = CodebookRates.for_network(
            3, kappa_plus={1: 1.2, 2: 1.1}, kappa_minus={1: 0.05, 2: 0.07},
            lam={2: 0.4, 3: 0.3})
        pt = resource_map(rates, Mode.UNRESTRICTED, spec)
        # A's constant: mu sums vanish everywhere
        assert pt.rc == pytest.approx(0.05 + 0.07)
        assert pt.r == pytest.approx((1.2, 1.1))
        # rho_1 = kappa_1+ - I(X1; B_12) with B_12 = X2
        mi1 = info_measure(net.target, ["X1"], ["X2"])
        assert pt.rho[0] == pytest.approx(1.2 - mi1, abs=1e-9)
        # rho_2 = kappa_2+ - I(X2; B_23 | A) + lambda_2
        mi2 = info_measure(net.target, ["X2"], ["X3"])
        assert pt.rho[1] == pytest.approx(1.1 - mi2 + 0.4, abs=1e-9)
        assert pt.rho[2] == pytest.approx(0.3)
