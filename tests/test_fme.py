import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from coordline.errors import ResourceCapError, UsageError
from coordline import fme
from coordline.fme import LinearSystem, fme_project
from coordline.linestruct import make_network
from coordline.probability import pmf_from_table
from coordline.rates import RatePoint, functional_lifted_system, functional_region_check


def lp_feasible(system: LinearSystem, fixed: dict, free: list[str]) -> bool:
    """Feasibility oracle: does some assignment of `free` satisfy the system
    with the remaining variables pinned to `fixed`?"""
    a_ub, b_ub = [], []
    for coeffs, rhs in system.rows:
        row = []
        const = float(rhs)
        for v, c in zip(system.variables, coeffs):
            if v in free:
                row.append(-float(c))
            else:
                const -= float(c) * fixed[v]
        a_ub.append(row)
        b_ub.append(-const)
    res = linprog(c=np.zeros(len(free)), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=[(None, None)] * len(free), method="highs")
    return res.status == 0


class TestFmeBasics:
    def test_simple_elimination(self):
        sys = LinearSystem.build(["x", "y"], [({"x": 1, "y": 1}, 2), ({"y": -1}, -1)])
        out = fme_project(sys, ["y"])
        assert out.variables == ("x",)
        assert out.contains({"x": 1.0})
        assert not out.contains({"x": 0.99 - 1e-6})

    def test_identity_when_nothing_eliminated(self):
        sys = LinearSystem.build(["x", "y"], [({"x": 1}, 0.5), ({"y": 1}, 0.25)])
        out = fme_project(sys, [])
        assert out.variables == ("x", "y")
        assert out.contains({"x": 0.5, "y": 0.25})
        assert not out.contains({"x": 0.4, "y": 0.25})

    def test_unknown_variable(self):
        sys = LinearSystem.build(["x"], [({"x": 1}, 0)])
        with pytest.raises(UsageError):
            fme_project(sys, ["z"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_input_is_usage_error(self, bad):
        for coeffs, rhs in (({"x": bad}, 0.0), ({"x": 1.0}, bad)):
            with pytest.raises(UsageError, match="must be finite"):
                LinearSystem.build(["x"], [(coeffs, rhs)])

    def test_infeasible_marker_kept(self):
        sys = LinearSystem.build(["x", "y"], [({"y": 1}, 1), ({"y": -1}, 0)])
        out = fme_project(sys, ["y"])
        assert not out.contains({"x": 0.0})

    def test_row_cap(self, monkeypatch):
        rng = np.random.default_rng(0)
        rows = [({"x": float(rng.uniform(-1, 1)), "y": 1.0}, 0.0) for _ in range(40)]
        rows += [({"x": float(rng.uniform(-1, 1)), "y": -1.0}, 0.0) for _ in range(40)]
        sys = LinearSystem.build(["x", "y"], rows)
        monkeypatch.setattr(fme, "ROW_CAP", 10)
        with pytest.raises(ResourceCapError, match="1600 rows, above the row cap of 10"):
            fme_project(sys, ["y"])

    def test_domination_pruning(self):
        sys = LinearSystem.build(
            ["x", "y", "z"],
            [({"x": 1}, 1), ({"x": 2}, 1), ({"y": 1}, 0), ({"z": 1}, 0)])
        out = fme_project(sys, ["z"])
        # x >= 1 dominates x >= 0.5 after the elimination pass
        assert len(out.rows) == 2


class TestFmeAgainstLp:
    def test_random_systems_match_lp(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            nv = 4
            variables = [f"v{i}" for i in range(nv)]
            rows = []
            for _ in range(8):
                coeffs = {v: float(np.round(rng.uniform(-2, 2), 3)) for v in variables}
                rows.append((coeffs, float(np.round(rng.uniform(-1, 1), 3))))
            sys = LinearSystem.build(variables, rows)
            drop = ["v2", "v3"]
            proj = fme_project(sys, drop)
            for _ in range(25):
                pt = {v: float(rng.uniform(-2, 2)) for v in ("v0", "v1")}
                assert proj.contains(pt, tol=1e-7) == lp_feasible(sys, pt, drop), (trial, pt)


class TestFunctionalLiftedSystem:
    def test_h2_projection_matches_region_check(self):
        p = 0.25
        w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
        net = make_network(2, w)
        zw = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                zw[a, b, b] = net.target.weights[a, b]
        zj = pmf_from_table(["X1", "X2", "Z2"], zw)
        sys = functional_lifted_system(net, zj)
        lifted = [v for v in sys.variables if v[0] in "med" or v.startswith("mu")]
        proj = fme_project(sys, lifted)
        assert set(proj.variables) == {"Rc", "R1", "rho1", "rho2"}
        rng = np.random.default_rng(9)
        for _ in range(300):
            pt = {"Rc": rng.uniform(0, 1.6), "R1": rng.uniform(0, 1.2),
                  "rho1": rng.uniform(0, 1.2), "rho2": rng.uniform(0, 1.2)}
            via_fme = proj.contains(pt, tol=1e-7)
            rp = RatePoint(pt["Rc"], (pt["R1"],), (pt["rho1"], pt["rho2"]))
            via_region = functional_region_check(rp, net, zj).passed
            via_lp = lp_feasible(sys, pt, lifted)
            assert via_fme == via_lp, pt
            assert via_fme == via_region, pt


# -- the rational elimination the integer rows must reproduce ---------------


def ref_normalize(coeffs, rhs):
    scale = None
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            break
    if scale is None:
        return coeffs, rhs
    return tuple(c / scale for c in coeffs), rhs / scale


def ref_prune(rows):
    best = {}
    infeasible = []
    for coeffs, rhs in rows:
        coeffs, rhs = ref_normalize(coeffs, rhs)
        if all(c == 0 for c in coeffs):
            if rhs > 0:
                infeasible.append((coeffs, rhs))
            continue
        if coeffs not in best or rhs > best[coeffs]:
            best[coeffs] = rhs
    out = [(c, b) for c, b in best.items()]
    out.sort()
    return infeasible + out


def ref_fme_project(system, eliminate):
    """Fourier-Motzkin on Fraction rows, normalized and pruned after every step."""
    eliminate = list(eliminate)
    for v in eliminate:
        if v not in system.variables:
            raise UsageError(f"unknown variable {v!r}")
    variables = list(system.variables)
    rows = [(tuple(c), r) for c, r in system.rows]
    for var in eliminate:
        k = variables.index(var)
        zero, pos, neg = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[k]
            if c == 0:
                zero.append((coeffs, rhs))
            elif c > 0:
                pos.append((coeffs, rhs))
            else:
                neg.append((coeffs, rhs))
        needed = len(zero) + len(pos) * len(neg)
        if needed > fme.ROW_CAP:
            raise ResourceCapError(f"eliminating {var!r} would generate {needed} rows, "
                                   f"above the row cap of {fme.ROW_CAP}")
        new_rows = [(coeffs[:k] + coeffs[k + 1:], rhs) for coeffs, rhs in zero]
        for pc, pr in pos:
            for nc, nr in neg:
                a, b = pc[k], -nc[k]
                combo = tuple(b * x + a * y for x, y in zip(pc, nc))
                new_rows.append((combo[:k] + combo[k + 1:], b * pr + a * nr))
        variables.pop(k)
        rows = ref_prune(new_rows)
    return LinearSystem(tuple(variables), tuple(rows))


def outcome(project, system, eliminate):
    """The projection, or the type and message of the error it raises."""
    try:
        return project(system, eliminate)
    except (ResourceCapError, UsageError) as exc:
        return type(exc), str(exc)


COEFFS = [-3, -2, -1, 0, 0, 0, 1, 2, 3, 0.5, -1.5, 0.3, -0.7, 1 / 3, 2.25]


@st.composite
def fme_cases(draw):
    """(system, eliminate): small random systems with zero rows, positive
    multiples of earlier rows (repeated directions), rows that cancel into
    0 >= b (infeasible systems), float coefficients and any elimination order,
    empty included."""
    nv = draw(st.integers(1, 5))
    variables = [f"v{i}" for i in range(nv)]
    rhs = st.one_of(st.integers(-3, 3), st.sampled_from([0.25, -0.5, 0.1, 1.7]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "random", "repeat", "opposite", "zero"]))
        if kind in ("repeat", "opposite") and rows:
            coeffs, _ = draw(st.sampled_from(rows))
            factor = draw(st.sampled_from([1, 2, 3, 0.5, 1.5]))
            sign = 1 if kind == "repeat" else -1
            rows.append(([sign * factor * c for c in coeffs], draw(rhs)))
        elif kind == "zero":
            rows.append(([0] * nv, draw(rhs)))
        else:
            rows.append(([draw(st.sampled_from(COEFFS)) for _ in variables], draw(rhs)))
    order = draw(st.permutations(variables))
    eliminate = order[:draw(st.integers(0, min(nv, 4)))]
    return LinearSystem.build(variables, rows), eliminate


def lifted_system(crossovers):
    """The h=3 functional lifted system of a two-hop binary chain, Z_i copying X_i."""
    w = np.full(2, 0.5)
    for p in crossovers:
        w = np.einsum("...i,ij->...ij", w, np.array([[1 - p, p], [p, 1 - p]]))
    net = make_network(3, w)
    zw = np.einsum("abc,bd,ce->abcde", w, np.eye(2), np.eye(2))
    system = functional_lifted_system(net, pmf_from_table(["X1", "X2", "X3", "Z2", "Z3"], zw))
    return system, [v for v in system.variables if v[0] in "med"]


class TestIntegerRowsMatchRationalRows:
    @settings(max_examples=500, deadline=None)
    @given(case=fme_cases())
    @example(case=(LinearSystem.build(["x", "y"], [({"y": 2}, 3), ({"y": -3}, -1)]), ["y"]))
    @example(case=(LinearSystem.build(["x", "y"], [({"x": 0.5, "y": 1}, 1), ({"x": 1.5, "y": 3}, 1),
                                                   ({"y": -2}, 0.25)]), ["y", "x"]))
    @example(case=(LinearSystem.build(["x", "y", "z", "u"], [
        ({"y": 2}, 3), ({"y": -3}, -1), ({"x": 1, "u": 2, "z": 3}, 1), ({"x": -1}, 0),
        ({"u": -2, "z": -3}, 1)]), ["y", "x", "u"]))
    @example(case=(LinearSystem.build(["x"], [({"x": 0}, 1), ({"x": 0}, -1)]), []))
    @example(case=(LinearSystem.build(["x", "y"], [({"x": 1}, 2)]), ["y", "y"]))
    def test_equals_fraction_reference(self, case):
        system, eliminate = case
        got = outcome(fme_project, system, eliminate)
        if len(set(eliminate)) < len(eliminate):
            assert got[0] is UsageError and "eliminated twice" in got[1]
            return
        assert got == outcome(ref_fme_project, system, eliminate)

    def test_empty_elimination_returns_input_rows(self):
        system = LinearSystem.build(["x", "y"], [({"x": 2, "y": -4}, 3), ({}, 1), ({"y": 0.5}, 0)])
        out = fme_project(system, [])
        assert out == system and out.rows == system.rows

    def test_row_cap_count_and_message(self, monkeypatch):
        system, lifted = lifted_system((0.11, 0.23))
        monkeypatch.setattr(fme, "ROW_CAP", 40)
        want = outcome(ref_fme_project, system, lifted[::-1])
        assert want[0] is ResourceCapError
        assert outcome(fme_project, system, lifted[::-1]) == want

    @pytest.mark.parametrize("crossovers", [(0.11, 0.23), (0.31, 0.07), (0.45, 0.45),
                                            (0.05, 0.4), (0.2, 0.2)])
    def test_h3_functional_lifted_system(self, crossovers):
        system, lifted = lifted_system(crossovers)
        got = fme_project(system, lifted[::-1])
        assert got == ref_fme_project(system, lifted[::-1])
        assert all(isinstance(c, Fraction) for row, rhs in got.rows for c in row + (rhs,))


# -- the Fraction elimination the integer rows replaced, kept as a reference ----


def fraction_primitive(coeffs, rhs):
    """The row as (P, R, s): P the primitive integer direction (gcd 1), R the
    rhs of P.x >= R and s the positive scale with coeffs = s * P. An all-zero
    row keeps its rhs as R and has no scale."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    if g == 0:
        return tuple(ints), rhs, None
    scale = Fraction(g, den)
    return tuple(x // g for x in ints), rhs / scale, scale


def fraction_lead(coeffs) -> int:
    return abs(next(c for c in coeffs if c))


def fraction_scale(row) -> Fraction:
    """s of a (P, R, s) row: its input scale, or 1/|first coefficient of P|
    once pruned, the scale of the normalized rational row."""
    return row[2] if row[2] is not None else Fraction(1, fraction_lead(row[0]))


def fraction_fme_project(system, eliminate):
    """Fourier-Motzkin on primitive integer directions with Fraction right-hand
    sides, one Fraction per combined rhs and per output coefficient."""
    eliminate = list(eliminate)
    for i, v in enumerate(eliminate):
        if v not in system.variables:
            raise UsageError(f"unknown variable {v!r}")
        if v in eliminate[:i]:
            raise UsageError(f"variable {v!r} eliminated twice")
    if not eliminate:
        return LinearSystem(system.variables, tuple((tuple(c), r) for c, r in system.rows))
    variables = list(system.variables)
    rows = [fraction_primitive(c, r) for c, r in system.rows]
    for var in eliminate:
        k = variables.index(var)
        zero, pos, neg = [], [], []
        for row in rows:
            c = row[0][k]
            (zero if c == 0 else pos if c > 0 else neg).append(row)
        needed = len(zero) + len(pos) * len(neg)
        if needed > fme.ROW_CAP:
            raise ResourceCapError(f"eliminating {var!r} would generate {needed} rows, "
                                   f"above the row cap of {fme.ROW_CAP}")
        new_rows = [(coeffs[:k] + coeffs[k + 1:], rhs, None) for coeffs, rhs, _ in zero]
        for prow in pos:
            pc, pr = prow[0], prow[1]
            for nrow in neg:
                nc, nr = nrow[0], nrow[1]
                a, b = pc[k], -nc[k]
                combo = [b * x + a * y for x, y in zip(pc, nc)]
                del combo[k]
                new_rows.append((tuple(combo), b * pr + a * nr, (prow, nrow)))
        variables.pop(k)
        rows = fraction_prune(new_rows)
    return LinearSystem(tuple(variables), fraction_rational_rows(rows))


def fraction_prune(new_rows):
    """(P, R, s) rows from (coefficients, rhs, parent rows or None): each
    direction reduced to its primitive P with the largest R, after the rows
    0 >= rhs > 0, whose rhs is scaled as the normalized rational parents
    would have combined it."""
    best = {}
    infeasible = []
    for coeffs, rhs, parents in new_rows:
        g = math.gcd(*coeffs)
        if g == 0:
            if rhs > 0:
                if parents:
                    rhs *= fraction_scale(parents[0]) * fraction_scale(parents[1])
                infeasible.append((coeffs, rhs, None))
            continue
        if g > 1:
            coeffs, rhs = tuple(x // g for x in coeffs), rhs / g
        if coeffs not in best or rhs > best[coeffs]:
            best[coeffs] = rhs
    leads = {p: fraction_lead(p) for p in best}
    common = math.lcm(*leads.values())
    order = sorted(best, key=lambda p: tuple(c * (common // leads[p]) for c in p))
    return infeasible + [(p, best[p], None) for p in order]


def fraction_rational_rows(rows):
    """The (P, R, s) rows as normalized Fraction rows; an all-zero row keeps its rhs."""
    out = []
    for coeffs, rhs, _ in rows:
        lead = fraction_lead(coeffs) if any(coeffs) else 1
        out.append((tuple(Fraction(c, lead) for c in coeffs), rhs / lead))
    return tuple(out)


# integer, dyadic and 1/3-style float coefficients
INTEGER_ROW_COEFFS = [0, 0, 0, 1, -1, 2, -2, 3, -5, 0.5, -0.25, 1.5, -0.125, 1 / 3, -2 / 3, 0.1]


@st.composite
def integer_row_cases(draw):
    """(system, eliminate, row cap): 2-5 variables; rows that are random, positive
    multiples of earlier rows (repeated directions), their negations shifted so that
    the pair combines into 0 >= r > 0, or all zero with a positive or nonpositive rhs;
    any elimination order, often of every variable, and sometimes a row cap low
    enough to stop a step."""
    nv = draw(st.integers(2, 5))
    variables = [f"v{i}" for i in range(nv)]
    rhs = st.sampled_from([0, 1, -1, 2, 0.5, -0.25, 1 / 3, -0.7])
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["random", "random", "random", "repeat", "clash", "zero"]))
        if kind in ("repeat", "clash") and rows:
            coeffs, b = draw(st.sampled_from(rows))
            factor = draw(st.sampled_from([1, 2, 3, 0.5, 1 / 3]))
            if kind == "repeat":
                rows.append(([factor * c for c in coeffs], draw(rhs)))
            else:  # -factor * coeffs >= -factor * b + gap, with gap > 0 making 0 >= r > 0
                rows.append(([-factor * c for c in coeffs], -factor * b + draw(st.sampled_from([0.5, 1, 1 / 3]))))
        elif kind == "zero":
            rows.append(([0] * nv, draw(rhs)))
        else:
            rows.append(([draw(st.sampled_from(INTEGER_ROW_COEFFS)) for _ in variables], draw(rhs)))
    order = draw(st.permutations(variables))
    eliminate = order[:draw(st.sampled_from([nv, nv, 1, max(nv - 1, 1), 2]))]
    cap = draw(st.sampled_from([fme.ROW_CAP] * 4 + [2, 5, 12]))
    return LinearSystem.build(variables, rows), eliminate, cap


def assert_same_projection(got, want):
    """Variables, rows in order and exact types, and the JSON the fme report writes."""
    assert got.variables == want.variables
    assert got.rows == want.rows
    assert [[type(c) for c in coeffs + (rhs,)] for coeffs, rhs in got.rows] == \
        [[type(c) for c in coeffs + (rhs,)] for coeffs, rhs in want.rows]
    assert json.dumps(got.to_dict(), indent=2) == json.dumps(want.to_dict(), indent=2)


class TestIntegerRowsMatchFractionLoop:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=integer_row_cases())
    @example(case=(LinearSystem.build(["x", "y"], [({"x": 1, "y": 2}, 1), ({"x": -2, "y": -4}, -1)]),
                   ["x", "y"], fme.ROW_CAP))
    @example(case=(LinearSystem.build(["x", "y"], [({}, 1), ({}, -1), ({}, 0), ({"x": 1}, 1)]),
                   ["y"], fme.ROW_CAP))
    def test_equals_fraction_loop(self, case):
        system, eliminate, cap = case
        with mock.patch.object(fme, "ROW_CAP", cap):
            got, want = outcome(fme_project, system, eliminate), outcome(fraction_fme_project, system, eliminate)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_projection(got, want)

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(crossovers=st.tuples(*[st.floats(0.01, 0.49).map(lambda p: round(p, 6))] * 2))
    def test_h3_lifted_system_row_for_row(self, crossovers):
        system, lifted = lifted_system(crossovers)
        got = fme_project(system, lifted[::-1])
        assert (len(system.rows), len(got.rows)) == (25, 1253)
        assert_same_projection(got, fraction_fme_project(system, lifted[::-1]))

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(crossovers=st.tuples(*[st.floats(0.01, 0.49).map(lambda p: round(p, 6))] * 2))
    @example(crossovers=(0.11, 0.23))
    def test_h3_lifted_rows_share_one_fraction_per_value(self, crossovers):
        """Coefficients and right-hand sides of equal value are one Fraction object, so
        to_dict formats each value once."""
        system, lifted = lifted_system(crossovers)
        got = fme_project(system, lifted[::-1])
        values = [c for coeffs, rhs in got.rows for c in coeffs + (rhs,)]
        assert len({id(c) for c in values}) == len(set(values))

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(crossovers=st.tuples(*[st.floats(0.01, 0.49).map(lambda p: round(p, 6))] * 2))
    def test_h3_lifted_to_dict_formats_each_coefficient(self, crossovers):
        """to_dict, which formats each shared Fraction object once, writes str() of
        every nonzero coefficient and of every right-hand side."""
        system, lifted = lifted_system(crossovers)
        got = fme_project(system, lifted[::-1])
        assert got.to_dict() == {
            "variables": list(got.variables),
            "rows": [{"coeffs": {v: str(c) for v, c in zip(got.variables, coeffs) if c != 0},
                      "rhs": str(rhs)} for coeffs, rhs in got.rows]}
