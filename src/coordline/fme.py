"""Fourier-Motzkin elimination over exact rationals.

Systems are conjunctions of inequalities a.x >= b. Float inputs are
rationalized with a denominator cap of 10^9 so projection is free of
cancellation artifacts; elimination runs on primitive integer coefficient
rows whose right-hand sides are integer numerator and denominator pairs, and
only the projection is returned as Fraction rows. Membership evaluation
accepts a float tolerance.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ResourceCapError, UsageError

DENOMINATOR_CAP = 10 ** 9
ROW_CAP = 200_000  # rows one elimination step may generate


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    x = float(x)
    if not math.isfinite(x):
        raise UsageError(f"coefficients and right-hand sides must be finite, got {x}")
    return Fraction(x).limit_denominator(DENOMINATOR_CAP)


@dataclass(frozen=True)
class LinearSystem:
    """Inequality system: rows of (coefficients, rhs) meaning coeffs . x >= rhs."""

    variables: tuple[str, ...]
    rows: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise UsageError("duplicate variable names")
        for coeffs, _ in self.rows:
            if len(coeffs) != len(self.variables):
                raise UsageError("row length does not match variable count")

    @classmethod
    def build(cls, variables: Sequence[str], rows: Sequence[tuple[Mapping[str, float] | Sequence[float], float]]) -> "LinearSystem":
        variables = tuple(variables)
        if not all(isinstance(v, str) for v in variables):
            raise UsageError(f"variable names must be strings, got {list(variables)}")
        out = []
        for coeffs, rhs in rows:
            if isinstance(coeffs, Mapping):
                unknown = set(coeffs) - set(variables)
                if unknown:
                    raise UsageError(f"unknown variables in row: {sorted(unknown)}")
                vec = tuple(_rat(coeffs.get(v, 0)) for v in variables)
            else:
                vec = tuple(_rat(c) for c in coeffs)
                if len(vec) != len(variables):
                    raise UsageError("row length does not match variable count")
            out.append((vec, _rat(rhs)))
        return cls(variables, tuple(out))

    def contains(self, point: Mapping[str, float], tol: float = 1e-9) -> bool:
        vals = [float(point.get(v, 0.0)) for v in self.variables]
        for coeffs, rhs in self.rows:
            lhs = sum(float(c) * x for c, x in zip(coeffs, vals))
            if lhs < float(rhs) - tol:
                return False
        return True

    def to_dict(self):
        memo = {}

        def text(c):  # str of each coefficient object once: the rows share Fraction objects
            return memo.get(id(c)) or memo.setdefault(id(c), str(c))

        return {
            "variables": list(self.variables),
            "rows": [{"coeffs": {v: text(c) for v, c in zip(self.variables, coeffs) if c},
                      "rhs": text(rhs)} for coeffs, rhs in self.rows],
        }


def _primitive(coeffs, rhs):
    """The row as (P, n, d, s): P the primitive integer direction (gcd 1), P.x >= n / d
    with d > 0, and s = (g, den) with coeffs = g / den * P; an all-zero row has s None."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    if g == 0:
        return tuple(ints), rhs.numerator, rhs.denominator, None
    return tuple(x // g for x in ints), rhs.numerator * den, rhs.denominator * g, (g, den)


def fme_project(system: LinearSystem, eliminate: Sequence[str]) -> LinearSystem:
    """Project the solution set onto the variables not listed in `eliminate`.

    Sound and complete for the given inequalities. Rows are primitive integer
    directions (divided by their gcd) whose right-hand sides are integer numerator
    and denominator pairs, combined by cross-multiplying. Each step prunes only
    repeated directions, keeping the largest right-hand side, and the rows 0 >= rhs
    with rhs <= 0; no other redundant row is removed. The result holds the rows
    0 >= rhs > 0 in the order they were generated, then the others sorted, each
    normalized to a first nonzero coefficient of +-1, as exact rationals.
    """
    eliminate = list(eliminate)
    for i, v in enumerate(eliminate):
        if v not in system.variables:
            raise UsageError(f"unknown variable {v!r}")
        if v in eliminate[:i]:
            raise UsageError(f"variable {v!r} eliminated twice")
    if not eliminate:
        return LinearSystem(system.variables, tuple((tuple(c), r) for c, r in system.rows))
    variables = list(system.variables)
    rows = [_primitive(c, r) for c, r in system.rows]
    for var in eliminate:
        k = variables.index(var)
        zero, pos, neg = [], [], []
        for p, n, d, s in rows:  # as (|P_k|, P without k, n, d, s)
            (zero if p[k] == 0 else pos if p[k] > 0 else neg).append((abs(p[k]), p[:k] + p[k + 1:], n, d, s))
        needed = len(zero) + len(pos) * len(neg)
        if needed > ROW_CAP:
            raise ResourceCapError(f"eliminating {var!r} would generate {needed} rows, "
                                   f"above the row cap of {ROW_CAP}")
        best, infeasible = {}, [(p, n, d, None) for _, p, n, d, s in zero if not s and n > 0]
        for _, p, n, d, s in zero:  # p is still primitive without its zero at k
            kept = best.get(p)
            if s and (kept is None or n * kept[1] > kept[0] * d):
                best[p] = n, d
        for a, pc, pn, pd, ps in pos:
            for b, nc, nn, nd, ns in neg:
                combo = tuple([b * x + a * y for x, y in zip(pc, nc)])
                num, den = b * pn * nd + a * nn * pd, pd * nd
                g = math.gcd(*combo)
                if g == 0:
                    if num > 0:  # the rhs the normalized rational parents would have combined
                        rhs = Fraction(num, den) * Fraction(*ps) * Fraction(*ns)
                        infeasible.append((combo, rhs.numerator, rhs.denominator, None))
                    continue
                if g > 1:
                    combo, den = tuple([x // g for x in combo]), den * g
                kept = best.get(combo)
                if kept is None or num * kept[1] > kept[0] * den:
                    best[combo] = num, den
        variables.pop(k)
        rows = infeasible + _sorted_rows(best)
    return LinearSystem(tuple(variables), _rational_rows(rows))


def _sorted_rows(best):
    """(P, n, d, (1, |lead|)) rows from {P: (n, d)}, each rhs reduced by its gcd, sorted
    as the normalized rationals P / |lead| are, over a common denominator."""
    leads = {p: abs(next(filter(None, p))) for p in best}
    common = math.lcm(*leads.values())
    out = []
    for p in sorted(best, key=lambda p: tuple(map((common // leads[p]).__mul__, p))):
        g = math.gcd(*best[p])
        out.append((p, best[p][0] // g, best[p][1] // g, (1, leads[p])))
    return out


def _rational_rows(rows):
    """The (P, n, d, s) rows as Fraction rows P / |lead| >= n / (d |lead|), with one
    Fraction object per distinct value, coefficient or rhs; an all-zero row keeps its rhs."""
    values = {}

    @functools.cache
    def fraction(n, d):  # d > 0; keyed by the reduced pair, not by the costlier Fraction hash
        g = math.gcd(n, d)
        return values.setdefault((n // g, d // g), Fraction(n, d))

    return tuple((tuple(map(fraction, p, itertools.repeat(s[1] if s else 1))),
                  fraction(n, d * s[1] if s else d)) for p, n, d, s in rows)
