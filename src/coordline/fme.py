"""Fourier-Motzkin elimination over exact rationals.

Systems are conjunctions of inequalities a.x >= b. Float inputs are
rationalized with a denominator cap of 10^9 so projection is free of
cancellation artifacts; elimination runs on primitive integer coefficient
rows with Fraction right-hand sides. Membership evaluation accepts a float
tolerance.
"""
from __future__ import annotations

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
        return {
            "variables": list(self.variables),
            "rows": [{"coeffs": {v: str(c) for v, c in zip(self.variables, coeffs) if c != 0},
                      "rhs": str(rhs)} for coeffs, rhs in self.rows],
        }


def _primitive(coeffs, rhs):
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


def _lead(coeffs) -> int:
    return abs(next(c for c in coeffs if c))


def _scale(row) -> Fraction:
    """s of a (P, R, s) row: its input scale, or 1/|first coefficient of P|
    once pruned, the scale of the normalized rational row."""
    return row[2] if row[2] is not None else Fraction(1, _lead(row[0]))


def fme_project(system: LinearSystem, eliminate: Sequence[str]) -> LinearSystem:
    """Project the solution set onto the variables not listed in `eliminate`.

    Sound and complete for the given inequalities; rows redundant under
    pairwise domination are pruned after every elimination step. Rows are
    combined and deduplicated as primitive integer directions with exact
    rational right-hand sides. The result holds the rows 0 >= rhs > 0 in the
    order they were generated, then the others sorted, each normalized to a
    first nonzero coefficient of +-1.
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
        for row in rows:
            c = row[0][k]
            (zero if c == 0 else pos if c > 0 else neg).append(row)
        needed = len(zero) + len(pos) * len(neg)
        if needed > ROW_CAP:
            raise ResourceCapError(f"eliminating {var!r} would generate {needed} rows, "
                                   f"above the row cap of {ROW_CAP}")
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
        rows = _prune(new_rows)
    return LinearSystem(tuple(variables), _rational_rows(rows))


def _prune(new_rows):
    """(P, R, s) rows from (coefficients, rhs, parent rows or None): each
    direction reduced to its primitive P with the largest R, after the rows
    0 >= rhs > 0, whose rhs is scaled as the normalized rational parents
    would have combined it."""
    best: dict[tuple, Fraction] = {}
    infeasible = []
    for coeffs, rhs, parents in new_rows:
        g = math.gcd(*coeffs)
        if g == 0:
            if rhs > 0:
                if parents:
                    rhs *= _scale(parents[0]) * _scale(parents[1])
                infeasible.append((coeffs, rhs, None))
            continue
        if g > 1:
            coeffs, rhs = tuple(x // g for x in coeffs), rhs / g
        if coeffs not in best or rhs > best[coeffs]:
            best[coeffs] = rhs
    # sorted as the normalized rationals P / |lead| are, over a common denominator
    leads = {p: _lead(p) for p in best}
    common = math.lcm(*leads.values())
    order = sorted(best, key=lambda p: tuple(c * (common // leads[p]) for c in p))
    return infeasible + [(p, best[p], None) for p in order]


def _rational_rows(rows):
    """The (P, R, s) rows as normalized Fraction rows; an all-zero row keeps its rhs."""
    out = []
    for coeffs, rhs, _ in rows:
        lead = _lead(coeffs) if any(coeffs) else 1
        out.append((tuple(Fraction(c, lead) for c in coeffs), rhs / lead))
    return tuple(out)
