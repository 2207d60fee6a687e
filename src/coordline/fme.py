"""Fourier-Motzkin elimination over exact rationals.

Systems are conjunctions of inequalities a.x >= b. Float inputs are
rationalized with a denominator cap of 10^9 so projection is free of
cancellation artifacts; membership evaluation accepts a float tolerance.
"""
from __future__ import annotations

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
    return Fraction(float(x)).limit_denominator(DENOMINATOR_CAP)


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


def _normalize(coeffs: tuple[Fraction, ...], rhs: Fraction):
    scale = None
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            break
    if scale is None:
        return coeffs, rhs
    return tuple(c / scale for c in coeffs), rhs / scale


def _prune(rows):
    """Drop trivial rows and rows dominated by an identical-direction row."""
    best: dict[tuple, Fraction] = {}
    infeasible = []
    for coeffs, rhs in rows:
        coeffs, rhs = _normalize(coeffs, rhs)
        if all(c == 0 for c in coeffs):
            if rhs > 0:
                infeasible.append((coeffs, rhs))
            continue
        if coeffs not in best or rhs > best[coeffs]:
            best[coeffs] = rhs
    out = [(c, b) for c, b in best.items()]
    out.sort()
    return infeasible + out


def fme_project(system: LinearSystem, eliminate: Sequence[str]) -> LinearSystem:
    """Project the solution set onto the variables not listed in `eliminate`.

    Sound and complete for the given inequalities; rows redundant under
    pairwise domination are pruned after every elimination step.
    """
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
        if needed > ROW_CAP:
            raise ResourceCapError(f"eliminating {var!r} would generate {needed} rows, "
                                   f"above the row cap of {ROW_CAP}")
        new_rows = [(_drop(coeffs, k), rhs) for coeffs, rhs in zero]
        for pc, pr in pos:
            for nc, nr in neg:
                a, b = pc[k], -nc[k]
                combo = tuple(b * x + a * y for x, y in zip(pc, nc))
                new_rows.append((_drop(combo, k), b * pr + a * nr))
        variables.pop(k)
        rows = _prune(new_rows)
    return LinearSystem(tuple(variables), tuple(rows))


def _drop(coeffs, k):
    return coeffs[:k] + coeffs[k + 1:]
