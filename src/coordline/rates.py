"""Analytic rate machinery: codebook-rate constraint checkers, per-mode
resource maps, rate-transfer arguments, and rate-region membership tests.

Checkers implement the strict codebook-rate inequalities as >= with a
caller-supplied positive margin (default 1e-6 bits); region membership tests
use closed inequalities with margin defaulting to 0.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import PreconditionError, UsageError, check_cap
from .linestruct import (
    AuxSpec,
    IndexPair,
    NetworkSpec,
    a_label,
    all_pairs,
    b_label,
    c_label,
    order_pairs,
    phi_bar,
    x_label,
)
from .probability import JointPmf, divergences, info_measure, marginalize

DEFAULT_MARGIN = 1e-6
ZERO_TOL = 1e-9


class Mode(str, Enum):
    FUNCTIONAL = "functional"
    ACTION_DEPENDENT = "action-dependent"
    UNRESTRICTED = "unrestricted"

    @property
    def schedule(self) -> "ModeSchedule":
        return SCHEDULES[self]


@dataclass(frozen=True)
class ModeSchedule:
    """What each hop of a mode ships and which node pays for each selector seed.

    ships_crossing_pairs: hop i ships every m+ pair crossing it (p0 <= i < p1);
        otherwise only m+(1,j) for j > i.
    selects_k: node i selects K+_i from its posterior and hop i ships k+(i);
        otherwise K+ is not selected and every B-codebook is constant.
    node1_pays_k_seeds: node 1 pre-draws the seed of every downstream K+
        selector and ships it down the line; otherwise node i draws its own.
    audits_hops: each hop bundle is checked against the resource map's R_i;
        otherwise only node bits are audited.
    """

    ships_crossing_pairs: bool
    selects_k: bool
    node1_pays_k_seeds: bool
    audits_hops: bool

    def k_seed_payer(self, i: int) -> int:
        """The node charged for the seed of the K+ selector at node i."""
        return 1 if self.node1_pays_k_seeds else i


SCHEDULES = {
    Mode.FUNCTIONAL: ModeSchedule(ships_crossing_pairs=False, selects_k=False,
                                  node1_pays_k_seeds=False, audits_hops=True),
    # the k+ index crossing its own hop is outside the resource map's index
    # convention, so action-dependent hop bundles have no R_i to be audited against
    Mode.ACTION_DEPENDENT: ModeSchedule(ships_crossing_pairs=False, selects_k=True,
                                        node1_pays_k_seeds=True, audits_hops=False),
    Mode.UNRESTRICTED: ModeSchedule(ships_crossing_pairs=True, selects_k=True,
                                    node1_pays_k_seeds=False, audits_hops=True),
}


@dataclass(frozen=True)
class CodebookRates:
    """Per-codebook exponents in bits/symbol: mu (A-pairs), kappa (hops), lam (nodes 2..h)."""

    mu_plus: Mapping[IndexPair, float]
    mu_minus: Mapping[IndexPair, float]
    kappa_plus: Mapping[int, float]
    kappa_minus: Mapping[int, float]
    lam: Mapping[int, float]

    def __post_init__(self):
        for name, coll in (("mu_plus", self.mu_plus), ("mu_minus", self.mu_minus),
                           ("kappa_plus", self.kappa_plus), ("kappa_minus", self.kappa_minus),
                           ("lam", self.lam)):
            for key, v in coll.items():
                if not (math.isfinite(v) and v >= 0.0):
                    raise UsageError(f"{name}[{key}] must be a finite nonnegative rate, got {v}")

    @classmethod
    def for_network(cls, h: int, mu_plus=None, mu_minus=None, kappa_plus=None,
                    kappa_minus=None, lam=None) -> "CodebookRates":
        pairs = all_pairs(h)
        return cls(
            mu_plus={p: float((mu_plus or {}).get(p, 0.0)) for p in pairs},
            mu_minus={p: float((mu_minus or {}).get(p, 0.0)) for p in pairs},
            kappa_plus={i: float((kappa_plus or {}).get(i, 0.0)) for i in range(1, h)},
            kappa_minus={i: float((kappa_minus or {}).get(i, 0.0)) for i in range(1, h)},
            lam={i: float((lam or {}).get(i, 0.0)) for i in range(2, h + 1)},
        )


@dataclass(frozen=True)
class RatePoint:
    """Resource tuple (Rc, R_1..R_{h-1}, rho_1..rho_h), all in bits/symbol."""

    rc: float
    r: tuple[float, ...]
    rho: tuple[float, ...]

    def __post_init__(self):
        vals = (self.rc, *self.r, *self.rho)
        if any(v < -ZERO_TOL or not math.isfinite(v) for v in vals):
            raise UsageError("rate point coordinates must be finite and nonnegative")
        if len(self.rho) != len(self.r) + 1:
            raise UsageError("need h local-randomness rates and h-1 link rates")

    @property
    def h(self) -> int:
        return len(self.rho)

    def to_dict(self):
        return {"Rc": self.rc, "R": list(self.r), "rho": list(self.rho)}


@dataclass(frozen=True)
class Constraint:
    name: str
    lhs: float
    rhs: float
    redundant: bool = False
    vacuous: bool = False

    def __post_init__(self):
        if not math.isfinite(self.slack):
            raise UsageError(f"{self.name}: {self.lhs} - {self.rhs} overflows; a rate or margin is too large")

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.slack >= -ZERO_TOL

    def to_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "passed": self.passed,
                "redundant": self.redundant, "vacuous": self.vacuous}


@dataclass(frozen=True)
class RegionReport:
    kind: str
    applicable: bool
    constraints: tuple[Constraint, ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.applicable and all(c.passed for c in self.constraints)

    def to_dict(self):
        return {"kind": self.kind, "applicable": self.applicable, "passed": self.passed,
                "note": self.note, "constraints": [c.to_dict() for c in self.constraints]}


# ---------------------------------------------------------------------------
# Codebook-rate checkers


def thm1_check(rates: CodebookRates, spec: AuxSpec, margin: float = DEFAULT_MARGIN) -> RegionReport:
    """A-codebook sum-rate constraints over every S not containing (1, h).

    For each S: sum of (mu+ + mu-) outside S must exceed I(X_1..X_h; A over the
    complement of J_S), and the mu+ sum alone must exceed I(X_1; same side).
    Constraints whose right-hand side is matched by a superset S' with a
    smaller left-hand variable set are marked redundant. The 2^(P-1) subsets of
    up to P pairs are sized as 2^(P-1) * P cells against the cap before any is
    built; each is an integer mask whose bit b is the b-th pair other than (1, h).
    """
    h = spec.h
    pairs = all_pairs(h)
    x_axes = list(spec.network.x_labels)
    check_cap("thm1 subset-pair cells", 2 ** (len(pairs) - 1) * len(pairs))
    rest = [p for p in pairs if p != (1, h)]
    bits = {p: 1 << b for b, p in enumerate(rest)}
    subsets = [sum(1 << b for b in c) for r in range(len(rest) + 1)
               for c in itertools.combinations(range(len(rest)), r)]

    # the complement of J_S: the pairs whose phi_bar cover misses S; many S share one
    covers = [(p, sum(bits.get(q, 0) for q in phi_bar(h, p))) for p in pairs]
    by_comp: dict[tuple, tuple[float, float, bool]] = {}
    rhs_joint, rhs_x1, trivial = [0.0] * len(subsets), [0.0] * len(subsets), set()
    for s in subsets:
        comp = tuple(p for p, cover in covers if not cover & s)
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
    def redundant_in(rhs: list) -> set:
        return {s for s in subsets
                if any(abs(rhs[s | bit] - rhs[s]) <= ZERO_TOL for bit in bits.values() if not s & bit)}

    red_joint = redundant_in(rhs_joint)
    red_x1 = redundant_in(rhs_x1)

    pair_names = {p: f"({p[0]},{p[1]})" for p in pairs}
    constraints = []
    for s in subsets:
        outside = [p for p in pairs if not s & bits.get(p, 0)]
        lhs_sum = sum(rates.mu_plus[p] + rates.mu_minus[p] for p in outside)
        lhs_plus = sum(rates.mu_plus[p] for p in outside)
        eff_margin = 0.0 if s in trivial else margin
        set_name = "{" + ",".join(pair_names[p] for p, bit in bits.items() if s & bit) + "}"  # in pair order
        constraints.append(Constraint(
            name=f"sum-rate S={set_name}", lhs=lhs_sum,
            rhs=rhs_joint[s] + eff_margin, redundant=s in red_joint,
            vacuous=s in trivial))
        constraints.append(Constraint(
            name=f"plus-rate S={set_name}", lhs=lhs_plus,
            rhs=rhs_x1[s] + eff_margin, redundant=s in red_x1,
            vacuous=s in trivial))
    return RegionReport("thm1", True, tuple(constraints))


def thm2_check(rates: CodebookRates, spec: AuxSpec, i: int, margin: float = DEFAULT_MARGIN) -> RegionReport:
    """Hop i-1 / node i B- and C-codebook rate constraints (i in 2..h)."""
    h = spec.h
    if not 2 <= i <= h:
        raise UsageError(f"node index i must be in 2..{h}")
    a_axes = [a_label(p) for p in order_pairs(h)]
    xi_1, xi = x_label(i - 1), x_label(i)
    b_ax, c_ax = b_label(i - 1), c_label(i)
    kp = rates.kappa_plus[i - 1]
    km = rates.kappa_minus[i - 1]
    lam = rates.lam[i]
    j = spec.joint
    b_const = spec.aux_alphabets[b_ax].size == 1
    bc_const = b_const and spec.aux_alphabets[c_ax].size == 1
    constraints = (
        Constraint(name=f"kappa+kappa-+lambda_{i}", lhs=kp + km + lam,
                   rhs=info_measure(j, [xi_1, xi], [b_ax, c_ax], a_axes)
                   + (0.0 if bc_const else margin), vacuous=bc_const),
        Constraint(name=f"kappa+kappa-_{i - 1}", lhs=kp + km,
                   rhs=info_measure(j, [xi_1, xi], [b_ax], a_axes)
                   + (0.0 if b_const else margin), vacuous=b_const),
        Constraint(name=f"kappa+_{i - 1}", lhs=kp,
                   rhs=info_measure(j, [xi_1], [b_ax], a_axes)
                   + (0.0 if b_const else margin), vacuous=b_const),
    )
    return RegionReport(f"thm2-node{i}", True, constraints)


def thm2_check_all(rates: CodebookRates, spec: AuxSpec, margin: float = DEFAULT_MARGIN) -> list[RegionReport]:
    return [thm2_check(rates, spec, i, margin) for i in range(2, spec.h + 1)]


# ---------------------------------------------------------------------------
# Mode restrictions and resource maps


def _is_constant(spec: AuxSpec, lbl: str) -> bool:
    return spec.aux_alphabets[lbl].size == 1


def check_mode_restrictions(spec: AuxSpec, rates: CodebookRates, mode: Mode) -> None:
    """Raise UsageError naming the first auxiliary violating the mode's restrictions."""
    h = spec.h
    mode = Mode(mode)
    schedule = mode.schedule
    if not schedule.ships_crossing_pairs:
        # only node 1 ships pairs, so pairs starting further down carry nothing
        for p in all_pairs(h):
            if p[0] > 1:
                if not _is_constant(spec, a_label(p)):
                    raise UsageError(f"{mode.value} mode requires constant {a_label(p)}")
                if rates.mu_plus[p] > 0 or rates.mu_minus[p] > 0:
                    raise UsageError(f"{mode.value} mode requires zero rates on {a_label(p)}")
    if not schedule.selects_k:
        for i in range(1, h):
            if not _is_constant(spec, b_label(i)):
                raise UsageError(f"{mode.value} mode requires constant {b_label(i)}")
            if rates.kappa_plus[i] > 0 or rates.kappa_minus[i] > 0:
                raise UsageError(f"{mode.value} mode requires zero kappa rates on hop {i}")


def node1_selector_rate(spec: AuxSpec, rates: CodebookRates) -> float:
    """Seed rate for selecting the node-1 message indices: sum mu+_{1,j} - I(X1; A_{1,..})."""
    h = spec.h
    a_axes = [a_label((1, j)) for j in range(2, h + 1)]
    return sum(rates.mu_plus[(1, j)] for j in range(2, h + 1)) - info_measure(
        spec.joint, [x_label(1)], a_axes)


def hop_selector_rate(spec: AuxSpec, rates: CodebookRates, i: int) -> float:
    """Seed rate for regenerating K_i+ at node i: kappa_i+ - I(X_i; B_{i,i+1} | all A)."""
    a_axes = [a_label(p) for p in order_pairs(spec.h)]
    return rates.kappa_plus[i] - info_measure(spec.joint, [x_label(i)], [b_label(i)], a_axes)


def resource_map(rates: CodebookRates, mode: Mode, spec: AuxSpec) -> RatePoint:
    """Map codebook rates to the (Rc, R_i, rho_i) resource tuple for a mode.

    Negative intermediate allocations (rates below a selector threshold) are
    floored at zero, since RatePoint coordinates are nonnegative by definition.
    """
    mode = Mode(mode)
    check_mode_restrictions(spec, rates, mode)
    h = spec.h
    pairs = all_pairs(h)

    if mode is Mode.FUNCTIONAL:
        rc = sum(rates.mu_minus[(1, j)] for j in range(2, h + 1))
        r = tuple(sum(rates.mu_plus[(1, j)] for j in range(ell + 1, h + 1))
                  for ell in range(1, h))
        rho1 = max(node1_selector_rate(spec, rates), 0.0)
        rho = (rho1,) + tuple(rates.lam[i] for i in range(2, h + 1))
        return RatePoint(rc, r, rho)

    if mode is Mode.UNRESTRICTED:
        rc = (sum(rates.kappa_minus[i] for i in range(1, h))
              + sum(rates.mu_minus[p] for p in pairs))
        r = tuple(rates.kappa_plus[i] + sum(rates.mu_plus[p] for p in pairs if p[0] <= i < p[1])
                  for i in range(1, h))
        rho = [0.0] * h
        rho[0] = max(sum(rates.mu_plus[(1, j)] for j in range(2, h + 1)) + rates.kappa_plus[1]
                     - info_measure(spec.joint, [x_label(1)],
                                    [a_label((1, j)) for j in range(2, h + 1)] + [b_label(1)]),
                     0.0)
        for ell in range(2, h):
            rho[ell - 1] = (max(hop_selector_rate(spec, rates, ell), 0.0) + rates.lam[ell]
                            + sum(rates.mu_plus[(ell, j)] for j in range(ell + 1, h + 1)))
        rho[h - 1] = rates.lam[h]
        return RatePoint(rc, r, tuple(rho))

    # action-dependent
    rc = (sum(rates.kappa_minus[i] for i in range(1, h))
          + sum(rates.mu_minus[(1, j)] for j in range(2, h + 1)))
    r = []
    for i in range(1, h):
        val = sum(rates.mu_plus[(1, ell)] for ell in range(i + 1, h + 1))
        # kappa terms cover the forwarded selector seeds for downstream hops;
        # kappa_h is undefined so the sum stops at h-1.
        val += sum(max(hop_selector_rate(spec, rates, ell), 0.0) for ell in range(i + 1, h))
        r.append(val)
    rho1 = max(node1_selector_rate(spec, rates), 0.0) + sum(
        max(hop_selector_rate(spec, rates, ell), 0.0) for ell in range(1, h))
    rho = (rho1,) + tuple(rates.lam[i] for i in range(2, h + 1))
    return RatePoint(rc, tuple(r), rho)


# ---------------------------------------------------------------------------
# Rate transfer (lemma part 1: local -> common; part 2: ship downstream)


def rate_transfer(point: RatePoint, lemma: int, mode_family: str, node: int, delta: float) -> RatePoint:
    h = point.h
    if delta < 0:
        raise UsageError("delta must be nonnegative")
    if not 1 <= node <= h:
        raise UsageError(f"node must be in 1..{h}")
    if delta > point.rho[node - 1] + ZERO_TOL:
        raise UsageError(f"delta {delta} exceeds rho_{node} = {point.rho[node - 1]}")
    rho = list(point.rho)
    r = list(point.r)
    if lemma == 1:
        rho[node - 1] -= delta
        return RatePoint(point.rc + delta, tuple(r), tuple(rho))
    if lemma != 2:
        raise UsageError("lemma must be 1 (to common randomness) or 2 (ship downstream)")
    if node == 1:
        raise UsageError("lemma part 2 moves randomness from a node with index > 1")
    if mode_family == "unrestricted":
        rho[node - 1] -= delta
        rho[node - 2] += delta
        r[node - 2] += delta
    elif mode_family in ("functional", "action-dependent", "functional-AD"):
        rho[node - 1] -= delta
        rho[0] += delta
        for k in range(node - 1):
            r[k] += delta
    else:
        raise UsageError(f"unknown mode family {mode_family!r}")
    return RatePoint(point.rc, tuple(r), tuple(rho))


# ---------------------------------------------------------------------------
# Region membership


def _subsets(items: Sequence[int]):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _mi_union(j: JointPmf, a: Sequence[str], b: Sequence[str], c: Sequence[str]) -> float:
    """I(A; B | C) with union semantics, valid when A and B overlap."""
    union = list(a) + [x for x in b if x not in a]
    ha = info_measure(j, list(a), (), list(c))
    hb = info_measure(j, list(b), (), list(c))
    hab = info_measure(j, union, (), list(c))
    return max(ha + hb - hab, 0.0)


def _require_point(point: RatePoint, h: int):
    if point.h != h:
        raise UsageError(f"rate point has h={point.h}, network has h={h}")


def functional_region_check(point: RatePoint, network: NetworkSpec, z_joint: JointPmf,
                            margin: float = 0.0) -> RegionReport:
    """Membership in the functional-mode region for a given auxiliary joint.

    z_joint covers axes X1..Xh, Z2..Zh. Preconditions (raised as
    PreconditionError): the X-marginal equals the target, and the joint factors
    as Q(Z) Q(X1 | Z2..Zh) prod_l Q(Xl | Zl..Zh).
    """
    h = network.h
    _require_point(point, h)
    z_axes = [f"Z{i}" for i in range(2, h + 1)]
    want = set(network.x_labels) | set(z_axes)
    if set(z_joint.labels) != want:
        raise UsageError(f"z_joint must cover axes {sorted(want)}")

    marg = marginalize(z_joint, list(network.x_labels))
    _, tv = divergences(marg, network.target)
    broken = []
    if tv > 1e-9:
        broken.append(f"action marginal differs from target by L1 {tv:.3g}")
    for ell in range(1, h + 1):
        dep = z_axes if ell == 1 else [f"Z{i}" for i in range(ell, h + 1)]
        rest = ([x_label(k) for k in range(1, h + 1) if k != ell]
                + [z for z in z_axes if z not in dep])
        if rest:
            val = info_measure(z_joint, [x_label(ell)], rest, dep)
            if val > 1e-9:
                broken.append(f"X{ell} not independent of rest given {','.join(dep)} (CMI={val:.3g})")
    if broken:
        raise PreconditionError("functional-region factorization failed: " + "; ".join(broken), broken)

    cons = []
    for i in range(1, h):
        z_tail = [f"Z{k}" for k in range(i + 1, h + 1)]
        cons.append(Constraint(
            name=f"R_{i}", lhs=point.r[i - 1],
            rhs=info_measure(z_joint, [x_label(1)], z_tail) + margin))
        mi_all = info_measure(z_joint, list(network.x_labels), z_tail)
        for s in _subsets(list(range(i + 1, h + 1))):
            hx = info_measure(z_joint, [x_label(k) for k in s], (), z_tail) if s else 0.0
            cons.append(Constraint(
                name=f"Rc+R_{i}+rho{{{','.join(map(str, s))}}}",
                lhs=point.rc + point.r[i - 1] + sum(point.rho[k - 1] for k in s),
                rhs=mi_all + hx + margin))
    for t in _subsets(list(range(2, h + 1))):
        rhs = _mi_union(z_joint, [x_label(k) for k in range(2, h + 1)],
                        z_axes + [x_label(k) for k in t], [x_label(1)])
        cons.append(Constraint(
            name=f"Rc+rho1+rho{{{','.join(map(str, t))}}}",
            lhs=point.rc + point.rho[0] + sum(point.rho[k - 1] for k in t),
            rhs=rhs + margin))
    return RegionReport("functional", True, tuple(cons))


def large_cr_region_check(point: RatePoint, network: NetworkSpec) -> RegionReport:
    """Decoupled region valid when common randomness exceeds H(X_2..X_h | X_1)."""
    h = network.h
    _require_point(point, h)
    target = network.target
    hx = info_measure(target, [x_label(k) for k in range(2, h + 1)], (), [x_label(1)])
    if point.rc <= hx + ZERO_TOL:
        return RegionReport("large-cr", False, (),
                            note=f"theorem inapplicable: Rc={point.rc:.6g} <= H(X2..Xh|X1)={hx:.6g}")
    cons = []
    for i in range(1, h):
        rhs = info_measure(target, [x_label(1)], [x_label(k) for k in range(i + 1, h + 1)])
        cons.append(Constraint(name=f"R_{i}", lhs=point.r[i - 1], rhs=rhs))
    for i in range(1, h + 1):
        cons.append(Constraint(name=f"rho_{i}", lhs=point.rho[i - 1], rhs=0.0))
    return RegionReport("large-cr", True, tuple(cons))


def markov_region_check(point: RatePoint, network: NetworkSpec, z_joint: JointPmf,
                        margin: float = 0.0) -> RegionReport:
    """Zero-common-randomness region for Markov-aligned actions.

    z_joint covers X1..Xh and Z1..Z_{h-1}. Preconditions: the target is a line
    Markov chain, the action marginal matches, and the long alternating chain
    X1 - Z1 - X2 - ... - Z_{h-1} - Xh holds. The i=j=h and j=h cases that
    reference nonexistent variables are reported as vacuous with zero RHS.
    """
    h = network.h
    _require_point(point, h)
    z_axes = [f"Z{i}" for i in range(1, h)]
    want = set(network.x_labels) | set(z_axes)
    if set(z_joint.labels) != want:
        raise UsageError(f"z_joint must cover axes {sorted(want)}")

    broken = []
    marg = marginalize(z_joint, list(network.x_labels))
    _, tv = divergences(marg, network.target)
    if tv > 1e-9:
        broken.append(f"action marginal differs from target by L1 {tv:.3g}")
    for k in range(2, h):
        val = info_measure(network.target, [x_label(a) for a in range(1, k)],
                           [x_label(b) for b in range(k + 1, h + 1)], [x_label(k)])
        if val > 1e-9:
            broken.append(f"target not Markov at X{k} (CMI={val:.3g})")
    chain = []
    for i in range(1, h):
        chain += [x_label(i), f"Z{i}"]
    chain.append(x_label(h))
    for k in range(1, len(chain) - 1):
        val = info_measure(z_joint, chain[:k], chain[k + 1:], [chain[k]])
        if val > 1e-9:
            broken.append(f"long chain broken at {chain[k]} (CMI={val:.3g})")
    if broken:
        raise PreconditionError("markov-region preconditions failed: " + "; ".join(broken), broken)

    j = z_joint
    cons = []
    for i in range(1, h + 1):
        for jj in range(i, h + 1):
            lhs = (point.r[i - 1] if i < h else 0.0) + sum(point.rho[k - 1] for k in range(i + 1, jj + 1))
            vacuous = False
            if i == jj < h:
                rhs = info_measure(j, [x_label(i), x_label(i + 1)], [f"Z{i}"])
            elif i < jj < h:
                rhs = (info_measure(j, [x_label(k) for k in range(i + 1, jj + 1)], (), [x_label(i)])
                       + info_measure(j, [x_label(i)], [f"Z{i}"])
                       + info_measure(j, [x_label(jj + 1)], [f"Z{jj}"], [x_label(jj)]))
            elif i < jj == h:
                rhs = (info_measure(j, [x_label(k) for k in range(i + 1, h + 1)], (), [x_label(i)])
                       + info_measure(j, [x_label(i)], [f"Z{i}"]))
            else:  # i == jj == h: I_h, Y_h constant, so the constraint is vacuous
                rhs = 0.0
                vacuous = True
            cons.append(Constraint(name=f"link i={i},j={jj}", lhs=lhs, rhs=rhs + margin,
                                   vacuous=vacuous))
    for jj in range(1, h + 1):
        lhs = sum(point.rho[k - 1] for k in range(1, jj + 1))
        if jj == 1:
            rhs = info_measure(j, [x_label(2)], ["Z1"], [x_label(1)])
        elif jj < h:
            rhs = (info_measure(j, [x_label(k) for k in range(2, jj + 1)], (), [x_label(1)])
                   + info_measure(j, [x_label(jj + 1)], [f"Z{jj}"], [x_label(jj)]))
        else:
            rhs = info_measure(j, [x_label(k) for k in range(2, h + 1)], (), [x_label(1)])
        cons.append(Constraint(name=f"local j={jj}", lhs=lhs, rhs=rhs + margin))
    return RegionReport("markov", True, tuple(cons))


def deterministic_region_check(point: RatePoint, network: NetworkSpec) -> RegionReport:
    """Pure-communication region when all actions are functions of X1."""
    h = network.h
    _require_point(point, h)
    target = network.target
    hx = info_measure(target, [x_label(k) for k in range(2, h + 1)], (), [x_label(1)])
    if hx > ZERO_TOL:
        return RegionReport("deterministic", False, (),
                            note=f"remark inapplicable: H(X2..Xh|X1)={hx:.6g} > 0")
    cons = []
    for ell in range(1, h):
        rhs = info_measure(target, [x_label(k) for k in range(ell + 1, h + 1)])
        cons.append(Constraint(name=f"R_{ell}", lhs=point.r[ell - 1], rhs=rhs))
    return RegionReport("deterministic", True, tuple(cons))


def functional_lifted_system(network: NetworkSpec, z_joint: JointPmf):
    """Pre-elimination inequality system for the functional-mode region.

    Variables are the resource tuple plus the code parameters mu+-_{1,j} and
    the two families of rate-transfer amounts (delta to common randomness,
    eps shipped downstream). Projecting out everything but (Rc, R_i, rho_i)
    yields the closed-form functional region for this auxiliary choice.
    """
    from .fme import LinearSystem

    h = network.h
    z_axes = [f"Z{i}" for i in range(2, h + 1)]
    want = set(network.x_labels) | set(z_axes)
    if set(z_joint.labels) != want:
        raise UsageError(f"z_joint must cover axes {sorted(want)}")

    variables = (["Rc"] + [f"R{i}" for i in range(1, h)] + [f"rho{i}" for i in range(1, h + 1)]
                 + [f"mup{j}" for j in range(2, h + 1)] + [f"mum{j}" for j in range(2, h + 1)]
                 + [f"delta{j}" for j in range(1, h + 1)] + [f"eps{j}" for j in range(2, h + 1)])
    rows: list[tuple[dict, float]] = []

    row = {"Rc": 1.0}
    for j in range(2, h + 1):
        row[f"mum{j}"] = -1.0
    for j in range(1, h + 1):
        row[f"delta{j}"] = -1.0
    rows.append((row, 0.0))

    for i in range(1, h):
        row = {f"R{i}": 1.0}
        for j in range(i + 1, h + 1):
            row[f"mup{j}"] = -1.0
            row[f"eps{j}"] = -1.0
        rows.append((row, 0.0))

    mi1 = info_measure(z_joint, [x_label(1)], z_axes)
    row = {"rho1": 1.0, "delta1": 1.0}
    for j in range(2, h + 1):
        row[f"mup{j}"] = -1.0
        row[f"eps{j}"] = -1.0
    rows.append((row, -mi1))

    for i in range(2, h + 1):
        hx = info_measure(z_joint, [x_label(i)], (), [f"Z{k}" for k in range(i, h + 1)])
        rows.append(({f"rho{i}": 1.0, f"delta{i}": 1.0, f"eps{i}": 1.0}, hx))

    for i in range(2, h + 1):
        tail = [f"Z{k}" for k in range(i, h + 1)]
        rows.append(({f"mup{j}": 1.0 for j in range(i, h + 1)} | {f"mum{j}": 1.0 for j in range(i, h + 1)},
                     info_measure(z_joint, list(network.x_labels), tail)))
        rows.append(({f"mup{j}": 1.0 for j in range(i, h + 1)},
                     info_measure(z_joint, [x_label(1)], tail)))

    for v in variables:
        if v[0] in "mde" or v.startswith("rho") or v.startswith("R"):
            rows.append(({v: 1.0}, 0.0))
    return LinearSystem.build(variables, rows)


def zero_local_region_check(point: RatePoint, network: NetworkSpec) -> RegionReport:
    """Common-randomness/communication trade-off when rho_2..rho_h are zero."""
    h = network.h
    _require_point(point, h)
    if any(v > ZERO_TOL for v in point.rho[1:]):
        return RegionReport("zero-local", False, (),
                            note="remark inapplicable: rho_2..rho_h must be zero")
    target = network.target
    cons = []
    for ell in range(1, h):
        tail = [x_label(k) for k in range(ell + 1, h + 1)]
        cons.append(Constraint(name=f"R_{ell}", lhs=point.r[ell - 1],
                               rhs=info_measure(target, [x_label(1)], tail)))
        cons.append(Constraint(name=f"Rc+R_{ell}", lhs=point.rc + point.r[ell - 1],
                               rhs=info_measure(target, tail)))
    cons.append(Constraint(name="Rc+rho1", lhs=point.rc + point.rho[0],
                           rhs=info_measure(target, [x_label(k) for k in range(2, h + 1)],
                                            (), [x_label(1)])))
    return RegionReport("zero-local", True, tuple(cons))
