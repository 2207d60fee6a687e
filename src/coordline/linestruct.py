"""Index-pair combinatorics of the line network and the auxiliary-RV system.

The auxiliary system has one A-variable per node pair (i,j), one B-variable
per hop, and one C-variable per non-source node. An AuxSpec carries the
conditional kernels of the factored joint (A-chain in construction order,
then X1, then per hop: B, C, X) together with the assembled full joint.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ResourceCapError, UsageError, check_cap
from .probability import (
    Alphabet,
    ConditionalKernel,
    JointPmf,
    condition,
    divergences,
    info_measure,
    marginalize,
)

CHAIN_TOL = 1e-9

IndexPair = tuple[int, int]


def all_pairs(h: int) -> list[IndexPair]:
    return [(i, j) for i in range(1, h) for j in range(i + 1, h + 1)]


def _check_pair(h: int, p: IndexPair) -> IndexPair:
    i, j = p
    if not (1 <= i < j <= h):
        raise UsageError(f"invalid index pair {p} for h={h}")
    return (i, j)


def phi(h: int, p: IndexPair) -> set[IndexPair]:
    """Pairs strictly covering (i,j): i' <= i < j <= j', minus (i,j) itself."""
    i, j = _check_pair(h, p)
    return {(a, b) for a in range(1, i + 1) for b in range(j, h + 1) if (a, b) != (i, j)}


def phi_bar(h: int, p: IndexPair) -> set[IndexPair]:
    i, j = _check_pair(h, p)
    return phi(h, p) | {(i, j)}


def psi(h: int, k: int) -> set[IndexPair]:
    """Pairs whose span contains node k."""
    if not 1 <= k <= h:
        raise UsageError(f"node {k} outside 1..{h}")
    return {(a, b) for (a, b) in all_pairs(h) if a <= k <= b}


def index_sets(h: int, p: IndexPair) -> tuple[set[IndexPair], set[IndexPair], set[IndexPair], set[IndexPair]]:
    """(phi, phi_bar, psi(i), psi(j)) for the pair (i, j)."""
    i, j = _check_pair(h, p)
    return phi(h, p), phi_bar(h, p), psi(h, i), psi(h, j)


def order_pairs(h: int) -> list[IndexPair]:
    """Codebook construction order: i ascending, j descending within i."""
    if h < 2:
        raise UsageError("h must be >= 2")
    return sorted(all_pairs(h), key=lambda p: (p[0], -p[1]))


def j_set(h: int, s: Iterable[IndexPair]) -> set[IndexPair]:
    """Pairs whose phi_bar intersects S."""
    s = {_check_pair(h, p) for p in s}
    return {p for p in all_pairs(h) if phi_bar(h, p) & s}


# ---------------------------------------------------------------------------
# Axis labels


def a_label(p: IndexPair) -> str:
    return f"A{p[0]}_{p[1]}"


def b_label(hop: int) -> str:
    return f"B{hop}_{hop + 1}"


def c_label(node: int) -> str:
    return f"C{node}"


def x_label(node: int) -> str:
    return f"X{node}"


# ---------------------------------------------------------------------------
# Network and auxiliary specs


@dataclass(frozen=True)
class NetworkSpec:
    """Line network: node count, per-node action alphabets, and target joint pmf."""

    h: int
    alphabets: tuple[Alphabet, ...]
    target: JointPmf

    def __post_init__(self):
        if self.h < 2:
            raise UsageError("h must be >= 2")
        if len(self.alphabets) != self.h:
            raise UsageError("need one action alphabet per node")
        want = tuple(x_label(i) for i in range(1, self.h + 1))
        if self.target.labels != want:
            raise UsageError(f"target axes must be {want}, got {self.target.labels}")
        if self.target.sizes != tuple(a.size for a in self.alphabets):
            raise UsageError("target sizes do not match alphabets")

    @property
    def x_labels(self) -> tuple[str, ...]:
        return tuple(x_label(i) for i in range(1, self.h + 1))


def make_network(h: int, target_weights) -> NetworkSpec:
    if h < 2:
        raise UsageError("h must be >= 2")
    w = np.asarray(target_weights, dtype=np.float64)
    if w.ndim != h:
        raise UsageError(f"target tensor must have {h} axes")
    alphabets = tuple(Alphabet(x_label(i + 1), w.shape[i]) for i in range(h))
    target = JointPmf([(x_label(i + 1), alphabets[i]) for i in range(h)], w)
    return NetworkSpec(h, alphabets, target)


EINSUM_AXES = 52
"""np.einsum numbers at most 52 axes, so a dense joint has at most this many."""


def _joint_axes(h: int) -> list[str]:
    """The canonical axis order of the dense joint over aux and action axes, which
    joint assembly multiplies kernels into; more than EINSUM_AXES is a cap error."""
    order = AuxSpec.axis_order(h)
    if len(order) > EINSUM_AXES:
        raise ResourceCapError(f"joint assembly: {len(order)} axes needed, above numpy's "
                               f"einsum limit of {EINSUM_AXES}")
    return order


def _extend_joint(weights: np.ndarray, axes: list[tuple[str, Alphabet]],
                  kernel: ConditionalKernel) -> tuple[np.ndarray, list[tuple[str, Alphabet]]]:
    """Multiply a kernel into a joint over a superset of its given axes."""
    pos = {lbl: k for k, (lbl, _) in enumerate(axes)}
    for lbl in kernel.given_labels:
        if lbl not in pos:
            raise UsageError(f"kernel conditions on absent axis {lbl!r}")
    own = list(range(len(axes)))
    out = list(range(len(axes), len(axes) + len(kernel.output_axes)))
    new = np.einsum(weights, own, kernel.weights, [pos[lbl] for lbl in kernel.given_labels] + out, own + out)
    return new, axes + list(kernel.output_axes)


@dataclass(frozen=True)
class AuxSpec:
    """The auxiliary-RV system: kernels of the factored joint plus the assembled joint.

    a_kernels maps each pair to Q(A_ij | A_phi(ij)) in construction order;
    b_kernels[hop] is Q(B | X_hop, A_phibar); c_kernels[node] is
    Q(C | A_psi, B); x_kernels[node] is Q(X1 | A_psi(1)) for node 1 and
    Q(X | A_psi, B, C) otherwise. `declared` keeps the joint the kernels were
    derived from when one was supplied (else the assembled joint).
    """

    network: NetworkSpec
    aux_alphabets: Mapping[str, Alphabet]
    a_kernels: Mapping[IndexPair, ConditionalKernel]
    b_kernels: Mapping[int, ConditionalKernel]
    c_kernels: Mapping[int, ConditionalKernel]
    x_kernels: Mapping[int, ConditionalKernel]
    joint: JointPmf = field(compare=False)
    declared: JointPmf = field(compare=False)

    @property
    def h(self) -> int:
        return self.network.h

    @functools.cached_property
    def piecing_kernels(self) -> tuple[ConditionalKernel, dict[int, ConditionalKernel]]:
        """The kernels the piecing identity reads, built once per spec: Q(X1 | every A) and,
        per hop j, Q(X_{j-1}, X_j | every A, B_{j-1}, C_j)."""
        a_axes = [a_label(p) for p in order_pairs(self.h)]
        return condition(self.joint, a_axes, [x_label(1)]), {
            j: condition(self.joint, a_axes + [b_label(j - 1), c_label(j)], [x_label(j - 1), x_label(j)])
            for j in range(2, self.h + 1)}

    @staticmethod
    def axis_order(h: int) -> list[str]:
        order = [a_label(p) for p in order_pairs(h)]
        order += [b_label(i) for i in range(1, h)]
        order += [c_label(i) for i in range(2, h + 1)]
        order += [x_label(i) for i in range(1, h + 1)]
        return order

    @classmethod
    def from_joint(cls, network: NetworkSpec, joint: JointPmf) -> "AuxSpec":
        """Derive the factored kernels from a full joint over aux + action axes."""
        h = network.h
        want = set(cls.axis_order(h))
        if set(joint.labels) != want:
            missing = sorted(want - set(joint.labels))
            raise UsageError(f"joint must cover all aux and action axes; missing {missing}")
        aux_alphabets = {lbl: joint.alphabet(lbl) for lbl in joint.labels if not lbl.startswith("X")}
        for i in range(1, h + 1):
            if joint.alphabet(x_label(i)).size != network.alphabets[i - 1].size:
                raise UsageError(f"joint X{i} alphabet does not match network")

        a_kernels, b_kernels, c_kernels, x_kernels = {}, {}, {}, {}
        for p in order_pairs(h):
            a_kernels[p] = condition(joint, [a_label(q) for q in sorted(phi(h, p))], [a_label(p)])
        for i in range(1, h):
            b_kernels[i] = condition(joint, [x_label(i)] + [a_label(q) for q in sorted(phi_bar(h, (i, i + 1)))],
                                     [b_label(i)])
        for i in range(2, h + 1):
            c_kernels[i] = condition(joint, [a_label(q) for q in sorted(psi(h, i))] + [b_label(i - 1)],
                                     [c_label(i)])
        x_kernels[1] = condition(joint, [a_label(q) for q in sorted(psi(h, 1))], [x_label(1)])
        for i in range(2, h + 1):
            x_kernels[i] = condition(joint, [a_label(q) for q in sorted(psi(h, i))] + [b_label(i - 1), c_label(i)],
                                     [x_label(i)])
        assembled = _assemble(network, aux_alphabets, a_kernels, b_kernels, c_kernels, x_kernels)
        declared = marginalize(joint, cls.axis_order(h))
        return cls(network, aux_alphabets, a_kernels, b_kernels, c_kernels, x_kernels,
                   joint=assembled, declared=declared)


def _assemble(network, aux_alphabets, a_kernels, b_kernels, c_kernels, x_kernels) -> JointPmf:
    """Multiply the kernels in construction order into the full joint."""
    h = network.h
    order = _joint_axes(h)
    check_cap("assembled joint cells",
              math.prod(a.size for a in [*aux_alphabets.values(), *network.alphabets]))

    kernels = [a_kernels[p] for p in order_pairs(h)] + [x_kernels[1]]
    for hop in range(1, h):
        kernels += [b_kernels[hop], c_kernels[hop + 1], x_kernels[hop + 1]]
    weights, axes = np.array(1.0), []
    for ker in kernels:
        weights, axes = _extend_joint(weights, axes, ker)
    return marginalize(JointPmf(axes, weights, normalize=True), order)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class CheckEntry:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "value": self.value, "threshold": self.threshold,
                "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def violations(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def to_dict(self):
        return {"ok": self.ok, "checks": [e.to_dict() for e in self.entries]}


def _distributed_generation_entries(spec_joint: JointPmf, h: int, tag: str) -> list[CheckEntry]:
    """Per-node chains: X_i independent of all other actions, A's, and B's given
    (A_psi(i), B_{i-1,i}, B_{i,i+1})."""
    entries = []
    a_labels = [a_label(p) for p in order_pairs(h)]
    b_labels = [b_label(i) for i in range(1, h)]
    for i in range(1, h + 1):
        cond = [a_label(q) for q in sorted(psi(h, i))]
        if i > 1:
            cond.append(b_label(i - 1))
        if i < h:
            cond.append(b_label(i))
        rest = ([x_label(k) for k in range(1, h + 1) if k != i]
                + [l for l in a_labels if l not in cond]
                + [l for l in b_labels if l not in cond])
        value = info_measure(spec_joint, [x_label(i)], rest, cond)
        entries.append(CheckEntry(
            name=f"{tag}:X{i}-given-neighborhood",
            value=value, threshold=CHAIN_TOL, passed=value <= CHAIN_TOL,
            detail=f"I(X{i}; rest | {','.join(cond)})"))
    return entries


def validate_aux(spec: AuxSpec) -> ValidationReport:
    """Structural validation of an AuxSpec.

    Checks (a) the ordered Markov property of the A-variables (each A_ij is
    conditionally independent of earlier-constructed A's given A_phi(ij)),
    (b) that the factored kernels reassemble the declared joint, (c) that the
    action marginal equals the network target, and (d) the per-node
    distributed-generation chains (each action independent of everything else
    given its node's visible auxiliaries). When a declared joint was supplied
    and differs from the assembly, the (a)/(d) chains are also evaluated on
    the declared joint so the offending chain is named.
    """
    h = spec.h
    entries: list[CheckEntry] = []

    def a_chain_entries(joint: JointPmf, tag: str) -> list[CheckEntry]:
        out = []
        amarg = marginalize(joint, [a_label(p) for p in order_pairs(h)])
        seen: list[IndexPair] = []
        for p in order_pairs(h):
            cond = sorted(phi(h, p))
            others = [q for q in seen if q not in phi(h, p)]
            if others:
                value = info_measure(amarg, [a_label(p)], [a_label(q) for q in others],
                                     [a_label(q) for q in cond])
            else:
                value = 0.0
            out.append(CheckEntry(
                name=f"{tag}:A{p[0]},{p[1]}-markov",
                value=value, threshold=CHAIN_TOL, passed=value <= CHAIN_TOL,
                detail=f"I(A{p}; earlier non-parents | A_phi{p})"))
            seen.append(p)
        return out

    entries += a_chain_entries(spec.joint, "aux-chain")

    kl, tv = divergences(spec.declared, spec.joint)
    entries.append(CheckEntry(
        name="factorization-reassembly", value=tv, threshold=CHAIN_TOL, passed=tv <= CHAIN_TOL,
        detail="L1 between declared joint and kernel reassembly"))

    action_marg = marginalize(spec.joint, list(spec.network.x_labels))
    _, tv_m = divergences(action_marg, spec.network.target)
    entries.append(CheckEntry(
        name="target-marginal", value=tv_m, threshold=CHAIN_TOL, passed=tv_m <= CHAIN_TOL,
        detail="L1 between assembled action marginal and target"))

    entries += _distributed_generation_entries(spec.joint, h, "distributed-gen")

    if tv > CHAIN_TOL:
        entries += a_chain_entries(spec.declared, "declared-aux-chain")
        entries += _distributed_generation_entries(spec.declared, h, "declared-distributed-gen")

    return ValidationReport(tuple(entries))


# ---------------------------------------------------------------------------
# Builders for common auxiliary assignments


CONSTANT = ("constant",)


def copy_of(label: str):
    return ("copy", label)


def channel_of(given: Sequence[str], weights, size: int):
    return ("channel", tuple(given), np.asarray(weights, dtype=np.float64), int(size))


def build_aux_joint(network: NetworkSpec, defs: Mapping[str, tuple]) -> JointPmf:
    """Full joint over actions + auxiliaries from per-auxiliary definitions.

    Each def is CONSTANT, copy_of(existing axis), or channel_of(given axes,
    kernel weights with given axes first, output size). Definitions are applied
    in AuxSpec axis order after the target, so a def may reference the actions
    and any earlier-defined auxiliary.
    """
    order = _joint_axes(network.h)
    weights = network.target.weights
    axes = list(network.target.axes)
    alphabets = dict(axes)

    aux_order = [l for l in order if l not in alphabets]
    missing = [l for l in aux_order if l not in defs]
    if missing:
        raise UsageError(f"missing definitions for {missing}")

    for lbl in aux_order:
        spec = defs[lbl]
        kind = spec[0]
        if kind == "constant":
            alph = Alphabet(lbl, 1)
            ker = ConditionalKernel([], [(lbl, alph)], np.ones(1), np.zeros((), dtype=bool))
        elif kind == "copy":
            src = spec[1]
            if src not in alphabets:
                raise UsageError(f"{lbl}: copy source {src!r} not yet defined")
            size = alphabets[src].size
            alph = Alphabet(lbl, size)
            eye = np.eye(size)
            ker = ConditionalKernel([(src, alphabets[src])], [(lbl, alph)], eye,
                                    np.zeros(size, dtype=bool))
        elif kind == "channel":
            _, given, kweights, size = spec
            for g in given:
                if g not in alphabets:
                    raise UsageError(f"{lbl}: channel input {g!r} not yet defined")
            alph = Alphabet(lbl, size)
            g_axes = [(g, alphabets[g]) for g in given]
            deg = np.zeros(tuple(alphabets[g].size for g in given), dtype=bool)
            ker = ConditionalKernel(g_axes, [(lbl, alph)], kweights, deg)
        else:
            raise UsageError(f"unknown aux definition kind {kind!r}")
        alphabets[lbl] = alph
        check_cap("aux joint cells", weights.size * alph.size)
        weights, axes = _extend_joint(weights, axes, ker)
    return marginalize(JointPmf(axes, weights, normalize=True), order)


def aux_from_tags(network: NetworkSpec, a_tags: Mapping[IndexPair, tuple] | None = None,
                  b_tags: Mapping[int, tuple] | None = None,
                  c_tags: Mapping[int, tuple] | None = None) -> AuxSpec:
    """AuxSpec from per-RV tags; anything unspecified defaults to constant,
    except the C's which default to copies of their node's action."""
    h = network.h
    defs: dict[str, tuple] = {}
    a_tags = a_tags or {}
    b_tags = b_tags or {}
    c_tags = c_tags or {}
    for p in order_pairs(h):
        defs[a_label(p)] = a_tags.get(p, CONSTANT)
    for i in range(1, h):
        defs[b_label(i)] = b_tags.get(i, CONSTANT)
    for i in range(2, h + 1):
        defs[c_label(i)] = c_tags.get(i, copy_of(x_label(i)))
    return AuxSpec.from_joint(network, build_aux_joint(network, defs))
