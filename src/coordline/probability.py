"""Finite-alphabet probability tensors and information measures.

All distributions are dense float64 tensors over labeled product alphabets.
Logarithms are base 2 throughout; entropies, mutual informations, and KL
divergences are in bits, with the 0*log(0) = 0 convention.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import UsageError, check_cap

MASS_TOL = 1e-9
KERNEL_TOL = 1e-7 + 1e-5
"""How far each given-slice of a kernel may sum from 1: the bound of np.allclose(sums, 1,
atol=1e-7), whose default rtol adds 1e-5, so that exactly the same kernels are accepted."""


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet with dense symbol indices 0..size-1."""

    name: str
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise UsageError(f"alphabet {self.name!r} must have size >= 1, got {self.size}")


class JointPmf:
    """A joint pmf over an ordered list of labeled finite axes.

    Weights are nonnegative and sum to 1 within MASS_TOL; inputs outside the
    tolerance are rejected unless normalize=True is passed explicitly.
    Instances are immutable after construction, so each keeps a private memo
    of the entropies computed from it, keyed by ordered label tuple.
    """

    __slots__ = ("axes", "weights", "_entropies", "_positions")

    def __init__(self, axes: Sequence[tuple[str, Alphabet]], weights: np.ndarray, *, normalize: bool = False):
        axes = tuple((str(lbl), alph) for lbl, alph in axes)
        labels = [lbl for lbl, _ in axes]
        if len(set(labels)) != len(labels):
            raise UsageError(f"duplicate axis labels: {labels}")
        w = np.asarray(weights, dtype=np.float64)
        expected = tuple(alph.size for _, alph in axes)
        if w.shape != expected:
            raise UsageError(f"weight shape {w.shape} does not match alphabet sizes {expected}")
        w = pmf_weights(w, normalize=normalize)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_entropies", {})
        object.__setattr__(self, "_positions", {lbl: k for k, lbl in enumerate(labels)})

    def __setattr__(self, *_):
        raise AttributeError("JointPmf is immutable")

    # -- axis helpers -------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.axes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(alph.size for _, alph in self.axes)

    def axis_pos(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise UsageError(f"unknown axis label {label!r}; have {self.labels}") from None

    def alphabet(self, label: str) -> Alphabet:
        return self.axes[self.axis_pos(label)][1]

    def __repr__(self):
        return f"JointPmf(axes={self.labels}, sizes={self.sizes})"


def pmf_weights(weights, *, normalize: bool = False) -> np.ndarray:
    """Weights as a JointPmf holds them: float64, read-only, clipped at 0 after
    rejecting mass below -MASS_TOL, and summing to 1 within MASS_TOL; with
    normalize=True a total outside the tolerance is divided out."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < -MASS_TOL):
        raise UsageError("negative probability mass")
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if not math.isfinite(total):
        raise UsageError("probability mass must be finite")
    if abs(total - 1.0) > MASS_TOL:
        if not normalize:
            raise UsageError(f"probability mass must sum to 1 within {MASS_TOL}, got total {total!r}")
        if total <= 0.0:
            raise UsageError("cannot normalize zero-mass tensor")
        w = w / total
    w = np.ascontiguousarray(w)
    w.setflags(write=False)
    return w


class ConditionalKernel:
    """Conditional pmf tensor: given-axes first, then output-axes.

    Every given-slice sums to 1. Slices whose condition had zero probability
    in the source joint are permitted; they are set to uniform and flagged in
    the boolean `degenerate` mask (indexed over the given-axes lattice).
    """

    __slots__ = ("given_axes", "output_axes", "weights", "degenerate")

    def __init__(self, given_axes, output_axes, weights, degenerate):
        given_axes = tuple(given_axes)
        output_axes = tuple(output_axes)
        w = np.asarray(weights, dtype=np.float64)
        g_shape = tuple(a.size for _, a in given_axes)
        o_shape = tuple(a.size for _, a in output_axes)
        if w.shape != g_shape + o_shape:
            axes = [lbl for lbl, _ in given_axes + output_axes]
            raise UsageError(f"{', '.join(axes[len(given_axes):])}: kernel weights have shape {w.shape}, "
                             f"expected {g_shape + o_shape} over ({', '.join(axes)})")
        sums = w.reshape(g_shape + (-1,)).sum(axis=-1) if o_shape else w
        if not (np.abs(sums - 1.0) <= KERNEL_TOL).all():  # NaN and inf fail too
            raise UsageError("conditional slices must each sum to 1")
        deg = np.asarray(degenerate, dtype=bool)
        if deg.shape != g_shape:
            raise UsageError("degenerate mask shape mismatch")
        w = np.ascontiguousarray(w)
        w.setflags(write=False)
        deg.setflags(write=False)
        object.__setattr__(self, "given_axes", given_axes)
        object.__setattr__(self, "output_axes", output_axes)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "degenerate", deg)

    def __setattr__(self, *_):
        raise AttributeError("ConditionalKernel is immutable")

    @property
    def given_labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.given_axes)

    @property
    def output_labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.output_axes)

    def __repr__(self):
        return f"ConditionalKernel({self.output_labels} | {self.given_labels})"


# ---------------------------------------------------------------------------
# Constructors


def pmf_from_table(labels: Sequence[str], weights, *, normalize: bool = False) -> JointPmf:
    w = np.asarray(weights, dtype=np.float64)
    return JointPmf([(lbl, Alphabet(lbl, s)) for lbl, s in zip(labels, w.shape)], w, normalize=normalize)


# ---------------------------------------------------------------------------
# Operations


def product_extend(p: JointPmf, n: int) -> JointPmf:
    """n-fold i.i.d. extension of p.

    Axes are grouped per source axis: label L becomes L@0..L@n-1, so that a
    reshape of the (axis-major) tensor to sizes (|L|^n, ...) yields row-major
    block indexing. n=1 returns p itself.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if n == 1:
        return p
    k = len(p.axes)
    check_cap("product extension cells", math.prod(p.sizes) ** n)
    big = p.weights
    for _ in range(n - 1):
        big = np.multiply.outer(big, p.weights)
    # big axes are time-major: (t0 axes..., t1 axes..., ...); regroup per axis.
    perm = [t * k + a for a in range(k) for t in range(n)]
    big = np.transpose(big, perm)
    axes = []
    for lbl, alph in p.axes:
        for t in range(n):
            axes.append((f"{lbl}@{t}", Alphabet(f"{alph.name}@{t}", alph.size)))
    return JointPmf(axes, big, normalize=True)


def _summed(p: JointPmf, keep: Sequence[str]) -> tuple[np.ndarray, list[int]]:
    """p's weights with every axis not in `keep` summed out and the rest transposed to the
    order of `keep` (a view), and the kept axes' positions in p."""
    pos = [p.axis_pos(lbl) for lbl in keep]
    if len(set(pos)) != len(pos):
        raise UsageError("repeated labels in keep")
    drop = tuple(i for i in range(len(p.axes)) if i not in pos)
    w = p.weights.sum(axis=drop) if drop else p.weights
    return np.transpose(w, [sorted(pos).index(i) for i in pos]), pos


def marginalize(p: JointPmf, keep: Sequence[str]) -> JointPmf:
    """Sum out all axes not in `keep`; result axes follow the order of `keep`."""
    w, pos = _summed(p, keep)
    return JointPmf([p.axes[i] for i in pos], w, normalize=True)


def condition(p: JointPmf, given: Sequence[str], output: Sequence[str]) -> ConditionalKernel:
    """Kernel p(output | given), read from p's weights with no marginal JointPmf built:
    bit for bit the kernel of marginalize(p, given + output) given `given`. Zero-mass
    conditions become flagged uniform slices. `given` may be empty; `output` may not."""
    given, output = list(given), list(output)
    if not output:
        raise UsageError(f"condition needs a nonempty output, got given {given}")
    w, pos = _summed(p, given + output)  # a label repeated in or across the lists is a UsageError
    total = float(w.sum())  # as in pmf_weights: renormalized, then C order, so slices sum alike
    w = np.ascontiguousarray(w / total if abs(total - 1.0) > MASS_TOL else w)
    flat = w.reshape(w.shape[:len(given)] + (-1,))
    mass = flat.sum(axis=-1)
    degenerate = mass <= 0.0
    out = flat / np.where(degenerate, 1.0, mass)[..., None]
    if degenerate.any():
        out = np.where(degenerate[..., None], 1.0 / flat.shape[-1], out)
    axes = [p.axes[i] for i in pos]
    return ConditionalKernel(axes[:len(given)], axes[len(given):], out.reshape(w.shape), degenerate)


def _entropy_of(p: JointPmf, labels: Sequence[str]) -> float:
    if not labels:
        return 0.0
    key = tuple(labels)
    memo = p._entropies
    if key not in memo:  # marginalize(p, key)'s weights in C order, with no JointPmf built
        w = _summed(p, key)[0]
        total = float(w.sum())
        w = (w / total if abs(total - 1.0) > MASS_TOL else w).ravel()
        w = w[w > 0.0]
        memo[key] = float(-(w * np.log2(w)).sum())
    return memo[key]


def info_measure(p: JointPmf, a: Sequence[str], b: Sequence[str] = (), c: Sequence[str] = ()) -> float:
    """Shannon measure in bits: I(A;B|C); H(A|C) when B is empty; I(A;B) when C is empty.

    A, B, C must be disjoint axis-label sets. Returns max(value, 0) to absorb
    float round-off on quantities that are nonnegative by theory.
    """
    a, b, c = list(a), list(b), list(c)
    groups = a + b + c
    if len(set(groups)) != len(groups):
        raise UsageError("A, B, C must be disjoint axis sets")
    for lbl in groups:
        p.axis_pos(lbl)
    if not a:
        raise UsageError("A must be nonempty")
    if not b:
        val = _entropy_of(p, a + c) - _entropy_of(p, c)
    else:
        val = (_entropy_of(p, a + c) + _entropy_of(p, b + c)
               - _entropy_of(p, a + b + c) - _entropy_of(p, c))
    return max(val, 0.0)


def divergences(p: JointPmf, q: JointPmf) -> tuple[float, float]:
    """(KL divergence D(p||q) in bits, L1 distance sum|p-q|).

    KL is +inf when supp(p) is not contained in supp(q). L1 is the full sum
    of absolute differences, range [0, 2].
    """
    if p.labels != q.labels or p.sizes != q.sizes:
        raise UsageError("divergences requires identical axes")
    pw = p.weights.ravel()
    qw = q.weights.ravel()
    tv = float(np.abs(pw - qw).sum())
    mask = pw > 0.0
    if np.any(qw[mask] <= 0.0):
        return math.inf, tv
    kl = float((pw[mask] * (np.log2(pw[mask]) - np.log2(qw[mask]))).sum())
    return max(kl, 0.0), tv


# ---------------------------------------------------------------------------
# Staircase quantization of integer weights by a uniform seed (exact rational certificate)

EXACT_SPAN = 2 ** 53
"""The largest ell * T (T a row's integer total) a staircase cuts in int64; past it the same
code runs on Python ints (dtype=object). Support-size certificates stay under 5 * ell * T."""


@dataclass(frozen=True, eq=False)
class StaircaseTable:
    """Total maps f: [1..ell] -> support from cumulative cut points, one per table of a
    stack; a single table is a table with no leading axes.

    weights (..., size) are the integer rows cut (see integer_rows); support (..., M) and
    cuts (..., M - 1) are integer arrays: N_k = ell * S_k // T, S_k the first k support
    weights' sum and T the row's total, and with N_0 = 0 and N_M = ell implied, seeds in
    (N_{i-1}, N_i] map to support[i-1]. `support_size` is each table's M (an int, or an
    array over the leading axes); a table is vacuous (bound >= 1) where it exceeds ell.
    `map_seed` and `induced_widths` broadcast over a stack. The certificate is read on a
    single table (see `row`) from the same integers, cached: `bound` is the certified L1
    error 2*epsilon + M/ell (epsilon = mass outside the support); `induced`, `epsilon`,
    `bound` and `realized_l1` are exact rationals.
    """

    support: np.ndarray
    cuts: np.ndarray
    ell: int
    support_size: int | np.ndarray
    weights: np.ndarray = field(repr=False)

    vacuous = property(lambda self: self.support_size > self.ell)

    def row(self, r) -> StaircaseTable:
        """Table r of the stack, cut to its support size: a table with no leading axes."""
        m = int(np.broadcast_to(self.support_size, self.support.shape[:-1])[r])
        return StaircaseTable(support=self.support[r][:m], cuts=self.cuts[r][:m - 1], ell=self.ell,
                              support_size=m, weights=self.weights[r])

    def map_seed(self, s: int | np.ndarray, tables: np.ndarray | None = None) -> int | np.ndarray:
        """The symbol of seed s: support[i], i the count of cuts below s. An array of
        seeds broadcasts against the tables of a stack, or with `tables` (integers into
        the stack's leading axis, shaped as the seeds) maps seed r through table tables[r]."""
        seeds = np.asarray(s)
        bad = (seeds < 1) | (seeds > self.ell)
        if bad.any():
            raise UsageError(f"seed {seeds[bad].ravel()[0]} outside [1, {self.ell}]")
        cuts, support = (self.cuts, self.support) if tables is None else (self.cuts[tables], self.support[tables])
        pos = (cuts < seeds[..., None]).sum(axis=-1)
        support = np.broadcast_to(support, pos.shape + support.shape[-1:])
        chosen = np.take_along_axis(support, pos[..., None], axis=-1)[..., 0]
        return int(chosen) if chosen.ndim == 0 else chosen

    def _widths(self) -> np.ndarray:
        """Seeds per support symbol: the gaps of (0, cuts, ell), in one array of the support's shape."""
        widths = np.empty(self.support.shape, dtype=np.int64)
        widths[..., :-1], widths[..., -1] = self.cuts, self.ell
        widths[..., 1:] -= self.cuts
        return widths

    induced = functools.cached_property(
        lambda self: tuple(Fraction(k, self.ell) for k in self._widths().tolist()))

    def induced_widths(self, size: int) -> np.ndarray:
        """The seeds of each symbol 0..size-1 (a row per table of a stack), int64: the
        induced law times ell."""
        out = np.zeros(self.support.shape[:-1] + (size,), dtype=np.int64)
        np.put_along_axis(out, self.support, self._widths(), axis=-1)
        return out

    @functools.cached_property
    def _exact(self) -> list[Fraction]:
        total = sum(self.weights.tolist())
        return [Fraction(w, total) for w in self.weights.tolist()]

    epsilon = functools.cached_property(lambda self: 1 - sum(self._exact[b] for b in self.support.tolist()))
    bound = functools.cached_property(lambda self: 2 * self.epsilon + Fraction(self.support_size, self.ell))

    @functools.cached_property
    def realized_l1(self) -> Fraction:
        by_symbol = dict(zip(self.support.tolist(), self.induced))
        return sum(abs(w - by_symbol.get(b, 0)) for b, w in enumerate(self._exact))


def snapped(weights) -> np.ndarray:
    """Float weights as integer numerators (Python ints) over one denominator: each distinct
    weight snapped once to the closest rational with denominator at most 10**12, so that
    decimal inputs (0.3, 1/3 written as 0.333...) mean what they say, over the lcm of those."""
    w = np.asarray(weights, dtype=np.float64)
    fractions = {v: Fraction(v).limit_denominator(10 ** 12) for v in set(w.ravel().tolist())}
    lcm = math.lcm(*(f.denominator for f in fractions.values()))
    return np.vectorize(lambda v: fractions[v].numerator * (lcm // fractions[v].denominator), otypes=[object])(w)


def integer_kernel(weights: np.ndarray, n: int, span: int) -> np.ndarray:
    """Kernel weights as integer numerators over one denominator (snapped) for n-entry likelihoods:
    int64 while span (candidates times ell) times such a product is within EXACT_SPAN, else Python ints."""
    numerators = snapped(weights)
    return numerators.astype(np.int64 if span * int(numerators.max(initial=0)) ** n <= EXACT_SPAN else object)


def integer_rows(weights: np.ndarray, ell: int) -> np.ndarray:
    """Weight rows (..., size) as the integers a staircase over ell seeds cuts: integer rows
    as given, float pmf rows (each summing to 1 within MASS_TOL) snapped row by row. Each
    row needs nonnegative entries and a positive total. int64 while every ell * total <=
    EXACT_SPAN, else Python ints."""
    w = np.asarray(weights)
    if w.dtype.kind == "f":
        totals = w.sum(axis=-1)
        off = totals[~(np.abs(totals - 1.0) <= MASS_TOL)]  # a NaN total is off too
        if off.size:
            raise UsageError(f"staircase weight rows must sum to 1 within {MASS_TOL}, got total {float(off.flat[0])!r}")
        w = np.array([snapped(row) for row in w.reshape(-1, w.shape[-1])], dtype=object).reshape(w.shape)
    totals = np.asarray(w.sum(axis=-1))
    if np.any(w < 0) or not np.all(totals > 0):
        raise UsageError("staircase integer weight rows must be nonnegative with a positive total")
    return w.astype(np.int64 if ell * int(totals.max(initial=0)) <= EXACT_SPAN else object, copy=False)


def staircase_map(q: JointPmf | np.ndarray, support_order: Sequence[int] | np.ndarray,
                  ell: int, support_size: np.ndarray | None = None) -> StaircaseTable:
    """Quantize weights into a function of a uniform seed on [1..ell].

    q is a single-axis pmf or weight rows (..., size), float pmf rows or integer rows (see
    integer_rows): one table per row, a 1-D array one table with no leading axes. Support
    orders (..., M) give a stack of tables in one pass; support_size (ints over the leading
    axes, None for M) keeps each table's first m symbols, its cuts padded with ell.

    The support_order must list distinct symbols; epsilon is the mass it leaves out. Each
    cut is ell * S_k // T on the row's integers, the exact floor, so realized_l1 <= bound
    holds exactly, and <= M/ell when the support covers the row's. ell < M is flagged
    vacuous (bound >= 1), not fatal.
    """
    w = q.weights if isinstance(q, JointPmf) else np.asarray(q)
    support = np.asarray(support_order, dtype=np.int64)
    if w.ndim != support.ndim or w.shape[:-1] != support.shape[:-1]:
        raise UsageError("staircase_map expects a single-axis pmf")
    if not 1 <= ell < 2 ** 63:
        raise UsageError(f"ell must lie in [1, 2^63), got {ell}")
    size, m = w.shape[-1], support.shape[-1]
    if m == 0:
        raise UsageError("support_order must be nonempty")
    if np.any(np.diff(np.sort(support, axis=-1), axis=-1) == 0):
        raise UsageError("support_order has repeated symbols")
    if support.size and (support.min() < 0 or support.max() >= size):
        raise UsageError("support symbol out of range")
    sizes = m if support_size is None else support_size
    if np.any((sizes < 1) | (sizes > m)):
        raise UsageError(f"support sizes must lie in [1, {m}]")
    ell = int(ell)
    weights = integer_rows(w, ell)
    rows, picks = weights.reshape(-1, size), support.reshape(-1, m)
    interior = np.arange(m - 1) < np.reshape(sizes, (-1, 1)) - 1  # positions from m - 1 on are ell
    picked = rows[np.arange(len(rows))[:, None], picks[:, :-1]]
    cuts = ell * np.cumsum(picked, axis=-1) // rows.sum(axis=-1, keepdims=True)
    cuts = np.where(interior, cuts, ell).astype(np.int64).reshape(support.shape[:-1] + (m - 1,))
    return StaircaseTable(support=support, cuts=cuts, ell=ell, support_size=sizes, weights=weights)
