"""Exact and Monte Carlo evaluation of the coordination criterion.

The exact path enumerates every source block, every common-randomness value,
every uniform index, and the closed-form staircase-selector distributions,
producing the exact conditional law of the generated actions for one realized
codebook. The Monte Carlo path histograms scheme runs. KL-style limits are
monitored through their L1 surrogates, since finite-blocklength KL against a
random codebook is infinite off support.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .codebooks import (Codebook, Component, IndexSpace, _pair_components, build_codebooks, k_minus,
                        k_plus, l_of, m_minus, m_plus)
from .codec import STREAM_VERSION, Scheme, walk
from .errors import UsageError, check_cap, resolve_cap
from .linestruct import NetworkSpec, a_label, b_label, c_label, order_pairs, psi, x_label
from .probability import condition, marginalize, product_extend
from .rates import CodebookRates, Mode


def target_block_tensor(network: NetworkSpec, n: int) -> np.ndarray:
    """Target^(x n) reshaped to one axis of size |X_i|^n per node."""
    big = product_extend(network.target, n)
    sizes = tuple(a.size ** n for a in network.alphabets)
    return big.weights.reshape(sizes)


def _block_product(rows: np.ndarray) -> np.ndarray:
    """Per-letter tensors rows (B, n, d_1..d_k) -> block tensors (B, d_1^n, ..., d_k^n).
    Entry [b, x_1..x_k] multiplies rows[b, t, x_1[t], ..., x_k[t]] over the
    letters t in order; each block index is row-major over the letters."""
    batch, n, *dims = rows.shape
    letters = rows.reshape(batch, n, -1)
    out = letters[:, 0]
    for t in range(1, n):
        out = (letters[:, t, :, None] * out[:, None, :]).reshape(batch, -1)  # newest letter slowest
    return np.take(out, _block_order(n, tuple(dims)), axis=1).reshape(batch, *[d ** n for d in dims])


@functools.lru_cache(maxsize=16)
def _block_order(n: int, dims: tuple[int, ...]) -> np.ndarray:
    """Where each block entry, axis by axis, sits in _block_product's running
    product, which puts the last letter's joint symbol first."""
    source = np.arange(math.prod(dims) ** n).reshape(dims * n)
    perm = [(n - 1 - t) * len(dims) + a for a in range(len(dims)) for t in range(n)]
    return source.transpose(perm).ravel()


@dataclass
class ExactInduced:
    """Exact conditional action law of one realized codebook under a mode."""

    conditional: np.ndarray  # (S1, S2, ..., Sh); rows over x1 blocks sum to 1
    x1_marginal: np.ndarray  # target X1^n block probabilities
    block_sizes: tuple[int, ...]
    n: int
    mode: str
    degenerate_paths: int = 0

    def coordination_joint(self) -> np.ndarray:
        shape = (len(self.x1_marginal),) + (1,) * (len(self.block_sizes) - 1)
        return self.x1_marginal.reshape(shape) * self.conditional


GRID_CELLS = 1 << 15
"""Cells one chunk of an index grid may span: its assignments times the block
cells each assignment needs. A chunk holds at least one assignment. At 2^15
(256 KB), exact on copy3 n=4 and dsbs n=6 runs a third faster than at 2^14."""


def _grid_chunks(spaces: Sequence[tuple[Component, int]], cells: int) -> Iterator[dict]:
    """Every assignment over spaces in lexicographic order (last component fastest),
    as integer-array assignments of at most GRID_CELLS // cells grid points each."""
    grid = IndexSpace(spaces)
    step = max(1, GRID_CELLS // cells)
    for start in range(0, grid.size, step):
        yield grid.unflatten(np.arange(start, min(start + step, grid.size)))


def check_exact_sizes(cb: Codebook, *names: str) -> None:
    """Check what exact_induced, cr_independence and piecing_check enumerate
    against the cap, by cap name; all three, in that order, when none is named."""
    blocks = [a.size ** cb.n for a in cb.spec.network.alphabets]
    m_cells = math.prod(size for _, size in _pair_components(order_pairs(cb.h), cb.sizes))
    sizes = {"exact enumeration paths": blocks[0] * math.prod(cb.sizes.values()),
             "cr_independence enumeration cells": m_cells * blocks[0],
             "piecing enumeration cells": m_cells * math.prod(blocks)}
    for what in names or sizes:
        check_cap(what, sizes[what])


def exact_induced(cb: Codebook, mode: Mode) -> ExactInduced:
    """Full enumeration of the scheme's conditional action law for one codebook.

    Breadth-first over integer-array paths: codec.walk runs each chunk of (x1
    block, shared indices) rows, branching every path on node 1's m1, then per
    hop on k+ and l. Branching repeats each path in place, so paths keep the
    order of a depth-first walk, and np.add.at sums their mass into the law in
    that order."""
    scheme = Scheme(cb, mode)
    n = cb.n
    h = cb.h
    net = cb.spec.network
    check_exact_sizes(cb, "exact enumeration paths")

    sizes = [a.size for a in net.alphabets]
    block_sizes = tuple(s ** n for s in sizes)
    cond = np.zeros(block_sizes)
    degenerate = 0
    cr_weight = 1.0
    for _, s in scheme.cr_spaces:
        cr_weight /= s

    def select(paths, key, ell, space, posteriors):
        nonlocal degenerate
        paths, deg = _branch(scheme, paths, ell, space, posteriors)
        degenerate += deg
        return paths

    def uniform(paths, comp, size):
        values = np.tile(np.arange(size), len(paths["p"]))
        paths = _repeat(paths, size) | {comp: values}
        paths["p"] = paths["p"] / size
        return paths

    fan_out = scheme.m1_space.size * math.prod(
        cb.sizes[l_of(i + 1)] * (cb.sizes[k_plus(i)] if i in scheme.k_spaces else 1) for i in range(1, h))
    for paths in _grid_chunks([(("x1",), block_sizes[0])] + scheme.cr_spaces,
                              fan_out * (len(cb.sizes) + n + h)):
        paths["X1"] = np.stack(np.unravel_index(paths.pop(("x1",)), (sizes[0],) * n), axis=-1)
        paths["p"] = np.full(len(paths["X1"]), cr_weight)
        paths = walk(scheme, paths, select, uniform)
        np.add.at(cond, tuple(np.ravel_multi_index(tuple(paths[x].T), (s,) * n)
                              for x, s in zip(net.x_labels, sizes)), paths["p"])
    x1_marg = marginalize(net.target, [x_label(1)])
    q1 = _block_product(np.tile(x1_marg.weights, (1, n, 1)))[0]
    return ExactInduced(conditional=cond, x1_marginal=q1, block_sizes=block_sizes, n=n,
                        mode=scheme.mode.value, degenerate_paths=degenerate)


def _repeat(paths: dict, counts) -> dict:
    """Each path repeated counts times (per path, or one int for all), its copies adjacent."""
    return {key: np.repeat(v, counts, axis=0) for key, v in paths.items()}


def _branch(scheme: Scheme, paths: dict, ell: int, space: IndexSpace,
            posteriors: tuple[np.ndarray, np.ndarray]) -> tuple[dict, int]:
    """Each path branched on the candidates (flat in space) its staircase selector
    gives mass, ascending, with that mass multiplied into its probability "p";
    posteriors are the paths' stacked posteriors (R, M) and degenerate flags (R,).
    Returns the paths and the number of degenerate posteriors."""
    stack, degenerate = posteriors
    induced = scheme.selection(stack, ell).induced_array(stack.shape[-1])
    rows, values = np.nonzero(induced)
    out = _repeat(paths, np.count_nonzero(induced, axis=1)) | space.unflatten(values)
    out["p"] = out["p"] * induced[rows, values]
    return out, int(np.count_nonzero(degenerate))


def _allied_joint(cb: Codebook, block_sizes: tuple[int, ...]) -> np.ndarray:
    """Uniform-index output law: average over all m+- of the block conditional
    Q(X_1..X_h | A)^(x n) at the realized A codewords."""
    spec = cb.spec
    h = cb.h
    a_axes = [a_label(p) for p in order_pairs(h)]
    marg = marginalize(spec.joint, a_axes + list(spec.network.x_labels))
    kernel = condition(marg, a_axes)
    spaces = _pair_components(order_pairs(h), cb.sizes)
    total = math.prod(size for _, size in spaces)
    out = np.zeros(block_sizes)
    for grid in _grid_chunks(spaces, math.prod(block_sizes)):
        letters = [cb.a_codeword(p, grid) for p in order_pairs(h)]
        for block in _block_product(kernel.weights[tuple(letters)]) / total:
            out += block
    return out


def coordination_tv(exact: ExactInduced, network: NetworkSpec) -> float:
    """Exact L1 between the induced coordination law and target^(x n)."""
    target = target_block_tensor(network, exact.n)
    return float(np.abs(exact.coordination_joint() - target).sum())


# ---------------------------------------------------------------------------
# Monte Carlo estimation


@dataclass
class SimReport:
    n: int
    trials: int
    codebook_seeds: list[int]
    tv_per_seed: list[float]
    tv_mean: float | None
    radius: float | None
    proxy: bool
    exact_tv: float | None
    excluded_seeds: list[int]
    budget_violations: int
    note: str = ""

    def to_dict(self):
        return {"n": self.n, "trials": self.trials, "codebook_seeds": self.codebook_seeds,
                "tv_per_seed": self.tv_per_seed, "tv_mean": self.tv_mean,
                "radius": self.radius, "proxy": self.proxy, "exact_tv": self.exact_tv,
                "excluded_seeds": self.excluded_seeds,
                "budget_violations": self.budget_violations, "note": self.note,
                "stream_version": STREAM_VERSION}


def mc_coordination_tv(spec, rates: CodebookRates, mode: Mode, n: int, trials: int,
                       codebook_seeds: list[int], seed: int,
                       with_exact: bool = False) -> SimReport:
    """Plug-in TV between the empirical block histogram and target^(x n),
    averaged over codebook seeds. Falls back to a per-letter proxy when the
    block histogram would not fit the cap; the report is labeled PROXY then.
    Codebook builds and the exact check are held to the same cap.
    tv_mean and radius are None when no codebook seed contributes a TV.
    """
    from .codec import run_scheme

    if trials < 1:
        raise UsageError("Monte Carlo estimation needs trials >= 1")
    net = spec.network
    sizes = [a.size for a in net.alphabets]
    proxy = math.prod(s ** n for s in sizes) > resolve_cap()
    if proxy:
        target = net.target.weights
    else:
        target = target_block_tensor(net, n)

    tvs, excluded, violations = [], [], 0
    exact_val = None
    for cb_seed in codebook_seeds:
        cb = build_codebooks(spec, rates, n, cb_seed)
        run = run_scheme(cb, mode, trials, seed + cb_seed)
        violations += len(run.budget_violations)
        if run.degenerate_trials:
            excluded.append(cb_seed)
            continue
        acts = run.actions
        if proxy:  # one count per letter, its digits the h actions
            digits, radix = acts.transpose(0, 2, 1).reshape(-1, net.h), sizes
        else:  # one count per trial, its digits every letter of every block
            digits, radix = acts.reshape(trials, -1), np.repeat(sizes, n)
        counts = np.bincount(np.ravel_multi_index(tuple(digits.T), radix), minlength=target.size)
        hist = counts.reshape(target.shape) / counts.sum()
        tvs.append(float(np.abs(hist - target).sum()))
    if with_exact and not proxy and codebook_seeds:
        cb = build_codebooks(spec, rates, n, codebook_seeds[0])
        exact_val = coordination_tv(exact_induced(cb, mode), net)

    mean = radius = None
    if tvs:
        mean = float(np.mean(tvs))
        # normal-approximation radius pooled over cells, deliberately conservative;
        # it also covers the plug-in bias scale sum sqrt(q(1-q)/trials)
        flat = target.ravel()
        per_cell = np.sqrt(np.clip(flat * (1 - flat), 0, None) / trials)
        radius = float(per_cell.sum()) + (float(np.std(tvs)) / math.sqrt(len(tvs)) if len(tvs) > 1 else 0.0)
    return SimReport(n=n, trials=trials, codebook_seeds=list(codebook_seeds),
                     tv_per_seed=tvs, tv_mean=mean, radius=radius, proxy=proxy,
                     exact_tv=exact_val, excluded_seeds=excluded,
                     budget_violations=violations,
                     note="PROXY: per-letter marginal TV" if proxy else "")


# ---------------------------------------------------------------------------
# Common-randomness independence and the piecing identity


def cr_independence(cb: Codebook) -> float:
    """Average L1 between the uniform-index law of the first action given each
    shared-index value and its average: sum over m- of (1/|M-|) * || Q(.|m-) - Q(.) ||_1."""
    spec = cb.spec
    h = cb.h
    n = cb.n
    x1_axis = x_label(1)
    psi1_pairs = sorted(psi(h, 1))
    a_psi1 = [a_label(q) for q in psi1_pairs]
    kernel = condition(marginalize(spec.joint, a_psi1 + [x1_axis]), a_psi1)
    s1 = spec.network.alphabets[0].size ** n

    minus = IndexSpace([(m_minus(p), cb.sizes[m_minus(p)]) for p in order_pairs(h)])
    plus_spaces = [(m_plus(p), cb.sizes[m_plus(p)]) for p in order_pairs(h)]
    check_exact_sizes(cb, "cr_independence enumeration cells")

    conds = np.zeros((minus.size, s1))
    for grid in _grid_chunks(list(minus.components) + plus_spaces, s1):
        vectors = _block_product(kernel.weights[tuple(cb.a_codeword(q, grid) for q in psi1_pairs)])
        np.add.at(conds, minus.flatten(grid), vectors)  # row by row, in order
    conds /= math.prod(size for _, size in plus_spaces)
    avg = conds.mean(axis=0)
    return float(np.abs(conds - avg).sum(axis=1).mean())


def piecing_check(cb: Codebook) -> float:
    """Exact L1 of the piecing identity: target^(x n) against the average over
    m+- of Q(x1 | A) times the chained per-hop conditional ratios. One einsum sums
    a chunk's assignments: within 1e-12 of a one-at-a-time loop, not bit-identical."""
    spec = cb.spec
    h = cb.h
    n = cb.n
    net = spec.network
    sizes = [a.size for a in net.alphabets]
    block_sizes = [s ** n for s in sizes]
    a_axes = [a_label(p) for p in order_pairs(h)]

    spaces = _pair_components(order_pairs(h), cb.sizes)
    total_m = math.prod(size for _, size in spaces)
    check_exact_sizes(cb, "piecing enumeration cells")

    x1_kernel = condition(marginalize(spec.joint, a_axes + [x_label(1)]), a_axes)
    pair_kernels = {}
    for j in range(2, h + 1):
        giv = a_axes + [b_label(j - 1), c_label(j)]
        pair_kernels[j] = condition(
            marginalize(spec.joint, giv + [x_label(j - 1), x_label(j)]), giv)

    # per hop j, every (k+, k-, l) the ratio averages over, flat and in order
    hops = {j: IndexSpace([(c, cb.sizes[c]) for c in (k_plus(j - 1), k_minus(j - 1), l_of(j))])
            for j in range(2, h + 1)}
    cells = block_sizes[0] + sum(hop.size * block_sizes[j - 2] * block_sizes[j - 1]
                                 for j, hop in hops.items())
    letters = "abcdefgh"
    sub = ",".join(["z" + letters[0]] + ["z" + letters[j:j + 2] for j in range(h - 1)])
    pieced = np.zeros(tuple(block_sizes))
    for grid in _grid_chunks(spaces, cells):
        a_letters = tuple(cb.a_codeword(p, grid) for p in order_pairs(h))
        factors = [_block_product(x1_kernel.weights[a_letters])]
        for j, hop in hops.items():
            probe = grid | hop.unflatten(np.arange(hop.size)[:, None])  # (k, chunk) grid
            rows = pair_kernels[j].weights[a_letters + (cb.b_codeword(j - 1, probe),
                                                         cb.c_codeword(j, probe))]
            w = _block_product(rows.reshape(-1, *rows.shape[2:])).reshape(
                rows.shape[:2] + (block_sizes[j - 2], block_sizes[j - 1])).sum(axis=0)
            w /= hop.size  # the mean over k, in order
            marg = w.sum(axis=2, keepdims=True)
            factors.append(np.divide(w, marg, out=w, where=marg > 0))  # a zero row stays zero
        pieced += np.einsum(f"{sub}->{letters[:h]}", *factors, optimize=h > 2)
    pieced /= total_m
    target = target_block_tensor(net, n)
    return float(np.abs(target - pieced).sum())
