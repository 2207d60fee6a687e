"""Exact and Monte Carlo evaluation of the coordination criterion.

The exact path contracts, for one realized codebook, the integer seed widths of
node 1's and the relays' staircase selectors with the uniform indices into the
exact conditional law of the generated actions. The Monte Carlo path histograms
scheme runs. KL-style limits are monitored through their L1 surrogates, since
finite-blocklength KL against a random codebook is infinite off support.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .codebooks import (Book, Codebook, Component, IndexSpace, _pair_components, build_codebooks, k_minus,
                        k_plus, l_of, m_minus, m_plus)
from .codec import STREAM_VERSION, Scheme, _normalized, _per_candidate, run_scheme
from .errors import ResourceCapError, UsageError, check_cap, resolve_cap
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
    """Exact conditional action law of one realized codebook under a mode: each cell is
    its exact rational probability rounded once to float64."""

    conditional: np.ndarray  # (S1, S2, ..., Sh); rows over x1 blocks sum to 1
    x1_marginal: np.ndarray  # target X1^n block probabilities
    block_sizes: tuple[int, ...]
    n: int
    mode: str
    degenerate_paths: int = 0


GRID_CELLS = 1 << 15
"""Cells one chunk of an index grid may span: its assignments, at least one, times the
cells each needs (block cells, piecing's key ids, or exact_induced's widest arrays per
common-randomness value, see _shared_cells)."""


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
    """The scheme's exact conditional action law for one codebook.

    Given the shared indices g = (m+-, k-, m1) the scheme is Markov along the line, so
    the law is the sum over g of node 1's factor A[g, x1], the seed widths its staircase
    gives m1 at root (x1, cr), times per-hop factors F_i[g, x_i, x_{i+1}]: per k+, the
    count of l whose C-word is x_{i+1}, weighted by the seed widths of k+ at x_i where
    the schedule selects K+ (else k+ is 0 and the x_i axis has size 1). Each chunk of
    common-randomness values cr, every m1 with each, builds its factors, and _contract
    sums them over g. All are integer numerators over D = |CR| * ell1 * prod ell_k *
    prod |L|, and each x1 row's numerators sum to D, so while D <= 2^53 every float64
    sum is exact in any order: the law is the exact rational law rounded once per cell.
    A degenerate posterior counts once per path of the scheme's tree (a root, then the
    m1, k+ and l branches with mass) that meets it."""
    scheme = Scheme(cb, mode)
    h, net = cb.h, cb.spec.network
    check_exact_sizes(cb, "exact enumeration paths")
    ranges = [size for _, size in scheme.cr_spaces] + [cb.sizes[l_of(i)] for i in range(2, h + 1)]
    denominator = math.prod(ranges + [scheme.ell1] + [scheme.ell_k[i] for i in scheme.k_spaces])
    if denominator > 2 ** 53:
        raise ResourceCapError(f"exact law denominator D = {denominator} is above 2^53, "
                               "past which float64 numerators are no longer exact")
    block_sizes = tuple(a.size ** cb.n for a in net.alphabets)
    num = np.zeros((math.prod(block_sizes[:-2]), *block_sizes[-2:]))
    m1 = scheme.m1_space.unflatten(np.arange(scheme.m1_space.size))
    degenerate = 0
    for cr in _grid_chunks(scheme.cr_spaces, _shared_cells(scheme)):
        grid = {c: v[:, None] for c, v in cr.items()} | m1  # (cr, m1)
        widths, flags = _selection_widths(scheme, scheme.x1_kernel.weights,
                                          [cb.a_codeword(q, grid) for q in sorted(psi(h, 1))], scheme.ell1)
        degenerate += int(np.count_nonzero(flags))
        factors = [np.ascontiguousarray(widths.transpose(1, 0, 2), dtype=np.float64).reshape(1, block_sizes[0], -1)]
        g = {c: np.repeat(v, scheme.m1_space.size) for c, v in cr.items()}
        g |= {c: np.tile(v, len(widths)) for c, v in m1.items()}  # (cr, m1) rows, m1 fastest
        paths = factors[0][0].T > 0  # (g, x_i): the paths of the tree that reach x_i
        for i in range(1, h):
            hits = reach = _hits(scheme, i, g)  # (g, k+, x_{i+1})
            if i in scheme.k_spaces:
                widths, flags = _selection_widths(
                    scheme, scheme.k_kernels[i].weights, [cb.a_codeword(p, g)[:, None] for p in scheme.order]
                    + [cb.b_codeword(i, _per_candidate(g) | {k_plus(i): np.arange(hits.shape[1])})],
                    scheme.ell_k[i])
                degenerate += int((paths * flags).sum())
                reach, hits = (widths > 0).astype(np.int64) @ hits, widths @ hits
            if i < max(scheme.k_spaces, default=0):  # paths are counted up to the last K+ hop
                paths = (paths[:, :, None] * reach).sum(axis=1)
            # node 1's factor is (1, x1, g), each hop's (x_i or 1, x_{i+1}, g)
            factors.append(np.ascontiguousarray(hits.transpose(1, 2, 0), dtype=np.float64))
        step = max(1, GRID_CELLS // math.prod(block_sizes[:-1]))
        for start in range(0, factors[0].shape[-1], step):
            num += _contract([f[..., start:start + step] for f in factors])
    q1 = _block_product(np.tile(marginalize(net.target, [x_label(1)]).weights, (1, cb.n, 1)))[0]
    return ExactInduced(conditional=(num / denominator).reshape(block_sizes), x1_marginal=q1,
                        block_sizes=block_sizes, n=cb.n, mode=scheme.mode.value, degenerate_paths=degenerate)


def _contract(factors: list[np.ndarray]) -> np.ndarray:
    """The sum over rows g of node 1's factor (1, x1, g) times each hop's (x_i or 1,
    x_{i+1}, g), as (x1..x_{h-2}, x_{h-1}, x_h): a prefix (x1..x_{i-1}, x_i, g) takes each
    hop but the last by broadcasting, and the last sums g in one batched matmul."""
    prefix = factors[0]
    for factor in factors[1:-1]:
        prefix = (prefix[:, :, None] * factor).reshape(-1, *factor.shape[1:])
    return np.matmul(prefix.transpose(1, 0, 2), factors[-1].transpose(0, 2, 1)).transpose(1, 0, 2)


def _selection_widths(scheme: Scheme, kernel: np.ndarray, letters, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer staircase widths (R, S, C) and degenerate flags (R, S) of the posteriors over
    C candidates of each of a node's S action blocks, for rows R: kernel gives the node's
    per-letter law at the codewords letters (R, C, n), broadcast. The posteriors are
    Scheme.node1_posterior's and Scheme.k_posterior's, bit for bit."""
    rows = kernel[tuple(letters)]  # (R, C, n, |X|)
    shape = rows.shape
    rows = _block_product(rows.reshape(-1, *shape[2:])).reshape(*shape[:2], -1)  # likelihoods (R, C, S)
    posteriors, flags = _normalized(np.ascontiguousarray(rows.transpose(0, 2, 1)))
    del rows  # the selection's own arrays are the stack's size several times over
    table = scheme.selection(posteriors.reshape(-1, shape[1]), ell)
    return table.induced_widths(shape[1]).reshape(posteriors.shape), flags


def _hits(scheme: Scheme, i: int, g: dict) -> np.ndarray:
    """Per row g and k+ (only 0 where hop i selects no K+), the count of the l_{i+1} whose
    C-word is each block of node i+1, row-major over its letters: (g, k+, |X_{i+1}|^n)."""
    cb, size = scheme.cb, scheme.spec.network.alphabets[i].size
    count = scheme.k_spaces[i].size if i in scheme.k_spaces else 1
    grid = {c: v[:, None, None] for c, v in g.items()} | {k_plus(i): np.arange(count)[:, None]}
    words = cb.c_codeword(i + 1, grid | {l_of(i + 1): np.arange(cb.sizes[l_of(i + 1)])})  # (g, k+, l, n)
    blocks = words @ size ** np.arange(cb.n - 1, -1, -1)  # (g, k+, l), row-major over the letters
    keys = blocks + size ** cb.n * np.arange(blocks[..., 0].size).reshape(-1, count, 1)
    return np.bincount(keys.ravel(), minlength=len(words) * count * size ** cb.n).reshape(len(words), count, -1)


def _shared_cells(scheme: Scheme) -> int:
    """The most cells one common-randomness value's factors take in exact_induced: its |M1|
    rows g times the widest array per row: at hop i, per k+, the C-words, hits or a stack
    over node i's blocks (node 1's or K+ posteriors; a selection holds up to about 6.5
    arrays of its stack's size at once, so a stack counts seven times), and where K+ is
    selected the factor over the blocks of nodes i and i+1. A gather of n letters is at
    most a block."""
    cb, blocks = scheme.cb, [a.size ** scheme.n for a in scheme.spec.network.alphabets]
    counts = [scheme.k_spaces[i].size if i in scheme.k_spaces else 1 for i in range(1, scheme.h)]
    return scheme.m1_space.size * max(max(k * max(cb.sizes[l_of(i + 1)] * cb.n, 7 * blocks[i - 1], blocks[i]),
                                          blocks[i - 1] * blocks[i] * (k > 1)) for i, k in enumerate(counts, 1))


def coordination_tv(exact: ExactInduced, network: NetworkSpec) -> float:
    """Exact L1 between the induced coordination law and target^(x n)."""
    joint = exact.x1_marginal.reshape((-1,) + (1,) * (len(exact.block_sizes) - 1)) * exact.conditional
    return float(np.abs(joint - target_block_tensor(network, exact.n)).sum())


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
    excluded_seeds: list[int]
    budget_violations: int
    note: str = ""

    def to_dict(self):
        return {"n": self.n, "trials": self.trials, "codebook_seeds": self.codebook_seeds,
                "tv_per_seed": self.tv_per_seed, "tv_mean": self.tv_mean,
                "radius": self.radius, "proxy": self.proxy,
                "excluded_seeds": self.excluded_seeds,
                "budget_violations": self.budget_violations, "note": self.note,
                "stream_version": STREAM_VERSION}


def mc_coordination_tv(spec, rates: CodebookRates, mode: Mode, n: int, trials: int,
                       codebook_seeds: list[int], seed: int) -> SimReport:
    """Plug-in TV between the empirical block histogram and target^(x n),
    averaged over codebook seeds. Falls back to a per-letter proxy when the
    block histogram would not fit the cap; the report is labeled PROXY then.
    Codebook builds are held to the same cap.
    tv_mean and radius are None when no codebook seed contributes a TV.
    """
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
                     excluded_seeds=excluded, budget_violations=violations,
                     note="PROXY: per-letter marginal TV" if proxy else "")


# ---------------------------------------------------------------------------
# Common-randomness independence and the piecing identity


def cr_independence(cb: Codebook) -> float:
    """Average L1 between the uniform-index law of the first action given each
    shared-index value and its average: sum over m- of (1/|M-|) * || Q(.|m-) - Q(.) ||_1."""
    spec, h, n = cb.spec, cb.h, cb.n
    x1_axis = x_label(1)
    psi1_pairs = sorted(psi(h, 1))
    a_psi1 = [a_label(q) for q in psi1_pairs]
    kernel = condition(spec.joint, a_psi1, [x1_axis])
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


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer matrix in lexicographic order, and each row's
    index among them: np.unique(rows, axis=0, return_inverse=True) by one lexsort."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


def _word_ids(book: Book) -> tuple[np.ndarray, Book]:
    """A book's distinct codewords (D, n), and the book of their dense ids in its words' places."""
    words, ids = _distinct_rows(book.words.reshape(-1, book.words.shape[-1]))
    return words, Book(book.parents, book.slots, ids.reshape(book.words.shape[:2]))


def piecing_check(cb: Codebook) -> float:
    """Exact L1 of the piecing identity: target^(x n) against the average over
    m+- of Q(x1 | A) times the chained per-hop conditional ratios.

    An assignment's summand reads only its codewords, so it is keyed by the dense
    ids of its A-words, then per hop j of its B_{j-1} and C_j words at every
    (k+, k-, l). Each window of assignments sums its distinct keys once, weighted
    by their counts, in one einsum per sub-chunk: within 1e-12 of a one-at-a-time
    loop, not bit-identical."""
    spec, h, n = cb.spec, cb.h, cb.n
    net = spec.network
    block_sizes = [a.size ** n for a in net.alphabets]
    a_axes = [a_label(p) for p in order_pairs(h)]

    spaces = _pair_components(order_pairs(h), cb.sizes)
    total_m = math.prod(size for _, size in spaces)
    check_exact_sizes(cb, "piecing enumeration cells")

    x1_kernel = condition(spec.joint, a_axes, [x_label(1)])
    pair_kernels = {}
    for j in range(2, h + 1):
        giv = a_axes + [b_label(j - 1), c_label(j)]
        pair_kernels[j] = condition(spec.joint, giv, [x_label(j - 1), x_label(j)])

    # per hop j, every (k+, k-, l) the ratio averages over, flat and in order
    hops = {j: IndexSpace([(c, cb.sizes[c]) for c in (k_plus(j - 1), k_minus(j - 1), l_of(j))])
            for j in range(2, h + 1)}
    a_books = [_word_ids(cb.a[p]) for p in order_pairs(h)]
    hop_books = {j: (_word_ids(cb.b[j - 1]), _word_ids(cb.c[j])) for j in hops}
    spans = [1] * len(a_books) + [hop.size for hop in hops.values() for _ in range(2)]
    cells = block_sizes[0] + sum(hop.size * block_sizes[j - 2] * block_sizes[j - 1]
                                 for j, hop in hops.items())
    step = max(1, GRID_CELLS // cells)
    letters = "abcdefgh"
    sub = ",".join(["z" + letters[0]] + ["z" + letters[j:j + 2] for j in range(h - 1)])
    pieced = np.zeros(tuple(block_sizes))
    for grid in _grid_chunks(spaces, sum(spans)):
        columns = [ids.lookup(grid)[:, None] for _, ids in a_books]
        for j, hop in hops.items():
            probe = grid | hop.unflatten(np.arange(hop.size)[:, None])  # (k, window) grid
            columns += [np.broadcast_to(ids.lookup(probe), (hop.size, len(columns[0]))).T
                        for _, ids in hop_books[j]]
        keys, inverse = _distinct_rows(np.hstack(columns))
        counts = np.bincount(inverse)
        for start in range(0, len(keys), step):
            # each book's ids (span, sub-chunk), in key order
            ids = iter(np.split(keys[start:start + step].T, np.cumsum(spans)[:-1]))
            a_letters = tuple(words[next(ids)[0]] for words, _ in a_books)
            factors = [_block_product(x1_kernel.weights[a_letters]) * counts[start:start + step, None]]
            for j, hop in hops.items():
                b_c = tuple(words[next(ids)] for words, _ in hop_books[j])  # each (k, sub-chunk, n)
                rows = pair_kernels[j].weights[a_letters + b_c]
                w = _block_product(rows.reshape(-1, *rows.shape[2:])).reshape(
                    rows.shape[:2] + (block_sizes[j - 2], block_sizes[j - 1])).sum(axis=0)
                w /= hop.size  # the mean over k, in order
                marg = w.sum(axis=2, keepdims=True)
                factors.append(np.divide(w, marg, out=w, where=marg > 0))  # a zero row stays zero
            pieced += np.einsum(f"{sub}->{letters[:h]}", *factors, optimize=h > 2)
    pieced /= total_m
    target = target_block_tensor(net, n)
    return float(np.abs(target - pieced).sum())
