"""Nested random codebooks for the line-network auxiliary system.

Books are materialized eagerly and immutable; construction is deterministic
under a 64-bit master seed with one child stream per (book identity, codebook
index), so lookup order never matters. Codeword counts are ceil(2^(n*rate)).

Sampling discipline: codewords are drawn by stratified inverse-CDF decoding
of their block conditional (a random permutation assigns one quantile
stratum per codeword, uniform within the stratum). Each codeword is still
marginally an exact draw from its kernel, but the book as a whole covers the
conditional's quantile space evenly, which keeps desk-scale blocklengths in
the regime the asymptotic analysis describes; in particular a uniform
conditional with a matching codeword count enumerates the blocks exactly, so
integer-rate local randomness is lossless.

A fixed parent row, whose conditional leaves no choice (a copy or a constant
kernel), decodes every quantile to one word, so it draws no stream. Streams
are keyed by parent index alone, so free rows draw as if every row did.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ResourceCapError, UsageError, check_cap
from .linestruct import (
    AuxSpec,
    IndexPair,
    a_label,
    b_label,
    order_pairs,
    phi,
    phi_bar,
    psi,
)
from .probability import condition
from .rates import CodebookRates


def codeword_count(n: int, rate: float) -> int:
    """ceil(2^(n*rate)) with snap-to-integer guard against float fuzz. Every codebook
    size and selector seed range is one, and each is an int64: a count of 2^63 or
    more raises ResourceCapError."""
    if not (math.isfinite(rate) and rate >= 0):
        raise UsageError(f"rate must be finite and nonnegative, got {rate}")
    x = n * rate
    if x > 63 - 1e-9:
        raise ResourceCapError(f"a range of 2^{x:.6g} values is above any cap: ranges stay below 2^63")
    r = round(x)
    return 1 << r if abs(x - r) < 1e-9 else math.ceil(2.0 ** x)


Component = tuple  # ("m+", i, j) | ("m-", i, j) | ("k+", i) | ("k-", i) | ("l", i)


def m_plus(p: IndexPair) -> Component:
    return ("m+", p[0], p[1])


def m_minus(p: IndexPair) -> Component:
    return ("m-", p[0], p[1])


def k_plus(i: int) -> Component:
    return ("k+", i)


def k_minus(i: int) -> Component:
    return ("k-", i)


def l_of(i: int) -> Component:
    return ("l", i)


class IndexSpace:
    """Mixed-radix flattener over an ordered list of (component, size)."""

    def __init__(self, components: Sequence[tuple[Component, int]]):
        self.components = tuple((tuple(c), int(s)) for c, s in components)
        self.size = math.prod(s for _, s in self.components)

    def flatten(self, assignment: Mapping[Component, int | np.ndarray]) -> int | np.ndarray:
        """The flat index of an assignment. Integer arrays as values give the
        flat indices of their broadcast grid, so one lookup serves many."""
        idx = 0
        for comp, size in self.components:
            try:
                v = assignment[comp]
            except KeyError:
                raise UsageError(f"index bundle is missing component {comp}") from None
            if not isinstance(v, int):
                v = np.asarray(v)
                if v.dtype.kind not in "iu":
                    raise UsageError(f"index {comp} = {v} is not an integer")
            if not (0 <= v < size if isinstance(v, int) else 0 <= v.min() and v.max() < size):
                v = np.ravel(v)[np.argmax((np.ravel(v) < 0) | (np.ravel(v) >= size))]
                raise UsageError(f"index {comp} = {v} out of range [0, {size})")
            idx = idx * size + v
        return idx

    def unflatten(self, idx: int | np.ndarray) -> dict[Component, int | np.ndarray]:
        out = {}
        for comp, size in reversed(self.components):
            out[comp] = idx % size
            idx = idx // size
        return dict(reversed(list(out.items())))


def _stratified_blocks(u: np.ndarray, letter_probs: np.ndarray) -> np.ndarray:
    """Codewords (B, count, n) decoded from stratified quantiles u (B, count):
    row b of u decodes, letter by letter, through the product distribution
    with per-letter rows letter_probs[b] (n, size)."""
    batch, n, _ = letter_probs.shape
    cum = _cum_rows(letter_probs)
    out = np.empty((batch, u.shape[1], n), dtype=np.int64)
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    for t in range(n):
        sym = _search_right(cum[:, t], u)
        out[:, :, t] = sym
        lo = np.where(sym > 0, np.take_along_axis(cum[:, t], sym - 1, axis=1), 0.0)
        p = np.take_along_axis(letter_probs[:, t], sym, axis=1)
        u = np.clip((u - lo) / np.where(p > 0, p, 1.0), 0.0, np.nextafter(1.0, 0.0))
    return out


def _search_right(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum[i], u[i], side="right") for every sorted row i of cum (..., size)
    and keys u (..., count): the count of entries <= u. On a _cum_rows row, a key below 1
    gives a symbol of positive mass."""
    return (cum[..., None, :] <= u[..., None]).sum(axis=-1)


def _cum_rows(letter_probs: np.ndarray) -> np.ndarray:
    """Per-letter cumulative rows of letter_probs (..., n, size), sorted and ending at
    exactly 1: each running sum is capped at 1 before the last entry is set to 1."""
    cum = np.minimum(np.cumsum(letter_probs, axis=-1), 1.0)
    cum[..., -1] = 1.0
    return cum


def _iid_blocks(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Blocks (..., count, n) decoded from independent uniforms u (..., count, n) in [0, 1):
    letter t is _search_right of its uniform in row t of cum (..., n, size), as _cum_rows
    makes it."""
    return _search_right(cum, u.swapaxes(-1, -2)).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Seeded streams. The stream (seed, *key) is PCG64 seeded by numpy's SeedSequence over
# _entropy_words(seed, *key). A book's free rows each draw from their own stream, computed
# for a block of rows at once as array arithmetic on numpy's constants (bit_generator.pyx,
# pcg64.h, distributions.c), with no Generator. Fixed rows draw none, since any stream
# decodes to their one word. NEP 19 fixes bit generators' streams but not Generator
# methods' algorithms, so tests/test_streams.py checks against numpy.

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
STREAM_BLOCK_ROWS = 512
"""Parent rows of a book whose streams are drawn at a time, and trials per Monte Carlo block."""


def _entropy_words(seed: int, *key) -> np.ndarray:
    """The uint32 entropy of the stream (seed, *key): the seed's low 64 bits
    split into 32-bit words (0 gives [0]), then each key int masked to 32 bits
    and each key string's code points."""
    s = seed & 0xFFFFFFFFFFFFFFFF
    words = [s & _M32, s >> 32] if s >> 32 else [s]
    for part in key:
        if isinstance(part, str):
            words.extend(map(ord, part))
        else:
            words.append(int(part) & _M32)
    return np.array(words, dtype=np.uint32)


def _child_rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_entropy_words(seed, *key)))


@functools.lru_cache(maxsize=64)
def _hash_steps(hc: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The next count (xor, multiply) constant pairs of SeedSequence's running
    hash constant hc, as read-only arrays, and the constant after them."""
    out = np.array([(hc, hc := hc * mult & _M32) for _ in range(count)], dtype=np.uint32).T
    out.setflags(write=False)
    return out[0], out[1], hc


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    v = (values ^ xors) * mults
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for every row of a
    (rows, words) uint32 entropy matrix, as a (rows, 4) uint64 array.

    The hash constant depends only on how many hashes came before, so each
    step of SeedSequence's loops runs on all rows, and on every pool word
    the step leaves independent, at once."""
    rows, width = entropy.shape
    head = np.zeros((rows, _POOL), dtype=np.uint32)
    head[:, :min(width, _POOL)] = entropy[:, :_POOL]
    xors, mults, hc = _hash_steps(_INIT_A, _MULT_A, _POOL)
    pool = _hashmix(head, xors, mults)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        xors, mults, hc = _hash_steps(hc, _MULT_A, _POOL - 1)
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], xors, mults))
    for src in range(_POOL, width):
        xors, mults, hc = _hash_steps(hc, _MULT_A, _POOL)
        pool = _mix(pool, _hashmix(entropy[:, src, None], xors, mults))
    xors, mults, _ = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL)
    words = _hashmix(np.tile(pool, 2), xors, mults)
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=32)
def _jump_constants(stop: int) -> np.ndarray:
    """(2, 2, stop) uint64: the hi, then the lo words of A_m = MULT^(m+2) and C_m = MULT^0
    + ... + MULT^(m+2) mod 2^128 for m < stop. Seeding steps the LCG twice and each output
    once before it is read, so PCG64 seeded with (s, inc) reads output m from A_m s + C_m inc."""
    powers = list(itertools.accumulate([_PCG_MULT] * (stop + 1), lambda a, m: a * m & _M128))[1:]
    sums = list(itertools.accumulate(powers, lambda c, a: c + a & _M128, initial=1 + _PCG_MULT))[1:]
    words = np.array([divmod(x, 1 << 64) for x in powers + sums], dtype=np.uint64)
    out = words.T.reshape(2, 2, stop)
    out.setflags(write=False)
    return out


def _pcg64_outputs(states: np.ndarray, stop: int) -> np.ndarray:
    """random_raw(stop) (rows, stop) of the PCG64 each row of generate_state words states
    (rows, 4) seeds with s = s0:s1 and inc = s2:s3:1: both products of each state in hi and
    lo uint64 words, lo times lo from 32-bit limbs, then XSL-RR."""
    k_hi, k_lo = _jump_constants(stop)
    s0, s1, s2, s3 = states.T[:, :, None, None]
    x_hi = np.concatenate([s0, s2 << 1 | s3 >> 63], axis=1)
    x_lo = np.concatenate([s1, s3 << 1 | 1], axis=1)
    a0, a1, b0, b1 = x_lo & _M32, x_lo >> 32, k_lo & _M32, k_lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    lo_terms = x_lo * k_lo
    hi_terms = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + x_hi * k_lo + x_lo * k_hi
    lo = lo_terms.sum(axis=1)
    hi = hi_terms.sum(axis=1) + (lo < lo_terms[:, 0])
    rot, x = hi >> 58, hi ^ lo
    return x >> rot | x << (64 - rot & 63)


def _halves(outputs: np.ndarray) -> list:
    """The uint32 draws of outputs (..., k) as lists: each output's low half, then its high."""
    return np.stack([outputs & _M32, outputs >> 32], axis=-1).reshape(*outputs.shape[:-1], -1).tolist()


def _shuffle(count: int, draws: list[int]) -> tuple[list[int], int] | None:
    """Generator.permutation(count) from a stream's uint32 draws and the outputs it read,
    or None if the draws run out. numpy's Fisher-Yates swaps i with random_interval(i)
    for i from count - 1 down: a draw masked to i's bit length, drawn again while above
    i. Every storable count is below 2^32, where random_interval draws 64 bits."""
    perm, drawn = list(range(count)), 0
    try:
        for i in range(count - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = draws[drawn] & mask
            drawn += 1
            while j > i:
                j = draws[drawn] & mask
                drawn += 1
            perm[i], perm[j] = perm[j], perm[i]
    except IndexError:
        return None
    return perm, (drawn + 1) // 2


def _stratified_quantiles(states: np.ndarray, count: int) -> np.ndarray:
    """(permutation(count) + random(count)) / count (rows, count) of the Generator each row
    of states (rows, 4) seeds. random reads (output >> 11) * 2^-53 from the outputs after
    the shuffle's, which may read all but the last count of them: room for (count - 1) / 2
    redraws, doubled for a row that needs more."""
    raw = _pcg64_outputs(states, 2 * count - 1)
    perm, doubles = np.zeros((len(states), count), dtype=np.int64), raw[:, :count]
    if count > 1:
        doubles = np.empty_like(doubles)
        for r, draws in enumerate(_halves(raw[:, :count - 1])):
            outputs, walk = raw[r], _shuffle(count, draws)
            while walk is None:
                outputs = _pcg64_outputs(states[r:r + 1], 2 * len(outputs))[0]
                walk = _shuffle(count, _halves(outputs[:-count]))
            perm[r], used = walk
            doubles[r] = outputs[used:used + count]
    return (perm + (doubles >> 11) * 2.0 ** -53) / count


@dataclass(frozen=True)
class Book:
    """One codebook family: parent space -> slot space -> codeword array."""

    parents: IndexSpace
    slots: IndexSpace
    words: np.ndarray  # (parents.size, slots.size, n) symbol indices

    def lookup(self, assignment: Mapping[Component, int]) -> np.ndarray:
        """The codeword at the book's own components of a (possibly larger) index
        bundle; integer-array indices give the codewords of their grid, stacked."""
        return self.words[self.parents.flatten(assignment), self.slots.flatten(assignment)]


class Codebook:
    """Realized nested codebooks for all auxiliary RVs of an AuxSpec."""

    def __init__(self, spec: AuxSpec, rates: CodebookRates, n: int, seed: int,
                 books_a, books_b, books_c, sizes: dict[Component, int]):
        self.spec = spec
        self.rates = rates
        self.n = int(n)
        self.seed = int(seed)
        self.a = books_a
        self.b = books_b
        self.c = books_c
        self.sizes = dict(sizes)

    @property
    def h(self) -> int:
        return self.spec.h

    # -- lookups ------------------------------------------------------------

    def a_codeword(self, p: IndexPair, assignment: Mapping[Component, int]) -> np.ndarray:
        return self.a[p].lookup(assignment)

    def b_codeword(self, hop: int, assignment: Mapping[Component, int]) -> np.ndarray:
        return self.b[hop].lookup(assignment)

    def c_codeword(self, node: int, assignment: Mapping[Component, int]) -> np.ndarray:
        return self.c[node].lookup(assignment)


def component_sizes(spec: AuxSpec, rates: CodebookRates, n: int) -> dict[Component, int]:
    h = spec.h
    sizes: dict[Component, int] = {}
    for p in order_pairs(h):
        sizes[m_plus(p)] = codeword_count(n, rates.mu_plus[p])
        sizes[m_minus(p)] = codeword_count(n, rates.mu_minus[p])
    for i in range(1, h):
        sizes[k_plus(i)] = codeword_count(n, rates.kappa_plus[i])
        sizes[k_minus(i)] = codeword_count(n, rates.kappa_minus[i])
    for i in range(2, h + 1):
        sizes[l_of(i)] = codeword_count(n, rates.lam[i])
    return sizes


def _pair_components(pairs: Sequence[IndexPair], sizes) -> list[tuple[Component, int]]:
    return [(c, sizes[c]) for q in pairs for c in (m_plus(q), m_minus(q))]


def build_codebooks(spec: AuxSpec, rates: CodebookRates, n: int, seed: int) -> Codebook:
    """Draw all codebooks in construction order, respecting the nesting."""
    if n < 1:
        raise UsageError("block length must be >= 1")
    h = spec.h
    order = order_pairs(h)
    sizes = component_sizes(spec, rates, n)

    def pair_space(pairs, extra=()) -> IndexSpace:
        return IndexSpace(_pair_components([q for q in order if q in pairs], sizes) + list(extra))

    def k_pair(i: int) -> list[tuple[Component, int]]:
        return [(k_plus(i), sizes[k_plus(i)]), (k_minus(i), sizes[k_minus(i)])]

    # (parents, slots) of every book, so the cap is checked before any draw
    layout_a = {p: (pair_space(phi(h, p)), IndexSpace(_pair_components([p], sizes)))
                for p in order}
    layout_b = {i: (pair_space(phi_bar(h, (i, i + 1))), IndexSpace(k_pair(i)))
                for i in range(1, h)}
    layout_c = {i: (pair_space(psi(h, i), k_pair(i - 1)), IndexSpace([(l_of(i), sizes[l_of(i)])]))
                for i in range(2, h + 1)}
    check_cap("codebook stored symbols", sum(parents.size * slots.size * n
                                             for layout in (layout_a, layout_b, layout_c)
                                             for parents, slots in layout.values()))

    def a_letters(pairs, assignment) -> list[np.ndarray]:
        return [books_a[q].lookup(assignment) for q in sorted(pairs)]

    books_a: dict[IndexPair, Book] = {}
    for p in order:
        books_a[p] = _draw_book(seed, ("A", p[0], p[1]), *layout_a[p], spec.a_kernels[p], n,
                                lambda asg, p=p: a_letters(phi(h, p), asg))

    joint = spec.joint
    books_b: dict[int, Book] = {}
    for i in range(1, h):
        given_pairs = phi_bar(h, (i, i + 1))
        given_labels = [a_label(q) for q in sorted(given_pairs)]
        kernel = condition(joint, given_labels, [b_label(i)])
        books_b[i] = _draw_book(seed, ("B", i), *layout_b[i], kernel, n,
                                lambda asg, pairs=given_pairs: a_letters(pairs, asg))

    books_c: dict[int, Book] = {}
    for i in range(2, h + 1):
        hop = books_b[i - 1]
        books_c[i] = _draw_book(
            seed, ("C", i), *layout_c[i], spec.c_kernels[i], n,
            lambda asg, i=i, hop=hop: a_letters(psi(h, i), asg) + [hop.lookup(asg)])

    return Codebook(spec, rates, n, seed, books_a, books_b, books_c, sizes)


def _draw_book(seed: int, key: tuple, parents: IndexSpace, slots: IndexSpace, kernel,
               n: int, given) -> Book:
    """One book: for each parent index p, slots.size codewords stratified-drawn from the
    kernel at the letters given(assignment of p) returns, on the stream (seed, *key, p).
    The streams and given run on STREAM_BLOCK_ROWS parents at a time. A fixed parent draws
    no stream: its cumulative rows hold only 0.0 and 1.0, so any quantile decodes to each
    row's count of zeros."""
    n_out = kernel.weights.shape[-1]
    count = slots.size
    words = np.empty((parents.size, count, n), dtype=np.int64)
    for start in range(0, parents.size, STREAM_BLOCK_ROWS):
        block = np.arange(start, min(start + STREAM_BLOCK_ROWS, parents.size))
        letters = given(parents.unflatten(block))
        rows = kernel.weights[tuple(letters)] if letters else np.tile(kernel.weights, (n, 1))
        rows = np.broadcast_to(rows.reshape(-1, n, n_out), (len(block), n, n_out))
        cum = _cum_rows(rows)
        words[block] = (cum == 0.0).sum(axis=-1)[:, None, :]
        free = ((cum != 0.0) & (cum != 1.0)).any(axis=(1, 2))
        if free.any():
            entropy = np.tile(_entropy_words(seed, *key, 0), (free.sum(), 1))
            entropy[:, -1] = block[free]  # the parent row is the stream key's last word
            words[block[free]] = _stratified_blocks(
                _stratified_quantiles(_seed_states(entropy), count), rows[free])
    words.setflags(write=False)
    return Book(parents, slots, words)
