"""The batched exact paths against per-assignment reference loops.

Codebook draws, node-1 and K+ posteriors and their staircase selections, the
exact law, the CR independence score, the piecing check and the Monte Carlo
histograms evaluate whole index grids at once. Each must equal, bit for bit,
the loop that visits one index assignment at a time; the loops below are that
reference. The exact law's reference is the depth-first walk of the scheme's
tree in exact rationals, and exact_induced must equal it rounded once per
cell. Equality is asserted with np.array_equal or ==, never a tolerance,
except for the piecing check: it sums each chunk's assignments in one einsum,
in another float order than the loop, and must match it within PIECING_ATOL.
"""
import contextlib
import functools
import io
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coordline import codebooks, codec, evalharness
from coordline.cli import Experiment, run_command
from coordline.codebooks import (
    STREAM_BLOCK_ROWS,
    Book,
    IndexSpace,
    build_codebooks,
    k_minus,
    k_plus,
    l_of,
    m_minus,
    m_plus,
)
from coordline.codec import Scheme, _normalized
from coordline.errors import ResourceCapError, UsageError
from coordline.evalharness import cr_independence, exact_induced, piecing_check
from coordline.linestruct import (CONSTANT, a_label, aux_from_tags, b_label, c_label, channel_of, copy_of,
                                  make_network, order_pairs, psi, x_label)
from coordline.presets import bsc_chain_network, preset_config
from coordline.probability import pmf_weights
from coordline.rates import CodebookRates, Mode
from test_codebooks import same_books
from test_probability import marginal_condition

SEED = 3
PIECING_ATOL = 1e-12  # absolute; the largest difference seen on CASES is 6.9e-16
CASES = ([(preset, None, n) for preset in ("dsbs", "dsbs-control", "indep-uniform", "copy3", "markov3")
          for n in (1, 2, 3)]
         + [("markov3", "action-dependent", n) for n in (1, 2, 3)]
         + [("copy3", None, 4), ("dsbs", None, 6)])


def _ids(case):
    preset, mode, n = case
    return f"{preset}-{mode or 'preset'}-n{n}"


def _setup(preset, mode, n):
    exp = Experiment(preset_config(preset))
    return exp, Mode(mode) if mode else exp.mode, build_codebooks(exp.spec, exp.rates, n, SEED)


def _assignments(spaces):
    comps = [comp for comp, _ in spaces]
    for combo in iproduct(*[range(size) for _, size in spaces]):
        yield dict(zip(comps, combo))


def _pair_spaces(cb):
    return [(kind(p), cb.sizes[kind(p)]) for p in order_pairs(cb.h) for kind in (m_plus, m_minus)]


def _blocks(size, n):
    return [np.array(x, dtype=np.int64) for x in iproduct(range(size), repeat=n)]


# ---------------------------------------------------------------------------
# Reference loops: one index assignment at a time


def ref_stratified_blocks(rng, letter_probs, count):
    n, size = letter_probs.shape
    strata = rng.permutation(count).astype(np.float64)
    u = (strata + rng.random(count)) / count
    out = np.empty((count, n), dtype=np.int64)
    for t in range(n):
        row = letter_probs[t]
        cum = np.cumsum(row)
        cum[-1] = 1.0
        sym = np.searchsorted(cum, u, side="right")
        sym = np.clip(sym, 0, size - 1)
        out[:, t] = sym
        lo = np.where(sym > 0, cum[sym - 1], 0.0)
        p = row[sym]
        u = np.clip((u - lo) / np.where(p > 0, p, 1.0), 0.0, np.nextafter(1.0, 0.0))
    return out


def ref_draw_book(seed, key, parents, slots, kernel, n, given):
    n_out = kernel.weights.shape[-1]
    words = np.empty((parents.size, slots.size, n), dtype=np.int64)
    for parent_idx in range(parents.size):
        letters = given(parents.unflatten(parent_idx))
        if letters:
            rows = kernel.weights[tuple(np.asarray(g) for g in letters)]
        else:
            rows = np.tile(kernel.weights, (n, 1))
        rng = codebooks._child_rng(seed, *key, parent_idx)
        words[parent_idx] = ref_stratified_blocks(rng, rows.reshape(n, n_out), slots.size)
    words.setflags(write=False)
    return Book(parents, slots, words)


def ref_block_likelihood(rows, block):
    return float(np.prod(rows[np.arange(len(block)), block]))


def ref_node1_posterior(scheme, x1, assignment):
    out = np.empty(scheme.m1_space.size)
    probe = dict(assignment)
    for flat in range(scheme.m1_space.size):
        probe.update(scheme.m1_space.unflatten(flat))
        letters = [scheme.cb.a_codeword(q, probe) for q in sorted(psi(scheme.h, 1))]
        out[flat] = ref_block_likelihood(scheme.x1_kernel.weights[tuple(letters)], x1)
    return _normalized(out)


def ref_k_posterior(scheme, i, x_block, assignment):
    out = np.empty(scheme.cb.sizes[k_plus(i)])
    a_letters = tuple(scheme.cb.a_codeword(p, assignment) for p in scheme.order)
    probe = dict(assignment)
    for v in range(len(out)):
        probe[k_plus(i)] = v
        rows = scheme.k_kernels[i].weights[a_letters + (scheme.cb.b_codeword(i, probe),)]
        out[v] = ref_block_likelihood(rows, x_block)
    return _normalized(out)


def ref_block_vector(rows):
    v = rows[0]
    for t in range(1, rows.shape[0]):
        v = np.outer(v, rows[t]).ravel()
    return v


def ref_cr_independence(cb):
    spec, h, n = cb.spec, cb.h, cb.n
    psi1_pairs = sorted(psi(h, 1))
    a_psi1 = [a_label(q) for q in psi1_pairs]
    kernel = marginal_condition(spec.joint, a_psi1, [x_label(1)])
    s1 = spec.network.alphabets[0].size ** n
    minus_spaces = [(m_minus(p), cb.sizes[m_minus(p)]) for p in order_pairs(h)]
    plus_spaces = [(m_plus(p), cb.sizes[m_plus(p)]) for p in order_pairs(h)]
    n_plus = math.prod(size for _, size in plus_spaces)
    conds = []
    for assignment in _assignments(minus_spaces):
        acc = np.zeros(s1)
        for plus in _assignments(plus_spaces):
            assignment.update(plus)
            rows = kernel.weights[tuple(cb.a_codeword(q, assignment) for q in psi1_pairs)]
            acc += ref_block_vector(rows)
        conds.append(acc / n_plus)
    conds = np.array(conds)
    avg = conds.mean(axis=0)
    return float(np.abs(conds - avg).sum(axis=1).mean())


def ref_piecing_check(cb):
    spec, h, n = cb.spec, cb.h, cb.n
    net = spec.network
    block_sizes = [a.size ** n for a in net.alphabets]
    a_axes = [a_label(p) for p in order_pairs(h)]
    spaces = _pair_spaces(cb)
    total_m = math.prod(size for _, size in spaces)
    x1_kernel = marginal_condition(spec.joint, a_axes, [x_label(1)])
    pair_kernels = {}
    for j in range(2, h + 1):
        giv = a_axes + [b_label(j - 1), c_label(j)]
        pair_kernels[j] = marginal_condition(spec.joint, giv, [x_label(j - 1), x_label(j)])
    pieced = np.zeros(tuple(block_sizes))
    for assignment in _assignments(spaces):
        a_letters = [cb.a_codeword(p, assignment) for p in order_pairs(h)]
        factors = [ref_block_vector(x1_kernel.weights[tuple(a_letters)])]
        for j in range(2, h + 1):
            kp_n, km_n, l_n = cb.sizes[k_plus(j - 1)], cb.sizes[k_minus(j - 1)], cb.sizes[l_of(j)]
            w = np.zeros((block_sizes[j - 2], block_sizes[j - 1]))
            for kp_i in range(kp_n):
                for km_i in range(km_n):
                    assignment[k_plus(j - 1)] = kp_i
                    assignment[k_minus(j - 1)] = km_i
                    b_letters = cb.b_codeword(j - 1, assignment)
                    for l_i in range(l_n):
                        assignment[l_of(j)] = l_i
                        c_letters = cb.c_codeword(j, assignment)
                        rows = pair_kernels[j].weights[tuple(a_letters) + (b_letters, c_letters)]
                        mat = rows[0]
                        for t in range(1, n):
                            mat = np.kron(mat, rows[t])
                        w += mat
            w /= kp_n * km_n * l_n
            marg = w.sum(axis=1, keepdims=True)
            factors.append(np.divide(w, marg, out=np.zeros_like(w), where=marg > 0))
        letters = "abcdefgh"
        sub = ",".join([letters[0]] + [letters[j] + letters[j + 1] for j in range(h - 1)])
        pieced += np.einsum(f"{sub}->{letters[:h]}", *factors) / total_m
    target = evalharness.target_block_tensor(net, n)
    return float(np.abs(target - pieced).sum())


def ref_block_encode(block, size):
    out = 0
    for sym in block:
        out = out * size + int(sym)
    return out


def ref_block_decode(idx, size, n):
    out = np.empty(n, dtype=np.int64)
    for t in range(n - 1, -1, -1):
        out[t] = idx % size
        idx //= size
    return out


def ref_staircase_cuts(weights, support, ell):
    """One table's interior cuts N_1..N_{M-1}: floor(cumsum * ell / total) in float64,
    or the rational cuts of the snapped weights when any scaled cumulative is within
    ell * size * 2e-12 of an integer."""
    scaled = np.cumsum(weights[support[:-1]]) * ell / weights.sum()
    near = np.abs(scaled - np.rint(scaled)) <= ell * len(weights) * 2e-12
    if not near.any():
        return np.floor(scaled).astype(np.int64).tolist()
    snapped = [Fraction(float(w)).limit_denominator(10 ** 12) for w in weights]
    total = sum(snapped)
    cuts, cum = [], Fraction(0)
    for b in support[:-1]:
        cum += snapped[b] / total
        cuts.append(math.floor(cum * ell))
    return cuts


def ref_support_sizes(posteriors, ell):
    """codec._support_sizes scanning every support size m = 1..M: each row's candidates
    by descending mass (ties by index) and the shortest top-mass prefix minimizing
    2*eps + m/ell, where a longer one must beat the best so far by 1e-15."""
    count = posteriors.shape[-1]
    order = np.argsort(-posteriors, axis=-1, kind="stable")
    mass = posteriors[np.arange(len(posteriors))[:, None], order]
    certs = 2.0 * (1.0 - np.cumsum(mass, axis=-1)) + np.array([m / ell for m in range(1, count + 1)])
    certs[np.arange(1, count + 1) > (mass > 0).sum(axis=-1, keepdims=True)] = np.inf  # past positive mass
    best_m, best = np.ones(len(posteriors), dtype=np.int64), certs[:, 0]
    for m, cert in enumerate(certs.T[1:], 2):
        better = cert < best - 1e-15
        best, best_m[better] = np.where(better, cert, best), m
    return order, best_m


def ref_selection_widths(posterior, ell):
    """One posterior's staircase selection, one support size at a time: the support
    (the candidates by descending mass, ties by index, cut to the first prefix whose
    certificate beats every shorter one by 1e-15) and the seeds of each candidate."""
    count = len(posterior)
    order = np.lexsort((np.arange(count), -posterior))
    mass = posterior[order]
    cum = np.cumsum(mass).tolist()
    positive = int((mass > 0).sum())
    best_m, best_cert = 1, float("inf")
    for m in range(1, max(positive, 1) + 1):
        cert = 2.0 * (1.0 - cum[m - 1]) + m / ell
        if cert < best_cert - 1e-15:
            best_cert, best_m = cert, m
    support = order[:best_m].tolist()
    edges = [0] + ref_staircase_cuts(pmf_weights(posterior, normalize=True), support, ell) + [ell]
    widths = np.zeros(count, dtype=np.int64)
    for b, lo, hi in zip(support, edges, edges[1:]):
        widths[b] = max(hi - lo, 0)
    return support, widths


def ref_selection_table(posterior, ell):
    """ref_selection_widths with the induced law, widths / ell, in float64."""
    support, widths = ref_selection_widths(posterior, ell)
    return support, widths / ell


def ref_selector_law(posterior, ell):
    """The candidates with seeds, each with its exact probability widths / ell."""
    _, widths = ref_selection_widths(posterior, ell)
    return [(int(v), Fraction(int(widths[v]), ell)) for v in np.nonzero(widths)[0]]


def ref_walk(scheme, node, x_prev, assignment, prob, cond, prefix):
    """Recurse down the line from `node` (the hop node->node+1), adding the exact mass
    of every reachable action tuple to cond; returns the degenerate posteriors met."""
    cb, h = scheme.cb, scheme.h
    degenerate = 0
    k_options = [(0, Fraction(1))]
    if scheme.schedule.selects_k and cb.sizes[k_plus(node)] > 1:
        posterior, deg = scheme.k_posterior(node, x_prev, assignment)
        degenerate += int(deg)
        k_options = ref_selector_law(posterior, scheme.ell_k[node])
    size_l = cb.sizes[l_of(node + 1)]
    x_size = scheme.spec.network.alphabets[node].size
    for k_val, k_prob in k_options:
        assignment[k_plus(node)] = k_val
        for l_val in range(size_l):
            assignment[l_of(node + 1)] = l_val
            action = cb.c_codeword(node + 1, assignment)
            flat = ref_block_encode(action, x_size)
            p = prob * k_prob / size_l
            if node + 1 == h:
                cond[tuple(prefix + [flat])] += p
            else:
                degenerate += ref_walk(scheme, node + 1, action, assignment, p, cond, prefix + [flat])
    return degenerate


def ref_exact_conditional(cb, mode):
    """exact_induced's (conditional, degenerate_paths) as exact rationals: the depth-first
    walk over one dict assignment at a time, selecting through ref_selection_widths, with
    each path's mass the Fraction product of 1/|CR|, the seed widths over ell and 1/|L|.
    The conditional is an object array of Fractions, each x1 row summing to exactly 1."""
    scheme = Scheme(cb, mode)
    h, n = cb.h, cb.n
    sizes = [a.size for a in cb.spec.network.alphabets]
    cond = np.full(tuple(s ** n for s in sizes), Fraction(0), dtype=object)
    degenerate = 0
    cr_spaces = ([(m_minus(p), cb.sizes[m_minus(p)]) for p in order_pairs(h)]
                 + [(k_minus(i), cb.sizes[k_minus(i)]) for i in range(1, h)]
                 + [(m_plus(p), cb.sizes[m_plus(p)]) for p in order_pairs(h) if p[0] != 1])
    cr_weight = Fraction(1, math.prod(size for _, size in cr_spaces))
    for x1_flat in range(sizes[0] ** n):
        x1 = ref_block_decode(x1_flat, sizes[0], n)
        for assignment in _assignments(cr_spaces):
            for i in range(1, h):
                assignment.setdefault(k_plus(i), 0)
            posterior, deg = scheme.node1_posterior(x1, assignment)
            degenerate += int(deg)
            for m1_flat, p_m1 in ref_selector_law(posterior, scheme.ell1):
                assignment.update(scheme.m1_space.unflatten(m1_flat))
                degenerate += ref_walk(scheme, 1, x1, assignment, cr_weight * p_m1, cond, [x1_flat])
    assert all(sum(row.ravel()) == 1 for row in cond)
    return cond, degenerate


def _assert_exact_matches(got, want):
    """got's law is want's rationals rounded once per cell, and its degenerate count equal."""
    cond, degenerate = want
    assert np.array_equal(got.conditional, np.vectorize(float, otypes=[float])(cond))
    assert got.degenerate_paths == degenerate


def _stack(rows):
    """(blocks (R, n), integer-array assignment (R,)) of per-row (block, assignment)."""
    return (np.stack([block for block, *_ in rows]),
            {c: np.array([a[c] for _, a, *_ in rows]) for c in rows[0][1]})


def _assert_stack_matches(posterior, rows):
    """One stacked posterior call equals the per-row references (block, assignment, want, deg)."""
    got, got_deg = posterior(*_stack(rows))
    assert np.array_equal(got, np.array([want for *_, want, _ in rows]))
    assert got_deg.tolist() == [deg for *_, deg in rows]


def per_row(ref):
    """A per-block reference posterior applied row by row to a stack of blocks."""
    def posterior(scheme, *args):
        *head, blocks, assignment = args
        if blocks.ndim == 1:
            return ref(scheme, *args)
        out = [ref(scheme, *head, block, {c: int(v[r]) for c, v in assignment.items()})
               for r, block in enumerate(blocks)]
        return np.array([p for p, _ in out]), np.array([deg for _, deg in out])
    return posterior


def _block_sizes(cb):
    return tuple(a.size ** cb.n for a in cb.spec.network.alphabets)


def _piecing_cells(cb):
    """The block cells piecing_check needs per distinct codeword tuple: its x1 row and,
    per hop j, one |X_{j-1}|^n x |X_j|^n matrix for every (k+, k-, l)."""
    sizes = _block_sizes(cb)
    return sizes[0] + sum(cb.sizes[k_plus(j - 1)] * cb.sizes[k_minus(j - 1)] * cb.sizes[l_of(j)]
                          * sizes[j - 2] * sizes[j - 1] for j in range(2, cb.h + 1))


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=_ids)
class TestBitIdentity:
    def test_codebooks(self, case, monkeypatch):
        exp, _, cb = _setup(*case)
        monkeypatch.setattr(codebooks, "_draw_book", ref_draw_book)
        ref = build_codebooks(exp.spec, exp.rates, cb.n, SEED)
        assert same_books(cb, ref)

    def test_node1_posterior(self, case):
        _, mode, cb = _setup(*case)
        scheme = Scheme(cb, mode)
        h = cb.h
        cr_spaces = ([(m_minus(p), cb.sizes[m_minus(p)]) for p in order_pairs(h)]
                     + [(k_minus(i), cb.sizes[k_minus(i)]) for i in range(1, h)]
                     + [(m_plus(p), cb.sizes[m_plus(p)]) for p in order_pairs(h) if p[0] != 1])
        rows = []
        for x1 in _blocks(cb.spec.network.alphabets[0].size, cb.n):
            for assignment in _assignments(cr_spaces):
                assignment.update({k_plus(i): 0 for i in range(1, h)})
                got, got_deg = scheme.node1_posterior(x1, assignment)
                want, want_deg = ref_node1_posterior(scheme, x1, assignment)
                assert np.array_equal(got, want) and got_deg == want_deg
                rows.append((x1, assignment, want, want_deg))
        _assert_stack_matches(scheme.node1_posterior, rows)

    def test_k_posterior(self, case):
        _, mode, cb = _setup(*case)
        scheme = Scheme(cb, mode)
        h = cb.h
        for i in range(1, h):
            spaces = _pair_spaces(cb) + [(k_minus(i), cb.sizes[k_minus(i)])]
            rows = []
            for x_block in _blocks(cb.spec.network.alphabets[i - 1].size, cb.n):
                for assignment in _assignments(spaces):
                    got, got_deg = scheme.k_posterior(i, x_block, assignment)
                    want, want_deg = ref_k_posterior(scheme, i, x_block, assignment)
                    assert np.array_equal(got, want) and got_deg == want_deg
                    rows.append((x_block, assignment, want, want_deg))
            _assert_stack_matches(functools.partial(scheme.k_posterior, i), rows)

    def test_exact_walk(self, case):
        _, mode, cb = _setup(*case)
        _assert_exact_matches(exact_induced(cb, mode), ref_exact_conditional(cb, mode))

    def test_posterior_stacks(self, case, stack_log):
        """The posteriors exact_induced selects from (node 1's over every root (cr, x1),
        and where K+ is selected hop i's over every (g, x_i)) are Scheme.node1_posterior's
        and Scheme.k_posterior's over the same rows, bit for bit, flags included."""
        _, mode, cb = _setup(*case)
        exact_induced(cb, mode)
        scheme = Scheme(cb, mode)
        _assert_stacks_match(scheme, stack_log, scheme.node1_posterior, scheme.k_posterior)

    def test_evaluators(self, case):
        _, _, cb = _setup(*case)
        assert cr_independence(cb) == ref_cr_independence(cb)
        assert abs(piecing_check(cb) - ref_piecing_check(cb)) <= PIECING_ATOL


@pytest.fixture
def stack_log(monkeypatch):
    """Each (posteriors (rows, candidates), degenerate flags (rows,)) that exact_induced
    normalizes, in call order."""
    log = []
    original = evalharness._normalized

    def spy(weights):
        posteriors, flags = original(weights)
        log.append((posteriors.reshape(-1, weights.shape[-1]), flags.ravel()))
        return posteriors, flags

    monkeypatch.setattr(evalharness, "_normalized", spy)
    return log


def _assert_stacks_match(scheme, log, node1_posterior, k_posterior):
    """log holds exact_induced's posterior stacks in call order, per chunk node 1's and
    then one per K+ hop. Joined per selector, node 1's rows are the roots (cr, x1) and
    hop i's the (g, x_i), g = (cr, m1), both lexicographic with the block fastest; they
    must equal node1_posterior(blocks, assignment) and k_posterior(i, blocks, assignment)
    on those rows."""
    keys = [None] + sorted(scheme.k_spaces)
    assert len(log) % len(keys) == 0
    for j, key in enumerate(keys):
        space = IndexSpace(scheme.cr_spaces + list(scheme.m1_space.components) * (key is not None))
        blocks = np.array(list(iproduct(range(scheme.spec.network.alphabets[(key or 1) - 1].size),
                                        repeat=scheme.n)))
        rows = space.unflatten(np.repeat(np.arange(space.size), len(blocks)))
        x = np.tile(blocks, (space.size, 1))
        want, want_flags = node1_posterior(x, rows) if key is None else k_posterior(key, x, rows)
        got = np.concatenate([stack for stack, _ in log[j::len(keys)]])
        assert np.array_equal(got, want)
        assert np.array_equal(np.concatenate([flags for _, flags in log[j::len(keys)]]), want_flags)


@pytest.mark.parametrize("case", [("markov3", "action-dependent", 2), ("copy3", None, 3)],
                         ids=_ids)
def test_exact_induced_matches_reference_posteriors(case, stack_log):
    """exact_induced's posterior stacks equal the one-candidate-at-a-time reference loops."""
    _, mode, cb = _setup(*case)
    exact_induced(cb, mode)
    scheme = Scheme(cb, mode)
    _assert_stacks_match(scheme, stack_log, functools.partial(per_row(ref_node1_posterior), scheme),
                         functools.partial(per_row(ref_k_posterior), scheme))


@pytest.fixture
def chunk_log(monkeypatch):
    """Per _grid_chunks call: (cells per assignment, assignments per chunk)."""
    log = []
    original = evalharness._grid_chunks

    def spy(spaces, cells):
        log.append((cells, [len(next(iter(c.values()))) for c in original(spaces, cells)]))
        return original(spaces, cells)

    monkeypatch.setattr(evalharness, "_grid_chunks", spy)
    return log


class TestChunkBoundaries:
    """Chunks of 1 and 3 assignments, with a partial last chunk, give the same values."""

    @pytest.mark.parametrize("evaluator", ["cr", "piecing"])
    # 1, 80 and 18 pair assignments: copy3 ends on a partial chunk of 2
    @pytest.mark.parametrize("case", [("markov3", None, 2), ("copy3", None, 2), ("dsbs", None, 3)],
                             ids=_ids)
    def test_chunk_sizes(self, case, evaluator, chunk_log, monkeypatch):
        _, _, cb = _setup(*case)
        run, ref = {"cr": (lambda: cr_independence(cb), lambda: ref_cr_independence(cb)),
                    "piecing": (lambda: piecing_check(cb), lambda: ref_piecing_check(cb))}[evaluator]
        want = ref()

        def matches(got):  # piecing sums a chunk in another float order than its reference
            if evaluator == "piecing":
                return abs(got - want) <= PIECING_ATOL
            return np.array_equal(got, want)

        monkeypatch.setattr(evalharness, "GRID_CELLS", 1)
        assert matches(run())
        (cells, chunks), = chunk_log
        assert set(chunks) == {1}
        monkeypatch.setattr(evalharness, "GRID_CELLS", 3 * cells)
        assert matches(run())
        total = math.prod(size for _, size in _pair_spaces(cb))
        assert chunk_log[-1][1] == [3] * (total // 3) + [total % 3] * (total % 3 > 0)

    @pytest.fixture
    def x1_rows(self, monkeypatch):
        """The batch sizes of piecing's x1 factors, one per sub-chunk of distinct tuples."""
        log = []
        original = evalharness._block_product

        def spy(rows):
            if rows.ndim == 3:  # (batch, n, |X1|): hop factors carry two symbol axes
                log.append(len(rows))
            return original(rows)

        monkeypatch.setattr(evalharness, "_block_product", spy)
        return log

    # 1, 5 and 8 distinct tuples in one window: dsbs-control and dsbs end on a partial sub-chunk
    @pytest.mark.parametrize("case, distinct", [(("markov3", None, 2), 1), (("dsbs-control", None, 3), 5),
                                                (("dsbs", None, 3), 8)],
                             ids=["markov3-n2", "dsbs-control-n3", "dsbs-n3"])
    def test_piecing_sub_chunks(self, case, distinct, chunk_log, x1_rows, monkeypatch):
        """Sub-chunks of 3 distinct tuples, with a partial last one, give the same value."""
        _, _, cb = _setup(*case)
        want = ref_piecing_check(cb)
        monkeypatch.setattr(evalharness, "GRID_CELLS", 3 * _piecing_cells(cb))
        assert abs(piecing_check(cb) - want) <= PIECING_ATOL
        (_, windows), = chunk_log
        assert len(windows) == 1  # one window holds every assignment
        assert x1_rows == [3] * (distinct // 3) + [distinct % 3] * (distinct % 3 > 0)

    @pytest.mark.parametrize("chunk", ["one", "three", "sub-three", "default"])
    @pytest.mark.parametrize("case", CASES, ids=_ids)
    def test_piecing_within_tolerance(self, case, chunk, chunk_log, x1_rows, monkeypatch):
        """piecing_check sums a window's distinct codeword tuples, weighted by their
        counts, in one einsum per sub-chunk; at windows of 1 and 3 assignments, at
        sub-chunks of 3 distinct tuples and at the default budget it stays within
        PIECING_ATOL of the per-assignment loop."""
        _, _, cb = _setup(*case)
        want = ref_piecing_check(cb)
        assert abs(piecing_check(cb) - want) <= PIECING_ATOL
        total = math.prod(n for _, n in _pair_spaces(cb))
        if chunk in ("one", "three"):
            (width, _), = chunk_log
            size = {"one": 1, "three": 3}[chunk]
            monkeypatch.setattr(evalharness, "GRID_CELLS", 1 if size == 1 else size * width)
            assert abs(piecing_check(cb) - want) <= PIECING_ATOL
            assert chunk_log[-1][1] == [size] * (total // size) + [total % size] * (total % size > 0)
        elif chunk == "sub-three":
            x1_rows.clear()
            monkeypatch.setattr(evalharness, "GRID_CELLS", 3 * _piecing_cells(cb))
            assert abs(piecing_check(cb) - want) <= PIECING_ATOL
            assert 0 < max(x1_rows) <= 3
            # each window ends on its one sub-chunk that may be partial
            assert sum(rows < 3 for rows in x1_rows) <= len(chunk_log[-1][1])

    @pytest.mark.parametrize("case, distinct, total", [(("dsbs", None, 6), 64, 210),
                                                       (("copy3", None, 4), 16, 1408)],
                             ids=["dsbs-n6", "copy3-n4"])
    def test_piecing_sums_each_distinct_tuple_once(self, case, distinct, total, x1_rows):
        """An assignment's summand reads only its codewords: piecing builds x1 rows
        for the distinct codeword tuples, not for every assignment."""
        _, _, cb = _setup(*case)
        assert math.prod(n for _, n in _pair_spaces(cb)) == total
        piecing_check(cb)
        assert sum(x1_rows) == distinct

    def test_tuples_differing_in_one_c_word_stay_apart(self, x1_rows):
        """Hand-built dsbs books at n=1 whose four assignments read the same A and B
        words: only (m+, m-) = (0, 0) reads C-word 1 at l=1. Its tuple must not merge
        with the other three, whose value the piecing identity would then take."""
        _, _, cb = _setup("dsbs", None, 1)

        def flat(book):
            return Book(book.parents, book.slots, np.zeros_like(book.words))

        def with_c_word(value):
            words = np.zeros_like(cb.c[2].words)
            words[0, 1] = value  # parent (m+, m-, k+, k-) = 0, slot l = 1
            return codebooks.Codebook(cb.spec, cb.rates, cb.n, cb.seed,
                                      {p: flat(book) for p, book in cb.a.items()},
                                      {i: flat(book) for i, book in cb.b.items()},
                                      {2: Book(cb.c[2].parents, cb.c[2].slots, words)}, cb.sizes)

        apart, merged = with_c_word(1), with_c_word(0)
        got = piecing_check(apart)
        assert x1_rows == [2]
        assert abs(got - ref_piecing_check(apart)) <= PIECING_ATOL
        assert abs(got - ref_piecing_check(merged)) > 0.1

    # 1, 8, 6 and 32 common-randomness values: copy3 n=2 ends on a partial chunk at 3 values
    @pytest.mark.parametrize("case", [("markov3", "action-dependent", 2), ("copy3", None, 2),
                                      ("dsbs", None, 3), ("copy3", None, 4)], ids=_ids)
    def test_exact_chunk_sizes(self, case, chunk_log, monkeypatch):
        """Chunks of 1 and 3 common-randomness values, the default budget and one chunk
        of them all give the same law byte for byte, the rational reference's: its
        numerators are integers, so their float64 sums do not depend on the chunking."""
        _, mode, cb = _setup(*case)
        got = exact_induced(cb, mode)
        _assert_exact_matches(got, ref_exact_conditional(cb, mode))
        (cells, chunks), = chunk_log
        total = sum(chunks)
        for budget, sizes in [(1, [1] * total), (3 * cells, [3] * (total // 3) + [total % 3] * (total % 3 > 0)),
                              (1 << 20, [total])]:
            monkeypatch.setattr(evalharness, "GRID_CELLS", budget)
            again = exact_induced(cb, mode)
            assert again.conditional.tobytes() == got.conditional.tobytes()
            assert again.degenerate_paths == got.degenerate_paths
            assert chunk_log[-1][1] == sizes


@pytest.fixture
def array_log(monkeypatch):
    """The cells of the largest array each chunk step of exact_induced takes, makes or
    returns, as (step, cells) in call order. A selection ("stack") gathers its kernel rows
    (rows, candidates, n, |X|) and makes posteriors and widths (rows, blocks, candidates);
    a hop's "hits" looks up C-words (g, k+, l, n) and counts them (g, k+, blocks); a
    "contract" sub-chunk reads the chunk's whole factors and makes a prefix per hop. The
    law-sized result of a contraction is the output's size, not a chunk's, and is left out."""
    log = []
    select, hits, contract = evalharness._selection_widths, evalharness._hits, evalharness._contract

    def select_spy(scheme, kernel, letters, ell):
        widths, flags = select(scheme, kernel, letters, ell)
        gather = math.prod(np.broadcast_shapes(*(np.shape(w) for w in letters))) * kernel.shape[-1]
        log.append(("stack", max(gather, widths.size)))
        return widths, flags

    def hits_spy(scheme, i, g):
        out = hits(scheme, i, g)
        log.append(("hits", max(out.size, out.shape[0] * out.shape[1] * scheme.cb.sizes[l_of(i + 1)] * scheme.n)))
        return out

    def contract_spy(factors):
        cells, prefix = [f.size if f.base is None else f.base.size for f in factors], factors[0].size
        for factor in factors[1:-1]:
            prefix *= factor.shape[1]
            cells.append(prefix)
        log.append(("contract", max(cells)))
        return contract(factors)

    monkeypatch.setattr(evalharness, "_selection_widths", select_spy)
    monkeypatch.setattr(evalharness, "_hits", hits_spy)
    monkeypatch.setattr(evalharness, "_contract", contract_spy)
    return log


class TestExactBudget:
    """Each exact_induced chunk stays within GRID_CELLS: a chunk of common-randomness
    values builds its factors, every m1 with each value (sized by _shared_cells), and
    contracts them in sub-chunks of rows g whose prefix over x1..x_{h-1} fits."""

    # the preset x mode pairs of the exact golden fixtures, at the benchmark's n for
    # dsbs (6) and copy3 (4); (chunks, sub-chunks) where pinned
    @pytest.mark.parametrize("case, chunks", [pytest.param(case, chunks, id=_ids(case)) for case, chunks in [
        (("dsbs", None, 2), None),
        (("dsbs", None, 6), (3, 3)),  # 30 values of 7 rows g, node 1's stacks 7 x 7 x 64 cells a value
        (("dsbs-control", None, 3), None), (("indep-uniform", None, 3), None), (("copy3", None, 2), None),
        (("copy3", None, 4), (6, 16)),  # 32 values of 44 rows g, 6 a chunk; 128 rows of 256 prefix cells
        (("markov3", None, 2), None), (("markov3", None, 4), (1, 1)),
        (("markov3", "action-dependent", 3), None)]])
    def test_chunks_within_budget(self, case, chunks, array_log, chunk_log, monkeypatch):
        """At the default budget and at 3 common-randomness values' cells."""
        _, mode, cb = _setup(*case)
        exact_induced(cb, mode)
        assert {step for step, _ in array_log} >= {"stack", "hits", "contract"}
        assert max(cells for _, cells in array_log) <= evalharness.GRID_CELLS
        (cells, windows), = chunk_log
        assert chunks is None or (len(windows), sum(step == "contract" for step, _ in array_log)) == chunks
        monkeypatch.setattr(evalharness, "GRID_CELLS", 3 * cells)
        array_log.clear()
        exact_induced(cb, mode)
        assert max(cells for _, cells in array_log) <= evalharness.GRID_CELLS

    def test_k_plus_fan_out_below_its_range(self, array_log, chunk_log, monkeypatch):
        """markov3 at n=3 with k+ seed ranges of 2 below its 22 candidates: the law is the
        rational reference's at the default budget, at 3 chunks' cells and at GRID_CELLS
        1, and every chunk stays within the budget where one row fits."""
        _, mode, cb = _setup("markov3", None, 3)
        monkeypatch.setattr(codec, "hop_selector_rate", lambda spec, rates, i: 1 / 3 - codec.SEED_MARGIN)
        scheme = Scheme(cb, mode)
        assert all(scheme.ell_k[i] == 2 < space.size for i, space in scheme.k_spaces.items())
        want = ref_exact_conditional(cb, mode)
        _assert_exact_matches(exact_induced(cb, mode), want)
        assert max(cells for _, cells in array_log) <= evalharness.GRID_CELLS
        for budget in (3 * chunk_log[0][0], 1):
            monkeypatch.setattr(evalharness, "GRID_CELLS", budget)
            _assert_exact_matches(exact_induced(cb, mode), want)


class TestDenominator:
    """exact_induced's numerators are exact in float64 while D <= 2^53; above it the
    evaluation is refused as a cap error (exit 4) before any factor is built."""

    @staticmethod
    def _seed_ranges(monkeypatch, bits):
        """markov3 n=3 with each k+ seed range 2^bits; returns the codebook, mode and D."""
        _, mode, cb = _setup("markov3", None, 3)
        monkeypatch.setattr(codec, "hop_selector_rate", lambda spec, rates, i: bits / 3 - codec.SEED_MARGIN)
        scheme = Scheme(cb, mode)
        assert [scheme.ell_k[i] for i in sorted(scheme.k_spaces)] == [2 ** bits] * 2
        return cb, mode, scheme.ell1 * 2 ** (2 * bits) * cb.sizes[l_of(2)] * cb.sizes[l_of(3)]

    def test_above_2_53_is_a_cap_error(self, monkeypatch):
        cb, mode, denominator = self._seed_ranges(monkeypatch, 26)
        assert denominator > 2 ** 53
        with pytest.raises(ResourceCapError, match=rf"D = {denominator} is above 2\^53"):
            exact_induced(cb, mode)

    def test_exact_exits_4(self, tmp_path, monkeypatch):
        cb, _, denominator = self._seed_ranges(monkeypatch, 26)
        cfg = preset_config("markov3")
        cfg.update(n=[3], codebook_seeds=[SEED])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["exact", "--config", str(path), "--out", str(tmp_path)]) == 4
        error = json.loads((tmp_path / "report.json").read_text())["error"]
        assert f"D = {denominator}" in error and "2^53" in error

    def test_below_2_53_stays_exact(self, monkeypatch):
        """Seed ranges of 2^23 put D near 2^50.8: the law is still the rational one."""
        cb, mode, denominator = self._seed_ranges(monkeypatch, 23)
        assert 2 ** 50 < denominator <= 2 ** 53
        _assert_exact_matches(exact_induced(cb, mode), ref_exact_conditional(cb, mode))


@st.composite
def small_schemes(draw):
    """A random small line scheme: h from 2 to 4 binary nodes, a target with zero cells
    (their posteriors are degenerate), a mode, and for each A and B a constant, copy or
    channel kernel of an action, as far as the mode allows, with rates at which the
    rational reference walks at most a few thousand paths. low_ell puts every K+ seed
    range at 2, below its candidates. Returns (spec, rates, mode, n, low_ell)."""
    h, n = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    mode = draw(st.sampled_from(list(Mode)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    target = rng.integers(0, 4, size=(2,) * h).astype(float)
    assume(target.sum() > 0)

    def kernel(allowed):
        kind = draw(st.sampled_from(["constant", "copy", "channel"] if allowed else ["constant"]))
        source = x_label(draw(st.integers(1, h)))
        return {"constant": CONSTANT, "copy": copy_of(source),
                "channel": channel_of([source], rng.dirichlet(np.ones(2), size=2), 2)}[kind]

    pairs = [p for p in order_pairs(h) if p[0] == 1 or mode.schedule.ships_crossing_pairs]
    hops = range(1, h) if mode.schedule.selects_k else ()
    spec = aux_from_tags(make_network(h, target / target.sum()), a_tags={p: kernel(p in pairs) for p in order_pairs(h)},
                         b_tags={i: kernel(i in hops) for i in range(1, h)})
    rate = st.sampled_from([0.0, 0.5, 1.0])
    rates = CodebookRates.for_network(
        h, mu_plus={p: draw(rate) for p in pairs}, mu_minus={p: draw(rate) for p in pairs},
        kappa_plus={i: draw(st.sampled_from([0.0, 1.0, 1.5])) for i in hops},
        kappa_minus={i: draw(rate) for i in hops}, lam={i: draw(rate) for i in range(2, h + 1)})
    low_ell = bool(hops) and draw(st.booleans())
    assume(2 ** (h * n) * math.prod(codebooks.component_sizes(spec, rates, n).values()) <= 1 << 14)
    return spec, rates, mode, n, low_ell


def _low_ell_chain():
    """A 3-node BSC chain in unrestricted mode, B copying the next action, with low_ell."""
    spec = aux_from_tags(bsc_chain_network(3, 0.25), b_tags={1: copy_of("X2"), 2: copy_of("X3")})
    return (spec, CodebookRates.for_network(3, kappa_plus={1: 1.5, 2: 1.5}, lam={2: 0.5, 3: 0.5}),
            Mode.UNRESTRICTED, 2, True)


def _degenerate_relays():
    """A 3-node chain, X1 = 0 with probability 0.8 and each hop keeping its symbol with
    0.7, whose B_i copy X_i, in unrestricted mode at n=2 with 2 k+ candidates among 4
    blocks: where no B-word is x_i a relay's K+ posterior is degenerate, and hop 2's
    are met by several paths of unequal seed widths (8 degenerate paths in all)."""
    flip = np.array([[0.7, 0.3], [0.3, 0.7]])
    spec = aux_from_tags(make_network(3, np.einsum("a,ab,bc->abc", [0.8, 0.2], flip, flip)),
                         b_tags={1: copy_of("X1"), 2: copy_of("X2")})
    return (spec, CodebookRates.for_network(3, kappa_plus={1: 0.5, 2: 0.5}, lam={2: 0.5, 3: 0.5}),
            Mode.UNRESTRICTED, 2, False)


class TestRandomSchemes:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=small_schemes())
    @example(case=_low_ell_chain())
    @example(case=_degenerate_relays())
    def test_equals_rational_reference(self, case):
        """exact_induced is the rational reference's law rounded once per cell, with the
        same degenerate-path count, at the default budget and at GRID_CELLS 1."""
        spec, rates, mode, n, low_ell = case
        cb = build_codebooks(spec, rates, n, SEED)
        seed_rate = (lambda spec, rates, i: 1 / n - codec.SEED_MARGIN) if low_ell else codec.hop_selector_rate
        with mock.patch.object(codec, "hop_selector_rate", seed_rate):
            scheme = Scheme(cb, mode)
            assert not low_ell or all(scheme.ell_k[i] == 2 for i in scheme.k_spaces)
            got = exact_induced(cb, mode)
            _assert_exact_matches(got, ref_exact_conditional(cb, mode))
            with mock.patch.object(evalharness, "GRID_CELLS", 1):
                assert exact_induced(cb, mode).conditional.tobytes() == got.conditional.tobytes()


class TestMemory:
    """Chunked grids keep the working set near the cell budget: an unchunked
    piecing batch on copy3 at n=4 (1,408 assignments x 4,096 cells) would
    take about 46 MB. Measured peaks at GRID_CELLS 2^15: piecing_check 1.67
    budgets (its window of 1,408 keys and 16 distinct tuples) and exact_induced
    2.44 (chunks of 6 common-randomness values, 264 rows g, each value sized by
    its node-1 selection counted seven times); the posterior stacks and
    selections fill no cache. A budget grows with GRID_CELLS, so REQUEST_BYTES
    bounds a whole exact request in bytes: its measured peaks are 0.78 MiB on
    copy3 at n=4, 0.64 MiB on dsbs at n=6 and 0.50 MiB on markov3 at n=4, 22%,
    36% and 50% below the bound; at GRID_CELLS 2^16 they are 1.24, 1.30 and
    0.50 MiB, the first two above it."""

    BOUND = 10  # multiples of GRID_CELLS float64 cells (GRID_CELLS * 8 bytes)
    REQUEST_BYTES = 1 << 20  # 1 MiB

    @pytest.fixture(scope="class")
    def copy3(self):
        return _setup("copy3", None, 4)

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_piecing_check(self, copy3):
        _, _, cb = copy3
        assert self._peak(lambda: piecing_check(cb)) < self.BOUND * evalharness.GRID_CELLS * 8

    def test_exact_induced(self, copy3):
        _, mode, cb = copy3
        assert self._peak(lambda: exact_induced(cb, mode)) < self.BOUND * evalharness.GRID_CELLS * 8

    @pytest.mark.parametrize("preset, n", [("copy3", 4), ("dsbs", 6), ("markov3", 4)])
    def test_exact_request(self, tmp_path, preset, n):
        """One exact request: codebook build, exact law, CR independence and piecing. markov3
        runs unrestricted, the one preset mode that selects K+."""
        cfg = preset_config(preset)
        cfg.update(n=[n], codebook_seeds=[SEED])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["exact", "--config", str(path), "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(argv) == 0  # first-call set-up is not the request's working set
            assert self._peak(lambda: run_command(argv)) < self.REQUEST_BYTES

    def test_draw_book_decodes_one_stream_block_at_a_time(self, monkeypatch):
        exp = Experiment(preset_config("copy3"))
        seen = []
        original = codebooks._stratified_blocks

        def spy(u, letter_probs):
            seen.append(len(u))
            return original(u, letter_probs)

        monkeypatch.setattr(codebooks, "_stratified_blocks", spy)
        cb = build_codebooks(exp.spec, exp.rates, 4, SEED)
        assert max(seen) <= STREAM_BLOCK_ROWS
        assert sum(seen) == sum(book.parents.size for family in (cb.a, cb.b, cb.c)
                                for book in family.values())
        assert max(seen) == STREAM_BLOCK_ROWS  # copy3 at n=4 has books of more parents


class TestSearchRight:
    def test_matches_searchsorted_on_ties(self):
        rng = np.random.default_rng(0)
        cum = codebooks._cum_rows(rng.dirichlet(np.ones(4), size=6))
        cum[1] = [0.25, 0.5, 0.5, 1.0]
        u = rng.random((6, 9))
        u[:, :4] = cum[:, :4]  # keys equal to entries
        want = np.array([np.searchsorted(c, x, side="right") for c, x in zip(cum, u)])
        assert np.array_equal(codebooks._search_right(cum, u), want)

    def test_running_sum_above_one_keeps_the_row_sorted(self):
        # the running sum of this row is 1.0000000000000002 at its third entry
        probs = np.array([9, 18, 1, 0]) / 28
        assert np.cumsum(probs)[2] > 1.0
        cum = codebooks._cum_rows(probs[None])
        assert np.all(np.diff(cum) >= 0) and cum[0, -1] == 1.0
        # the largest first-letter quantile decodes to a symbol of positive mass
        words = codebooks._stratified_blocks(np.array([[1.0, 0.5]]), probs[None, None])
        assert probs[words[0, 0, 0]] > 0 and words[0, 0, 0] == 2


class TestArrayIndices:
    SPACE = IndexSpace([(m_plus((1, 2)), 3), (m_minus((1, 2)), 4)])

    def test_array_flatten_matches_int_flatten(self):
        grid = self.SPACE.unflatten(np.arange(self.SPACE.size))
        flat = self.SPACE.flatten(grid)
        assert flat.tolist() == [self.SPACE.flatten(self.SPACE.unflatten(i))
                                 for i in range(self.SPACE.size)]

    def test_unflatten_leaves_its_argument_alone(self):
        idx = np.arange(self.SPACE.size)
        self.SPACE.unflatten(idx)
        assert idx.tolist() == list(range(self.SPACE.size))

    @pytest.mark.parametrize("value", [7, -1, np.array([0, 2, 7, 1]), np.array([[0], [-1]])])
    def test_out_of_range_raises_usage_error(self, value):
        bad = np.ravel(value)[(np.ravel(value) < 0) | (np.ravel(value) >= 4)][0]
        with pytest.raises(UsageError, match=rf"index \('m-', 1, 2\) = {bad} out of range \[0, 4\)"):
            self.SPACE.flatten({m_plus((1, 2)): 0, m_minus((1, 2)): value})

    @pytest.mark.parametrize("value", [1.0, np.float64(1.0), np.array([0.0, 2.0]), "1",
                                       np.array([True, False])])
    def test_non_integer_raises_usage_error(self, value):
        with pytest.raises(UsageError, match=r"index \('m-', 1, 2\) = .* is not an integer"):
            self.SPACE.flatten({m_plus((1, 2)): 0, m_minus((1, 2)): value})

    @pytest.mark.parametrize("value,want", [(np.int64(3), 7), (np.int32(3), 7),
                                            (np.array([3, 0], dtype=np.uint8), [7, 4])])
    def test_numpy_integers_are_indices(self, value, want):
        assert np.array(self.SPACE.flatten({m_plus((1, 2)): 1, m_minus((1, 2)): value})).tolist() == want

    def test_in_range_array_after_bad_int_component(self):
        with pytest.raises(UsageError, match=r"= 3 out of range \[0, 3\)"):
            self.SPACE.flatten({m_plus((1, 2)): 3, m_minus((1, 2)): np.arange(4)})


class TestHistograms:
    """mc_coordination_tv's block and per-letter (PROXY) histograms against a loop
    that counts one trace at a time."""

    @staticmethod
    def ref_tvs(exp, n, trials, cb_seeds, seed, proxy):
        net = exp.spec.network
        sizes = [a.size for a in net.alphabets]
        tvs = []
        for cb_seed in cb_seeds:
            cb = build_codebooks(exp.spec, exp.rates, n, cb_seed)
            run = codec.run_scheme(cb, exp.mode, trials, seed + cb_seed)
            if run.degenerate_trials:
                continue
            if proxy:
                hist = np.zeros(tuple(sizes))
                for tr in run.traces:
                    blocks = [tr.actions[x] for x in net.x_labels]
                    for t in range(n):
                        hist[tuple(b[t] for b in blocks)] += 1.0
                hist /= hist.sum()
                target = net.target.weights
            else:
                hist = np.zeros(tuple(s ** n for s in sizes))
                for tr in run.traces:
                    hist[tuple(ref_block_encode(tr.actions[x], s)
                               for x, s in zip(net.x_labels, sizes))] += 1.0
                hist /= trials
                target = evalharness.target_block_tensor(net, n)
            tvs.append(float(np.abs(hist - target).sum()))
        return tvs

    # under the caps, the codebooks fit and the block histogram does not
    @pytest.mark.parametrize("preset,n,cap", [("dsbs", 3, None), ("copy3", 2, None),
                                              ("dsbs-control", 4, "200"), ("markov3", 3, "300")])
    def test_matches_per_trace_loop(self, preset, n, cap, monkeypatch):
        if cap:
            monkeypatch.setenv("COORDLINE_CAP", cap)
        exp = Experiment(preset_config(preset))
        rep = evalharness.mc_coordination_tv(exp.spec, exp.rates, exp.mode, n, 300, [1, 2], seed=5)
        assert rep.proxy == bool(cap)
        assert rep.tv_per_seed
        assert rep.tv_per_seed == self.ref_tvs(exp, n, 300, [1, 2], 5, rep.proxy)
