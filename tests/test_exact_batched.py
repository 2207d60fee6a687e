"""The batched exact paths against per-assignment reference loops.

Codebook draws, node-1 and K+ posteriors, the staircase selections of the
exact walk, the walk itself, the allied joint, the CR independence score, the
piecing check and the Monte Carlo histograms evaluate whole index grids at once.
Each must equal, bit for bit, the loop that visits one index assignment at a
time; the loops below are that reference. Equality is asserted with
np.array_equal or ==, never a tolerance, except for the piecing check: it sums
each chunk's assignments in one einsum, in another float order than the loop,
and must match it within PIECING_ATOL.
"""
import contextlib
import functools
import io
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

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
from coordline.errors import UsageError
from coordline.evalharness import _allied_joint, cr_independence, exact_induced, piecing_check
from coordline.linestruct import a_label, b_label, c_label, order_pairs, psi, x_label
from coordline.presets import preset_config
from coordline.probability import condition, marginalize, pmf_weights
from coordline.rates import Mode

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


def ref_allied_joint(cb, block_sizes):
    spec, h, n = cb.spec, cb.h, cb.n
    a_axes = [a_label(p) for p in order_pairs(h)]
    kernel = condition(marginalize(spec.joint, a_axes + list(spec.network.x_labels)), a_axes)
    spaces = _pair_spaces(cb)
    total = math.prod(size for _, size in spaces)
    out = np.zeros(block_sizes)
    for assignment in _assignments(spaces):
        rows = kernel.weights[tuple(cb.a_codeword(p, assignment) for p in order_pairs(h))]
        block = rows[0]
        for t in range(1, n):
            block = np.multiply.outer(block, rows[t])
        perm = [t * h + a for a in range(h) for t in range(n)]
        out += np.transpose(block, perm).reshape(block_sizes) / total
    return out


def ref_cr_independence(cb):
    spec, h, n = cb.spec, cb.h, cb.n
    psi1_pairs = sorted(psi(h, 1))
    a_psi1 = [a_label(q) for q in psi1_pairs]
    kernel = condition(marginalize(spec.joint, a_psi1 + [x_label(1)]), a_psi1)
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
    x1_kernel = condition(marginalize(spec.joint, a_axes + [x_label(1)]), a_axes)
    pair_kernels = {}
    for j in range(2, h + 1):
        giv = a_axes + [b_label(j - 1), c_label(j)]
        pair_kernels[j] = condition(marginalize(spec.joint, giv + [x_label(j - 1), x_label(j)]), giv)
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
    """One table's cuts: floor(cumsum * ell / total) in float64, the last cut ell when
    the support holds every positive weight, and the rational cuts of the snapped
    weights when any other scaled cumulative is within ell * size * 2e-12 of an integer."""
    scaled = np.cumsum(weights[support]) * ell / weights.sum()
    near = np.abs(scaled - np.rint(scaled)) <= ell * len(weights) * 2e-12
    if np.count_nonzero(weights[support]) == np.count_nonzero(weights):
        scaled[-1], near[-1] = ell, False
    if not near.any():
        return [0] + np.floor(scaled).astype(np.int64).tolist()
    snapped = [Fraction(float(w)).limit_denominator(10 ** 12) for w in weights]
    total = sum(snapped)
    cuts, cum = [0], Fraction(0)
    for b in support:
        cum += snapped[b] / total
        cuts.append(math.floor(cum * ell))
    return cuts


def ref_selection_table(posterior, ell):
    """One posterior's staircase selection, one support size at a time: the support
    (the candidates by descending mass, ties by index, cut to the first prefix whose
    certificate beats every shorter one by 1e-15) and the induced array."""
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
    cuts = ref_staircase_cuts(pmf_weights(posterior, normalize=True), support, ell)
    edges = cuts[:-1] + [ell]
    induced = np.zeros(count)
    for b, lo, hi in zip(support, edges, edges[1:]):
        induced[b] = max(hi - lo, 0) / ell
    return support, induced


def ref_selector_law(posterior, ell):
    _, induced = ref_selection_table(posterior, ell)
    return [(int(v), induced[v]) for v in np.nonzero(induced)[0]]


def ref_walk(scheme, node, x_prev, assignment, prob, cond, prefix):
    """Recurse down the line from `node` (the hop node->node+1), adding the mass of
    every reachable action tuple to cond; returns the degenerate posteriors met."""
    cb, h = scheme.cb, scheme.h
    degenerate = 0
    k_options = [(0, 1.0)]
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
    """exact_induced's (conditional, degenerate_paths) by the depth-first walk over
    one dict assignment at a time, selecting through ref_selection_table."""
    scheme = Scheme(cb, mode)
    h, n = cb.h, cb.n
    sizes = [a.size for a in cb.spec.network.alphabets]
    cond = np.zeros(tuple(s ** n for s in sizes))
    degenerate = 0
    cr_spaces = ([(m_minus(p), cb.sizes[m_minus(p)]) for p in order_pairs(h)]
                 + [(k_minus(i), cb.sizes[k_minus(i)]) for i in range(1, h)]
                 + [(m_plus(p), cb.sizes[m_plus(p)]) for p in order_pairs(h) if p[0] != 1])
    cr_weight = 1.0
    for _, size in cr_spaces:
        cr_weight /= size
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
    return cond, degenerate


def _assert_exact_matches(got, want):
    cond, degenerate = want
    assert np.array_equal(got.conditional, cond)
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


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=_ids)
class TestBitIdentity:
    def test_codebooks(self, case, monkeypatch):
        exp, _, cb = _setup(*case)
        monkeypatch.setattr(codebooks, "_draw_book", ref_draw_book)
        ref = build_codebooks(exp.spec, exp.rates, cb.n, SEED)
        assert cb.to_text() == ref.to_text()

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

    def test_evaluators(self, case):
        _, _, cb = _setup(*case)
        sizes = _block_sizes(cb)
        assert np.array_equal(_allied_joint(cb, sizes), ref_allied_joint(cb, sizes))
        assert cr_independence(cb) == ref_cr_independence(cb)
        assert abs(piecing_check(cb) - ref_piecing_check(cb)) <= PIECING_ATOL


@pytest.mark.parametrize("case", [("markov3", "action-dependent", 2), ("copy3", None, 3)],
                         ids=_ids)
def test_exact_induced_matches_reference_posteriors(case, monkeypatch):
    _, mode, cb = _setup(*case)
    got = exact_induced(cb, mode)
    monkeypatch.setattr(Scheme, "node1_posterior", per_row(ref_node1_posterior))
    monkeypatch.setattr(Scheme, "k_posterior", per_row(ref_k_posterior))
    want = exact_induced(cb, mode)
    assert np.array_equal(got.conditional, want.conditional)
    assert np.array_equal(got.x1_marginal, want.x1_marginal)
    assert got.degenerate_paths == want.degenerate_paths


class TestChunkBoundaries:
    """Chunks of 1 and 3 assignments, with a partial last chunk, give the same values."""

    @pytest.fixture
    def chunk_log(self, monkeypatch):
        log = []
        original = evalharness._grid_chunks

        def spy(spaces, cells):
            log.append((cells, [len(next(iter(c.values()))) for c in original(spaces, cells)]))
            return original(spaces, cells)

        monkeypatch.setattr(evalharness, "_grid_chunks", spy)
        return log

    @pytest.mark.parametrize("evaluator", ["allied", "cr", "piecing"])
    # 1, 80 and 18 pair assignments: copy3 ends on a partial chunk of 2
    @pytest.mark.parametrize("case", [("markov3", None, 2), ("copy3", None, 2), ("dsbs", None, 3)],
                             ids=_ids)
    def test_chunk_sizes(self, case, evaluator, chunk_log, monkeypatch):
        _, _, cb = _setup(*case)
        sizes = _block_sizes(cb)
        run, ref = {"allied": (lambda: _allied_joint(cb, sizes), lambda: ref_allied_joint(cb, sizes)),
                    "cr": (lambda: cr_independence(cb), lambda: ref_cr_independence(cb)),
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

    @pytest.mark.parametrize("chunk", ["one", "three", "default"])
    @pytest.mark.parametrize("case", CASES, ids=_ids)
    def test_piecing_within_tolerance(self, case, chunk, chunk_log, monkeypatch):
        """piecing_check contracts a chunk's assignments in one einsum; at chunks of 1
        and 3 assignments and at the default budget it stays within PIECING_ATOL of the
        per-assignment loop."""
        _, _, cb = _setup(*case)
        want = ref_piecing_check(cb)
        assert abs(piecing_check(cb) - want) <= PIECING_ATOL
        if chunk != "default":
            (cells, _), = chunk_log
            size = {"one": 1, "three": 3}[chunk]
            monkeypatch.setattr(evalharness, "GRID_CELLS", 1 if size == 1 else size * cells)
            assert abs(piecing_check(cb) - want) <= PIECING_ATOL
            total = math.prod(n for _, n in _pair_spaces(cb))
            assert chunk_log[-1][1] == [size] * (total // size) + [total % size] * (total % size > 0)


    # 4, 32 and 48 (x1 block, shared index) rows: markov3 and copy3 end on a partial chunk
    @pytest.mark.parametrize("case", [("markov3", "action-dependent", 2), ("copy3", None, 2),
                                      ("dsbs", None, 3)], ids=_ids)
    def test_exact_walk_chunk_sizes(self, case, chunk_log, monkeypatch):
        _, mode, cb = _setup(*case)
        want = ref_exact_conditional(cb, mode)
        monkeypatch.setattr(evalharness, "GRID_CELLS", 1)
        _assert_exact_matches(exact_induced(cb, mode), want)
        (cells, chunks), = chunk_log
        assert set(chunks) == {1}
        total = len(chunks)
        monkeypatch.setattr(evalharness, "GRID_CELLS", 3 * cells)
        _assert_exact_matches(exact_induced(cb, mode), want)
        assert chunk_log[-1][1] == [3] * (total // 3) + [total % 3] * (total % 3 > 0)


class TestMemory:
    """Chunked grids keep the working set near the cell budget: an unchunked
    piecing batch on copy3 at n=4 (1,408 assignments x 4,096 cells) would
    take about 46 MB. Measured peaks at GRID_CELLS 2^15: piecing_check 2.0 and
    exact_induced 1.05 budgets; the walk's stacked posteriors and selections
    fill no cache. A budget grows with GRID_CELLS, so REQUEST_BYTES bounds a
    whole exact request in bytes: its measured peaks are 0.77 MiB on copy3 at
    n=4 and 0.60 MiB on dsbs at n=6, 24% and 40% below the bound; at GRID_CELLS
    2^16 they are 1.11 and 1.26 MiB, above it."""

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

    @pytest.mark.parametrize("preset, n", [("copy3", 4), ("dsbs", 6)])
    def test_exact_request(self, tmp_path, preset, n):
        """One exact request: codebook build, walk, CR independence and piecing."""
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
