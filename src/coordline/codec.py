"""The action-generation and strong-coordination schemes over a realized codebook.

Monte Carlo runs the scheme as one walk (walk) over all of a run's trials: node 1
selects m1 from its posterior given its action block, then each hop i selects
K_i+ when the mode's schedule does, draws node i+1's local index l and reads
node i+1's action as its C-codeword. Every selection goes through an exact
posterior (Scheme.node1_posterior, Scheme.k_posterior): its integer likelihoods,
products of the kernel numerators Scheme snaps once, which the stacked staircase
tables (Scheme.selection) cut exactly. Both are built once per distinct root state
of the run (the selecting node's action block and the indices drawn before it, a
superset of what its posterior reads), STREAM_BLOCK_ROWS roots to a stack. Seeds,
l's and X1 are still drawn per trial, and each trial's seed maps through its root's
row. The walk's arrays make a SchemeRun, the run as arrays; no per-trial object is
built. Exact evaluation (evalharness.exact_induced) builds the same posteriors and
tables for every root and hop state at once, and contracts their seed widths.

Randomness is metered: uniform draws cost ceil(log2 range) bits, posterior
selections cost ceil(log2 ell) bits of seed, charged to the node the mode's
schedule (rates.ModeSchedule) names.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .codebooks import (
    STREAM_BLOCK_ROWS,
    Codebook,
    IndexSpace,
    _child_rng,
    _cum_rows,
    _iid_blocks,
    codeword_count,
    k_minus,
    k_plus,
    l_of,
    m_minus,
    m_plus,
)
from .errors import UsageError
from .linestruct import (
    AuxSpec,
    a_label,
    b_label,
    c_label,
    order_pairs,
    psi,
    x_label,
)
from .probability import StaircaseTable, condition, integer_kernel, integer_rows, marginalize, staircase_map
from .rates import (
    Mode,
    check_mode_restrictions,
    hop_selector_rate,
    node1_selector_rate,
    resource_map,
    thm1_check,
    thm2_check_all,
)

STREAM_VERSION = 2
"""Layout of the Monte Carlo streams: trials are drawn in blocks of STREAM_BLOCK_ROWS,
one draw call per block and key on the stream (seed, "mc", block, *key)."""


def _bits(size: int) -> int:
    """ceil(log2(size)) in exact integer arithmetic; 0 for a single value."""
    return (int(size) - 1).bit_length()


SEED_MARGIN = 0.5
"""Finite-blocklength slack (bits/symbol) added above each selector's seed-rate
threshold. The seeded-selection guarantee needs the seed rate strictly above
sum(nu) - I; at desk-scale n the strictness has to be material, and half a bit
covers the typicality constants for the alphabets used here. The resource
audit accounts for it explicitly."""


class Scheme:
    """Precomputed tables, selector layout and metering for one (codebook, mode) pair. Its
    likelihood kernels x1_kernel and k_kernels[i] are integer numerators (probability.integer_kernel)."""

    def __init__(self, cb: Codebook, mode: Mode):
        spec, rates, mode = cb.spec, cb.rates, Mode(mode)
        check_mode_restrictions(spec, rates, mode)
        _require_c_equals_action(spec)
        self.cb, self.spec, self.rates, self.mode = cb, spec, rates, mode
        self.schedule = schedule = mode.schedule
        self.n, self.h = cb.n, spec.h
        h, joint = spec.h, spec.joint

        self.order = order_pairs(h)
        self.m1_space = IndexSpace([(m_plus((1, j)), cb.sizes[m_plus((1, j))])
                                    for j in range(2, h + 1)])
        # the hops whose K+ is selected, each with its candidate space
        self.k_spaces = {i: IndexSpace([(k_plus(i), cb.sizes[k_plus(i)])]) for i in range(1, h)
                         if schedule.selects_k and cb.sizes[k_plus(i)] > 1}
        # the shared indices and the pairs nodes > 1 draw uniformly
        self.cr_spaces = ([(m_minus(p), cb.sizes[m_minus(p)]) for p in self.order]
                          + [(k_minus(i), cb.sizes[k_minus(i)]) for i in range(1, h)]
                          + [(m_plus(p), cb.sizes[m_plus(p)]) for p in self.order if p[0] != 1])
        self.ell1 = codeword_count(self.n, max(node1_selector_rate(spec, rates) + SEED_MARGIN, 0.0))
        self.ell_k = {i: codeword_count(self.n, max(hop_selector_rate(spec, rates, i) + SEED_MARGIN, 0.0))
                      for i in range(1, h)}
        self.x1_kernel = integer_kernel(spec.x_kernels[1].weights, self.n, self.m1_space.size * self.ell1)
        a_all = [a_label(p) for p in self.order]
        self.k_kernels = {i: integer_kernel(condition(joint, a_all + [b_label(i)], [x_label(i)]).weights, self.n,
                                            cb.sizes[k_plus(i)] * self.ell_k[i]) for i in range(1, h)}

        x1_marginal = marginalize(spec.network.target, [x_label(1)]).weights
        self.x1_cum = _cum_rows(np.tile(x1_marginal, (self.n, 1)))
        self.budgets = resource_map(rates, mode, spec)
        # declared per-node allowance: the mode's allocation plus the selector
        # seed slack actually configured at the node paying for each seed
        extra = [0.0] * h
        extra[0] += SEED_MARGIN if self.m1_space.size > 1 else 0.0
        for i in self.k_spaces:
            extra[schedule.k_seed_payer(i) - 1] += SEED_MARGIN
        self.rho_allowance = tuple(self.budgets.rho[i] + extra[i] for i in range(h))

        # hop i's bundle as (name, index component or selector key, range): the
        # mode's m+ pairs, k+_i, and the downstream K+ seeds node 1 pays for
        self.hop_entries = {}
        for i in range(1, h):
            pairs = ([p for p in self.order if p[0] <= i < p[1]] if schedule.ships_crossing_pairs
                     else [(1, j) for j in range(i + 1, h + 1)])
            entries = [(f"m+({p[0]},{p[1]})", m_plus(p), cb.sizes[m_plus(p)]) for p in pairs]
            if schedule.selects_k:
                entries.append((f"k+({i})", k_plus(i), cb.sizes[k_plus(i)]))
            if schedule.node1_pays_k_seeds:
                entries += [(f"seed(k+{j})", ("k", j), self.ell_k[j]) for j in range(i + 1, h)]
            self.hop_entries[i] = entries
        # each metered draw of a trial as (paying node, bits): uniform indices are
        # paid by the node drawing them, selector seeds (keyed ("m1",), ("k", i)) by
        # the node the schedule names
        self.charges = {m_plus(p): (p[0], _bits(cb.sizes[m_plus(p)])) for p in self.order if p[0] != 1}
        self.charges[("m1",)] = (1, _bits(self.ell1))
        self.charges.update({("k", i): (schedule.k_seed_payer(i), _bits(self.ell_k[i]))
                             for i in self.k_spaces})
        self.charges.update({l_of(i): (i, _bits(cb.sizes[l_of(i)])) for i in range(2, h + 1)})

    # -- letter-level likelihoods ------------------------------------------

    def x1_likelihood(self, x1: np.ndarray, assignment) -> int | np.ndarray:
        """Likelihood numerator of x1 at the assignment's psi(1) codewords, per grid point for arrays."""
        letters = [self.cb.a_codeword(q, assignment) for q in sorted(psi(self.h, 1))]
        return _block_likelihood(self.x1_kernel, letters, x1)

    def node1_posterior(self, x1: np.ndarray, assignment) -> tuple[np.ndarray, bool | np.ndarray]:
        """Posterior over the flattened (m+_{1,2..h}) candidates given x1 and m-, as integer
        likelihoods (_flagged); blocks x1 (R, n) with array assignments (R,) give (R, M) rows
        and R degenerate flags."""
        return _flagged(self.x1_likelihood(
            x1[..., None, :], _per_candidate(assignment) | self.m1_space.unflatten(
                np.arange(self.m1_space.size))))

    def k_posterior(self, i: int, x_block: np.ndarray, assignment) -> tuple[np.ndarray, bool | np.ndarray]:
        """Posterior over k_i+ given the node-i action block, all m+-, and k_i-; rows as node1's."""
        grid = _per_candidate(assignment)
        letters = [self.cb.a_codeword(p, grid) for p in self.order]
        letters.append(self.cb.b_codeword(i, grid | {k_plus(i): np.arange(self.cb.sizes[k_plus(i)])}))
        return _flagged(_block_likelihood(self.k_kernels[i], letters, x_block[..., None, :]))

    def selection(self, posteriors: np.ndarray, ell: int) -> StaircaseTable:
        """The staircase tables of a stack (R, M) of posteriors, integer likelihood rows (or float
        pmf rows, see probability.integer_rows), as one stacked table from one staircase_map
        call: row r's support is all M candidates by descending mass, and its cuts for its
        support size m (see _support_sizes), padded with ell, give the size-m table's law."""
        rows = integer_rows(posteriors, ell)
        order, best_m = _support_sizes(rows, ell)
        return staircase_map(rows, order, ell, best_m)


def _per_candidate(assignment) -> dict:
    """The assignment's arrays with a trailing axis, so candidate arrays broadcast against them."""
    return {c: v[..., None] if isinstance(v, np.ndarray) else v for c, v in assignment.items()}


def _block_likelihood(kernel: np.ndarray, letters, block: np.ndarray) -> int | np.ndarray:
    """Block likelihood numerator: kernel[letters, block] multiplied over n, all (..., n) and broadcast."""
    return np.prod(kernel[tuple(letters) + (block,)], axis=-1)


def _flagged(likelihoods: np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
    """Likelihood rows (a posterior's integer numerators) with each zero row made uniform, all
    ones, and flagged degenerate; one flag per row of a stack, a bool for a single row."""
    zero = likelihoods.sum(axis=-1, keepdims=True) == 0
    return np.where(zero, 1, likelihoods), zero[..., 0] if zero.ndim > 1 else bool(zero[0])


def _require_c_equals_action(spec: AuxSpec) -> None:
    """The scheme declares actions as C-codewords, so C_i must equal X_i."""
    for i in range(2, spec.h + 1):
        if spec.aux_alphabets[c_label(i)].size != spec.network.alphabets[i - 1].size:
            raise UsageError(f"scheme requires C{i} alphabet to match X{i}")
        kern = spec.x_kernels[i]
        # each slice given C{i} = c must be the point mass at c, unless it is degenerate
        if not (np.isclose(kern.weights, np.eye(kern.weights.shape[-1]), atol=1e-9).all(-1)
                | kern.degenerate).all():
            raise UsageError(f"scheme requires X{i} = C{i}; found a non-copy kernel slice")


# ---------------------------------------------------------------------------
# Posterior + staircase selection


def _support_sizes(rows: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Each integer row's candidates by descending mass (ties by index) and support size: the
    shortest top-mass prefix minimizing cert_m = 2*eps_m + m/ell, compared exactly as cert_m * ell * T
    = 2*ell*(T - S_m) + m*T (S_m the top m candidates' sum, T the row's total). Only m <= 2*ell is
    scanned: cert_m - cert_1 = (m - 1)/ell - 2*(S_m - S_1)/T, and S_m - S_1 < T."""
    count = min(rows.shape[-1], 2 * ell)
    order = np.argsort(-rows, axis=-1, kind="stable")
    mass = rows[np.arange(len(rows))[:, None], order[:, :count]]
    total = rows.sum(axis=-1, keepdims=True)
    certs = 2 * ell * (total - np.cumsum(mass, axis=-1)) + np.arange(1, count + 1) * total
    return order, np.argmin(certs, axis=-1) + 1


# ---------------------------------------------------------------------------
# Scheme execution


def walk(scheme: Scheme, draw, rows: int) -> tuple[dict, dict]:
    """The scheme on rows Monte Carlo trials at once, each index drawn as an array on its
    stream draw(*key). The paths hold node 1's action blocks "X1" (rows, n), drawn from
    the target marginal, and every index component. Node 1 selects m1; then per hop i,
    node i selects K_i+ when the schedule does, l_{i+1} is drawn, and node i+1's action
    "X{i+1}" is its C-codeword. A selection with key ("m1",) or ("k", i) builds one
    posterior and one staircase row per distinct root state of the rows (the selecting
    node's action block and every index drawn so far, see _root_keys), STREAM_BLOCK_ROWS
    roots to a stack, then draws one seed per row from draw("seed", *key) and maps it
    through its root's cuts, the rows taken in root order stack by stack.
    Returns the paths and, per selector key, (seeds, chosen candidates, degenerate flags)."""
    cb, selected = scheme.cb, {}
    paths = _uniform(draw, rows, scheme.cr_spaces)
    paths["X1"] = _iid_blocks(draw("x1").random((rows, scheme.n)), scheme.x1_cum)

    def select(key, node, ell, space, posterior):
        block, indices = paths[x_label(node)], _indices(paths)
        size = cb.spec.network.alphabets[node - 1].size
        _, first, root = np.unique(_root_keys([(letters, size) for letters in block.T]
                                              + [(v, cb.sizes[c]) for c, v in indices.items()]),
                                   return_index=True, return_inverse=True)
        seeds = draw("seed", *key).integers(1, ell + 1, size=rows)
        chosen, degenerate = np.empty(rows, dtype=np.int64), np.empty(len(first), dtype=bool)
        order = np.argsort(root, kind="stable")
        starts = range(0, len(first), STREAM_BLOCK_ROWS)
        for start, trials in zip(starts, np.split(order, np.searchsorted(root[order], starts[1:]))):
            roots = first[start:start + STREAM_BLOCK_ROWS]
            posteriors, degenerate[start:start + len(roots)] = posterior(
                block[roots], {c: v[roots] for c, v in indices.items()})
            chosen[trials] = scheme.selection(posteriors, ell).map_seed(seeds[trials], root[trials] - start)
        selected[key] = (seeds, chosen, degenerate[root])
        paths.update(space.unflatten(chosen))

    select(("m1",), 1, scheme.ell1, scheme.m1_space, scheme.node1_posterior)
    for node in range(1, scheme.h):
        if node in scheme.k_spaces:
            select(("k", node), node, scheme.ell_k[node], scheme.k_spaces[node],
                   functools.partial(scheme.k_posterior, node))
        else:
            paths[k_plus(node)] = np.zeros(rows, dtype=np.int64)
        paths.update(_uniform(draw, rows, [(l_of(node + 1), cb.sizes[l_of(node + 1)])]))
        paths[x_label(node + 1)] = cb.c_codeword(node + 1, paths)
    return paths, selected


KEY_SPAN = 2 ** 62
"""The largest range a root key may span before _root_keys renumbers it."""


def _root_keys(columns) -> np.ndarray:
    """One int64 key per row, equal exactly where the rows agree on every column: the
    (values, radix) columns, each value in [0, radix), read as the digits of one
    mixed-radix number (np.ravel_multi_index). Before the digits' range would pass
    KEY_SPAN, the digits so far are renumbered through np.unique's inverse into one (and
    so is a column whose radix alone would pass it), which keeps their order, so the keys
    sort as the rows do lexicographically."""
    digits, radices = [np.zeros(len(columns[0][0]), dtype=np.int64)], [1]
    for values, radix in columns:
        radix = int(radix)
        if math.prod(radices) * radix > KEY_SPAN:
            unique, key = np.unique(np.ravel_multi_index(digits, radices), return_inverse=True)
            digits, radices = [key], [len(unique)]
            if len(unique) * radix > KEY_SPAN:
                unique, values = np.unique(values, return_inverse=True)
                radix = len(unique)
        digits.append(values)
        radices.append(radix)
    return np.ravel_multi_index(digits, radices)


def _indices(paths: dict) -> dict:
    """The index components of paths."""
    return {c: v for c, v in paths.items() if isinstance(c, tuple)}


def _audit(scheme: Scheme) -> tuple[dict, dict, list]:
    """Each trial's bits per hop and per node, and the hop and node budgets they exceed.
    Bit sizes depend only on index ranges and ell, so every trial of a run has this
    audit."""
    n = scheme.n
    hop_bits = {hop: sum(_bits(size) for *_, size in entries)
                for hop, entries in scheme.hop_entries.items()}
    node_bits, ops = {}, {}
    for node, bits in scheme.charges.values():
        node_bits[node] = node_bits.get(node, 0) + bits
        ops[node] = ops.get(node, 0) + 1
    node_bits = dict(sorted(node_bits.items()))
    over = []
    for hop, bits in hop_bits.items() if scheme.schedule.audits_hops else ():
        budget = scheme.budgets.r[hop - 1] * n
        if bits > budget + len(scheme.hop_entries[hop]) + 1e-9:
            over.append({"hop": hop, "bits": bits, "budget": budget})
    for node, bits in node_bits.items():
        budget = scheme.rho_allowance[node - 1] * n + ops[node]
        if bits > budget + 1e-9:
            over.append({"node": node, "bits": bits, "budget": budget})
    return hop_bits, node_bits, over


@dataclass
class SchemeRun:
    """A Monte Carlo run as arrays over its trials, its one representation: actions
    (trials, h, n), each index component's values (indices), and per selector key its
    seeds, chosen candidates and degenerate flags (selected). A hop's bundle is
    Scheme.hop_entries read on these arrays. At zero trials walk never runs: actions is
    (0, h, n), indices and selected are empty and no trial is degenerate or over budget."""

    mode: str
    n: int
    budgets: dict
    checks_passed: bool
    budget_violations: list
    degenerate_trials: int
    node_bits: dict
    actions: np.ndarray = field(repr=False)
    indices: dict = field(repr=False)
    selected: dict = field(repr=False)


def run_scheme(cb: Codebook, mode: Mode, trials: int, seed: int) -> SchemeRun:
    """End-to-end coordination runs: sample X1 from the target marginal, draw the
    shared and node-drawn indices, select node 1's m+ and relay down the line. The
    trials are the rows of one walk, whose draw(*key) is the key's _RunStreams."""
    scheme = Scheme(cb, mode)
    checks = thm1_check(cb.rates, cb.spec, 0.0).passed and all(
        r.passed for r in thm2_check_all(cb.rates, cb.spec, 0.0))
    paths, selected = walk(scheme, functools.partial(_RunStreams, seed, trials), trials) if trials else ({}, {})
    actions = (np.stack([paths[x_label(i)] for i in range(1, scheme.h + 1)], axis=1) if trials
               else np.zeros((0, scheme.h, scheme.n), dtype=np.int64))
    degenerate = np.any([flags for *_, flags in selected.values()], axis=0)
    _, node_bits, over = _audit(scheme)
    return SchemeRun(mode=scheme.mode.value, n=scheme.n, budgets=scheme.budgets.to_dict(),
                     checks_passed=checks,
                     budget_violations=[{"trial": t} | v for t in range(trials) for v in over],
                     degenerate_trials=int(np.sum(degenerate)), node_bits=node_bits,
                     actions=actions, indices=_indices(paths), selected=selected)


class _RunStreams:
    """One key's Monte Carlo draws over a run: block b of STREAM_BLOCK_ROWS trials draws
    its rows in one call on the stream (seed, "mc", b, *key), and integers and random
    (Generator's arguments, sized for the whole run) join the blocks' draws."""

    def __init__(self, seed: int, trials: int, *key):
        self.blocks = [(_child_rng(seed, "mc", b, *key), min(STREAM_BLOCK_ROWS, trials - start))
                       for b, start in enumerate(range(0, trials, STREAM_BLOCK_ROWS))]

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return np.concatenate([rng.integers(low, high, size=rows) for rng, rows in self.blocks])

    def random(self, shape: tuple) -> np.ndarray:
        return np.concatenate([rng.random((rows, *shape[1:])) for rng, rows in self.blocks])


def _uniform(draw, count: int, spaces) -> dict:
    """count uniform draws of each (component, size), on the component's stream."""
    return {comp: draw(*comp).integers(0, size, size=count) for comp, size in spaces}
