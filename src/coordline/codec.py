"""The action-generation and strong-coordination schemes over a realized codebook.

One walk (walk) runs the scheme on a stack of rows: node 1 selects m1 from its
posterior given its action block, then each hop i selects K_i+ when the mode's
schedule does, draws node i+1's local index l and reads node i+1's action as
its C-codeword. Every selection goes through the same exact posterior
(Scheme.node1_posterior, Scheme.k_posterior) and stacked staircase table
(Scheme.selection). Exact evaluation (evalharness.exact_induced) branches
each row on every outcome with mass; Monte Carlo (run_scheme,
allied_generate) runs trials as rows and draws one outcome per row. So a
scheme run that replays the allied run's X1 and node-1 indices reproduces
its downstream actions trace for trace.

Randomness is metered: uniform draws cost ceil(log2 range) bits, posterior
selections cost ceil(log2 ell) bits of seed, charged to the node the mode's
schedule (rates.ModeSchedule) names.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .codebooks import (
    STREAM_BLOCK_ROWS,
    Codebook,
    IndexSpace,
    _cum_rows,
    _iid_blocks,
    _StreamFamily,
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
from .probability import StaircaseTable, condition, marginalize, staircase_map
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


@dataclass(frozen=True)
class SelectorOutcome:
    """Result of one staircase posterior selection; ell, support size and certificate
    are read from its table, a row of Scheme.selection."""

    chosen: int
    seed_value: int
    degenerate: bool
    table: StaircaseTable = field(repr=False)

    ell = property(lambda self: self.table.ell)
    support_size = property(lambda self: self.table.support_size)
    bits = property(lambda self: _bits(self.table.ell))
    epsilon = property(lambda self: float(self.table.epsilon))
    bound = property(lambda self: float(self.table.bound))
    realized_l1 = property(lambda self: float(self.table.realized_l1))

    def to_dict(self):
        return {"chosen": self.chosen, "ell": self.ell, "support_size": self.support_size,
                "epsilon": self.epsilon, "bound": self.bound, "realized_l1": self.realized_l1,
                "seed_value": self.seed_value, "bits": self.bits, "degenerate": self.degenerate}


@dataclass(frozen=True)
class HopMessage:
    hop: int
    entries: tuple[tuple[str, int, int], ...]  # (name, value, range)

    @property
    def bit_size(self) -> int:
        return sum(_bits(size) for _, _, size in self.entries)

    def to_dict(self):
        return {"hop": self.hop, "bit_size": self.bit_size,
                "entries": [{"name": n, "value": v, "range": s} for n, v, s in self.entries]}


@dataclass
class Trace:
    """Replayable record of one trial."""

    trial: int
    seed: int
    x1: list
    actions: dict
    indices: dict
    messages: list
    selectors: dict
    node_bits: dict
    degenerate_draws: int = 0

    def to_dict(self):
        return {
            "trial": self.trial,
            "seed": self.seed,
            "x1": list(map(int, self.x1)),
            "actions": {k: list(map(int, v)) for k, v in self.actions.items()},
            "indices": {str(k): int(v) for k, v in self.indices.items()},
            "messages": [m.to_dict() for m in self.messages],
            "selectors": {str(k): s.to_dict() for k, s in self.selectors.items()},
            "node_bits": self.node_bits,
            "degenerate_draws": self.degenerate_draws,
        }


SEED_MARGIN = 0.5
"""Finite-blocklength slack (bits/symbol) added above each selector's seed-rate
threshold. The seeded-selection guarantee needs the seed rate strictly above
sum(nu) - I; at desk-scale n the strictness has to be material, and half a bit
covers the typicality constants for the alphabets used here. The resource
audit accounts for it explicitly."""


class Scheme:
    """Precomputed tables, selector layout and metering for one (codebook, mode) pair."""

    def __init__(self, cb: Codebook, mode: Mode):
        spec = cb.spec
        rates = cb.rates
        mode = Mode(mode)
        check_mode_restrictions(spec, rates, mode)
        _require_c_equals_action(spec)
        self.cb = cb
        self.spec = spec
        self.rates = rates
        self.mode = mode
        schedule = mode.schedule
        self.schedule = schedule
        self.n = cb.n
        h = spec.h
        self.h = h
        joint = spec.joint

        self.order = order_pairs(h)
        self.x1_kernel = spec.x_kernels[1]
        a_all = [a_label(p) for p in self.order]
        self.k_kernels = {}
        for i in range(1, h):
            giv = a_all + [b_label(i)]
            marg = marginalize(joint, giv + [x_label(i)])
            self.k_kernels[i] = condition(marg, giv)

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

    def _psi1_letters(self, assignment) -> list[np.ndarray]:
        return [self.cb.a_codeword(q, assignment) for q in sorted(psi(self.h, 1))]

    def x1_likelihood(self, x1: np.ndarray, assignment) -> float | np.ndarray:
        """Likelihood of x1 at the assignment's psi(1) codewords, per grid point for arrays."""
        return _block_likelihood(self.x1_kernel.weights, self._psi1_letters(assignment), x1)

    def node1_posterior(self, x1: np.ndarray, assignment) -> tuple[np.ndarray, bool | np.ndarray]:
        """Posterior over the flattened (m+_{1,2..h}) candidates given x1 and m-; blocks x1
        (R, n) with integer-array assignments (R,) give (R, M) posteriors and R degenerate flags."""
        return _normalized(self.x1_likelihood(
            x1[..., None, :], _per_candidate(assignment) | self.m1_space.unflatten(
                np.arange(self.m1_space.size))))

    def k_posterior(self, i: int, x_block: np.ndarray, assignment) -> tuple[np.ndarray, bool | np.ndarray]:
        """Posterior over k_i+ given the node-i action block, all m+-, and k_i-; stacks as node1's."""
        grid = _per_candidate(assignment)
        letters = [self.cb.a_codeword(p, grid) for p in self.order]
        letters.append(self.cb.b_codeword(i, grid | {k_plus(i): np.arange(self.cb.sizes[k_plus(i)])}))
        return _normalized(_block_likelihood(self.k_kernels[i].weights, letters, x_block[..., None, :]))

    def selection(self, posteriors: np.ndarray, ell: int) -> StaircaseTable:
        """The staircase tables of a stack (R, M) of normalized posteriors as one stacked
        table. Row r's support is all M candidates by descending mass, and its cuts are
        N_0..N_{m-1} of its support size m (see _support_sizes), then ell: the induced
        laws and seed maps of the size-m tables, whose last symbol takes every seed
        above N_{m-1}. Rows of one support size share one staircase_map call."""
        order, best_m = _support_sizes(posteriors, ell)
        cuts = np.full((len(posteriors), posteriors.shape[-1] + 1), ell, dtype=np.int64)
        for m in np.flatnonzero(np.bincount(best_m)).tolist():
            rows = np.flatnonzero(best_m == m)
            cuts[rows, :m] = staircase_map(posteriors[rows], order[rows, :m], ell).cuts[:, :m]
        return StaircaseTable(support=order, cuts=cuts, ell=ell, support_size=best_m, weights=posteriors)


def _per_candidate(assignment) -> dict:
    """The assignment's arrays with a trailing axis, so candidate arrays broadcast against them."""
    return {c: v[..., None] if isinstance(v, np.ndarray) else v for c, v in assignment.items()}


def _block_likelihood(kernel: np.ndarray, letters, block: np.ndarray) -> float | np.ndarray:
    """Block probability: kernel[letters, block] multiplied over n, all (..., n) and broadcast."""
    return np.prod(kernel[tuple(letters) + (block,)], axis=-1)


def _normalized(weights: np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
    """Each row of weights over its sum, or uniform and flagged degenerate where the
    sum is zero; one flag per row of a stack, a bool for a single row."""
    total = weights.sum(axis=-1, keepdims=True)
    zero = total <= 0.0
    posterior = np.where(zero, 1.0 / weights.shape[-1], weights / np.where(zero, 1.0, total))
    return posterior, zero[..., 0] if zero.ndim > 1 else bool(zero[0])


def _require_c_equals_action(spec: AuxSpec) -> None:
    """The scheme declares actions as C-codewords, so C_i must equal X_i."""
    for i in range(2, spec.h + 1):
        if spec.aux_alphabets[c_label(i)].size != spec.network.alphabets[i - 1].size:
            raise UsageError(f"scheme requires C{i} alphabet to match X{i}")
        kern = spec.x_kernels[i]
        w = kern.weights
        deg = kern.degenerate
        size = w.shape[-1]
        eye = np.eye(size)
        for idx in np.ndindex(*w.shape[:-1]):
            if deg[idx]:
                continue
            c_sym = idx[-1]
            if not np.allclose(w[idx], eye[c_sym], atol=1e-9):
                raise UsageError(f"scheme requires X{i} = C{i}; found a non-copy kernel slice")


# ---------------------------------------------------------------------------
# Posterior + staircase selection


def _support_sizes(posteriors: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidates by descending mass (ties by index) and support size: the shortest top-mass
    prefix minimizing 2*eps + m/ell, where a longer one must beat the best so far by 1e-15."""
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


# ---------------------------------------------------------------------------
# Scheme execution


def walk(scheme: Scheme, paths: dict, select, uniform, node1: bool = True) -> dict:
    """The scheme on a stack of rows. paths maps "X1" to node 1's action blocks (R, n)
    and each index component in scheme.cr_spaces (and node 1's m+, when not node1) to
    an integer array (R,); keys that are not tuples are not indices. Node 1 selects m1
    when node1; then per hop i, node i selects K_i+ when the schedule does, l_{i+1} is
    drawn, and node i+1's action "X{i+1}" is its C-codeword. select(paths, key, ell,
    space, (posteriors, degenerate flags)), with key ("m1",) or ("k", i), and
    uniform(paths, component, size) each take one step and return the paths after it."""
    cb = scheme.cb
    if node1:
        paths = select(paths, ("m1",), scheme.ell1, scheme.m1_space,
                       scheme.node1_posterior(paths["X1"], _indices(paths)))
    for node in range(1, scheme.h):
        x_block = paths[x_label(node)]
        if node in scheme.k_spaces:
            paths = select(paths, ("k", node), scheme.ell_k[node], scheme.k_spaces[node],
                           scheme.k_posterior(node, x_block, _indices(paths)))
        else:
            paths[k_plus(node)] = np.zeros(len(x_block), dtype=np.int64)
        paths = uniform(paths, l_of(node + 1), cb.sizes[l_of(node + 1)])
        paths[x_label(node + 1)] = cb.c_codeword(node + 1, paths)
    return paths


def _indices(paths: dict) -> dict:
    """The index components of paths."""
    return {c: v for c, v in paths.items() if isinstance(c, tuple)}


class _Sampler:
    """The Monte Carlo steps of the walk on one block of trials. A selector draws one
    seed per row and maps it through the row's staircase cuts; a uniform index is drawn
    as an array. draw(*key) is the generator of the block's stream for key."""

    def __init__(self, scheme: Scheme, draw, rows: int):
        self.scheme, self.draw, self.rows = scheme, draw, rows
        self.selected = {}  # selector key -> (seeds, chosen candidates, degenerate flags)

    def select(self, paths, key, ell, space, posteriors):
        stack, degenerate = posteriors
        seeds = self.draw("seed", *key).integers(1, ell + 1, size=self.rows)
        chosen = self.scheme.selection(stack, ell).map_seed(seeds)
        self.selected[key] = (seeds, chosen, degenerate)
        return paths | space.unflatten(chosen)

    def uniform(self, paths, comp, size):
        return paths | _uniform(self.draw, self.rows, [(comp, size)])


def _audit(scheme: Scheme, node1: bool) -> tuple[dict, dict, list]:
    """Each trial's bits per hop and per node, and the hop and node budgets they exceed.
    Bit sizes depend only on index ranges and ell, so every trial of a run has this
    audit. Node 1's selector seed is charged when node 1 selects."""
    n = scheme.n
    hop_bits = {hop: sum(_bits(size) for *_, size in entries)
                for hop, entries in scheme.hop_entries.items()}
    node_bits, ops = {}, {}
    for key, (node, bits) in scheme.charges.items():
        if node1 or key != ("m1",):
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
    """A Monte Carlo run as arrays over its trials: actions (trials, h, n), each index
    component's values, and per selector key its seeds, chosen candidates and
    degenerate flags. traces builds one Trace per trial on first read."""

    mode: str
    n: int
    budgets: dict
    checks_passed: bool
    budget_violations: list
    degenerate_trials: int
    seed: int
    node_bits: dict
    actions: np.ndarray = field(repr=False)
    indices: dict = field(repr=False)
    selected: dict = field(repr=False)
    scheme: Scheme = field(repr=False)

    @functools.cached_property
    def traces(self) -> list[Trace]:
        """One Trace per trial; each selector outcome carries its trial's row of the
        Scheme.selection table of the recomputed posteriors, for the certificate fields."""
        scheme = self.scheme
        outcomes = {}
        for key, (seeds, chosen, degenerate) in self.selected.items():
            if key == ("m1",):
                ell, (posteriors, _) = scheme.ell1, scheme.node1_posterior(self.actions[:, 0], self.indices)
            else:
                ell, (posteriors, _) = scheme.ell_k[key[1]], scheme.k_posterior(
                    key[1], self.actions[:, key[1] - 1], self.indices)
            # trials with equal posteriors share one row, so its certificate is computed once
            unique, inverse = np.unique(posteriors, axis=0, return_inverse=True)
            rows = list(map(scheme.selection(unique, ell).row, range(len(unique))))
            outcomes[key] = [SelectorOutcome(c, s, d, rows[u]) for c, s, d, u in zip(
                chosen.tolist(), seeds.tolist(), degenerate.tolist(), inverse.ravel().tolist())]
        traces = []
        for t, actions in enumerate(self.actions.tolist()):
            values = {c: int(v[t]) for c, v in self.indices.items()}
            shipped = values | {key: int(s[t]) for key, (s, _, _) in self.selected.items()}
            selectors = {key: outcome[t] for key, outcome in outcomes.items()}
            traces.append(Trace(
                trial=t, seed=self.seed, x1=actions[0],
                actions={f"X{i}": block for i, block in enumerate(actions, 1)}, indices=values,
                messages=[HopMessage(hop, tuple((name, shipped.get(key, 0), size)
                                                for name, key, size in entries))
                          for hop, entries in scheme.hop_entries.items()],
                selectors=selectors, node_bits=dict(self.node_bits),
                degenerate_draws=sum(o.degenerate for o in selectors.values())))
        return traces

    def to_dict(self):
        return {"mode": self.mode, "n": self.n, "budgets": self.budgets,
                "checks_passed": self.checks_passed,
                "budget_violations": self.budget_violations,
                "degenerate_trials": self.degenerate_trials,
                "traces": [t.to_dict() for t in self.traces]}


def _mc_run(scheme: Scheme, trials: int, seed: int, label: str, source, node1: bool,
            audit: bool) -> SchemeRun:
    """Trials as the rows of the walk, STREAM_BLOCK_ROWS at a time. In block b, draw(*key)
    is the generator of the stream (seed, "mc", b, *key), one draw call per key;
    source(draw, rows) returns the walk's starting paths for the trials numbered rows."""
    cb = scheme.cb
    checks = thm1_check(cb.rates, cb.spec, 0.0).passed and all(
        r.passed for r in thm2_check_all(cb.rates, cb.spec, 0.0))
    blocks = -(-trials // STREAM_BLOCK_ROWS)
    families: dict[tuple, _StreamFamily] = {}
    parts, selected = [], []
    for block in range(blocks):
        def draw(*key, _block=block):
            if key not in families:
                families[key] = _StreamFamily(seed, ("mc",), key, blocks)
            return families[key].rng(_block)

        rows = np.arange(block * STREAM_BLOCK_ROWS, min((block + 1) * STREAM_BLOCK_ROWS, trials))
        sampler = _Sampler(scheme, draw, len(rows))
        parts.append(walk(scheme, source(draw, rows), sampler.select, sampler.uniform, node1))
        selected.append(sampler.selected)
    paths = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]} if parts else {}
    selected = {key: tuple(np.concatenate(arrays) for arrays in zip(*(s[key] for s in selected)))
                for key in (selected[0] if selected else ())}
    actions = (np.stack([paths[x_label(i)] for i in range(1, scheme.h + 1)], axis=1) if parts
               else np.zeros((0, scheme.h, scheme.n), dtype=np.int64))
    degenerate = np.any([flags for *_, flags in selected.values()], axis=0)
    _, node_bits, over = _audit(scheme, node1)
    return SchemeRun(mode=label, n=scheme.n, budgets=scheme.budgets.to_dict(), checks_passed=checks,
                     budget_violations=[{"trial": t} | v for t in range(trials) for v in over] if audit else [],
                     degenerate_trials=int(np.sum(degenerate)), seed=seed, node_bits=node_bits,
                     actions=actions, indices=_indices(paths), selected=selected, scheme=scheme)


def _uniform(draw, count: int, spaces) -> dict:
    """count uniform draws of each (component, size), on the component's stream."""
    return {comp: draw(*comp).integers(0, size, size=count) for comp, size in spaces}


def _per_trial(value, trials: int, shape: tuple) -> np.ndarray:
    """value as one integer array of shape shape per trial: given per trial, or once for all."""
    return np.broadcast_to(np.asarray(value, dtype=np.int64), (trials,) + shape)


def run_scheme(cb: Codebook, mode: Mode, trials: int, seed: int,
               x1_override=None, node1_replay: dict | None = None) -> SchemeRun:
    """End-to-end coordination runs: sample X1 from the target marginal, draw the
    shared and node-drawn indices, select node 1's m+ and relay down the line.
    x1_override (a block (n,), or one per trial (trials, n)) replaces the sampled X1;
    node1_replay (m+_{1,j} -> a value, or one per trial) replaces node 1's selection."""
    scheme = Scheme(cb, mode)
    if x1_override is not None:
        x1_override = _per_trial(x1_override, trials, (scheme.n,))
        size = scheme.x1_cum.shape[-1]
        if x1_override.size and not (0 <= x1_override.min() and x1_override.max() < size):
            raise UsageError(f"x1_override symbols must lie in [0, {size})")

    def source(draw, rows):
        paths = _uniform(draw, len(rows), scheme.cr_spaces)
        if x1_override is None:
            paths["X1"] = _iid_blocks(draw("x1").random((len(rows), scheme.n)), scheme.x1_cum)
        else:
            paths["X1"] = x1_override[rows]
        for comp, value in (node1_replay or {}).items():
            paths[comp] = _per_trial(value, trials, ())[rows]
        return paths

    return _mc_run(scheme, trials, seed, scheme.mode.value, source, node1_replay is None, audit=True)


def allied_generate(cb: Codebook, trials: int, seed: int) -> SchemeRun:
    """Allied action synthesis: all indices uniform, X1 generated from the
    selected A-codewords, downstream actions via the same selector chain."""
    # allied generation has no mode restriction; use the unrestricted layout
    scheme = Scheme(cb, Mode.UNRESTRICTED)

    def source(draw, rows):
        paths = _uniform(draw, len(rows), scheme.cr_spaces + list(scheme.m1_space.components))
        cum = _cum_rows(scheme.x1_kernel.weights[tuple(scheme._psi1_letters(paths))])
        paths["X1"] = _iid_blocks(draw("x1").random((len(rows), 1, scheme.n)), cum)[:, 0]
        return paths

    return _mc_run(scheme, trials, seed, "allied", source, node1=False, audit=False)
