"""The action-generation and strong-coordination schemes over a realized codebook.

Monte Carlo runs the scheme as one walk (walk) over a block of trials: node 1
selects m1 from its posterior given its action block, then each hop i selects
K_i+ when the mode's schedule does, draws node i+1's local index l and reads
node i+1's action as its C-codeword. Every selection goes through an exact
posterior (Scheme.node1_posterior, Scheme.k_posterior) and one stacked
staircase table (Scheme.selection). Exact evaluation (evalharness.exact_induced)
builds the same posteriors and tables for every root and hop state at once,
and contracts their integer seed widths instead of walking.

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
        spec, rates, mode = cb.spec, cb.rates, Mode(mode)
        check_mode_restrictions(spec, rates, mode)
        _require_c_equals_action(spec)
        self.cb, self.spec, self.rates, self.mode = cb, spec, rates, mode
        self.schedule = schedule = mode.schedule
        self.n, self.h = cb.n, spec.h
        h, joint = spec.h, spec.joint

        self.order = order_pairs(h)
        self.x1_kernel = spec.x_kernels[1]
        a_all = [a_label(p) for p in self.order]
        self.k_kernels = {}
        for i in range(1, h):
            giv = a_all + [b_label(i)]
            self.k_kernels[i] = condition(joint, giv, [x_label(i)])

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

    def x1_likelihood(self, x1: np.ndarray, assignment) -> float | np.ndarray:
        """Likelihood of x1 at the assignment's psi(1) codewords, per grid point for arrays."""
        letters = [self.cb.a_codeword(q, assignment) for q in sorted(psi(self.h, 1))]
        return _block_likelihood(self.x1_kernel.weights, letters, x1)

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
        table, from one staircase_map call: row r's support is all M candidates by descending
        mass, and its cuts N_1..N_{m-1} for its support size m (see _support_sizes), padded
        with ell, give the induced law and seed map of the size-m table."""
        order, best_m = _support_sizes(posteriors, ell)
        return staircase_map(posteriors, order, ell, best_m)


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
        # each slice given C{i} = c must be the point mass at c, unless it is degenerate
        if not (np.isclose(kern.weights, np.eye(kern.weights.shape[-1]), atol=1e-9).all(-1)
                | kern.degenerate).all():
            raise UsageError(f"scheme requires X{i} = C{i}; found a non-copy kernel slice")


# ---------------------------------------------------------------------------
# Posterior + staircase selection


def _support_sizes(posteriors: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidates by descending mass (ties by index) and support size: the shortest top-mass
    prefix minimizing 2*eps + m/ell, where a longer one must beat the best so far by 1e-15. Only
    m <= 2*ell + 1 is scanned: cert_m - cert_1 = (m - 1)/ell - 2*(c_m - c_1) for the cumsum c, so an
    m >= 2*ell + 2 wins only if the row's mass outside its top candidate exceeds 1 + 1/(2*ell)."""
    count = min(posteriors.shape[-1], 2 * ell + 1)
    order = np.argsort(-posteriors, axis=-1, kind="stable")
    mass = posteriors[np.arange(len(posteriors))[:, None], order[:, :count]]
    certs = 2.0 * (1.0 - np.cumsum(mass, axis=-1)) + np.array([m / ell for m in range(1, count + 1)])
    certs[np.arange(1, count + 1) > (mass > 0).sum(axis=-1, keepdims=True)] = np.inf  # past positive mass
    best_m, best = np.ones(len(posteriors), dtype=np.int64), certs[:, 0]
    for m, cert in enumerate(certs.T[1:], 2):
        better = cert < best - 1e-15
        best, best_m[better] = np.where(better, cert, best), m
    return order, best_m


# ---------------------------------------------------------------------------
# Scheme execution


def walk(scheme: Scheme, draw, rows: int) -> tuple[dict, dict]:
    """The scheme on one block of rows Monte Carlo trials, each index drawn as an array on
    its stream draw(*key). The paths hold node 1's action blocks "X1" (rows, n), drawn from
    the target marginal, and every index component. Node 1 selects m1; then per hop i,
    node i selects K_i+ when the schedule does, l_{i+1} is drawn, and node i+1's action
    "X{i+1}" is its C-codeword. A selection with key ("m1",) or ("k", i) draws one seed
    per row from draw("seed", *key) and maps it through the row's staircase cuts.
    Returns the paths and, per selector key, (seeds, chosen candidates, degenerate flags)."""
    cb, selected = scheme.cb, {}
    paths = _uniform(draw, rows, scheme.cr_spaces)
    paths["X1"] = _iid_blocks(draw("x1").random((rows, scheme.n)), scheme.x1_cum)

    def select(key, ell, space, posteriors):
        seeds = draw("seed", *key).integers(1, ell + 1, size=rows)
        chosen = scheme.selection(posteriors[0], ell).map_seed(seeds)
        selected[key] = (seeds, chosen, posteriors[1])
        paths.update(space.unflatten(chosen))

    select(("m1",), scheme.ell1, scheme.m1_space, scheme.node1_posterior(paths["X1"], _indices(paths)))
    for node in range(1, scheme.h):
        if node in scheme.k_spaces:
            select(("k", node), scheme.ell_k[node], scheme.k_spaces[node],
                   scheme.k_posterior(node, paths[x_label(node)], _indices(paths)))
        else:
            paths[k_plus(node)] = np.zeros(rows, dtype=np.int64)
        paths.update(_uniform(draw, rows, [(l_of(node + 1), cb.sizes[l_of(node + 1)])]))
        paths[x_label(node + 1)] = cb.c_codeword(node + 1, paths)
    return paths, selected


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


def run_scheme(cb: Codebook, mode: Mode, trials: int, seed: int) -> SchemeRun:
    """End-to-end coordination runs: sample X1 from the target marginal, draw the
    shared and node-drawn indices, select node 1's m+ and relay down the line. Trials
    are the rows of the walk, STREAM_BLOCK_ROWS at a time; in block b, draw(*key) is
    the generator of the stream (seed, "mc", b, *key), one draw call per key."""
    scheme = Scheme(cb, mode)
    checks = thm1_check(cb.rates, cb.spec, 0.0).passed and all(
        r.passed for r in thm2_check_all(cb.rates, cb.spec, 0.0))
    runs = [walk(scheme, functools.partial(_child_rng, seed, "mc", block),
                 min(STREAM_BLOCK_ROWS, trials - block * STREAM_BLOCK_ROWS))
            for block in range(-(-trials // STREAM_BLOCK_ROWS))]
    parts, selected = [p for p, _ in runs], [s for _, s in runs]
    paths = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]} if parts else {}
    selected = {key: tuple(np.concatenate(arrays) for arrays in zip(*(s[key] for s in selected)))
                for key in (selected[0] if selected else ())}
    actions = (np.stack([paths[x_label(i)] for i in range(1, scheme.h + 1)], axis=1) if parts
               else np.zeros((0, scheme.h, scheme.n), dtype=np.int64))
    degenerate = np.any([flags for *_, flags in selected.values()], axis=0)
    _, node_bits, over = _audit(scheme)
    return SchemeRun(mode=scheme.mode.value, n=scheme.n, budgets=scheme.budgets.to_dict(),
                     checks_passed=checks,
                     budget_violations=[{"trial": t} | v for t in range(trials) for v in over],
                     degenerate_trials=int(np.sum(degenerate)), seed=seed, node_bits=node_bits,
                     actions=actions, indices=_indices(paths), selected=selected, scheme=scheme)


def _uniform(draw, count: int, spaces) -> dict:
    """count uniform draws of each (component, size), on the component's stream."""
    return {comp: draw(*comp).integers(0, size, size=count) for comp, size in spaces}
