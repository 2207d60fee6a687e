"""The action-generation and strong-coordination schemes over a realized codebook.

Two entry points: allied_generate synthesizes all h actions from uniform
indices; run_scheme starts from a given first-node action block, inverts the
node-1 operation via a seeded posterior selector, and relays hop by hop.
Both route every index selection through the same exact-posterior +
staircase primitive, so a scheme run that replays the allied run's node-1
selection reproduces its downstream actions trace-for-trace.

Randomness is metered: uniform draws cost ceil(log2 range) bits, posterior
selections cost ceil(log2 ell) bits of seed, charged to the node the mode's
schedule (rates.ModeSchedule) names.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .codebooks import (
    ChainCodebook,
    Codebook,
    Component,
    IndexSpace,
    _child_rng,
    _cum_rows,
    _iid_blocks,
    _StreamFamily,
    k_minus,
    k_plus,
    l_of,
    m_minus,
    m_plus,
)
from .errors import ResourceCapError, UsageError, check_cap
from .linestruct import (
    AuxSpec,
    a_label,
    b_label,
    c_label,
    order_pairs,
    psi,
    x_label,
)
from .probability import StaircaseTable, condition, info_measure, marginalize, pmf_weights, staircase_map
from .rates import (
    Mode,
    check_mode_restrictions,
    hop_selector_rate,
    node1_selector_rate,
    resource_map,
    thm1_check,
    thm2_check_all,
)


def _bits(size: int) -> int:
    """ceil(log2(size)) in exact integer arithmetic; 0 for a single value."""
    return (int(size) - 1).bit_length()


@dataclass(frozen=True)
class SelectorOutcome:
    """Result of one staircase posterior selection; the certificate is read from the table."""

    chosen: int
    ell: int
    support_size: int
    seed_value: int
    bits: int
    degenerate: bool
    table: StaircaseTable = field(repr=False)

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
    node_ops: dict = field(default_factory=dict)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


SEED_MARGIN = 0.5
"""Finite-blocklength slack (bits/symbol) added above each selector's seed-rate
threshold. The seeded-selection guarantee needs the seed rate strictly above
sum(nu) - I; at desk-scale n the strictness has to be material, and half a bit
covers the typicality constants for the alphabets used here. The resource
audit accounts for it explicitly."""


def _seed_range(n: int, rate: float) -> int:
    """Selector seed range ceil(2^(n*rate)), at least 1."""
    try:
        return max(int(math.ceil(2.0 ** (n * max(rate, 0.0)) - 1e-9)), 1)
    except OverflowError:
        raise ResourceCapError(f"a selector seed range of 2^{n * rate:.6g} is above any cap") from None


class Scheme:
    """Precomputed tables and selector layout for one (codebook, mode) pair."""

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
        if schedule.ships_crossing_pairs:
            self.hop_pairs = {i: [p for p in self.order if p[0] <= i < p[1]] for i in range(1, h)}
        else:
            self.hop_pairs = {i: [(1, j) for j in range(i + 1, h + 1)] for i in range(1, h)}
        self.x1_kernel = spec.x_kernels[1]
        a_all = [a_label(p) for p in self.order]
        self.k_kernels = {}
        for i in range(1, h):
            giv = a_all + [b_label(i)]
            marg = marginalize(joint, giv + [x_label(i)])
            self.k_kernels[i] = condition(marg, giv)

        self.m1_space = IndexSpace([(m_plus((1, j)), cb.sizes[m_plus((1, j))])
                                    for j in range(2, h + 1)])
        self.ell1 = _seed_range(self.n, node1_selector_rate(spec, rates) + SEED_MARGIN)
        self.ell_k = {i: _seed_range(self.n, hop_selector_rate(spec, rates, i) + SEED_MARGIN)
                      for i in range(1, h)}

        x1_marginal = marginalize(spec.network.target, [x_label(1)]).weights
        self.x1_cum = _cum_rows(np.tile(x1_marginal, (self.n, 1)))
        self.budgets = resource_map(rates, mode, spec)
        # declared per-node allowance: the mode's allocation plus the selector
        # seed slack actually configured at the node paying for each seed
        extra = [0.0] * h
        extra[0] += SEED_MARGIN if self.m1_space.size > 1 else 0.0
        for i in range(1, h):
            if schedule.selects_k and cb.sizes[k_plus(i)] > 1:
                extra[schedule.k_seed_payer(i) - 1] += SEED_MARGIN
        self.rho_allowance = tuple(self.budgets.rho[i] + extra[i] for i in range(h))

        # posteriors and staircase tables repeat across trials; memoize them
        self._m1_minus_comps = [m_minus((1, j)) for j in range(2, h + 1)]
        self._m1_grid = self.m1_space.unflatten(np.arange(self.m1_space.size))
        self._k_comps = ([m_plus(p) for p in self.order] + [m_minus(p) for p in self.order])
        self._post_cache = _Memo()
        self._table_cache = _Memo()

    # -- letter-level likelihoods ------------------------------------------

    def _psi1_letters(self, assignment) -> list[np.ndarray]:
        return [self.cb.a_codeword(q, assignment) for q in sorted(psi(self.h, 1))]

    def x1_likelihood(self, x1: np.ndarray, assignment) -> float | np.ndarray:
        """Likelihood of x1 at the assignment's psi(1) codewords, per grid point for arrays."""
        return _block_likelihood(self.x1_kernel.weights, self._psi1_letters(assignment), x1)

    def sample_x1_from_codewords(self, assignment, rng) -> np.ndarray:
        rows = self.x1_kernel.weights[tuple(self._psi1_letters(assignment))]
        return _iid_blocks(rng.random((1, self.n)), _cum_rows(rows))[0]

    def node1_posterior(self, x1: np.ndarray, assignment) -> tuple[np.ndarray, bool | np.ndarray]:
        """Posterior over the flattened (m+_{1,2..h}) candidates given x1 and m-; blocks x1
        (R, n) with integer-array assignments (R,) give (R, M) posteriors and R degenerate flags."""
        key = ("m1", x1.tobytes(), tuple(assignment[c] for c in self._m1_minus_comps))
        return self._posterior(x1, key, lambda: self.x1_likelihood(
            x1[..., None, :], _per_candidate(assignment) | self._m1_grid))

    def k_posterior(self, i: int, x_block: np.ndarray, assignment) -> tuple[np.ndarray, bool | np.ndarray]:
        """Posterior over k_i+ given the node-i action block, all m+-, and k_i-; stacks as node1's."""
        def weights():
            grid = _per_candidate(assignment)
            letters = [self.cb.a_codeword(p, grid) for p in self.order]
            letters.append(self.cb.b_codeword(i, grid | {k_plus(i): np.arange(self.cb.sizes[k_plus(i)])}))
            return _block_likelihood(self.k_kernels[i].weights, letters, x_block[..., None, :])

        key = ("k", i, x_block.tobytes(), tuple(assignment[c] for c in self._k_comps), assignment[k_minus(i)])
        return self._posterior(x_block, key, weights)

    def _posterior(self, block, key, weights) -> tuple[np.ndarray, bool | np.ndarray]:
        """_normalized(weights()), memoized under key for a single block."""
        if block.ndim > 1:
            return _normalized(weights())
        hit = self._post_cache.get(key)
        if hit is None:
            hit = self._post_cache[key] = _normalized(weights())
        return hit

    def selection(self, posterior: np.ndarray, ell: int, seed_value: int | None = None,
                  rng: np.random.Generator | None = None, degenerate: bool = False):
        """Cached staircase selection (see select_from_posterior); a stack (R, M) gives its induced laws."""
        if posterior.ndim > 1:
            return _induced_laws(posterior, ell)
        key = (posterior.tobytes(), ell)
        hit = self._table_cache.get(key)
        if hit is None:
            hit = self._table_cache[key] = _selection_table(posterior, ell)
        return _staircase_select(hit, seed_value, rng, degenerate)


CACHE_ENTRIES = 4096
"""Entries each Scheme memo keeps, oldest dropped first; a few thousand MC trials fit."""


class _Memo(dict):
    """A dict of at most CACHE_ENTRIES entries: storing past it drops the oldest."""

    def __setitem__(self, key, value):
        if len(self) >= CACHE_ENTRIES:
            del self[next(iter(self))]
        super().__setitem__(key, value)


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


def _induced_laws(posteriors: np.ndarray, ell: int) -> np.ndarray:
    """The staircase selectors' induced laws of a stack (R, M) of normalized
    posteriors; rows of one support size share one staircase_map call."""
    order, best_m = _support_sizes(posteriors, ell)
    induced = np.zeros(posteriors.shape)
    for m in np.flatnonzero(np.bincount(best_m)).tolist():
        rows = np.flatnonzero(best_m == m)
        induced[rows] = staircase_map(posteriors[rows], order[rows, :m], ell).induced_array(
            posteriors.shape[-1])
    return induced


def _selection_table(posterior: np.ndarray, ell: int):
    """The staircase table of one normalized posterior, its support sized as a stack
    of one. Returns the table, the support size and the induced array."""
    order, best_m = _support_sizes(posterior[None], ell)
    m = int(best_m[0])
    table = staircase_map(posterior, order[0, :m], ell)
    return table, m, table.induced_array(len(posterior))


def _staircase_select(selection, seed_value: int | None, rng: np.random.Generator | None,
                      degenerate: bool) -> tuple[SelectorOutcome, np.ndarray]:
    """Map a seed through a _selection_table result; None draws it from rng."""
    table, best_m, induced = selection
    ell = table.ell
    if seed_value is None:
        seed_value = int(rng.integers(1, ell + 1))
    outcome = SelectorOutcome(
        chosen=table.map_seed(seed_value), ell=ell, support_size=best_m, seed_value=seed_value,
        bits=_bits(ell), degenerate=degenerate, table=table)
    return outcome, induced


def select_from_posterior(posterior: np.ndarray, ell: int, seed_value: int | None,
                          rng: np.random.Generator | None = None,
                          degenerate: bool = False) -> tuple[SelectorOutcome, np.ndarray]:
    """Staircase-select an index from a posterior vector.

    Returns the outcome and the full induced distribution over candidates
    (used by exact enumeration). seed_value of None draws the seed uniformly
    from rng.
    """
    return _staircase_select(_selection_table(pmf_weights(posterior, normalize=True), ell),
                             seed_value, rng, degenerate)


def posterior_select(chain: ChainCodebook, y, fixed: dict[int, int], ell: int,
                     seed: int, rho_budget: float | None = None) -> dict:
    """Seeded index selection against a nested chain codebook.

    Computes the exact posterior over the free levels' index tuples given the
    observation y and the fixed prefix indices, then staircase-selects with a
    uniform seed on [1..ell]. The report carries the certificate, the seed
    rate actually consumed, and the analytic seed-rate requirement
    sum(nu_free) - I(Y; D_free | D_fixed).
    """
    y = chain.observation(y)
    free = [lvl for lvl in range(chain.k) if lvl not in fixed]
    shape = [chain.sizes[lvl] for lvl in free]
    count = math.prod(shape)
    check_cap("selector candidates", count)

    kernel = condition(chain.joint, list(chain.level_labels))
    grid = dict(fixed) | dict(zip(free, np.indices(shape).reshape(len(free), count)))
    weights = _block_likelihood(kernel.weights, chain.letters(grid), y)
    posterior, degenerate = _normalized(np.broadcast_to(weights, (count,)))

    rng = _child_rng(seed, "posterior_select")
    outcome, induced = select_from_posterior(posterior, ell, None, rng, degenerate)

    fixed_labels = [chain.level_labels[lvl] for lvl in sorted(fixed)]
    free_labels = [chain.level_labels[lvl] for lvl in free]
    nu_free = sum(math.log2(chain.sizes[lvl]) / chain.n for lvl in free)
    mi = info_measure(chain.joint, [chain.y_axis], free_labels, fixed_labels) if free_labels else 0.0
    required = nu_free - mi
    report = {
        "selected": outcome.chosen,
        "outcome": outcome.to_dict(),
        "required_seed_rate": required,
        "seed_rate": _bits(ell) / chain.n,
    }
    if rho_budget is not None:
        report["rho_budget"] = rho_budget
        report["rho_covers_seed"] = bool(rho_budget + 1e-12 >= _bits(ell) / chain.n)
    return report


# ---------------------------------------------------------------------------
# Scheme execution


def draw_common_randomness(cb: Codebook, rng: np.random.Generator) -> dict[Component, int]:
    """Shared indices: every m- component, then every k- component."""
    h = cb.h
    out = {m_minus(p): int(rng.integers(0, cb.sizes[m_minus(p)])) for p in order_pairs(h)}
    out.update({k_minus(i): int(rng.integers(0, cb.sizes[k_minus(i)])) for i in range(1, h)})
    return out


def _hop_bundle(scheme: Scheme, i: int, assignment, pending_seeds) -> HopMessage:
    """Hop i's message under the scheme's mode schedule."""
    cb = scheme.cb
    entries = [(f"m+({p[0]},{p[1]})", assignment[m_plus(p)], cb.sizes[m_plus(p)])
               for p in scheme.hop_pairs[i]]
    if scheme.schedule.selects_k:
        entries.append((f"k+({i})", assignment[k_plus(i)], cb.sizes[k_plus(i)]))
    if scheme.schedule.node1_pays_k_seeds:
        entries += [(f"seed(k+{j})", pending_seeds.get(j, 0), scheme.ell_k[j])
                    for j in range(i + 1, scheme.h)]
    return HopMessage(hop=i, entries=tuple(entries))


def encode_source_node(scheme: Scheme, x1: np.ndarray, rng_streams, trace: Trace,
                       node1_replay: dict | None = None) -> tuple[dict, dict]:
    """Node-1 processing: select m+_{1,.} from the posterior, pre-draw the
    downstream seeds node 1 pays for, then forward over hop 1. Returns the
    assignment and the pre-drawn seeds."""
    assignment = _init_assignment(scheme, rng_streams, trace)
    if node1_replay is None:
        _node1_select(scheme, x1, assignment, rng_streams, trace)
    else:
        assignment.update(node1_replay)
        trace.indices.update(node1_replay)
    pending = _predraw_k_seeds(scheme, rng_streams, trace)
    _forward(scheme, 1, x1, assignment, pending, rng_streams, trace)
    return assignment, pending


def _forward(scheme: Scheme, i: int, x_block, assignment, pending_seeds, rng_streams, trace):
    """Node i (< h): select K_i+ when the schedule does, then ship hop i's bundle."""
    if scheme.schedule.selects_k:
        _k_select(scheme, i, x_block, assignment, rng_streams, trace, pending_seeds.get(i))
    trace.messages.append(_hop_bundle(scheme, i, assignment, pending_seeds))


def _init_assignment(scheme: Scheme, rng_streams, trace) -> dict:
    """Common randomness, K+ placeholders and the pairs nodes > 1 draw themselves."""
    cb = scheme.cb
    assignment = draw_common_randomness(cb, rng_streams("cr"))
    for i in range(1, scheme.h):
        assignment.setdefault(k_plus(i), 0)
    for p in scheme.order:
        if p[0] == 1:
            continue
        size = cb.sizes[m_plus(p)]
        assignment[m_plus(p)] = int(rng_streams("mplus", p[0], p[1]).integers(0, size))
        _charge(trace, p[0], _bits(size))
    trace.indices.update(assignment)
    return assignment


def _charge(trace, node: int, bits: int):
    trace.node_bits[node] = trace.node_bits.get(node, 0) + bits
    trace.node_ops[node] = trace.node_ops.get(node, 0) + 1


def _select(scheme: Scheme, key: tuple, posterior, degenerate: bool, ell: int, trace,
            payer: int | None, rng=None, seed_value: int | None = None) -> int:
    """Staircase-select from a posterior and record the outcome under `key`.
    The seed's bits go to `payer`; None means the seed was paid for upstream."""
    outcome, _ = scheme.selection(posterior, ell, seed_value, rng, degenerate)
    trace.selectors[key] = outcome
    if payer is not None:
        _charge(trace, payer, outcome.bits)
    if degenerate:
        trace.degenerate_draws += 1
    return outcome.chosen


def _node1_select(scheme: Scheme, x1, assignment, rng_streams, trace):
    posterior, degenerate = scheme.node1_posterior(x1, assignment)
    chosen = _select(scheme, ("m1",), posterior, degenerate, scheme.ell1, trace,
                     payer=1, rng=rng_streams("sel_m1"))
    m1 = scheme.m1_space.unflatten(chosen)
    assignment.update(m1)
    trace.indices.update(m1)


def _k_select(scheme: Scheme, i: int, x_block, assignment, rng_streams, trace,
              seed_value: int | None = None):
    """Select K_i+ at node i; a seed_value was pre-drawn (and charged) by node 1."""
    comp = k_plus(i)
    chosen = 0
    if scheme.cb.sizes[comp] > 1:
        posterior, degenerate = scheme.k_posterior(i, x_block, assignment)
        if seed_value is None:
            payer, rng = scheme.schedule.k_seed_payer(i), rng_streams("sel_k", i)
        else:
            payer, rng = None, None
        chosen = _select(scheme, ("k", i), posterior, degenerate, scheme.ell_k[i], trace,
                         payer, rng, seed_value)
    assignment[comp] = chosen
    trace.indices[comp] = chosen


def _predraw_k_seeds(scheme: Scheme, rng_streams, trace) -> dict:
    """Seeds of the downstream K+ selectors, when the schedule has node 1 pay
    for them and ship them hop by hop."""
    if not scheme.schedule.node1_pays_k_seeds:
        return {}
    pending = {}
    for i in range(2, scheme.h):
        if scheme.cb.sizes[k_plus(i)] > 1:
            pending[i] = int(rng_streams("sel_k_seed", i).integers(1, scheme.ell_k[i] + 1))
            _charge(trace, scheme.schedule.k_seed_payer(i), _bits(scheme.ell_k[i]))
    return pending


def relay_step(scheme: Scheme, node: int, assignment: dict, pending_seeds: dict,
               rng_streams, trace) -> np.ndarray:
    """Node `node` (2..h): draw local index, emit the action as the C-codeword,
    then forward unless it is the last node."""
    cb = scheme.cb
    size = cb.sizes[l_of(node)]
    l_val = int(rng_streams("ell", node).integers(0, size))
    assignment[l_of(node)] = l_val
    trace.indices[l_of(node)] = l_val
    _charge(trace, node, _bits(size))
    action = cb.c_codeword(node, assignment)
    trace.actions[f"X{node}"] = list(map(int, action))
    if node < scheme.h:
        _forward(scheme, node, action, assignment, pending_seeds, rng_streams, trace)
    return action


@dataclass
class SchemeRun:
    traces: list[Trace]
    mode: str
    n: int
    budgets: dict
    checks_passed: bool
    budget_violations: list
    degenerate_trials: int

    def to_dict(self):
        return {"mode": self.mode, "n": self.n, "budgets": self.budgets,
                "checks_passed": self.checks_passed,
                "budget_violations": self.budget_violations,
                "degenerate_trials": self.degenerate_trials,
                "traces": [t.to_dict() for t in self.traces]}


def _audit(scheme: Scheme, trace: Trace, violations: list):
    n = scheme.n
    for msg in trace.messages if scheme.schedule.audits_hops else ():
        budget = scheme.budgets.r[msg.hop - 1] * n
        if msg.bit_size > budget + len(msg.entries) + 1e-9:
            violations.append({"trial": trace.trial, "hop": msg.hop,
                               "bits": msg.bit_size, "budget": budget})
    for node, bits in trace.node_bits.items():
        budget = scheme.rho_allowance[node - 1] * n + trace.node_ops.get(node, 0)
        if bits > budget + 1e-9:
            violations.append({"trial": trace.trial, "node": node,
                               "bits": bits, "budget": budget})


def _run_trials(scheme: Scheme, trials: int, seed: int, source, label: str,
                audit: bool) -> SchemeRun:
    """The trial loop shared by both entry points. source(streams, trace) runs
    node 1 and returns (x1, assignment, pre-drawn seeds); nodes 2..h relay.
    In trial t, streams(*key) is the generator of the stream (seed, "trial", t,
    *key), valid until the next streams call; one _StreamFamily per key serves
    every trial."""
    cb = scheme.cb
    checks = thm1_check(cb.rates, cb.spec, 0.0).passed and all(
        r.passed for r in thm2_check_all(cb.rates, cb.spec, 0.0))
    traces = []
    violations: list = []
    degenerate_trials = 0
    families: dict[tuple, _StreamFamily] = {}
    for t in range(trials):
        def streams(*key, _t=t):
            family = families.get(key)
            if family is None:
                family = families[key] = _StreamFamily(seed, ("trial",), key, (trials,))
            return family.rng(_t)

        trace = Trace(trial=t, seed=seed, x1=[], actions={}, indices={},
                      messages=[], selectors={}, node_bits={})
        x1, assignment, pending = source(streams, trace)
        trace.x1 = list(map(int, x1))
        trace.actions["X1"] = list(map(int, x1))
        for node in range(2, scheme.h + 1):
            relay_step(scheme, node, assignment, pending, streams, trace)
        if audit:
            _audit(scheme, trace, violations)
        if trace.degenerate_draws:
            degenerate_trials += 1
        traces.append(trace)
    return SchemeRun(traces=traces, mode=label, n=scheme.n,
                     budgets=scheme.budgets.to_dict(), checks_passed=checks,
                     budget_violations=violations, degenerate_trials=degenerate_trials)


def run_scheme(cb: Codebook, mode: Mode, trials: int, seed: int,
               x1_override=None, node1_replay: dict | None = None) -> SchemeRun:
    """End-to-end coordination runs: sample X1 from the target marginal, draw
    common randomness, encode at node 1, relay down the line."""
    scheme = Scheme(cb, mode)

    def source(streams, trace):
        if x1_override is not None:
            x1 = np.asarray(x1_override, dtype=np.int64)
        else:
            x1 = _iid_blocks(streams("x1").random((1, scheme.n)), scheme.x1_cum)[0]
        return (x1,) + encode_source_node(scheme, x1, streams, trace, node1_replay)

    return _run_trials(scheme, trials, seed, source, scheme.mode.value, audit=True)


def allied_generate(cb: Codebook, trials: int, seed: int) -> SchemeRun:
    """Allied action synthesis: all indices uniform, X1 generated from the
    selected A-codewords, downstream actions via the same selector chain."""
    # allied generation has no mode restriction; use the unrestricted layout
    scheme = Scheme(cb, Mode.UNRESTRICTED)

    def source(streams, trace):
        assignment = _init_assignment(scheme, streams, trace)
        for j in range(2, scheme.h + 1):
            comp = m_plus((1, j))
            assignment[comp] = int(streams("m1plus", j).integers(0, cb.sizes[comp]))
            trace.indices[comp] = assignment[comp]
        x1 = scheme.sample_x1_from_codewords(assignment, streams("x1b5"))
        _k_select(scheme, 1, x1, assignment, streams, trace)
        return x1, assignment, {}

    return _run_trials(scheme, trials, seed, source, "allied", audit=False)
