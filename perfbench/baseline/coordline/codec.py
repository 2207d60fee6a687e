"""The action-generation and strong-coordination schemes over a realized codebook.

Two entry points: allied_generate synthesizes all h actions from uniform
indices; run_scheme starts from a given first-node action block, inverts the
node-1 operation via a seeded posterior selector, and relays hop by hop.
Both route every index selection through the same exact-posterior +
staircase primitive, so a scheme run that replays the allied run's node-1
selection reproduces its downstream actions trace-for-trace.

Randomness is metered: uniform draws cost ceil(log2 range) bits, posterior
selections cost ceil(log2 ell) bits of seed, charged per the mode's
allocation tables.
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
    k_minus,
    k_plus,
    l_of,
    m_minus,
    m_plus,
)
from .errors import ResourceCapError, UsageError, resolve_cap
from .linestruct import (
    AuxSpec,
    a_label,
    b_label,
    c_label,
    order_pairs,
    psi,
    x_label,
)
from .probability import condition, info_measure, marginalize, pmf_from_table, staircase_map
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
    return max(int(math.ceil(math.log2(size))), 0) if size > 1 else 0


def _child_rng(seed: int, *key) -> np.random.Generator:
    flat = [seed & 0xFFFFFFFFFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            flat.extend(ord(ch) for ch in part)
        else:
            flat.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(flat))


@dataclass(frozen=True)
class CommonRandomness:
    """Realized shared indices: all m- components and all k- components."""

    m_minus: dict
    k_minus: dict

    def as_assignment(self) -> dict[Component, int]:
        out = {}
        for p, v in self.m_minus.items():
            out[m_minus(p)] = v
        for i, v in self.k_minus.items():
            out[k_minus(i)] = v
        return out


@dataclass(frozen=True)
class SelectorOutcome:
    """Result of one staircase posterior selection."""

    chosen: int
    ell: int
    support_size: int
    epsilon: float
    bound: float
    realized_l1: float
    seed_value: int
    bits: int
    degenerate: bool

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


class Scheme:
    """Precomputed tables and selector layout for one (codebook, mode) pair."""

    def __init__(self, cb: Codebook, mode: Mode, seed_rate_overrides: dict | None = None,
                 seed_margin: float = SEED_MARGIN):
        spec = cb.spec
        rates = cb.rates
        mode = Mode(mode)
        check_mode_restrictions(spec, rates, mode)
        _require_c_equals_action(spec)
        self.cb = cb
        self.spec = spec
        self.rates = rates
        self.mode = mode
        self.n = cb.n
        h = spec.h
        self.h = h
        joint = spec.joint

        self.order = order_pairs(h)
        self.x1_kernel = spec.x_kernels[1]
        self.x1_given = [a_label(q) for q in sorted(psi(h, 1))]
        self.a_all = [a_label(p) for p in self.order]
        self.k_kernels = {}
        for i in range(1, h):
            giv = self.a_all + [b_label(i)]
            marg = marginalize(joint, giv + [x_label(i)])
            self.k_kernels[i] = condition(marg, giv)

        self.m1_space = IndexSpace([(m_plus((1, j)), cb.sizes[m_plus((1, j))])
                                    for j in range(2, h + 1)])
        overrides = seed_rate_overrides or {}
        self.seed_margin = float(seed_margin)
        r1 = overrides.get("node1", node1_selector_rate(spec, rates)) + self.seed_margin
        self.ell1 = max(int(math.ceil(2.0 ** (self.n * max(r1, 0.0)) - 1e-9)), 1)
        self.ell_k = {}
        for i in range(1, h):
            rk = overrides.get(("hop", i), hop_selector_rate(spec, rates, i)) + self.seed_margin
            self.ell_k[i] = max(int(math.ceil(2.0 ** (self.n * max(rk, 0.0)) - 1e-9)), 1)

        self.x1_marginal = marginalize(spec.network.target, [x_label(1)]).weights
        self.budgets = resource_map(rates, mode, spec)
        # declared per-node allowance: the mode's allocation plus the selector
        # seed slack actually configured at that node
        extra = [0.0] * h
        extra[0] += self.seed_margin if self.m1_space.size > 1 else 0.0
        for i in range(1, h):
            if cb.sizes[k_plus(i)] > 1 and mode is not Mode.FUNCTIONAL:
                node = 0 if mode is Mode.ACTION_DEPENDENT else i - 1
                extra[node] += self.seed_margin
        self.rho_allowance = tuple(self.budgets.rho[i] + extra[i] for i in range(h))

        # posteriors and staircase tables repeat across trials; memoize them
        self._m1_minus_comps = [m_minus((1, j)) for j in range(2, h + 1)]
        self._k_comps = ([m_plus(p) for p in self.order] + [m_minus(p) for p in self.order])
        self._post_cache: dict = {}
        self._table_cache: dict = {}

    # -- letter-level likelihoods ------------------------------------------

    def _psi1_letters(self, assignment) -> list[np.ndarray]:
        return [self.cb.a_codeword(q, assignment) for q in sorted(psi(self.h, 1))]

    def _all_a_letters(self, assignment) -> list[np.ndarray]:
        return [self.cb.a_codeword(p, assignment) for p in self.order]

    def x1_likelihood(self, x1: np.ndarray, assignment) -> float:
        rows = self.x1_kernel.weights[tuple(self._psi1_letters(assignment))]
        return float(np.prod(rows[np.arange(self.n), x1]))

    def sample_x1_from_codewords(self, assignment, rng) -> np.ndarray:
        rows = self.x1_kernel.weights[tuple(self._psi1_letters(assignment))]
        return _sample_rows(rng, rows)

    def node1_posterior(self, x1: np.ndarray, assignment) -> tuple[np.ndarray, bool]:
        """Posterior over the flattened (m+_{1,2..h}) candidates given x1 and m-."""
        key = ("m1", x1.tobytes(), tuple(assignment[c] for c in self._m1_minus_comps))
        hit = self._post_cache.get(key)
        if hit is not None:
            return hit
        weights = np.empty(self.m1_space.size)
        probe = dict(assignment)
        for flat in range(self.m1_space.size):
            probe.update(self.m1_space.unflatten(flat))
            weights[flat] = self.x1_likelihood(x1, probe)
        total = weights.sum()
        if total <= 0.0:
            out = (np.full(self.m1_space.size, 1.0 / self.m1_space.size), True)
        else:
            out = (weights / total, False)
        self._post_cache[key] = out
        return out

    def k_posterior(self, i: int, x_block: np.ndarray, assignment) -> tuple[np.ndarray, bool]:
        """Posterior over k_i+ given the node-i action block, all m+-, and k_i-."""
        key = ("k", i, x_block.tobytes(),
               tuple(assignment[c] for c in self._k_comps), assignment[k_minus(i)])
        hit = self._post_cache.get(key)
        if hit is not None:
            return hit
        size = self.cb.sizes[k_plus(i)]
        a_letters = self._all_a_letters(assignment)
        weights = np.empty(size)
        probe = dict(assignment)
        kern = self.k_kernels[i]
        for v in range(size):
            probe[k_plus(i)] = v
            b_letters = self.cb.b_codeword(i, probe)
            rows = kern.weights[tuple(a_letters) + (b_letters,)]
            weights[v] = float(np.prod(rows[np.arange(self.n), x_block]))
        total = weights.sum()
        if total <= 0.0:
            out = (np.full(size, 1.0 / size), True)
        else:
            out = (weights / total, False)
        self._post_cache[key] = out
        return out

    def selection(self, posterior: np.ndarray, ell: int, seed_value: int | None = None,
                  rng: np.random.Generator | None = None, degenerate: bool = False
                  ) -> tuple[SelectorOutcome, np.ndarray]:
        """Cached staircase selection (see select_from_posterior)."""
        key = (posterior.tobytes(), ell)
        hit = self._table_cache.get(key)
        if hit is None:
            hit = _selection_table(posterior, ell)
            self._table_cache[key] = hit
        table, best_m, induced = hit
        if seed_value is None:
            seed_value = int(rng.integers(1, ell + 1))
        outcome = SelectorOutcome(
            chosen=table.map_seed(seed_value), ell=ell, support_size=best_m,
            epsilon=float(table.epsilon), bound=float(table.bound),
            realized_l1=float(table.realized_l1), seed_value=seed_value,
            bits=_bits(ell), degenerate=degenerate)
        return outcome, induced


def _sample_rows(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    n, size = rows.shape
    u = rng.random(n)
    out = np.empty(n, dtype=np.int64)
    for t in range(n):
        cum = np.cumsum(rows[t])
        cum[-1] = 1.0
        out[t] = min(np.searchsorted(cum, u[t], side="right"), size - 1)
    return out


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


def _selection_table(posterior: np.ndarray, ell: int):
    """Build the staircase table for a posterior: the support is the shortest
    top-mass prefix minimizing the certificate 2*eps + M/ell."""
    count = len(posterior)
    order = np.lexsort((np.arange(count), -posterior))
    mass = posterior[order]
    cum = np.cumsum(mass)
    positive = int((mass > 0).sum())
    best_m, best_cert = 1, float("inf")
    for m in range(1, max(positive, 1) + 1):
        cert = 2.0 * (1.0 - cum[m - 1]) + m / ell
        if cert < best_cert - 1e-15:
            best_cert, best_m = cert, m
    support = [int(order[i]) for i in range(best_m)]
    q = pmf_from_table(["cand"], posterior, normalize=True)
    table = staircase_map(q, support, ell)
    return table, best_m, table.induced_array(count)


def select_from_posterior(posterior: np.ndarray, ell: int, seed_value: int | None,
                          rng: np.random.Generator | None = None,
                          degenerate: bool = False) -> tuple[SelectorOutcome, np.ndarray]:
    """Staircase-select an index from a posterior vector.

    Returns the outcome and the full induced distribution over candidates
    (used by exact enumeration). seed_value of None draws the seed uniformly
    from rng.
    """
    table, best_m, induced = _selection_table(posterior, ell)
    if seed_value is None:
        seed_value = int(rng.integers(1, ell + 1))
    chosen = table.map_seed(seed_value)
    outcome = SelectorOutcome(
        chosen=chosen, ell=ell, support_size=best_m,
        epsilon=float(table.epsilon), bound=float(table.bound),
        realized_l1=float(table.realized_l1), seed_value=seed_value,
        bits=_bits(ell), degenerate=degenerate)
    return outcome, induced


def posterior_select(chain: ChainCodebook, y, fixed: dict[int, int], ell: int,
                     seed: int, rho_budget: float | None = None,
                     cap: int | None = None) -> dict:
    """Seeded index selection against a nested chain codebook.

    Computes the exact posterior over the free levels' index tuples given the
    observation y and the fixed prefix indices, then staircase-selects with a
    uniform seed on [1..ell]. The report carries the certificate, the seed
    rate actually consumed, and the analytic seed-rate requirement
    sum(nu_free) - I(Y; D_free | D_fixed).
    """
    y = np.asarray(list(y), dtype=np.int64)
    if len(y) != chain.n:
        raise UsageError("observation length must match the chain block length")
    free = [lvl for lvl in range(chain.k) if lvl not in fixed]
    shape = [chain.sizes[lvl] for lvl in free]
    count = int(np.prod(shape)) if shape else 1
    if count > resolve_cap(cap):
        raise ResourceCapError("candidate space above cap; use the Monte Carlo path")

    kernel = condition(chain.joint, list(chain.level_labels))
    weights = np.empty(count)
    for flat in range(count):
        rest = flat
        assign = dict(fixed)
        for lvl, s in zip(reversed(free), reversed(shape)):
            assign[lvl] = rest % s
            rest //= s
        prefix = tuple(assign[lvl] for lvl in range(chain.k))
        letters = [chain.codeword(d, prefix[: d + 1]) for d in range(chain.k)]
        rows = kernel.weights[tuple(letters)]
        weights[flat] = float(np.prod(rows[np.arange(chain.n), y]))
    total = weights.sum()
    degenerate = total <= 0.0
    posterior = (np.full(count, 1.0 / count) if degenerate else weights / total)

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


def draw_common_randomness(cb: Codebook, rng: np.random.Generator) -> CommonRandomness:
    h = cb.h
    mm = {p: int(rng.integers(0, cb.sizes[m_minus(p)])) for p in order_pairs(h)}
    km = {i: int(rng.integers(0, cb.sizes[k_minus(i)])) for i in range(1, h)}
    return CommonRandomness(mm, km)


def _mode_bundle(scheme: Scheme, i: int, assignment, pending_seeds) -> HopMessage:
    cb = scheme.cb
    h = scheme.h
    entries = []
    if scheme.mode is Mode.FUNCTIONAL:
        for j in range(i + 1, h + 1):
            comp = m_plus((1, j))
            entries.append((f"m+(1,{j})", assignment[comp], cb.sizes[comp]))
    elif scheme.mode is Mode.UNRESTRICTED:
        for p in order_pairs(h):
            if p[0] <= i < p[1]:
                comp = m_plus(p)
                entries.append((f"m+({p[0]},{p[1]})", assignment[comp], cb.sizes[comp]))
        entries.append((f"k+({i})", assignment[k_plus(i)], cb.sizes[k_plus(i)]))
    else:  # action-dependent
        for j in range(i + 1, h + 1):
            comp = m_plus((1, j))
            entries.append((f"m+(1,{j})", assignment[comp], cb.sizes[comp]))
        entries.append((f"k+({i})", assignment[k_plus(i)], cb.sizes[k_plus(i)]))
        for ell_node in range(i + 1, h):
            entries.append((f"seed(k+{ell_node})", pending_seeds.get(ell_node, 0),
                            scheme.ell_k[ell_node]))
    return HopMessage(hop=i, entries=tuple(entries))


def encode_source_node(scheme: Scheme, x1: np.ndarray, cr: CommonRandomness,
                       rng_streams, node1_replay: dict | None = None) -> tuple[dict, Trace, dict]:
    """Node-1 processing: select m+_{1,.} from the posterior (and K_1+ when the
    mode calls for it), assemble the hop-1 bundle."""
    trace = Trace(trial=-1, seed=-1, x1=list(map(int, x1)), actions={"X1": list(map(int, x1))},
                  indices={}, messages=[], selectors={}, node_bits={})
    assignment = _init_assignment(scheme, cr, rng_streams, trace)
    if node1_replay is None:
        _node1_select(scheme, x1, assignment, rng_streams, trace)
    else:
        assignment.update(node1_replay)
        for comp, v in node1_replay.items():
            trace.indices[comp] = v
    if scheme.mode is not Mode.FUNCTIONAL:
        _k_select(scheme, 1, x1, assignment, rng_streams, trace)
    pending = _ad_pending_seeds(scheme, rng_streams, trace)
    msg = _mode_bundle(scheme, 1, assignment, pending)
    trace.messages.append(msg)
    return assignment, trace, pending


def _init_assignment(scheme: Scheme, cr: CommonRandomness, rng_streams, trace) -> dict:
    cb = scheme.cb
    h = scheme.h
    assignment: dict[Component, int] = dict(cr.as_assignment())
    for i in range(1, h):
        assignment.setdefault(k_plus(i), 0)
    for p in order_pairs(h):
        if p[0] == 1:
            continue
        size = cb.sizes[m_plus(p)]
        v = int(rng_streams("mplus", p[0], p[1]).integers(0, size))
        assignment[m_plus(p)] = v
        _charge(trace, p[0], _bits(size))
    for comp, v in assignment.items():
        trace.indices[comp] = v
    return assignment


def _charge(trace, node: int, bits: int):
    trace.node_bits[node] = trace.node_bits.get(node, 0) + bits
    trace.node_ops[node] = trace.node_ops.get(node, 0) + 1


def _node1_select(scheme: Scheme, x1, assignment, rng_streams, trace):
    posterior, degenerate = scheme.node1_posterior(x1, assignment)
    outcome, _ = scheme.selection(posterior, scheme.ell1, None,
                                  rng_streams("sel_m1"), degenerate)
    assignment.update(scheme.m1_space.unflatten(outcome.chosen))
    for comp, v in scheme.m1_space.unflatten(outcome.chosen).items():
        trace.indices[comp] = v
    trace.selectors[("m1",)] = outcome
    _charge(trace, 1, outcome.bits)
    if degenerate:
        trace.degenerate_draws += 1


def _k_select(scheme: Scheme, i: int, x_block, assignment, rng_streams, trace):
    if scheme.cb.sizes[k_plus(i)] == 1:
        assignment[k_plus(i)] = 0
        trace.indices[k_plus(i)] = 0
        return
    posterior, degenerate = scheme.k_posterior(i, x_block, assignment)
    outcome, _ = scheme.selection(posterior, scheme.ell_k[i], None,
                                  rng_streams("sel_k", i), degenerate)
    assignment[k_plus(i)] = outcome.chosen
    trace.indices[k_plus(i)] = outcome.chosen
    trace.selectors[("k", i)] = outcome
    node = 1 if scheme.mode is Mode.ACTION_DEPENDENT else i
    _charge(trace, node, outcome.bits)
    if degenerate:
        trace.degenerate_draws += 1


def _ad_pending_seeds(scheme: Scheme, rng_streams, trace) -> dict:
    """Action-dependent mode: node 1 pre-draws the seed values consumed by the
    downstream K+ selectors and ships them hop by hop."""
    if scheme.mode is not Mode.ACTION_DEPENDENT:
        return {}
    pending = {}
    for i in range(2, scheme.h):
        if scheme.cb.sizes[k_plus(i)] > 1:
            pending[i] = int(rng_streams("sel_k_seed", i).integers(1, scheme.ell_k[i] + 1))
            _charge(trace, 1, _bits(scheme.ell_k[i]))
    return pending


def relay_step(scheme: Scheme, node: int, assignment: dict, pending_seeds: dict,
               rng_streams, trace) -> np.ndarray:
    """Node `node` (2..h): draw local index, emit the action as the C-codeword,
    then (mode permitting) select K+ and forward."""
    cb = scheme.cb
    size = cb.sizes[l_of(node)]
    l_val = int(rng_streams("ell", node).integers(0, size))
    assignment[l_of(node)] = l_val
    trace.indices[l_of(node)] = l_val
    _charge(trace, node, _bits(size))
    action = cb.c_codeword(node, assignment)
    trace.actions[f"X{node}"] = list(map(int, action))
    if node < scheme.h and scheme.mode is not Mode.FUNCTIONAL:
        if scheme.mode is Mode.ACTION_DEPENDENT and node in pending_seeds:
            _k_select_with_seed(scheme, node, action, assignment, pending_seeds[node], trace)
        else:
            _k_select(scheme, node, action, assignment, rng_streams, trace)
    if node < scheme.h:
        trace.messages.append(_mode_bundle(scheme, node, assignment, pending_seeds))
    return action


def _k_select_with_seed(scheme: Scheme, i: int, x_block, assignment, seed_value: int, trace):
    posterior, degenerate = scheme.k_posterior(i, x_block, assignment)
    outcome, _ = scheme.selection(posterior, scheme.ell_k[i], seed_value, None, degenerate)
    assignment[k_plus(i)] = outcome.chosen
    trace.indices[k_plus(i)] = outcome.chosen
    trace.selectors[("k", i)] = outcome
    if degenerate:
        trace.degenerate_draws += 1


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
    budgets = scheme.budgets
    for msg in trace.messages:
        if scheme.mode is Mode.ACTION_DEPENDENT:
            # the k+ index crossing its own hop is outside the resource map's
            # index convention; audit the schedule against itself
            budget = float(sum(_bits(size) for _, _, size in msg.entries))
            slack = 0
        else:
            budget = budgets.r[msg.hop - 1] * n
            slack = len(msg.entries)
        if msg.bit_size > budget + slack + 1e-9:
            violations.append({"trial": trace.trial, "hop": msg.hop,
                               "bits": msg.bit_size, "budget": budget})
    for node, bits in trace.node_bits.items():
        budget = scheme.rho_allowance[node - 1] * n + trace.node_ops.get(node, 0)
        if bits > budget + 1e-9:
            violations.append({"trial": trace.trial, "node": node,
                               "bits": bits, "budget": budget})


def run_scheme(cb: Codebook, mode: Mode, trials: int, seed: int,
               x1_override=None, node1_replay: dict | None = None,
               seed_rate_overrides: dict | None = None,
               require_checks: bool = False, margin: float = 0.0) -> SchemeRun:
    """End-to-end coordination runs: sample X1 from the target marginal, draw
    common randomness, encode at node 1, relay down the line."""
    scheme = Scheme(cb, mode, seed_rate_overrides)
    checks = thm1_check(cb.rates, cb.spec, margin).passed and all(
        r.passed for r in thm2_check_all(cb.rates, cb.spec, margin))
    if require_checks and not checks:
        raise UsageError("codebook rates fail the achievability constraints")

    traces = []
    violations: list = []
    degenerate_trials = 0
    for t in range(trials):
        def streams(*key, _t=t):
            return _child_rng(seed, "trial", _t, *key)

        if x1_override is not None:
            x1 = np.asarray(x1_override, dtype=np.int64)
        else:
            rows = np.tile(scheme.x1_marginal, (scheme.n, 1))
            x1 = _sample_rows(streams("x1"), rows)
        cr = draw_common_randomness(cb, streams("cr"))
        assignment, trace, pending = encode_source_node(scheme, x1, cr, streams, node1_replay)
        trace.trial = t
        trace.seed = seed
        for node in range(2, scheme.h + 1):
            relay_step(scheme, node, assignment, pending, streams, trace)
        _audit(scheme, trace, violations)
        if trace.degenerate_draws:
            degenerate_trials += 1
        traces.append(trace)
    return SchemeRun(traces=traces, mode=scheme.mode.value, n=scheme.n,
                     budgets=scheme.budgets.to_dict(), checks_passed=checks,
                     budget_violations=violations, degenerate_trials=degenerate_trials)


def allied_generate(cb: Codebook, trials: int, seed: int,
                    seed_rate_overrides: dict | None = None,
                    require_checks: bool = False, margin: float = 0.0) -> SchemeRun:
    """Allied action synthesis: all indices uniform, X1 generated from the
    selected A-codewords, downstream actions via the same selector chain."""
    # allied generation has no mode restriction; use the unrestricted layout
    scheme = Scheme(cb, Mode.UNRESTRICTED, seed_rate_overrides)
    checks = thm1_check(cb.rates, cb.spec, margin).passed and all(
        r.passed for r in thm2_check_all(cb.rates, cb.spec, margin))
    if require_checks and not checks:
        raise UsageError("codebook rates fail the achievability constraints")

    traces = []
    degenerate_trials = 0
    for t in range(trials):
        def streams(*key, _t=t):
            return _child_rng(seed, "trial", _t, *key)

        trace = Trace(trial=t, seed=seed, x1=[], actions={}, indices={},
                      messages=[], selectors={}, node_bits={})
        cr = draw_common_randomness(cb, streams("cr"))
        assignment = _init_assignment(scheme, cr, streams, trace)
        m1 = {m_plus((1, j)): int(streams("m1plus", j).integers(0, cb.sizes[m_plus((1, j))]))
              for j in range(2, scheme.h + 1)}
        assignment.update(m1)
        for comp, v in m1.items():
            trace.indices[comp] = v
        x1 = scheme.sample_x1_from_codewords(assignment, streams("x1b5"))
        trace.x1 = list(map(int, x1))
        trace.actions["X1"] = list(map(int, x1))
        _k_select(scheme, 1, x1, assignment, streams, trace)
        for node in range(2, scheme.h + 1):
            relay_step(scheme, node, assignment, {}, streams, trace)
        if trace.degenerate_draws:
            degenerate_trials += 1
        traces.append(trace)
    return SchemeRun(traces=traces, mode="allied", n=scheme.n,
                     budgets=scheme.budgets.to_dict(), checks_passed=checks,
                     budget_violations=[], degenerate_trials=degenerate_trials)
