"""Golden fixtures: traces, exact laws and CLI reports must not move.

The fixtures live in tests/golden/ and are rewritten only by
`python tests/golden/regen.py`; see its docstring for the comparison rule.
"""
import importlib.util
from pathlib import Path

import pytest

from coordline import codec
from coordline.codec import _bits, run_scheme
from coordline.rates import Mode

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.cases()))
def test_fixture_matches(name):
    assert regen.first_difference(regen.load(name), regen.build(name)) is None


def test_every_fixture_file_has_a_case():
    stored = {path.stem for path in regen.GOLDEN_DIR.glob("*.json")}
    assert stored == set(regen.cases())


class TestFirstDifference:
    def test_float_within_tolerance(self):
        assert regen.first_difference({"a": [1.0]}, {"a": [1.0 + 1e-14]}) is None

    def test_reports_path_of_first_mismatch(self):
        diff = regen.first_difference({"a": [1, {"b": 2.0}]}, {"a": [1, {"b": 2.1}]})
        assert diff.startswith("$.a[1].b:")

    def test_int_and_float_differ(self):
        assert regen.first_difference([1], [1.0]) is not None

    def test_key_order_matters(self):
        assert regen.first_difference({"a": 1, "b": 2}, {"b": 2, "a": 1}) is not None


def _recount(scheme, trace):
    """A trace's bits per hop from its messages; and its bits and charges per node from
    its selector seeds and the indices nodes > 1 draw uniformly."""
    hops = {}
    for msg in trace.messages:
        for name, value, size in msg.entries:  # selector seeds run over [1, ell]
            assert 0 <= value < size or (name.startswith("seed") and value == size)
        hops[msg.hop] = sum(_bits(size) for *_, size in msg.entries)
    charges = [(1 if key == ("m1",) else scheme.schedule.k_seed_payer(key[1]), outcome.bits)
               for key, outcome in trace.selectors.items()]
    charges += [(comp[1], _bits(scheme.cb.sizes[comp])) for comp in trace.indices
                if comp[0] == "l" or (comp[0] == "m+" and comp[1] != 1)]
    nodes, ops = {}, {}
    for node, bits in charges:
        nodes[node] = nodes.get(node, 0) + bits
        ops[node] = ops.get(node, 0) + 1
    return hops, nodes, ops


def _trace_violations(scheme, trace):
    """The budgets one trace exceeds, by the rule each trace was once audited with."""
    hops, nodes, ops = _recount(scheme, trace)
    out = []
    for msg in trace.messages if scheme.schedule.audits_hops else ():
        budget = scheme.budgets.r[msg.hop - 1] * scheme.n
        if hops[msg.hop] > budget + len(msg.entries) + 1e-9:
            out.append({"trial": trace.trial, "hop": msg.hop, "bits": hops[msg.hop], "budget": budget})
    for node in sorted(nodes):
        budget = scheme.rho_allowance[node - 1] * scheme.n + ops[node]
        if nodes[node] > budget + 1e-9:
            out.append({"trial": trace.trial, "node": node, "bits": nodes[node], "budget": budget})
    return out


class TestSchemeAudit:
    """The audit, computed once per run, equals a recount of every trace of each golden
    scheme case; a node-1 seed range past its budget is flagged in every trial."""

    @pytest.mark.parametrize("oversized_seed", [False, True])
    @pytest.mark.parametrize("preset,mode", regen.SCHEME_CASES)
    def test_audit_equals_trace_recount(self, preset, mode, oversized_seed, monkeypatch):
        if oversized_seed:
            monkeypatch.setattr(codec, "node1_selector_rate", lambda spec, rates: 5.0)
        exp, cb = regen._codebook(preset)
        run = run_scheme(cb, Mode(mode), regen.TRIALS, exp.seed)
        hop_bits, node_bits, _ = codec._audit(run.scheme)
        assert len(run.traces) == regen.TRIALS
        for trace in run.traces:
            hops, nodes, _ = _recount(run.scheme, trace)
            assert hops == hop_bits
            assert nodes == trace.node_bits == node_bits
        want = [v for trace in run.traces for v in _trace_violations(run.scheme, trace)]
        assert run.budget_violations == want
        assert bool(want) == oversized_seed
