"""Golden fixtures: scheme runs, exact laws and CLI reports must not move.

The fixtures live in tests/golden/ and are rewritten only by
`python tests/golden/regen.py`; see its docstring for the comparison rule.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from coordline import codec
from coordline.codec import Scheme, _bits, run_scheme
from coordline.rates import Mode
from test_exact_batched import ref_selection_table
from test_probability import fraction_staircase

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


def test_write_mode_rewrites_only_differing_fixtures(tmp_path, monkeypatch, capsys):
    """regen.py without --check writes a fixture only where first_difference reports a
    difference or none is stored: a last-ulp float drift keeps the stored file."""
    builders = {"same": {"a": [1.0]}, "drift": {"a": [1.0]}, "moved": {"a": [2.0]}, "new": {"a": [1]}}
    stored = {"same": '{"a": [1.0]}\n', "drift": '{"a": [1.0000000000000002]}\n', "moved": '{"a": [1.0]}\n'}
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(regen, "cases", lambda: {name: lambda v=v: v for name, v in builders.items()})
    for name, text in stored.items():
        regen.fixture_path(name).write_text(text)
    assert regen.main([]) == 0
    assert {name: regen.fixture_path(name).read_text() for name in ("same", "drift")} == {
        name: stored[name] for name in ("same", "drift")}
    assert {name: regen.load(name) for name in ("moved", "new")} == {"moved": {"a": [2.0]}, "new": {"a": [1]}}
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:-1]] == ["moved", "new"]
    assert out[-1] == f"wrote 2 of 4 fixtures to {tmp_path}"


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


def _recount(scheme, run):
    """A run's bits per hop from its bundle layout, and its charges per node from its
    selector keys and the indices nodes > 1 draw uniformly; every shipped and charged
    value of every trial fits its metered range."""
    trials = len(run.actions)
    shipped = run.indices | {key: seeds for key, (seeds, _, _) in run.selected.items()}
    hops = {}
    for hop, entries in scheme.hop_entries.items():
        for name, key, size in entries:  # selector seeds run over [1, ell]
            values = shipped.get(key, np.zeros(trials, dtype=np.int64))
            assert len(values) == trials
            assert (((0 <= values) & (values < size)) | (name.startswith("seed") & (values == size))).all()
        hops[hop] = sum(_bits(size) for *_, size in entries)
    ells = {("m1",): scheme.ell1} | {("k", i): ell for i, ell in scheme.ell_k.items()}
    charges = {key: (1 if key == ("m1",) else scheme.schedule.k_seed_payer(key[1]), _bits(ells[key]))
               for key in run.selected}
    charges |= {comp: (comp[1], _bits(scheme.cb.sizes[comp])) for comp in run.indices
                if comp[0] == "l" or (comp[0] == "m+" and comp[1] != 1)}
    for key, (_, bits) in charges.items():
        assert (shipped[key] <= 2 ** bits).all() if key in run.selected else (shipped[key] < 2 ** bits).all()
    nodes, ops = {}, {}
    for node, bits in charges.values():
        nodes[node] = nodes.get(node, 0) + bits
        ops[node] = ops.get(node, 0) + 1
    return hops, charges, nodes, ops


def _violations(scheme, run):
    """The budgets each trial exceeds: a hop's bits above R_i * n plus one bit per bundle
    entry (where the schedule audits hops), a node's bits above its allowance times n
    plus one bit per charge."""
    hops, _, nodes, ops = _recount(scheme, run)
    out = []
    for hop, entries in scheme.hop_entries.items() if scheme.schedule.audits_hops else ():
        budget = scheme.budgets.r[hop - 1] * scheme.n
        if hops[hop] > budget + len(entries) + 1e-9:
            out.append({"hop": hop, "bits": hops[hop], "budget": budget})
    for node in sorted(nodes):
        budget = scheme.rho_allowance[node - 1] * scheme.n + ops[node]
        if nodes[node] > budget + 1e-9:
            out.append({"node": node, "bits": nodes[node], "budget": budget})
    return [{"trial": t} | v for t in range(len(run.actions)) for v in out]


class TestSchemeAudit:
    """The audit, computed once per run, equals a recount of each golden scheme case
    from its bundle layout (Scheme.hop_entries) and its arrays, and the recounted
    charges are Scheme.charges; a node-1 seed range past its budget is flagged in
    every trial."""

    @pytest.mark.parametrize("oversized_seed", [False, True])
    @pytest.mark.parametrize("preset,mode", regen.SCHEME_CASES)
    def test_audit_equals_recount(self, preset, mode, oversized_seed, monkeypatch):
        if oversized_seed:
            monkeypatch.setattr(codec, "node1_selector_rate", lambda spec, rates: 5.0)
        exp, cb = regen._codebook(preset)
        scheme = Scheme(cb, Mode(mode))
        run = run_scheme(cb, Mode(mode), regen.TRIALS, exp.seed)
        hop_bits, node_bits, _ = codec._audit(scheme)
        assert run.actions.shape == (regen.TRIALS, scheme.h, scheme.n)
        hops, charges, nodes, _ = _recount(scheme, run)
        assert hops == hop_bits
        assert charges == scheme.charges
        assert nodes == run.node_bits == node_bits
        want = _violations(scheme, run)
        assert run.budget_violations == want
        assert bool(want) == oversized_seed


class TestSchemeCertificates:
    """Every distinct posterior a golden scheme case selects from, recomputed from the
    run's arrays, has the certificate of the all-Fraction reference staircase: its row
    of Scheme.selection has the reference's support size, epsilon, bound and realized
    L1, and realized L1 <= bound. Each trial's seed maps through its posterior's row to
    the candidate the run chose, and the degenerate flags are the posteriors'."""

    @pytest.mark.parametrize("preset,mode", regen.SCHEME_CASES)
    def test_rows_match_fraction_reference(self, preset, mode):
        exp, cb = regen._codebook(preset)
        scheme = Scheme(cb, Mode(mode))
        run = run_scheme(cb, Mode(mode), regen.TRIALS, exp.seed)
        for key, (seeds, chosen, degenerate) in run.selected.items():
            if key == ("m1",):
                ell, (posteriors, flags) = scheme.ell1, scheme.node1_posterior(run.actions[:, 0], run.indices)
            else:
                ell, (posteriors, flags) = scheme.ell_k[key[1]], scheme.k_posterior(
                    key[1], run.actions[:, key[1] - 1], run.indices)
            assert np.array_equal(flags, degenerate), key
            unique, inverse = np.unique(posteriors, axis=0, return_inverse=True)
            table = scheme.selection(unique, ell)
            assert np.array_equal(table.map_seed(seeds, inverse.ravel()), chosen), key
            for r, posterior in enumerate(unique):
                row = table.row(r)
                support, _ = ref_selection_table(posterior, ell)
                ref = fraction_staircase(posterior, support, ell)
                assert row.support_size == len(support), key
                assert (row.epsilon, row.bound, row.realized_l1) == (ref["epsilon"], ref["bound"], ref["realized_l1"])
                assert row.realized_l1 <= row.bound
