"""Every binding the traced benchmark wraps (perfbench/tracer.py's SPANS and COUNTS)
resolves in coordline, and every attribute its count hooks read exists on real results:
deleting or renaming a traced function, method or attribute fails here, not only in
the benchmark's own tests."""
import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from coordline import codec
from coordline.cli import Experiment
from coordline.codebooks import build_codebooks
from coordline.evalharness import exact_induced
from coordline.fme import LinearSystem, fme_project
from coordline.linestruct import aux_from_tags, copy_of
from coordline.presets import dsbs_network, preset_config
from coordline.rates import CodebookRates, Mode, thm1_check

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

BINDINGS = sorted({(module, attr) for _, module, attr, *_ in tracer.SPANS + tracer.COUNTS})


def test_tracer_lists_bindings():
    assert ("coordline.codebooks", "Codebook.a_codeword") in BINDINGS
    assert ("coordline.probability", "product_extend") in BINDINGS


@pytest.mark.parametrize("module, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_binding_resolves(module, attr):
    owner = importlib.import_module(module)
    *path, member = attr.split(".")
    for name in path:
        owner = getattr(owner, name)
    assert member in vars(owner), f"{module}.{attr} is not defined where the tracer wraps it"


def _counts(hook, args, result):
    """The counts one after-hook writes on a stub tracer, called as the span wrapper calls it."""
    stub = SimpleNamespace(counts=Counter())
    hook(stub, args, {}, result, None)
    return dict(stub.counts)


def test_hooks_read_real_results(monkeypatch):
    """The after-hooks read attributes of real results (book arrays, codebook sizes, run
    and report fields, system rows); each count they write is a positive int, so a
    renamed attribute fails here instead of counting 0 or being skipped in the benchmark.
    The run uses a copy target (DSBS with crossover 0) at zero rates, whose trials
    hit zero-mass posteriors, and an oversized node-1 seed range, so both run counts
    are nonzero."""
    exp = Experiment(preset_config("dsbs"))
    cb = build_codebooks(exp.spec, exp.rates, 1, 0)
    copy_spec = aux_from_tags(dsbs_network(0.0), a_tags={(1, 2): copy_of("X2")})
    copy_cb = build_codebooks(copy_spec, CodebookRates.for_network(2), 1, 0)
    monkeypatch.setattr(codec, "node1_selector_rate", lambda spec, rates: 5.0)
    system = LinearSystem(("x", "y"), (((Fraction(1), Fraction(1)), Fraction(2)),
                                       ((Fraction(0), Fraction(-1)), Fraction(-1))))
    written = {
        **_counts(tracer._build_codebooks_after, (exp.spec, exp.rates, 1, 0), cb),
        **_counts(tracer._exact_induced_after, (cb, exp.mode), exact_induced(cb, exp.mode)),
        **_counts(tracer._run_scheme_after, (copy_cb, Mode.FUNCTIONAL, 3, 0),
                  codec.run_scheme(copy_cb, Mode.FUNCTIONAL, 3, 0)),
        **_counts(tracer._thm1_after, (exp.rates, exp.spec), thm1_check(exp.rates, exp.spec)),
        **_counts(tracer._fme_after, (system, ["y"]), fme_project(system, ["y"])),
    }
    assert sorted(written) == ["codebooks.parent_blocks", "codebooks.stored_symbols", "codec.budget_violations",
                               "codec.degenerate_trials", "codec.trials", "evalharness.enum_paths",
                               "fme.rows_in", "fme.rows_out", "rates.thm1_check.constraints"]
    assert all(type(v) is int and v > 0 for v in written.values()), written
