"""Every binding the traced benchmark wraps (perfbench/tracer.py's SPANS and COUNTS)
resolves in coordline: deleting or renaming a traced function or method fails here,
not only in the benchmark's own tests."""
import importlib
import importlib.util
from pathlib import Path

import pytest

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
