"""Golden fixtures: traces, exact laws and CLI reports must not move.

The fixtures live in tests/golden/ and are rewritten only by
`python tests/golden/regen.py`; see its docstring for the comparison rule.
"""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.cases()))
def test_fixture_matches(name):
    assert regen.first_difference(regen.load(name), regen.build(name)) is None


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
