"""``reports.report_json`` writes ``report.json``: the bytes of
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` on any tree
of JSON values.  ``test_cli.py::test_demo_config_runs`` checks it on every
demo config's report."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqmc.reports import report_json


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1])
    | st.text()
    | st.sampled_from(["", "é", "☃ snow", "tab\there", "quote\"back\\slash", "\x00\x1f", "𝄞"])
)
TREES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=5)
    | st.tuples(kids, kids)
    | st.dictionaries(st.text(max_size=6), kids, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_same_text_as_json_dumps(tree):
    assert report_json(tree) == reference(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [{}, [[]]]},
        {"z": 1, "a": {"y": [1.5, -0.0, None, True, False]}},
        {"nested": {1: "int keys", 2: [1.0]}},  # a dict of non-str keys, at depth
        {"k": {0.5: 1, 2.0: {"x": [2, 3]}}},
        {"k": {True: 1, False: 2}},
    ],
)
def test_edge_trees(tree):
    assert report_json(tree) == reference(tree)


def test_unsortable_keys_raise_as_json_dumps_does():
    tree = {"a": {1: 1, "b": 2}}
    with pytest.raises(TypeError) as expected:
        reference(tree)
    with pytest.raises(TypeError) as got:
        report_json(tree)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"a": {"b": [v]}}])
def test_nonfinite_floats_raise_value_error(bad, wrap):
    with pytest.raises(ValueError) as expected:
        reference(wrap(bad))
    with pytest.raises(ValueError) as got:
        report_json(wrap(bad))
    assert str(got.value) == str(expected.value)
