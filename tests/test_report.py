"""``render_json`` against its reference, ``json.dumps(sort_keys=True,
indent=2)``: the same text for every tree a report can hold."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ftqcost.report
from ftqcost.report import render_json

SRC = Path(ftqcost.report.__file__).resolve().parent.parent


def reference(tree) -> str:
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


KEYS = st.one_of(
    st.sampled_from(["", "a", "A", "b", "é", "ключ", " ", "tab\there", 'q"uote', "back\\slash", "\x00", "\U0001f600"]),
    st.text(max_size=8),
)
FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308]),
    st.floats(),
)
SCALARS = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    FLOATS,
)


# A payload one example reaches twice, as a band report reaches its nominal.
NOMINAL = {"code_distance": 17, "wall_time_seconds": 1.5, "warnings": []}


@st.composite
def trees(draw):
    """A tree of dicts, lists and tuples over SCALARS, in which one dict may
    be reached twice, as a band report's nominal payload is."""
    shared = draw(st.dictionaries(KEYS, SCALARS, max_size=4))
    leaves = st.one_of(SCALARS, st.just(shared))
    return draw(st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(KEYS, inner, max_size=4),
        ),
        max_leaves=24,
    ))


@settings(max_examples=150, deadline=None)
@given(trees())
@example({})
@example([])
@example(())
@example({"": {}, "b": [], "a": ()})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 2**100, True, False, None])
@example({"estimates": [NOMINAL], "sensitivity": {"nominal": NOMINAL}})
@example({"é": "ключ", " ": "\x00\x1f\"\\", "\U0001f600": "\ud800"})
def test_render_json_matches_json_dumps(tree):
    assert render_json(tree) == reference(tree)


@pytest.mark.parametrize("tree", [{1, 2}, {"a": [b"bytes"]}])
def test_a_value_json_cannot_hold_raises_type_error(tree):
    with pytest.raises(TypeError) as expected:
        reference(tree)
    with pytest.raises(TypeError, match=str(expected.value)):
        render_json(tree)


def test_render_json_without_the_c_escaper():
    """Where the interpreter has no ``_json``, the report takes json.encoder's
    pure-Python escaper and still writes json.dumps's text."""
    tree = {"é": ["ключ\n", {'q"uote': 1.5, "back\\slash": None}], "\x00\t": "\U0001f600\ud800"}
    code = (
        "import sys\n"
        "sys.modules['_json'] = None\n"
        "import json\n"
        "import ftqcost.report as report\n"
        f"tree = {tree!r}\n"
        "assert report.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii\n"
        "assert report.render_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + '\\n'\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
