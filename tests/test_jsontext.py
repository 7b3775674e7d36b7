"""`jsontext.dumps` against `json.dumps(value, indent=2, sort_keys=True)`."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from solowfrac.jsontext import dumps


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


# Quotes, backslashes, the short escapes, other control characters, DEL,
# Latin-1, the BMP's top and lone surrogates, and astral characters.
SPECIAL = ('"\\/\n\r\t\b\f\x00\x01\x1f\x7f\x80'
           '\xe9\u2028\ufffe\uffff\ud800\udfff\U00010000\U0001f600\U0010ffff')
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=12)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, 1e16, 0.1]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**300, 10**300),
                    st.sampled_from([0, 1, -1]), FLOATS, TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_matches_json_dumps(value):
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 10**400, True, False, 1, None, [], {}, (),
    [[]], {"a": {}}, [True, 1, 1.0], (1, (2,)), "\U0001f600", "\x7f", 'a"b\\c',
    {"b": 1, "a": [1.5, "x"], "B": None},
])
def test_examples(value):
    assert dumps(value) == reference(value)


def test_unsupported_type_is_a_type_error():
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        dumps({"a": {1}})
