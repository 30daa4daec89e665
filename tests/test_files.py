"""``_files.float_rows`` writes exactly what the per-value ``repr`` f-string
wrote, for every float: orjson's text where it is ``repr``'s (zero and
1e-4 <= |x| < 1e16), ``repr`` itself elsewhere."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spectral_deform._files import float_rows

BELOW_1E_4 = float(np.nextafter(1e-4, 0.0))
BELOW_1E16 = float(np.nextafter(1e16, 0.0))
EXAMPLES = [0.0, -0.0, 5e-324, 1e-4, BELOW_1E_4, 1e16, BELOW_1E16, 50.0, 1e15, -1e15]


def _per_value(values, sep, index):
    """The f-string writer: each value's ``repr``, row by row."""
    return "".join((f"{i}{sep}" if index else "") + sep.join(map(repr, row)) + "\n"
                   for i, row in enumerate(values.tolist()))


def _tables(elements):
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 4)),
                      elements=elements)


# zero and 1e-4 <= |x| < 1e16: where orjson's text is repr's
IN_RANGE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
LAYOUTS = [(" ", False), (",", False), (" ", True), (",", True)]


@pytest.mark.parametrize("sep, index", LAYOUTS)
@settings(max_examples=200, deadline=None, database=None)
@given(values=_tables(IN_RANGE))
@example(values=np.array([[0.0, -0.0, 1e-4, -BELOW_1E16], [50.0, 1e15, -1e-4, 0.1]]))
@example(values=np.array([[123456789012345.6, -2.5e-3, 1.0]]))
def test_in_range_values_are_orjsons_text(values, sep, index):
    import orjson

    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    assert text == "[" + ",".join(f"[{','.join(map(repr, row))}]"
                                  for row in values.tolist()) + "]"
    assert float_rows(values, sep, index) == _per_value(values, sep, index)


@pytest.mark.parametrize("sep, index", LAYOUTS)
@settings(max_examples=200, deadline=None, database=None)
@given(values=_tables(FINITE))
@example(values=np.array([EXAMPLES]))
@example(values=np.array(EXAMPLES).reshape(-1, 1))
@example(values=np.array([[5e-324, 1.0, 2.0], [3.0, 4.0, 5.0], [1e16, -1e300, 2.6e-7]]))
def test_every_finite_value_is_its_repr(values, sep, index):
    assert float_rows(values, sep, index) == _per_value(values, sep, index)


@pytest.mark.parametrize("sep, index", LAYOUTS)
def test_non_finite_values_are_their_repr(sep, index):
    values = np.array([[np.nan, np.inf, -np.inf], [1.0, -np.nan, 0.5]])
    assert float_rows(values, sep, index) == _per_value(values, sep, index)


def test_a_single_row_and_no_rows():
    assert float_rows(np.array([[1e-05, 2.0]]), ",", index=True) == "0,1e-05,2.0\n"
    assert float_rows(np.empty((0, 3)), " ") == ""


def test_any_float_array_is_converted():
    # a non-contiguous float32 slice is written as its float64 values
    values = np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2] / 3
    assert float_rows(values, " ") == _per_value(values.astype(np.float64), " ", False)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_a_table_is_2d(shape):
    with pytest.raises(ValueError, match="2-D"):
        float_rows(np.zeros(shape), " ")
