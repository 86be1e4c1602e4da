"""The float and integer text kernels against Python's own spelling."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolemaps import _numtext, cli

#: How each format spells a float: float.__repr__ for CSV, json.dumps for JSON.
REFERENCE = {"csv": float.__repr__, "json": json.dumps}


def spelled(text) -> list[str]:
    # the rows of a kernel's word matrix, one string each, its NUL holes dropped
    newline = np.full((len(text), 1), ord("\n"), dtype=np.uint32)
    return np.hstack([text, newline]).tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def check(values: np.ndarray) -> None:
    """Assert that float_text spells each finite float64 of ``values`` as CSV
    and JSON reports do."""
    values = values[np.isfinite(values)]
    for lo in range(0, len(values), 1 << 16):
        block = values[lo:lo + (1 << 16)]
        got = spelled(_numtext.float_text(block))
        for fmt, reference in REFERENCE.items():
            expected = list(map(reference, block.tolist()))
            wrong = [(g, e) for g, e in zip(got, expected) if g != e]
            assert (len(got), wrong[:5]) == (len(expected), []), fmt


def check_random_patterns(count: int, seed: int) -> None:
    """``check`` on ``count`` raw 64-bit patterns drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    for lo in range(0, count, 1 << 20):
        bits = rng.integers(0, 2**64, min(1 << 20, count - lo), dtype=np.uint64, endpoint=False)
        check(bits.view(np.float64))


def edges() -> np.ndarray:
    """Zeros, the smallest subnormals, every power of two and of ten with its
    neighbours, the points where repr changes notation and the ends of the
    exact integers, with both signs."""
    values = [0.0, *(k * 5e-324 for k in range(1, 65))]
    for power in [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]:
        values += [math.nextafter(power, 0), power, math.nextafter(power, math.inf)]
    values += [1e-4, 1e-5, 1e16, 9999999999999998.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2]
    values += [sys.float_info.max]
    return np.concatenate([values, np.negative(values)])


def test_edges_match_repr_and_json():
    check(edges())


def test_each_layout_alone_matches_repr_and_json():
    # A block's parts are as wide as its widest value needs, so each point
    # position and notation is checked in a block of its own as well.
    values = [0.0, 5e-324, sys.float_info.max, 2.0**53 + 2]
    values += [m * 10.0**e for e in range(-6, 20) for m in (1, 5, 1.25, 9.99)]
    for value in values + [-v for v in values]:
        check(np.array([value]))
        check(np.full(3, value))
    check(np.array([1e-4, -9.99e-4]))


@given(st.integers(-8, 20), st.lists(st.floats(1, 10, exclude_max=True), min_size=1,
                                         max_size=50))
def test_blocks_of_one_decade_match_repr_and_json(decade, mantissas):
    # every value of the block shares its decimal point position, or is
    # written with an exponent
    check(np.array(mantissas) * 10.0**decade)


def test_random_patterns_match_repr_and_json():
    # the CI step "Float text equals float.__repr__" checks 10**7 of them
    check_random_patterns(1 << 16, seed=1)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_any_bit_pattern_matches_repr_and_json(patterns):
    check(np.array(patterns, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("value", [math.nan, -math.nan, math.inf, -math.inf])
def test_non_finite_value_raises(value):
    # no report holds one: the points of an orbit are finite
    with pytest.raises(ValueError, match="is not a finite float"):
        _numtext.float_text(np.array([1.5, value]))


def check_rows(count: int, seed: int) -> None:
    """Assert that the finite values of ``count`` raw 64-bit patterns drawn
    from ``seed``, with their step numbers, give the same JSON and CSV rows
    through the kernels as through the list route, a chunk at a time."""
    bits = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64, endpoint=False)
    xi = bits.view(np.float64)
    xi = xi[np.isfinite(xi)]
    arrays = cli.Table({"step": range(len(xi)), "xi": xi})
    lists = cli.Table({"step": list(range(len(xi))), "xi": xi.tolist()})
    assert cli._by_kernels(arrays) and not cli._by_kernels(lists)
    for fmt in ("json", "csv"):
        for start in range(0, len(xi), cli._CHUNK_ROWS):
            assert cli._chunk(arrays, start, fmt) == cli._chunk(lists, start, fmt), (fmt, start)


def test_random_rows_match_the_list_route():
    # the CI step "Float text equals float.__repr__" checks 10**6 of them
    check_rows(2 * cli._CHUNK_ROWS + 3, seed=2)


def int_rows(steps: range) -> list[str]:
    return spelled(_numtext.int_text(steps))


@given(st.integers(0, 2**64 - 1), st.integers(1, 300))
def test_any_range_matches_str(first, rows):
    steps = range(first, min(first + rows, 2**64))
    assert int_rows(steps) == list(map(str, steps))


@pytest.mark.parametrize("power", range(1, 20))
def test_ranges_across_a_power_of_ten_match_str(power):
    # a chunk's rows on both sides of 10**power, from 0 for the powers that
    # one chunk of rows from 0 crosses
    first = max(10**power - cli._CHUNK_ROWS // 2, 0)
    steps = range(first, first + cli._CHUNK_ROWS)
    assert int_rows(steps) == list(map(str, steps))


@pytest.mark.parametrize("stop", [1, 2, 10, 11, 8191, 8192, 8193, 10**5 + 1])
def test_ranges_from_zero_match_str(stop):
    assert int_rows(range(stop)) == list(map(str, range(stop)))


@pytest.mark.parametrize("value", [0, 1, 9, 10, 99, 100, 9999, 10**4, 10**8 - 1, 10**8,
                                   10**16 - 1, 10**16, 10**19, 2**63, 2**64 - 1])
def test_one_row_range_matches_str(value):
    assert int_rows(range(value, value + 1)) == [str(value)]


def test_range_up_to_the_bound_matches_str():
    steps = range(2**64 - cli._CHUNK_ROWS, 2**64)
    assert int_rows(steps) == list(map(str, steps))


def test_constant_with_a_nul_is_refused():
    # a NUL of a separator would be dropped as a hole
    with pytest.raises(ValueError, match="holds a NUL"):
        _numtext.table_text([range(2), np.array([0.5, 1.5])], b"", [b",", b"\0\n"])
