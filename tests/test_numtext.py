import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortcycles import numtext
from shortcycles.numtext import write_csv


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("numtext") / "out.csv"


def written(path, *columns) -> bytes:
    write_csv(path, [f"x{j}" for j in range(len(columns))], columns)
    return path.read_bytes()


def by_repr(*columns) -> bytes:
    """The bytes csv.writer gives: str of ints, repr of floats."""
    header = ",".join(f"x{j}" for j in range(len(columns)))
    rows = zip(*(column.tolist() if isinstance(column, np.ndarray) else column for column in columns))
    return "".join(line + "\r\n" for line in [header, *(",".join(map(repr, row)) for row in rows)]).encode()


def neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_floats_are_written_as_repr(path, values):
    values = np.array(values, dtype=np.float64)
    assert written(path, values) == by_repr(values)


def test_random_bit_patterns(path):
    bits = np.random.default_rng(20201).integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert written(path, values) == by_repr(values)


def test_powers_of_two_and_their_neighbours(path):
    # 2^52 significands (spacing halves just below) and ties between two shortest candidates
    values = neighbours([math.ldexp(1.0, e) for e in range(-1074, 1024)])
    assert written(path, values) == by_repr(values)


def test_powers_of_ten_and_their_neighbours(path):
    values = neighbours([float(f"1e{k}") for k in range(-324, 309)])
    assert written(path, values) == by_repr(values)


def test_integers_around_two_to_the_53(path):
    values = np.array([float(2**53 + i) for i in range(-2000, 2001)] + [2.0**50 + 0.25, 2.0**50 + 0.75])
    assert written(path, values, -values) == by_repr(values, -values)


def test_layout_boundaries(path):
    # positional from 1e-4 up to 1e16 exclusive, scientific outside, with two or three exponent digits
    values = neighbours([1e-4, 1e-5, 1e15, 1e16, 1e99, 1e100, 1e-99, 1e-100, 0.5, 1.0, 9.5, 123.0])
    assert written(path, values, -values) == by_repr(values, -values)
    assert written(path, np.array([1e-4, 1e-5, 1e15, 1e16])) == b"x0\r\n0.0001\r\n1e-05\r\n1000000000000000.0\r\n1e+16\r\n"


def test_ints_are_written_as_str(path):
    ints = np.array([0, 1, 9, 10, 99, 100, 9999, 10000, 123456789, 2**53 + 1, 2**63 - 1], dtype=np.int64)
    floats = np.linspace(0, 1, len(ints))
    assert written(path, ints, floats, range(len(ints))) == by_repr(ints, floats, range(len(ints)))


def test_negative_ints_are_rejected(path):
    with pytest.raises(ValueError, match="non-negative"):
        written(path, np.array([3, -1]))


def test_columns_must_hold_numbers(path):
    with pytest.raises(ValueError, match="ints or floats"):
        written(path, np.array([True, False]))


def test_columns_must_have_equal_length(path):
    with pytest.raises(ValueError, match="equal length"):
        written(path, np.zeros(3), np.zeros(4))


def test_header_only(path):
    assert written(path, np.zeros(0), np.zeros(0, dtype=np.int64)) == b"x0,x1\r\n"


def test_blocks_join_without_seams(path, monkeypatch):
    values = np.random.default_rng(3).standard_normal(100) * 10.0 ** np.arange(-50, 50)
    whole = written(path, range(100), values)
    monkeypatch.setattr(numtext, "BLOCK_ROWS", 7)
    assert written(path, range(100), values) == whole == by_repr(range(100), values)


def test_loaded_and_built_on_first_use(src_env):
    # importing the command line neither loads the writer nor builds its tables
    script = (
        "import sys, shortcycles.cli; print('shortcycles.numtext' in sys.modules); "
        "import shortcycles.numtext as t; print(t._tables.cache_info().currsize)"
    )
    result = subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "0"]
