"""load_ticks parses its rows in bulk: the values must be those of ``float``
on each field's text, whichever path the file takes."""

import codecs
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlvs import ingest
from rlvs.ingest import load_ticks

DIGITS = "0123456789"


@st.composite
def decimal_text(draw, signs=("", "+", "-")):
    """Decimal text of a non-negative number (a minus sign only on a zero),
    with optional fraction, exponent and surrounding blanks."""
    sign = draw(st.sampled_from(signs))
    digits = "0" if sign == "-" else DIGITS
    whole = draw(st.text(digits, min_size=0, max_size=10))
    frac = draw(st.text(digits, min_size=0 if whole else 1, max_size=10))
    text = sign + whole + ("." + frac if frac or draw(st.booleans()) else "")
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
        text += str(draw(st.integers(0, 300)))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return draw(pad) + text + draw(pad)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _write(path, rows):
    path.write_text("time_s,price\n" + "".join(f"{t},{p}\n" for t, p in rows))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(decimal_text(), decimal_text(signs=("", "+"))),
                     min_size=1, max_size=30))
def test_bulk_parse_equals_float_on_decimal_text(tmp_path_factory, rows):
    rows = [(t, p) for t, p in rows
            if np.isfinite(float(t)) and np.isfinite(float(p)) and float(p) > 0]
    if not rows:
        return
    path = tmp_path_factory.mktemp("ticks") / "ticks.csv"
    _write(path, rows)
    # The bulk parse must take every such file: the row-by-row path is not run.
    with mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError("row by row")):
        s = load_ticks(path)
    want = sorted(((float(t), float(p)) for t, p in rows), key=lambda row: row[0])
    assert _bits(s.times) == _bits([t for t, _ in want])
    assert _bits(s.prices) == _bits([p for _, p in want])


def test_rows_the_bulk_parse_refuses_are_read_row_by_row(tmp_path):
    # Blank fields, quoting and digit grouping: accepted as float() accepts them.
    path = tmp_path / "ticks.csv"
    path.write_text('time_s,price\n0.5,1_000.5\n , \n"0.25",2\n\n1,3,extra\n')
    s = load_ticks(path)
    assert s.times.tolist() == [0.25, 0.5, 1.0]
    assert s.prices.tolist() == [2.0, 1000.5, 3.0]


def test_carriage_return_line_ends(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_bytes(b"time_s,price\r\n1.0,2.0\r\n0.5,3.0\r\n")
    s = load_ticks(path)
    assert s.times.tolist() == [0.5, 1.0]
    assert s.prices.tolist() == [3.0, 2.0]


@pytest.mark.parametrize("body", [b"time_s,price\n1.0,2.0\n0.5,3.0\n",
                                  b'time_s,price\r\n1.0,2.0\r\n"0.5",3.0\r\n'])
def test_byte_order_mark_skipped(tmp_path, body):
    # Excel's "CSV UTF-8" export starts the file with one; the second file
    # is read row by row.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(body)
    marked.write_bytes(codecs.BOM_UTF8 + body)
    a, b = load_ticks(plain), load_ticks(marked)
    assert _bits(b.times) == _bits(a.times) == _bits([0.5, 1.0])
    assert _bits(b.prices) == _bits(a.prices) == _bits([3.0, 2.0])
