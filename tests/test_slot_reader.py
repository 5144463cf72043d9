"""The ``Fraction`` slot reader (``model._num``, ``model._den``) and the
checks that read the valuation matrix through it or through its columns.

``Instance.int_rows`` reads numerators and denominators from each
``Fraction``'s slots, ``Instance.levels`` reads thresholds the same way, and
``detect_structure``, ``is_ordered_along`` and ``top_k_set`` compare
columns of the integer rows.  Each is checked here against a reference that
calls ``as_integer_ratio`` or scans one row at a time (``helpers``).  No
instance is built at import, so a broken reader fails these tests by name.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordfair import Instance, detect_structure, top_k_set
from ordfair.model import _den, _num, is_ordered_along

from helpers import (
    LARGE_PRIMES,
    permuted,
    ref_detect_structure,
    ref_int_rows,
    ref_ordered_along,
    ref_top_k_set,
)

# Zeros, integers, small mixed denominators and large coprime ones.
_reader_values = st.one_of(
    st.just(Fraction(0)),
    st.integers(0, 10**6).map(Fraction),
    st.fractions(min_value=0, max_value=50, max_denominator=36),
    st.builds(Fraction, st.integers(0, 10**25), st.sampled_from(LARGE_PRIMES)),
)
_integer_values = st.integers(0, 10**30).map(Fraction)


@st.composite
def _reader_instances(draw):
    """Matrices of integers only, half of the time, so rows taken unscaled
    (lcm 1) come as often as rows scaled by their lcm."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    cell = _integer_values if draw(st.booleans()) else _reader_values
    return Instance.from_rows(
        draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n))
    )


@settings(max_examples=300, deadline=None)
@given(_reader_instances())
@example(Instance.from_rows([[], []]))
@example(Instance.from_rows([[0], [7]]))
@example(Instance.from_rows([[Fraction(3, LARGE_PRIMES[0])], [2]]))
@example(
    Instance.from_rows([[1, 2, 0], [Fraction(1, LARGE_PRIMES[1]), Fraction(2, LARGE_PRIMES[2]), 5]])
)
def test_int_rows_match_as_integer_ratio_reference(inst):
    """``int_rows`` reads the matrix through the slot reader; the reference
    calls ``as_integer_ratio`` on every value.  Covers no goods, one good,
    all-integer matrices and rows over several 20-digit prime
    denominators."""
    assert inst.int_rows == ref_int_rows(inst)
    assert all(type(x) is int for ints, denom in inst.int_rows for x in (*ints, denom))


class _Ratio(Fraction):
    """A ``Fraction`` subclass: it inherits the slots the reader reads."""


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(10**30), 10**30),
    st.one_of(st.integers(1, 10**30), st.sampled_from(LARGE_PRIMES)),
)
def test_slot_reader_equals_as_integer_ratio(num, den):
    for x in (Fraction(num, den), _Ratio(num, den), Fraction(num)):
        ratio = (_num(x), _den(x))
        assert ratio == x.as_integer_ratio()
        assert type(ratio[0]) is int and type(ratio[1]) is int


@settings(max_examples=200, deadline=None)
@given(_reader_instances(), st.data())
def test_level_is_the_ceiling_on_the_row_scale(inst, data):
    """``Instance.levels`` reads a threshold through the slot reader: the
    ceiling of tau times the row's lcm, with tau over a small or a 20-digit
    prime denominator."""
    i = data.draw(st.integers(0, inst.n - 1))
    tau = data.draw(
        st.one_of(
            st.fractions(min_value=0, max_value=100, max_denominator=40),
            st.builds(Fraction, st.integers(0, 10**22), st.sampled_from(LARGE_PRIMES)),
        )
    )
    num, den = tau.as_integer_ratio()
    assert inst.levels([tau] * inst.n)[i] == -(-num * ref_int_rows(inst)[i][1] // den)


@st.composite
def _structured_instances(draw):
    """Rows that are free, non-increasing, or non-increasing with one
    adjacent pair swapped, over a small value range for ties; each row
    scaled by its own rational (a 20-digit prime denominator at times),
    then the goods permuted or not."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 7))
    shape = draw(st.sampled_from(("free", "sorted", "one swap")))
    rows = draw(
        st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m), min_size=n, max_size=n)
    )
    if shape != "free":
        for row in rows:
            row.sort(reverse=True)
    if shape == "one swap" and m > 1:
        row, g = rows[draw(st.integers(0, n - 1))], draw(st.integers(0, m - 2))
        row[g], row[g + 1] = row[g + 1], row[g]
    scales = draw(
        st.lists(
            st.one_of(
                st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
                st.sampled_from(LARGE_PRIMES).map(lambda p: Fraction(p + 1, p)),
            ),
            min_size=n,
            max_size=n,
        )
    )
    inst = Instance.from_rows([[v * c for v in row] for row, c in zip(rows, scales)])
    if draw(st.booleans()):
        inst = permuted(inst, draw(st.permutations(range(m))))
    return inst


@settings(max_examples=400, deadline=None)
@given(_structured_instances())
@example(Instance.from_rows([[], []]))
@example(Instance.from_rows([[2], [0]]))
@example(Instance.from_rows([[2, 3], [3, 2]]))
def test_column_checks_match_references(inst):
    """``detect_structure``, ``is_ordered_along`` and ``top_k_set`` check
    columns; the references check each row.  The instance is ordered along
    the common order that ``detect_structure`` finds."""
    order = detect_structure(inst)
    assert order == ref_detect_structure(inst)
    for along in (list(inst.goods), list(reversed(inst.goods))):
        assert is_ordered_along(inst, along) == ref_ordered_along(inst, along)
    for k in range(inst.m + 2):
        assert top_k_set(inst, k) == ref_top_k_set(inst, k), k
    if order is not None:
        assert is_ordered_along(inst, order)
