"""Mutation fuzz of the three text readers: instance, allocation and report.

Each test writes a drawn object with its writer, mutates the text (short
splices, dropped, repeated and swapped lines) and reads it back.  The reader
must either return an object that its writer prints and it reads back to
the same object, or raise ``ParseError``; the instance reader may also raise
``InvalidInstanceError`` for a text that parses to an invalid instance (a
negative value, a dummy good with a nonzero value).  Nothing else may
escape.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ordfair import (
    Allocation,
    Instance,
    read_allocation,
    read_instance,
    read_report,
    write_allocation,
    write_instance,
    write_report,
)
from ordfair.errors import InvalidInstanceError, ParseError
from ordfair.verification import FairnessReport, MmsVerdict

# The formats' own characters.  No "e": with it a splice could join digits
# into a decimal exponent, which ``Fraction`` expands in full.
_SPLICE = st.text(" \n0123456789-+/:=#._abdgiklmnoprstuvwx", max_size=3)

_fractions = st.builds(Fraction, st.integers(0, 12), st.integers(1, 4))


@st.composite
def mutated(draw, objects, write):
    """``write`` of a drawn object, then up to four mutations."""
    text = write(draw(objects))
    for _ in range(draw(st.integers(0, 4))):
        lines = text.split("\n")
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("splice", "splice", "drop", "repeat", "swap")))
        if kind == "splice":
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 3)))
            text = text[:i] + draw(_SPLICE) + text[j:]
            continue
        if kind == "drop":
            del lines[k]
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif k + 1 < len(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        text = "\n".join(lines)
    return text


@st.composite
def instances(draw):
    """Small rational rows, with at most one dummy good, possibly the last
    agent as a dummy copy of agent 0, and possibly custom labels."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = [[draw(_fractions) for _ in range(m)] for _ in range(n)]
    dummy_goods = draw(st.sets(st.integers(0, m - 1), max_size=1))
    for row in rows:
        for g in dummy_goods:
            row[g] = Fraction(0)
    dummy_agents = []
    if n > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
        dummy_agents = [(n - 1, 0)]
    labelled = draw(st.booleans())
    return Instance.from_rows(
        rows,
        agent_labels=[f"agent{i}" for i in range(n)] if labelled else (),
        good_labels=[f"g{g}" for g in range(m)] if labelled else (),
        dummy_goods=dummy_goods,
        dummy_agents=dummy_agents,
    )


@st.composite
def allocations(draw):
    """Up to three bundles and a pool: each of up to six goods goes to one
    of them."""
    n = draw(st.integers(0, 3))
    owners = draw(st.lists(st.integers(-1, n - 1), max_size=6))
    return Allocation(
        tuple(frozenset(g for g, o in enumerate(owners) if o == i) for i in range(n)),
        frozenset(g for g, o in enumerate(owners) if o == -1),
    )


@st.composite
def reports(draw):
    """Any verdicts and witnesses, with MMS verdicts at distinct divisors in
    ascending order, as ``read_report`` returns them."""
    n = draw(st.integers(1, 3))
    agent = st.integers(0, n - 1)
    divisors = sorted(draw(st.sets(st.integers(1, 6), max_size=2)))
    return FairnessReport(
        complete=draw(st.booleans()),
        bundle_values=tuple(draw(_fractions) for _ in range(n)),
        efx=draw(st.booleans()),
        efx_witness=draw(st.none() | st.tuples(agent, agent, st.integers(0, 5))),
        ef1=draw(st.booleans()),
        ef1_witness=draw(st.none() | st.tuples(agent, agent)),
        mms=tuple(
            MmsVerdict(
                divisor=d,
                ok=draw(st.booleans()),
                thresholds=tuple(draw(_fractions) for _ in range(n)),
                witness=draw(st.none() | st.tuples(agent, _fractions)),
            )
            for d in divisors
        ),
    )


@settings(max_examples=200, deadline=None)
@given(mutated(instances(), write_instance))
def test_instance_reader_round_trips_or_raises(text):
    try:
        inst = read_instance(text)
    except (ParseError, InvalidInstanceError):
        return
    assert read_instance(write_instance(inst)) == inst


@settings(max_examples=200, deadline=None)
@given(mutated(allocations(), write_allocation))
def test_allocation_reader_round_trips_or_raises(text):
    try:
        alloc = read_allocation(text)
    except ParseError:
        return
    assert read_allocation(write_allocation(alloc)) == alloc


@settings(max_examples=200, deadline=None)
@given(mutated(reports(), write_report))
def test_report_reader_round_trips_or_raises(text):
    try:
        rep = read_report(text)
    except ParseError:
        return
    assert read_report(write_report(rep)) == rep
