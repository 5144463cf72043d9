import random
from collections import Counter

import pytest

from ordfair import (
    Instance,
    alloc_ordered_efx_3n2,
    detect_structure,
    envy_cycle_elimination,
    is_ef1,
    is_efx,
    thresholds,
)
from ordfair.allocators import envy_cycle, replay
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.allocators.envy_cycle import event_cap
from ordfair.errors import InvariantViolationError, PreconditionError

from helpers import (
    I_A,
    completion_calls,
    completion_outcome,
    make_allocation,
    random_partial_allocation,
    rational_rows_instance,
    ref_envy_cycle_elimination,
    seeded_instance,
)


class TestEfxOrderedMode:
    """Completion of EFX partial allocations on ordered instances, along
    their common order: the inputs a1 gives it."""

    def test_i_a_trace(self):
        start = make_allocation([[0], [1]], [2, 3, 4])
        final, trace = envy_cycle_elimination(I_A, start)
        assert final.bundles == (frozenset({0, 3}), frozenset({1, 2, 4}))
        gifts = [
            (int(ev.get("agent")), int(ev.get("good")))
            for ev in trace.events
            if ev.kind == "source_gift"
        ]
        assert gifts == [(1, 2), (0, 3), (1, 4)]
        assert is_efx(I_A, final)[0]
        assert replay(trace, I_A.n, I_A.m, start) == final

    def test_empty_pool_identity(self):
        start = make_allocation([[0], [1]], [])
        inst = Instance.from_rows([[2, 1], [2, 1]])
        final, trace = envy_cycle_elimination(inst, start)
        assert final.bundles == start.bundles
        assert not trace.events

    def test_rejects_non_efx_input(self):
        # An ordered instance whose start is not EFX (nor even EF1) is
        # refused before any good is handed out.
        inst = Instance.from_rows([[3, 2, 2], [3, 2, 2]])
        start = make_allocation([[0, 1, 2], []], [])
        with pytest.raises(PreconditionError):
            envy_cycle_elimination(inst, start)

    def test_preserves_efx_on_bagfill_outputs(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randrange(2, 5)
            m = rng.randrange(2 * n, 12)
            inst = seeded_instance("ordered", n, m, rng.randrange(2**32))
            order = detect_structure(inst)
            taus = thresholds(inst, ceil_3n_over_2(n))
            partial, _ = alloc_ordered_efx_3n2(inst, taus)
            final, trace = envy_cycle_elimination(inst, partial, order)
            assert final.is_complete(inst.m)
            assert is_efx(inst, final)[0]
            for i in inst.agents:
                assert inst.value(i, final.bundles[i]) >= inst.value(
                    i, partial.bundles[i]
                )
            # Every gift is the next good of the common order, the paper's
            # EFX-preserving rule, on the caller's goods.
            pool = [g for g in order if g in partial.pool]
            for ev in trace.events:
                if ev.kind == "source_gift":
                    assert ev.get("good") == pool.pop(0)
            assert not pool


class TestEf1Mode:
    def test_cycle_rotation(self):
        inst = Instance.from_rows([[1, 5, 2], [5, 1, 2]])
        start = make_allocation([[0], [1]], [2])
        final, trace = envy_cycle_elimination(inst, start)
        kinds = [ev.kind for ev in trace.events]
        assert "cycle_rotation" in kinds
        assert final.is_complete(inst.m)
        assert is_ef1(inst, final)[0]
        # both cycle members strictly gained
        assert inst.value(0, final.bundles[0]) > 1
        assert inst.value(1, final.bundles[1]) > 1

    def test_rotation_then_unvalued_pool_to_one_source(self):
        # Each agent envies the other, so the bundles rotate first; then no
        # one is envied, and agent 0, the lowest source, takes both goods
        # no agent values, one event each, lowest index first.
        inst = Instance.from_rows([[1, 2, 0, 0], [2, 1, 0, 0]])
        start = make_allocation([[0], [1]], [3, 2])
        final, trace = envy_cycle_elimination(inst, start)
        assert final.bundles == (frozenset({1, 2, 3}), frozenset({0}))
        assert trace.to_text().splitlines()[1:] == [
            "1\tcycle_rotation\tcycle=1,0",
            "2\tsource_gift\tagent=0\tgood=2",
            "3\tsource_gift\tagent=0\tgood=3",
        ]
        assert replay(trace, inst.n, inst.m, start) == final

    def test_rejects_non_ef1_input(self):
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
        start = make_allocation([[0, 1, 2], []], [])
        with pytest.raises(PreconditionError):
            envy_cycle_elimination(inst, start)

    def test_ties_go_to_the_earliest_good_in_the_order(self):
        """Agent 0 values the three goods alike and is the first source.
        The common order puts good 2 first, since agent 1 values it most, so
        agent 0 takes it; by default agent 0 takes good 0, the lowest index,
        and the allocation differs."""
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 2]])
        order = detect_structure(inst)
        assert order == (2, 0, 1)
        start = make_allocation([[], []], [0, 1, 2])
        along, trace = envy_cycle_elimination(inst, start, order)
        assert along.bundles == (frozenset({2}), frozenset({0, 1}))
        assert trace.events[0].args == {"agent": 0, "good": 2}
        by_index, trace = envy_cycle_elimination(inst, start)
        assert by_index.bundles == (frozenset({0, 1}), frozenset({2}))
        assert trace.events[0].args == {"agent": 0, "good": 0}
        assert envy_cycle_elimination(inst, start, (0, 1, 2)) == (by_index, trace)

    @pytest.mark.parametrize("order", [(0, 1), (2, 0, 0), (2, 0, 3), ()])
    def test_order_missing_a_pool_good_is_precondition_error(self, order):
        """A pool good the order leaves out would leave the allocation."""
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 2]])
        start = make_allocation([[], []], [0, 1, 2])
        with pytest.raises(PreconditionError, match="every pool good once"):
            envy_cycle_elimination(inst, start, order)

    def test_random_partial_ef1_inputs(self):
        rng = random.Random(24)
        done = 0
        while done < 60:
            n = rng.randrange(2, 5)
            m = rng.randrange(2, 11)
            inst = seeded_instance("general", n, m, rng.randrange(2**32))
            start = random_partial_allocation(inst, rng)
            if not is_ef1(inst, start)[0]:
                continue
            done += 1
            final, trace = envy_cycle_elimination(inst, start)
            assert final.is_complete(inst.m)
            assert is_ef1(inst, final)[0]
            for i in inst.agents:
                assert inst.value(i, final.bundles[i]) >= inst.value(
                    i, start.bundles[i]
                )
            assert replay(trace, inst.n, inst.m, start) == final


def _rotation_then_valued_gifts():
    """Each agent envies the other, so the bundles rotate first; then agent
    0 is the lowest source and takes goods 2 and 3, which both agents
    value, into the slot that held good 1 alone."""
    inst = Instance.from_rows([[1, 2, 1, 1], [2, 1, 1, 1]])
    return inst, make_allocation([[0], [1]], [2, 3])


def test_completion_leaves_the_instance_columns_alone():
    """A one-good slot's sums are the instance's cached column: a gift to it
    makes a new entry and never writes into the column."""
    inst, start = _rotation_then_valued_gifts()
    before = [list(col) for col in inst._int_columns]
    final, trace = envy_cycle_elimination(inst, start)
    assert [ev.kind for ev in trace.events] == ["cycle_rotation", "source_gift", "source_gift"]
    assert final.bundles == (frozenset({1, 2, 3}), frozenset({0}))
    assert [list(col) for col in inst._int_columns] == before


@pytest.mark.parametrize(
    "n, m", [(1, 0), (1, 5), (2, 1), (3, 9), (24, 24), (300, 1), (300, 900)]
)
def test_event_cap_covers_the_proven_bound(n, m):
    """``event_cap``'s docstring bounds completion's iterations by m
    gifts, each after at most n(n-1)/2 rotations.  At (300, 1) a fixed
    10,000 + 100nm (40,000) falls below that bound (44,851)."""
    assert event_cap(n, m) >= m * (1 + n * (n - 1) // 2)


def test_run_past_its_event_cap_is_an_invariant_violation(monkeypatch):
    """The cap is checked: a run of k iterations, a rotation and gifts among
    them, passes with a cap of k and raises with a cap of k - 1."""
    inst, start = _rotation_then_valued_gifts()
    _, trace = envy_cycle_elimination(inst, start)
    k = max(ev.iteration for ev in trace.events)
    monkeypatch.setattr(envy_cycle, "event_cap", lambda n, m: k)
    envy_cycle_elimination(inst, start)
    monkeypatch.setattr(envy_cycle, "event_cap", lambda n, m: k - 1)
    with pytest.raises(InvariantViolationError, match="event cap"):
        envy_cycle_elimination(inst, start)


def _rotation_pools(rng: random.Random, count: int):
    """Seeded random partial allocations, integer and rational rows, with
    no common order, so many completions rotate; some are not EF1, and both
    engines must refuse those alike.  Half run along a random order."""
    for _ in range(count):
        n = rng.randrange(2, 7)
        m = rng.randrange(2, 3 * n + 1)
        if rng.random() < 1 / 3:
            inst = rational_rows_instance(rng, n, m)
        else:
            inst = seeded_instance("general", n, m, rng.randrange(2**32), rng.choice((3, 20)))
        order = rng.sample(range(m), m) if rng.random() < 0.5 else None
        yield inst, random_partial_allocation(inst, rng), order


def test_engine_matches_its_reference():
    """The engine keeps each slot's lowest envier, not its envier set.  It
    must return the reference's allocation and trace text, or raise its
    error, on a1's and a3's partials along the common order, on singleton
    starts by index and along the order, and on random pools that force
    rotations; integer and rational rows both."""
    rng = random.Random(5303)
    calls = [*completion_calls(rng, 250, range(2, 9)), *_rotation_pools(rng, 500)]
    kinds = Counter()
    for call in calls:
        want = completion_outcome(ref_envy_cycle_elimination, call)
        assert completion_outcome(envy_cycle_elimination, call) == want, call
        if isinstance(want[0], type):
            kinds[want[0].__name__] += 1
        else:
            kinds.update(line.split("\t")[1] for line in want[1].splitlines()[1:])
    assert kinds["cycle_rotation"] >= 350 and kinds["source_gift"] >= 2500, kinds
    assert kinds["PreconditionError"] >= 200, kinds
