import random
from fractions import Fraction

import pytest

from ordfair import (
    Instance,
    alloc_ordered_ef1_4n3,
    alloc_ordered_efx_3n2,
    is_ef1,
    is_efx,
    is_ordinal_mms,
    thresholds,
)
from ordfair.allocators import replay
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.errors import InvariantViolationError, StructuralMismatchError

from helpers import I_A, seeded_instance


class TestEfxBagFill:
    def test_i_a_singleton_phase(self):
        alloc, trace = alloc_ordered_efx_3n2(I_A, thresholds(I_A, 3))
        assert alloc.bundles == (frozenset({0}), frozenset({1}))
        assert alloc.pool == frozenset({2, 3, 4})
        kinds = [ev.kind for ev in trace.events]
        assert kinds == ["singleton_claim", "singleton_claim"]

    def test_single_agent_two_unit_goods(self):
        inst = Instance.from_rows([[1, 1]])
        alloc, trace = alloc_ordered_efx_3n2(inst, thresholds(inst, 2))
        assert alloc.bundles[0] == frozenset({0})
        assert trace.events[0].kind == "singleton_claim"

    def test_rejects_unordered(self):
        inst = Instance.from_rows([[1, 2, 3, 4], [4, 3, 2, 1]])
        with pytest.raises(StructuralMismatchError):
            alloc_ordered_efx_3n2(inst, thresholds(inst, 3))

    def test_rejects_too_few_goods(self):
        inst = Instance.from_rows([[2, 1], [2, 1]])
        with pytest.raises(StructuralMismatchError):
            alloc_ordered_efx_3n2(inst, thresholds(inst, 3))

    def test_exhaustion_is_surfaced(self):
        inst = Instance.from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])
        with pytest.raises(InvariantViolationError):
            alloc_ordered_efx_3n2(inst, taus=[Fraction(100), Fraction(100)])

    def test_swap_branch_instance(self):
        # Seeded instance where a served agent trades up to an open bag
        # during filling; EFX and the share bound must survive the swap.
        from ordfair import solve_complete

        inst = seeded_instance("ordered", 2, 12, 3214989422730734574, max_value=3)
        result = solve_complete(inst, "a1")
        assert any(ev.kind == "swap" for ev in result.trace.events)
        assert result.certified

    def test_seeded_ordered_instances_efx_and_mms(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randrange(2, 6)
            m = rng.randrange(2 * n, 13)
            inst = seeded_instance("ordered", n, m, rng.randrange(2**32))
            inst = inst.permute_goods(_witness(inst))
            d = ceil_3n_over_2(n)
            taus = thresholds(inst, d)
            alloc, trace = alloc_ordered_efx_3n2(inst, taus)
            assert is_efx(inst, alloc)[0]
            assert is_ordinal_mms(inst, alloc, d, taus)[0]
            _check_trace_discipline(inst, trace, alloc)


class TestEf1BagFill:
    def test_symmetric_unit_instance(self):
        inst = Instance.from_rows([[1] * 6] * 3)
        alloc, trace = alloc_ordered_ef1_4n3(inst, thresholds(inst, 4))
        assert set(alloc.bundles) == {
            frozenset({0, 5}),
            frozenset({1, 4}),
            frozenset({2, 3}),
        }
        assert alloc.pool == frozenset()
        assert not [ev for ev in trace.events if ev.kind == "fill"]

    def test_identical_agents_ef1_and_mms(self):
        inst = Instance.from_rows([[4, 3, 2, 2, 1, 1, 1]] * 3)
        taus = thresholds(inst, 4)
        alloc, _ = alloc_ordered_ef1_4n3(inst, taus)
        assert is_ef1(inst, alloc)[0]
        assert is_ordinal_mms(inst, alloc, 4, taus)[0]

    def test_rejects_agent_count_not_multiple_of_three(self):
        inst = Instance.from_rows([[2, 1, 1, 1], [2, 1, 1, 1]])
        with pytest.raises(StructuralMismatchError):
            alloc_ordered_ef1_4n3(inst, thresholds(inst, 2))

    def test_seeded_ordered_instances_ef1_and_mms(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.choice([3, 6])
            m = rng.randrange(2 * n, 2 * n + 5)
            inst = seeded_instance("ordered", n, m, rng.randrange(2**32))
            inst = inst.permute_goods(_witness(inst))
            d = 4 * n // 3
            taus = thresholds(inst, d)
            alloc, trace = alloc_ordered_ef1_4n3(inst, taus)
            assert is_ef1(inst, alloc)[0]
            assert is_ordinal_mms(inst, alloc, d, taus)[0]
            _check_trace_discipline(inst, trace, alloc)


def _witness(inst):
    from ordfair import detect_structure

    return detect_structure(inst)


def _check_trace_discipline(inst, trace, final_alloc):
    """Fills consume goods in strictly increasing index; every swap strictly
    raises the swapping agent's bundle value; replay rebuilds the output."""
    fills = [ev.get("good") for ev in trace.events if ev.kind == "fill"]
    assert fills == sorted(set(fills))

    bags: dict[int, set[int]] = {}
    owner: dict[int, int] = {}
    for ev in trace.events:
        if ev.kind == "singleton_claim":
            bags[ev.get("bag")] = {ev.get("good")}
            owner[ev.get("agent")] = ev.get("bag")
        elif ev.kind == "bag_init":
            bags[ev.get("bag")] = set(ev.get("goods"))
        elif ev.kind == "fill":
            bags[ev.get("bag")].add(ev.get("good"))
        elif ev.kind == "claim":
            owner[ev.get("agent")] = ev.get("bag")
        elif ev.kind == "swap":
            agent = ev.get("agent")
            frm, to = ev.get("frm"), ev.get("to")
            assert inst.value(agent, bags[to]) > inst.value(agent, bags[frm])
            owner[agent] = to
    rebuilt = replay(trace, inst.n, inst.m)
    assert rebuilt == final_alloc


def test_bag_init_holds_the_opening_goods():
    """Each bag_init event keeps the goods bag j opened with, {j, 2n-1-j},
    though later fills grow the bag: replay alone would not notice an event
    that shares the live bag, since the fills it replays are already in."""
    rng = random.Random(1607)
    inits = grown = 0
    for _ in range(40):
        n = 3 * rng.randrange(1, 3)
        m = rng.randrange(3 * n, 5 * n + 1)
        inst = seeded_instance("ordered", n, m, rng.randrange(2**32))
        inst = inst.permute_goods(_witness(inst))
        runs = ((alloc_ordered_efx_3n2, ceil_3n_over_2(n)), (alloc_ordered_ef1_4n3, 4 * n // 3))
        for allocate, d in runs:
            _, trace = allocate(inst, thresholds(inst, d))
            filled = {ev.get("bag") for ev in trace.events if ev.kind == "fill"}
            for ev in trace.events:
                if ev.kind == "bag_init":
                    j = ev.get("bag")
                    assert ev.get("goods") == frozenset({j, 2 * n - 1 - j})
                    inits += 1
                    grown += j in filled
    assert inits > 200 and grown > 40, (inits, grown)
