import random
from fractions import Fraction

import pytest

from ordfair import (
    Allocation,
    Instance,
    alloc_ordered_ef1_4n3,
    alloc_ordered_efx_3n2,
    alloc_topn_lone_divider,
    is_ef1,
    is_efx,
    is_ordinal_mms,
    pad_agents_to_multiple_of_three,
    pad_goods,
    strip_dummies,
    thresholds,
)
from ordfair.allocators import replay
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.errors import InvariantViolationError, OrdfairError, StructuralMismatchError

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

    def test_pads_too_few_goods_itself(self):
        # Two agents, two goods: positions 2 and 3 are the paper's dummy
        # goods, so the run equals the one on the padded instance.
        inst = Instance.from_rows([[2, 1], [2, 1]])
        alloc, trace = alloc_ordered_efx_3n2(inst, thresholds(inst, 3))
        assert alloc == Allocation((frozenset({0}), frozenset({1})), frozenset())
        assert alloc == _padded_run(alloc_ordered_efx_3n2, inst, 3)
        assert replay(trace, inst.n, inst.m) == alloc

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

    def test_pads_agent_count_to_multiple_of_three_itself(self):
        # Two agents: the run adds a copy of agent 0 and its goods, and
        # returns what the explicitly padded run returns for the two.
        inst = Instance.from_rows([[2, 1, 1, 1], [2, 1, 1, 1]])
        alloc, trace = alloc_ordered_ef1_4n3(inst, thresholds(inst, 4))
        assert alloc == Allocation((frozenset({0}), frozenset({1})), frozenset({2, 3}))
        assert alloc == _padded_run(alloc_ordered_ef1_4n3, inst, 4)
        assert replay(trace, inst.n, inst.m) == alloc

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


def _padded_run(allocate, inst, d):
    """The allocator's run on ``inst`` padded by hand to a multiple of three
    agents (4n/3 variant only) and 2n goods, with the padding dropped."""
    padded = inst
    if allocate is alloc_ordered_ef1_4n3:
        padded = pad_agents_to_multiple_of_three(padded)
    padded = pad_goods(padded, 2 * padded.n)
    alloc, _ = allocate(padded, thresholds(padded, d))
    return strip_dummies(padded, alloc)[1]


def _outcome(allocate, inst, taus):
    """The allocation and trace, or the error's type and message."""
    try:
        return allocate(inst, taus)
    except OrdfairError as err:
        return type(err), str(err)


def test_unpadded_inputs_match_padded_runs():
    """Each entry point pads inside its own run.  On fewer than 2n goods
    (fewer than n too) and, for the 4n/3 variant, n not a multiple of three,
    it returns what its run on the explicitly padded instance returns with
    the padding dropped by ``strip_dummies``, errors included; its own trace
    replays to what it returns."""
    rng = random.Random(2625)
    runs = dict.fromkeys(("a1", "a2", "a3"), 0)
    for _ in range(150):
        n = rng.randrange(1, 8)
        algo = rng.choice(tuple(runs))
        m = rng.randrange(n if algo == "a2" else 1, 2 * n)
        family = "top_n" if algo == "a2" else "ordered"
        inst = seeded_instance(family, n, m, rng.randrange(2**32), rng.choice((2, 4, 20)))
        if algo == "a2":
            allocate, d, padded = alloc_topn_lone_divider, ceil_3n_over_2(n), inst
        else:
            inst = inst.permute_goods(_witness(inst))
            padded = inst
            if algo == "a1":
                allocate, d = alloc_ordered_efx_3n2, ceil_3n_over_2(n)
            else:
                allocate, d = alloc_ordered_ef1_4n3, 4 * ((n + 2) // 3)
                padded = pad_agents_to_multiple_of_three(inst)
        padded = pad_goods(padded, 2 * padded.n)
        got = _outcome(allocate, inst, thresholds(inst, d))
        want = _outcome(allocate, padded, thresholds(padded, d))
        if isinstance(want[0], Allocation):
            assert got[0] == strip_dummies(padded, want[0])[1]
            assert replay(got[1], n, m) == got[0]
            runs[algo] += 1
        else:
            assert got == want
    assert min(runs.values()) >= 30, runs


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
