import random
from collections import Counter
from fractions import Fraction

import pytest

from ordfair import (
    Allocation,
    Instance,
    alloc_ordered_ef1_4n3,
    alloc_ordered_efx_3n2,
    alloc_topn_lone_divider,
    detect_structure,
    is_ef1,
    is_efx,
    is_ordinal_mms,
    pad_agents_to_multiple_of_three,
    pad_goods,
    strip_dummies,
    thresholds,
)
from ordfair.allocators import bagfill, replay
from ordfair.allocators.bagfill import ceil_3n_over_2, event_cap, run_bag_fill
from ordfair.errors import (
    InvalidInstanceError,
    InvariantViolationError,
    OrdfairError,
    StructuralMismatchError,
)

from helpers import (
    I_A,
    bag_fill_calls,
    bag_fill_outcome,
    permuted,
    ref_run_bag_fill,
    seeded_instance,
)


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
            inst = permuted(inst, _witness(inst))
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
            inst = permuted(inst, _witness(inst))
            d = 4 * n // 3
            taus = thresholds(inst, d)
            alloc, trace = alloc_ordered_ef1_4n3(inst, taus)
            assert is_ef1(inst, alloc)[0]
            assert is_ordinal_mms(inst, alloc, d, taus)[0]
            _check_trace_discipline(inst, trace, alloc)


@pytest.mark.parametrize("allocate", [alloc_ordered_efx_3n2, alloc_ordered_ef1_4n3])
def test_rejects_orders_it_cannot_fill_along(allocate):
    """An order that is not a permutation of the goods is refused as such;
    so is one some agent's values rise along, the goods by index included
    when no order is given."""
    inst = Instance.from_rows([["1/2", 1, 0], ["1/3", 2, 0]])
    taus = [Fraction(0)] * inst.n
    for order in ([0, 0, 1], [0, 1], [0, 1, 2, 3], [2, 1, 3], [1, 0, 0]):
        with pytest.raises(InvalidInstanceError, match="not a permutation"):
            allocate(inst, taus, order)
    for order in ([0, 1, 2], [1, 2, 0], None):
        with pytest.raises(StructuralMismatchError, match="non-increasing"):
            allocate(inst, taus, order)
    alloc, trace = allocate(inst, taus, [1, 0, 2])
    assert replay(trace, inst.n, inst.m) == alloc


@pytest.mark.parametrize("allocate", [alloc_ordered_efx_3n2, alloc_ordered_ef1_4n3])
def test_checks_every_order_but_the_derived_one(allocate, monkeypatch):
    """Once the instance's order is derived, every other order is still
    checked in full: wrong orders of the right length, an equal copy of the
    derived one, and None, also on an instance whose derived answer is None.
    Only the tuple ``detect_structure`` returned skips both checks."""
    inst = Instance.from_rows([["1/2", 1, 0], ["1/3", 2, 0]])
    taus = [Fraction(0)] * inst.n
    order = detect_structure(inst)
    assert order == (1, 0, 2)
    for wrong in ([0, 0, 1], (2, 2, 2), [1, 0, 0]):
        with pytest.raises(InvalidInstanceError, match="not a permutation"):
            allocate(inst, taus, wrong)
    for wrong in ([0, 1, 2], (1, 2, 0), (2, 1, 0), None):
        with pytest.raises(StructuralMismatchError, match="non-increasing"):
            allocate(inst, taus, wrong)
    unordered = Instance.from_rows([[1, 2, 3, 4], [4, 3, 2, 1]])
    assert detect_structure(unordered) is None
    with pytest.raises(StructuralMismatchError, match="non-increasing"):
        allocate(unordered, [Fraction(0)] * unordered.n)

    checked = []
    monkeypatch.setattr(bagfill, "is_ordered_along", lambda *a: checked.append(a) or True)
    want, want_trace = allocate(inst, taus, tuple(list(order)))
    assert len(checked) == 1
    got, trace = allocate(inst, taus, order)
    assert len(checked) == 1
    assert (got, trace.to_text()) == (want, want_trace.to_text())


def _named_goods(positions, order):
    return frozenset(order[p] for p in positions)


def _named(event, order):
    """A positional run's event with each position p it names as order[p]."""
    args = dict(event.args)
    if "good" in args:
        args["good"] = order[args["good"]]
    if "goods" in args:
        args["goods"] = _named_goods(args["goods"], order)
    return event.iteration, event.kind, args


def test_runs_along_the_given_order_on_the_callers_goods():
    """Bags open and fill along the order, on the caller's goods: the run
    is the one on the goods reindexed along the order, each position p
    named as the good order[p], in its allocation and in every event."""
    rng = random.Random(4901)
    runs = 0
    for _ in range(40):
        n = rng.randrange(1, 6)
        inst = seeded_instance("ordered", n, rng.randrange(1, 3 * n + 2), rng.randrange(2**32))
        order = _witness(inst)
        work = permuted(inst, order)
        for allocate, d in (
            (alloc_ordered_efx_3n2, ceil_3n_over_2(n)),
            (alloc_ordered_ef1_4n3, 4 * ((n + 2) // 3)),
        ):
            taus = thresholds(inst, d)
            alloc, trace = allocate(inst, taus, order)
            ref, ref_trace = allocate(work, taus)
            bundles = tuple(_named_goods(b, order) for b in ref.bundles)
            assert alloc == Allocation(bundles, _named_goods(ref.pool, order))
            assert [(ev.iteration, ev.kind, ev.args) for ev in trace.events] == [
                _named(ev, order) for ev in ref_trace.events
            ]
            runs += order != tuple(inst.goods)
    assert runs > 40, runs


def _padded_run(allocate, inst, d):
    """The allocator's run on ``inst`` padded by hand to a multiple of three
    agents (4n/3 variant only) and 2n goods, with the padding dropped."""
    padded = inst
    if allocate is alloc_ordered_ef1_4n3:
        padded = pad_agents_to_multiple_of_three(padded)
    padded = pad_goods(padded, 2 * padded.n)
    alloc, _ = allocate(padded, thresholds(padded, d))
    return strip_dummies(padded, alloc, inst.n, inst.m)[1]


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
            inst = permuted(inst, _witness(inst))
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
            assert got[0] == strip_dummies(padded, want[0], n, m)[1]
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
        inst = permuted(inst, _witness(inst))
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


@pytest.mark.parametrize(
    "n, m", [(1, 0), (2, 0), (10_000, 0), (10_001, 0), (20_000, 0), (1, 1), (3, 9), (200, 600)]
)
def test_event_cap_covers_the_proven_bound(n, m):
    """``run_bag_fill``'s docstring bounds its iterations by n claims, m
    fills and n(n-1) swaps in each of n + m + 1 runs between them.  A valid
    instance with no goods and more than 10,000 agents needs its n claims."""
    assert event_cap(n, m) >= n + m + n * (n - 1) * (n + m + 1)


def test_run_past_its_event_cap_is_an_invariant_violation(monkeypatch):
    """The cap is checked: a run that takes k iterations, swaps and fills
    among them, passes with a cap of k and raises with a cap of k - 1."""
    inst = seeded_instance("ordered", 2, 12, 3214989422730734574, max_value=3)
    inst = permuted(inst, _witness(inst))
    taus = thresholds(inst, ceil_3n_over_2(inst.n))
    _, trace = alloc_ordered_efx_3n2(inst, taus)
    assert {"swap", "fill"} <= {ev.kind for ev in trace.events}
    k = max(ev.iteration for ev in trace.events)
    monkeypatch.setattr(bagfill, "event_cap", lambda n, m: k)
    alloc_ordered_efx_3n2(inst, taus)
    monkeypatch.setattr(bagfill, "event_cap", lambda n, m: k - 1)
    with pytest.raises(InvariantViolationError, match="event cap"):
        alloc_ordered_efx_3n2(inst, taus)


def test_engine_matches_its_reference():
    """``run_bag_fill`` keeps its unserved agents and open bags as lists it
    updates at each claim and swap.  On every call of ``bag_fill_calls`` it
    returns the bags, or raises the error, and emits the events that
    ``ref_run_bag_fill``, which derives both every iteration, does.  The
    sweep runs along permuted orders and reaches the fill step and the swap
    step, which puts the bag it leaves back among the open bags."""
    kinds = Counter()
    errors = permuted_orders = 0
    for call in bag_fill_calls(random.Random(5001), 300, range(2, 9)):
        want = bag_fill_outcome(ref_run_bag_fill, call)
        assert bag_fill_outcome(run_bag_fill, call) == want
        kinds.update(ev.kind for ev in want[1])
        errors += isinstance(want[0], str)
        permuted_orders += list(call[2]) != sorted(call[2])
    # Recorded: 35 swaps, 590 fills, 1,807 singleton claims, 87 runs out of
    # goods and 891 of 900 calls along a permuted order.
    assert kinds["swap"] >= 30 and kinds["fill"] >= 400, kinds
    assert kinds["singleton_claim"] >= 1000 and errors >= 30, (kinds, errors)
    assert permuted_orders >= 850, permuted_orders
