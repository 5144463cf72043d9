import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordfair import (
    Instance,
    alloc_topn_lone_divider,
    envy_cycle_elimination,
    is_ef1,
    is_efx,
    is_ordinal_mms,
    lone_divider_partition,
    most_envious_shrink,
    pad_goods,
    shrink_minimal,
    thresholds,
    top_k_set,
)
from ordfair.allocators import strongly_envies_bundle
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.cli import _instance_seed
from ordfair.errors import InvariantViolationError, PreconditionError, StructuralMismatchError

from helpers import (
    I_A,
    naive_strong_envy,
    ref_most_envious_shrink,
    ref_shrink_minimal,
    seeded_instance,
)


@st.composite
def shrink_cases(draw):
    """Small integer rows, a non-empty bag with a protected good, served
    agents' holdings (any sets of goods) and a threshold per agent."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 6), min_size=m, max_size=m)
    inst = Instance.from_rows(draw(st.lists(row, min_size=n, max_size=n)))
    goods = st.frozensets(st.integers(0, m - 1))
    bag = draw(st.frozensets(st.integers(0, m - 1), min_size=1))
    protected = draw(st.sampled_from(sorted(bag)))
    holdings = draw(st.dictionaries(st.integers(0, n - 1), goods))
    taus = [Fraction(draw(st.integers(0, 20))) for _ in range(n)]
    return inst, bag, protected, holdings, taus


def levels_of(inst, agents, taus):
    """(agent, level) pairs of the thresholds ``taus``, indexed by agent."""
    return [(i, inst.level(i, taus[i])) for i in agents]


class TestLoneDividerPartition:
    def test_unit_goods_three_bags(self):
        inst = Instance.from_rows([[1] * 6])
        bags = lone_divider_partition(inst, 0, range(6), 3, {0, 1, 2}, inst.level(0, Fraction(1)))
        assert len(bags) == 3
        for bag in bags:
            assert inst.value(0, bag) >= 1
            assert len(bag & {0, 1, 2}) == 1
        assert set().union(*bags) == set(range(6))

    def test_zero_bags_is_precondition_error(self):
        inst = Instance.from_rows([[4, 2, 1]])
        with pytest.raises(PreconditionError, match="at least one bag"):
            lone_divider_partition(inst, 0, range(3), 0, set(), inst.level(0, Fraction(1)))

    def test_single_bag_gets_whole_pool(self):
        inst = Instance.from_rows([[4, 2, 1]])
        bags = lone_divider_partition(inst, 0, range(3), 1, {0}, inst.level(0, Fraction(4)))
        assert bags == [frozenset({0, 1, 2})]

    def test_random_pools_postconditions(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(1, 4)
            m = rng.randrange(max(2 * n, n + 1), 11)
            inst = seeded_instance("top_n", n, m, rng.randrange(2**32))
            top = top_k_set(inst, n)
            divider = rng.randrange(n)
            tau = thresholds(inst, ceil_3n_over_2(n))[divider]
            level = inst.level(divider, tau)
            bags = lone_divider_partition(inst, divider, inst.goods, n, top, level)
            assert set().union(*bags) == set(inst.goods)
            for bag in bags:
                assert inst.value(divider, bag) >= tau
                assert len(bag & top) == 1


class TestShrinkMinimal:
    def test_shrinks_to_protected_singleton(self):
        inst = Instance.from_rows([[5, 0, 1, 1]])
        kept = shrink_minimal(inst, {0, 2, 3}, 0, levels_of(inst, [0], [Fraction(5)]))
        assert kept == frozenset({0})

    def test_tight_bag_unchanged(self):
        inst = Instance.from_rows([[2, 2, 2]])
        kept = shrink_minimal(inst, {0, 1, 2}, 0, levels_of(inst, [0], [Fraction(6)]))
        assert kept == frozenset({0, 1, 2})

    def test_precondition_requires_acceptance(self):
        inst = Instance.from_rows([[1, 1]])
        with pytest.raises(PreconditionError):
            shrink_minimal(inst, {0, 1}, 0, levels_of(inst, [0], [Fraction(5)]))

    def test_minimality_exhaustive(self):
        rng = random.Random(18)
        for _ in range(40):
            n = rng.randrange(1, 4)
            m = rng.randrange(2, 9)
            inst = seeded_instance("general", n, m, rng.randrange(2**32), 6)
            bag = set(rng.sample(range(m), rng.randrange(1, m + 1)))
            protected = rng.choice(sorted(bag))
            taus = [Fraction(rng.randrange(1, 8)) for _ in range(n)]
            agents = list(range(n))
            if not any(inst.value(i, bag) >= taus[i] for i in agents):
                continue
            kept = shrink_minimal(inst, bag, protected, levels_of(inst, agents, taus))
            assert protected in kept and kept <= bag
            assert any(inst.value(i, kept) >= taus[i] for i in agents)
            for x in kept - {protected}:
                trial = kept - {x}
                assert not any(inst.value(i, trial) >= taus[i] for i in agents)


class TestSinglePassShrinks:
    """The shrinks' single passes against the restart loops they replaced,
    and strong envy of a bundle against its definition."""

    @settings(max_examples=300, deadline=None)
    @given(shrink_cases())
    def test_shrink_minimal_matches_restart_loop(self, case):
        inst, bag, protected, _, taus = case
        agents = list(inst.agents)
        if not any(inst.value(i, bag) >= taus[i] for i in agents):
            return
        kept = shrink_minimal(inst, bag, protected, levels_of(inst, agents, taus))
        assert kept == ref_shrink_minimal(inst, bag, protected, agents, taus)

    def test_most_envious_shrink_matches_restart_loop(self):
        # Seeded rather than drawn: the passes differ only when several
        # served agents envy the bag, which small drawn cases seldom give.
        rng = random.Random(21)
        several = 0
        for _ in range(3000):
            n, m = rng.randrange(2, 5), rng.randrange(2, 9)
            inst = seeded_instance("general", n, m, rng.randrange(2**32), 6)
            bag = set(rng.sample(range(m), rng.randrange(1, m + 1)))
            protected = rng.choice(sorted(bag))
            holdings = {
                a: frozenset(g for g in inst.goods if rng.random() < 0.4)
                for a in inst.agents
                if rng.random() < 0.8
            }
            enviers = sum(
                naive_strong_envy_bundle(inst, a, own, bag) for a, own in holdings.items()
            )
            if not enviers:
                continue
            several += enviers > 1
            winner, core = ref_most_envious_shrink(inst, bag, protected, holdings)
            if winner is None or any(
                naive_strong_envy_bundle(inst, a, own, core) for a, own in holdings.items()
            ):
                with pytest.raises(InvariantViolationError):
                    most_envious_shrink(inst, bag, protected, holdings)
            else:
                assert most_envious_shrink(inst, bag, protected, holdings) == (winner, core)
        assert several >= 300

    @settings(max_examples=300, deadline=None)
    @given(shrink_cases(), st.integers(0, 3))
    def test_strong_envy_of_bundle_is_its_definition(self, case, agent):
        inst, bag, _, holdings, _ = case
        agent %= inst.n
        own = holdings.get(agent, frozenset())
        for target in (bag, frozenset(), own):
            assert strongly_envies_bundle(inst, agent, own, target) == (
                naive_strong_envy_bundle(inst, agent, own, target)
            )


class TestMostEnviousShrink:
    def test_spec_trace(self):
        inst = Instance.from_rows([[5, 1, 2]])
        holdings = {0: frozenset({2})}
        agent, core = most_envious_shrink(inst, {0, 1}, 0, holdings)
        assert agent == 0
        assert core == frozenset({0})

    def test_precondition_needs_strong_envy(self):
        inst = Instance.from_rows([[1, 1, 5]])
        holdings = {0: frozenset({2})}
        with pytest.raises(PreconditionError):
            most_envious_shrink(inst, {0, 1}, 0, holdings)

    def test_random_postconditions_with_dominant_protected_good(self):
        # In the allocator the protected good is a top-n good, so every agent
        # values it weakly above every other bag member; under that shape the
        # no-strong-envy postcondition always holds.
        rng = random.Random(19)
        checked = 0
        while checked < 30:
            n = rng.randrange(2, 4)
            m = rng.randrange(4, 7)
            inst = seeded_instance("top_n", n, m, rng.randrange(2**32), 6)
            top = sorted(top_k_set(inst, n))
            protected = rng.choice(top)
            others = [g for g in inst.goods if g not in top]
            rng.shuffle(others)
            cut = rng.randrange(1, len(others) + 1) if others else 0
            bag = {protected, *others[:cut]}
            rest = [g for g in others[cut:]]
            holdings = {i: frozenset(rest[i : i + 1]) for i in range(n - 1)}
            if not any(
                naive_strong_envy_bundle(inst, a, holdings[a], bag)
                for a in holdings
            ):
                continue
            agent, core = most_envious_shrink(inst, bag, protected, holdings)
            checked += 1
            assert protected in core and core <= bag
            assert inst.value(agent, core) > inst.value(agent, holdings[agent])
            for a in holdings:
                for x in core:
                    assert not (
                        inst.value(a, core - {x}) > inst.value(a, holdings[a])
                    )

    def test_violation_via_protected_good_is_reported(self):
        # With a protected good the envier values below another bag member,
        # the shrink cannot rule out strong envy through the protected
        # removal; the failure must surface, not pass silently.
        from ordfair.errors import InvariantViolationError

        inst = Instance.from_rows([[0, 5, 1]])
        holdings = {0: frozenset({2})}
        with pytest.raises(InvariantViolationError):
            most_envious_shrink(inst, {0, 1}, 0, holdings)


def naive_strong_envy_bundle(inst, agent, own, target):
    own_value = inst.value(agent, own)
    return any(inst.value(agent, set(target) - {g}) > own_value for g in target)


class TestLoneDividerAllocator:
    def test_ordered_instance_matches_a1_guarantees(self):
        inst = pad_goods(I_A, 5)
        d = ceil_3n_over_2(inst.n)
        taus = thresholds(inst, d)
        alloc, _ = alloc_topn_lone_divider(inst, taus)
        assert is_efx(inst, alloc)[0]
        assert is_ordinal_mms(inst, alloc, d, taus)[0]

    def test_single_agent(self):
        inst = Instance.from_rows([[3, 1]])
        alloc, _ = alloc_topn_lone_divider(inst, thresholds(inst, 2))
        assert inst.value(0, alloc.bundles[0]) >= thresholds(inst, 2)[0]

    def test_rejects_non_top_n(self):
        inst = Instance.from_rows([[5, 4, 2, 1], [4, 1, 5, 2]])
        with pytest.raises(StructuralMismatchError):
            alloc_topn_lone_divider(inst, thresholds(inst, 3))

    def test_steal_path_instance(self):
        # Seeded instance on which a served agent strongly envies a fresh
        # bag, forcing the steal branch (old bundle back to the pool) before
        # the loop restarts; guarantees must still certify.
        inst = pad_goods(
            seeded_instance("top_n", 2, 11, 4439381151480386667), 11
        )
        d = ceil_3n_over_2(2)
        taus = thresholds(inst, d)
        alloc, trace = alloc_topn_lone_divider(inst, taus)
        steal_events = [ev for ev in trace.events if ev.kind == "steal"]
        assert steal_events
        assert is_efx(inst, alloc)[0]
        assert is_ordinal_mms(inst, alloc, d, taus)[0]

    def test_steal_takes_the_first_envied_bag(self):
        """A steal's core comes from the first shrunk bag of its round that a
        served agent strongly envies.  These ``ordfair experiment --seed 0``
        top-n draws (max_value, n, m, index) are all those of max_value 20
        or 4, n 2-6, m 2n-24 and index 0-9 with rounds in which several bags
        are: 9 such rounds."""
        draws = [(20, 3, 20, 6), (20, 4, 20, 3), (20, 6, 21, 3), (20, 6, 22, 2),
                 (20, 6, 23, 1), (4, 4, 14, 7), (4, 4, 20, 3)]
        several = 0
        for max_value, n, m, index in draws:
            seed = _instance_seed(0, "top_n", n, m, index)
            inst = seeded_instance("top_n", n, m, seed, max_value)
            _, trace = alloc_topn_lone_divider(inst, thresholds(inst, ceil_3n_over_2(n)))
            bundles, shrunk = {}, []
            for ev in trace.events:
                if ev.kind == "lone_divider":
                    shrunk = []
                elif ev.kind == "shrink":
                    shrunk.append(ev.get("kept"))
                elif ev.kind == "matching":
                    bundles.update(ev.get("pairs"))
                elif ev.kind == "steal":
                    envied = [
                        bag
                        for bag in shrunk
                        if any(
                            naive_strong_envy_bundle(inst, a, own, bag)
                            for a, own in bundles.items()
                        )
                    ]
                    several += len(envied) > 1
                    assert ev.get("goods") <= envied[0]
                    bundles[ev.get("agent")] = ev.get("goods")
        assert several >= 5

    def test_seeded_topn_partial_efx_and_completion_ef1(self):
        rng = random.Random(20)
        for _ in range(50):
            n = rng.randrange(2, 5)
            m = rng.randrange(2 * n, 11)
            inst = seeded_instance("top_n", n, m, rng.randrange(2**32))
            d = ceil_3n_over_2(n)
            taus = thresholds(inst, d)
            partial, _ = alloc_topn_lone_divider(inst, taus)
            assert is_efx(inst, partial)[0]
            assert is_ordinal_mms(inst, partial, d, taus)[0]
            complete, _ = envy_cycle_elimination(inst, partial)
            assert complete.is_complete(inst.m)
            assert is_ef1(inst, complete)[0]
            assert is_ordinal_mms(inst, complete, d, taus)[0]
