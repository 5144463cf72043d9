import random

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
from ordfair.allocators import replay
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.errors import PreconditionError

from helpers import I_A, make_allocation, random_partial_allocation, seeded_instance


class TestEfxOrderedMode:
    """Completion of EFX partial allocations on identity-ordered instances,
    the inputs a1 gives it."""

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
            inst = inst.permute_goods(detect_structure(inst))
            taus = thresholds(inst, ceil_3n_over_2(n))
            partial, _ = alloc_ordered_efx_3n2(inst, taus)
            final, trace = envy_cycle_elimination(inst, partial)
            assert final.is_complete(inst.m)
            assert is_efx(inst, final)[0]
            for i in inst.agents:
                assert inst.value(i, final.bundles[i]) >= inst.value(
                    i, partial.bundles[i]
                )
            # Every gift is the next good of the common order, the paper's
            # EFX-preserving rule.
            pool = set(partial.pool)
            for ev in trace.events:
                if ev.kind == "source_gift":
                    good = int(ev.get("good"))
                    assert good == min(pool)
                    pool.remove(good)
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
