import gc
import hashlib
import random
from fractions import Fraction

import pytest

from ordfair import (
    Instance,
    detect_structure,
    mms_bruteforce,
    mms_exact,
    normalize_order_preserving,
    normalize_scale,
    thresholds,
)
from ordfair.errors import (
    OracleLimitError,
    PreconditionError,
    StructuralMismatchError,
    ZeroMaximinError,
)
from ordfair.shares import _cover, _scaled_row

from helpers import EX51, EX51_WITNESSES, I_A, positive_ordered_instance, seeded_instance


def nonempty(partition):
    return {p for p in partition if p}


class TestBruteforce:
    def test_three_unit_goods_three_bundles(self):
        inst = Instance.from_rows([[1, 1, 1]])
        res = mms_bruteforce(inst, 0, 3)
        assert res.value == 1
        assert nonempty(res.partition) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        }

    def test_three_unit_goods_four_bundles_pigeonhole(self):
        inst = Instance.from_rows([[1, 1, 1]])
        assert mms_bruteforce(inst, 0, 4).value == 0

    def test_ex51_agent2_d3(self):
        res = mms_bruteforce(EX51, 2, 3)
        assert res.value == 2
        assert min(EX51.value(2, p) for p in res.partition) == 2

    def test_oracle_limit_guard(self):
        inst = Instance.from_rows([[1] * 6])
        with pytest.raises(OracleLimitError):
            mms_bruteforce(inst, 0, 2, oracle_limit=5)


class TestExact:
    def test_i_a_values(self):
        assert mms_exact(I_A, 0, 3).value == 3
        assert mms_exact(I_A, 1, 3).value == 3

    def test_leaves_no_cyclic_garbage(self):
        # Memo sets left in reference cycles would live until the cyclic
        # collector happens to run, so peak memory would depend on its timing.
        inst = seeded_instance("ordered", 5, 15, 3)
        gc.collect()
        gc.disable()
        try:
            mms_exact(inst, 0, 8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_single_bundle_is_total(self):
        inst = seeded_instance("general", 2, 6, 31)
        for i in inst.agents:
            assert mms_exact(inst, i, 1).value == inst.value(i, inst.goods)

    def test_witness_achieves_value(self):
        rng = random.Random(4)
        for _ in range(40):
            inst = seeded_instance("general", 2, rng.randrange(1, 9), rng.randrange(2**32))
            d = rng.randrange(1, 6)
            for i in inst.agents:
                res = mms_exact(inst, i, d)
                assert len(res.partition) == d
                assert min(inst.value(i, p) for p in res.partition) == res.value

    def test_agrees_with_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            inst = seeded_instance("general", rng.randrange(1, 4), rng.randrange(1, 10), rng.randrange(2**32))
            d = rng.randrange(1, 6)
            for i in inst.agents:
                assert mms_exact(inst, i, d).value == mms_bruteforce(inst, i, d).value

    def test_monotone_in_divisor(self):
        rng = random.Random(6)
        for _ in range(20):
            inst = seeded_instance("general", 1, rng.randrange(1, 9), rng.randrange(2**32))
            values = [mms_exact(inst, 0, d).value for d in range(1, 6)]
            assert all(values[k] >= values[k + 1] for k in range(4))

    def test_scale_invariance(self):
        inst = Instance.from_rows([["3/7", "2/7", "1/3", "4/5"]])
        base = mms_exact(inst, 0, 2).value
        scaled = inst.with_values([[v * Fraction(9, 4) for v in inst.values[0]]])
        assert mms_exact(scaled, 0, 2).value == base * Fraction(9, 4)

    def test_fractional_values_exact(self):
        inst = Instance.from_rows([["1/2", "1/3", "1/6"]])
        assert mms_exact(inst, 0, 2).value == Fraction(1, 2)

    def test_rejects_bad_divisor(self):
        with pytest.raises(PreconditionError):
            mms_exact(I_A, 0, 0)

    def test_larger_instances_stay_tractable(self):
        # Shapes that once thrashed the search: identical values (symmetric
        # branching) and a long descending run (surplus absorption).
        import time

        cases = [
            ([7] * 16, 9, Fraction(7)),
            (list(range(40, 20, -1)), 10, Fraction(61)),
        ]
        started = time.perf_counter()
        for vals, d, expected in cases:
            res = mms_exact(Instance.from_rows([vals]), 0, d)
            assert res.value == expected
            assert min(
                sum(vals[g] for g in part) for part in res.partition
            ) == expected
        assert time.perf_counter() - started < 20


def witness_sweep():
    """Seeded (family, instance, agent, d) queries: every family, m up to 18,
    every d in 1..m+2, so d > m and empty bundles are covered too.  Small
    value ranges give many ties, which the symmetry breaking must handle."""
    rng = random.Random(2602)
    for family in ("general", "ordered", "top_n"):
        for m in range(1, 19):
            for max_value in (3, 20):
                n = rng.randrange(1, min(m, 3) + 1)
                inst = seeded_instance(family, n, m, rng.randrange(2**32), max_value)
                for i in inst.agents:
                    for d in range(1, m + 3):
                        yield family, inst, i, d


def witness_sweep_digest():
    h = hashlib.sha256()
    for family, inst, i, d in witness_sweep():
        res = mms_exact(inst, i, d)
        parts = [sorted(p) for p in res.partition]
        h.update(f"{family} {inst.m} {i} {d} {res.value} {parts}\n".encode())
    return h.hexdigest()


class TestCanonicalWitness:
    """mms_exact returns the first covering _cover finds at the optimum.
    Search bounds and prunes may make it cheaper to find, never different."""

    # Recorded with the plain binary search over [0, total // d] and a
    # _cover that pruned only on capped sums and empty bundles.
    GOLDEN = "ff5d12bcdea5ec871797dd1a276ea68ecfa29b64c6f174a4fe67d083c2d4390e"

    def test_values_and_witnesses_unchanged(self):
        assert witness_sweep_digest() == self.GOLDEN

    def test_cover_decides_the_oracle_optimum(self):
        # An unsound prune shows as a covering missed at the optimum; a
        # wrong one as a covering claimed above it.  d > m (share 0) is
        # left out: there the oracle enumerates every partition.
        for _, inst, i, d in witness_sweep():
            if inst.m > 10 or i != 0 or d > inst.m:
                continue
            vals, denom = _scaled_row(inst, i, inst.goods)
            vals.sort(reverse=True)
            best = mms_bruteforce(inst, i, d).value * denom
            assert best.denominator == 1
            assert _cover(vals, d, int(best)) is not None, (inst, d)
            assert _cover(vals, d, int(best) + 1) is None, (inst, d)


class TestMaximinSerialization:
    def test_round_trip(self):
        from ordfair.shares import read_maximin_result, write_maximin_result

        rng = random.Random(51)
        for _ in range(10):
            inst = seeded_instance("general", 2, rng.randrange(1, 8), rng.randrange(2**32))
            res = mms_exact(inst, rng.randrange(2), rng.randrange(1, 5))
            assert read_maximin_result(write_maximin_result(res)) == res


class TestThresholds:
    def test_ex51_d3(self):
        assert thresholds(EX51, 3) == (1, 1, 2)

    def test_all_zero_valuations(self):
        inst = Instance.from_rows([[0, 0, 0], [0, 0, 0]])
        assert thresholds(inst, 2) == (0, 0)

    def test_i_a_d3(self):
        assert thresholds(I_A, 3) == (3, 3)


class TestShareBandReduction:
    """Removing the second quality band [k+1, 3n-k] of an ordered instance
    leaves a 1-out-of-k share at least the 1-out-of-ceil(3n/2) share."""

    def test_reduction_preserves_share(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(2, 4)
            m = rng.randrange(2 * n, 9)
            inst = positive_ordered_instance(n, m, rng.randrange(2**32))
            order = detect_structure(inst).order_witness
            d = (3 * n + 1) // 2
            for i in inst.agents:
                full = mms_bruteforce(inst, i, d).value
                for k in range(n, d + 1):
                    removed = {order[p] for p in range(k, min(3 * n - k, m))}
                    kept = [g for g in inst.goods if g not in removed]
                    reduced = mms_bruteforce(inst, i, k, goods=kept).value
                    assert reduced >= full, (n, m, i, k)


class TestNormalizeScale:
    def test_ex51_pinned_witnesses(self):
        out = normalize_scale(EX51, 3, EX51_WITNESSES)
        half = Fraction(1, 2)
        assert out.values[0] == (half, half, half, half, Fraction(1))
        assert out.values[1] == (half, half, half, half, Fraction(1))
        assert out.values[2] == (half, half, half, Fraction(1), half)

    def test_already_normalized_is_identity(self):
        inst = Instance.from_rows([[1, 1, 1]])
        out = normalize_scale(inst, 3)
        assert out.values == inst.values

    def test_zero_share_rejected(self):
        inst = Instance.from_rows([[1, 0, 0]])
        with pytest.raises(ZeroMaximinError):
            normalize_scale(inst, 2)

    def test_every_witness_bundle_becomes_one(self):
        rng = random.Random(9)
        for _ in range(15):
            inst = positive_ordered_instance(2, rng.randrange(3, 8), rng.randrange(2**32))
            d = rng.randrange(2, 4)
            out = normalize_scale(inst, d)
            for i in inst.agents:
                assert mms_exact(out, i, d).value == 1
                assert out.value(i, out.goods) == d

    def test_rejects_witness_not_achieving_share(self):
        with pytest.raises(PreconditionError):
            normalize_scale(EX51, 3, {0: [{0, 1, 2, 3, 4}, set(), set()]})
        with pytest.raises(PreconditionError):
            normalize_scale(EX51, 3, {0: [{0, 1}, {2, 3}]})


class TestNormalizeOrderPreserving:
    def test_hand_trace_all_ones(self):
        inst = Instance.from_rows([[1, 1, 1, 1, 1]])
        out = normalize_order_preserving(inst, 3, {0: [{0, 1}, {2, 3}, {4}]})
        half = Fraction(1, 2)
        assert out.values[0] == (Fraction(1), half, half, half, half)

    def test_identity_when_bundles_already_one(self):
        inst = Instance.from_rows([[2, 2, 2]])
        out = normalize_order_preserving(inst, 3)
        assert out.values[0] == (Fraction(1), Fraction(1), Fraction(1))

    def test_rejects_unordered(self):
        inst = Instance.from_rows([[5, 4, 2, 1], [4, 5, 1, 2]])
        with pytest.raises(StructuralMismatchError):
            normalize_order_preserving(inst, 2)

    def test_postconditions_on_random_ordered(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randrange(1, 4)
            m = rng.randrange(2, 9)
            d = rng.randrange(2, 5)
            inst = positive_ordered_instance(n, m, rng.randrange(2**32))
            if any(mms_exact(inst, i, d).value == 0 for i in inst.agents):
                continue
            out = normalize_order_preserving(inst, d)
            order = detect_structure(inst).order_witness
            for i in inst.agents:
                mu = mms_exact(inst, i, d).value
                assert mms_exact(out, i, d).value == 1
                assert out.value(i, out.goods) == d
                for g in inst.goods:
                    assert out.values[i][g] <= inst.values[i][g] / mu
                for p in range(m - 1):
                    assert out.values[i][order[p]] >= out.values[i][order[p + 1]]
