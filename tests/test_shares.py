import gc
import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordfair import (
    Instance,
    detect_structure,
    mms_bruteforce,
    mms_exact,
    normalize_order_preserving,
    normalize_scale,
    shares,
    thresholds,
    write_instance,
)
from ordfair.errors import (
    InvariantViolationError,
    OracleLimitError,
    PreconditionError,
    StructuralMismatchError,
    ZeroMaximinError,
)
from ordfair.shares import (
    _bundles_floor,
    _complete,
    _cover_ceiling,
    _covering_floor,
    _find_covering,
    _greedy_cover,
    _max_pairs,
    _minimal_completions,
    _pairing_refutes,
    _share_value,
)

import helpers
from helpers import (
    EX51,
    EX51_WITNESSES,
    I_A,
    positive_ordered_instance,
    ref_cover,
    ref_cover_ceiling,
    ref_find_covering,
    ref_greedy_cover,
    ref_normalize_order_preserving,
    ref_pairing_refutes,
    seeded_instance,
)


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

    def test_rejects_agents_out_of_range(self):
        """An index outside range(n) is refused, a negative one too, which
        would otherwise be read from the end and reported under its own
        label."""
        for agent in (-1, -2, -EX51.n - 1, EX51.n, 7):
            with pytest.raises(PreconditionError, match=f"agent {agent} out of range"):
                mms_bruteforce(EX51, agent, 2)


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

    def test_rejects_agents_out_of_range(self):
        for agent in (-1, -I_A.n, I_A.n, 5):
            with pytest.raises(PreconditionError, match=f"agent {agent} out of range"):
                mms_exact(I_A, agent, 2)

    def test_search_past_the_recursion_limit_is_a_precondition_error(self):
        """``_complete`` recurses once per bundle it fills.  On the one-agent
        3,000-good draw at d = 1200 that passes Python's recursion limit,
        which ends as a typed error naming the bundle count."""
        inst = seeded_instance("general", 1, 3000, 1)
        with pytest.raises(PreconditionError, match="for 1200 bundles"):
            mms_exact(inst, 0, 1200)

    def test_larger_instances_stay_tractable(self):
        # Shapes that once thrashed the search: identical values (symmetric
        # branching), a long descending run (surplus absorption) and agent 1
        # of the seed-1 top_n draw at n=12, m=40, max_value 200, where a
        # second, good-by-good witness search ran past 40 s at the share.
        import time

        cases = [
            ([7] * 16, 9, Fraction(7)),
            (list(range(40, 20, -1)), 10, Fraction(61)),
            ([185, 7, 331, 252, 195, 112, 322, 141, 59, 284, 255, 173, 56, 194,
              117, 74, 201, 302, 142, 360, 25, 243, 161, 381, 75, 30, 190, 85,
              184, 182, 128, 108, 129, 171, 244, 77, 72, 150, 323, 129], 18,
             Fraction(374)),
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
    """mms_exact returns the first covering _find_covering finds at the
    optimum, or every good in bundle 0 when the share is 0.  Search bounds
    and prunes may make it cheaper to find, never different.  ref_cover,
    tied to the oracle below, is the independent reference for the value."""

    # Recorded when mms_exact first took its witness from _find_covering
    # instead of a second, good-by-good search; every value matched the
    # digest recorded before.
    GOLDEN = "6aa326221c169e72ef0b0dd2f21f3733db7c9721b14b4c32e5df0475a29cb475"

    def test_values_and_witnesses_unchanged(self):
        assert witness_sweep_digest() == self.GOLDEN

    def test_cover_decides_the_oracle_optimum(self):
        # An unsound prune shows as a covering missed at the optimum; a
        # wrong one as a covering claimed above it.  d > m (share 0) is
        # left out: there the oracle enumerates every partition.
        for _, inst, i, d in witness_sweep():
            if inst.m > 10 or i != 0 or d > inst.m:
                continue
            ints, denom = inst.int_rows[i]
            vals = sorted(ints, reverse=True)
            best = mms_bruteforce(inst, i, d).value * denom
            assert best.denominator == 1
            assert ref_cover(vals, d, int(best)) is not None, (inst, d)
            assert ref_cover(vals, d, int(best) + 1) is None, (inst, d)


def oracle_partitions(m: int, d: int) -> int:
    """How many partitions of m goods into at most d blocks the oracle
    enumerates (Stirling numbers of the second kind, summed)."""
    row = [1]  # S(j, 0..j) for j = 0
    for j in range(1, m + 1):
        row = [0] + [k * (row[k] if k < j else 0) + row[k - 1] for k in range(1, j + 1)]
    return sum(row[: d + 1])


# The oracle runs where it enumerates at most this many partitions: every d
# for m <= 9, d <= 3 for m = 10, 11 and d <= 2 for m = 12.
ORACLE_PARTITIONS = 30_000


def value_sweep():
    """Seeded (family, instance, d) queries for the value path: every
    family, m up to 16 with one to three agents, every d in 1..m+2."""
    rng = random.Random(2606)
    for family in ("general", "ordered", "top_n"):
        for m in range(1, 17):
            for max_value in (4, 20):
                n = rng.randrange(1, min(m, 3) + 1)
                inst = seeded_instance(family, n, m, rng.randrange(2**32), max_value)
                for d in range(1, m + 3):
                    yield family, inst, d


class TestShareValue:
    """thresholds takes each share from the value-only search; it must agree
    with mms_exact and, where the oracle is cheap, with the oracle."""

    def test_thresholds_match_exact_and_oracle(self):
        oracle_checked = 0
        for family, inst, d in value_sweep():
            values = thresholds(inst, d)
            for i in inst.agents:
                assert values[i] == mms_exact(inst, i, d).value, (family, inst, i, d)
                if inst.m <= 12 and oracle_partitions(inst.m, d) <= ORACLE_PARTITIONS:
                    assert values[i] == mms_bruteforce(inst, i, d).value, (family, inst, i, d)
                    oracle_checked += 1
        assert oracle_checked > 500

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 9).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(0, 30), min_size=m, max_size=m), min_size=1, max_size=3
            )
        ),
        extra=st.integers(0, 2),
        data=st.data(),
    )
    def test_value_path_equals_exact_and_oracle(self, rows, extra, data):
        inst = Instance.from_rows(rows)
        d = data.draw(st.integers(1, inst.m + extra))
        values = thresholds(inst, d)
        for i in inst.agents:
            assert values[i] == mms_exact(inst, i, d).value == mms_bruteforce(inst, i, d).value

    def test_search_coverings_pass_the_check(self):
        # Every covering _find_covering returns passes the check, and its
        # lowest bundle sum never exceeds the share.
        found = 0
        for _, inst, d in value_sweep():
            for i in inst.agents:
                vals = sorted(inst.int_rows[i][0], reverse=True)
                share = _share_value(vals, d)
                for target in range(1, share + 2):
                    assign = _find_covering(vals, d, target)
                    if assign is not None:
                        assert _covering_floor(vals, d, target, assign) <= share
                        found += 1
        assert found > 1000

    @pytest.mark.parametrize(
        "target, assign",
        [
            (3, [0, 1, 1]),  # bundle 2 left empty
            (4, [0, 1, 2]),  # every bundle one short
            (3, [0, 1]),  # good 2 unassigned
            (3, [0, 1, 3]),  # no bundle 3
            (3, [0, 1, -1]),
        ],
    )
    def test_covering_check_rejects_non_coverings(self, target, assign):
        with pytest.raises(InvariantViolationError):
            _covering_floor([3, 3, 3], 3, target, assign)

    def test_covering_check_returns_the_lowest_bundle_sum(self):
        assert _covering_floor([5, 4, 3, 1], 2, 5, [0, 1, 1, 0]) == 6

    def test_rejects_bad_divisor(self):
        with pytest.raises(PreconditionError):
            thresholds(I_A, 0)

    @pytest.mark.parametrize("d", [True, False])
    def test_rejects_bool_divisors(self, d):
        """A bool is an int, so True would ask for the 1-out-of-1 shares."""
        for solve in (
            lambda: thresholds(I_A, d),
            lambda: mms_exact(I_A, 0, d),
            lambda: mms_bruteforce(I_A, 0, d),
        ):
            with pytest.raises(PreconditionError, match=f"d must be an int, not {d}"):
                solve()

    @pytest.mark.parametrize(
        "target, bundles",
        [
            (3, [(3,), (3,)]),  # two bundles for three
            (3, [(3,), (3,), (3,), ()]),  # four bundles for three
            (3, [(3,), (3,), (2,)]),  # a value the row does not hold
            (3, [(3,), (3,), (3, 3)]),  # a good held twice
            (4, [(3,), (3,), (3,)]),  # every bundle one short
            (3, [(3,), (3,), ()]),  # an empty bundle
        ],
    )
    def test_bundle_check_rejects_non_coverings(self, target, bundles):
        with pytest.raises(InvariantViolationError):
            _bundles_floor([3, 3, 3], 3, target, bundles)

    def test_bundle_check_puts_the_goods_past_the_bundles_in_bundle_0(self):
        assert _bundles_floor([5, 4, 3, 1, 1], 2, 4, [(5,), (4,)]) == 4
        assert _bundles_floor([5, 4, 3, 1, 0], 2, 5, [(4, 3), (5,)]) == 5
        with pytest.raises(InvariantViolationError):
            _bundles_floor([5, 4, 3, 1], 2, 5, [(5,), (3, 1)])

    def test_every_probe_covering_is_checked(self, monkeypatch):
        """The value search lifts its lower end only past a covering that
        passes ``_bundles_floor``: one that holds a good twice is refused."""
        # Greedy gives 11 and the ceiling 12, which a covering reaches.
        assert _share_value([8, 7, 6, 5, 4, 3, 2, 1], 3) == 12
        search = shares._covering_bundles

        def holds_a_good_twice(vals, d, target):
            bundles = search(vals, d, target)
            return bundles and [bundles[0] + bundles[0][:1], *bundles[1:]]

        monkeypatch.setattr(shares, "_covering_bundles", holds_a_good_twice)
        with pytest.raises(InvariantViolationError, match="every good once"):
            _share_value([8, 7, 6, 5, 4, 3, 2, 1], 3)

    def test_probe_coverings_are_the_search_coverings(self):
        """``_find_covering``'s assignment is the probe's bundles, by value."""
        probes = 0
        for vals, d, target in bound_sweep():
            bundles = shares._covering_bundles(vals, d, target)
            assign = _find_covering(vals, d, target)
            assert (bundles is None) == (assign is None)
            if bundles is not None:
                by_index = [sorted(v for v, b in zip(vals, assign) if b == k) for k in range(d)]
                placed = sum(map(len, bundles))
                expect = [sorted(bundle) for bundle in bundles]
                expect[0] = sorted(expect[0] + vals[placed:])
                assert by_index == expect, (vals, d, target)
                floor = _bundles_floor(vals, d, target, bundles)
                assert floor == _covering_floor(vals, d, target, assign)
                probes += 1
        assert probes > 1000

    def test_greedy_cover_matches_lpt_from_empty_bundles(self):
        for vals, d in row_sweep():
            assert _greedy_cover(vals, d) == ref_greedy_cover(vals, d), (vals, d)


def row_sweep():
    """Seeded (vals, d) queries: rows of every family, m up to 20 with small
    and wide value ranges (zeros included), every d in 1..m+1."""
    rng = random.Random(2608)
    for family in ("general", "ordered", "top_n"):
        for m in range(1, 21):
            for max_value in (4, 20):
                inst = seeded_instance(family, min(m, 2), m, rng.randrange(2**32), max_value)
                for ints, _ in inst.int_rows:
                    vals = sorted(ints, reverse=True)
                    for d in range(1, m + 2):
                        yield vals, d


def bound_sweep():
    """Seeded (vals, d, target) probes: every query of row_sweep at every
    target from 1 to one above the ceiling."""
    for vals, d in row_sweep():
        for target in range(1, _cover_ceiling(vals, d) + 2):
            yield vals, d, target


def brute_max_pairs(goods, target):
    """Most disjoint pairs reaching target, by trying every partner for the
    first good and leaving it unpaired."""
    if len(goods) < 2:
        return 0
    first, rest = goods[0], goods[1:]
    best = brute_max_pairs(rest, target)
    for j, other in enumerate(rest):
        if first + other >= target:
            best = max(best, 1 + brute_max_pairs(rest[:j] + rest[j + 1 :], target))
    return best


def search_goods(vals, d, target):
    """The goods and bundle count ``_find_covering`` hands ``_complete`` for
    a probe: the positive goods below target, and d less the goods that
    reach it alone.  None when d goods reach it and no search runs."""
    big = sum(1 for v in vals if v >= target)
    if big >= d:
        return None
    return tuple(v for v in vals if 0 < v < target), d - big


class TestPairingBound:
    """_pairing_refutes may lower the share search's upper end, so every
    level it refutes must really have no covering.  Comparing thresholds
    with mms_exact cannot show this, since both take _share_value's value;
    ref_cover, checked against the oracle above, decides it here instead.
    The bound takes only goods below the target, so each row is first
    reduced as _find_covering reduces it (search_goods)."""

    def test_refutations_are_infeasible_on_sweep(self):
        refuted = 0
        for vals, d, target in bound_sweep():
            searched = search_goods(vals, d, target)
            if searched is not None and _pairing_refutes(*searched, target):
                assert ref_cover(vals, d, target) is None, (vals, d, target)
                refuted += 1
        assert refuted > 1000

    @settings(max_examples=300, deadline=None)
    @given(
        goods=st.lists(st.integers(0, 12), min_size=1, max_size=14),
        data=st.data(),
    )
    def test_refutations_are_infeasible(self, goods, data):
        # A narrow value range makes pairs that reach the target exactly
        # common, where an off-by-one in the pairing shows.
        vals = sorted(goods, reverse=True)
        d = data.draw(st.integers(1, len(vals) + 1))
        target = data.draw(st.integers(1, _cover_ceiling(vals, d) + 1))
        searched = search_goods(vals, d, target)
        if searched is not None and _pairing_refutes(*searched, target):
            assert ref_cover(vals, d, target) is None

    def test_pair_count_is_a_maximum_matching(self):
        rng = random.Random(2609)
        for _ in range(400):
            goods = sorted(
                (rng.randrange(1, 21) for _ in range(rng.randrange(11))), reverse=True
            )
            target = rng.randrange(1, 41)
            assert _max_pairs(goods, target) == brute_max_pairs(goods, target), (goods, target)

    def test_refutes_a_level_cover_finds_slow(self):
        vals = [20, 19, 19, 17, 17, 17, 16, 16, 15, 15, 14, 14, 14, 14, 14,
                13, 12, 12, 10, 10, 9, 9, 8, 7, 6, 5, 3, 1, 0, 0]
        assert _pairing_refutes(*search_goods(vals, 15, 20), 20)
        assert ref_cover(vals, 15, 20) is None


# The slowest probes ref_cover's search decided in a seed-1 solve-topn run: one level
# with no covering and one with a covering.
SLOW_INFEASIBLE = ([40, 39, 39, 32, 30, 29, 27, 23, 21, 20, 19, 19, 16, 16, 15,
                    15, 15, 15, 14, 14, 13, 13, 12, 10, 10, 8, 6, 5, 4, 1], 15, 34)
SLOW_FEASIBLE = ([41, 38, 37, 30, 28, 28, 28, 25, 25, 23, 20, 18, 17, 16, 13,
                  13, 12, 12, 12, 12, 11, 10, 9, 9, 4, 3, 3, 2, 2, 1], 15, 31)


class TestFindCovering:
    """_find_covering decides every probe of the share search: a covering it
    returns lifts the lower end, None lowers the upper end.  ref_cover, checked
    against the oracle above, decides each probe independently here, so both
    a covering missed and one wrongly claimed show."""

    def test_agrees_with_cover_on_sweep(self):
        feasible = infeasible = 0
        for vals, d, target in bound_sweep():
            assign = _find_covering(vals, d, target)
            assert (assign is None) == (ref_cover(vals, d, target) is None), (vals, d, target)
            if assign is None:
                infeasible += 1
            else:
                _covering_floor(vals, d, target, assign)
                feasible += 1
        assert feasible > 1000 and infeasible > 1000

    @settings(max_examples=300, deadline=None)
    @given(
        goods=st.lists(st.integers(0, 12), min_size=1, max_size=14),
        data=st.data(),
    )
    def test_agrees_with_cover(self, goods, data):
        vals = sorted(goods, reverse=True)
        d = data.draw(st.integers(1, len(vals) + 1))
        target = data.draw(st.integers(1, _cover_ceiling(vals, d) + 1))
        assign = _find_covering(vals, d, target)
        assert (assign is None) == (ref_cover(vals, d, target) is None)
        if assign is not None:
            _covering_floor(vals, d, target, assign)

    def test_slow_infeasible_probe(self):
        vals, d, target = SLOW_INFEASIBLE
        assert not _pairing_refutes(*search_goods(vals, d, target), target)
        assert _find_covering(vals, d, target) is None
        assert ref_cover(vals, d, target) is None

    def test_slow_feasible_probe(self):
        vals, d, target = SLOW_FEASIBLE
        assign = _find_covering(vals, d, target)
        assert assign is not None
        assert _covering_floor(vals, d, target, assign) >= target
        assert ref_cover(vals, d, target) is not None

    def test_completions_take_only_the_smallest_good_that_fits_alone(self):
        def values(goods, gap):
            return [tuple(goods[i] for i in p) for p in _minimal_completions(goods, gap)]

        goods = (9, 8, 7, 5, 4, 3, 3, 1)
        # 8 fits alone, so nothing else is tried: 9 is larger, and two or
        # more smaller goods would sum to 8 or more.
        assert values(goods, 8) == [(8,)]
        # 9 fits alone; smaller goods are tried only while they sum below 9.
        assert values((9, 5, 4, 3, 1), 7) == [(9,), (5, 3), (4, 3)]
        # Nothing fits alone.  After 9 only 1 is tried, after 8 or 7 only 3
        # (not 1, which falls short), and the two 3s give one completion.
        assert values(goods, 10) == [(9, 1), (8, 3), (7, 3), (5, 4, 1), (5, 3, 3), (4, 3, 3)]

    def test_failed_states_keep_their_bundle_count(self):
        # A state is the goods left and the bundles still to fill: failing
        # to cut 12 bundles from some goods says nothing about cutting 11.
        vals, d, target = SLOW_INFEASIBLE
        small = tuple(v for v in vals if v < target)
        bundles = d - (len(vals) - len(small))
        dead = set()
        assert not _complete(small, bundles, target, dead, [])
        filled = []
        assert _complete(small, bundles - 1, target, dead, filled)
        assert sorted(sum(filled, ())) == sorted(small)
        assert min(map(sum, filled)) >= target

    def test_search_takes_the_goods_between_big_and_zero(self, monkeypatch):
        # _find_covering splits the row by bisecting for the big goods and
        # the zeros; the search must receive exactly the filtered reduction,
        # and none runs once d goods reach the target.
        searched = []

        def first_node(goods, bundles, target, dead, filled):
            searched.append((goods, bundles))
            return False

        monkeypatch.setattr(shares, "_complete", first_node)
        runs = 0
        for vals, d, target in bound_sweep():
            searched.clear()
            _find_covering(vals, d, target)
            expected = search_goods(vals, d, target)
            assert searched == ([] if expected is None else [expected]), (vals, d, target)
            runs += expected is not None
        assert runs > 1000

    def test_no_search_once_d_goods_reach_target(self):
        # Two goods reach 5, so each covers a bundle alone and the 1 joins
        # bundle 0; with one such good, the two 1s cannot cover the other.
        assert _find_covering([5, 5, 1], 2, 5) == [0, 1, 0]
        assert _pairing_refutes(*search_goods([5, 1, 1], 2, 5), 5)
        assert _find_covering([5, 1, 1], 2, 5) is None

    def test_zero_goods_and_surplus_join_covered_bundles(self):
        # A good at the target covers a bundle alone; the last bundle takes
        # every positive good left; zeros and unneeded goods go to bundle 0.
        assert _find_covering([5, 3, 2, 1, 0], 2, 5) == [0, 1, 1, 1, 0]
        assert _find_covering([5, 5, 5, 1, 0], 2, 5) == [0, 1, 0, 0, 0]
        assert _find_covering([5, 3, 0], 3, 1) is None


class TestSearchWork:
    """The bounds, the memo of failed states and the node order decide how
    much the share search does.  A change meant to make each node cheaper
    must leave these counts as they are; one that moves them changed what
    the search visits, and with it possibly the canonical witness."""

    # Recorded when the counting bound stopped re-counting _complete's
    # precondition at each node, on the code before and after: equal.
    VALUE_PROBES, VALUE_NODES = 757, 2710
    SWEEP_PROBES, SWEEP_NODES = 50431, 64287

    def test_probe_and_node_counts_unchanged(self, monkeypatch):
        # A probe is one _covering_bundles call: _share_value calls it, and
        # _find_covering wraps it.
        calls = {"_covering_bundles": 0, "_complete": 0}
        for name in calls:
            def counted(*args, _fn=getattr(shares, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(shares, name, counted)
        for vals, d in row_sweep():
            _share_value(vals, d)
        assert (calls["_covering_bundles"], calls["_complete"]) == (
            self.VALUE_PROBES,
            self.VALUE_NODES,
        )
        calls.update(dict.fromkeys(calls, 0))
        for vals, d, target in bound_sweep():
            shares._find_covering(vals, d, target)
        assert (calls["_covering_bundles"], calls["_complete"]) == (
            self.SWEEP_PROBES,
            self.SWEEP_NODES,
        )


@st.composite
def search_probes(draw):
    """A probe (vals sorted desc, d, target) on a row of values up to 1000
    drawn from a few distinct ones, so ties are many, with zeros mixed in.
    Targets run from the greedy cover to one above the ceiling, where the
    search goes deep, and on rows with a few large values some goods reach
    the target alone."""
    pool = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=6))
    vals = draw(st.lists(st.sampled_from([0, *pool]), min_size=4, max_size=16))
    vals.sort(reverse=True)
    d = draw(st.integers(2, len(vals) // 2))
    low = max(1, _greedy_cover(vals, d))
    return vals, d, draw(st.integers(low, max(low, _cover_ceiling(vals, d) + 1)))


class TestSearchAgainstReference:
    """The share search bisects, tries each node's single completion before
    it opens the generator and stops pairing once the bound cannot refute.
    helpers keeps the plain search (ref_complete, ref_minimal_completions,
    ref_pairing_refutes, ref_find_covering), which scans and counts in
    full; the two must agree node for node: the same children in the same
    order, the same failed states, refutations and coverings."""

    @staticmethod
    def _nodes(module, name, *args):
        """The (goods, bundles) of each node a search visits in order, the
        search's verdict, the bundles it filled and the states it failed."""
        nodes, dead, filled, search = [], set(), [], getattr(module, name)

        def visit(goods, bundles, target, dead, filled):
            nodes.append((goods, bundles))
            return search(goods, bundles, target, dead, filled)

        with mock.patch.object(module, name, visit):
            found = visit(*args, dead, filled)
        return nodes, found, filled, dead

    @settings(max_examples=400, deadline=None)
    @given(probe=search_probes())
    def test_coverings_equal_the_reference(self, probe):
        assert _find_covering(*probe) == ref_find_covering(*probe)

    @settings(max_examples=400, deadline=None)
    @given(probe=search_probes())
    def test_completion_sequences_equal_the_reference(self, probe):
        vals, d, target = probe
        searched = search_goods(vals, d, target)
        if searched is None:
            return
        goods, bundles = searched
        assert self._nodes(shares, "_complete", goods, bundles, target) == self._nodes(
            helpers, "ref_complete", goods, bundles, target
        )

    @settings(max_examples=400, deadline=None)
    @given(probe=search_probes())
    def test_refutations_equal_the_reference(self, probe):
        vals, d, target = probe
        goods = tuple(v for v in vals if 0 < v < target)
        for bundles in range(1, len(goods) + 2):
            assert _pairing_refutes(goods, bundles, target) == ref_pairing_refutes(
                goods, bundles, target
            ), (goods, bundles, target)


class TestShareAgainstCover:
    """The share value must be neither above nor below the true share.  The
    golden digests and the thresholds tests compare it with mms_exact, which
    takes the same value, and the oracle stops at 12 goods.  Here ref_cover
    decides the value and the level above it on rows of up to 20 goods."""

    def test_cover_decides_the_share(self):
        for vals, d in row_sweep():
            share = _share_value(vals, d)
            assert ref_cover(vals, d, share) is not None, (vals, d)
            assert ref_cover(vals, d, share + 1) is None, (vals, d)

    @settings(max_examples=200, deadline=None)
    @given(
        goods=st.lists(st.integers(0, 20), min_size=2, max_size=16),
        data=st.data(),
    )
    def test_removing_a_good_never_raises_the_share(self, goods, data):
        d = data.draw(st.integers(1, len(goods) + 1))
        gone = data.draw(st.integers(0, len(goods) - 1))
        fewer = goods[:gone] + goods[gone + 1 :]
        share = _share_value(sorted(goods, reverse=True), d)
        assert _share_value(sorted(fewer, reverse=True), d) <= share

    @settings(max_examples=300, deadline=None)
    @given(goods=st.lists(st.integers(0, 20), max_size=16), data=st.data())
    def test_share_is_zero_exactly_below_d_positive_goods(self, goods, data):
        # With d or more positive goods each bundle can hold one; with fewer,
        # some bundle holds only zeros.
        d = data.draw(st.integers(1, len(goods) + 3))
        share = _share_value(sorted(goods, reverse=True), d)
        assert (share == 0) == (sum(1 for v in goods if v > 0) < d)


class TestCoverCeiling:
    """``_cover_ceiling`` stops at the first good that does not lower the
    average; the full loop over every k < d is the reference."""

    @settings(max_examples=1000, deadline=None)
    @given(
        # Small values tie often, where the stop condition's equality shows.
        goods=st.lists(
            st.one_of(st.just(0), st.integers(1, 5), st.integers(1, 1000)), max_size=20
        ),
        data=st.data(),
    )
    def test_matches_full_loop(self, goods, data):
        vals = sorted(goods, reverse=True)
        d = data.draw(st.integers(1, len(vals) + 5))
        assert _cover_ceiling(vals, d) == ref_cover_ceiling(vals, d)

    def test_stops_on_a_good_at_the_average(self):
        # 9 is above the average 15 / 3, so removing it lowers the bound to
        # 6 // 2; 3 is at the new average 6 / 2 and leaves it where it is.
        assert _cover_ceiling([9, 3, 3], 3) == 3
        # The first 4 is already at the average 12 / 3.
        assert _cover_ceiling([4, 4, 4, 0], 3) == 4


class TestThresholds:
    def test_ex51_d3(self):
        assert thresholds(EX51, 3) == (1, 1, 2)

    def test_all_zero_valuations(self):
        inst = Instance.from_rows([[0, 0, 0], [0, 0, 0]])
        assert thresholds(inst, 2) == (0, 0)

    def test_i_a_d3(self):
        assert thresholds(I_A, 3) == (3, 3)

    @staticmethod
    def _assert_exact(inst, d):
        assert thresholds(inst, d) == tuple(mms_exact(inst, i, d).value for i in inst.agents)

    def test_zero_share_boundary_at_d_positive_goods(self):
        """A row with d - 1 positive goods has share 0 whatever the values;
        one with exactly d has its smallest positive value."""
        inst = Instance.from_rows([
            [5, 4, 0, 0, 0],
            [5, 4, 3, 0, 0],
            ["1/2", 0, "7/3", 0, 0],
            ["1/2", "5/6", "7/3", 0, 0],
        ])
        assert thresholds(inst, 3) == (0, 3, 0, Fraction(1, 2))
        for d in range(1, 7):
            self._assert_exact(inst, d)

    def test_duplicate_rows_share_one_value(self):
        inst = Instance.from_rows([[3, 1, 1, 0], [2, 2, 2, 0], [3, 1, 1, 0], [2, 2, 2, 0]])
        for d in range(1, 6):
            self._assert_exact(inst, d)
        assert thresholds(inst, 2) == (2, 2, 2, 2)

    def test_scaled_duplicates_keep_their_own_values(self):
        """``1 2`` and ``2 4`` are one valuation up to scale, but their
        integer rows differ, and so do their shares; ``1/2 1`` has the
        integer row ``1 2`` with lcm 2."""
        inst = Instance.from_rows([[1, 2, 0], [2, 4, 0], ["1/2", 1, 0], [1, 2, 0]])
        assert thresholds(inst, 2) == (1, 2, Fraction(1, 2), 1)
        assert thresholds(inst, 3) == (0, 0, 0, 0)
        for d in range(1, 5):
            self._assert_exact(inst, d)


class TestShareBandReduction:
    """Removing the second quality band [k+1, 3n-k] of an ordered instance
    leaves a 1-out-of-k share at least the 1-out-of-ceil(3n/2) share."""

    def test_reduction_preserves_share(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(2, 4)
            m = rng.randrange(2 * n, 9)
            inst = positive_ordered_instance(n, m, rng.randrange(2**32))
            order = detect_structure(inst)
            d = (3 * n + 1) // 2
            for i in inst.agents:
                full = mms_bruteforce(inst, i, d).value
                for k in range(n, d + 1):
                    removed = {order[p] for p in range(k, min(3 * n - k, m))}
                    kept = Instance.from_rows(
                        [[v for g, v in enumerate(row) if g not in removed] for row in inst.values]
                    )
                    reduced = mms_bruteforce(kept, i, k).value
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


def both_normalizations(inst, d, witnesses=None):
    """``normalize_order_preserving``'s and the simulation's output rows, each
    replaced by its ``ZeroMaximinError`` message when it raises one."""
    out = []
    for normalize in (normalize_order_preserving, ref_normalize_order_preserving):
        try:
            out.append(normalize(inst, d, witnesses).values)
        except ZeroMaximinError as exc:
            out.append(str(exc))
    return out


def oracle_witnesses(inst, d):
    return {i: mms_bruteforce(inst, i, d).partition for i in inst.agents}


def order_sweep():
    """Seeded ordered instances, n 1-3, m 1-10, d 1-5: about 30% with each
    row divided by its own rational, and the oracle's witnesses injected on
    about 40% of the instances with m <= 9."""
    rng = random.Random(36)
    for _ in range(400):
        n, m, d = rng.randint(1, 3), rng.randint(1, 10), rng.randint(1, 5)
        max_value = rng.choice([1, 2, 3, 5, 20, 1000])
        inst = seeded_instance("ordered", n, m, rng.randrange(2**32), max_value)
        if rng.random() < 0.3:
            scales = [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in inst.agents]
            inst = inst.with_values([[v / c for v in row] for row, c in zip(inst.values, scales)])
        witnesses = oracle_witnesses(inst, d) if m <= 9 and rng.random() < 0.4 else None
        yield inst, d, witnesses


class TestNormalizeOrderPreserving:
    def test_matches_the_simulation_on_sweep(self):
        zero = 0
        for inst, d, witnesses in order_sweep():
            fast, ref = both_normalizations(inst, d, witnesses)
            assert fast == ref, (inst.values, d, witnesses)
            zero += isinstance(fast, str)
        # Both outcomes are exercised.
        assert 0 < zero < 400

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_simulation(self, data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
        d = data.draw(st.integers(1, 5))
        value = st.fractions(min_value=0, max_value=20, max_denominator=6)
        rows = [sorted(data.draw(st.lists(value, min_size=m, max_size=m)), reverse=True)
                for _ in range(n)]
        # One permutation of every sorted row keeps a common order.
        perm = data.draw(st.permutations(range(m)))
        inst = Instance.from_rows([[row[p] for p in perm] for row in rows])
        witnesses = oracle_witnesses(inst, d) if m <= 7 and data.draw(st.booleans()) else None
        fast, ref = both_normalizations(inst, d, witnesses)
        assert fast == ref

    def test_wide_cell_matches_the_simulation(self):
        """The ordered n=12, m=36 draw that CI normalizes at d=16; the digest
        is CI's for the written file."""
        inst = seeded_instance("ordered", 12, 36, 1, max_value=1000)
        fast, ref = both_normalizations(inst, 16)
        assert fast == ref
        text = write_instance(inst.with_values(fast))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "400e9d6efbce08d87b174ef0daea3cd4a3615f33d4930b3f1171951fbc4f3155"
        )

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
            order = detect_structure(inst)
            for i in inst.agents:
                mu = mms_exact(inst, i, d).value
                assert mms_exact(out, i, d).value == 1
                assert out.value(i, out.goods) == d
                for g in inst.goods:
                    assert out.values[i][g] <= inst.values[i][g] / mu
                for p in range(m - 1):
                    assert out.values[i][order[p]] >= out.values[i][order[p + 1]]
