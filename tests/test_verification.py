import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordfair import (
    Allocation,
    Instance,
    alloc_ordered_efx_3n2,
    alloc_topn_lone_divider,
    is_ef1,
    is_efx,
    is_ordinal_mms,
    normalize_scale,
    pad_agents_to_multiple_of_three,
    read_report,
    report,
    strongly_envies,
    thresholds,
    write_report,
)
from ordfair import verification
from ordfair.errors import InvalidInstanceError, ParseError, PreconditionError
from ordfair.verification import MmsVerdict

from helpers import (
    EX51,
    EX51_WITNESSES,
    LARGE_PRIMES,
    frac_is_ef1,
    make_allocation,
    naive_is_ef1,
    naive_is_efx,
    naive_strong_envy,
    random_partial_allocation,
    rational_rows_instance,
    ref_mms,
    reference_report,
    seeded_instance,
)

EX51_ALLOC = make_allocation([[4], [0, 1, 2], [3]])


class TestStrongEnvy:
    def test_ex51_agent0_strongly_envies_agent1(self):
        bad, witness = strongly_envies(EX51, EX51_ALLOC, 0, 1)
        assert bad and witness == 0

    def test_singletons_never_strongly_envied(self):
        rng = random.Random(30)
        for _ in range(20):
            inst = seeded_instance("general", 2, 4, rng.randrange(2**32))
            alloc = make_allocation([[rng.randrange(4)], []], [])
            assert not strongly_envies(inst, alloc, 1, 0)[0]

    def test_same_agent_rejected(self):
        with pytest.raises(PreconditionError):
            strongly_envies(EX51, EX51_ALLOC, 1, 1)

    def test_agents_out_of_range_rejected(self):
        """Agent -1 is not agent n - 1: it would get past the distinct-agents
        check and compare with the last agent."""
        n = EX51.n
        for i, j in ((0, -1), (-1, 0), (n - 1, -1), (0, n), (n, 0), (n, n)):
            with pytest.raises(PreconditionError, match="out of range"):
                strongly_envies(EX51, EX51_ALLOC, i, j)

    def test_agrees_with_naive_subset_check(self):
        rng = random.Random(31)
        for _ in range(60):
            inst = seeded_instance("general", 3, rng.randrange(1, 9), rng.randrange(2**32))
            alloc = random_partial_allocation(inst, rng)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert (
                            strongly_envies(inst, alloc, i, j)[0]
                            == naive_strong_envy(inst, alloc, i, j)
                        )


class TestEfxEf1:
    def test_ex51_original_not_efx(self):
        ok, witness = is_efx(EX51, EX51_ALLOC)
        assert not ok and witness[:2] == (0, 1)

    def test_ex51_scaled_is_efx(self):
        scaled = normalize_scale(EX51, 3, EX51_WITNESSES)
        assert is_efx(scaled, EX51_ALLOC)[0]

    def test_one_good_each_is_efx(self):
        rng = random.Random(32)
        inst = seeded_instance("general", 3, 3, rng.randrange(2**32))
        alloc = make_allocation([[0], [1], [2]], [])
        assert is_efx(inst, alloc)[0]

    def test_ex51_pairing_is_ef1_not_efx(self):
        alloc = make_allocation([[0, 1], [2, 3], [4]], [])
        assert is_ef1(EX51, alloc)[0]
        ok, witness = is_efx(EX51, alloc)
        assert not ok and witness[0] == 2

    def test_no_goods_is_ef1(self):
        inst = Instance.from_rows([[1], [1]])
        alloc = make_allocation([[], []], [0])
        assert is_ef1(inst, alloc)[0]
        assert is_efx(inst, alloc)[0]

    def test_efx_implies_ef1(self):
        rng = random.Random(33)
        hits = 0
        for _ in range(120):
            inst = seeded_instance("general", 3, rng.randrange(1, 8), rng.randrange(2**32))
            alloc = random_partial_allocation(inst, rng)
            if is_efx(inst, alloc)[0]:
                hits += 1
                assert is_ef1(inst, alloc)[0]
        assert hits > 0

    def test_agrees_with_naive_loops(self):
        rng = random.Random(34)
        for _ in range(80):
            inst = seeded_instance("general", rng.randrange(1, 4), rng.randrange(1, 8), rng.randrange(2**32))
            alloc = random_partial_allocation(inst, rng)
            assert is_efx(inst, alloc)[0] == naive_is_efx(inst, alloc)
            assert is_ef1(inst, alloc)[0] == naive_is_ef1(inst, alloc)

    def test_ef1_witness_at_the_average_bound(self):
        """EF1's scan opens a bundle only when i's envy of it exceeds its
        average good; on rows of values 0-2, envy equal to the average is
        common, and the verdicts and witnesses must still be the Fraction
        reference's."""
        rng = random.Random(36)
        at_bound = verdicts = 0
        for _ in range(400):
            inst = seeded_instance("general", rng.randrange(2, 5), rng.randrange(2, 9),
                                   rng.randrange(2**32), max_value=2)
            alloc = random_partial_allocation(inst, rng)
            got = is_ef1(inst, alloc)
            assert got == frac_is_ef1(inst, alloc)
            verdicts += got[0]
            for i in inst.agents:
                own = inst.value(i, alloc.bundles[i])
                for bundle in alloc.bundles:
                    total = inst.value(i, bundle)
                    at_bound += len(bundle) > 1 and total > own and (total - own) * len(bundle) == total
        assert at_bound > 40 and 50 < verdicts < 350, (at_bound, verdicts)

    def test_verdicts_scale_invariant(self):
        rng = random.Random(35)
        for _ in range(20):
            inst = seeded_instance("general", 3, 6, rng.randrange(2**32))
            alloc = random_partial_allocation(inst, rng)
            scaled = inst.with_values(
                [
                    [v * Fraction(7, 3) for v in inst.values[0]],
                    inst.values[1],
                    inst.values[2],
                ]
            )
            assert is_efx(inst, alloc)[0] == is_efx(scaled, alloc)[0]
            assert is_ef1(inst, alloc)[0] == is_ef1(scaled, alloc)[0]


class TestOrdinalMms:
    def test_ex51_pairing_fails_for_agent2(self):
        taus = thresholds(EX51, 3)
        alloc = make_allocation([[0, 1], [2, 3], [4]], [])
        ok, witness = is_ordinal_mms(EX51, alloc, 3, taus)
        assert not ok and witness == (2, 1)

    def test_ex51_share_respecting_allocation(self):
        taus = thresholds(EX51, 3)
        alloc = make_allocation([[0, 1], [2, 4], [3]], [])
        assert is_ordinal_mms(EX51, alloc, 3, taus)[0]

    def test_huge_divisor_trivially_ok(self):
        inst = seeded_instance("general", 2, 3, 77)
        taus = thresholds(inst, 9)
        assert taus == (0, 0)
        alloc = make_allocation([[], []], range(3))
        assert is_ordinal_mms(inst, alloc, 9, taus)[0]

    def test_copy_of_agent_zero_holding_nothing_fails(self):
        """A padding copy of agent 0 is an agent like any other: holding
        nothing, it falls short of its share and is the witness."""
        grown = pad_agents_to_multiple_of_three(
            Instance.from_rows([[4, 4, 4, 4], [4, 4, 4, 4]])
        )
        taus = thresholds(grown, 2)
        alloc = make_allocation([[0, 1], [2, 3], []], [])
        assert is_ordinal_mms(grown, alloc, 2, taus) == (False, (2, 8))

    def test_worst_gap_wins_lowest_index_on_ties(self):
        """Several agents below threshold: the largest gap is the witness,
        first that of the fifth agent, a copy of the fourth holding nothing;
        the lowest index among equal gaps; and an agent exactly at its
        threshold is not below it."""
        inst = Instance.from_rows(
            [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 3, 0, 0], [0, 0, 0, 4, 0], [0, 0, 0, 4, 0]]
        )
        alloc = make_allocation([[0], [1], [2], [3], []], [4])
        taus = tuple(map(Fraction, (2, 5, 6, 4, 99)))
        assert is_ordinal_mms(inst, alloc, 2, taus) == (False, (4, 99))
        assert report(inst, alloc, {2: taus}).mms[0].witness == (4, 99)
        gaps = tuple(map(Fraction, (2, 5, 6, 4, 3)))
        assert is_ordinal_mms(inst, alloc, 2, gaps) == (False, (1, 3))
        met = (Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(0))
        assert is_ordinal_mms(inst, alloc, 2, met) == (True, None)

    def test_threshold_count_checked(self):
        with pytest.raises(PreconditionError):
            is_ordinal_mms(EX51, EX51_ALLOC, 3, (Fraction(1),))

    def test_tie_and_threshold_off_the_row_scale(self):
        """Agent 0's row has lcm 6 and its bundle is worth 5/6: a threshold
        of exactly 5/6 is met, 6/7 (denominator 7, which does not divide 6)
        misses by 1/42, and 4/7 is met; agent 1 is over a 20-digit prime."""
        p = LARGE_PRIMES[0]
        inst = Instance.from_rows([["1/2", "1/3", 0], [0, Fraction(3, p), 1]])
        alloc = make_allocation([[0, 1], [2]], [])
        tie = (Fraction(5, 6), Fraction(1))
        assert is_ordinal_mms(inst, alloc, 2, tie) == (True, None)
        assert is_ordinal_mms(inst, alloc, 2, (Fraction(6, 7), Fraction(1))) == (
            False,
            (0, Fraction(1, 42)),
        )
        assert is_ordinal_mms(inst, alloc, 2, (Fraction(4, 7), Fraction(1, p))) == (True, None)
        over = (Fraction(0), Fraction(p + 1, p))
        assert is_ordinal_mms(inst, alloc, 2, over) == (False, (1, Fraction(1, p)))

    def test_int_thresholds_decide_as_fractions(self):
        """Thresholds that are ints have no ``Fraction`` slots; the verdict,
        the report and the levels read them as the equal Fractions."""
        inst = Instance.from_rows([["1/2", "1/3", 0], [0, 3, 1]])
        alloc = make_allocation([[0, 1], [2]], [])
        for taus in ((1, 1), (0, 2), (0, 1)):
            fractions = tuple(map(Fraction, taus))
            assert is_ordinal_mms(inst, alloc, 2, taus) == is_ordinal_mms(inst, alloc, 2, fractions)
            assert write_report(report(inst, alloc, {2: taus})) == write_report(
                report(inst, alloc, {2: fractions})
            )
            assert inst.levels(taus) == inst.levels(fractions)

    @pytest.mark.parametrize(
        "bad", [0.1, 3.0000000000000004, 2.9999999999999996, 1.0, True, False, "1/2", None]
    )
    def test_inexact_thresholds_rejected(self, bad):
        """A threshold must be a ``Fraction`` or an int: a float, even one
        equal to an int, a bool or a string is refused by the verdict, the
        report and the allocators, with ``as_rational``'s message, before
        any of them decides or writes a thing."""
        inst = Instance.from_rows([[3, 2, 1], [3, 2, 1]])
        alloc = make_allocation([[0], [1, 2]], [])
        taus = [Fraction(1), bad]
        message = f"not an exact rational: {bad!r}"
        with pytest.raises(InvalidInstanceError, match=re.escape(message)):
            is_ordinal_mms(inst, alloc, 3, taus)
        with pytest.raises(InvalidInstanceError, match=re.escape(message)):
            report(inst, alloc, {3: taus})
        with pytest.raises(InvalidInstanceError, match=re.escape(message)):
            alloc_ordered_efx_3n2(inst, taus)
        with pytest.raises(InvalidInstanceError, match=re.escape(message)):
            alloc_topn_lone_divider(inst, taus)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_integer_verdict_matches_fraction_rule(self, data):
        """The verdict on integers equals the old rule on ``Fraction``
        bundle values, verdict and witness, in ``is_ordinal_mms`` and
        ``report``.  Each threshold is the bundle's value exactly (a tie),
        just above or below it by 1/q with q a small or a 20-digit prime
        that need not divide the row's lcm, or free."""
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(0, 5))
        cell = st.one_of(
            st.integers(0, 6).map(Fraction),
            st.fractions(min_value=0, max_value=6, max_denominator=12),
            st.builds(Fraction, st.integers(0, 10**21), st.sampled_from(LARGE_PRIMES)),
        )
        inst = Instance.from_rows(
            data.draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n))
        )
        alloc = random_partial_allocation(inst, data.draw(st.randoms(use_true_random=False)))
        own = [inst.value(i, b) for i, b in enumerate(alloc.bundles)]
        step = st.sampled_from((7, 11, 12) + LARGE_PRIMES).map(lambda q: Fraction(1, q))
        taus = []
        for value in own:
            kind = data.draw(st.sampled_from(("tie", "above", "below", "free")))
            if kind == "tie":
                taus.append(value)
            elif kind == "above":
                taus.append(value + data.draw(step))
            elif kind == "below":
                taus.append(max(Fraction(0), value - data.draw(step)))
            else:
                taus.append(data.draw(st.fractions(min_value=0, max_value=12, max_denominator=30)))
        taus = tuple(taus)
        expected = ref_mms(own, taus)
        assert is_ordinal_mms(inst, alloc, 2, taus) == expected
        verdict = MmsVerdict(divisor=2, ok=expected[0], thresholds=taus, witness=expected[1])
        assert report(inst, alloc, {2: taus}).mms == (verdict,)


class TestMalformedAllocations:
    """The public checkers validate the allocation as ``report`` does, rather
    than index past a row or count one good twice."""

    INST = Instance.from_rows([[3, 2, 1], [1, 2, 3]])
    ZERO = (Fraction(0), Fraction(0))
    CHECKERS = {
        "is_efx": lambda inst, alloc: is_efx(inst, alloc),
        "is_ef1": lambda inst, alloc: is_ef1(inst, alloc),
        "is_ordinal_mms": lambda inst, alloc: is_ordinal_mms(inst, alloc, 2, (Fraction(0),) * 2),
        "strongly_envies": lambda inst, alloc: strongly_envies(inst, alloc, 1, 0),
    }
    SHAPES = {
        "one bundle for two agents": (Allocation((frozenset({0}),)), "1 bundles for 2 agents"),
        "good past the last": (make_allocation([[0], [3]]), "good 3 out of range"),
        "negative good": (make_allocation([[-1], [0]]), "good -1 out of range"),
        "good in two bundles": (make_allocation([[0, 1], [1]]), "good 1 assigned twice"),
        "bundle good in the pool": (make_allocation([[0], [1]], [1, 2]), "good 1 assigned twice"),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("checker", CHECKERS)
    def test_rejected(self, checker, shape):
        alloc, message = self.SHAPES[shape]
        with pytest.raises(InvalidInstanceError, match=message):
            self.CHECKERS[checker](self.INST, alloc)


class TestReport:
    def test_aggregates_individual_verdicts(self):
        rep = report(EX51, EX51_ALLOC, {3: thresholds(EX51, 3)})
        assert rep.complete
        assert not rep.efx and rep.efx_witness[:2] == (0, 1)
        # the envy here is three goods deep, so EF1 fails too
        assert not rep.ef1 and rep.ef1_witness == (0, 1)
        assert rep.mms[0].thresholds == (1, 1, 2)
        assert rep.bundle_values == (1, 3, 2)

    def test_serialization_round_trip(self):
        rng = random.Random(36)
        for _ in range(10):
            inst = seeded_instance("general", 3, 5, rng.randrange(2**32))
            alloc = random_partial_allocation(inst, rng)
            # Unsorted and repeated divisors, as ``verify --d 3 --d 2`` passes.
            for divisors in ([2, 3], [3, 2], [2, 2]):
                rep = report(inst, alloc, {d: thresholds(inst, d) for d in divisors})
                assert read_report(write_report(rep)) == rep

    @pytest.mark.parametrize(
        "line",
        ["mms foo", "mms d=x ok=true witness=none", "thresholds d", "values 1/0"],
    )
    def test_malformed_report_is_parse_error(self, line):
        text = write_report(report(EX51, EX51_ALLOC, {3: thresholds(EX51, 3)})) + line + "\n"
        with pytest.raises(ParseError):
            read_report(text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("efx false", "efx banana"),
            ("ok=true", "ok=yes"),
            ("complete true", "complete true\ncolour blue"),
            ("efx false", "efx false\nefx true"),
            ("efx_witness 0 1 0", "efx_witness 1 0"),
            ("ef1_witness 0 1", "ef1_witness 1 0 4 5"),
        ],
    )
    def test_report_the_writer_cannot_write_is_parse_error(self, old, new):
        """Booleans other than true and false, unknown and repeated lines,
        and witnesses of the wrong length are refused, not read leniently."""
        text = write_report(report(EX51, EX51_ALLOC, {3: thresholds(EX51, 3)}))
        assert old in text
        with pytest.raises(ParseError):
            read_report(text.replace(old, new, 1))

    def test_mms_verdicts_follow_the_thresholds_handed_over(self):
        """``report`` checks each divisor against the thresholds it is given,
        not against shares it computes: EX51's bundles (1, 3, 2) meet its
        1-out-of-3 shares (1, 1, 2), but not (2, 1, 5/2), where agent 0
        falls 1 short and agent 2 only 1/2.  Verdicts come in ascending
        order of divisor, whatever the map's order."""
        taus = (Fraction(2), Fraction(1), Fraction(5, 2))
        rep = report(EX51, EX51_ALLOC, {3: taus, 2: thresholds(EX51, 2)})
        assert [v.divisor for v in rep.mms] == [2, 3]
        assert rep.mms[1] == MmsVerdict(divisor=3, ok=False, thresholds=taus, witness=(0, 1))
        assert thresholds(EX51, 3) == (1, 1, 2)
        assert report(EX51, EX51_ALLOC, {3: thresholds(EX51, 3)}).mms_ok(3)

    def test_verifier_does_not_import_the_share_solver(self):
        assert not hasattr(verification, "shares")

    def test_efx_report_implies_ef1_report(self):
        rng = random.Random(37)
        for _ in range(40):
            inst = seeded_instance("general", 2, 5, rng.randrange(2**32))
            alloc = random_partial_allocation(inst, rng)
            rep = report(inst, alloc, {})
            if rep.efx:
                assert rep.ef1

    def test_matches_reference_on_random_allocations(self):
        """One worth matrix per report gives the verdicts, witnesses and
        values of the public checkers run one by one, on partial and
        complete allocations, rational rows and copies of agent 0.  Both sides
        of the EFX => EF1 shortcut run, and EF1 fails too."""
        rng = random.Random(2611)
        seen = {"efx": 0, "ef1 only": 0, "neither": 0}
        for t in range(300):
            inst = rational_rows_instance(rng, rng.randint(1, 6), rng.randint(1, 9))
            if t % 4 == 0:
                inst = pad_agents_to_multiple_of_three(inst)
            alloc = random_partial_allocation(inst, rng)
            if t % 2:
                goods = sorted(alloc.pool)
                alloc = make_allocation(
                    [set(b) | {g for g in goods if g % inst.n == i} for i, b in enumerate(alloc.bundles)]
                )
            taus = {
                2: thresholds(inst, 2),
                3: tuple(Fraction(rng.randint(0, 60), rng.randint(1, 12)) for _ in inst.agents),
            }
            rep = report(inst, alloc, taus)
            assert rep == reference_report(inst, alloc, taus), (inst, alloc)
            seen["efx" if rep.efx else "ef1 only" if rep.ef1 else "neither"] += 1
        assert min(seen.values()) >= 10, seen
