import random
from fractions import Fraction

import pytest

from ordfair import (
    Allocation,
    Instance,
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
from ordfair.errors import InvalidInstanceError, ParseError, PreconditionError

from helpers import (
    EX51,
    EX51_WITNESSES,
    make_allocation,
    naive_is_ef1,
    naive_is_efx,
    naive_strong_envy,
    random_partial_allocation,
    rational_rows_instance,
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

    def test_dummy_agents_excluded(self):
        grown = pad_agents_to_multiple_of_three(
            Instance.from_rows([[4, 4, 4, 4], [4, 4, 4, 4]])
        )
        taus = thresholds(grown, 2)
        alloc = make_allocation([[0, 1], [2, 3], []], [])
        assert is_ordinal_mms(grown, alloc, 2, taus)[0]

    def test_worst_gap_wins_lowest_index_on_ties(self):
        """Several agents below threshold: the largest gap is the witness,
        the lowest index among equal gaps, and an agent exactly at its
        threshold is not below it.  The dummy agent's larger gap is skipped."""
        inst = Instance.from_rows(
            [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 3, 0, 0], [0, 0, 0, 4, 0], [0, 0, 0, 4, 0]],
            dummy_agents=[(4, 3)],
        )
        alloc = make_allocation([[0], [1], [2], [3], []], [4])
        taus = tuple(map(Fraction, (2, 5, 6, 4, 99)))
        assert is_ordinal_mms(inst, alloc, 2, taus) == (False, (1, 3))
        assert report(inst, alloc, [2], {2: taus}).mms[0].witness == (1, 3)
        met = (Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(99))
        assert is_ordinal_mms(inst, alloc, 2, met) == (True, None)

    def test_threshold_count_checked(self):
        with pytest.raises(PreconditionError):
            is_ordinal_mms(EX51, EX51_ALLOC, 3, (Fraction(1),))


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
        rep = report(EX51, EX51_ALLOC, [3])
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
                rep = report(inst, alloc, divisors)
                assert read_report(write_report(rep)) == rep

    @pytest.mark.parametrize(
        "line",
        ["mms foo", "mms d=x ok=true witness=none", "thresholds d", "values 1/0"],
    )
    def test_malformed_report_is_parse_error(self, line):
        text = write_report(report(EX51, EX51_ALLOC, [3])) + line + "\n"
        with pytest.raises(ParseError):
            read_report(text)

    def test_efx_report_implies_ef1_report(self):
        rng = random.Random(37)
        for _ in range(40):
            inst = seeded_instance("general", 2, 5, rng.randrange(2**32))
            alloc = random_partial_allocation(inst, rng)
            rep = report(inst, alloc)
            if rep.efx:
                assert rep.ef1

    def test_matches_reference_on_random_allocations(self):
        """One worth matrix per report gives the verdicts, witnesses and
        values of the public checkers run one by one, on partial and
        complete allocations, rational rows and dummy agents.  Both sides
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
            rep = report(inst, alloc, [2, 3], {3: taus[3]})
            assert rep == reference_report(inst, alloc, taus), (inst, alloc)
            seen["efx" if rep.efx else "ef1 only" if rep.ef1 else "neither"] += 1
        assert min(seen.values()) >= 10, seen
