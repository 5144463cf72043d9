import random
from fractions import Fraction

import pytest

from ordfair import (
    GeneratorConfig,
    Instance,
    detect_structure,
    generate,
    is_efx,
    mms_bruteforce,
    pad_agents_to_multiple_of_three,
    pad_goods,
    read_allocation,
    read_instance,
    strip_dummies,
    top_k_set,
    write_allocation,
    write_instance,
)
from ordfair.errors import (
    InvalidConfigError,
    InvalidInstanceError,
    ParseError,
    PreconditionError,
)
from ordfair.model import check_allocation

from helpers import (
    EX51,
    I_A,
    I_B,
    make_allocation,
    random_partial_allocation,
    ref_detect_structure,
    ref_top_k_set,
    seeded_instance,
)


class TestInstanceValidation:
    def test_rejects_ragged_matrix(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_rows([[1, 2], [1]])

    def test_rejects_negative_values(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_rows([[1, -1]])

    def test_rejects_floats(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_rows([[0.5, 1]])

    def test_rejects_nonzero_dummy_good(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_rows([[1, 2]], dummy_goods=[1])

    def test_rejects_dummy_agent_row_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_rows([[1, 2], [2, 1]], dummy_agents=[(1, 0)])

    @pytest.mark.parametrize("label", ["x y", "", "x\ty", "\u2028", 1])
    def test_rejects_labels_the_text_format_cannot_carry(self, label):
        """``write_instance`` joins labels with spaces, so ``read_instance``
        could not read any of these back."""
        bad_label = "not a non-empty string without whitespace"
        with pytest.raises(InvalidInstanceError, match=bad_label):
            Instance.from_rows([[1, 2], [2, 1]], good_labels=(label, "z"))
        with pytest.raises(InvalidInstanceError, match=bad_label):
            Instance.from_rows([[1, 2], [2, 1]], agent_labels=("a", label))

    def test_allocation_overlap_detected(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        with pytest.raises(InvalidInstanceError):
            check_allocation(inst, make_allocation([[0], [0]], [1]))

    def test_fraction_entries_accepted(self):
        inst = Instance.from_rows([["1/3", Fraction(2, 5)]])
        assert inst.values[0][0] == Fraction(1, 3)


class TestDetectStructure:
    def test_i_a_is_ordered_identity(self):
        assert detect_structure(I_A) == (0, 1, 2, 3, 4)

    def test_ex51_ordered_with_big_good_first(self):
        order = detect_structure(EX51)
        assert order is not None
        assert order[0] == 3

    def test_i_b_unordered_but_top_2(self):
        assert detect_structure(I_B) is None
        assert top_k_set(I_B, 2) == frozenset({0, 1})
        assert top_k_set(I_B, 3) is None

    def test_top_k_max_is_every_good(self):
        # Every good is weakly above each agent's smallest value, so the set
        # of all goods is always a common top-m set.
        rng = random.Random(303)
        for t in range(150):
            family = ("general", "ordered", "top_n")[t % 3]
            n = rng.randint(1, 6)
            m = rng.randint(n, 14)
            inst = seeded_instance(family, n, m, t, max_value=rng.choice([1, 3, 20]))
            assert top_k_set(inst, m) == frozenset(range(m))

    def test_disagreeing_top_sets_rejected(self):
        inst = Instance.from_rows([[5, 4, 2, 1], [4, 1, 5, 2]])
        assert top_k_set(inst, 2) is None

    def test_boundary_ties_resolved_optimistically(self):
        # Agent 0's 2nd/3rd goods tie; the common set {0,1} is still valid.
        inst = Instance.from_rows([[5, 3, 3], [4, 5, 1]])
        assert top_k_set(inst, 2) == frozenset({0, 1})

    def test_structure_scans_match_references(self):
        # Ordered instances with their goods shuffled, rows scaled by
        # rationals, top-n and general ones, small value ranges for ties.
        rng = random.Random(1606)
        found = {"ordered": 0, "unordered": 0, "top_k": 0, "no_top_k": 0}
        for t in range(300):
            family = ("general", "ordered", "top_n")[t % 3]
            n = rng.randint(1, 6)
            m = rng.randint(n, 14)
            inst = seeded_instance(family, n, m, rng.randrange(2**32), rng.choice([1, 2, 4, 20]))
            order = list(inst.goods)
            rng.shuffle(order)
            scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in inst.agents]
            inst = inst.permute_goods(order).with_values(
                [[v / c for v in row] for row, c in zip(inst.values, scales)]
            )
            common = detect_structure(inst)
            assert common == ref_detect_structure(inst)
            found["ordered" if common else "unordered"] += 1
            for k in range(m + 2):
                top = top_k_set(inst, k)
                assert top == ref_top_k_set(inst, k)
                found["top_k" if top else "no_top_k"] += 1
        assert min(found.values()) > 50, found

    def test_ordered_implies_top_k_for_all_k(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = seeded_instance("ordered", rng.randrange(1, 5), rng.randrange(1, 9), rng.randrange(2**32))
            assert detect_structure(inst) is not None
            for k in range(1, inst.m + 1):
                assert top_k_set(inst, k) is not None


class TestPadding:
    def test_pad_goods_appends_zero_dummies(self):
        inst = seeded_instance("general", 3, 4, 5)
        padded = pad_goods(inst, 6)
        assert padded.m == 6
        assert padded.dummy_goods == frozenset({4, 5})
        for i in padded.agents:
            assert padded.values[i][4] == 0 and padded.values[i][5] == 0
            assert padded.values[i][:4] == inst.values[i]

    def test_pad_goods_identity_when_target_met(self):
        inst = seeded_instance("general", 2, 5, 5)
        assert pad_goods(inst, 5) is inst

    def test_pad_goods_rejects_shrinking(self):
        with pytest.raises(PreconditionError):
            pad_goods(I_A, 3)

    def test_pad_then_strip_is_identity(self):
        inst = seeded_instance("general", 2, 4, 17)
        padded = pad_goods(inst, 8)
        alloc = make_allocation([[], []], range(8))
        back, alloc_back = strip_dummies(padded, alloc)
        assert back == inst
        assert alloc_back.pool == frozenset(range(4))

    def test_padding_preserves_shares(self):
        rng = random.Random(3)
        for _ in range(10):
            inst = seeded_instance("general", 2, rng.randrange(2, 7), rng.randrange(2**32), 9)
            padded = pad_goods(inst, inst.m + 2)
            d = rng.randrange(1, 5)
            for i in inst.agents:
                assert (
                    mms_bruteforce(inst, i, d).value
                    == mms_bruteforce(padded, i, d).value
                )

    def test_pad_agents_identity_on_multiple_of_three(self):
        inst = seeded_instance("general", 3, 4, 5)
        assert pad_agents_to_multiple_of_three(inst) is inst

    def test_pad_agents_copies_agent_zero(self):
        inst = seeded_instance("general", 4, 4, 5)
        grown = pad_agents_to_multiple_of_three(inst)
        assert grown.n == 6
        assert grown.dummy_agents == ((4, 0), (5, 0))
        assert grown.values[4] == inst.values[0]
        assert grown.values[5] == inst.values[0]
        # 4*ceil(n/3) on the original equals 4*(n'/3) on the padded instance
        assert 4 * ((inst.n + 2) // 3) == 4 * (grown.n // 3)


class TestStripDummies:
    def test_no_dummies_is_identity(self):
        inst = seeded_instance("general", 2, 3, 9)
        alloc = make_allocation([[0], [1]], [2])
        back, alloc_back = strip_dummies(inst, alloc)
        assert back == inst and alloc_back == alloc

    def test_dummy_agent_bundle_released_to_pool(self):
        grown = pad_agents_to_multiple_of_three(seeded_instance("general", 2, 4, 9))
        alloc = make_allocation([[0], [1], [3]], [2])
        stripped, alloc_back = strip_dummies(grown, alloc)
        assert stripped.n == 2
        assert alloc_back.pool == frozenset({2, 3})

    def test_efx_never_lost_by_dropping_zero_dummy_goods(self):
        # Literal EFX quantifies over zero-valued removals too, so deleting a
        # dummy good can only relax the condition: EFX before implies EFX
        # after, and any strong envy surviving the strip existed before.
        rng = random.Random(21)
        flips = 0
        for _ in range(60):
            inst = seeded_instance("general", 3, rng.randrange(2, 6), rng.randrange(2**32))
            padded = pad_goods(inst, inst.m + 2)
            alloc = random_partial_allocation(padded, rng)
            stripped_inst, stripped_alloc = strip_dummies(padded, alloc)
            before = is_efx(padded, alloc)[0]
            after = is_efx(stripped_inst, stripped_alloc)[0]
            if before:
                assert after
            if before != after:
                flips += 1
        assert flips > 0  # the relaxation is real, not vacuous


class TestGenerate:
    def test_deterministic(self):
        cfg = GeneratorConfig("general", 3, 8, 20, 424242)
        assert write_instance(generate(cfg)) == write_instance(generate(cfg))

    def test_ordered_family_is_ordered_thousand_seeds(self):
        rng = random.Random(1)
        for _ in range(1000):
            inst = seeded_instance("ordered", rng.randrange(1, 6), rng.randrange(1, 13), rng.randrange(2**32))
            assert detect_structure(inst) is not None

    def test_top_n_family_is_top_n(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randrange(1, 5)
            inst = seeded_instance("top_n", n, rng.randrange(n, 12), rng.randrange(2**32))
            assert top_k_set(inst, n) is not None

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            GeneratorConfig("general", 0, 3, 20, 1)
        with pytest.raises(InvalidConfigError):
            GeneratorConfig("general", 1, 0, 20, 1)
        with pytest.raises(InvalidConfigError):
            GeneratorConfig("general", 1, 3, 0, 1)
        with pytest.raises(InvalidConfigError):
            GeneratorConfig("nope", 1, 3, 20, 1)
        with pytest.raises(InvalidConfigError):
            GeneratorConfig("top_n", 5, 3, 20, 1)


class TestFileFormats:
    def test_instance_round_trip(self):
        rng = random.Random(8)
        for _ in range(10):
            inst = seeded_instance("general", rng.randrange(1, 5), rng.randrange(1, 7), rng.randrange(2**32))
            inst = pad_goods(inst, inst.m + 1)
            inst = pad_agents_to_multiple_of_three(inst)
            assert read_instance(write_instance(inst)) == inst

    def test_instance_round_trip_with_fractions(self):
        inst = Instance.from_rows([["1/3", "2/3"], ["7/2", 0]])
        assert read_instance(write_instance(inst)) == inst

    def test_allocation_round_trip(self):
        alloc = make_allocation([[0, 2], [], [5]], [1, 3])
        assert read_allocation(write_allocation(alloc)) == alloc

    @pytest.mark.parametrize(
        "text",
        [
            "n x\nm 1\nvaluations\n1\n",
            "n 1\nm 1.5\nvaluations\n1\n",
            "n 1\nm 2\nvaluations\n1 0\ndummy_goods z\n",
            "n 2\nm 1\nvaluations\n1\n1\ndummy_agents 1:q\n",
        ],
    )
    def test_malformed_instance_integer_is_parse_error(self, text):
        with pytest.raises(ParseError):
            read_instance(text)

    @pytest.mark.parametrize(
        "text",
        [
            "agents two\nbundles\n",
            "agents 1\nbundles\n0: a\n",
            "agents 1\nbundles\n0:\npool 1 ?\n",
        ],
    )
    def test_malformed_allocation_integer_is_parse_error(self, text):
        with pytest.raises(ParseError):
            read_allocation(text)

    @pytest.mark.parametrize(
        "text",
        [
            "agents 1\nbundles\n0: 1 1\npool\n",
            "agents 2\nbundles\n0: 0\n1: 2 3 2\npool 1\n",
            "agents 1\nbundles\n0: 0\npool 1 2 1\n",
        ],
    )
    def test_good_listed_twice_on_one_line_is_parse_error(self, text):
        """A frozenset drops the repeat, so check_allocation could not see it."""
        with pytest.raises(ParseError, match="listed twice"):
            read_allocation(text)

    def test_permute_goods_round_trip(self):
        inst = seeded_instance("general", 2, 5, 77)
        order = (3, 0, 4, 1, 2)
        back = inst.permute_goods(order).permute_goods(
            tuple(sorted(range(5), key=lambda p: order[p]))
        )
        assert back.values == inst.values
