import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from ordfair.model import (
    MAX_AGENTS,
    MAX_VALUE,
    MAX_VALUES,
    _den,
    _fraction,
    _num,
    check_allocation,
)

from helpers import (
    EX51,
    I_A,
    I_B,
    LARGE_PRIMES,
    make_allocation,
    permuted,
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
        """The sign is read from each Fraction's numerator, after its type:
        a negative value that is not a Fraction is refused as non-rational."""
        with pytest.raises(InvalidInstanceError, match="negative valuation -1$"):
            Instance.from_rows([[1, -1]])
        with pytest.raises(InvalidInstanceError, match="negative valuation -1/3$"):
            Instance(((Fraction(0), Fraction(-2, 6)),))
        with pytest.raises(InvalidInstanceError, match="non-rational valuation -1$"):
            Instance(((Fraction(1), -1),))

    def test_rejects_floats(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_rows([[0.5, 1]])

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


class TestBundleValues:
    INST = Instance.from_rows([[3, 2, 1], [3, 2, 1]])

    @pytest.mark.parametrize(
        "agent, goods, message",
        [
            (0, [-1, 0], "good -1 out of range"),
            (-1, [0], "agent -1 out of range"),
            (0, [5], "good 5 out of range"),
            (2, [0], "agent 2 out of range"),
            (1, [0, 3, -2], "good 3 out of range"),
        ],
    )
    def test_indices_out_of_range_are_refused(self, agent, goods, message):
        """A negative index would count from the end and one past the end
        would be a bare ``IndexError``."""
        for value in (self.INST.value, self.INST.int_value):
            with pytest.raises(PreconditionError, match=message):
                value(agent, goods)
            with pytest.raises(PreconditionError, match=message):
                value(agent, iter(goods))

    def test_values_in_range(self):
        inst = Instance.from_rows([[3, "1/2", 1], [3, 2, 1]])
        assert inst.value(0, iter([1, 2])) == Fraction(3, 2)
        assert inst.int_value(0, [0, 1]) == 7
        assert inst.value(1, []) == 0 and inst.int_value(1, ()) == 0

    def test_allocation_check_names_the_first_offending_good(self):
        """The one-pass check accepts what the loop accepts; on a failure
        the loop names the good, in the order of the parts."""
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
        check_allocation(inst, make_allocation([[0], []], [1, 2]))
        check_allocation(inst, make_allocation([[], []]))
        for bundles, pool, message in [
            ([[0], [0, 5]], [], "good 0 assigned twice"),
            ([[0, 5], [0]], [], "good 5 out of range"),
            ([[0], [1]], [-1, 2], "good -1 out of range"),
            ([[2], [1]], [1], "good 1 assigned twice"),
        ]:
            with pytest.raises(InvalidInstanceError, match=message):
                check_allocation(inst, make_allocation(bundles, pool))


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
            inst = permuted(inst, order).with_values(
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

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 9), data=st.data())
    def test_top_k_set_matches_reference(self, n, m, data):
        # Each row is free, sorted, or split after a shared point into goods
        # valued 2-3 and goods valued 0-2, so common top sets, ties across
        # their boundary and disagreements all occur.  Then the goods are
        # permuted and each row is scaled by its own rational.
        split = data.draw(st.integers(0, m))
        free = st.lists(st.integers(0, 3), min_size=m, max_size=m)
        rows = []
        for _ in range(n):
            shape = data.draw(st.sampled_from(("free", "sorted", "split")))
            if shape == "split":
                top = data.draw(st.lists(st.integers(2, 3), min_size=split, max_size=split))
                rest = data.draw(
                    st.lists(st.integers(0, 2), min_size=m - split, max_size=m - split)
                )
                row = top + rest
            else:
                row = data.draw(free)
                if shape == "sorted":
                    row.sort(reverse=True)
            rows.append(row)
        goods = data.draw(st.permutations(range(m)))
        scales = data.draw(
            st.lists(
                st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
                min_size=n,
                max_size=n,
            )
        )
        inst = Instance.from_rows([[row[g] * c for g in goods] for row, c in zip(rows, scales)])
        for k in range(m + 2):
            assert top_k_set(inst, k) == ref_top_k_set(inst, k), k

    def test_structure_is_derived_once(self):
        """An instance's common order and top-n set are derived on first use
        and cached: later calls return the very same object, equal to the
        reference's.  Other k are not cached and still match theirs."""
        rng = random.Random(5111)
        cases = [I_A, I_B, EX51]
        for t in range(30):
            family = ("ordered", "top_n", "general")[t % 3]
            n = rng.randint(1, 6)
            cases.append(seeded_instance(family, n, rng.randint(n, 12), t, max_value=3))
        ordered = top_n = 0
        for case in cases:
            inst = Instance(case.values)
            assert {"common_order", "top_n_set"}.isdisjoint(vars(inst))
            order = detect_structure(inst)
            assert detect_structure(inst) is order
            assert order == ref_detect_structure(inst)
            top = top_k_set(inst, inst.n)
            assert top_k_set(inst, inst.n) is top
            assert top == ref_top_k_set(inst, inst.n)
            for k in range(inst.m + 2):
                assert top_k_set(inst, k) == ref_top_k_set(inst, k)
            ordered += order is not None
            top_n += top is not None
        assert ordered > 10 and top_n > 20

    def test_ordered_implies_top_k_for_all_k(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = seeded_instance("ordered", rng.randrange(1, 5), rng.randrange(1, 9), rng.randrange(2**32))
            assert detect_structure(inst) is not None
            for k in range(1, inst.m + 1):
                assert top_k_set(inst, k) is not None


# Zero, ones, pairs with common factors and large coprime pairs: products
# of 20-digit primes over another, so the reduced pair stays that large.
_P = LARGE_PRIMES


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
@example(0, 1)
@example(0, 7)
@example(0, _P[0] * _P[1])
@example(1, 1)
@example(12, 8)
@example(-6, 4)
@example(_P[0] * _P[1], _P[2])
@example(_P[3], _P[4] * _P[5])
@example(_P[0] * _P[2] * 6, _P[2] * 4)
def test_fraction_from_an_integer_pair_is_fraction(num, den):
    """``_fraction`` builds what ``Fraction(num, den)`` builds: the same
    type, value, hash and text, and the reduced pair in the slots that
    ``_num`` and ``_den`` read.  It writes those slots itself, so the tier-1
    matrix holds it to each Python version's ``Fraction``."""
    got, want = _fraction(num, den), Fraction(num, den)
    assert type(got) is Fraction
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want) and str(got) == str(want)
    assert (_num(got), _den(got)) == (want.numerator, want.denominator)
    assert got + 1 == want + 1 and got * den == num


class TestPadding:
    def test_pad_goods_appends_zero_dummies(self):
        inst = seeded_instance("general", 3, 4, 5)
        padded = pad_goods(inst, 6)
        assert padded.m == 6
        assert padded.good_labels == ("g0", "g1", "g2", "g3", "g4", "g5")
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
        back, alloc_back = strip_dummies(padded, alloc, 2, 4)
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
        assert grown.agent_labels == ("a0", "a1", "a2", "a3", "a4", "a5")
        assert grown.values[4] == inst.values[0]
        assert grown.values[5] == inst.values[0]
        # 4*ceil(n/3) on the original equals 4*(n'/3) on the padded instance
        assert 4 * ((inst.n + 2) // 3) == 4 * (grown.n // 3)


class TestStripDummies:
    def test_no_dummies_is_identity(self):
        inst = seeded_instance("general", 2, 3, 9)
        alloc = make_allocation([[0], [1]], [2])
        back, alloc_back = strip_dummies(inst, alloc, inst.n, inst.m)
        assert back == inst and alloc_back == alloc

    def test_dummy_agent_bundle_released_to_pool(self):
        grown = pad_agents_to_multiple_of_three(seeded_instance("general", 2, 4, 9))
        padded = pad_goods(grown, 6)
        alloc = make_allocation([[0], [1], [3, 5]], [2, 4])
        stripped, alloc_back = strip_dummies(padded, alloc, 2, 4)
        assert stripped.n == 2 and stripped.m == 4
        assert alloc_back == make_allocation([[0], [1]], [2, 3])

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
            stripped_inst, stripped_alloc = strip_dummies(padded, alloc, inst.n, inst.m)
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

    def test_size_limits(self):
        """The generators take what the file reader takes: at most
        ``MAX_AGENTS`` agents and ``MAX_VALUES`` values.  They draw values
        up to ``MAX_VALUE``, which admits the 10**6 that checks elsewhere
        use."""
        GeneratorConfig("general", MAX_AGENTS, MAX_VALUES // MAX_AGENTS, 20, 1)
        GeneratorConfig("general", 1, MAX_VALUES, 20, 1)
        for n, m in ((MAX_AGENTS + 1, 1), (10**9, 3), (2, MAX_VALUES // 2 + 1)):
            with pytest.raises(InvalidConfigError, match="may have at most"):
                GeneratorConfig("general", n, m, 20, 1)
        assert 10**6 <= MAX_VALUE
        GeneratorConfig("general", 2, 3, MAX_VALUE, 1)
        for max_value in (MAX_VALUE + 1, int("9" * 4000)):
            with pytest.raises(InvalidConfigError, match=f"max_value must be at most {MAX_VALUE}$"):
                GeneratorConfig("general", 2, 3, max_value, 1)


class TestFileFormats:
    def test_instance_round_trip(self):
        rng = random.Random(8)
        for _ in range(10):
            inst = seeded_instance("general", rng.randrange(1, 5), rng.randrange(1, 7), rng.randrange(2**32))
            inst = pad_goods(inst, inst.m + 1)
            inst = pad_agents_to_multiple_of_three(inst)
            assert read_instance(write_instance(inst)) == inst
        # With no goods each valuation row is written as a blank line.
        for inst in (
            Instance.from_rows([[]]),
            Instance.from_rows([[], [], []], agent_labels=("x", "y", "z")),
        ):
            assert inst.m == 0
            assert read_instance(write_instance(inst)) == inst

    @pytest.mark.parametrize("line", ["dummy_goods 1", "dummy_agents 1:0"])
    def test_dummy_flag_lines_are_rejected(self, line):
        """The format has no dummy flags: a file with such a line is an
        error wherever the line sits, never read as if it were absent.  In
        the valuation matrix it is a bad row; elsewhere an unknown field."""
        inst = Instance.from_rows([[1, 0], [1, 0]], agent_labels=("x", "y"))
        lines = write_instance(inst).splitlines()
        matrix = range(3, 3 + inst.n)
        for k in range(len(lines) + 1):
            text = "\n".join(lines[:k] + [line] + lines[k:]) + "\n"
            field = None if k in matrix else f"unknown instance field {line.split()[0]!r}"
            with pytest.raises(ParseError, match=field):
                read_instance(text)

    def test_instance_round_trip_with_fractions(self):
        inst = Instance.from_rows([["1/3", "2/3"], ["7/2", 0]])
        assert read_instance(write_instance(inst)) == inst

    @pytest.mark.parametrize("token", ["1e5000", "1E5", "2.5e-3", "1.e2", "7e0"])
    def test_exponent_literals_are_parse_errors(self, token):
        """``Fraction`` expands an exponent in full, so a short literal could
        stand for a number too long to print or to parse in time."""
        with pytest.raises(ParseError, match="exponent"):
            read_instance(f"n 1\nm 2\nvaluations\n{token} 1\n")
        with pytest.raises(ParseError, match="exponent"):
            Instance.from_rows([[token, 1]])

    def test_literals_without_exponent_keep_their_values(self):
        long = "7" * 4000
        for token in ("12", "+3", "1_000", ".5", "2.", "0.25", "3/4", f"{long}/{long}1"):
            assert Instance.from_rows([[token]]).values[0][0] == Fraction(token)

    def test_literal_past_the_digit_limit_is_a_short_parse_error(self):
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if not 0 < limit < 5000:
            pytest.skip("needs an int digit limit below 5000")
        digits = "1" * 5000
        for text in (
            f"n 1\nm 1\nvaluations\n{digits}\n",
            f"n 1\nm 1\nvaluations\n1/{digits}\n",
            f"n {digits}\nm 1\nvaluations\n1\n",
        ):
            with pytest.raises(ParseError, match=f"{limit}-digit limit") as caught:
                read_instance(text)
            assert len(str(caught.value)) < 100
        with pytest.raises(ParseError, match=f"{limit}-digit limit") as caught:
            read_allocation(f"agents 1\nbundles\n0: {digits}\npool\n")
        assert len(str(caught.value)) < 100

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

    def test_header_past_the_size_limits_is_parse_error(self):
        """n and m are checked before any row is built: a no-goods file
        states n in its header alone, and ``n 3000000`` once ran out of
        memory in the solve that followed."""
        assert read_instance(f"n {MAX_AGENTS}\nm 0\nvaluations\n").n == MAX_AGENTS
        for n, m in ((MAX_AGENTS + 1, 0), (3_000_000, 0), (1, MAX_VALUES + 1), (2, 10**40)):
            with pytest.raises(ParseError, match="may have at most"):
                read_instance(f"n {n}\nm {m}\nvaluations\n")

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
