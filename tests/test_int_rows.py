"""Per-agent integer rows (``Instance.int_rows``) and the code that compares
on them.

The benchmark's instances all have integer values, so they never exercise
the scaling; these tests use rational rows with mixed denominators and check
the integer code against the Fraction references in ``helpers``.  The
allocators compare on the same rows, with each threshold mapped to the
agent's integer level (``Instance.level``); the last tests pin that mapping
at thresholds between two levels and under per-agent row scaling.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordfair import (
    Instance,
    alloc_ordered_ef1_4n3,
    alloc_ordered_efx_3n2,
    alloc_topn_lone_divider,
    detect_structure,
    envy_cycle_elimination,
    is_ef1,
    is_efx,
    normalize_order_preserving,
    normalize_scale,
    pad_agents_to_multiple_of_three,
    pad_goods,
    strip_dummies,
    strongly_envies,
    thresholds,
    top_k_set,
)
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.errors import InvalidInstanceError, PreconditionError
from ordfair.model import is_identity_ordered
from ordfair.verification import _worth

from helpers import (
    I_A,
    frac_common_order,
    frac_envy_cycle_elimination,
    frac_is_ef1,
    frac_is_efx,
    frac_strongly_envies,
    make_allocation,
    positive_ordered_instance,
    random_partial_allocation,
    rational_rows_instance,
    ref_detect_structure,
    seeded_instance,
)

# Values with small, mixed denominators, and zeros.
values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=50, max_denominator=36),
)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n))
    return Instance.from_rows(rows)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_int_rows_scale_each_row_by_a_positive_constant(inst):
    assert len(inst.int_rows) == inst.n
    for row, (ints, denom) in zip(inst.values, inst.int_rows):
        assert type(denom) is int and denom > 0
        assert all(type(x) is int for x in ints)
        assert list(ints) == [v * denom for v in row]


@settings(max_examples=100, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_verifiers_match_fraction_reference(inst, rng):
    alloc = random_partial_allocation(inst, rng)
    assert is_efx(inst, alloc) == frac_is_efx(inst, alloc)
    assert is_ef1(inst, alloc) == frac_is_ef1(inst, alloc)
    for i in inst.agents:
        for j in inst.agents:
            if i != j:
                assert strongly_envies(inst, alloc, i, j) == frac_strongly_envies(
                    inst, alloc, i, j
                )


@settings(max_examples=100, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_allocations_of_lone_goods_are_efx_and_ef1(inst, rng):
    # The verifiers skip bundles of one good: dropping it leaves 0.
    goods = list(inst.goods)
    rng.shuffle(goods)
    k = rng.randint(0, min(inst.n, inst.m))
    alloc = make_allocation([[g] for g in goods[:k]] + [[]] * (inst.n - k), goods[k:])
    assert is_efx(inst, alloc) == frac_is_efx(inst, alloc) == (True, None)
    assert is_ef1(inst, alloc) == frac_is_ef1(inst, alloc) == (True, None)


@st.composite
def flagged_allocations(draw):
    """A flagged instance (rational rows, pre-flagged dummy goods and agents),
    then padded with ``pad_goods``, and a partial allocation of it."""
    inst = draw(flagged_instances())
    inst = pad_goods(inst, inst.m + draw(st.integers(0, 3)))
    slots = draw(st.lists(st.integers(0, inst.n), min_size=inst.m, max_size=inst.m))
    bundles = [[g for g, s in enumerate(slots) if s == i] for i in inst.agents]
    return inst, make_allocation(bundles, [g for g, s in enumerate(slots) if s == inst.n])


# Every shape at once: rational rows, a pre-flagged dummy good and agent, a
# padding good, an empty bundle and a non-empty pool.
_ALL_SHAPES = pad_goods(
    Instance.from_rows(
        [["1/2", "2/3", 0, 1], ["1/3", 1, 0, "5/6"], ["1/2", "2/3", 0, 1]],
        dummy_goods=[2],
        dummy_agents=[(2, 0)],
    ),
    5,
)


@settings(max_examples=150, deadline=None)
@given(flagged_allocations())
@example((_ALL_SHAPES, make_allocation([[0], [], [3]], [1, 2, 4])))
def test_worth_matches_per_pair_sums(case):
    """The one-pass worth matrix equals each agent's sum over each bundle,
    including empty bundles; pool goods are in no column."""
    inst, alloc = case
    assert _worth(inst, alloc) == [
        [inst.int_value(i, b) for b in alloc.bundles] for i in inst.agents
    ]


# --- derived instances carry int_rows -------------------------------------


@st.composite
def flagged_instances(draw):
    """Rational rows with pre-flagged dummies: zero columns flagged as dummy
    goods at random positions, and copies of real rows flagged as dummy
    agents (agent 0 real or not), with default or custom labels."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        col = draw(st.integers(0, len(rows[0])))
        for row in rows:
            row.insert(col, None)  # marks a dummy good until the agents are final
    sources = draw(st.lists(st.integers(0, n - 1), max_size=3))
    rows += [list(rows[src]) for src in sources]
    order = draw(st.permutations(range(len(rows))))
    dummy_agents = [
        (order.index(n + k), order.index(src)) for k, src in enumerate(sources)
    ]
    rows = [rows[a] for a in order]
    dummy_goods = [g for g, v in enumerate(rows[0]) if v is None]
    rows = [[Fraction(0) if v is None else v for v in row] for row in rows]
    if not rows[0]:
        rows = [[Fraction(0)] for _ in rows]
    labels = {}
    if draw(st.booleans()):
        labels = {
            "agent_labels": [f"x{i}" for i in range(len(rows))],
            "good_labels": [f"y{g}" for g in range(len(rows[0]))],
        }
    return Instance.from_rows(rows, dummy_goods=dummy_goods, dummy_agents=dummy_agents, **labels)


def _fresh(values, agent_labels, good_labels, dummy_goods=(), dummy_agents=()):
    return Instance(
        values=tuple(tuple(row) for row in values),
        agent_labels=tuple(agent_labels),
        good_labels=tuple(good_labels),
        dummy_goods=frozenset(dummy_goods),
        dummy_agents=tuple(dummy_agents),
    )


def _same_as_fresh(derived, expected):
    """``derived`` equals the instance built through ``Instance(...)``, its
    carried ``int_rows`` equal that instance's fresh ones, and so do those
    of an instance rebuilt from its own fields."""
    assert derived == expected
    assert "int_rows" in vars(derived)
    assert derived.int_rows == expected.int_rows
    rebuilt = _fresh(
        derived.values, derived.agent_labels, derived.good_labels,
        derived.dummy_goods, derived.dummy_agents,
    )
    assert derived.int_rows == rebuilt.int_rows


@settings(max_examples=100, deadline=None)
@given(flagged_instances(), st.randoms(use_true_random=False))
def test_derived_instances_equal_fresh_ones(inst, rng):
    order = list(inst.goods)
    rng.shuffle(order)
    inv = {old: new for new, old in enumerate(order)}
    _same_as_fresh(
        inst.permute_goods(order),
        _fresh(
            [[row[g] for g in order] for row in inst.values],
            inst.agent_labels,
            [inst.good_labels[g] for g in order],
            {inv[g] for g in inst.dummy_goods},
            inst.dummy_agents,
        ),
    )

    extra = rng.randint(1, 4)
    _same_as_fresh(
        pad_goods(inst, inst.m + extra),
        _fresh(
            [list(row) + [Fraction(0)] * extra for row in inst.values],
            inst.agent_labels,
            list(inst.good_labels) + [f"g{inst.m + j}" for j in range(extra)],
            set(inst.dummy_goods) | set(range(inst.m, inst.m + extra)),
            inst.dummy_agents,
        ),
    )

    n = inst.n
    copies = range(n, 3 * ((n + 2) // 3))
    # When agent 0 is itself a copy, the new copies name its source.
    source = dict(inst.dummy_agents).get(0, 0)

    def with_copies():
        return _fresh(
            list(inst.values) + [inst.values[0]] * len(copies),
            list(inst.agent_labels) + [f"a{a}" for a in copies],
            inst.good_labels,
            inst.dummy_goods,
            list(inst.dummy_agents) + [(a, source) for a in copies],
        )

    if copies:
        _same_as_fresh(pad_agents_to_multiple_of_three(inst), with_copies())

    alloc = random_partial_allocation(inst, rng)
    dummy_agents = dict(inst.dummy_agents)
    keep_agents = [i for i in inst.agents if i not in dummy_agents]
    keep_goods = [g for g in inst.goods if g not in inst.dummy_goods]
    stripped, _ = strip_dummies(inst, alloc)
    _same_as_fresh(
        stripped,
        _fresh(
            [[inst.values[i][g] for g in keep_goods] for i in keep_agents],
            [inst.agent_labels[i] for i in keep_agents],
            [inst.good_labels[g] for g in keep_goods],
        ),
    )


def _ref_int_row(row):
    denom = lcm(*[v.denominator for v in row])
    return tuple(v.numerator * (denom // v.denominator) for v in row), denom


def _ref_identity_ordered(inst):
    return all(row[g] >= row[g + 1] for row, _ in inst.int_rows for g in range(inst.m - 1))


# One good, where ``itemgetter`` on one index returns the item itself; and
# goods that are all dummies, so stripping leaves none.
_ONE_GOOD = Instance.from_rows([["1/2"], ["2/3"], ["1/2"]], dummy_agents=[(2, 0)])
_ALL_DUMMY = Instance.from_rows([[0, 0], [0, 0]], dummy_goods=[0, 1], dummy_agents=[(1, 0)])


@settings(max_examples=150, deadline=None)
@given(flagged_instances(), st.integers(0, 3), st.randoms(use_true_random=False))
@example(_ONE_GOOD, 0, random.Random(0))
@example(_ONE_GOOD, 2, random.Random(0))
@example(_ALL_DUMMY, 0, random.Random(0))
def test_model_transforms_match_per_element_references(inst, extra, rng):
    """The model's gathers and scans, run in ``itemgetter`` and ``map``
    calls, give what one generator step per element gives."""
    assert inst.int_rows == tuple(_ref_int_row(row) for row in inst.values)

    order = list(inst.goods)
    rng.shuffle(order)
    permuted = inst.permute_goods(order)
    assert permuted.values == tuple(tuple(row[g] for g in order) for row in inst.values)
    assert permuted.int_rows == tuple(
        (tuple(ints[g] for g in order), denom) for ints, denom in inst.int_rows
    )
    assert permuted.good_labels == tuple(inst.good_labels[g] for g in order)

    padded = pad_goods(inst, inst.m + extra)
    assert padded.values == tuple(tuple(row) + (Fraction(0),) * extra for row in inst.values)
    assert padded.int_rows == tuple((ints + (0,) * extra, d) for ints, d in inst.int_rows)

    dummy_agents = dict(inst.dummy_agents)
    keep_agents = [i for i in inst.agents if i not in dummy_agents]
    keep_goods = [g for g in padded.goods if g not in padded.dummy_goods]
    stripped, _ = strip_dummies(padded, random_partial_allocation(padded, rng))
    assert stripped.values == tuple(
        tuple(padded.values[i][g] for g in keep_goods) for i in keep_agents
    )
    assert stripped.int_rows == tuple(
        (tuple(padded.int_rows[i][0][g] for g in keep_goods), padded.int_rows[i][1])
        for i in keep_agents
    )
    assert stripped.agent_labels == tuple(padded.agent_labels[i] for i in keep_agents)
    assert stripped.good_labels == tuple(padded.good_labels[g] for g in keep_goods)

    for x in (inst, permuted, padded, stripped):
        assert detect_structure(x) == ref_detect_structure(x)
        assert is_identity_ordered(x) == _ref_identity_ordered(x)


@settings(max_examples=100, deadline=None)
@given(flagged_instances())
def test_unpadded_allocation_is_strip_dummies(inst):
    """Each allocator, on rational rows sorted to a common order, returns
    what its run on the padded copy returns with the padding removed by
    ``strip_dummies``: zero goods up to 2n and, for the 4n/3 variant, copies
    of agent 0 up to a multiple of three agents."""
    work = Instance.from_rows([sorted(row, reverse=True) for row in inst.values])
    n = work.n
    runs = [
        (alloc_ordered_efx_3n2, work, ceil_3n_over_2(n)),
        (alloc_ordered_ef1_4n3, pad_agents_to_multiple_of_three(work), 4 * ((n + 2) // 3)),
    ]
    if top_k_set(work, n) is not None:
        runs.append((alloc_topn_lone_divider, work, ceil_3n_over_2(n)))
    for allocate, grown, d in runs:
        padded = pad_goods(grown, max(grown.m, 2 * grown.n))
        alloc, _ = allocate(work, thresholds(work, d))
        want, _ = allocate(padded, thresholds(padded, d))
        assert alloc == strip_dummies(padded, want)[1]


def test_derived_instances_keep_their_error_paths():
    inst = Instance.from_rows([["1/2", 1, 0], ["1/3", 2, 0]], dummy_goods=[2])
    for order in ([0, 0, 1], [0, 1], [0, 1, 2, 3], [2, 1, 3]):
        with pytest.raises(InvalidInstanceError, match="not a permutation"):
            inst.permute_goods(order)
    with pytest.raises(PreconditionError, match="below good count"):
        pad_goods(inst, 2)
    # Agent 0 is a copy: the padding's copies name its source, agent 1.
    copied = Instance.from_rows([[1, 2], [1, 2]], dummy_agents=[(0, 1)])
    assert pad_agents_to_multiple_of_three(copied).dummy_agents == ((0, 1), (2, 1))


def _rational_instances():
    """Seeded rational instances: rows divided by random rationals, and
    the outputs of both normalizations (per-bundle divisors, so the
    denominators differ from good to good)."""
    rng = random.Random(20261)
    for t in range(60):
        n = rng.randint(2, 6)
        m = rng.randint(n, 2 * n + 3)
        family = ("general", "ordered", "top_n")[t % 3]
        yield rng, rational_rows_instance(rng, n, m, family)
    for seed in range(20):
        n = 2 + seed % 4
        base = positive_ordered_instance(n, n + 2 + seed % 5, seed)
        yield rng, normalize_scale(base, n)
        yield rng, normalize_order_preserving(base, n)


def test_rational_instances_mix_denominators():
    mixed = sum(
        len({v.denominator for v in row}) > 1
        for _, inst in _rational_instances()
        for row in inst.values
    )
    assert mixed > 100


def test_structure_matches_fraction_reference():
    for _, inst in _rational_instances():
        order, ordered = frac_common_order(inst)
        assert detect_structure(inst) == (tuple(order) if ordered else None)


def test_top_k_set_ignores_row_scaling():
    for _, inst in _rational_instances():
        scaled = inst.with_values(
            [[v * Fraction(7 + r, 3) for v in row] for r, row in enumerate(inst.values)]
        )
        for k in range(1, inst.m + 1):
            assert top_k_set(inst, k) == top_k_set(scaled, k)


def _ef1_start(inst, rng):
    start = random_partial_allocation(inst, rng)
    if frac_is_ef1(inst, start)[0]:
        return start
    goods = list(inst.goods)
    rng.shuffle(goods)
    return make_allocation([[g] for g in goods[: inst.n]], goods[inst.n:])


def _efx_start(inst, rng, order):
    """A prefix of the common order split among the agents: EFX when the
    split is (checked against the reference), else one good each."""
    k = rng.randint(0, inst.m)
    bundles = [set() for _ in inst.agents]
    for g in order[:k]:
        bundles[rng.randrange(inst.n)].add(g)
    start = make_allocation(bundles, order[k:])
    if frac_is_efx(inst, start)[0]:
        return start
    k = min(k, inst.n)
    return make_allocation([[g] for g in order[:k]] + [[]] * (inst.n - k), order[k:])


def test_completion_matches_fraction_reference():
    runs = rotations = 0
    for rng, inst in _rational_instances():
        starts = [_ef1_start(inst, rng) for _ in range(3)]
        order, ordered = frac_common_order(inst)
        if ordered:
            starts += [_efx_start(inst, rng, order) for _ in range(3)]
        for start in starts:
            final, trace = envy_cycle_elimination(inst, start)
            ref_final, ref_text = frac_envy_cycle_elimination(inst, start)
            assert final == ref_final, (inst, start)
            assert trace.to_text() == ref_text
            runs += 1
            rotations += sum(ev.kind == "cycle_rotation" for ev in trace.events)
    # The sweep must reach the rotation path, not only gifts.
    assert runs > 300 and rotations > 20


def _benchmark_shaped_starts():
    """EF1 partials at the light benchmark's sizes: n 16-24, goods padded to
    2n, so that pools end in goods no agent values, integer rows valued up
    to 4 and the same rows scaled by random rationals.  Each instance gives
    its allocator's partial (a3's with the padding stripped) and a start of
    one random good per agent."""
    rng = random.Random(2612)
    for t in range(6):
        n = rng.randint(16, 24)
        algorithm = ("a1", "a2", "a3")[t % 3]
        family = "top_n" if algorithm == "a2" else "ordered"
        m = n + 2 if algorithm == "a2" else n
        inst = seeded_instance(family, n, m, rng.randrange(2**32), max_value=4)
        if t >= 3:
            scales = [Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in inst.agents]
            inst = inst.with_values([[v / c for v in row] for row, c in zip(inst.values, scales)])
        if algorithm == "a2":
            padded = pad_goods(inst, 2 * n)
            partial, _ = alloc_topn_lone_divider(padded, thresholds(padded, ceil_3n_over_2(n)))
        else:
            work = inst.permute_goods(detect_structure(inst))
            if algorithm == "a1":
                padded = pad_goods(work, 2 * n)
                partial, _ = alloc_ordered_efx_3n2(padded, thresholds(padded, ceil_3n_over_2(n)))
            else:
                work = pad_agents_to_multiple_of_three(work)
                padded = pad_goods(work, 2 * work.n)
                partial, _ = alloc_ordered_ef1_4n3(padded, thresholds(padded, 4 * (work.n // 3)))
                padded, partial = strip_dummies(padded, partial)
        yield padded, partial
        goods = list(padded.goods)
        rng.shuffle(goods)
        yield padded, make_allocation([[g] for g in goods[: padded.n]], goods[padded.n:])


def _hand_out_event(inst, start, trace):
    """Index of the first gift made while every good left in the pool is
    worth 0 to every agent, from where on one source takes the rest of the
    pool, one good per event; None if the pool never gets there."""
    unvalued = {g for g in inst.goods if not any(row[g] for row in inst.values)}
    pool = set(start.pool)
    for k, ev in enumerate(trace.events):
        if ev.kind == "source_gift":
            if pool <= unvalued:
                return k
            pool.remove(int(ev.get("good")))
    return None


def test_completion_matches_fraction_reference_at_benchmark_sizes():
    """The envy graph updated in place after gifts and rotations gives the
    allocation and trace of the reference, which builds the graph afresh in
    Fraction before every event, also once the pool holds only goods no
    agent values."""
    kinds = []
    hand_outs = after_rotation = 0
    for inst, start in _benchmark_shaped_starts():
        final, trace = envy_cycle_elimination(inst, start)
        ref_final, ref_text = frac_envy_cycle_elimination(inst, start)
        assert final == ref_final
        assert trace.to_text() == ref_text
        kinds += [ev.kind for ev in trace.events]
        k = _hand_out_event(inst, start, trace)
        if k is not None:
            hand_outs += 1
            after_rotation += k > 0 and trace.events[k - 1].kind == "cycle_rotation"
    assert kinds.count("source_gift") > 100 and kinds.count("cycle_rotation") > 20
    # The sweep reaches a pool of unvalued goods, and at least once right
    # after a rotation, which changes the source that takes them.
    assert hand_outs > 3 and after_rotation >= 1


def test_completion_matches_fraction_reference_on_lone_divider_partials():
    """a2's solve-light cells, n = 16 and 24 with m = n + 2 and values up to
    4: completing the lone divider's partial on goods padded to 2n, where
    bundles rotate by relabelling slots, gives the allocation and trace of
    the reference, which moves the bundles themselves."""
    rotations = 0
    for n in (16, 24):
        for seed in range(10):
            inst = seeded_instance("top_n", n, n + 2, seed, max_value=4)
            padded = pad_goods(inst, 2 * n)
            partial, _ = alloc_topn_lone_divider(padded, thresholds(padded, ceil_3n_over_2(n)))
            final, trace = envy_cycle_elimination(padded, partial)
            ref_final, ref_text = frac_envy_cycle_elimination(padded, partial)
            assert final == ref_final
            assert trace.to_text() == ref_text
            rotations += sum(ev.kind == "cycle_rotation" for ev in trace.events)
    assert rotations >= 100


# --- thresholds in value units, decisions on integer levels -----------------


HALF = Fraction(1, 2)


def _between_levels(run, k):
    """run(tau) at tau = k, k + 1/2 and k + 1 on integer values: the middle
    one is not on the integer scale and must act as k + 1, not as k."""
    low, mid, high = run(Fraction(k)), run(k + HALF), run(Fraction(k + 1))
    assert mid == high
    assert mid != low


def test_bag_fill_threshold_between_levels():
    def run(tau):
        alloc, trace = alloc_ordered_efx_3n2(I_A, [tau, tau])
        return alloc, trace.to_text()

    _between_levels(run, 3)


def test_lone_divider_threshold_between_levels():
    """The partition into three unit bags and a shrink of one bag of three
    goods, both decided on the level ``alloc_topn_lone_divider`` maps the
    thresholds to."""

    def solver(inst):
        def run(tau):
            alloc, trace = alloc_topn_lone_divider(inst, [tau] * inst.n)
            return alloc, trace.to_text()

        return run

    _between_levels(solver(Instance.from_rows([[1] * 6] * 3)), 1)
    _between_levels(solver(Instance.from_rows([[2, 2, 2]])), 4)


@pytest.mark.parametrize(
    "run",
    [
        alloc_ordered_efx_3n2,
        alloc_ordered_ef1_4n3,
        alloc_topn_lone_divider,
    ],
    ids=["efx_3n2", "ef1_4n3", "lone_divider"],
)
@pytest.mark.parametrize("short", [0, 2])
def test_missing_thresholds_are_precondition_errors(run, short):
    """Each entry point that maps thresholds to levels checks that there is
    one per agent before it indexes them."""
    inst = Instance.from_rows([[3, 2, 1, 0, 0, 0]] * 3)
    with pytest.raises(PreconditionError, match="one threshold per agent required"):
        run(inst, [Fraction(1)] * short)


def _allocator_inputs(inst):
    """(allocator, instance, thresholds) for each allocator whose structure
    the instance has, prepared as ``solve_complete`` prepares them."""
    n = inst.n
    order = detect_structure(inst)
    if order is not None:
        work = inst.permute_goods(order)
        padded = pad_goods(work, max(work.m, 2 * n))
        yield alloc_ordered_efx_3n2, padded, thresholds(padded, ceil_3n_over_2(n))
        work = pad_agents_to_multiple_of_three(work)
        padded = pad_goods(work, max(work.m, 2 * work.n))
        yield alloc_ordered_ef1_4n3, padded, thresholds(padded, 4 * (work.n // 3))
    if top_k_set(inst, n) is not None:
        padded = pad_goods(inst, max(inst.m, 2 * n))
        yield alloc_topn_lone_divider, padded, thresholds(padded, ceil_3n_over_2(n))


def test_allocators_ignore_row_scaling():
    """Scaling an agent's row and threshold by one positive rational changes
    no decision.  Each threshold is also taken half a step of the agent's
    integer scale below their share, off that scale: it must act as the
    share itself."""
    runs = set()
    for rng, inst in _rational_instances():
        for allocate, padded, taus in _allocator_inputs(inst):
            alloc, trace = allocate(padded, taus)
            factors = [Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in padded.agents]
            for a, source in padded.dummy_agents:
                factors[a] = factors[source]
            scaled = padded.with_values(
                [[v * c for v in row] for row, c in zip(padded.values, factors)]
            )
            below = [
                (t - HALF / denom) * c
                for t, (_, denom), c in zip(taus, padded.int_rows, factors)
            ]
            for case in ((scaled, [t * c for t, c in zip(taus, factors)]), (scaled, below)):
                other, other_trace = allocate(*case)
                assert other == alloc, (padded, case)
                assert other_trace.to_text() == trace.to_text()
            runs.add(allocate.__name__)
    assert len(runs) == 3


def test_bag_fill_swap_compares_gains_in_value():
    """Agents 0 and 2 both gain 1 from swapping to bag 2: 2 on agent 0's
    integer scale (lcm 2) and 3 on agent 2's (lcm 3).  The gains are equal
    in value, so the tie goes to the lower agent."""
    inst = Instance.from_rows([
        [4, "7/2", 3, 2, "3/2", 1, 1, "1/2", "1/2"],
        ["8/5", "8/5", "7/5", "7/5", "7/5", "6/5", 1, "3/5", "2/5"],
        ["8/3", "5/3", "5/3", 1, 1, 1, "2/3", "1/3", "1/3"],
    ])
    taus = [Fraction(17, 6), Fraction(53, 15), Fraction(62, 45)]
    alloc, trace = alloc_ordered_efx_3n2(inst, taus)
    assert [ev.kind for ev in trace.events][3:5] == ["swap", "swap"]
    assert trace.events[3].get("agent") == 0
    assert alloc == make_allocation([{2, 3}, {1, 4, 5}, {0}], {6, 7, 8})
