"""Per-agent integer rows (``Instance.int_rows``) and the code that compares
on them.

The benchmark's instances all have integer values, so they never exercise
the scaling; these tests use rational rows with mixed denominators and check
the integer code against the Fraction references in ``helpers``.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ordfair import (
    Allocation,
    Instance,
    detect_structure,
    envy_cycle_elimination,
    is_ef1,
    is_efx,
    normalize_order_preserving,
    normalize_scale,
    strongly_envies,
    top_k_set,
)

from helpers import (
    frac_common_order,
    frac_envy_cycle_elimination,
    frac_is_ef1,
    frac_is_efx,
    frac_strongly_envies,
    positive_ordered_instance,
    random_partial_allocation,
    rational_rows_instance,
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
    return Allocation.make([[g] for g in goods[: inst.n]], goods[inst.n:])


def _efx_start(inst, rng, order):
    """A prefix of the common order split among the agents: EFX when the
    split is (checked against the reference), else one good each."""
    k = rng.randint(0, inst.m)
    bundles = [set() for _ in inst.agents]
    for g in order[:k]:
        bundles[rng.randrange(inst.n)].add(g)
    start = Allocation.make(bundles, order[k:])
    if frac_is_efx(inst, start)[0]:
        return start
    k = min(k, inst.n)
    return Allocation.make([[g] for g in order[:k]] + [[]] * (inst.n - k), order[k:])


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
