"""Acceptance gate: ten desk-scale suites, one pass/fail line each.

Every suite is a pure function of hard-coded seeds; failures raise before
the PASS line prints.  Run with `pytest tests/test_acceptance.py`.
"""

import random
import time
from fractions import Fraction

from ordfair import (
    Instance,
    ThresholdGraph,
    alloc_ordered_efx_3n2,
    detect_structure,
    envy_cycle_elimination,
    envy_free_matching,
    generate,
    GeneratorConfig,
    is_ef1,
    is_efx,
    mms_bruteforce,
    mms_exact,
    normalize_order_preserving,
    normalize_scale,
    solve_complete,
    thresholds,
    write_report,
)
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.cli import main as cli_main

from helpers import EX51, EX51_WITNESSES, make_allocation, positive_ordered_instance

MASTER = 20250808


def _seed(criterion: int, idx: int) -> int:
    return (MASTER * 37 + criterion * 1_000_003 + idx * 7_919) % 2**64


def _cells(n_range, m_of_n):
    return [(n, m) for n in n_range for m in m_of_n(n)]


def _run_suite(criterion, family, cells, count, algorithm):
    """Solve `count` seeded instances round-robin over the cells; every run
    must certify its guarantee pair.  Returns the serialized reports."""
    reports = []
    for idx in range(count):
        n, m = cells[idx % len(cells)]
        inst = generate(
            GeneratorConfig(family=family, n=n, m=m, max_value=20, seed=_seed(criterion, idx))
        )
        result = solve_complete(inst, algorithm)
        assert result.certified, (algorithm, n, m, idx)
        reports.append(
            f"seed={_seed(criterion, idx)} n={n} m={m}\n"
            + write_report(result.partial_report)
            + write_report(result.report)
        )
    return reports


def efx_ordered_suite():
    cells = _cells(range(2, 6), lambda n: range(2 * n, 13))
    return _run_suite(1, "ordered", cells, 200, "a1")


def top_n_suite():
    cells = _cells(range(2, 5), lambda n: range(n, 11))
    return _run_suite(2, "top_n", cells, 200, "a2")


def ef1_ordered_suite():
    cells = _cells(range(2, 6), lambda n: range(2 * n, 13))
    return _run_suite(3, "ordered", cells, 200, "a3")


def test_01_a1_complete_efx_with_ordinal_mms():
    started = time.perf_counter()
    efx_ordered_suite()
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"suite took {elapsed:.1f}s"
    print(
        f"\nPASS  [1] a1 suite: 200/200 ordered instances certified "
        f"complete+EFX+1-out-of-ceil(3n/2) MMS in {elapsed:.1f}s"
    )


def test_02_a2_partial_efx_and_completed_ef1():
    top_n_suite()
    print(
        "\nPASS  [2] a2 suite: 200/200 top-n instances certified "
        "partial EFX+MMS and completed EF1+MMS"
    )


def test_03_a3_ef1_with_4_ceil_n_over_3_mms():
    ef1_ordered_suite()
    print(
        "\nPASS  [3] a3 suite: 200/200 ordered instances certified "
        "complete EF1+1-out-of-4ceil(n/3) MMS"
    )


def test_04_mms_solver_matches_oracle():
    rng = random.Random(_seed(4, 0))
    checks = 0
    for _ in range(500):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 11)
        d = rng.randrange(1, 6)
        inst = generate(
            GeneratorConfig("general", n, m, 20, rng.randrange(2**63))
        )
        for i in inst.agents:
            assert mms_exact(inst, i, d).value == mms_bruteforce(inst, i, d).value
            checks += 1
    assert thresholds(EX51, 3) == (1, 1, 2)
    print(
        f"\nPASS  [4] share solver == oracle on 500 instances "
        f"({checks} agent checks, m<=10, d<=5); worked-example thresholds (1,1,2)"
    )


def test_05_reduction_inequality():
    rng = random.Random(_seed(5, 0))
    checks = 0
    for _ in range(100):
        n = rng.randrange(2, 5)
        m = rng.randrange(2 * n, 9)
        inst = generate(
            GeneratorConfig("ordered", n, m, 20, rng.randrange(2**63))
        )
        order = detect_structure(inst)
        removed = {order[p] for p in range(n, 2 * n)}
        kept = [g for g in inst.goods if g not in removed]
        d = ceil_3n_over_2(n)
        for i in inst.agents:
            reduced = mms_bruteforce(inst, i, n, goods=kept).value
            full = mms_bruteforce(inst, i, d).value
            assert reduced >= full, (n, m, i)
            checks += 1
    print(
        f"\nPASS  [5] band-removal inequality mu^n(M minus middle band) >= "
        f"mu^ceil(3n/2)(M) on 100 ordered instances ({checks} exact comparisons)"
    )


def _assert_envy_free(edges, pairs):
    assert pairs
    matched_agents = {a for a, _ in pairs}
    matched_bags = {j for _, j in pairs}
    for (i, j) in edges:
        assert not (i not in matched_agents and j in matched_bags)


def _square_graph(size, edges):
    return ThresholdGraph(
        agents=tuple(range(size)),
        neighbors=tuple(
            tuple(i for i in range(size) if (i, j) in edges) for j in range(size)
        ),
    )


def test_06_envy_free_matching_exists_and_verifies():
    graphs = 0
    for size in (1, 2, 3):
        cells = [(i, j) for i in range(size) for j in range(size)]
        for mask in range(1 << len(cells)):
            edges = {cells[t] for t in range(len(cells)) if mask >> t & 1}
            if any(all((i, j) not in edges for i in range(size)) for j in range(size)):
                continue
            pairs = envy_free_matching(_square_graph(size, edges))
            _assert_envy_free(edges, pairs)
            graphs += 1
    rng = random.Random(_seed(6, 0))
    for _ in range(300):
        size = rng.randrange(4, 7)
        edges = {
            (i, j) for i in range(size) for j in range(size) if rng.random() < 0.35
        }
        for j in range(size):
            if all((i, j) not in edges for i in range(size)):
                edges.add((rng.randrange(size), j))
        pairs = envy_free_matching(_square_graph(size, edges))
        _assert_envy_free(edges, pairs)
        graphs += 1
    print(
        f"\nPASS  [6] envy-free matching nonempty and edge-verified on "
        f"{graphs} threshold graphs (exhaustive <=3x3, seeded 4x4-6x6)"
    )


def test_07_order_preserving_normalization():
    ones = Instance.from_rows([[1, 1, 1, 1, 1]])
    out = normalize_order_preserving(ones, 3, {0: [{0, 1}, {2, 3}, {4}]})
    half = Fraction(1, 2)
    assert out.values[0] == (Fraction(1), half, half, half, half)

    rng = random.Random(_seed(7, 0))
    done = 0
    while done < 100:
        d = rng.randrange(2, 5)
        m = rng.randrange(max(d, 2), 9)
        n = rng.randrange(1, 4)
        inst = positive_ordered_instance(n, m, rng.randrange(2**63))
        if any(mms_exact(inst, i, d).value == 0 for i in inst.agents):
            continue
        done += 1
        result = normalize_order_preserving(inst, d)
        order = detect_structure(inst)
        for i in inst.agents:
            mu = mms_exact(inst, i, d).value
            assert mms_exact(result, i, d).value == 1
            assert result.value(i, result.goods) == d
            for g in inst.goods:
                assert result.values[i][g] <= inst.values[i][g] / mu
            for p in range(m - 1):
                assert result.values[i][order[p]] >= result.values[i][order[p + 1]]
    print(
        "\nPASS  [7] order-preserving normalization: hand trace reproduces "
        "(1, 1/2, 1/2, 1/2, 1/2); share-1, pointwise-bounded and "
        "order-preserving on 100 ordered instances"
    )


def test_08_worked_example_golden():
    alloc = make_allocation([[4], [0, 1, 2], [3]])
    ok, witness = is_efx(EX51, alloc)
    assert not ok and witness[:2] == (0, 1)
    scaled_pinned = normalize_scale(EX51, 3, EX51_WITNESSES)
    assert is_efx(scaled_pinned, alloc)[0]
    assert scaled_pinned.values[0] == (
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1),
    )
    # Without pinned witnesses agents 0 and 1 take the canonical witness
    # {0,3,4},{1},{2}, as maximin as the pinned one, under which agent 0
    # strongly envies agent 1 over good 0.
    scaled_default = normalize_scale(EX51, 3)
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert scaled_default.values == (
        (third, Fraction(1), Fraction(1), third, third),
        (third, Fraction(1), Fraction(1), third, third),
        (half, half, half, Fraction(1), half),
    )
    assert is_efx(scaled_default, alloc) == (False, (0, 1, 0))
    print(
        "\nPASS  [8] worked-example golden test: allocation EFX after scaling "
        "normalization with the example's witnesses, strong envy (agent 0 -> 1) "
        "under the original values and under the default witnesses"
    )


def test_09_envy_cycle_contract():
    rng = random.Random(_seed(9, 0))
    done = 0
    while done < 200:
        n = rng.randrange(2, 5)
        m = rng.randrange(2, 11)
        inst = generate(GeneratorConfig("general", n, m, 20, rng.randrange(2**63)))
        bundles = [set() for _ in range(n)]
        pool = set()
        for g in inst.goods:
            slot = rng.randrange(n + 1)
            (pool if slot == n else bundles[slot]).add(g)
        start = make_allocation(bundles, pool)
        if not is_ef1(inst, start)[0]:
            continue
        done += 1
        final, _ = envy_cycle_elimination(inst, start)
        assert final.is_complete(inst.m)
        assert is_ef1(inst, final)[0]
        for i in inst.agents:
            assert inst.value(i, final.bundles[i]) >= inst.value(i, start.bundles[i])

    efx_runs = 0
    for idx in range(50):
        n = 2 + idx % 4
        m = 2 * n + idx % 3
        inst = generate(GeneratorConfig("ordered", n, m, 20, _seed(9, idx + 1)))
        inst = inst.permute_goods(detect_structure(inst))
        taus = thresholds(inst, ceil_3n_over_2(n))
        partial, _ = alloc_ordered_efx_3n2(inst, taus)
        final, _ = envy_cycle_elimination(inst, partial)
        assert final.is_complete(inst.m)
        assert is_efx(inst, final)[0]
        efx_runs += 1
    print(
        f"\nPASS  [9] envy-cycle completion: 200 EF1 partials completed "
        f"EF1+value-monotone; EFX preserved on {efx_runs} bag-filling outputs"
    )


def test_10_determinism():
    assert efx_ordered_suite() == efx_ordered_suite()
    assert top_n_suite() == top_n_suite()
    assert ef1_ordered_suite() == ef1_ordered_suite()

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        args = [
            "experiment", "--family", "ordered", "--n-range", "2:3",
            "--m-range", "4:8", "--count", "2", "--seed", "5",
            "--algorithms", "a1,a3", "--oracle-limit", "7",
        ]
        one, two = Path(tmp) / "one.csv", Path(tmp) / "two.csv"
        assert cli_main(args + ["--out", str(one)]) == 0
        assert cli_main(args + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
    print(
        "\nPASS  [10] determinism: suites 1-3 and the experiment "
        "harness re-ran byte-identically on fixed seeds"
    )
