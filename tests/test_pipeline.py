import hashlib
import itertools
import random

import pytest

from ordfair import (
    Allocation,
    is_ef1,
    is_efx,
    is_ordinal_mms,
    pad_agents_to_multiple_of_three,
    pad_goods,
    solve_complete,
    thresholds,
    write_instance,
    write_report,
)
from ordfair.allocators import AllocatorTrace, replay
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.errors import StructuralMismatchError
from ordfair.model import format_rational

from helpers import EX51, I_A, I_B, rational_rows_instance, seeded_instance


class TestSolveComplete:
    def test_a1_on_i_a(self):
        result = solve_complete(I_A, "a1")
        assert result.certified
        assert result.divisor == 3
        assert result.report.complete and result.report.efx
        assert result.report.mms_ok(3)
        assert result.allocation.bundles == (
            frozenset({0, 3}),
            frozenset({1, 2, 4}),
        )

    def test_a2_on_i_b(self):
        result = solve_complete(I_B, "a2")
        assert result.certified
        assert result.partial_report.efx and result.partial_report.mms_ok(3)
        assert result.report.complete and result.report.ef1
        assert result.report.mms_ok(3)

    def test_a3_on_worked_example(self):
        result = solve_complete(EX51, "a3")
        assert result.certified
        assert result.divisor == 4
        assert result.report.complete and result.report.ef1
        assert result.report.mms_ok(4)

    def test_a1_rejects_unordered(self):
        with pytest.raises(StructuralMismatchError):
            solve_complete(I_B, "a1")

    def test_a2_rejects_non_top_n(self):
        from ordfair import Instance

        inst = Instance.from_rows([[5, 4, 2, 1], [4, 1, 5, 2]])
        with pytest.raises(StructuralMismatchError):
            solve_complete(inst, "a2")

    def test_unknown_algorithm(self):
        with pytest.raises(StructuralMismatchError):
            solve_complete(I_A, "a9")

    def test_padding_instances_with_few_goods(self):
        rng = random.Random(40)
        for _ in range(20):
            n = rng.randrange(2, 5)
            m = rng.randrange(n, 2 * n)  # below 2n: forces good padding
            inst = seeded_instance("ordered", n, m, rng.randrange(2**32))
            for algo in ("a1", "a2", "a3"):
                assert solve_complete(inst, algo).certified

    def test_instance_with_preexisting_dummy_flags(self):
        from ordfair import pad_goods

        inst = pad_goods(I_A, 7)
        result = solve_complete(inst, "a1")
        assert result.certified
        assert result.allocation.is_complete(inst.m)


class TestBruteForceExistence:
    """For small instances, enumerate all complete allocations: the pipeline's
    guarantee pair must be achievable, and the pipeline's output must be one
    of the achieving allocations."""

    @staticmethod
    def _complete_allocations(n, m):
        for owners in itertools.product(range(n), repeat=m):
            bundles = [set() for _ in range(n)]
            for g, i in enumerate(owners):
                bundles[i].add(g)
            yield Allocation.make(bundles)

    def test_a1_output_among_satisfying_set(self):
        rng = random.Random(41)
        for _ in range(6):
            n = rng.choice([2, 3])
            m = rng.randrange(2 * n, 8)
            inst = seeded_instance("ordered", n, m, rng.randrange(2**32), 9)
            d = ceil_3n_over_2(n)
            taus = thresholds(inst, d)
            result = solve_complete(inst, "a1")
            satisfying = [
                alloc
                for alloc in self._complete_allocations(n, m)
                if is_efx(inst, alloc)[0] and is_ordinal_mms(inst, alloc, d, taus)[0]
            ]
            assert satisfying
            assert result.allocation in satisfying

    def test_a3_output_among_satisfying_set(self):
        rng = random.Random(42)
        for _ in range(6):
            n = rng.choice([2, 3])
            m = rng.randrange(2 * n, 8)
            inst = seeded_instance("ordered", n, m, rng.randrange(2**32), 9)
            d = 4 * ((n + 2) // 3)
            taus = thresholds(inst, d)
            result = solve_complete(inst, "a3")
            satisfying = [
                alloc
                for alloc in self._complete_allocations(n, m)
                if is_ef1(inst, alloc)[0] and is_ordinal_mms(inst, alloc, d, taus)[0]
            ]
            assert satisfying
            assert result.allocation in satisfying

    def test_a2_output_among_satisfying_set(self):
        rng = random.Random(43)
        for _ in range(6):
            n = 2
            m = rng.randrange(4, 8)
            inst = seeded_instance("top_n", n, m, rng.randrange(2**32), 9)
            d = ceil_3n_over_2(n)
            taus = thresholds(inst, d)
            result = solve_complete(inst, "a2")
            satisfying = [
                alloc
                for alloc in self._complete_allocations(n, m)
                if is_ef1(inst, alloc)[0] and is_ordinal_mms(inst, alloc, d, taus)[0]
            ]
            assert satisfying
            assert result.allocation in satisfying


class TestTraceSerialization:
    def test_round_trip_and_replay(self):
        result = solve_complete(I_A, "a1")
        text = result.trace.to_text()
        parsed = AllocatorTrace.from_text(text)
        assert parsed.algorithm == result.trace.algorithm
        assert [e.to_line() for e in parsed.events] == [
            e.to_line() for e in result.trace.events
        ]

    def test_pipeline_trace_includes_completion_and_replays(self):
        # I_A needs neither padding nor permuting, so the pipeline trace is
        # in original coordinates and must replay to the final allocation.
        result = solve_complete(I_A, "a1")
        kinds = {e.kind for e in result.trace.events}
        assert "source_gift" in kinds
        assert replay(result.trace, I_A.n, I_A.m) == result.allocation

    def test_a2_pipeline_trace_replays(self):
        result = solve_complete(I_B, "a2")
        assert replay(result.trace, I_B.n, I_B.m) == result.allocation

    def test_lone_divider_trace_replays_partial(self):
        from ordfair import alloc_topn_lone_divider, pad_goods

        rng = random.Random(44)
        for _ in range(15):
            n = rng.randrange(2, 5)
            m = rng.randrange(2 * n, 11)
            inst = seeded_instance("top_n", n, m, rng.randrange(2**32))
            partial, trace = alloc_topn_lone_divider(inst)
            assert replay(trace, inst.n, inst.m) == partial


def pipeline_sweep():
    """Seeded (algorithm, instance) solves: a1/a3 on ordered and a2 on top-n
    instances for n 1-6 and every m in n..3n, then rows divided by random
    rationals (some from the general family, so the structure checks
    reject them) and instances that already carry dummy goods or agents."""
    rng = random.Random(2604)
    for algo, family in (("a1", "ordered"), ("a2", "top_n"), ("a3", "ordered")):
        for n in range(1, 7):
            for m in range(n, 3 * n + 1):
                for max_value in (3, 20):
                    yield algo, seeded_instance(family, n, m, rng.randrange(2**32), max_value)
        for _ in range(20):
            n = rng.randrange(1, 6)
            m = rng.randrange(n, 3 * n + 1)
            yield algo, rational_rows_instance(rng, n, m, rng.choice((family, "general")))
        for _ in range(20):
            n = rng.randrange(1, 6)
            m = rng.randrange(n, 3 * n + 1)
            inst = seeded_instance(family, n, m, rng.randrange(2**32), rng.choice((3, 20)))
            inst = pad_goods(inst, m + rng.randrange(0, 4))
            if rng.randrange(2):
                inst = pad_agents_to_multiple_of_three(inst)
            yield algo, inst


def _alloc_text(alloc):
    return f"{[sorted(b) for b in alloc.bundles]} pool {sorted(alloc.pool)}"


def pipeline_sweep_digest():
    h = hashlib.sha256()
    for algo, inst in pipeline_sweep():
        h.update(f"{algo} {write_instance(inst)}".encode())
        try:
            result = solve_complete(inst, algo)
        except StructuralMismatchError as err:
            h.update(f"mismatch {err}\n".encode())
            continue
        h.update(
            "\n".join(
                (
                    _alloc_text(result.allocation),
                    _alloc_text(result.partial),
                    " ".join(format_rational(t) for t in result.thresholds),
                    f"d={result.divisor} certified={result.certified}",
                    write_report(result.partial_report),
                    write_report(result.report),
                    result.trace.to_text(),
                )
            ).encode()
        )
    return h.hexdigest()


class TestGoldenOutputs:
    """Every output of solve_complete is pinned, so a change to the pipeline
    that is meant to keep behaviour is checked rather than assumed."""

    # Recorded with one private pipeline function per algorithm.
    GOLDEN = "5a9fcb959154ce2b7640a87379fc7d123a533e47c306c97bab8ab62d22fe8005"

    def test_outputs_unchanged(self):
        assert pipeline_sweep_digest() == self.GOLDEN
