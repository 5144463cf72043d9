import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, target
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
    is_ordinal_mms,
    mms_bruteforce,
    pad_agents_to_multiple_of_three,
    pad_goods,
    solve_complete,
    thresholds,
    write_instance,
    write_report,
)
from ordfair.allocators import ALGORITHMS, AllocatorTrace, pipeline, replay
from ordfair.allocators.bagfill import ceil_3n_over_2
from ordfair.allocators.pipeline import _to_caller
from ordfair.cli import _instance_seed
from ordfair.errors import OrdfairError, ParseError, StructuralMismatchError
from ordfair.model import format_rational

from helpers import (
    EX51,
    I_A,
    I_B,
    make_allocation,
    rational_rows_instance,
    seeded_instance,
)


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

    def test_a2_where_the_hall_step_once_raised(self):
        """``ordfair generate --family top_n --n 7 --m 27 --seed 1829763360``:
        a lone-divider round of this a2 solve takes the Hall step on a graph
        where a shrink of the Hall violator by single removals raised."""
        result = solve_complete(seeded_instance("top_n", 7, 27, 1829763360), "a2")
        assert result.certified
        counts = dict.fromkeys(("hall", "steal", "fill", "bag_swap"), 0)
        rare_branch_counts(result.trace, counts)
        assert counts["hall"] >= 1

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

    def test_completion_runs_on_the_callers_agents_and_goods(self, monkeypatch):
        """Every algorithm completes on the caller's n agents and m goods,
        from a partial that holds no padding good, also where the allocators
        pad: below m = 2n and, for a3, at n not a multiple of three."""
        calls = []

        def completing(inst, partial):
            calls.append((inst.n, inst.m, partial.allocated() | partial.pool))
            return envy_cycle_elimination(inst, partial)

        monkeypatch.setattr(pipeline, "envy_cycle_elimination", completing)
        rng = random.Random(45)
        for n in (1, 2, 4, 5):
            for m in (n, 2 * n - 1, 3 * n):
                for algo, family in (("a1", "ordered"), ("a2", "top_n"), ("a3", "ordered")):
                    inst = seeded_instance(family, n, m, rng.randrange(2**32))
                    calls.clear()
                    assert solve_complete(inst, algo).certified
                    assert calls == [(n, m, frozenset(range(m)))]

    def test_instance_with_preexisting_dummy_flags(self):
        from ordfair import pad_goods

        inst = pad_goods(I_A, 7)
        result = solve_complete(inst, "a1")
        assert result.certified
        assert result.allocation.is_complete(inst.m)

    def test_flagged_agent_zero_and_last_good_solve_as_unflagged(self):
        """The caller's flags mark nothing the pipelines use: with agent 0
        flagged as a copy of agent 1 and the last good as a dummy, each
        algorithm returns what it returns on the unflagged copy."""
        rng = random.Random(23)
        cases = [Instance.from_rows([[5, 4, 3, 2, 1], [5, 4, 3, 2, 1], [6, 3, 3, 1, 1]])]
        for family in ("ordered", "top_n"):
            for n in (2, 4, 5):
                inst = seeded_instance(family, n, rng.randrange(n, 3 * n), rng.randrange(2**32))
                cases.append(Instance.from_rows([inst.values[1], *inst.values[1:]]))
        checked = 0
        for plain in cases:
            plain = Instance.from_rows([[*row, 0] for row in plain.values])
            flagged = Instance.from_rows(
                plain.values, dummy_goods=[plain.m - 1], dummy_agents=[(0, 1)]
            )
            for algo in ALGORITHMS:
                try:
                    want = solve_complete(plain, algo)
                except StructuralMismatchError:
                    with pytest.raises(StructuralMismatchError):
                        solve_complete(flagged, algo)
                    continue
                got = solve_complete(flagged, algo)
                assert got.certified and want.certified
                assert (got.divisor, got.thresholds) == (want.divisor, want.thresholds)
                assert (got.partial, got.allocation) == (want.partial, want.allocation)
                assert write_report(got.report) == write_report(want.report)
                assert got.trace.to_text() == want.trace.to_text()
                checked += 1
        assert checked >= 10


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
            yield make_allocation(bundles)

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


def _allocator_run(algorithm, inst, d):
    """The allocator of `algorithm` on `inst` as ``solve_complete`` runs it,
    on the caller's goods (permuted to the common order for a1 and a3) at
    divisor `d`: the partial allocation and the trace."""
    if algorithm == "a2":
        return alloc_topn_lone_divider(inst, thresholds(inst, d))
    work = inst.permute_goods(detect_structure(inst))
    allocate = alloc_ordered_efx_3n2 if algorithm == "a1" else alloc_ordered_ef1_4n3
    return allocate(work, thresholds(work, d))


_KINDS = (
    "singleton_claim", "bag_init", "fill", "claim", "swap", "lone_divider", "shrink",
    "steal", "matching", "cycle_rotation", "source_gift",
)
_SMALL = st.integers(-1, 9)
_INTS = st.lists(_SMALL, max_size=4).map(lambda ints: ",".join(map(str, ints)))
_PAIRS = st.lists(st.tuples(_SMALL, _INTS), max_size=3).map(
    lambda pairs: ";".join(f"{a}:{goods}" for a, goods in pairs)
)
_NOISE = st.text(alphabet="0123456789-,;:=x ", max_size=12)
# Trace lines near the format: known kinds, each key with a value of its
# type, or any key with digits and separators at random.
_ARGS = st.one_of(
    st.builds("{}={}".format, st.sampled_from(("agent", "good", "bag", "frm", "to")), _SMALL),
    st.builds("{}={}".format, st.sampled_from(("goods", "kept", "cycle")), _INTS),
    st.builds("pairs={}".format, _PAIRS),
    st.builds("{}={}".format, st.text(max_size=5), _INTS | _PAIRS | _NOISE),
)
_LINES = st.builds(
    lambda iteration, kind, args: "\t".join([iteration, kind, *args]),
    _SMALL.map(str) | st.text(alphabet="0123456789-x ", max_size=3),
    st.sampled_from(_KINDS) | st.text(max_size=4),
    st.lists(_ARGS, max_size=3),
)


@st.composite
def _well_formed_traces(draw):
    """Typed completion and lone-divider events on n agents and m goods:
    agents in range(n), goods in range(-1, m + 1), so that some goods fall
    outside range(m) and some are given twice."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    agent = st.integers(0, n - 1)
    good = st.integers(-1, m)
    goods = st.frozensets(good, max_size=3)
    pairs = st.lists(st.tuples(agent, goods), max_size=3).map(tuple)
    event = st.one_of(
        st.tuples(st.just("source_gift"), st.fixed_dictionaries({"agent": agent, "good": good})),
        st.tuples(st.just("matching"), st.fixed_dictionaries({"pairs": pairs})),
        st.tuples(st.just("steal"), st.fixed_dictionaries({"agent": agent, "goods": goods})),
        st.tuples(
            st.just("cycle_rotation"),
            st.fixed_dictionaries({"cycle": st.lists(agent, min_size=1, max_size=4).map(tuple)}),
        ),
    )
    trace = AllocatorTrace("fuzz")
    for iteration, (kind, args) in enumerate(draw(st.lists(event, max_size=6)), 1):
        trace.emit(iteration, kind, **args)
    return trace, n, m


class TestTraceSerialization:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(ALGORITHMS),
        st.integers(1, 6),
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_seeded_traces_round_trip_and_replay(self, algorithm, n, extra, seed):
        """A solve's trace and its allocator's trace print, parse back to
        equal typed events and print the same text; the parsed trace replays
        as the emitted one does.  The allocator's trace replays to its
        partial allocation, and the solve's trace, mapped back to the
        caller's goods, to the returned allocation."""
        m = n + extra % (2 * n + 1)
        inst = seeded_instance("top_n" if algorithm == "a2" else "ordered", n, m, seed, 20)
        result = solve_complete(inst, algorithm)
        partial, trace = _allocator_run(algorithm, inst, result.divisor)
        replayed = replay(result.trace, n, m)
        goods = range(m) if algorithm == "a2" else detect_structure(inst)
        assert _to_caller(replayed, goods) == result.allocation
        for original, rebuilt in ((result.trace, replayed), (trace, partial)):
            text = original.to_text()
            parsed = AllocatorTrace.from_text(text)
            assert parsed.to_text() == text
            assert parsed == original
            assert replay(parsed, n, m) == rebuilt

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_LINES, max_size=4).map("\n".join) | st.text(),
        st.integers(1, 4),
        st.integers(1, 8),
    )
    def test_fuzzed_lines_round_trip_or_parse_error(self, lines, n, m):
        """Any text parses to events that print and parse back to the same
        events, or raises ParseError; a parsed trace replays to n bundles
        that hold each good of range(m) at most once, or raises ParseError."""
        try:
            parsed = AllocatorTrace.from_text("# trace fuzz\n" + lines)
        except ParseError:
            return
        assert AllocatorTrace.from_text(parsed.to_text()) == parsed
        try:
            alloc = replay(parsed, n, m)
        except ParseError:
            return
        assert len(alloc.bundles) == n
        held = [g for b in alloc.bundles for g in b]
        assert len(held) == len(set(held)) and set(held) <= set(range(m))
        assert alloc.pool == frozenset(range(m)) - set(held)

    @settings(max_examples=150, deadline=None)
    @given(_well_formed_traces())
    def test_well_formed_events_replay_to_an_allocation_or_parse_error(self, case):
        """Events that name valid agents reach replay's allocation check: the
        trace prints and parses back to itself, and replays to n disjoint
        bundles within range(m), or raises ParseError."""
        trace, n, m = case
        assert AllocatorTrace.from_text(trace.to_text()) == trace
        try:
            alloc = replay(trace, n, m)
        except ParseError:
            return
        assert len(alloc.bundles) == n
        held = [g for b in alloc.bundles for g in b]
        assert len(held) == len(set(held)) and set(held) <= set(range(m))

    def test_round_trip_and_replay(self):
        result = solve_complete(I_A, "a1")
        text = result.trace.to_text()
        parsed = AllocatorTrace.from_text(text)
        assert parsed.algorithm == result.trace.algorithm
        assert [e.to_line() for e in parsed.events] == [
            e.to_line() for e in result.trace.events
        ]

    @pytest.mark.parametrize(
        "text", ["# trace a1\nabc\tfill", "# trace a1\n1", "# trace a1\n1\tfill\tgood"]
    )
    def test_malformed_trace_is_parse_error(self, text):
        with pytest.raises(ParseError):
            AllocatorTrace.from_text(text)

    @pytest.mark.parametrize(
        "events",
        [
            "1\tfill\tgood=0",  # no bag argument
            "1\tfill\tbag=5\tgood=0",  # no such bag
            "1\tclaim\tagent=0\tbag=3",  # claims a bag that never opened
            "1\tsource_gift\tagent=2\tgood=0",  # no such agent
            "1\tsource_gift\tagent=-1\tgood=0",
            "1\tcycle_rotation\tcycle=0,x",
            "1\tmatching\tpairs=7:0",
            # good 0 to both agents, goods -1 and 7 out of range(1)
            "1\tsource_gift\tagent=0\tgood=-1\n2\tsource_gift\tagent=1\tgood=7\n"
            "3\tsource_gift\tagent=1\tgood=0\n4\tsource_gift\tagent=0\tgood=0",
        ],
    )
    def test_replay_of_malformed_events_is_parse_error(self, events):
        with pytest.raises(ParseError):
            replay(AllocatorTrace.from_text("# trace a1\n" + events), 2, 1)

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
            partial, trace = alloc_topn_lone_divider(
                inst, thresholds(inst, ceil_3n_over_2(n))
            )
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

    # Re-recorded when the allocators began to add the paper's padding
    # inside their own runs: only traces changed, 171 of the 408 (a1 3, a2
    # 50, a3 118), which now name no padding good or agent.  Allocations,
    # partials, thresholds, divisors, both reports and errors are unchanged,
    # and every solve stays certified.
    GOLDEN = "50f53a66851ff1e71ede6e4aace953cd66091ef851caf7a28a0888aa537765de"

    def test_outputs_unchanged(self):
        assert pipeline_sweep_digest() == self.GOLDEN


def rare_branch_sweep():
    """The draws of ``ordfair experiment --seed 0 --count 4`` over n 2-6 and
    m 4-20: a2 on top-n instances with max_value 20, a1 and a3 on ordered
    instances with max_value 4.  Unlike ``pipeline_sweep`` they reach bag
    filling's fill and swap steps and the lone divider's steal and Hall
    step."""
    for family, algos, max_value in (("top_n", ("a2",), 20), ("ordered", ("a1", "a3"), 4)):
        for n in range(2, 7):
            for m in range(4, 21):
                if family == "top_n" and m < n:
                    continue
                for index in range(4):
                    seed = _instance_seed(0, family, n, m, index)
                    inst = seeded_instance(family, n, m, seed, max_value)
                    for algo in algos:
                        yield algo, inst


def rare_branch_counts(trace, counts):
    """Add a solve's Hall steps, steals, fills and bag swaps to ``counts``.

    A lone-divider round takes the Hall step exactly when its matching
    serves fewer agents than it has shrunk bags."""
    bags_in = {}
    for ev in trace.events:
        if ev.kind == "shrink":
            bags_in[ev.iteration] = bags_in.get(ev.iteration, 0) + 1
        elif ev.kind == "matching":
            counts["hall"] += len(ev.get("pairs")) < bags_in[ev.iteration]
        elif ev.kind == "steal":
            counts["steal"] += 1
        elif ev.kind == "swap":
            counts["bag_swap"] += 1
        elif ev.kind == "fill":
            counts["fill"] += 1


class TestGoldenRareBranches:
    """Every output of the solves of ``rare_branch_sweep`` is pinned, errors
    included, and the sweep is held to keep reaching each rare branch."""

    # Re-recorded when the allocators began to add the paper's padding
    # inside their own runs: only traces changed, 412 of the 1,008 (a1 12,
    # a2 68, a3 332), which now name no padding good or agent.  Allocations,
    # partials and both reports are unchanged, every solve stays certified,
    # and the branch counts below are the same.
    GOLDEN = "3f984f43a8db656d8c4b0d9cd207559984d647c85fb0a5d0634b6c0948f38779"

    def test_outputs_unchanged_and_branches_reached(self):
        h = hashlib.sha256()
        counts = dict.fromkeys(("hall", "steal", "fill", "bag_swap"), 0)
        solves = 0
        for algo, inst in rare_branch_sweep():
            solves += 1
            h.update(f"{algo} {write_instance(inst)}".encode())
            try:
                result = solve_complete(inst, algo)
            except OrdfairError as err:
                h.update(f"{type(err).__name__} {err}\n".encode())
                continue
            rare_branch_counts(result.trace, counts)
            h.update(
                "\n".join(
                    (
                        _alloc_text(result.partial),
                        _alloc_text(result.allocation),
                        write_report(result.partial_report),
                        write_report(result.report),
                        result.trace.to_text(),
                    )
                ).encode()
            )
        # Recorded: 71 Hall steps, 37 steals, 196 fills and 10 bag swaps.
        assert solves == 1008
        assert counts["hall"] >= 40 and counts["steal"] >= 13
        assert counts["fill"] >= 100 and counts["bag_swap"] >= 5
        assert h.hexdigest() == self.GOLDEN


# Small values, so that zeros and ties are common.
_VALUES = st.integers(0, 3) | st.integers(0, 12)


@st.composite
def _agent_rows(draw, n, draw_row):
    """n rows, drawn from at most n distinct ones, so that some agents are
    identical."""
    distinct = draw(st.lists(draw_row, min_size=1, max_size=n))
    return [list(distinct[draw(st.integers(0, len(distinct) - 1))]) for _ in range(n)]


@st.composite
def _ordered_instances(draw):
    """Rows non-increasing in one hidden common order: n <= 5 and m <= 8,
    so both m < n and m < 2n occur, as do n not a multiple of three."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    row = st.lists(_VALUES, min_size=m, max_size=m).map(lambda r: sorted(r, reverse=True))
    rows = draw(_agent_rows(n, row))
    if n > 1 and draw(st.booleans()):
        # Nearly identical: the last row is the first with one good raised
        # as far as the common order allows.
        g = draw(st.integers(0, m - 1))
        last = list(rows[0])
        last[g] = last[g - 1] if g else last[g] + 1
        rows[-1] = last
    order = draw(st.permutations(range(m)))
    return Instance.from_rows([[row[order.index(g)] for g in range(m)] for row in rows])


@st.composite
def _top_n_instances(draw):
    """A common set of n top goods, each worth at least an agent's best
    outside good to that agent and often exactly as much: n <= 5 and
    n <= m <= 8."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 8))
    top = set(draw(st.permutations(range(m)))[:n])

    @st.composite
    def row(draw):
        values = draw(st.lists(_VALUES, min_size=m, max_size=m))
        best = max((v for g, v in enumerate(values) if g not in top), default=0)
        lifts = st.integers(0, 0) | st.integers(0, 3)
        return [best + draw(lifts) if g in top else v for g, v in enumerate(values)]

    return Instance.from_rows(draw(_agent_rows(n, row())))


class TestPipelineProperties:
    """Every pipeline on small instances with zeros, ties, identical agents
    and few goods: the solve is certified, its thresholds are the
    brute-force oracle's shares at its divisor, and its trace, mapped back
    to the caller's goods, replays to the complete allocation.  The search
    is steered toward solves that reach the allocators' rare branches."""

    @staticmethod
    def _check(inst, algorithm):
        result = solve_complete(inst, algorithm)
        assert result.certified
        d = result.divisor
        assert result.thresholds == tuple(
            mms_bruteforce(inst, i, d).value for i in inst.agents
        )
        goods = range(inst.m) if algorithm == "a2" else detect_structure(inst)
        assert _to_caller(replay(result.trace, inst.n, inst.m), goods) == result.allocation
        counts = dict.fromkeys(("hall", "steal", "fill", "bag_swap"), 0)
        rare_branch_counts(result.trace, counts)
        for label, count in counts.items():
            target(count, label=label)

    @settings(max_examples=200, deadline=None)
    @given(_ordered_instances(), st.sampled_from(("a1", "a3")))
    def test_ordered_pipelines(self, inst, algorithm):
        self._check(inst, algorithm)

    @settings(max_examples=200, deadline=None)
    @given(_top_n_instances())
    def test_top_n_pipeline(self, inst):
        self._check(inst, "a2")
