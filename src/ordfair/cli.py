"""Command-line front end: generate, solve, verify, mms, normalize, experiment.

Exit codes: 0 success/certified, 1 configuration, usage or I/O error, 2
structural mismatch, 3 guarantee not certified, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import sys
import time
import zlib
from collections import Counter
from pathlib import Path
from typing import Iterator

from . import shares, verification
from .allocators import solve_complete
from .allocators.pipeline import ALGORITHMS
from .errors import (
    InvalidConfigError,
    InvariantViolationError,
    OrdfairError,
    ParseError,
    StructuralMismatchError,
)
from .model import (
    GENERATOR_FAMILIES,
    GeneratorConfig,
    _parse_int,
    detect_structure,
    format_rational,
    generate,
    read_allocation,
    read_instance,
    write_allocation,
    write_instance,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STRUCTURE = 2
EXIT_NOT_CERTIFIED = 3
EXIT_INVARIANT = 4

# The most configs (instances) one ``experiment`` run solves.  100,000
# configs of the smallest shape (n = m = 1, a1) took 10.7 s at a 64 MB peak
# (Python 3.11, 2-core VM); each solve adds a row that is kept until the
# report is written.
MAX_EXPERIMENT_CONFIGS = 100_000


def _read_instance_file(path: str):
    return read_instance(Path(path).read_text())


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        family=args.family, n=args.n, m=args.m, max_value=args.max_value, seed=args.seed
    )
    inst = generate(cfg)
    _write(args.out, write_instance(inst))
    order = detect_structure(inst)
    print(f"ordered {str(order is not None).lower()}")
    if order is not None:
        print("order_witness " + " ".join(map(str, order)))
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    result = solve_complete(inst, args.algorithm)
    # Every text is built before the first file is written, so a value too
    # long to print leaves no output behind.
    alloc_text = write_allocation(result.allocation)
    report_text = verification.write_report(result.report)
    trace_text = result.trace.to_text() if args.trace else ""
    _write(args.out, alloc_text)
    if args.report:
        Path(args.report).write_text(report_text)
    print(report_text, end="")
    if args.trace:
        Path(args.trace).write_text(trace_text)
    return EXIT_OK if result.certified else EXIT_NOT_CERTIFIED


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    alloc = read_allocation(Path(args.allocation).read_text())
    thresholds = {d: shares.thresholds(inst, d) for d in set(args.d)}
    rep = verification.report(inst, alloc, thresholds)
    verdicts = {"complete": rep.complete, "efx": rep.efx, "ef1": rep.ef1}
    if rep.mms:
        verdicts["mms"] = all(v.ok for v in rep.mms)
    required = [r.strip() for r in args.require.split(",") if r.strip()]
    for prop in required:
        if prop == "mms" and not rep.mms:
            raise InvalidConfigError("requiring mms needs a divisor: pass --d")
        if prop not in verdicts:
            raise InvalidConfigError(f"unknown property {prop!r}")
    text = verification.write_report(rep)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK if all(verdicts[p] for p in required) else EXIT_NOT_CERTIFIED


def _check_divisor(m: int, d: int) -> None:
    """Cap a share command's ``--d`` at max(m, 1): the share is 0 for every
    d > m, and the witness would still have d bundles."""
    cap = max(m, 1)
    if d > cap:
        raise InvalidConfigError(
            f"--d must be at most max(m, 1) = {cap}: the share is 0 for every d > m"
        )


def cmd_mms(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    _check_divisor(inst.m, args.d)
    if not 0 <= args.agent < inst.n:
        raise InvalidConfigError(f"agent {args.agent} out of range")
    fn = shares.mms_bruteforce if args.oracle else shares.mms_exact
    res = fn(inst, args.agent, args.d)
    _write(args.out, shares.write_maximin_result(res))
    if args.out:
        print(f"value {format_rational(res.value)}")
    return EXIT_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    _check_divisor(inst.m, args.d)
    if args.method == "scale":
        out = shares.normalize_scale(inst, args.d)
    else:
        out = shares.normalize_order_preserving(inst, args.d)
    _write(args.out, write_instance(out))
    return EXIT_OK


def _instance_seed(master: int, family: str, n: int, m: int, index: int) -> int:
    mix = zlib.crc32(family.encode())
    return (
        master * 1_000_003 + n * 104_729 + m * 1_299_709 + index * 7_919 + mix
    ) % 2**64


def _experiment_cells(args: argparse.Namespace) -> Iterator[tuple[int, int]]:
    """The ``experiment`` grid's (n, m) cells in run order."""
    n_lo, n_hi = args.n_range
    m_lo, m_hi = args.m_range
    for n in range(n_lo, n_hi + 1):
        # An instance needs a good, and a top-n instance at least n goods.
        # That floor never falls as n grows, so once it passes m_hi no
        # larger n has a cell.
        m_min = max(m_lo, 1, n if args.family == "top_n" else 1)
        if m_min > m_hi:
            return
        for m in range(m_min, m_hi + 1):
            yield n, m


def _experiment_configs(args: argparse.Namespace) -> Iterator[GeneratorConfig]:
    """The ``experiment`` grid's configs in run order, ``--count`` per cell."""
    for n, m in _experiment_cells(args):
        for index in range(args.count):
            seed = _instance_seed(args.seed, args.family, n, m, index)
            yield GeneratorConfig(args.family, n, m, args.max_value, seed)


def cmd_experiment(args: argparse.Namespace) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise InvalidConfigError(f"unknown algorithm {a!r}")
    n_lo, n_hi = args.n_range
    m_lo, m_hi = args.m_range
    if n_lo > n_hi or m_lo > m_hi or args.count < 1:
        raise InvalidConfigError("empty experiment ranges")
    if args.oracle_limit > shares.DEFAULT_ORACLE_LIMIT:
        raise InvalidConfigError(
            f"--oracle-limit must be at most {shares.DEFAULT_ORACLE_LIMIT}: "
            "the oracle enumerates every partition of the goods"
        )
    # Building a config validates it, and only its seed differs within a
    # cell, so one config per cell refuses a grid with any config past the
    # size caps before the first solve.  The caps end this pass too: it
    # stops at the first cell past them, after at most about 2 * MAX_VALUES
    # cells.  A grid with no cell (an instance needs a good, a top-n one n
    # goods) is refused as an empty range is, and the grid's size is
    # checked once every cell has passed.
    cells = 0
    for n, m in _experiment_cells(args):
        GeneratorConfig(args.family, n, m, args.max_value, 0)
        cells += 1
    if not cells:
        raise InvalidConfigError("empty experiment ranges")
    if cells * args.count > MAX_EXPERIMENT_CONFIGS:
        raise InvalidConfigError(
            f"an experiment grid may have at most {MAX_EXPERIMENT_CONFIGS} configs "
            "(cells times --count)"
        )

    # One row per solve and one per oracle mismatch: the summary, the
    # solve count and the exit code are all read off the rows.
    rows: list[tuple] = []
    started = time.perf_counter()
    for cfg in _experiment_configs(args):
        inst = generate(cfg)
        m = cfg.m
        cell = (cfg.seed, args.family, cfg.n, m)
        for algo in algorithms:
            try:
                result = solve_complete(inst, algo)
            except OrdfairError as exc:
                verdict = f"error:{type(exc).__name__}"
                rows.append((*cell, algo, verdict, "", ""))
                continue
            verdict = "certified" if result.certified else "uncertified"
            values = " ".join(map(format_rational, result.report.bundle_values))
            taus = " ".join(map(format_rational, result.thresholds))
            rows.append((*cell, algo, verdict, values, taus))
            if not args.oracle_limit or m > args.oracle_limit:
                continue
            # The allocator and the verifier took these thresholds,
            # at this algorithm's divisor, so they are what is
            # cross-checked.
            for i, tau in enumerate(result.thresholds):
                share = shares.mms_bruteforce(
                    inst, i, result.divisor, oracle_limit=args.oracle_limit
                ).value
                if tau != share:
                    mismatch = f"mismatch:{algo}:agent{i}"
                    rows.append((*cell, "mms-oracle", mismatch, "", ""))
    total_elapsed = time.perf_counter() - started

    # Rows and summary are a pure function of the flags; timing goes to
    # stderr so repeated runs emit byte-identical reports.
    run = Counter(row[4] for row in rows)
    certified = Counter(row[4] for row in rows if row[5] == "certified")
    out_lines = ["seed,family,n,m,algorithm,verdict,values,thresholds"]
    rows.sort(key=lambda r: (r[0], r[4]))
    out_lines += [",".join(map(str, row)) for row in rows]
    out_lines.append("")
    for algo in algorithms:
        out_lines.append(
            f"summary algorithm={algo} run={run[algo]} "
            f"certified={certified[algo]} violations={run[algo] - certified[algo]}"
        )
    out_lines.append(f"summary oracle_mismatches={run['mms-oracle']}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    solves = len(rows) - run["mms-oracle"]
    mean = total_elapsed / solves if solves else 0.0
    print(
        f"runtime total={total_elapsed:.2f}s solves={solves} mean={mean * 1000:.1f}ms",
        file=sys.stderr,
    )
    return EXIT_OK if all(row[5] == "certified" for row in rows) else EXIT_NOT_CERTIFIED


def _int_flag(text: str) -> int:
    """An integer flag, read as the file formats read integers: past the
    digit limit or malformed, the usage error echoes only a prefix.
    argparse reports an ``ArgumentTypeError`` as a usage error; a
    ``ParseError`` would escape as a traceback."""
    try:
        return _parse_int(text, "integer")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _range_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (_int_flag(lo), _int_flag(hi or lo))


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the configuration-error code, not argparse's
    2, which is the structural-mismatch code here.  Subparsers are built
    from the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ordfair",
        description="Fair division with ordinal maximin-share and envy guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded random instance")
    p.add_argument("--family", choices=GENERATOR_FAMILIES, required=True)
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--m", type=_int_flag, required=True)
    p.add_argument("--max-value", type=_int_flag, default=20)
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run a full pipeline on an instance file")
    p.add_argument("instance")
    p.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p.add_argument("--out", default=None, help="allocation file")
    p.add_argument("--report", default=None, help="fairness report file")
    p.add_argument("--trace", default=None, help="event log file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check an allocation file")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--d", type=_int_flag, action="append", default=[])
    p.add_argument(
        "--require",
        default="complete,ef1,mms",
        help="comma list of properties that must hold for exit 0",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mms", help="exact 1-out-of-d share of one agent")
    p.add_argument("instance")
    p.add_argument("--agent", type=_int_flag, required=True)
    p.add_argument("--d", type=_int_flag, required=True)
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("normalize", help="write a d-normalized instance")
    p.add_argument("instance")
    p.add_argument("--d", type=_int_flag, required=True)
    p.add_argument("--method", choices=("scale", "order"), default="scale")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("experiment", help="seeded batch run with verification")
    p.add_argument("--family", choices=GENERATOR_FAMILIES, required=True)
    p.add_argument("--n-range", type=_range_pair, required=True, metavar="LO:HI")
    p.add_argument("--m-range", type=_range_pair, required=True, metavar="LO:HI")
    p.add_argument("--count", type=_int_flag, default=10, help="instances per (n, m) cell")
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--max-value", type=_int_flag, default=20)
    p.add_argument("--algorithms", default="a1", help="comma list from a1,a2,a3")
    p.add_argument(
        "--oracle-limit",
        type=_int_flag,
        default=0,
        help="cross-check shares against the oracle for m up to this size",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StructuralMismatchError as exc:
        print(f"structural mismatch: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OrdfairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
