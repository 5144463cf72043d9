"""Command-line front end: generate, solve, verify, mms, normalize, experiment.

Exit codes: 0 success/certified, 1 configuration or I/O error, 2 structural
mismatch, 3 guarantee not certified, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import time
import zlib
from pathlib import Path

from . import shares, verification
from .allocators import solve_complete
from .allocators.pipeline import ALGORITHMS
from .errors import (
    InvalidConfigError,
    InvalidInstanceError,
    InvariantViolationError,
    OrdfairError,
    ParseError,
    PreconditionError,
    StructuralMismatchError,
    ZeroMaximinError,
)
from .model import (
    GENERATOR_FAMILIES,
    GeneratorConfig,
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
    _write(args.out, write_allocation(result.allocation))
    report_text = verification.write_report(result.report)
    if args.report:
        Path(args.report).write_text(report_text)
    print(report_text, end="")
    if args.trace:
        Path(args.trace).write_text(result.trace.to_text())
    return EXIT_OK if result.certified else EXIT_NOT_CERTIFIED


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
    alloc = read_allocation(Path(args.allocation).read_text())
    rep = verification.report(inst, alloc, args.d)
    text = verification.write_report(rep)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    required = [r.strip() for r in args.require.split(",") if r.strip()]
    ok = True
    for prop in required:
        if prop == "complete":
            ok &= rep.complete
        elif prop == "efx":
            ok &= rep.efx
        elif prop == "ef1":
            ok &= rep.ef1
        elif prop == "mms":
            ok &= all(v.ok for v in rep.mms)
        else:
            raise InvalidConfigError(f"unknown property {prop!r}")
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def cmd_mms(args: argparse.Namespace) -> int:
    inst = _read_instance_file(args.instance)
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


def cmd_experiment(args: argparse.Namespace) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise InvalidConfigError(f"unknown algorithm {a!r}")
    n_lo, n_hi = args.n_range
    m_lo, m_hi = args.m_range
    if n_lo > n_hi or m_lo > m_hi or args.count < 1:
        raise InvalidConfigError("empty experiment ranges")

    rows: list[tuple] = []
    stats = {a: {"run": 0, "certified": 0, "violations": 0} for a in algorithms}
    oracle_mismatches = 0
    solves = 0
    started = time.perf_counter()
    for n in range(n_lo, n_hi + 1):
        for m in range(m_lo, m_hi + 1):
            if m < 1 or (args.family == "top_n" and m < n):
                continue
            for index in range(args.count):
                seed = _instance_seed(args.seed, args.family, n, m, index)
                cfg = GeneratorConfig(
                    family=args.family, n=n, m=m, max_value=args.max_value, seed=seed
                )
                inst = generate(cfg)
                for algo in algorithms:
                    stats[algo]["run"] += 1
                    solves += 1
                    try:
                        result = solve_complete(inst, algo)
                        certified = result.certified
                        verdict = "certified" if certified else "uncertified"
                        rep = result.report
                        values = " ".join(
                            format_rational(v) for v in rep.bundle_values
                        )
                        taus = " ".join(
                            format_rational(t) for t in result.thresholds
                        )
                    except OrdfairError as exc:
                        certified = False
                        verdict = f"error:{type(exc).__name__}"
                        values = taus = ""
                    if certified:
                        stats[algo]["certified"] += 1
                    else:
                        stats[algo]["violations"] += 1
                    rows.append((seed, args.family, n, m, algo, verdict, values, taus))
                if args.oracle_limit and inst.m <= args.oracle_limit:
                    # The allocators and the verifier take their shares
                    # from thresholds, so that is the path cross-checked.
                    d = (3 * n + 1) // 2
                    shares_at_d = shares.thresholds(inst, d)
                    for i in inst.agents:
                        oracle = shares.mms_bruteforce(
                            inst, i, d, oracle_limit=args.oracle_limit
                        ).value
                        if shares_at_d[i] != oracle:
                            oracle_mismatches += 1
                            rows.append(
                                (seed, args.family, n, m, "mms-oracle",
                                 f"mismatch:agent{i}", "", "")
                            )
    total_elapsed = time.perf_counter() - started

    # Rows and summary are a pure function of the flags; timing goes to
    # stderr so repeated runs emit byte-identical reports.
    out_lines = ["seed,family,n,m,algorithm,verdict,values,thresholds"]
    for row in sorted(rows, key=lambda r: (r[0], r[4])):
        seed, family, n, m, algo, verdict, values, taus = row
        out_lines.append(
            f"{seed},{family},{n},{m},{algo},{verdict},{values},{taus}"
        )
    out_lines.append("")
    for algo in algorithms:
        s = stats[algo]
        out_lines.append(
            f"summary algorithm={algo} run={s['run']} "
            f"certified={s['certified']} violations={s['violations']}"
        )
    out_lines.append(f"summary oracle_mismatches={oracle_mismatches}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    mean = total_elapsed / solves if solves else 0.0
    print(
        f"runtime total={total_elapsed:.2f}s solves={solves} mean={mean * 1000:.1f}ms",
        file=sys.stderr,
    )
    bad = oracle_mismatches + sum(s["violations"] for s in stats.values())
    return EXIT_OK if bad == 0 else EXIT_NOT_CERTIFIED


def _range_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi or lo))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordfair",
        description="Fair division with ordinal maximin-share and envy guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded random instance")
    p.add_argument("--family", choices=GENERATOR_FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-value", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--d", type=int, action="append", default=[])
    p.add_argument(
        "--require",
        default="complete,ef1,mms",
        help="comma list of properties that must hold for exit 0",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mms", help="exact 1-out-of-d share of one agent")
    p.add_argument("instance")
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("normalize", help="write a d-normalized instance")
    p.add_argument("instance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("scale", "order"), default="scale")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("experiment", help="seeded batch run with verification")
    p.add_argument("--family", choices=GENERATOR_FAMILIES, required=True)
    p.add_argument("--n-range", type=_range_pair, required=True, metavar="LO:HI")
    p.add_argument("--m-range", type=_range_pair, required=True, metavar="LO:HI")
    p.add_argument("--count", type=int, default=10, help="instances per (n, m) cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-value", type=int, default=20)
    p.add_argument("--algorithms", default="a1", help="comma list from a1,a2,a3")
    p.add_argument(
        "--oracle-limit",
        type=int,
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
    except (
        InvalidConfigError,
        InvalidInstanceError,
        ParseError,
        PreconditionError,
        ZeroMaximinError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
