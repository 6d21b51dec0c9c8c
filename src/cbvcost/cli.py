"""Command-line front end.

Subcommands: normalize, run-tm, compile-tm, machine-r, encode, bench.
Exit codes: 0 success, 1 malformed input (including a machine file that
cannot be read, is not UTF-8 or is malformed, reported with its name, and
an `--out` that cannot be written), usage error or failed suite
assertion, 2 fuel exhausted or, for machine-r, tape budget exhausted (the
run still prints its counters and writes --out), 3 cross-check mismatch.
Each command runs straight through; `main` alone maps the exceptions in
`_EXIT_CODES` to codes, and any other exception is a bug and propagates.
All randomness is drawn from --seed, so outputs (including CSV files) are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import bench
from .encodings import Alphabet, church_numeral, encode_string
from .machine_r import TAPE_LIMIT, MachineRError, mr_normalize
from .reduction import DEFAULT_FUEL, LEFTMOST, STRATEGIES, normalize, write_trace_csv
from .terms import TermError, free_names, parse_term, print_term
from .theta import MARK, MalformedThetaError, canonical_theta, encode_theta, theta_to_ascii
from .turing import FuelExhausted, OracleMismatchError, TMDefinitionError, parse_tm, run_compiled, simulate_tm

OK, BAD_INPUT, OUT_OF_FUEL, MISMATCH = 0, 1, 2, 3

# the one failure policy: `main` exits with the code of the nearest class
_EXIT_CODES = {
    FuelExhausted: OUT_OF_FUEL,
    OracleMismatchError: MISMATCH,
    TermError: BAD_INPUT,
    MachineRError: BAD_INPUT,
    TMDefinitionError: BAD_INPUT,
    OSError: BAD_INPUT,           # unreadable machine file, unwritable --out
    ValueError: BAD_INPUT,        # includes any fault in a machine file
    RuntimeError: BAD_INPUT,      # a suite's corpus builder or measurement
}

# a printed term or string notation longer than this is shown as its size
PRINT_LIMIT = 10_000


def _capped(size: int, unit: str, render) -> str:
    """render(), or just the size when it is more than PRINT_LIMIT."""
    if size > PRINT_LIMIT:
        return f"{size} {unit}, not printed (more than {PRINT_LIMIT})"
    return render()


def cmd_normalize(args) -> int:
    term = parse_term(args.term)
    outcome = normalize(term, args.strategy, args.fuel, args.seed)
    if outcome.normalized:
        nf = outcome.term
        print(f"normal form: {_capped(nf.size, 'nodes', lambda: print_term(nf))}")
    else:
        print(f"no normal form within {args.fuel} steps")
    print(f"steps: {outcome.steps}")
    print(f"cost: {outcome.trace.total_cost}")
    if outcome.normalized:
        print(f"time: {outcome.time()}")
    if args.out:
        with open(args.out, "w", newline="") as fp:
            write_trace_csv(outcome.trace, fp)
        print(f"trace written to {args.out}")
    return OK if outcome.normalized else OUT_OF_FUEL


def _load_machine(path: str):
    """The machine described in file `path`; a fault in the file is
    reported with its name (a missing file's OSError names it already)."""
    with open(path, encoding="utf-8") as fp:
        try:
            return parse_tm(fp.read())
        except (UnicodeDecodeError, TMDefinitionError) as e:
            raise ValueError(f"{path}: {e}") from None


def cmd_run_tm(args) -> int:
    run = simulate_tm(_load_machine(args.machine), args.input, args.fuel)
    if run.halted:
        print(f"output: {run.output}")
    else:
        print(f"machine did not halt within {args.fuel} steps")
    print(f"steps: {run.steps}")
    return OK if run.halted else OUT_OF_FUEL


def cmd_compile_tm(args) -> int:
    run = run_compiled(_load_machine(args.machine), args.input, args.fuel)
    print(f"output: {run.output}")
    print(f"lambda cost: {run.lambda_cost}")
    print(f"machine steps: {run.tm_steps}")
    print(f"cost per step: {run.cost_per_step:.4f}")
    return OK


def _write_report(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_machine_r(args) -> int:
    text = args.input
    cross_check = None
    try:
        theta = canonical_theta(text)
    except MalformedThetaError:  # a symbol outside the notation
        theta = ""
    # every complete string has a ▶; `L` and `L0` are names
    if MARK not in theta:
        term = parse_term(text)
        if len(free_names(term)) > 1:
            print("warning: several distinct free variables; the encoding "
                  "erases their identity", file=sys.stderr)
        theta = encode_theta(term)
        cross_check = term
    result = mr_normalize(theta, args.fuel)
    if result.normalized:
        out = result.theta
        print(f"output: {_capped(len(out), 'symbols', lambda: theta_to_ascii(out))}")
    elif result.reason == "fuel":
        print(f"no normal form within {args.fuel} iterations")
    else:
        print(f"no normal form within the tape limit of {TAPE_LIMIT} symbols")
    print(f"iterations: {len(result.iterations)}")
    print(f"tape operations: {result.op_count}")
    if args.out:
        _write_report(args.out, ["iteration", "tl_before", "tl_after", "ops"],
                      [(i, it.tl_before, it.tl_after, it.ops)
                       for i, it in enumerate(result.iterations, 1)])
        print(f"iteration log written to {args.out}")
    if cross_check is not None and result.normalized:
        # k machine iterations agree only with k engine steps, and k <= fuel
        engine = normalize(cross_check, LEFTMOST, args.fuel)
        if not bench.agrees_with_engine(result, engine):
            raise OracleMismatchError("tape machine and reduction engine disagree")
        print("engine cross-check: ok")
    return OK if result.normalized else OUT_OF_FUEL


def cmd_encode(args) -> int:
    if args.alphabet is not None and args.scott is None:
        args.usage_error("--alphabet is read only with --scott")
    if args.theta is not None:
        theta = encode_theta(parse_term(args.theta))
        print(_capped(len(theta), "symbols", lambda: theta_to_ascii(theta)))
        return OK
    if args.church is not None:
        n = args.church
        # church_numeral(n) has 2n + 3 nodes: size it before building it
        print(_capped(2 * n + 3, "nodes", lambda: print_term(church_numeral(n))))
        return OK
    alphabet = "0,1" if args.alphabet is None else args.alphabet
    term = encode_string(Alphabet(alphabet.split(",")), args.scott)
    print(_capped(term.size, "nodes", lambda: print_term(term)))
    return OK


def cmd_bench(args) -> int:
    report = bench.SUITES[args.suite](args.seed)
    out = args.out or f"bench_{args.suite.lower()}.csv"
    _write_report(out, report.header, report.rows)
    print(f"{len(report.rows)} rows written to {out}")
    if report.failures:
        for failure in report.failures:
            print(f"violation: {failure}", file=sys.stderr)
        return BAD_INPUT
    print("all suite assertions hold")
    return OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as argparse's 2 means fuel exhausted here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cbvcost",
        description="Call-by-value lambda calculus workbench with the "
                    "size-difference cost model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce a term and report steps, cost and time")
    p.add_argument("term")
    p.add_argument("--strategy", choices=STRATEGIES, default=LEFTMOST)
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, metavar="N")
    p.add_argument("--seed", type=int, default=42, metavar="N")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("run-tm", help="run a machine natively (the oracle)")
    p.add_argument("machine", help="machine description file")
    p.add_argument("input")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, metavar="N")
    p.set_defaults(func=cmd_run_tm)

    p = sub.add_parser("compile-tm", help="compile a machine to a term, run and cross-check")
    p.add_argument("machine")
    p.add_argument("input")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, metavar="N")
    p.set_defaults(func=cmd_compile_tm)

    p = sub.add_parser("machine-r", help="normalize on the nine-tape string machine")
    p.add_argument("input", help="surface-syntax term or raw string notation (L for λ, * for ▶)")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, metavar="N")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_machine_r)

    p = sub.add_parser("encode", help="encoding helpers")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--church", type=int, metavar="N")
    group.add_argument("--scott", metavar="TEXT")
    group.add_argument("--theta", metavar="TERM", help="print the string notation of a term")
    p.add_argument("--alphabet", metavar="A,B,...", help="the --scott alphabet (default 0,1)")
    p.set_defaults(func=cmd_encode, usage_error=p.error)

    p = sub.add_parser("bench", help="run an experiment suite and write its CSV report")
    p.add_argument("suite", choices=bench.SUITES)
    p.add_argument("--seed", type=int, default=42, metavar="N")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(e).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
