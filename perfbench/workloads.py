"""The three benchmark workloads: seeded inputs, measured work, references.

Every workload calls cbvcost only through module attributes looked up at
call time (``turing.run_compiled``, ``reduction.normalize``, ...), so the
tracer's wrappers see the calls.  ``setup`` builds the inputs (machine
parsing, compilation, string and theta encoding); ``run`` is the measured
phase.  ``run`` returns one Item per input, carrying the model integers the
program reported and the mismatches an independent reference found.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from cbvcost import bench, encodings, machine_r, reduction, theta, turing
from cbvcost.terms import App

# MachineRBounds suite seeds the mr_bounds_suite cases rotate through.  At
# every one of them the divergence probe drives exactly one candidate through
# its full fuel, so each case does the same amount of work; README.md says
# how they were chosen.  The last one is the held-out case.
SUITE_SEEDS = (
    2, 11, 17, 21, 30, 41, 45, 58, 64, 84, 85, 89, 96, 109, 110, 112, 113,
    116, 120, 125, 127, 129, 130, 139, 145, 146, 148, 151, 152, 153, 155,
    157, 158,
)


@dataclass
class Item:
    label: str
    ints: dict[str, object]
    problems: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    items: list[Item]
    steps: int       # engine beta-steps plus machine-r iterations
    tape_ops: int    # machine-r op_count, 0 where machine-r does not run


@contextmanager
def tapped(module, attr: str, record):
    """Let `record(args, result)` see every call made through `module.attr`."""
    original = getattr(module, attr)

    def tap(*args, **kwargs):
        result = original(*args, **kwargs)
        record(args, result)
        return result

    setattr(module, attr, tap)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _flip_bit(u: str, i: int) -> str:
    return u[:i] + ("1" if u[i] == "0" else "0") + u[i + 1:]


# --- tm_palindrome ----------------------------------------------------------

def palindrome_inputs(case: int, bits: int, count: int) -> list[str]:
    """Even palindromes alternating with near-palindromes (one middle bit flipped)."""
    rng = random.Random(case)
    out = []
    for i in range(count):
        half = "".join(rng.choice("01") for _ in range(bits // 2))
        u = half + half[::-1]
        out.append(_flip_bit(u, bits // 2) if i % 2 else u)
    return out


def setup_tm_palindrome(case: int, tiny: bool):
    return turing.even_palindrome_machine(), palindrome_inputs(case, 4 if tiny else 40,
                                                               2 if tiny else 6)


def run_tm_palindrome(state) -> PassResult:
    machine, inputs = state
    # run_compiled keeps the reduction outcome to itself; the tap reads the
    # step count, weight and program size of its one normalize call per input
    seen = []
    items = []
    steps = 0
    with tapped(turing, "normalize", lambda args, outcome: seen.append((args[0], outcome))):
        for u in inputs:
            seen.clear()
            item = Item(u, {})
            items.append(item)
            try:
                run = turing.run_compiled(machine, u)
            except (turing.FuelExhausted, turing.OracleMismatchError) as e:
                item.problems.append(f"run_compiled raised {type(e).__name__}: {e}")
                continue
            term, outcome = seen[-1]
            steps += outcome.steps
            item.ints = {"beta_steps": outcome.steps, "weight": outcome.trace.total_cost,
                         "tm_steps": run.tm_steps, "program_size": term.fun.size}
            verdict = "1" if u == u[::-1] else "0"
            if run.output != verdict:
                item.problems.append(f"verdict {run.output!r}, expected {verdict!r}")
            oracle = turing.simulate_tm(machine, u)
            if run.tm_steps != oracle.steps:
                item.problems.append(f"tm_steps {run.tm_steps} != simulator {oracle.steps}")
            if run.lambda_cost != outcome.trace.total_cost:
                item.problems.append("lambda_cost differs from the reduction weight")
    return PassResult(items, steps, 0)


# --- mr_flip ----------------------------------------------------------------

def setup_mr_flip(case: int, tiny: bool):
    rng = random.Random(case)
    bits, count = (2, 1) if tiny else (8, 3)
    io_alphabet = encodings.Alphabet("01")
    program = turing.build_function(turing.flip_machine(), io_alphabet)
    cases = []
    for _ in range(count):
        u = "".join(rng.choice("01") for _ in range(bits))
        term = App(program, encodings.encode_string(io_alphabet, u))
        cases.append((u, term, theta.encode_theta(term)))
    return io_alphabet, program.size, cases


def run_mr_flip(state) -> PassResult:
    io_alphabet, program_size, cases = state
    items = []
    steps = tape_ops = 0
    for u, term, string in cases:
        result = machine_r.mr_normalize(string)
        engine = reduction.normalize(term, reduction.LEFTMOST)
        iterations = len(result.iterations)
        steps += engine.steps + iterations
        tape_ops += result.op_count
        item = Item(u, {"iterations": iterations, "tape_ops": result.op_count,
                        "beta_steps": engine.steps, "weight": engine.trace.total_cost,
                        "program_size": program_size})
        items.append(item)
        if not (result.normalized and engine.normalized):
            item.problems.append("machine-r or engine ran out of fuel")
            continue
        if result.theta != theta.encode_theta(engine.term):
            item.problems.append("machine-r and engine normal forms differ")
        if iterations != engine.steps:
            item.problems.append(f"{iterations} iterations != {engine.steps} engine steps")
        output = encodings.decode_string(io_alphabet, theta.decode_theta(result.theta))
        expected = "".join("1" if b == "0" else "0" for b in u)
        if output != expected:
            item.problems.append(f"output {output!r}, expected complement {expected!r}")
    return PassResult(items, steps, tape_ops)


# --- mr_bounds_suite ----------------------------------------------------------

def setup_mr_bounds_suite(case: int, tiny: bool):
    # tiny: a 6-term corpus at a suite seed with no long divergent probe
    return (0, 6) if tiny else (SUITE_SEEDS[case], 120)


def suite_csv(report) -> bytes:
    """The CSV bytes `cbvcost bench` writes for a suite report."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(report.header)
    writer.writerows(report.rows)
    return buf.getvalue().encode()


def run_mr_bounds_suite(state) -> PassResult:
    seed, count = state
    engine_steps = []
    # about 2000 engine calls per pass, nearly all one-step probe calls
    with tapped(bench, "normalize", lambda args, outcome: engine_steps.append(outcome.steps)):
        report = bench.suite_machine_r_bounds(seed, count)
    col = {name: i for i, name in enumerate(report.header)}
    iterations = sum(r[col["iterations"]] for r in report.rows)
    ops = sum(r[col["ops"]] for r in report.rows)
    item = Item(f"suite seed {seed}",
                {"csv_sha256": hashlib.sha256(suite_csv(report)).hexdigest(),
                 "rows": len(report.rows), "iterations": iterations, "tape_ops": ops},
                [f"suite assertion: {f}" for f in report.failures])
    return PassResult([item], sum(engine_steps) + iterations, ops)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    cases: int   # --seed selects case seed % cases


WORKLOADS = {
    "tm_palindrome": Workload(setup_tm_palindrome, run_tm_palindrome, 16),
    "mr_bounds_suite": Workload(setup_mr_bounds_suite, run_mr_bounds_suite, len(SUITE_SEEDS)),
    "mr_flip": Workload(setup_mr_flip, run_mr_flip, 16),
}


def check_pins(items: list[Item], pinned: dict | None) -> None:
    """Record every drift from the integers pinned at the seed commit."""
    if pinned is None:
        return
    for item in items:
        want = pinned.get(item.label)
        if want is None:
            item.problems.append("no pinned reference for this input")
            continue
        for key, value in want.items():
            if item.ints.get(key) != value:
                item.problems.append(f"{key} {item.ints.get(key)!r} != pinned {value!r}")
