"""Experiment suites behind the bench subcommand.

Every suite is deterministic given its seed, emits sorted CSV rows, and
returns a list of violated assertions (empty on success).  PcaCosts checks
the `id` and `swap` costs against the two reference constants below; the
tests pin every combinator's costs in tests/golden/costs.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .encodings import (
    Alphabet, build_append, build_convert, church_numeral, encode_string, encode_symbol,
)
from .machine_r import MachineRResult, mr_normalize
from .pca import apply_in_xi, build_combinator, pair, XiValue
from .reduction import LEFTMOST, ReductionOutcome, Zipper, is_redex, normalize, random_closed_term
from .terms import Abs, App, BoundVar, FreeVar, Term
from .theta import encode_theta
from .turing import even_palindrome_machine, flip_machine, run_compiled

# measured once, verified by hand against the unfolding of each combinator;
# every step substitutes a value for a variable occurring at most once, so
# each costs exactly 1 and the totals below are step counts
PCA_REFERENCE_COSTS = {"id": 1, "swap": 4}


@dataclass
class SuiteReport:
    header: list[str]
    rows: list[list]
    failures: list[str]


def growth_term(n: int) -> Term:
    """church(n) applied to church(2) applied to a free variable."""
    return App(App(church_numeral(n), church_numeral(2)), FreeVar("c"))


def suite_cost_growth(seed: int = 42) -> SuiteReport:
    fuel = 100_000
    rows = []
    failures = []
    times = {}
    steps = {}
    for n in range(4, 14):
        outcome = normalize(growth_term(n), LEFTMOST, fuel)
        if not outcome.normalized:
            failures.append(f"E_{n} did not normalize within fuel {fuel}")
            continue
        times[n] = outcome.time()
        steps[n] = outcome.steps
        ratio = times[n] / times[n - 1] if n - 1 in times else ""
        rows.append([n, steps[n], outcome.trace.total_cost, times[n],
                     f"{ratio:.6f}" if ratio != "" else ""])
        if n - 1 in times and 6 <= n <= 13 and not 1.8 <= ratio <= 2.2:
            failures.append(f"time ratio at n={n} is {ratio:.4f}, outside [1.8, 2.2]")
    # beta-step count must be exactly affine in n
    diffs = {n: steps[n] - steps[n - 1] for n in steps if n - 1 in steps}
    if len(set(diffs.values())) > 1:
        failures.append(f"step counts are not affine in n: increments {diffs}")
    return SuiteReport(["n", "steps", "total_cost", "time", "ratio"], rows, failures)


def _cost_of(t: Term) -> int:
    outcome = normalize(t, LEFTMOST, 200_000)
    if not outcome.normalized:
        raise RuntimeError("measurement term did not normalize")
    return outcome.trace.total_cost


def _pattern(k: int) -> str:
    return ("ab" * (k // 2 + 1))[:k]


def suite_append_costs(seed: int = 42) -> SuiteReport:
    max_len = 8
    a = Alphabet("ab")
    append_char = build_append(a, "char")
    append_string = build_append(a, "string")
    append_reverse = build_append(a, "reverse")
    convert = build_convert(a, a, "string")
    rows = []
    failures = []
    char_costs = set()
    by_op: dict[str, dict[int, set[int]]] = {"string": {}, "reverse": {}}
    convert_costs = {}
    for ul in range(max_len + 1):
        u = _pattern(ul)
        cost = _cost_of(App(convert, encode_string(a, u)))
        convert_costs[ul] = cost
        rows.append(["convert_string", "ab", ul, "", cost])
        for vl in range(max_len + 1):
            v = _pattern(vl)
            c_char = _cost_of(App(App(append_char, encode_symbol(a, "a")),
                                  encode_string(a, v))) if ul == 0 else None
            if ul == 0:
                char_costs.add(c_char)
                rows.append(["append_char", "ab", "", vl, c_char])
            for name, term in (("string", append_string), ("reverse", append_reverse)):
                c = _cost_of(App(App(term, encode_string(a, u)), encode_string(a, v)))
                by_op[name].setdefault(ul, set()).add(c)
                rows.append([f"append_{name}", "ab", ul, vl, c])
    if len(char_costs) != 1:
        failures.append(f"append_char cost is not constant: {sorted(char_costs)}")
    for name, table in by_op.items():
        per_u = {}
        for ul, costs in table.items():
            if len(costs) != 1:
                failures.append(f"append_{name} cost at |u|={ul} depends on |v|: {sorted(costs)}")
            per_u[ul] = min(costs)
        incs = {per_u[k] - per_u[k - 1] for k in per_u if k - 1 in per_u}
        if len(incs) != 1:
            failures.append(f"append_{name} cost is not affine in |u|: increments {sorted(incs)}")
    incs = {convert_costs[k] - convert_costs[k - 1] for k in convert_costs if k - 1 in convert_costs}
    if len(incs) != 1:
        failures.append(f"convert_string cost is not affine in |u|: increments {sorted(incs)}")
    rows.sort(key=lambda r: (r[0], str(r[2]), str(r[3])))
    return SuiteReport(["operation", "alphabet", "u_len", "v_len", "cost"], rows, failures)


def suite_tm_overhead(seed: int = 42) -> SuiteReport:
    rng = random.Random(seed)
    rows = []
    failures = []
    for name, machine in (("flip", flip_machine()), ("palindrome", even_palindrome_machine())):
        ratios = []
        inputs = [""]
        for k in range(1, 7):
            inputs.append("".join(rng.choice("01") for _ in range(k)))
        for u in inputs:
            run = run_compiled(machine, u, 2_000_000)
            ratios.append(run.cost_per_step)
            rows.append([name, u, run.tm_steps, run.lambda_cost, f"{run.cost_per_step:.4f}"])
        if max(ratios) > 2 * min(ratios):
            failures.append(f"{name}: per-step overhead varies more than 2x "
                            f"({min(ratios):.2f}..{max(ratios):.2f})")
    return SuiteReport(["machine", "input", "tm_steps", "lambda_cost", "cost_per_step"],
                       rows, failures)


def normalizes_within(t: Term, fuel: int, size_limit: int) -> bool:
    """The divergence probe: True when leftmost reduction of `t` reaches a
    normal form in fewer than `fuel` steps with no term larger than
    `size_limit`.

    Two proofs of divergence stop it early; neither changes a decision,
    since the probe answers False for every divergent term anyway.  A
    repeated term is one: Brent's cycle detection (BIT 1980) finds one
    while keeping a single checkpoint, the term at step 1, 2, 4, ...; the
    whole term is rebuilt only when its size equals the checkpoint's, so
    the probe runs in memory bounded by the largest term.

    A term that pumps is the other.  `common` is the longest common
    prefix of the position codes fired since the checkpoint; every step
    since lay under it, so the old checkpoint is E[s] with s its subterm
    at `common`, and s reduced to the new subterm there.  If the new
    subterm holds s again on its leftmost path (into the function while
    it holds a redex, else into the argument), it is C[s] with C's hole
    neither under a binder nor right of a redex, and every term from s on
    holds a redex; so C[s] reduces to C[C[s]], and so on without end.
    `_pumps` checks this at each checkpoint.
    """
    z = Zipper(t)
    mark, mark_step = t, 1
    common = 0
    for step in range(1, fuel + 1):
        if z.n_redexes == 0:
            return True
        code = z.fire(0)
        if z.size > size_limit or (z.size == mark.size and z.term() == mark):
            return False
        if common:
            # align the two codes, then drop the bits after the first
            # that differs
            shift = common.bit_length() - code.bit_length()
            if shift > 0:
                common >>= shift
            else:
                code >>= -shift
            common >>= (common ^ code).bit_length()
        else:
            common = code
        if step == mark_step:
            new = z.term()
            if _pumps(_subterm(mark, common), _subterm(new, common)):
                return False
            mark, mark_step, common = new, 2 * mark_step, 0
    return False


def _subterm(t: Term, code: int) -> Term:
    """The subterm of `t` at the position code `code`."""
    for bit in bin(code)[3:]:
        t = t.arg if bit == "1" else t.fun
    return t


def _pumps(s: Term, node: Term) -> bool:
    """Whether `s` occurs on the leftmost path of `node`: into the function
    while it holds a redex, else into the argument, down to a redex or a
    term that is not an application."""
    while True:
        if node.size == s.size and node == s:
            return True
        if type(node) is not App or is_redex(node):
            return False
        node = node.fun if node.fun.n_redexes else node.arg


def make_normalizing_corpus(seed: int, count: int, max_size: int,
                            min_size: int = 2, fuel: int = 1500) -> list[Term]:
    """Seeded closed terms that provably normalize within `fuel` steps."""
    rng = random.Random(seed)
    corpus: list[Term] = []
    attempts = 0
    while len(corpus) < count and attempts < count * 400:
        attempts += 1
        t = random_closed_term(rng, max_size)
        if min_size <= t.size <= max_size and normalizes_within(t, fuel, 50_000):
            corpus.append(t)
    if len(corpus) < count:
        raise RuntimeError(f"could not build corpus: {len(corpus)}/{count}")
    return corpus


def agrees_with_engine(result: MachineRResult, engine: ReductionOutcome) -> bool:
    """The machine-vs-engine cross-check: both reached a normal form, the
    same string, with one machine iteration per leftmost β-step."""
    return (result.normalized and engine.normalized
            and result.theta == encode_theta(engine.term)
            and len(result.iterations) == engine.steps)


def _machine_r_scale(corpus):
    fuel = 4000
    max_c = 0.0
    max_c2 = 0.0
    rows = []
    for i, t in enumerate(corpus):
        engine = normalize(t, LEFTMOST, fuel)
        result = mr_normalize(encode_theta(t), fuel)
        agree = agrees_with_engine(result, engine)
        c_here = 0.0
        for it in result.iterations:
            c_here = max(c_here, it.ops / (it.tl_before + it.tl_after) ** 2)
        time = engine.time()
        c2_here = result.op_count / time ** 4 if time else 0.0
        max_c = max(max_c, c_here)
        max_c2 = max(max_c2, c2_here)
        rows.append([i, t.size, len(result.iterations), result.op_count,
                     time, f"{c_here:.4f}", f"{c2_here:.6f}", agree])
    return rows, max_c, max_c2


def suite_machine_r_bounds(seed: int = 42, count: int = 120) -> SuiteReport:
    base = make_normalizing_corpus(seed, count, max_size=12)
    doubled = make_normalizing_corpus(seed + 1, count // 2, max_size=24, min_size=13)
    failures = []
    rows = []
    rows_a, c_a, c2_a = _machine_r_scale(base)
    rows_b, c_b, c2_b = _machine_r_scale(doubled)
    for scale, batch in (("base", rows_a), ("doubled", rows_b)):
        for r in batch:
            if r[-1] is not True:
                failures.append(f"{scale} term #{r[0]}: machine and engine disagree")
            rows.append([scale] + r[:-1])
    # the quadratic/quartic bound constants must not blow up as sizes double;
    # c_a is 0 when no base term iterates, and then there is nothing to compare
    if c_a and c_b > 2 * c_a:
        failures.append(f"per-iteration constant grew more than 2x: {c_a:.3f} -> {c_b:.3f}")
    if c2_b > 2 * c2_a:
        failures.append(f"global constant grew more than 2x: {c2_a:.6f} -> {c2_b:.6f}")
    return SuiteReport(
        ["scale", "term", "size", "iterations", "ops", "time", "max_c_iter", "c_global"],
        rows, failures)


def _value_pool(seed: int) -> list[XiValue]:
    """Closed values of assorted sizes whose applications always normalize."""
    rng = random.Random(seed)
    pool = [XiValue(Abs(BoundVar(0)))]
    while len(pool) < 10:
        body: Term = BoundVar(0)
        for _ in range(rng.randint(1, 40)):
            body = Abs(body)
        pool.append(XiValue(Abs(body)))  # constant-like: ignores or rebinds
    return pool


def suite_pca_costs(seed: int = 42) -> SuiteReport:
    rows = []
    failures = []
    pool = _value_pool(seed)
    rng = random.Random(seed)
    swap = build_combinator("swap")
    ident = build_combinator("id")
    for i in range(12):
        v = rng.choice(pool)
        u = rng.choice(pool)
        p = pair(v, u)
        c_swap = apply_in_xi(swap, p).cost
        c_id = apply_in_xi(ident, v).cost
        rows.append(["swap", i, c_swap])
        rows.append(["id", i, c_id])
        if c_swap != PCA_REFERENCE_COSTS["swap"]:
            failures.append(f"swap cost {c_swap} != {PCA_REFERENCE_COSTS['swap']}")
        if c_id != PCA_REFERENCE_COSTS["id"]:
            failures.append(f"id cost {c_id} != {PCA_REFERENCE_COSTS['id']}")
    return SuiteReport(["combinator", "case", "cost"], rows, failures)


SUITES = {
    "CostGrowth": suite_cost_growth,
    "AppendCosts": suite_append_costs,
    "TmOverhead": suite_tm_overhead,
    "MachineRBounds": suite_machine_r_bounds,
    "PcaCosts": suite_pca_costs,
}
