"""Acceptance gate: the quantitative claims, checked at desk scale.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Criterion 9 pins the swap combinator's application cost at the
documented constant 5; the measured weight is 4 (the unfolding takes four
steps, each substituting a value for a single occurrence, so each costs
exactly 1).  That check is therefore expected to stay red; the breakdown is
in its assertion message and the surrounding tests pin the measured value.
"""

import math
import random

import pytest

from cbvcost import (
    Abs, App, BoundVar, FreeVar, XiValue,
    Alphabet, apply_in_xi, build_append, build_combinator, build_convert,
    church_numeral, encode_string, encode_symbol, encode_theta,
    even_palindrome_machine, fixpoint_h, flip_machine, mr_normalize,
    normalize, pair, parse_term, project, random_closed_term, redex_path,
    run_compiled, simulate_tm, step_at, time_of, true_length,
)
from cbvcost.bench import make_normalizing_corpus

from reference import enumerate_closed_terms, find_redexes


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}{detail}")


def growth_term(n):
    return App(App(church_numeral(n), church_numeral(2)), FreeVar("c"))


def tower(k):
    t = BoundVar(0)
    for _ in range(k):
        t = Abs(t)
    return t


# --- 1 -----------------------------------------------------------------

def _enumerate_with_one_free(max_size, name="c"):
    """All well-scoped terms of bounded size over a single free name.

    The smallest closed term with two redexes has size 11, so an exhaustive
    diamond check needs either open terms (variables are values, so size 9
    suffices) or the closed sweep pushed to 11; this gate runs both.
    """
    memo = {}

    def terms_of(s, depth):
        key = (s, depth)
        if key in memo:
            return memo[key]
        acc = []
        if s == 1:
            acc = [BoundVar(i) for i in range(depth)] + [FreeVar(name)]
        else:
            acc.extend(Abs(b) for b in terms_of(s - 1, depth + 1))
            for left in range(1, s - 1):
                for f in terms_of(left, depth):
                    for a in terms_of(s - 1 - left, depth):
                        acc.append(App(f, a))
        memo[key] = acc
        return acc

    out = []
    for s in range(1, max_size + 1):
        out.extend(terms_of(s, 0))
    return out


def _duplicator(m, n):
    """(\\x.x...x) applied to (\\y.y...y); firing it costs 2mn - m - 2n - 2."""
    body = BoundVar(0)
    for _ in range(m - 1):
        body = App(body, BoundVar(0))
    arg = BoundVar(0)
    for _ in range(n - 1):
        arg = App(arg, BoundVar(0))
    return App(Abs(body), Abs(arg))


def test_01_one_step_diamond():
    """Distinct one-step reducts rejoin in one step, with swapped costs."""
    rng = random.Random(42)
    crafted = [App(_duplicator(m1, n1), _duplicator(m2, n2))
               for m1, n1 in ((2, 3), (3, 2), (3, 3), (2, 4))
               for m2, n2 in ((2, 2), (3, 4), (4, 2))]
    corpus = (_enumerate_with_one_free(10) + enumerate_closed_terms(11)
              + crafted + [random_closed_term(rng, 16) for _ in range(4000)])
    violations = []
    pairs = 0
    nontrivial = 0
    for t in corpus:
        if t.n_redexes < 2:
            continue
        reducts = [step_at(t, p) for p in find_redexes(t)]
        for i in range(len(reducts)):
            for j in range(i + 1, len(reducts)):
                n, cn = reducts[i]
                l, cl = reducts[j]
                if n == l:
                    continue
                pairs += 1
                if cn != cl or cn > 1:
                    nontrivial += 1
                joins_n = [step_at(n, p) for p in find_redexes(n)]
                joins_l = [step_at(l, p) for p in find_redexes(l)]
                if not any(p == q and cp == cl and cq == cn
                           for p, cp in joins_n for q, cq in joins_l):
                    violations.append(t)
    ok = not violations and pairs > 100 and nontrivial > 5
    _report(1, "one-step diamond with cost swap (exhaustive + random sweep)", ok,
            f" ({pairs} divergent pairs, {nontrivial} with non-unit costs)")
    assert ok, violations[:5]


# --- 2 -----------------------------------------------------------------

def _probe_steps(t, strategy, fuel, seed=17):
    """Step count if the strategy normalizes within fuel, else None.

    Detects constant-size loops early; a repeated term proves divergence.
    """
    rng = random.Random(seed) if strategy == "random" else None
    seen = {t}
    cur = t
    for i in range(fuel):
        n = cur.n_redexes
        if n == 0:
            return i
        if strategy == "leftmost":
            k = 0
        elif strategy == "rightmost":
            k = n - 1
        else:
            k = rng.randrange(n)
        cur, _ = step_at(cur, redex_path(cur, k))
        if cur in seen:
            return None
        seen.add(cur)
    return None if cur.n_redexes else fuel


def test_02_strategy_invariance():
    """Whenever any strategy normalizes, all three agree exactly."""
    rng = random.Random(42)
    fuel = 10_000
    strategies = ("leftmost", "rightmost", "random")
    checked = 0
    failures = []
    for _ in range(1000):
        t = random_closed_term(rng, 10)
        probes = {s: _probe_steps(t, s, fuel) for s in strategies}
        if all(v is None for v in probes.values()):
            continue
        if any(v is None for v in probes.values()):
            failures.append((t, "normalization disagreement", probes))
            continue
        outcomes = {s: normalize(t, s, fuel, seed=17) for s in strategies}
        nfs = {s: o.term for s, o in outcomes.items()}
        steps = {s: o.steps for s, o in outcomes.items()}
        costs = {s: o.trace.total_cost for s, o in outcomes.items()}
        if len(set(nfs.values())) != 1 or len(set(steps.values())) != 1 \
                or len(set(costs.values())) != 1:
            failures.append((t, steps, costs))
        checked += 1
    ok = not failures and checked > 400
    _report(2, "strategy invariance (1000 seeded terms, fuel 10^4)", ok,
            f" ({checked} normalizing terms, {len(failures)} violations)")
    assert ok, failures[:3]


# --- 3 -----------------------------------------------------------------

def test_03_exponential_cost_growth():
    """time(E_n) doubles per n while the step count stays affine in n."""
    times = {}
    steps = {}
    for n in range(4, 14):
        o = normalize(growth_term(n), "leftmost", 200_000)
        assert o.normalized
        times[n] = o.time()
        steps[n] = o.steps
    bad_ratios = []
    for n in range(5, 13):
        r = times[n + 1] / times[n]
        if not 1.8 <= r <= 2.2:
            bad_ratios.append((n, r))
    second_diffs = {steps[n + 2] - 2 * steps[n + 1] + steps[n] for n in range(4, 12)}
    ok = not bad_ratios and second_diffs == {0}
    _report(3, "exponential cost growth, affine step count", ok,
            f" (time ratios ok, step increments {sorted({steps[n+1]-steps[n] for n in range(4,13)})})")
    assert ok, (bad_ratios, second_diffs)


# --- 4 -----------------------------------------------------------------

def test_04_true_length_band():
    """Encoded length over size*log2(size) stays in a narrow band."""
    ratios = []
    n = 4
    while n <= 1024:
        body = BoundVar(n)
        for _ in range(n):
            body = App(body, BoundVar(n))
        for _ in range(n + 1):
            body = Abs(body)
        ratios.append(true_length(body) / (body.size * math.log2(body.size)))
        n *= 2
    ok = max(ratios) <= 3 * min(ratios)
    _report(4, "true-length growth band over the deep-binder family", ok,
            f" (band {min(ratios):.3f}..{max(ratios):.3f})")
    assert ok, ratios


# --- 5 -----------------------------------------------------------------

def _cost(t):
    o = normalize(t, "leftmost", 400_000)
    assert o.normalized
    return o.trace.total_cost


def test_05_append_convert_cost_shapes():
    """Exact shapes on the 0..8 grid: constant, affine in |u|, |v|-free."""
    ab = Alphabet("ab")

    def pat(k):
        return ("ab" * k)[:k]

    failures = []
    append_char = build_append(ab, "char")
    char_costs = {_cost(App(App(append_char, encode_symbol(ab, "a")),
                            encode_string(ab, pat(v)))) for v in range(9)}
    if len(char_costs) != 1:
        failures.append(f"append_char not constant: {sorted(char_costs)}")

    for kind in ("string", "reverse"):
        t = build_append(ab, kind)
        per_u = {}
        for ul in range(9):
            col = {_cost(App(App(t, encode_string(ab, pat(ul))),
                             encode_string(ab, pat(vl)))) for vl in range(9)}
            if len(col) != 1:
                failures.append(f"append_{kind} |u|={ul} depends on |v|: {sorted(col)}")
            per_u[ul] = col.pop()
        diffs = {per_u[k + 1] - per_u[k] for k in range(8)}
        if len(diffs) != 1:
            failures.append(f"append_{kind} not affine in |u|: {sorted(diffs)}")

    conv = build_convert(ab, ab, "string")
    conv_costs = [_cost(App(conv, encode_string(ab, pat(ul)))) for ul in range(9)]
    if len({b - a for a, b in zip(conv_costs, conv_costs[1:])}) != 1:
        failures.append(f"convert_string not affine in |u|: {conv_costs}")

    ok = not failures
    _report(5, "append/convert cost shapes on the 0..8 grid", ok)
    assert ok, failures


# --- 6 -----------------------------------------------------------------

def test_06_tm_simulation():
    """Compiled machines match the native simulator on every input <= 6."""
    failures = []
    for name, machine in (("flip", flip_machine()),
                          ("palindrome", even_palindrome_machine())):
        io = Alphabet(("0", "1"))
        ratios = []
        for n in range(7):
            for bits in range(2 ** n):
                u = format(bits, f"0{n}b") if n else ""
                run = run_compiled(machine, u, fuel=4_000_000)
                oracle = simulate_tm(machine, u)
                if run.output != project(oracle.output, io) or run.tm_steps != oracle.steps:
                    failures.append((name, u))
                ratios.append(run.lambda_cost / (run.tm_steps + len(u) + 1))
        if max(ratios) > 2 * min(ratios):
            failures.append((name, f"overhead band {min(ratios):.1f}..{max(ratios):.1f}"))
    ok = not failures
    _report(6, "machine compilation matches the oracle (inputs <= 6, 2x band)", ok)
    assert ok, failures[:5]


# --- 7 -----------------------------------------------------------------

def test_07_fixpoint_cost_affine():
    """Unfolding H N costs exactly |N| + 4 for closed values of size 5..50."""
    h = fixpoint_h()
    failures = []
    for k in range(4, 50):
        n_term = tower(k)  # size k + 1
        t = App(h, n_term)
        total = 0
        for _ in range(2):
            t, c = step_at(t, redex_path(t, 0))
            total += c
        if total != n_term.size + 4:
            failures.append((n_term.size, total))
    ok = not failures
    _report(7, "recursion-operator unfolding cost affine in |N| (sizes 5..50)", ok)
    assert ok, failures


# --- 8 -----------------------------------------------------------------

def _machine_r_stats(corpus, fuel):
    max_c = 0.0
    max_c2 = 0.0
    disagreements = []
    for t in corpus:
        engine = normalize(t, "leftmost", fuel)
        result = mr_normalize(encode_theta(t), fuel)
        if (not result.normalized or not engine.normalized
                or result.theta != encode_theta(engine.term)
                or len(result.iterations) != engine.steps):
            disagreements.append(t)
            continue
        for it in result.iterations:
            max_c = max(max_c, it.ops / (it.tl_before + it.tl_after) ** 2)
        time = engine.time()
        max_c2 = max(max_c2, result.op_count / time ** 4)
    return max_c, max_c2, disagreements


def test_08_machine_r_agreement_and_bounds():
    """Tape machine equals the engine; per-iteration and global bounds hold."""
    base = make_normalizing_corpus(seed=42, count=250, max_size=12, fuel=2000)
    doubled = make_normalizing_corpus(seed=43, count=250, max_size=24,
                                      min_size=13, fuel=2000)
    c_base, c2_base, dis_base = _machine_r_stats(base, 2500)
    c_dbl, c2_dbl, dis_dbl = _machine_r_stats(doubled, 2500)
    failures = []
    if dis_base or dis_dbl:
        failures.append(f"{len(dis_base) + len(dis_dbl)} terms disagree with the engine")
    # the bound constants must not blow up as corpus sizes double
    if c_dbl > 2 * c_base:
        failures.append(f"per-iteration constant grew {c_base:.3f} -> {c_dbl:.3f}")
    if c2_dbl > 2 * c2_base:
        failures.append(f"global constant grew {c2_base:.6f} -> {c2_dbl:.6f}")
    ok = not failures
    _report(8, "tape-machine agreement on 500 terms, bound constants stable", ok,
            f" (C {c_base:.3f}->{c_dbl:.3f}, C' {c2_base:.5f}->{c2_dbl:.5f})")
    assert ok, failures


# --- 9 -----------------------------------------------------------------

def test_09_pca_exact_costs():
    """Pinned combinator application costs over 50+ value triples."""
    rng = random.Random(42)
    values = [XiValue(parse_term(r"\x.x")), XiValue(parse_term(r"\x.\y.x")),
              XiValue(parse_term(r"\x.\y.y"))]
    while len(values) < 60:
        values.append(XiValue(tower(rng.randint(2, 99))))
    triples = [(rng.choice(values), rng.choice(values), rng.choice(values))
               for _ in range(55)]
    swap = build_combinator("swap")
    ident = build_combinator("id")
    ev = build_combinator("eval")
    cont = build_combinator("cont")
    assl = build_combinator("assl")
    tens = build_combinator("tens")
    conc = build_combinator("conc")
    curry = build_combinator("curry")
    failures = set()
    for v, u, w in triples:
        p = pair(v, u)
        got = apply_in_xi(swap, p)
        if got.result != pair(u, v):
            failures.add("swap value")
        if got.cost != 5:
            failures.add(f"swap cost: measured {got.cost}, pinned 5")
        if apply_in_xi(ident, v).cost != 1:
            failures.add("id cost != 1")
        direct = apply_in_xi(v, u)
        got = apply_in_xi(ev, p)
        if got.cost != 4 + direct.cost or got.result != direct.result:
            failures.add("eval overhead != 4")
        got = apply_in_xi(cont, v)
        if got.cost != max(1, v.term.size - 4) or got.result != pair(v, v):
            failures.add("contraction cost != max(1, |V| - 4)")
        # hand-verified golden constants for the remaining combinators
        got = apply_in_xi(assl, pair(v, pair(u, w)))
        if got.cost != 7 or got.result != pair(pair(v, u), w):
            failures.add("assl cost != 7")
        s1 = apply_in_xi(tens, v)
        s2 = apply_in_xi(s1.result, pair(u, w))
        if s1.cost != 1 or s2.cost != 5 + direct.cost or s2.result != pair(direct.result, w):
            failures.add("tens stage costs != (1, 5 + inner)")
        s1 = apply_in_xi(conc, pair(v, u))
        inner = apply_in_xi(u, w)
        outer = apply_in_xi(v, inner.result)
        s2 = apply_in_xi(s1.result, w)
        if s1.cost != 4 or s2.cost != 1 + inner.cost + outer.cost:
            failures.add("conc stage costs != (4, 1 + inner applications)")
        s1 = apply_in_xi(curry, v)
        s2 = apply_in_xi(s1.result, u)
        paired = apply_in_xi(v, pair(u, w))
        s3 = apply_in_xi(s2.result, w)
        if (s1.cost, s2.cost) != (1, 1) or s3.cost != 1 + paired.cost \
                or s3.result != paired.result:
            failures.add("curry stage costs != (1, 1, 1 + inner)")
    ok = not failures
    _report(9, "combinator application costs, exact over 55 triples", ok,
            "" if ok else f" ({'; '.join(sorted(failures))})")
    assert ok, sorted(failures)


# --- 10 ----------------------------------------------------------------

def test_10_closed_normal_forms_are_values():
    """Over all closed terms of size <= 9: normal form iff abstraction."""
    bad = [t for t in enumerate_closed_terms(9)
           if (t.n_redexes == 0) != (type(t) is Abs)]
    ok = not bad
    _report(10, "closed normal forms are exactly the abstractions (size <= 9)", ok)
    assert ok, bad[:5]
