"""One-step diamond and strategy invariance at unit-test scale.

The smallest closed term with two redexes has size 11, so exhaustive
small-scope sweeps live in the acceptance module; here crafted instances
(including ones with asymmetric non-unit costs) and random terms keep the
checks fast but non-vacuous.
"""

import random

from cbvcost import normalize, parse_term, random_closed_term, step_at

from reference import find_redexes


def one_step_reducts(t):
    return [step_at(t, p) for p in find_redexes(t)]


def assert_diamond(t):
    """Every divergent reduct pair rejoins in one step with swapped costs."""
    reducts = one_step_reducts(t)
    checked = 0
    for i in range(len(reducts)):
        for j in range(i + 1, len(reducts)):
            n, cn = reducts[i]
            l, cl = reducts[j]
            if n == l:
                continue
            joins_n = one_step_reducts(n)
            joins_l = one_step_reducts(l)
            assert any(p == q and cp == cl and cq == cn
                       for p, cp in joins_n for q, cq in joins_l), t
            checked += 1
    return checked


def test_diamond_on_crafted_asymmetric_costs():
    # both sides duplicate arguments of different sizes: costs 2 and 3
    t = parse_term(r"((\x.x x)(\y.y y y))((\x.x x x)(\y.y y))")
    costs = sorted(c for _, c in one_step_reducts(t))
    assert costs == [2, 3]
    assert assert_diamond(t) == 1


def test_diamond_on_crafted_instances():
    for src in (
        r"((\x.x)(\y.y))((\x.x)(\y.y))",
        r"((\x.x) a)((\y.y) b)",
        r"((\x.x x)(\y.y))((\x.c)(\z.z))",
        r"((\x.x)((\y.y)(\z.z)))((\x.x)(\y.y))",
    ):
        t = parse_term(src)
        assert t.n_redexes >= 2
        assert assert_diamond(t) >= 1


def test_diamond_on_random_terms():
    rng = random.Random(31)
    checked = 0
    for _ in range(4000):
        t = random_closed_term(rng, 16)
        if t.n_redexes < 2:
            continue
        checked += assert_diamond(t)
    assert checked > 50


def test_strategy_invariance_small_corpus():
    rng = random.Random(99)
    agreed = 0
    for _ in range(150):
        t = random_closed_term(rng, 10)
        outcomes = [normalize(t, s, fuel=400, seed=13) for s in ("leftmost", "rightmost", "random")]
        if not any(o.normalized for o in outcomes):
            continue
        assert all(o.normalized for o in outcomes)
        assert outcomes[0].term == outcomes[1].term == outcomes[2].term
        assert len({o.steps for o in outcomes}) == 1
        assert len({o.trace.total_cost for o in outcomes}) == 1
        agreed += 1
    assert agreed > 50
