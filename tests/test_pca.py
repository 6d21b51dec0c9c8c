import json
import pathlib
import random

import pytest

from cbvcost import (
    Abs, BoundVar, XiValue, apply_in_xi, build_combinator, pair, parse_term,
)

from reference import unpair

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "costs.json").read_text())["pca"]

I = XiValue(parse_term(r"\x.x"))
K1 = XiValue(parse_term(r"\x.\y.x"))
K2 = XiValue(parse_term(r"\x.\y.y"))


def tower(k):
    """Closed value of size k + 1: k nested binders over the innermost variable."""
    t = BoundVar(0)
    for _ in range(k):
        t = Abs(t)
    return XiValue(t)


def pool(seed, n=12):
    rng = random.Random(seed)
    values = [I, K1, K2]
    while len(values) < n:
        values.append(tower(rng.randint(2, 60)))
    return values


def test_xi_value_validates():
    with pytest.raises(ValueError):
        XiValue(parse_term(r"(\x.x)(\y.y)"))  # not a value
    with pytest.raises(ValueError):
        XiValue(parse_term(r"\x.y"))  # not closed


def test_pair_shape_and_unpair():
    p = pair(I, K1)
    assert p.term == parse_term(r"\x.x (\a.a) (\a.\b.a)")
    v, u = unpair(p)
    assert v == I and u == K1
    with pytest.raises(ValueError):
        unpair(I)


def test_unknown_combinator():
    with pytest.raises(KeyError):
        build_combinator("flip")


def test_exact_combinator_sources():
    assert build_combinator("swap").term == parse_term(r"\x.x (\y.\w.\z.z w y)")
    assert build_combinator("cont").term == parse_term(r"\x.\y.y x x")
    assert build_combinator("eval").term == parse_term(r"\x.x (\y.\w.y w)")


def test_id_cost_and_value():
    for v in pool(1):
        r = apply_in_xi(build_combinator("id"), v)
        assert r.result == v and r.cost == GOLDEN["id"]


def test_swap_cost_and_value():
    swap = build_combinator("swap")
    for v, u in zip(pool(2), reversed(pool(3))):
        r = apply_in_xi(swap, pair(v, u))
        assert r.result == pair(u, v)
        assert r.cost == GOLDEN["swap"]


def test_swap_twice_is_identity():
    swap = build_combinator("swap")
    p = pair(K1, K2)
    assert apply_in_xi(swap, apply_in_xi(swap, p).result).result == p


def test_assl_cost_and_value():
    assl = build_combinator("assl")
    for v, u, w in zip(pool(4), pool(5), pool(6)):
        r = apply_in_xi(assl, pair(v, pair(u, w)))
        assert r.result == pair(pair(v, u), w)
        assert r.cost == GOLDEN["assl"]


def test_eval_is_application_with_constant_overhead():
    ev = build_combinator("eval")
    for v in (I, K1, K2):
        for u in pool(7, 6):
            direct = apply_in_xi(v, u)
            r = apply_in_xi(ev, pair(v, u))
            assert r.result == direct.result
            assert r.cost == GOLDEN["eval_overhead"] + direct.cost


def test_tens_stages():
    tens = build_combinator("tens")
    v, u, w = K1, tower(9), tower(4)
    stage1 = apply_in_xi(tens, v)
    assert stage1.cost == GOLDEN["tens_stage1"]
    direct = apply_in_xi(v, u)
    stage2 = apply_in_xi(stage1.result, pair(u, w))
    assert stage2.result == pair(direct.result, w)
    assert stage2.cost == GOLDEN["tens_stage2_overhead"] + direct.cost


def test_conc_composes_with_constant_overhead():
    conc = build_combinator("conc")
    v, u, w = K2, I, tower(7)
    stage1 = apply_in_xi(conc, pair(v, u))
    assert stage1.cost == GOLDEN["conc_stage1"]
    inner = apply_in_xi(u, w)
    outer = apply_in_xi(v, inner.result)
    stage2 = apply_in_xi(stage1.result, w)
    assert stage2.result == outer.result
    assert stage2.cost == GOLDEN["conc_stage2_overhead"] + inner.cost + outer.cost


def test_cont_duplicates_with_linear_cost():
    cont = build_combinator("cont")
    for v in pool(8):
        r = apply_in_xi(cont, v)
        assert r.result == pair(v, v)
        assert r.cost == max(1, v.term.size - 4)


def test_curry_stages_and_law():
    curry = build_combinator("curry")
    for v in (K1, K2):
        for x, z in ((I, K1), (tower(5), tower(12))):
            s1 = apply_in_xi(curry, v)
            assert s1.cost == GOLDEN["curry_stage1"]
            s2 = apply_in_xi(s1.result, x)
            assert s2.cost == GOLDEN["curry_stage2"]
            direct = apply_in_xi(v, pair(x, z))
            s3 = apply_in_xi(s2.result, z)
            assert s3.result == direct.result
            assert s3.cost == GOLDEN["curry_stage3_overhead"] + direct.cost


def test_undefined_application_within_fuel():
    delta = XiValue(parse_term(r"\x.x x"))
    assert apply_in_xi(delta, delta, fuel=500) is None
