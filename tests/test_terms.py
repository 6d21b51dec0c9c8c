import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbvcost import (
    Abs, App, BoundVar, FreeVar, ParseError, TermError,
    ap, free_names, fv, is_closed, lam, normalize, parse_term, print_term,
    substitute_top,
)
from cbvcost.terms import instantiate

from conftest import terms, within_a_second
from reference import (
    alpha_eq, enumerate_closed_terms, is_well_scoped, ref_instantiate, ref_lam,
    ref_substitute_top,
)

I = Abs(BoundVar(0))


def test_parse_identity():
    assert parse_term(r"\x.x") == I


def test_parse_running_example():
    t = parse_term(r"(\x.x y)(\x.\y.\z.x)")
    expected = App(Abs(App(BoundVar(0), FreeVar("y"))),
                   Abs(Abs(Abs(BoundVar(2)))))
    assert t == expected


def test_parse_unclosed_abstraction_offset():
    with pytest.raises(ParseError) as e:
        parse_term(r"(\x.")
    assert e.value.position == 4


@pytest.mark.parametrize("text, message, offset", [
    ("", "expected a term", 0),
    ("a ()", "expected a term", 3),
    ("\\x x", "expected '.' after binder", 3),
    ("\\ .x", "expected an identifier", 2),
    ("(x y", "expected ')'", 4),
    ("x y) z", "unexpected input after term", 3),
    pytest.param("(" * 3000 + "x", "expected ')'", 3001, id="deep-unclosed"),
    pytest.param("(" * 3000 + "x" + ")" * 3001, "unexpected input after term", 6001,
                 id="deep-overclosed"),
    pytest.param("\\x." * 3000 + "(", "expected a term", 9001, id="deep-empty-body"),
])
def test_parse_error_offsets(text, message, offset):
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert str(e.value) == f"{message} (offset {offset})"
    assert e.value.position == offset


def test_parse_application_associates_left():
    assert parse_term("a b c") == App(App(FreeVar("a"), FreeVar("b")), FreeVar("c"))


def test_parse_lambda_body_extends_right():
    assert parse_term(r"\x.x x") == Abs(App(BoundVar(0), BoundVar(0)))


def test_parse_unicode_lambda():
    assert parse_term("λx.x") == I


def test_print_identity():
    assert print_term(I) == r"\x0.x0"


def test_print_application():
    assert print_term(App(I, FreeVar("c"))) == r"(\x0.x0) c"


def test_print_avoids_captured_free_names():
    t = Abs(App(BoundVar(0), FreeVar("x0")))
    again = parse_term(print_term(t))
    assert again == t


@settings(max_examples=300)
@given(terms())
def test_print_parse_round_trip(t):
    assert parse_term(print_term(t)) == t


def test_size_convention():
    assert I.size == 2
    assert parse_term(r"(\x.x)(\y.y)").size == 5
    assert parse_term(r"(\x.z x x x)(\y.\w.\u.u)").size == 13


def test_is_value():
    assert I.is_value
    assert not parse_term(r"(\x.x)(\y.y)").is_value
    assert FreeVar("c").is_value
    assert BoundVar(3).is_value


def test_substitute_identity_argument():
    v = parse_term(r"\y.y")
    assert substitute_top(BoundVar(0), v) == v


def test_substitute_multiple_occurrences():
    body = parse_term(r"(\x.z x x x)").body
    v = parse_term(r"\y.\w.\u.u")
    assert substitute_top(body, v) == ap(fv("z"), v, v, v)


def test_substitute_under_inner_binder():
    body = Abs(App(BoundVar(1), BoundVar(0)))
    got = substitute_top(body, FreeVar("c"))
    assert got == Abs(App(FreeVar("c"), BoundVar(0)))
    assert print_term(got) == r"\x0.c x0"


def test_print_rejects_a_dangling_index():
    # \x0.x0 would be the identity, a different term
    for t, index in ((Abs(BoundVar(1)), 1), (BoundVar(0), 0), (ap(fv("a"), BoundVar(3)), 3)):
        with pytest.raises(TermError, match=f"dangling de Bruijn index {index}$"):
            print_term(t)


def test_repr_of_a_dangling_index_gives_the_size():
    assert repr(BoundVar(0)) == "<term size=1>"
    assert repr(Abs(BoundVar(1))) == "<term size=2>"
    assert repr(Abs(BoundVar(0))) == r"<term \x0.x0>"


# --- the one substitution walk against the recursive references -------------

K = parse_term(r"\x.\y.x")
VALUES = ((), (fv("c"),), (K, I), (BoundVar(4), fv("a"), I))
NAME_MAPS = ({}, {"a": 0}, {"a": 1, "b": 0}, {"b": 2, "c": 0})
NAME_LISTS = (("a",), ("a", "b"), ("b", "a", "b"))


def _open_terms(t):
    """`t` under each count of its leading binders peeled off, then with
    indices 0 and 1 of each made the free names a and b: dangling indices,
    free names and both."""
    out = [t]
    while type(t) is Abs:
        t = t.body
        out.append(t)
    return out + [ref_instantiate(u, (fv("a"), fv("b")), {}) for u in out[1:]]


def _random_term(rng, budget, depth=0):
    """Up to two dangling indices past the binders, and free names a to d."""
    kind = rng.choice(("var", "abs", "app", "app") if budget >= 3 else
                      ("var", "abs") if budget == 2 else ("var",))
    if kind == "var":
        i = rng.randrange(depth + 2 + 4)
        return BoundVar(i) if i < depth + 2 else fv("abcd"[i - depth - 2])
    if kind == "abs":
        return Abs(_random_term(rng, budget - 1, depth + 1))
    split = rng.randint(1, budget - 2)
    return App(_random_term(rng, split, depth), _random_term(rng, budget - 1 - split, depth))


def _check_walk(t):
    for value in VALUES[1] + VALUES[2]:
        assert substitute_top(t, value) == ref_substitute_top(t, value)
    for values in VALUES:
        for names in NAME_MAPS:
            assert instantiate(t, values, names) == ref_instantiate(t, values, names)
    for names in NAME_LISTS:
        assert lam(*names, t) == ref_lam(*names, t)


def test_the_walk_matches_the_references_on_enumerated_terms():
    for t in enumerate_closed_terms(7):
        for u in _open_terms(t):
            _check_walk(u)


def test_the_walk_matches_the_references_on_random_terms():
    rng = random.Random(5)
    for _ in range(1500):
        _check_walk(_random_term(rng, rng.randint(1, 40)))


def test_substitute_top_shares_what_it_does_not_replace():
    closed = parse_term(r"\a.\b.a b")
    beyond = Abs(BoundVar(5))   # dangling past the one value
    body = ap(BoundVar(0), closed, ap(fv("y"), fv("z")), beyond)
    got = substitute_top(body, I)
    assert got == ap(I, closed, ap(fv("y"), fv("z")), beyond)
    assert got.fun.fun.fun is I
    assert got.fun.fun.arg is closed
    assert got.fun.arg is body.fun.arg
    assert got.arg is beyond
    assert substitute_top(closed, I) is closed


def test_lam_shares_what_it_does_not_bind():
    closed = parse_term(r"\a.\b.a b")
    body = ap(fv("x"), closed, ap(fv("y"), fv("z")))
    got = lam("x", body)
    assert got == Abs(ap(BoundVar(0), closed, ap(fv("y"), fv("z"))))
    assert got.body.fun.arg is closed
    assert got.body.arg is body.arg
    assert lam("q", body).body is body


def test_alpha_eq_is_structural():
    assert alpha_eq(parse_term(r"\x.x"), parse_term(r"\y.y"))
    assert not alpha_eq(parse_term(r"\x.\y.x"), parse_term(r"\x.\y.y"))


def test_closedness_and_scoping():
    assert is_closed(I)
    assert not is_closed(FreeVar("c"))
    assert is_well_scoped(FreeVar("c"))
    assert not is_well_scoped(BoundVar(0))


def test_free_names():
    assert free_names(parse_term(r"(\x.x y) z")) == {"y", "z"}


def test_builders_match_parser():
    built = lam("x", ap(fv("x"), lam("y", ap(fv("y"), fv("x")))))
    assert built == parse_term(r"\x.x (\y.y x)")


@settings(max_examples=200)
@given(terms())
def test_parse_print_preserves_scoping(t):
    assert is_well_scoped(t)
    assert is_well_scoped(parse_term(print_term(t)))


@settings(max_examples=300)
@given(terms(), st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=5))
def test_grouped_lam_equals_nested_lams(body, names):
    nested = body
    for name in reversed(names):
        nested = lam(name, nested)
    assert lam(*names, body) == nested


def test_grouped_lam_binds_a_repeated_name_innermost():
    assert lam("x", "y", "x", ap(fv("x"), fv("y"))) == parse_term(r"\a.\b.\c.c b")


def _doubling_normal_form(depth):
    """Normal form of D(D(...(D (\\z.z)))) with D = \\x.\\k.k x x: a tree of
    6 * 2^depth - 4 nodes that shares each argument in memory."""
    text = r"\z.z"
    for _ in range(depth):
        text = rf"(\x.\k.k x x) ({text})"
    outcome = normalize(parse_term(text), "leftmost", 1000)
    assert outcome.normalized
    return outcome.term


def test_equality_is_linear_in_the_shared_dag():
    a, b = _doubling_normal_form(60), _doubling_normal_form(60)
    assert a is not b and a.size == 6 * 2 ** 60 - 4
    with within_a_second():
        assert a == b


def _doubled(leaf, depth):
    t = leaf
    for _ in range(depth):
        t = Abs(ap(BoundVar(0), t, t))
    return t


def test_terms_differing_at_one_deep_leaf_are_unequal():
    # index 0 and the hash modulus hash alike, so neither the cached hash
    # nor the size tells these apart: the walk has to reach the leaf
    a = _doubled(BoundVar(0), 60)
    b = _doubled(BoundVar(sys.hash_info.modulus), 60)
    assert hash(a) == hash(b) and a.size == b.size
    with within_a_second():
        assert a != b
        assert not a == b
        assert _doubled(BoundVar(0), 60) == a


def test_a_shared_node_is_compared_with_each_partner():
    # the right-hand copy of `t` is compared first and matches; the left
    # one faces a tree that differs at one deep leaf
    t = _doubled(BoundVar(0), 60)
    a = App(t, t)
    b = App(_doubled(BoundVar(sys.hash_info.modulus), 60), _doubled(BoundVar(0), 60))
    assert hash(a) == hash(b)
    with within_a_second():
        assert a != b
