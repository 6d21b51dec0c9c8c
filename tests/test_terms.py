import contextlib
import signal
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbvcost import (
    Abs, App, BoundVar, FreeVar, ParseError,
    ap, free_names, fv, is_closed, is_value, lam, normalize, parse_term,
    print_term, size, substitute_top,
)

from conftest import terms
from reference import alpha_eq, is_well_scoped

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
    assert size(I) == 2
    assert size(parse_term(r"(\x.x)(\y.y)")) == 5
    assert size(parse_term(r"(\x.z x x x)(\y.\w.\u.u)")) == 13


def test_is_value():
    assert is_value(I)
    assert not is_value(parse_term(r"(\x.x)(\y.y)"))
    assert is_value(FreeVar("c"))
    assert is_value(BoundVar(3))


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


@contextlib.contextmanager
def _within_a_second():
    """Fail, rather than hang, when the body runs for more than a second."""
    def expire(signum, frame):
        raise AssertionError("took more than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_equality_is_linear_in_the_shared_dag():
    a, b = _doubling_normal_form(60), _doubling_normal_form(60)
    assert a is not b and a.size == 6 * 2 ** 60 - 4
    with _within_a_second():
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
    with _within_a_second():
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
    with _within_a_second():
        assert a != b
