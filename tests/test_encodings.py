import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbvcost import (
    Abs, App, BoundVar, Alphabet, NotAStringEncoding, UnknownSymbolError,
    ap, build_append, build_convert, church_numeral, decode_string,
    encode_string, encode_symbol, fixpoint_h, fv, is_closed, lam, normalize,
    parse_term, size,
)

from reference import find_redexes

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "costs.json").read_text())


def reduce_fully(t, fuel=300_000):
    o = normalize(t, "leftmost", fuel)
    assert o.normalized, "measurement term failed to normalize"
    return o


def cost_of(t, fuel=300_000):
    return reduce_fully(t, fuel).trace.total_cost


def test_encode_symbol_projections():
    tf = Alphabet(("t", "f"))
    assert encode_symbol(tf, "t") == parse_term(r"\a.\b.a")
    assert encode_symbol(tf, "f") == parse_term(r"\a.\b.b")
    assert encode_symbol(Alphabet(("t",)), "t") == parse_term(r"\a.a")


def test_encode_symbol_unknown():
    with pytest.raises(UnknownSymbolError):
        encode_symbol(Alphabet(("t", "f")), "g")


def test_encode_string_empty():
    ab = Alphabet("ab")
    assert encode_string(ab, "") == parse_term(r"\a.\b.\y.y")


def test_encode_string_cons():
    ab = Alphabet("ab")
    empty = encode_string(ab, "")
    assert encode_string(ab, "a") == Abs(Abs(Abs(App(BoundVar(2), empty))))


def test_encoding_depends_on_alphabet():
    assert encode_string(Alphabet("a"), "a") != encode_string(Alphabet("ab"), "a")


def test_decode_string_round_trip_exhaustive():
    bits = Alphabet("01")
    for n in range(5):
        for tup in itertools.product("01", repeat=n):
            u = "".join(tup)
            assert decode_string(bits, encode_string(bits, u)) == u


def test_decode_string_rejects_non_strings():
    with pytest.raises(NotAStringEncoding):
        decode_string(Alphabet("ab"), parse_term(r"\x.x"))


def test_decode_singleton_alphabet():
    a = Alphabet("a")
    assert decode_string(a, encode_string(a, "aaa")) == "aaa"


def test_church_numerals():
    assert church_numeral(0) == parse_term(r"\x.\y.y")
    assert church_numeral(2) == parse_term(r"\x.\y.x (x y)")
    sizes = [size(church_numeral(n)) for n in range(6)]
    assert {b - a for a, b in zip(sizes, sizes[1:])} == {2}


def test_fixpoint_shape():
    h = fixpoint_h()
    m = lam("x", lam("f", ap(fv("f"), lam("z", ap(fv("x"), fv("x"), fv("f"), fv("z"))))))
    assert h == App(m, m)
    assert find_redexes(h) == [()]  # H itself carries a root redex


def unfold_h_once(n_term):
    """Reduce H N by exactly two steps; returns (term, cost)."""
    from cbvcost import redex_path, step_at
    t = App(fixpoint_h(), n_term)
    total = 0
    for _ in range(2):
        t, c = step_at(t, redex_path(t, 0))
        total += c
    return t, total


def test_fixpoint_unfolds_to_applied_recursion():
    n = parse_term(r"\g.\y.y")
    unfolded, _ = unfold_h_once(n)
    h = fixpoint_h()
    assert unfolded == App(n, lam("z", ap(h, n, fv("z"))))


def test_fixpoint_discarding_function_normalizes():
    n = parse_term(r"\g.\y.y")
    o = reduce_fully(App(fixpoint_h(), n))
    v = parse_term(r"\q.\w.w q")
    assert reduce_fully(App(o.term, v)).term == v


def test_fixpoint_cost_affine_in_argument_size():
    first = GOLDEN["fixpoint_unfold"]["first_step"]
    for k in range(1, 30):
        n_term = parse_term(r"\g." + "\\h." * k + "h")
        _, cost = unfold_h_once(n_term)
        assert cost == first + max(1, size(n_term) - 4)


# --- append / convert families --------------------------------------------

AB = Alphabet("ab")


def pattern(k):
    return ("ab" * k)[:k]


def test_append_char_semantics_and_cost():
    t = build_append(AB, "char")
    assert is_closed(t) and t.is_value
    for u in ("", "b", "ab", "bba"):
        o = reduce_fully(ap(t, encode_symbol(AB, "a"), encode_string(AB, u)))
        assert decode_string(AB, o.term) == "a" + u
        assert o.trace.total_cost == GOLDEN["append_2_symbol_alphabet"]["char"]


def test_append_string_semantics():
    t = build_append(AB, "string")
    for u in ("", "a", "ab", "bab"):
        for v in ("", "b", "ab"):
            o = reduce_fully(ap(t, encode_string(AB, u), encode_string(AB, v)))
            assert decode_string(AB, o.term) == u + v


def test_append_reverse_semantics():
    t = build_append(AB, "reverse")
    o = reduce_fully(ap(t, encode_string(AB, "ab"), encode_string(AB, "c" * 0 + "b")))
    assert decode_string(AB, o.term) == "bab"
    for u in ("", "a", "abb"):
        for v in ("", "ba"):
            o = reduce_fully(ap(t, encode_string(AB, u), encode_string(AB, v)))
            assert decode_string(AB, o.term) == u[::-1] + v


def test_append_costs_affine_and_v_free():
    intercepts = {"string": GOLDEN["append_2_symbol_alphabet"]["string"],
                  "reverse": GOLDEN["append_2_symbol_alphabet"]["reverse"]}
    for kind, (a0, a1) in intercepts.items():
        t = build_append(AB, kind)
        for ul in range(7):
            expected = a0 + a1 * ul
            for vl in range(0, 7, 2):
                got = cost_of(ap(t, encode_string(AB, pattern(ul)),
                                 encode_string(AB, pattern(vl))))
                assert got == expected, (kind, ul, vl)


def test_convert_string_drops_foreign_symbols():
    src = Alphabet(("0", "1", "#"))
    dst = Alphabet(("0", "1"))
    t = build_convert(src, dst, "string")
    o = reduce_fully(App(t, encode_string(src, "0#1")))
    assert decode_string(dst, o.term) == "01"


def test_convert_string_identity_alphabet():
    t = build_convert(AB, AB, "string")
    a0, a1 = GOLDEN["append_2_symbol_alphabet"]["convert_identity"]
    for u in ("", "a", "ab", "bbaa"):
        o = reduce_fully(App(t, encode_string(AB, u)))
        assert decode_string(AB, o.term) == u
        assert o.trace.total_cost == a0 + a1 * len(u)


def test_convert_char_variants():
    src = Alphabet(("0", "1", "#"))
    dst = Alphabet(("0", "1"))
    t = build_convert(src, dst, "char")
    o = reduce_fully(App(t, encode_symbol(src, "1")))
    assert decode_string(dst, o.term) == "1"
    o = reduce_fully(App(t, encode_symbol(src, "#")))
    assert decode_string(dst, o.term) == ""


def test_builders_are_closed_and_kinds_checked():
    for kind in ("char", "string", "reverse"):
        assert is_closed(build_append(AB, kind))
    for kind in ("char", "string"):
        assert is_closed(build_convert(AB, AB, kind))
    with pytest.raises(ValueError):
        build_append(AB, "zip")
    with pytest.raises(ValueError):
        build_convert(AB, AB, "reverse")


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab", max_size=5), st.text(alphabet="ab", max_size=5))
def test_append_string_property(u, v):
    t = build_append(AB, "string")
    o = reduce_fully(ap(t, encode_string(AB, u), encode_string(AB, v)))
    assert decode_string(AB, o.term) == u + v
