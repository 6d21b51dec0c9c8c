import math

import pytest
from hypothesis import given, settings

from cbvcost import (
    Abs, App, BoundVar, FreeVar, MalformedThetaError,
    canonical_theta, decode_theta, encode_theta, parse_term,
    theta_to_ascii, true_length,
)

from conftest import single_free_terms


def test_encode_running_example():
    t = parse_term(r"(\x.x y)(\x.\y.\z.x)")
    assert encode_theta(t) == "@λ@▶0▶λλλ▶10"


def test_encode_identity():
    assert encode_theta(parse_term(r"\x.x")) == "λ▶0"


def test_encode_free_variable_is_bare_mark():
    assert encode_theta(FreeVar("c")) == "▶"


def test_binary_indices_no_leading_zeros():
    t = Abs(Abs(Abs(Abs(App(BoundVar(3), App(BoundVar(2), BoundVar(0)))))))
    assert encode_theta(t) == "λλλλ@▶11@▶10▶0"


def test_decode_identity():
    assert decode_theta("λ▶0") == parse_term(r"\x.x")


def test_decode_application():
    assert decode_theta("@λ▶0λ▶0") == parse_term(r"(\x.x)(\y.y)")


def test_decode_missing_argument():
    with pytest.raises(MalformedThetaError):
        decode_theta("@λ▶0")


def test_decode_rejects_trailing_symbols():
    with pytest.raises(MalformedThetaError):
        decode_theta("λ▶0λ▶0")


def test_decode_rejects_leading_zero_index():
    with pytest.raises(MalformedThetaError):
        decode_theta("λλ▶01")


def test_decode_rejects_out_of_scope_index():
    with pytest.raises(MalformedThetaError):
        decode_theta("λ▶1")


def test_decode_bare_marks_share_one_name():
    t = decode_theta("@▶▶")
    assert t == App(FreeVar("v"), FreeVar("v"))


def test_ascii_round_trip():
    assert canonical_theta("L*0") == "λ▶0"
    assert theta_to_ascii("λ▶0") == "L*0"
    assert decode_theta("L*0") == parse_term(r"\x.x")


def test_ascii_rejects_foreign_symbols():
    with pytest.raises(MalformedThetaError,
                       match=r"^symbol 'x' is not in the alphabet \(position 1\)$") as e:
        canonical_theta("Lx0")
    assert e.value.position == 1


@settings(max_examples=300)
@given(single_free_terms())
def test_codec_round_trip(t):
    s = encode_theta(t)
    assert decode_theta(s) == t
    assert encode_theta(decode_theta(s)) == s


def test_true_length_identity():
    assert true_length(parse_term(r"\x.x")) == 3


def test_true_length_running_example():
    t = parse_term(r"(\x.x y)(\x.\y.\z.x)")
    # one symbol per @, λ, ▶, 0, 1 in "@λ@▶0▶λλλ▶10"
    assert true_length(t) == len("@λ@▶0▶λλλ▶10") == 12


def deep_binder_family(n):
    """\\x.\\y1...\\yn. x x ... x with n+1 occurrences of x."""
    body = BoundVar(n)
    for _ in range(n):
        body = App(body, BoundVar(n))
    for _ in range(n + 1):
        body = Abs(body)
    return body


def test_true_length_family_grows_n_log_n():
    ratios = []
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        t = deep_binder_family(n)
        expected = (n + 1) + n + (n + 1) * (1 + n.bit_length())
        assert true_length(t) == expected
        ratios.append(true_length(t) / (t.size * math.log2(t.size)))
    assert max(ratios) <= 3 * min(ratios)


@settings(max_examples=200)
@given(single_free_terms())
def test_true_length_dominates_size(t):
    assert true_length(t) >= t.size
    c = 3.0
    assert true_length(t) <= c * t.size * (1 + math.log2(t.size))
