import math
import random

import pytest
from hypothesis import given, settings

from cbvcost import (
    Abs, App, BoundVar, FreeVar, MalformedThetaError,
    canonical_theta, check_theta, decode_theta, encode_theta, mr_normalize, parse_term,
    random_closed_term, theta_to_ascii, true_length,
)

from conftest import single_free_terms
from reference import ref_decode_theta

# the notation's symbols, their ASCII spellings and one foreign symbol
MUTATION_SYMBOLS = "λ@▶01L*x"


def rejection(read, s):
    """(message, position) of the MalformedThetaError that read(s) raises,
    or None when it accepts s."""
    try:
        read(s)
    except MalformedThetaError as e:
        return str(e), e.position
    return None


def single_symbol_mutations(s):
    """Every string one deletion, insertion or substitution away from s."""
    for i in range(len(s) + 1):
        if i < len(s):
            yield s[:i] + s[i + 1:]
        for c in MUTATION_SYMBOLS:
            yield s[:i] + c + s[i:]
            if i < len(s):
                yield s[:i] + c + s[i + 1:]


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
    assert rejection(decode_theta, "@λ▶0") == ("unexpected end of string (position 4)", 4)


def test_decode_rejects_trailing_symbols():
    assert rejection(decode_theta, "λ▶0λ▶0") == ("trailing symbols after a complete term (position 3)", 3)


def test_decode_rejects_leading_zero_index():
    assert rejection(decode_theta, "λλ▶01") == ("leading zero in index (position 3)", 3)


def test_decode_rejects_out_of_scope_index():
    assert rejection(decode_theta, "λ▶1") == ("index out of scope (position 1)", 1)


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


def test_readers_match_the_reference_on_mutated_encodings():
    rng = random.Random(28)
    strings = set()
    for _ in range(100):
        s = encode_theta(random_closed_term(rng, 24))
        strings.add(s)
        strings.update(single_symbol_mutations(s))
    accepted = 0
    for s in sorted(strings):
        expected = rejection(ref_decode_theta, s)
        for read in (check_theta, decode_theta, lambda s: mr_normalize(s, 1)):
            assert rejection(read, s) == expected, (read, s)
        if expected is None:
            accepted += 1
            assert decode_theta(s) == ref_decode_theta(s)
            assert check_theta(s) == canonical_theta(s)
    # both sides of the language are exercised
    assert 0 < accepted < len(strings)


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
