"""Golden digests of every term the encodings and the TM compiler build.

Each digest is the sha256 of the string notations of a family of terms,
one per line.  They were recorded before the tuple and the cons cell were
each given one function, so any change in the shape of a compiled program,
a string combinator, a Scott string, a configuration or a pair shows here.
"""

import hashlib
import itertools

import pytest

from cbvcost import Alphabet, build_append, build_convert, encode_string, encode_theta
from cbvcost.pca import XiValue, build_combinator, pair
from cbvcost.turing import (
    TMConfig, build_function, encode_config, even_palindrome_machine, flip_machine,
)

ALPHABETS = [Alphabet("abcd"[:k]) for k in range(1, 5)]
# reordered and shifted alphabets, so conversions both permute and drop symbols
OTHER_ALPHABETS = [Alphabet("dcbe"[:k]) for k in range(1, 5)]


def _function_terms():
    for machine in (flip_machine(), even_palindrome_machine()):
        for io in ("01", "1", "10"):
            yield build_function(machine, Alphabet(io))


def _combinator_terms():
    for a in ALPHABETS:
        for kind in ("char", "string", "reverse"):
            yield build_append(a, kind)
    for src, dst in itertools.product(ALPHABETS, ALPHABETS + OTHER_ALPHABETS):
        for kind in ("char", "string"):
            yield build_convert(src, dst, kind)


def _string_terms():
    for a in ALPHABETS:
        for k in range(6):
            yield encode_string(a, "".join(a.symbols[(i * 3 + k) % len(a)] for i in range(k)))


def _config_terms():
    for machine in (flip_machine(), even_palindrome_machine()):
        for left, head, right in (("", "_", ""), ("01", "1", "0_1"), ("1_0", "0", "")):
            for state in machine.states:
                yield encode_config(machine, TMConfig(left, head, right, state))


def _pair_terms():
    values = [build_combinator(name) for name in ("id", "swap", "cont")]
    for v, u in itertools.product(values, values):
        yield pair(v, u).term
    yield pair(pair(values[0], values[1]), XiValue(encode_string(ALPHABETS[1], "ab"))).term


GOLDEN_SHA256 = {
    "build_function": "ff53e3b977b379c23c3b5d3929810b2827526e510a40665887a5b28edd3c0c40",
    "combinators": "dfd211ff43a61b1f81ef284f9b1ed087f76793bb16106c28670ef2c9b7675a65",
    "encode_string": "c3db06ba77ba47d4b71fb5ad4c30828deca1fc0d7a69d848189249237b8c39c8",
    "encode_config": "aac42b7a01b96fff3b025d082cb4b518d50a7f823040b7a5fb32926bdf162c75",
    "pair": "74b54ac3f14a139138347139088c6e880ea337a273b638a2797180d756bdd40f",
}

FAMILIES = {
    "build_function": _function_terms,
    "combinators": _combinator_terms,
    "encode_string": _string_terms,
    "encode_config": _config_terms,
    "pair": _pair_terms,
}


def _digest(terms) -> str:
    blob = "\n".join(encode_theta(t) for t in terms).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_built_terms_match_golden_digest(family):
    assert _digest(FAMILIES[family]()) == GOLDEN_SHA256[family]
