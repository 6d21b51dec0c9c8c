import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbvcost import (
    Abs, Alphabet, App, BoundVar, FreeVar, InvalidPositionError, ap,
    build_function, church_numeral, encode_string, even_palindrome_machine,
    flip_machine, normalize, parse_term, random_closed_term, redex_path,
    size, step_at, time_of, write_trace_csv,
)
from cbvcost.reduction import Zipper

from conftest import terms, within_a_second
from reference import enumerate_closed_terms, find_redexes, subterm_at, zipper_leftmost

OMEGA = parse_term(r"(\x.x x)(\x.x x)")


def growth_term(n):
    return App(App(church_numeral(n), church_numeral(2)), FreeVar("c"))


def test_no_redex_under_binder():
    assert find_redexes(parse_term(r"\x.(\y.y) x")) == []


def test_single_redex_inner_argument():
    t = parse_term(r"(\x.x)((\y.y)(\z.z))")
    assert find_redexes(t) == [("A",)]


def test_two_redexes_left_to_right():
    t = parse_term(r"((\x.x)(\y.y))((\x.x)(\y.y))")
    assert find_redexes(t) == [("F",), ("A",)]


def test_redex_path_matches_find_redexes(rng):
    for _ in range(200):
        t = random_closed_term(rng, 12)
        paths = find_redexes(t)
        assert t.n_redexes == len(paths)
        assert [redex_path(t, k) for k in range(len(paths))] == paths


def test_step_at_root():
    t = parse_term(r"(\x.x)(\y.y)")
    reduct, cost = step_at(t, ())
    assert reduct == parse_term(r"\y.y")
    assert cost == 1  # sizes 5 -> 2, growth charge floors at 1


def test_step_at_growing_redex():
    t = parse_term(r"(\x.z x x x)(\y.\w.\u.u)")
    reduct, cost = step_at(t, ())
    assert size(reduct) == 16
    assert cost == 3


def test_step_at_invalid_position():
    with pytest.raises(InvalidPositionError):
        step_at(parse_term(r"\x.x"), ())
    with pytest.raises(InvalidPositionError):
        step_at(parse_term(r"(\x.x)(\y.y)"), ("F",))


def test_subterm_at():
    t = parse_term(r"(\x.x)((\y.y)(\z.z))")
    assert subterm_at(t, ("A",)) == parse_term(r"(\y.y)(\z.z)")


def test_normalize_identity_application():
    for strategy in ("leftmost", "rightmost", "random"):
        o = normalize(parse_term(r"(\x.x)(\y.y)"), strategy)
        assert o.normalized and o.steps == 1 and o.trace.total_cost == 1
        assert o.term == parse_term(r"\y.y")


def test_normalize_divergent_exhausts_fuel():
    o = normalize(OMEGA, "leftmost", fuel=1000)
    assert not o.normalized
    assert o.steps == 1000
    assert o.time() is None


def test_normal_form_reached_with_the_last_unit_of_fuel():
    for strategy in ("leftmost", "rightmost", "random"):
        o = normalize(parse_term(r"(\x.x)(\y.y)"), strategy, fuel=1)
        assert o.normalized and o.steps == 1 and o.time() == 6
    o = normalize(parse_term(r"(\x.x)((\x.x)(\y.y))"), "leftmost", fuel=1)
    assert not o.normalized and o.steps == 1 and o.time() is None


def test_strategies_agree_on_growth_term():
    left = normalize(growth_term(3), "leftmost")
    right = normalize(growth_term(3), "rightmost")
    rand = normalize(growth_term(3), "random", seed=7)
    assert left.term == right.term == rand.term
    assert left.steps == right.steps == rand.steps == 5
    assert left.trace.total_cost == right.trace.total_cost == rand.trace.total_cost


def test_time_of_values_is_their_size():
    for src in (r"\x.x", r"\x.\y.x y"):
        t = parse_term(src)
        assert time_of(t) == size(t)


def test_time_of_identity_application():
    assert time_of(parse_term(r"(\x.x)(\y.y)")) == 6


def test_growth_term_time_doubles():
    times = {n: time_of(growth_term(n)) for n in (6, 7, 8)}
    assert 1.8 <= times[7] / times[6] <= 2.2
    assert 1.8 <= times[8] / times[7] <= 2.2


def test_trace_replay_is_sound(rng):
    for _ in range(80):
        t = random_closed_term(rng, 10)
        o = normalize(t, "leftmost", fuel=300)
        cur, prev_size = t, size(t)
        for step in o.trace.steps:
            cur, cost = step_at(cur, step.position)
            assert cost == step.cost == max(1, size(cur) - prev_size)
            prev_size = size(cur)
        assert cur == o.term


def test_zipper_steps_match_step_at_on_the_whole_term(rng):
    for _ in range(300):
        t = random_closed_term(rng, rng.choice((12, 20, 30)))
        z, cur = Zipper(t), t
        for _ in range(60):
            n = cur.n_redexes
            assert z.n_redexes == n
            if n == 0:
                break
            k = rng.randrange(n)
            path = redex_path(cur, k)
            cur, cost = step_at(cur, path)
            step = z.fire(k)
            assert (step.position, step.cost, step.size_after) == (path, cost, size(cur))
            assert z.size == size(cur)
            assert z.term() == cur
        with pytest.raises(InvalidPositionError):
            z.fire(z.n_redexes)


def test_bounding_along_reductions(rng):
    checked = 0
    for _ in range(300):
        t = random_closed_term(rng, 10)
        o = normalize(t, "leftmost", fuel=400)
        if not o.normalized:
            continue
        checked += 1
        total = o.time()
        assert o.steps <= total
        for i, step in enumerate(o.trace.steps, 1):
            assert i <= total
            assert step.size_after <= total
    assert checked > 100


def test_trace_csv_deterministic():
    o = normalize(growth_term(4), "leftmost")
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_trace_csv(o.trace, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0] == "step,cost,size_after,position"
    assert len(lines) == o.steps + 1


def count_closed_terms(max_size):
    """Independent counting oracle straight off the grammar."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def c(s, depth):
        if s == 1:
            return depth
        total = c(s - 1, depth + 1)
        for left in range(1, s - 1):
            total += c(left, depth) * c(s - 1 - left, depth)
        return total

    return sum(c(s, 0) for s in range(1, max_size + 1))


def test_enumerate_smallest_cases():
    assert enumerate_closed_terms(2) == [Abs(BoundVar(0))]
    got = set(enumerate_closed_terms(3))
    assert got == {Abs(BoundVar(0)), Abs(Abs(BoundVar(0))), Abs(Abs(BoundVar(1)))}


def test_enumerate_matches_counting_oracle():
    for n in range(1, 10):
        terms = enumerate_closed_terms(n)
        assert len(terms) == len(set(terms)) == count_closed_terms(n)
        assert all(t.max_index < 0 and not t.has_free for t in terms)
        assert all(size(t) <= n for t in terms)


def test_enumerate_is_prefix_monotone():
    for n in range(2, 9):
        smaller = enumerate_closed_terms(n - 1)
        larger = enumerate_closed_terms(n)
        assert larger[:len(smaller)] == smaller


def test_enumerate_guardrail():
    with pytest.raises(ValueError):
        enumerate_closed_terms(13)


def test_random_closed_terms_are_closed():
    rng = random.Random(5)
    for _ in range(300):
        t = random_closed_term(rng, 14)
        assert t.max_index < 0 and not t.has_free
        assert 2 <= size(t) <= 14


def test_random_strategy_reproducible():
    t = growth_term(4)
    a = normalize(t, "random", seed=123)
    b = normalize(t, "random", seed=123)
    assert [s.position for s in a.trace.steps] == [s.position for s in b.trace.steps]


# --- leftmost `normalize` against the substituting engine --------------------
#
# `normalize` runs leftmost reduction on a closure machine that builds no
# reduct; every outcome (term, initial size, each step's position, cost and
# size, normalized) must equal that of firing redex #0 on a Zipper.

def _same_outcome(t, fuel):
    got, want = normalize(t, "leftmost", fuel), zipper_leftmost(t, fuel)
    assert got.trace.steps == want.trace.steps
    assert got == want
    return got


@settings(max_examples=300, deadline=None)
@given(terms(max_size=24), st.sampled_from((1, 2, 3, 50)))
def test_leftmost_equals_the_zipper_on_open_terms(t, fuel):
    _same_outcome(t, fuel)


def test_leftmost_equals_the_zipper_on_seeded_corpora():
    rng = random.Random(11)
    for _ in range(1500):
        t = random_closed_term(rng, rng.choice((12, 20, 30)))
        for fuel in (1, 2, 3, 50):
            outcome = _same_outcome(t, fuel)
        if outcome.normalized and outcome.steps > 1:
            # out of fuel exactly at, and one short of, the last step
            assert _same_outcome(t, outcome.steps).normalized
            assert not _same_outcome(t, outcome.steps - 1).normalized


def test_leftmost_equals_the_zipper_on_growth_terms():
    for n in range(4, 14):
        assert _same_outcome(growth_term(n), 100_000).normalized


@pytest.mark.parametrize("machine", [flip_machine, even_palindrome_machine])
def test_leftmost_equals_the_zipper_on_compiled_machines(machine):
    io_alphabet = Alphabet("01")
    program = build_function(machine(), io_alphabet)
    rng = random.Random(3)
    for bits in (8, 40):
        half = "".join(rng.choice("01") for _ in range(bits // 2))
        t = App(program, encode_string(io_alphabet, half + half[::-1]))
        outcome = _same_outcome(t, 1_000_000)
        assert outcome.normalized
        if bits == 8:
            _same_outcome(t, outcome.steps // 2)


def test_leftmost_shares_a_doubling_normal_form():
    # D = \x.\k.k x x: the normal form has 6 * 2^60 - 4 nodes in print and
    # about 120 in memory
    text = r"\z.z"
    for _ in range(60):
        text = rf"(\x.\k.k x x) ({text})"
    t = parse_term(text)
    with within_a_second():
        outcome = _same_outcome(t, 1000)
    assert outcome.term.size == 6 * 2 ** 60 - 4
    with within_a_second():
        _same_outcome(t, 30)


def test_leftmost_reads_back_a_deep_chain():
    # K (K (... (K a))): values nest as deep as the chain, and so do the
    # frames and the positions; 1200 is past Python's recursion limit
    k = parse_term(r"\x.\y.x")
    t = FreeVar("a")
    for _ in range(1200):
        t = App(k, t)
    assert _same_outcome(t, 100_000).normalized
    _same_outcome(t, 1)
    # let v1 = K a in let v2 = K v1 in ... v5000: the same 5000-deep value,
    # built by steps at the root, so that the traces stay small
    t = BoundVar(0)
    for _ in range(4999):
        t = App(Abs(t), App(k, BoundVar(0)))
    t = App(Abs(t), App(k, FreeVar("a")))
    outcome = _same_outcome(t, 100_000)
    assert outcome.normalized and outcome.term.size == 5000 + 1


def test_leftmost_keeps_a_dangling_index_as_substitution_does():
    # \y.1 has an index that no binder of its own meets; the inserted
    # value's index is then captured by the binder it lands under
    t = ap(parse_term(r"\x.\y.x"), Abs(BoundVar(1)), FreeVar("w"), FreeVar("q"))
    assert _same_outcome(t, 100).term == FreeVar("w")


def test_leftmost_read_back_shares_what_it_does_not_replace():
    # (\x.\y.x B) V -> \y.V B: B is code the machine never rewrote and V a
    # value it bound; the read-back returns both as the input's objects
    t = parse_term(r"(\x.\y.x (\a.\b.a b)) (\z.z)")
    code_b, v = t.fun.body.body.arg, t.arg
    outcome = normalize(t, "leftmost")
    assert outcome.term == parse_term(r"\y.(\z.z) (\a.\b.a b)")
    assert outcome.term.body.fun is v
    assert outcome.term.body.arg is code_b
