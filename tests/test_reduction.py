import io
import random

import pytest

from cbvcost import (
    Abs, App, BoundVar, FreeVar, InvalidPositionError,
    church_numeral, normalize, parse_term, random_closed_term, redex_path,
    size, step_at, time_of, write_trace_csv,
)
from cbvcost.reduction import Zipper

from reference import enumerate_closed_terms, find_redexes, subterm_at

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
