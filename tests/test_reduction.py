import csv
import hashlib
import io
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbvcost import (
    Abs, Alphabet, App, BoundVar, FreeVar, InvalidPositionError, TermError, ap,
    build_function, church_numeral, encode_string, even_palindrome_machine,
    flip_machine, normalize, parse_term, random_closed_term, redex_path,
    step_at, time_of, write_trace_csv,
)
from cbvcost import reduction
from cbvcost.reduction import TraceStep, Zipper

from conftest import DEEP_SLOW_TERM, terms, within_a_second
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
    assert reduct.size == 16
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
        assert time_of(t) == t.size


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
        cur, prev_size = t, t.size
        for step in o.trace.steps:
            cur, cost = step_at(cur, step.position)
            assert cost == step.cost == max(1, cur.size - prev_size)
            prev_size = cur.size
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
            before = z.size
            assert reduction._sides(z.fire(k)) == path
            assert z.size == cur.size and max(1, z.size - before) == cost
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
        assert all(t.size <= n for t in terms)


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
        assert 2 <= t.size <= 14


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
    assert got == want and got.trace.total_cost == want.trace.total_cost
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


def d_chain(depth):
    """D = \\x.\\k.k x x applied `depth` times: the size doubles each step."""
    text = r"\z.z"
    for _ in range(depth):
        text = rf"(\x.\k.k x x) ({text})"
    return parse_term(text)


def test_leftmost_shares_a_doubling_normal_form():
    # the normal form has 6 * 2^60 - 4 nodes in print and about 120 in memory
    t = d_chain(60)
    with within_a_second():
        outcome = _same_outcome(t, 1000)
    assert outcome.term.size == 6 * 2 ** 60 - 4
    with within_a_second():
        _same_outcome(t, 30)


def k_chain(depth):
    """K (K (... (K a))), `depth` applications of K = \\x.\\y.x deep."""
    k = parse_term(r"\x.\y.x")
    t = FreeVar("a")
    for _ in range(depth):
        t = App(k, t)
    return t


def test_leftmost_reads_back_a_deep_chain():
    # K (K (... (K a))): values nest as deep as the chain, and so do the
    # frames and the positions; 1200 is past Python's recursion limit.  Out
    # of fuel, the redex sits under up to 1,199 pending ARG frames
    k = parse_term(r"\x.\y.x")
    t = k_chain(1200)
    assert _same_outcome(t, 100_000).normalized
    for fuel in (1, 600, 1199):
        _same_outcome(t, fuel)
    # DEEP_SLOW_TERM's redexes lie down a spine of ARG frames, up to 600
    # of them pending at fuel 1000
    for fuel in (1, 1000):
        assert not _same_outcome(DEEP_SLOW_TERM, fuel).normalized
    # (\v.(\x.x) (\x.x) M1 ... M1100) (\w.w): the redexes lie at the
    # bottom of a spine of FUN frames, each holding an Mi not yet evaluated
    # under env (v), with Mi cycling through v, \y.v y and v v
    i = parse_term(r"\x.x")
    args = [BoundVar(0), Abs(App(BoundVar(1), BoundVar(0))), App(BoundVar(0), BoundVar(0))]
    t = App(Abs(ap(i, i, *(args * 367)[:1100])), parse_term(r"\w.w"))
    for fuel in (1, 2, 600, 1000):
        assert not _same_outcome(t, fuel).normalized
    # let v1 = K a in let v2 = K v1 in ... v5000: the same 5000-deep value,
    # built by steps at the root, so that the traces stay small
    t = BoundVar(0)
    for _ in range(4999):
        t = App(Abs(t), App(k, BoundVar(0)))
    t = App(Abs(t), App(k, FreeVar("a")))
    outcome = _same_outcome(t, 100_000)
    assert outcome.normalized and outcome.term.size == 5000 + 1


def test_normalize_rejects_a_dangling_index():
    # \y.1 has an index that no binder of its own meets; substituting it
    # for x would put it under \y, which would capture it
    t = ap(parse_term(r"\x.\y.x"), Abs(BoundVar(1)), FreeVar("w"), FreeVar("q"))
    message = "^cannot normalize dangling de Bruijn index 0$"
    for strategy in ("leftmost", "rightmost", "random"):
        with pytest.raises(TermError, match=message):
            normalize(t, strategy)
    with pytest.raises(TermError, match=message):
        time_of(t)


def test_leftmost_never_builds_a_zipper(monkeypatch):
    def no_zipper(*args):
        raise AssertionError("a Zipper was built")

    monkeypatch.setattr(reduction, "Zipper", no_zipper)
    io_alphabet = Alphabet("01")
    flip = App(build_function(flip_machine(), io_alphabet), encode_string(io_alphabet, "0110"))
    with pytest.raises(AssertionError, match="a Zipper was built"):
        normalize(flip, "rightmost")
    rng = random.Random(11)
    for _ in range(300):
        t = random_closed_term(rng, rng.choice((12, 20, 30)))
        normalize(t, "leftmost", 1)
        normalize(t, "leftmost", 50)
    assert normalize(flip, "leftmost", 1_000_000).normalized
    assert normalize(k_chain(5000), "leftmost").normalized


def test_leftmost_reads_back_a_pending_frame_with_an_unused_value():
    # out of fuel at (\y.y) (\z.z), the pending argument u c runs under
    # the closure's env (v, u) and never uses v, which is read back anyway
    t = parse_term(r"(\u.\v.(\y.y) (\z.z) (u c)) (\p.p) (\s.s s)")
    outcome = _same_outcome(t, 2)
    assert not outcome.normalized
    assert outcome.term == parse_term(r"(\y.y) (\z.z) ((\p.p) c)")
    for fuel in (1, 3, 4):
        _same_outcome(t, fuel)


def test_leftmost_read_back_shares_what_it_does_not_replace():
    # (\x.\y.x B) V -> \y.V B: B is code the machine never rewrote and V a
    # value it bound; the read-back returns both as the input's objects
    t = parse_term(r"(\x.\y.x (\a.\b.a b)) (\z.z)")
    code_b, v = t.fun.body.body.arg, t.arg
    outcome = normalize(t, "leftmost")
    assert outcome.term == parse_term(r"\y.(\z.z) (\a.\b.a b)")
    assert outcome.term.body.fun is v
    assert outcome.term.body.arg is code_b


# --- the trace: its CSV bytes ------------------------------------------------
#
# sha256 of `write_trace_csv` output, recorded before the trace was stored
# as columns; each step's cost, size and position must come out as before.

PALINDROME_40 = "01101001110010110100" "00101101001110010110"


@pytest.fixture(scope="module")
def palindrome_40():
    io_alphabet = Alphabet("01")
    program = build_function(even_palindrome_machine(), io_alphabet)
    return App(program, encode_string(io_alphabet, PALINDROME_40))


def _csv_sha256(outcome):
    buf = io.StringIO()
    write_trace_csv(outcome.trace, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_trace_csv_bytes_of_the_palindrome_run(palindrome_40):
    outcome = normalize(palindrome_40, "leftmost", 1_000_000)
    assert (outcome.steps, outcome.trace.total_cost) == (34_895, 44_380_205)
    assert _csv_sha256(outcome) == (
        "4cd9cb381c6c976381fe91fa26eb01845e55fd1891f4092d3424c2817d71559a")


@pytest.mark.parametrize("pair, strategy, digest", [
    (False, "rightmost", "16609f3dbe5e745d9033cbaff9c1fdfe958211b5d2d4ca5a8ff0d9f57070607b"),
    (False, "random", "16609f3dbe5e745d9033cbaff9c1fdfe958211b5d2d4ca5a8ff0d9f57070607b"),
    # two redexes at once, so each strategy takes its own positions
    (True, "leftmost", "19ffc1beed6d85bcb306b3028291f16626247cfd59891487c904bc9826a0cd1c"),
    (True, "rightmost", "19c65671cbc22c2b59caff8c1c6e4aae4f9fc46f5946778d28ee8757cf3fdcd4"),
    (True, "random", "97e721071e44aa17a11787ec7b2843465ad708265427f26e97afa20a7886d609"),
])
def test_trace_csv_bytes_of_growth_terms(pair, strategy, digest):
    t = App(App(FreeVar("p"), growth_term(5)), growth_term(6)) if pair else growth_term(8)
    assert _csv_sha256(normalize(t, strategy, seed=123)) == digest


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost", "random"])
def test_trace_csv_bytes_of_a_deep_chain(strategy):
    # positions up to 1199 frames deep, past a 63-bit code: the machine and
    # the Zipper keep the same big ints; the chain holds one redex at a
    # time, so every strategy fires the same steps
    outcome = normalize(k_chain(1200), strategy)
    assert _csv_sha256(outcome) == (
        "214d60705f914042eb1c2045fd0651d97f5e3d47a72794d17dc72e7cc8f76441")


def test_zipper_codes_of_a_5000_deep_chain_match_the_machine():
    # codes up to 4999 bits, kept as the Zipper moves rather than encoded
    # per step, so the traced run stays linear in the depth
    t = k_chain(5000)
    machine = normalize(t, "leftmost")
    assert machine.normalized and machine.steps == 5000
    for strategy in ("rightmost", "random"):
        with within_a_second():
            outcome = normalize(t, strategy)
        assert outcome.trace == machine.trace
        assert outcome.term == machine.term


# --- the trace: columns, running weight, int64 fallback ----------------------

def test_trace_of_the_palindrome_run_holds_its_columns_only(palindrome_40):
    # a size is an 8-byte array entry and a position an 8-byte list slot
    # pointing at a shared int: 16 bytes per step, plus the growth headroom
    # CPython leaves in an array (at most 1/16) and a list (at most 1/8), so
    # at most 18; the few shared position codes fit in the fixed 64 KiB.
    # Costs are derived, not stored; a TraceStep per step held about 100.
    normalize(palindrome_40, "leftmost", 1_000_000)  # warm up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcome = normalize(palindrome_40, "leftmost", 1_000_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert outcome.steps == 34_895
    assert held <= 18 * outcome.steps + 64 * 1024


def test_trace_of_a_deep_chain_holds_a_bit_per_frame():
    # the 5000 steps fire at 5000 distinct positions, 2500 frames deep on
    # average: one bit per frame is about 1.6 MB, where a tuple slot per
    # frame held 96.7 MB
    t = k_chain(5000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcome = normalize(t, "leftmost", 100_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert outcome.normalized and outcome.steps == 5000
    assert held < 8 * 1024 * 1024


class _Discard:
    def write(self, text):
        return len(text)


def test_trace_csv_streams_its_rows(palindrome_40):
    # the costs are derived row by row as the CSV is written; building a
    # list of them first takes the peak to about 500 KB for these 34,895
    # steps, against about 130 KB streamed
    outcome = normalize(palindrome_40, "leftmost", 1_000_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_trace_csv(outcome.trace, _Discard())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost", "random"])
def test_step_count_and_weight_build_no_trace_step(strategy, monkeypatch):
    built = []

    def counted(*fields):
        built.append(fields)
        return TraceStep(*fields)

    monkeypatch.setattr(reduction, "TraceStep", counted)
    outcome = normalize(App(App(FreeVar("p"), growth_term(5)), growth_term(6)), strategy)
    assert (outcome.steps, outcome.trace.total_cost, outcome.time()) == (15, 440, 491)
    write_trace_csv(outcome.trace, io.StringIO())
    assert built == []
    steps = outcome.trace.steps
    assert len(built) == len(steps) == 15
    assert sum(s.cost for s in steps) == 440


def _every_strategy(t, fuel):
    """The outcomes of leftmost, rightmost and random on `t`, which holds
    one redex at a time, so each fires the same steps as the reference."""
    want = _same_outcome(t, fuel)
    outcomes = [want] + [normalize(t, s, fuel) for s in ("rightmost", "random")]
    for outcome in outcomes:
        assert outcome == want and outcome.trace.total_cost == want.trace.total_cost
    return outcomes


def test_a_trace_past_int64_keeps_exact_integers():
    t = d_chain(70)
    for outcome in _every_strategy(t, 1000):
        assert isinstance(outcome.trace.sizes, list)
        steps = outcome.trace.steps
        assert steps[-1].size_after == outcome.term.size == 6 * 2 ** 70 - 4
        assert max(s.cost for s in steps) > 2 ** 63 - 1
        assert outcome.trace.total_cost == sum(s.cost for s in steps)
        buf = io.StringIO()
        write_trace_csv(outcome.trace, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        assert [(int(c), int(s)) for _, c, s, _ in rows] == [(s.cost, s.size_after) for s in steps]


def test_a_run_out_of_fuel_at_the_first_step_past_int64():
    t = d_chain(70)
    sizes = [s.size_after for s in zipper_leftmost(t, 1000).trace.steps]
    first = next(i for i, n in enumerate(sizes, 1) if n > 2 ** 63 - 1)
    for below in _every_strategy(t, first - 1):
        assert isinstance(below.trace.sizes, array)
    for past in _every_strategy(t, first):
        assert isinstance(past.trace.sizes, list)
        assert not past.normalized and past.steps == first
        assert past.trace.steps[-1].size_after == sizes[first - 1]
        assert past.trace.total_cost == sum(s.cost for s in past.trace.steps)
