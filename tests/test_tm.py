import itertools

import pytest

from cbvcost import (
    Alphabet, App, FuelExhausted, OracleMismatchError, TMConfig,
    TMDefinitionError, TMParseError, build_final, build_function, build_init,
    build_trans, decode_string, encode_config, encode_string, encode_symbol,
    even_palindrome_machine, flip_machine, initial_config, normalize,
    parse_tm, project, run_compiled, simulate_tm, tm_step,
)
from cbvcost.turing import FLIP_SPEC

LOOP_SPEC = """\
alphabet: 0 _
blank: _
states: q0 qf
initial: q0
final: qf
delta: q0 0 -> q0 0 S
delta: q0 _ -> q0 _ S
"""

# moves left immediately: exercises the left-edge blank extension
LEFT_SPEC = """\
alphabet: 0 1 _
blank: _
states: q0 qf
initial: q0
final: qf
delta: q0 0 -> qf 0 L
delta: q0 1 -> qf 1 L
delta: q0 _ -> qf _ L
"""


def test_parse_flip():
    m = flip_machine()
    assert m.alphabet == ("0", "1", "_")
    assert m.blank == "_" and m.initial == "q0" and m.final == "qf"
    assert len(m.delta) == 3


def test_parse_rejects_transition_out_of_final():
    bad = FLIP_SPEC + "delta: qf 0 -> qf 0 S\n"
    with pytest.raises(TMParseError):
        parse_tm(bad)


def test_parse_rejects_partial_machines():
    missing = FLIP_SPEC.replace("delta: q0 1 -> q0 0 R\n", "")
    with pytest.raises(TMDefinitionError, match="missing transition"):
        parse_tm(missing)


def test_parse_reports_line_numbers():
    with pytest.raises(TMParseError) as e:
        parse_tm(FLIP_SPEC + "delta: q9 0 -> q0 0 R\n")
    assert e.value.line == len(FLIP_SPEC.splitlines()) + 1


def test_missing_declaration_has_no_line():
    with pytest.raises(TMParseError) as e:
        parse_tm(FLIP_SPEC.replace("states: q0 qf\n", ""))
    assert e.value.line is None
    assert str(e.value) == "missing states declaration"


def test_parse_rejects_unknown_key_and_bad_arrow():
    with pytest.raises(TMParseError):
        parse_tm(FLIP_SPEC + "tape: x\n")
    with pytest.raises(TMParseError):
        parse_tm(FLIP_SPEC + "delta: q0 0 q0 0 R\n")


def test_initial_config():
    m = flip_machine()
    assert initial_config(m, "") == TMConfig("", "_", "", "q0")
    assert initial_config(m, "01") == TMConfig("", "0", "1", "q0")


def test_flip_hand_trace():
    m = flip_machine()
    c = initial_config(m, "011")
    expected = [
        TMConfig("1", "1", "1", "q0"),
        TMConfig("10", "1", "", "q0"),
        TMConfig("100", "_", "", "q0"),
        TMConfig("100", "_", "", "qf"),
    ]
    for want in expected:
        c = tm_step(m, c)
        assert c == want
    run = simulate_tm(m, "011")
    assert run.output == "100_" and run.steps == 4


def test_left_edge_blank_extension():
    m = parse_tm(LEFT_SPEC)
    run = simulate_tm(m, "1")
    assert run.output == "_1" and run.steps == 1


def test_loop_exhausts_fuel():
    m = parse_tm(LOOP_SPEC)
    run = simulate_tm(m, "0", fuel=50)
    assert not run.halted and run.output is None and run.steps == 50


def test_palindrome_oracle_semantics():
    m = even_palindrome_machine()
    io = ("0", "1")
    for n in range(6):
        for tup in itertools.product("01", repeat=n):
            u = "".join(tup)
            run = simulate_tm(m, u)
            assert run.halted
            verdict = project(run.output, io)
            expected = "1" if (len(u) % 2 == 0 and u == u[::-1]) else "0"
            assert verdict == expected, u


def test_encode_config_components():
    m = flip_machine()
    sig = Alphabet(m.alphabet)
    stq = Alphabet(m.states)
    c = TMConfig("ab"[:0] + "01", "1", "10", "q0")
    t = encode_config(m, c)
    # \x.x <left reversed> <head> <right> <state>
    body = t.body
    args = []
    while type(body).__name__ == "App":
        args.append(body.arg)
        body = body.fun
    args.reverse()
    assert decode_string(sig, args[0]) == "10"  # left part stored reversed
    assert args[1] == encode_symbol(sig, "1")
    assert decode_string(sig, args[2]) == "10"
    assert args[3] == encode_symbol(stq, "q0")


def test_trans_keeps_final_configuration():
    m = flip_machine()
    trans = build_trans(m)
    final = TMConfig("10", "_", "", "qf")
    o = normalize(App(trans, encode_config(m, final)), "leftmost", 100_000)
    assert o.normalized
    assert o.term == encode_config(m, final)


def test_init_builds_initial_configuration():
    m = flip_machine()
    io = Alphabet(("0", "1"))
    init = build_init(m, io)
    o = normalize(App(init, encode_string(io, "01")), "leftmost", 100_000)
    assert o.normalized
    # recursion pads one blank after the input; it is dropped on extraction
    assert o.term == encode_config(m, TMConfig("", "0", "1_", "q0"))
    o = normalize(App(init, encode_string(io, "")), "leftmost", 100_000)
    assert o.term == encode_config(m, TMConfig("", "_", "", "q0"))


def test_final_extracts_projected_string():
    m = flip_machine()
    io = Alphabet(("0", "1"))
    fin = build_final(m, io)
    conf = TMConfig("10", "_", "1", "qf")
    o = normalize(App(fin, encode_config(m, conf)), "leftmost", 200_000)
    assert o.normalized
    assert decode_string(io, o.term) == "101"


def test_compiled_flip_matches_oracle_exhaustively():
    m = flip_machine()
    for n in range(5):
        for tup in itertools.product("01", repeat=n):
            u = "".join(tup)
            run = run_compiled(m, u)
            oracle = simulate_tm(m, u)
            assert run.output == project(oracle.output, ("0", "1"))
            assert run.tm_steps == oracle.steps


def test_compiled_palindrome_samples():
    m = even_palindrome_machine()
    for u in ("", "0", "11", "0110", "0101", "10011"):
        run = run_compiled(m, u)
        oracle = simulate_tm(m, u)
        assert run.output == project(oracle.output, ("0", "1"))


def test_compiled_left_edge_machine():
    m = parse_tm(LEFT_SPEC)
    run = run_compiled(m, "1")
    assert run.output == "1" and run.tm_steps == 1


def test_compiled_loop_exhausts_fuel():
    m = parse_tm(LOOP_SPEC)
    with pytest.raises(FuelExhausted):
        run_compiled(m, "0", fuel=20_000)


def test_compiled_cost_tracks_steps():
    m = flip_machine()
    ratios = []
    for u in ("", "0", "01", "011", "0110", "01101", "011010"):
        run = run_compiled(m, u)
        ratios.append(run.lambda_cost / (run.tm_steps + len(u) + 1))
    assert max(ratios) <= 2 * min(ratios)


def test_run_compiled_rejects_foreign_input():
    m = flip_machine()
    with pytest.raises(Exception):
        run_compiled(m, "2")


def test_io_alphabet_outside_the_machine_alphabet_is_rejected():
    m = flip_machine()
    foreign = Alphabet(("0", "x"))
    builds = [lambda: build_init(m, foreign), lambda: build_final(m, foreign),
              lambda: build_function(m, foreign),
              lambda: run_compiled(m, "0", io_alphabet=foreign)]
    for build in builds:
        with pytest.raises(TMDefinitionError, match="IO symbol 'x' is not in the machine alphabet"):
            build()
