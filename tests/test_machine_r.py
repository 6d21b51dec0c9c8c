import random

import pytest

from cbvcost import (
    A_LAM, F_APP, FOUND, NO_REDEX, S_APP,
    MachineRError, MachineRState, MalformedThetaError,
    decode_theta, encode_theta, find_redex_pass, find_redexes, mr_normalize,
    normalize, parse_term, random_closed_term, reassemble_pass, stack_update,
    step_at, substitute_pass,
)
from cbvcost.machine_r import _close

RUNNING = parse_term(r"(\x.\y.x y y)(\z.z)(\w.w)")
RUNNING_THETA = "@@λλ@@▶1▶0▶0λ▶0λ▶0"


def test_running_example_encoding():
    assert encode_theta(RUNNING) == RUNNING_THETA


def test_stack_update_table():
    stack = []
    expected = [
        [F_APP],
        [F_APP, A_LAM],
        [S_APP],
        [S_APP],
        [S_APP, A_LAM],
        [],
        [],
    ]
    for sym, want in zip("@λ▶0λ▶0", expected):
        stack = stack_update(stack, sym)
        assert stack == want


def test_stack_update_mark_on_empty_stack():
    assert stack_update([], "▶") == []


def test_stack_update_push_rules():
    assert stack_update([F_APP], "@") == [F_APP, F_APP]
    assert stack_update([F_APP], "λ") == [F_APP, A_LAM]
    assert stack_update([S_APP, A_LAM, F_APP, S_APP, A_LAM], "▶") == [S_APP, A_LAM, S_APP]


def test_counted_fold_matches_stack_update():
    # push/_close is the counted form of stack_update: same stack after every
    # prefix, one operation per pop and push, and _close returns the number
    # of abstraction frames it popped
    rng = random.Random(11)
    strings = [RUNNING_THETA] + [encode_theta(random_closed_term(rng, 20))
                                 for _ in range(200)]
    for theta in strings:
        state = MachineRState(current=[])
        stack = []
        spec = []
        for sym in theta:
            before = state.op_count
            closed = None
            if sym == "@":
                state.push(stack, F_APP)
            elif sym == "λ":
                state.push(stack, A_LAM)
            elif sym == "▶":
                closed = _close(state, stack)
            new_spec = stack_update(spec, sym)
            assert stack == new_spec
            if sym in "@λ":
                pushes_and_pops = 1
            elif sym != "▶":
                pushes_and_pops = 0
            elif F_APP in spec:
                # pops down to the F, then one push of S
                pushes_and_pops = len(spec) - len(new_spec) + 2
            else:
                pushes_and_pops = len(spec)
            assert state.op_count - before == pushes_and_pops
            if closed is not None:
                assert closed == spec.count(A_LAM) - new_spec.count(A_LAM)
            spec = new_spec


def test_find_redex_fills_tapes_like_the_worked_example():
    state = MachineRState(current=list(RUNNING_THETA))
    assert find_redex_pass(state) == FOUND
    assert "".join(state.preredex) == "@@"
    assert "".join(state.functional) == "λλ@@▶1▶0▶0"
    assert "".join(state.argument) == "λ▶0"
    assert "".join(state.postredex) == "λ▶0"


def test_find_redex_on_value_halts():
    state = MachineRState(current=list("λ▶0"))
    assert find_redex_pass(state) == NO_REDEX
    assert "".join(state.current) == "λ▶0"
    assert not state.preredex and not state.stack_term


def test_find_redex_skips_bodies_of_abstractions():
    # \x.(\y.y) x is a normal form: the inner application sits under a binder
    state = MachineRState(current=list(encode_theta(parse_term(r"\x.(\y.y) x"))))
    assert find_redex_pass(state) == NO_REDEX


def test_find_redex_picks_inner_when_outer_argument_is_not_a_value():
    t = parse_term(r"(\x.x)((\y.y)(\z.z))")
    state = MachineRState(current=list(encode_theta(t)))
    assert find_redex_pass(state) == FOUND
    assert "".join(state.preredex) == "@λ▶0@"
    assert "".join(state.functional) == "λ▶0"
    assert "".join(state.argument) == "λ▶0"
    assert "".join(state.postredex) == ""


def test_substitute_pass_running_example():
    state = MachineRState(current=list(RUNNING_THETA))
    find_redex_pass(state)
    substitute_pass(state)
    assert "".join(state.reduct) == "λ@@λ▶0▶0▶0"


def test_substitute_pass_identity_redex():
    state = MachineRState(current=list("@λ▶0λ▶0"))
    find_redex_pass(state)
    substitute_pass(state)
    assert "".join(state.reduct) == "λ▶0"


def test_substitute_pass_agrees_with_engine_substitution(rng):
    checked = 0
    for _ in range(400):
        t = random_closed_term(rng, 12)
        paths = find_redexes(t)
        if paths != [()]:
            continue  # keep root redexes so tapes line up exactly
        checked += 1
        state = MachineRState(current=list(encode_theta(t)))
        assert find_redex_pass(state) == FOUND
        substitute_pass(state)
        reduct, _ = step_at(t, ())
        assert "".join(state.reduct) == encode_theta(reduct)
    assert checked > 30


def test_reassemble_running_example():
    state = MachineRState(current=list(RUNNING_THETA))
    find_redex_pass(state)
    substitute_pass(state)
    reassemble_pass(state)
    assert "".join(state.current) == "@λ@@λ▶0▶0▶0λ▶0"
    for tape in (state.preredex, state.functional, state.argument,
                 state.postredex, state.reduct, state.stack_term,
                 state.stack_redex, state.counter):
        assert tape == []


def test_reassemble_root_redex_is_just_the_reduct():
    state = MachineRState(current=list("@λ▶0λ▶0"))
    find_redex_pass(state)
    substitute_pass(state)
    pre_len = len(state.preredex) - 1  # the redex's @ is discarded
    red_len = len(state.reduct)
    post_len = len(state.postredex)
    reassemble_pass(state)
    assert "".join(state.current) == "λ▶0"
    assert len(state.current) == pre_len + red_len + post_len


def test_mr_normalize_identity_application():
    result = mr_normalize("@λ▶0λ▶0")
    assert result.normalized
    assert result.theta == "λ▶0"
    assert len(result.iterations) == 1


def test_mr_normalize_running_example_matches_engine():
    result = mr_normalize(RUNNING_THETA)
    engine = normalize(RUNNING, "leftmost")
    assert result.normalized
    assert result.theta == encode_theta(engine.term)
    assert len(result.iterations) == engine.steps == 4


def test_mr_normalize_divergent_exhausts_fuel():
    omega = encode_theta(parse_term(r"(\x.x x)(\x.x x)"))
    result = mr_normalize(omega, fuel_iterations=25)
    assert not result.normalized
    assert len(result.iterations) == 25


def test_mr_normalize_rejects_malformed_input():
    with pytest.raises(MalformedThetaError):
        mr_normalize("@λ▶0")
    with pytest.raises(MalformedThetaError):
        mr_normalize("λµ0")


def test_mr_normalize_accepts_ascii():
    result = mr_normalize("L*0")
    assert result.theta == "λ▶0" and len(result.iterations) == 0


def test_free_variables_copied_verbatim():
    # the argument is a free variable; its bare mark must survive unchanged
    t = parse_term(r"(\x.\w.x w x) c")
    result = mr_normalize(encode_theta(t))
    engine = normalize(t, "leftmost")
    assert result.theta == encode_theta(engine.term)
    assert decode_theta(result.theta) == decode_theta(encode_theta(engine.term))


def test_engine_agreement_over_random_corpus():
    rng = random.Random(77)
    agreed = 0
    attempts = 0
    while agreed < 100 and attempts < 4000:
        attempts += 1
        t = random_closed_term(rng, 12)
        engine = normalize(t, "leftmost", fuel=600)
        if not engine.normalized:
            continue
        result = mr_normalize(encode_theta(t), fuel_iterations=700)
        assert result.normalized
        assert result.theta == encode_theta(engine.term)
        assert len(result.iterations) == engine.steps
        agreed += 1
    assert agreed == 100


def test_iteration_records_and_op_accounting():
    result = mr_normalize(RUNNING_THETA)
    assert [it.tl_before for it in result.iterations][0] == len(RUNNING_THETA)
    assert all(it.ops > 0 for it in result.iterations)
    assert result.op_count >= sum(it.ops for it in result.iterations)
