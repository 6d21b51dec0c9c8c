import random

import pytest

from cbvcost import (
    A_LAM, App, FreeVar, F_APP, FOUND, NO_REDEX, S_APP,
    MachineRError, MachineRState, MalformedThetaError,
    decode_theta, encode_theta, find_redex_pass, mr_normalize, normalize,
    parse_term, random_closed_term, reassemble_pass, step_at, substitute_pass,
)
from cbvcost import machine_r
from cbvcost.machine_r import _close, _copy_subterm

from reference import find_redexes, stack_update

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


# --- the symbol-by-symbol reference for the closed-form charges -------------
#
# The machine charges a copied subterm and the depth-counter arithmetic in
# closed form.  These are the symbol-by-symbol versions it replaced: every
# read, write, push and pop, and every counter digit visited, costs one
# operation.  The machine must leave the same tapes and the same op_count.

def ref_copy_subterm(state, start, dest):
    cur = state.current
    n = len(cur)
    sr = state.stack_redex
    pos = start
    while True:
        if pos >= n:
            raise MachineRError("truncated subterm on Current")
        sym = state.read(cur, pos)
        state.write(dest, sym)
        pos += 1
        if sym == "@":
            state.push(sr, F_APP)
        elif sym == "λ":
            state.push(sr, A_LAM)
        elif sym == "▶":
            _close(state, sr)
            while pos < n and cur[pos] in "01":
                state.write(dest, state.read(cur, pos))
                pos += 1
            if not sr:
                return pos
        else:
            raise MachineRError(f"unexpected symbol {sym!r} at a subterm boundary")


def ref_counter_inc(state):
    c = state.counter
    i = len(c) - 1
    while i >= 0:
        state.op_count += 1
        if c[i] == "0":
            c[i] = "1"
            return
        c[i] = "0"
        i -= 1
    c.insert(0, "1")
    state.op_count += 1


def ref_counter_dec(state):
    c = state.counter
    i = len(c) - 1
    while i >= 0:
        state.op_count += 1
        if c[i] == "1":
            c[i] = "0"
            break
        c[i] = "1"
        i -= 1
    else:
        raise MachineRError("depth counter underflow")
    if len(c) > 1 and c[0] == "0":
        c.pop(0)
        state.op_count += 1


def ref_counter_equals(state, digits):
    c = state.counter
    state.op_count += min(len(c), len(digits)) + 1
    if len(c) != len(digits):
        return False
    return all(a == b for a, b in zip(c, digits))


def ref_substitute_pass(state):
    fn = state.functional
    n = len(fn)
    if not fn or fn[0] != "λ":
        raise MachineRError("Functional does not start with an abstraction")
    state.op_count += 1
    state.counter[:] = ["0"]
    state.op_count += 1
    sr = state.stack_redex
    pos = 1
    while pos < n:
        sym = state.read(fn, pos)
        if sym == "λ":
            state.write(state.reduct, sym)
            state.push(sr, A_LAM)
            ref_counter_inc(state)
            pos += 1
        elif sym == "@":
            state.write(state.reduct, sym)
            state.push(sr, F_APP)
            pos += 1
        elif sym == "▶":
            dstart = pos + 1
            dend = dstart
            while dend < n and fn[dend] in "01":
                dend += 1
            digits = "".join(fn[dstart:dend])
            state.op_count += dend - dstart
            if ref_counter_equals(state, digits):
                state.reduct.extend(state.argument)
                state.op_count += 2 * len(state.argument)
            else:
                state.write(state.reduct, "▶")
                for d in digits:
                    state.write(state.reduct, d)
            pos = dend
            for _ in range(_close(state, sr)):
                ref_counter_dec(state)
        else:
            raise MachineRError(f"unexpected symbol {sym!r} on Functional")
    return state


def ref_find_redex_pass(state, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(machine_r, "_copy_subterm", ref_copy_subterm)
        return find_redex_pass(state)


def tapes(state):
    return (state.current, state.preredex, state.functional, state.argument,
            state.postredex, state.reduct, state.stack_term, state.stack_redex,
            state.counter, state.op_count)


def run_in_lockstep(theta, monkeypatch, iterations, max_length):
    """Run the machine and the reference side by side on one string; the
    tapes and op_count must agree after every pass.  Returns the most
    abstractions a Functional held below its erased binder."""
    state = MachineRState(current=list(theta))
    ref = MachineRState(current=list(theta))
    most = 0
    for _ in range(iterations):
        found = find_redex_pass(state)
        assert ref_find_redex_pass(ref, monkeypatch) == found
        assert tapes(state) == tapes(ref)
        if found == NO_REDEX:
            break
        most = max(most, state.functional.count("λ") - 1)
        substitute_pass(state)
        ref_substitute_pass(ref)
        assert tapes(state) == tapes(ref)
        reassemble_pass(state)
        reassemble_pass(ref)
        assert tapes(state) == tapes(ref)
        if len(state.current) > max_length:
            break
    return most


def test_closed_form_charges_match_the_reference_on_random_terms(monkeypatch):
    rng = random.Random(5)
    for i in range(3000):
        t = random_closed_term(rng, rng.choice((8, 14, 20, 28)))
        if i % 3 == 0:
            t = App(t, FreeVar("c"))  # a bare ▶: an index with no digits
        run_in_lockstep(encode_theta(t), monkeypatch, iterations=25, max_length=400)


@pytest.mark.parametrize("k", range(1, 41))
def test_closed_form_charges_match_the_reference_under_deep_binders(k, monkeypatch):
    # \x.\a1...\ak. x ak ... a1 nests k binders under the erased one, so the
    # counter counts up to k and back: carries and borrows cross 8, 16, 32.
    # Every Functional of this family nests all its abstractions.
    binders = "".join(f"\\a{i}." for i in range(1, k + 1))
    body = " ".join(f"a{i}" for i in range(k, 0, -1))
    t = parse_term(f"(\\x.{binders} x {body}) (\\y.y) (\\u.\\v.u)")
    assert run_in_lockstep(encode_theta(t), monkeypatch, 10, 10_000) == k


def test_copy_subterm_matches_the_reference_at_every_start():
    rng = random.Random(8)
    for _ in range(300):
        theta = encode_theta(random_closed_term(rng, 24))
        for start, sym in enumerate(theta):
            if sym in "01":
                continue
            state = MachineRState(current=list(theta))
            ref = MachineRState(current=list(theta))
            assert _copy_subterm(state, start, state.functional) == \
                ref_copy_subterm(ref, start, ref.functional)
            assert tapes(state) == tapes(ref)


@pytest.mark.parametrize("current, message", [
    ("λ@▶0", "truncated subterm"),
    ("@λ@λ▶0", "truncated subterm"),
    ("λ0▶0", "unexpected symbol '0'"),
    ("λ@▶0x", "unexpected symbol 'x'"),
])
def test_copy_subterm_errors(current, message, monkeypatch):
    with pytest.raises(MachineRError, match=message):
        find_redex_pass(MachineRState(current=list(current)))
    with pytest.raises(MachineRError, match=message):
        ref_find_redex_pass(MachineRState(current=list(current)), monkeypatch)


@pytest.mark.parametrize("functional, stack, message", [
    # an abstraction frame the counter never counted: closing it underflows
    ("λ▶0", [A_LAM], "depth counter underflow"),
    ("λλ▶0", [F_APP, A_LAM, A_LAM], "depth counter underflow"),
    ("λ@x", [], "unexpected symbol 'x' on Functional"),
    ("@λ▶0", [], "does not start with an abstraction"),
])
def test_substitute_pass_errors(functional, stack, message):
    for substitute in (substitute_pass, ref_substitute_pass):
        state = MachineRState(current=[], functional=list(functional),
                              argument=list("λ▶0"), stack_redex=list(stack))
        with pytest.raises(MachineRError, match=message):
            substitute(state)
