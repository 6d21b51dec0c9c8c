import random
import tracemalloc
from collections import Counter

import pytest

from cbvcost import (
    A_LAM, Abs, Alphabet, App, BoundVar, FreeVar, F_APP, FOUND, NO_REDEX,
    MachineRError, MachineRState, MalformedThetaError,
    build_function, decode_theta, encode_string, encode_theta, even_palindrome_machine,
    find_redex_pass, flip_machine, mr_normalize, normalize, parse_term, random_closed_term,
    reassemble_pass, step_at, substitute_pass,
)
from cbvcost import bench, machine_r, theta

import reference
from reference import (
    CLOSED_FORM, SYMBOL_BY_SYMBOL, ListState, copy_subterm, find_redexes,
    ref_copy_subterm, stack_update,
)

RUNNING = parse_term(r"(\x.\y.x y y)(\z.z)(\w.w)")
RUNNING_THETA = "@@λλ@@▶1▶0▶0λ▶0λ▶0"


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts from an empty plan memo and index, as a new
    process does."""
    machine_r._MEMO.__init__()


def d_depth(k: int) -> str:
    """D = \\x.\\k.k x x nested k deep around \\z.z: the normal form doubles
    with every level."""
    term = r"\z.z"
    for _ in range(k):
        term = rf"(\x.\k.k x x) ({term})"
    return encode_theta(parse_term(term))


def test_running_example_encoding():
    assert encode_theta(RUNNING) == RUNNING_THETA


def test_stack_update_table():
    stack = []
    expected = [
        [F_APP],
        [F_APP, A_LAM],
        ["S"],
        ["S"],
        ["S", A_LAM],
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
    assert stack_update(["S", A_LAM, F_APP, "S", A_LAM], "▶") == ["S", A_LAM, "S"]


def persistent(tape, rng):
    """`tape` as a machine stack of random runs, some holding frames past
    their end, and each run's trailing S frames sometimes held as a count."""
    stack = None
    i = 0
    while i < len(tape):
        j = min(len(tape), i + rng.randrange(1, 4))
        run = tape[i:j]
        frames = run.rstrip("S") if rng.randrange(2) else run
        stack = (frames + rng.choice(("", "F", "AS")), len(frames),
                 len(run) - len(frames), stack)
        i = j
    return stack


def test_counted_fold_matches_stack_update():
    # push/close is the counted form of stack_update: same stack after every
    # prefix, one operation per pop and push, and close returns the number
    # of abstraction frames it popped; the machine's close on a persistent
    # stack agrees with both
    rng = random.Random(11)
    strings = [RUNNING_THETA] + [encode_theta(random_closed_term(rng, 20))
                                 for _ in range(200)]
    for theta in strings:
        state = ListState(current=[])
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
                kept, ops, lams = machine_r._close(persistent("".join(stack), rng))
                closed = reference.close(state, stack)
                assert (machine_r._frames(kept), ops, lams) == (
                    "".join(stack), state.op_count - before, closed)
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
    state = MachineRState(current=RUNNING_THETA)
    assert find_redex_pass(state) == FOUND
    assert state.preredex == "@@"
    assert state.functional == "λλ@@▶1▶0▶0"
    assert state.argument == "λ▶0"
    assert state.postredex == "λ▶0"


def test_find_redex_on_value_halts():
    state = MachineRState(current="λ▶0")
    assert find_redex_pass(state) == NO_REDEX
    assert state.current == "λ▶0"
    assert not state.preredex and not state.stack_term


def test_find_redex_skips_bodies_of_abstractions():
    # \x.(\y.y) x is a normal form: the inner application sits under a binder
    state = MachineRState(current=encode_theta(parse_term(r"\x.(\y.y) x")))
    assert find_redex_pass(state) == NO_REDEX


def test_find_redex_picks_inner_when_outer_argument_is_not_a_value():
    t = parse_term(r"(\x.x)((\y.y)(\z.z))")
    state = MachineRState(current=encode_theta(t))
    assert find_redex_pass(state) == FOUND
    assert state.preredex == "@λ▶0@"
    assert state.functional == "λ▶0"
    assert state.argument == "λ▶0"
    assert state.postredex == ""


def test_substitute_pass_running_example():
    state = MachineRState(current=RUNNING_THETA)
    find_redex_pass(state)
    substitute_pass(state)
    assert state.reduct == "λ@@λ▶0▶0▶0"


def test_substitute_pass_identity_redex():
    state = MachineRState(current="@λ▶0λ▶0")
    find_redex_pass(state)
    substitute_pass(state)
    assert state.reduct == "λ▶0"


def test_substitute_pass_agrees_with_engine_substitution(rng):
    checked = 0
    for _ in range(400):
        t = random_closed_term(rng, 12)
        paths = find_redexes(t)
        if paths != [()]:
            continue  # keep root redexes so tapes line up exactly
        checked += 1
        state = MachineRState(current=encode_theta(t))
        assert find_redex_pass(state) == FOUND
        substitute_pass(state)
        reduct, _ = step_at(t, ())
        assert state.reduct == encode_theta(reduct)
    assert checked > 30


def test_reassemble_running_example():
    state = MachineRState(current=RUNNING_THETA)
    find_redex_pass(state)
    substitute_pass(state)
    reassemble_pass(state)
    assert state.current == "@λ@@λ▶0▶0▶0λ▶0"
    for tape in (state.preredex, state.functional, state.argument,
                 state.postredex, state.reduct, state.stack_term,
                 state.stack_redex, state.counter):
        assert tape == ""


def test_reassemble_root_redex_is_just_the_reduct():
    state = MachineRState(current="@λ▶0λ▶0")
    find_redex_pass(state)
    substitute_pass(state)
    pre_len = len(state.preredex) - 1  # the redex's @ is discarded
    red_len = len(state.reduct)
    post_len = len(state.postredex)
    reassemble_pass(state)
    assert state.current == "λ▶0"
    assert len(state.current) == pre_len + red_len + post_len


def test_mr_normalize_identity_application():
    result = mr_normalize("@λ▶0λ▶0")
    assert result.normalized and result.reason == "normal"
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
    assert not result.normalized and result.reason == "fuel"
    assert len(result.iterations) == 25


@pytest.mark.parametrize("text", [
    r"(\x.x)(\y.y)",
    r"(\x.\y.x y y)(\z.z)(\w.w)",
    r"(\x.\k.k x x) ((\x.\k.k x x) ((\x.\k.k x x) (\z.z)))",
])
def test_mr_normalize_in_exactly_the_iterations_it_needs(text):
    # a normal form left by the last iteration counts, and the find pass
    # that sees it is charged as in a run with fuel to spare
    theta = encode_theta(parse_term(text))
    spare = mr_normalize(theta, 100_000)
    k = len(spare.iterations)
    exact = mr_normalize(theta, k)
    assert exact.normalized
    assert (exact.theta, exact.op_count, exact.iterations) == (
        spare.theta, spare.op_count, spare.iterations)
    if k > 1:
        assert not mr_normalize(theta, k - 1).normalized


def test_mr_normalize_rejects_malformed_input():
    with pytest.raises(MalformedThetaError):
        mr_normalize("@λ▶0")
    with pytest.raises(MalformedThetaError):
        mr_normalize("λµ0")


def test_mr_normalize_builds_no_term(monkeypatch):
    normal_form = encode_theta(normalize(RUNNING, "leftmost").term)

    def refuse(*args):
        raise AssertionError("mr_normalize built a term")

    monkeypatch.setattr(machine_r, "decode_theta", refuse)
    monkeypatch.setattr(theta, "decode_theta", refuse)
    for node in (Abs, App, BoundVar, FreeVar):
        monkeypatch.setattr(node, "__init__", refuse)
    assert mr_normalize(RUNNING_THETA).theta == normal_form
    with pytest.raises(MalformedThetaError, match=r"^unexpected end of string \(position 4\)$"):
        mr_normalize("@λ▶0")


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


# --- the tape budget -----------------------------------------------------------

def test_tape_limit_stops_a_doubling_run(monkeypatch):
    # D nested 16 deep: 260 input characters, a normal form of 524,283
    # symbols; each iteration doubles Current.  The default budget stops
    # it before Current passes 2^18 symbols.
    theta = d_depth(16)
    default = mr_normalize(theta)
    assert default.reason == "tape_limit" and not default.normalized
    assert max(it.tl_after for it in default.iterations) <= machine_r.TAPE_LIMIT
    monkeypatch.setattr(machine_r, "TAPE_LIMIT", 10_000)
    small = mr_normalize(theta)
    assert small.reason == "tape_limit"
    assert max(it.tl_after for it in small.iterations) <= 10_000
    # the stop is an ordinary prefix of a run under a larger budget
    k = len(small.iterations)
    assert default.iterations[:k] == small.iterations
    assert len(default.iterations) > k
    assert small.theta == mr_normalize(theta, fuel_iterations=k).theta


def test_tape_limit_charges_the_last_find_pass(monkeypatch):
    # the stopped iteration ran its find pass and nothing else; a Current of
    # exactly TAPE_LIMIT symbols is within the budget
    theta = d_depth(6)
    free = mr_normalize(theta)
    k = 3
    limit = free.iterations[k].tl_after
    monkeypatch.setattr(machine_r, "TAPE_LIMIT", limit)
    assert mr_normalize(theta).iterations == free.iterations[:k + 1]
    monkeypatch.setattr(machine_r, "TAPE_LIMIT", limit - 1)
    stopped = mr_normalize(theta)
    assert stopped.reason == "tape_limit"
    assert stopped.iterations == free.iterations[:k]
    state = MachineRState(current=stopped.theta)
    assert find_redex_pass(state) == FOUND
    assert stopped.op_count == sum(it.ops for it in stopped.iterations) + state.op_count


# --- lockstep with the references --------------------------------------------
#
# The machine works on whole string tapes; tests/reference.py keeps the
# closed-form passes on list tapes it replaced and the symbol-by-symbol
# passes those replaced.  All three must leave the same tapes and op_count
# after every pass.

def tapes(state):
    """The nine tapes as strings, and op_count."""
    return tuple("".join(tape) for tape in (
        state.current, state.preredex, state.functional, state.argument,
        state.postredex, state.reduct, state.stack_term, state.stack_redex,
        state.counter)) + (state.op_count,)


MACHINE = (find_redex_pass, substitute_pass, reassemble_pass)


def run_in_lockstep(theta, iterations, max_length):
    """Run the machine and both references side by side on one string; the
    tapes and op_count must agree after every pass.  Returns the most
    abstractions a Functional held below its erased binder."""
    runs = [(MachineRState(current=theta), MACHINE),
            (ListState(current=list(theta)), CLOSED_FORM),
            (ListState(current=list(theta)), SYMBOL_BY_SYMBOL)]
    machine = runs[0][0]
    most = 0
    for _ in range(iterations):
        found = {find(s) for s, (find, _, _) in runs}
        assert len({tapes(s) for s, _ in runs}) == 1
        if found == {NO_REDEX}:
            break
        assert found == {FOUND}
        most = max(most, machine.functional.count("λ") - 1)
        for step in (1, 2):
            for s, passes in runs:
                passes[step](s)
            assert len({tapes(s) for s, _ in runs}) == 1
        if len(machine.current) > max_length:
            break
    return most


def test_closed_form_charges_match_the_reference_on_random_terms():
    rng = random.Random(5)
    for i in range(3000):
        t = random_closed_term(rng, rng.choice((8, 14, 20, 28)))
        if i % 3 == 0:
            t = App(t, FreeVar("c"))  # a bare ▶: an index with no digits
        run_in_lockstep(encode_theta(t), iterations=25, max_length=400)


@pytest.mark.parametrize("k", range(1, 41))
def test_closed_form_charges_match_the_reference_under_deep_binders(k):
    # \x.\a1...\ak. x ak ... a1 nests k binders under the erased one, so the
    # counter counts up to k and back: carries and borrows cross 8, 16, 32.
    # Every Functional of this family nests all its abstractions.
    binders = "".join(f"\\a{i}." for i in range(1, k + 1))
    body = " ".join(f"a{i}" for i in range(k, 0, -1))
    t = parse_term(f"(\\x.{binders} x {body}) (\\y.y) (\\u.\\v.u)")
    assert run_in_lockstep(encode_theta(t), 10, 10_000) == k


def test_the_machine_matches_the_references_on_compiled_flip():
    io = Alphabet("01")
    program = build_function(flip_machine(), io)
    for u in ("01", "10"):
        theta = encode_theta(App(program, encode_string(io, u)))
        result = mr_normalize(theta)
        assert result.normalized
        run_in_lockstep(theta, len(result.iterations) + 1, 10_000)


def test_the_next_redex_left_of_the_fired_application():
    # (\f.f) ((\x.x) (\y.y)): the inner redex fires first; its reduct is a
    # value, which turns the abstraction right before the fired @ into the
    # function of the next redex
    theta = encode_theta(parse_term(r"(\f.f) ((\x.x) (\y.y))"))
    state = MachineRState(current=theta)
    assert find_redex_pass(state) == FOUND
    fired = len(state.preredex) - 1
    substitute_pass(state)
    reassemble_pass(state)
    assert find_redex_pass(state) == FOUND
    assert len(state.preredex) - 1 < fired
    assert (state.functional, state.argument) == ("λ▶0", "λ▶0")
    run_in_lockstep(theta, 5, 100)


def _splice(rng, s):
    """`s` with a short stretch replaced by a few random symbols."""
    i = rng.randrange(len(s) + 1)
    j = min(len(s), i + rng.randrange(4))
    return s[:i] + "".join(rng.choice("λ@▶01") for _ in range(rng.randrange(4))) + s[j:]


def _outcome(state):
    try:
        before = state.op_count
        found = find_redex_pass(state)
    except MachineRError as e:
        return str(e)
    return found, tapes(state)[1:-1], state.op_count - before


def test_find_pass_on_an_edited_current_equals_a_fresh_scan():
    # the resumed scan trusts only what still reads as before up to the
    # fired @; an edit anywhere, before or after it, must give exactly the
    # scan from the start, faults included
    rng = random.Random(3)
    edited = 0
    for _ in range(400):
        theta = encode_theta(random_closed_term(rng, 20))
        state = MachineRState(current=theta)
        if find_redex_pass(state) != FOUND:
            continue
        substitute_pass(state)
        reassemble_pass(state)
        for new in (_splice(rng, state.current), state.current[:-1], theta):
            scan = state.scan._replace(checkpoints=list(state.scan.checkpoints))
            again = MachineRState(current=new, scan=scan, op_count=state.op_count)
            assert _outcome(again) == _outcome(MachineRState(current=new))
            edited += 1
    assert edited > 700


def test_one_functional_with_two_arguments(monkeypatch):
    # \x.x is substituted for f, then applied to \a.a and to \b.\c.b: the
    # second substitution replays the first one's plan with a new Argument
    planned = []
    make_plan = machine_r._make_plan
    monkeypatch.setattr(machine_r, "_make_plan",
                        lambda fn, index: planned.append(fn) or make_plan(fn, index))
    text = r"(\f.(\u.\v.v) (f (\a.a)) (f (\b.\c.b))) (\x.x)"
    theta = encode_theta(parse_term(text))
    seen = []
    state = MachineRState(current=theta)
    while find_redex_pass(state) == FOUND:
        seen.append((state.functional, state.argument))
        substitute_pass(state)
        reassemble_pass(state)
    assert ("λ▶0", "λ▶0") in seen and ("λ▶0", "λλ▶1") in seen
    assert planned.count("λ▶0") == 1
    assert state.current == encode_theta(normalize(parse_term(text), "leftmost").term)
    # a second run replays the first run's plans and builds none
    built = len(planned)
    run_in_lockstep(theta, 10, 100)
    assert len(planned) == built


def test_more_functionals_than_the_plan_memo_holds(monkeypatch):
    # compiled FLIP on one bit under a budget just above its longest
    # Current: the memo drops most of its plans and builds some again, and
    # the run keeps every count
    io = Alphabet("01")
    theta = encode_theta(App(build_function(flip_machine(), io), encode_string(io, "1")))
    free = mr_normalize(theta)
    limit = max(it.tl_after for it in free.iterations)
    memo = machine_r._MEMO
    _functionals(theta, 10_000)
    assert memo.plan_symbols > 3 * limit
    memo.__init__()
    monkeypatch.setattr(machine_r, "TAPE_LIMIT", limit)
    run_in_lockstep(theta, 10_000, 10_000)
    assert memo.plan_symbols == sum(map(len, memo.plans))
    assert memo.plan_symbols <= machine_r.TAPE_LIMIT
    assert mr_normalize(theta) == free


def test_the_plan_memo_holds_at_most_the_tape_limit_in_symbols(monkeypatch):
    # the plans used longest ago go until the keys fit, exactly filling
    # the budget if need be; the newest always stays
    monkeypatch.setattr(machine_r, "TAPE_LIMIT", 10)
    memo = machine_r._MEMO
    held = []
    for fn in ("λ▶0", "λλ▶1", "λλ▶0", "λ▶", "λλλ▶10▶0▶1", "λλλλλλλλ▶0▶0"):
        machine_r._plan(fn)
        held.append((list(memo.plans), memo.plan_symbols))
    assert held == [
        (["λ▶0"], 3),
        (["λ▶0", "λλ▶1"], 7),
        (["λλ▶1", "λλ▶0"], 8),
        (["λλ▶1", "λλ▶0", "λ▶"], 10),
        (["λλλ▶10▶0▶1"], 10),
        (["λλλλλλλλ▶0▶0"], 12),
    ]
    # a plan used again becomes the newest, so the one used longest ago goes
    memo.__init__()
    held = []
    for fn in ("λ▶0", "λλ▶1", "λ▶0", "λλ▶0", "λ▶0", "λ▶"):
        plan = machine_r._plan(fn)
        assert plan == machine_r._make_plan(fn, machine_r._Index())
        held.append((list(memo.plans), memo.plan_symbols))
    assert held == [
        (["λ▶0"], 3),
        (["λ▶0", "λλ▶1"], 7),
        (["λλ▶1", "λ▶0"], 7),
        (["λ▶0", "λλ▶0"], 7),
        (["λλ▶0", "λ▶0"], 7),
        (["λλ▶0", "λ▶0", "λ▶"], 9),
    ]


def test_the_find_pass_holds_memory_linear_in_current():
    # K (K (... (K a))) 4,000 deep: the structure stack grows by a frame per
    # level, and the scan keeps a checkpoint per token; the checkpoints share
    # one stack instead of each holding a copy (those would be 17 MB here)
    theta = "@λλ▶1" * 4000 + "▶"
    state = MachineRState(current=theta)
    tracemalloc.start()
    try:
        assert find_redex_pass(state) == FOUND
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.stack_term == "S" * 3999 + "F"
    assert peak < 200 * len(theta)


def test_copy_subterm_matches_the_reference_at_every_start():
    rng = random.Random(8)
    for _ in range(300):
        theta = encode_theta(random_closed_term(rng, 24))
        for start, sym in enumerate(theta):
            if sym in "01":
                continue
            state = ListState(current=list(theta))
            ref = ListState(current=list(theta))
            end = copy_subterm(state, start, state.functional)
            assert end == ref_copy_subterm(ref, start, ref.functional)
            assert tapes(state) == tapes(ref)
            assert machine_r._copy(theta, start, machine_r._Index()) == (end, state.op_count)


@pytest.mark.parametrize("current, message", [
    ("λ@▶0", "truncated subterm"),
    ("@λ@λ▶0", "truncated subterm"),
    ("λ0▶0", "unexpected symbol '0'"),
    ("λ@▶0x", "unexpected symbol 'x'"),
])
def test_copy_subterm_errors(current, message):
    with pytest.raises(MachineRError, match=message):
        find_redex_pass(MachineRState(current=current))
    for find, _, _ in (CLOSED_FORM, SYMBOL_BY_SYMBOL):
        with pytest.raises(MachineRError, match=message):
            find(ListState(current=list(current)))


@pytest.mark.parametrize("functional, stack, message", [
    # the references' fault: an abstraction frame the counter never counted
    # underflows as it closes, and the machine takes no StackRedex but the
    # empty one that step 4 leaves
    ("λ▶0", [A_LAM], "depth counter underflow"),
    ("λλ▶0", [F_APP, A_LAM, A_LAM], "depth counter underflow"),
    ("λ@x", [], "unexpected symbol 'x' on Functional"),
    ("@λ▶0", [], "does not start with an abstraction"),
    # none: the references stop with an S frame left on StackRedex
    ("λ@▶0", [], None),
])
def test_substitute_pass_errors(functional, stack, message):
    memo = machine_r._MEMO
    machine_r._plan("λ▶0")
    state = MachineRState(current="", functional=functional, argument="λ▶0",
                          stack_redex="".join(stack))
    before = tapes(state), dict(memo.plans), memo.plan_symbols, list(memo.index.entries)
    with pytest.raises(MachineRError, match="StackRedex is not empty" if stack
                       else message or "truncated subterm on Functional"):
        substitute_pass(state)
    # a rejected call writes nothing and adds nothing to the memo
    assert (tapes(state), memo.plans, memo.plan_symbols, list(memo.index.entries)) == before
    for _, substitute, _ in (CLOSED_FORM, SYMBOL_BY_SYMBOL):
        state = ListState(current=[], functional=list(functional),
                          argument=list("λ▶0"), stack_redex=list(stack))
        if message is None:
            assert substitute(state).stack_redex
        else:
            with pytest.raises(MachineRError, match=message):
                substitute(state)


def _pass_outcome(run, state):
    """The tapes and op_count a pass leaves, or the message of its fault."""
    try:
        run(state)
    except MachineRError as e:
        return str(e)
    return tapes(state)


def test_passes_on_arbitrary_tapes_agree_with_the_references():
    # strings over the alphabet and one foreign symbol, most of them no
    # term: the find pass leaves the references' tapes or raises their
    # fault.  The substitute pass rejects every StackRedex that is not
    # empty, finds Functional truncated exactly where the references leave
    # frames on StackRedex, and otherwise does the same as they do
    rng = random.Random(13)
    symbols = "λλ@@▶▶01x"
    kinds = []
    for _ in range(3000):
        current = "".join(rng.choice(symbols) for _ in range(rng.randrange(1, 16)))
        functional = "λ" + "".join(rng.choice(symbols) for _ in range(rng.randrange(13)))
        stack = "".join(rng.choice("AFS") for _ in range(rng.choice((0, 0, 1, 2))))
        want = {_pass_outcome(find, ListState(current=list(current)))
                for find, _, _ in (CLOSED_FORM, SYMBOL_BY_SYMBOL)}
        assert want == {_pass_outcome(find_redex_pass, MachineRState(current=current))}
        (want,) = {_pass_outcome(substitute, ListState(
                       current=[], functional=list(functional), argument=list("λ▶0"),
                       stack_redex=list(stack)))
                   for _, substitute, _ in (CLOSED_FORM, SYMBOL_BY_SYMBOL)}
        got = _pass_outcome(substitute_pass, MachineRState(
            current="", functional=functional, argument="λ▶0", stack_redex=stack))
        if stack:
            kinds.append("rejected")
            assert got == "StackRedex is not empty"
        elif isinstance(want, tuple) and want[7]:  # StackRedex
            kinds.append("truncated")
            assert got == "truncated subterm on Functional"
        else:
            kinds.append("agreed")
            assert got == want
    assert Counter(kinds) == {"rejected": 1476, "truncated": 190, "agreed": 1334}


# --- the index of known subterms ---------------------------------------------

def _functionals(theta, iterations):
    """The Functionals the machine reads in its first iterations on
    `theta`, from an empty memo: after them the memo holds the plans of
    those iterations and the subterms they copied."""
    machine_r._MEMO.__init__()
    seen = []
    state = MachineRState(current=theta)
    while (len(seen) < iterations and len(state.current) < 5_000
           and find_redex_pass(state) == FOUND):
        seen.append(state.functional)
        substitute_pass(state)
        reassemble_pass(state)
    return seen


def _plan_outcome(build):
    try:
        return build()
    except MachineRError as e:
        return str(e)


def _counting_steps(monkeypatch):
    """Count the subterms plans step over."""
    steps = []
    charge = machine_r._Index.charge
    monkeypatch.setattr(machine_r._Index, "charge", lambda index, entry, d: steps.append(
        charge(index, entry, d)) or steps[-1])
    return steps


@pytest.mark.parametrize("iterations", [1, 3, 16])
def test_a_resumed_plan_equals_a_fresh_one(monkeypatch, iterations):
    # a run resumed after its first `iterations` iterations plans with the
    # subterms they copied.  Every Functional of the whole run, before that
    # point or after, edited, cut or with a foreign tail: the plan built
    # with that index, stepping over the subterms it knows, is the plan
    # built without them, or has the same fault.  D = \x.\k.k x x hands
    # two copies of a random abstraction to another one.
    steps = _counting_steps(monkeypatch)
    rng = random.Random(21)
    d = parse_term(r"\x.\k.k x x")
    planned = 0
    for _ in range(150):
        value = Abs(random_closed_term(rng, 30))
        theta = encode_theta(App(App(d, value), random_closed_term(rng, 30)))
        functionals = _functionals(theta, 30)
        _functionals(theta, iterations)
        index = machine_r._MEMO.index
        for fn in functionals:
            for new in (fn, _splice(rng, fn), fn[:rng.randrange(1, len(fn) + 1)],
                        fn + rng.choice(("x", "▶0", "λ▶", "0"))):
                if not new.startswith("λ"):
                    continue  # substitute_pass plans no other Functional
                assert _plan_outcome(lambda: machine_r._make_plan(new, index)) \
                    == _plan_outcome(lambda: machine_r._make_plan(new, machine_r._Index()))
                planned += 1
    assert planned > 5_000
    assert sum(charge is not None for charge in steps) > 800


def test_plans_with_the_run_index_equal_fresh_ones_on_compiled_flip(monkeypatch):
    # every plan compiled FLIP on 4 bits builds equals the plan built with
    # an empty index, and the plans step over more known subterms than
    # there are plans; so do the plans a second input adds, built with
    # the index the first one left
    built = []
    make_plan = machine_r._make_plan
    monkeypatch.setattr(machine_r, "_make_plan", lambda fn, index: built.append(
        (fn, make_plan(fn, index))) or built[-1][1])
    steps = _counting_steps(monkeypatch)
    io = Alphabet("01")
    program = build_function(flip_machine(), io)
    result = mr_normalize(encode_theta(App(program, encode_string(io, "0110"))))
    assert (result.op_count, len(result.iterations)) == (5_734_832, 395)
    first = len(built)
    mr_normalize(encode_theta(App(program, encode_string(io, "1011"))))
    for fn, plan in built:
        assert plan == make_plan(fn, machine_r._Index())
    assert first > 150 and sum(charge is not None for charge in steps) > len(built) > first


def _complete_end(tape, start):
    try:
        return machine_r._copy(tape, start, machine_r._Index())[0]
    except MachineRError:
        return None


def _record(index, subterm):
    index.add(subterm, machine_r._copy(subterm, 0, machine_r._Index())[1])


def test_the_index_finds_only_the_complete_subterm_at_a_start():
    # ▶1 and ▶10 end different subterms: a key is found only where no digit
    # follows it, and a key with more digits is no match for a shorter one
    index = machine_r._Index()
    short, long = "λλλ@▶0▶1", "λλλ@▶0▶10"
    for key in (short, long, "λ@▶0λ▶0", "λ@▶0λ▶01", "λλ▶1"):
        _record(index, key)
    # a subterm with no @ is read in one match and never recorded
    assert sorted(index.entries) == sorted((short, long, "λ@▶0λ▶0", "λ@▶0λ▶01"))
    assert index.find(short + "0", 0)[0] == long
    assert index.find("@" + short, 1)[0] == short
    assert index.find(long + "1", 0) is None
    # long sorts between short and short + "▶": a miss, never a wrong key
    assert index.find(short + "▶", 0) is None
    assert index.find("λ@▶0λ▶01@", 0)[0] == "λ@▶0λ▶01"
    # on random tapes, whatever the index finds is the complete subterm there
    rng = random.Random(4)
    for _ in range(300):
        tape = "".join(rng.choice(("λ", "@", "▶0", "▶1", "▶10", "0", "1", short, long))
                       for _ in range(rng.randrange(1, 12)))
        for start in range(len(tape)):
            entry = index.find(tape, start)
            if entry is not None:
                assert _complete_end(tape, start) == start + len(entry[0])
        for start in range(len(tape)):
            if tape[start] == "λ" and _complete_end(tape, start) is not None:
                _record(index, tape[start:_complete_end(tape, start)])
    assert len(index.keys) > 20


def test_a_subterm_that_is_not_closed_is_never_stepped_over():
    # λ@▶1▶0 on its own leaves ▶1 free; inside λ@(λ@▶1▶0)▶0 that ▶1 is the
    # erased binder, so stepping over the subterm would lose an occurrence
    index = machine_r._Index()
    open_term = "λ@▶1▶0"
    _record(index, open_term)
    entry = index.find(open_term, 0)
    assert [index.charge(entry, d) for d in range(4)] == [None] * 4
    fn = "λ@" + open_term + "▶0"
    plan = machine_r._make_plan(fn, index)
    assert plan == machine_r._make_plan(fn, machine_r._Index())
    assert plan.occurrences == 2
    run_in_lockstep("@" + fn + "λ▶0", 5, 100)


def test_a_known_subterm_is_stepped_over_at_the_start_of_the_first_run(monkeypatch):
    # the body of λλ@▶0▶0 is the known closed λ@▶0▶0: the plan steps over
    # it once.  Charging it walks the subterm, which finds itself at its
    # start and declines (the first charge, None); that charge is its walk
    # with an empty index
    steps = _counting_steps(monkeypatch)
    index = machine_r._Index()
    key = "λ@▶0▶0"
    _record(index, key)
    fn = "λ" + key
    plan = machine_r._make_plan(fn, index)
    assert [charge is not None for charge in steps] == [False, True]
    assert plan == machine_r._make_plan(fn, machine_r._Index())
    entry = index.find(key, 0)
    for d in range(5):
        assert index.charge(entry, d) == machine_r._walk(key, 0, d, machine_r._Index(), None)


def test_the_index_holds_at_most_the_tape_limit_in_symbols(monkeypatch):
    # a subterm counts its length and one per Counter value it has a charge
    # for; the oldest go first, but the newest always stays
    monkeypatch.setattr(machine_r, "TAPE_LIMIT", 16)
    a, b, c, d = "λ@▶0▶0", "λλ@▶0▶1", "λλ@▶1▶1", "λ@λ@▶0▶0▶0"
    e = "λλλ@@@@▶0▶1▶10▶0▶1"
    index = machine_r._Index()
    held = []
    for step, subterm in (("add", a), ("add", b), ("find", a), ("charge", a),
                          ("add", c), ("add", d), ("add", e)):
        if step == "add":
            _record(index, subterm)
        elif step == "find":
            assert index.find(subterm, 0)[0] == subterm
        else:
            assert index.charge(index.find(subterm, 0), 3) is not None
        held.append((list(index.entries), index.symbols))
    assert held == [
        ([a], 6),
        ([a, b], 13),
        ([a, b], 13),
        ([a, b], 14),
        ([b, c], 14),
        ([d], 10),
        ([e], 18),
    ]
    assert index.keys == [e] and index.longest == len(e)
    # once the long key is dropped for a short one, lookups read only as
    # much of the tape as the longest key held
    _record(index, a)
    assert index.keys == [a] and index.longest == len(a)


def test_more_subterms_than_the_index_holds(monkeypatch):
    # compiled FLIP on one bit under a budget just above its longest
    # Current: the index drops most of the Arguments it records, and the
    # run keeps every count
    io = Alphabet("01")
    theta = encode_theta(App(build_function(flip_machine(), io), encode_string(io, "1")))
    free = mr_normalize(theta)
    limit = max(it.tl_after for it in free.iterations)
    _functionals(theta, 10_000)
    assert machine_r._MEMO.index.symbols > 3 * limit
    machine_r._MEMO.__init__()
    monkeypatch.setattr(machine_r, "TAPE_LIMIT", limit)
    run_in_lockstep(theta, 10_000, 10_000)
    index = machine_r._MEMO.index
    entries = index.entries.values()
    assert index.symbols == sum(len(key) + len(charges) for key, _, charges in entries)
    assert index.symbols <= machine_r.TAPE_LIMIT
    assert sorted(index.keys) == index.keys == sorted(key for key, *_ in entries)
    assert index.longest == max(map(len, index.keys), default=0)
    assert mr_normalize(theta) == free


def test_the_index_holds_few_bytes_per_symbol():
    # after the compiled palindrome on 2 bits the index holds about 196k
    # symbols of Arguments in about 2.2 bytes each, entries and charges
    # included
    io = Alphabet("01")
    program = build_function(even_palindrome_machine(), io)
    theta = encode_theta(App(program, encode_string(io, "01")))
    tracemalloc.start()
    try:
        state = MachineRState(current=theta)
        while find_redex_pass(state) == FOUND:
            substitute_pass(state)
            reassemble_pass(state)
        held = tracemalloc.get_traced_memory()[0]
        symbols = machine_r._MEMO.index.symbols
        machine_r._MEMO.index = machine_r._Index()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert symbols > 100_000
    assert freed < 4 * symbols


# --- the memo every run shares -----------------------------------------------

def _flip_inputs(bits):
    io = Alphabet("01")
    program = build_function(flip_machine(), io)
    return [encode_theta(App(program, encode_string(io, b))) for b in bits]


def test_no_count_depends_on_what_the_memo_holds():
    # each run returns the same string, op count and iterations from an
    # empty memo, after the inputs before it, and after the inputs after it
    corpora = [bench.make_normalizing_corpus(2, 120, 12),
               bench.make_normalizing_corpus(3, 60, 24, 13)]
    for thetas in [_flip_inputs(("01101001", "11110000", "00110101"))] + [
            [encode_theta(t) for t in corpus] for corpus in corpora]:
        alone = []
        for theta in thetas:
            machine_r._MEMO.__init__()
            alone.append(mr_normalize(theta))
        machine_r._MEMO.__init__()
        assert [mr_normalize(theta) for theta in thetas] == alone
        machine_r._MEMO.__init__()
        assert [mr_normalize(theta) for theta in reversed(thetas)] == alone[::-1]


def test_a_warmed_memo_keeps_the_machine_in_lockstep_with_the_references():
    warm, theta = _flip_inputs(("10", "01"))
    mr_normalize(warm)
    assert machine_r._MEMO.plans and machine_r._MEMO.index.keys
    run_in_lockstep(theta, 10_000, 10_000)


def test_a_plan_holds_no_copy_of_its_functional():
    # the plans of compiled FLIP on 8 bits keep offsets into their keys:
    # dropping them, keys kept, frees less than a byte per key symbol,
    # where copies of the literal text took about two
    tracemalloc.start()
    try:
        mr_normalize(_flip_inputs(("01101001",))[0])
        plans = machine_r._MEMO.plans
        held = tracemalloc.get_traced_memory()[0]
        for fn in plans:
            plans[fn] = None
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    symbols = machine_r._MEMO.plan_symbols
    assert symbols == sum(map(len, plans)) > 100_000
    assert freed < symbols


def test_compiled_flip_on_16_bits_keeps_its_counts():
    # recorded before plans resumed from checkpoints: on longer tapes the
    # resumed plans start from deeper checkpoints than on 8 bits
    io = Alphabet("01")
    program = build_function(flip_machine(), io)
    result = mr_normalize(encode_theta(App(program, encode_string(io, "0110100110010110"))))
    assert result.normalized
    assert (result.op_count, len(result.iterations)) == (21_417_457, 1_307)
    assert decode_theta(result.theta) == encode_string(io, "1001011001101001")


def test_compiled_palindrome_on_4_bits_keeps_its_counts():
    # the even-palindrome machine's Functionals run to 76k symbols; before
    # the index a run took about 5 s, most of it building plans
    io = Alphabet("01")
    term = App(build_function(even_palindrome_machine(), io), encode_string(io, "0110"))
    result = mr_normalize(encode_theta(term))
    assert (result.op_count, len(result.iterations)) == (208_566_075, 785)
    assert bench.agrees_with_engine(result, normalize(term, "leftmost"))
