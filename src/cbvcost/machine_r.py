"""Reference tape-machine normalizer over the compact string notation.

The machine keeps nine tapes: Current (input and output), Preredex,
Functional, Argument, Postredex, Reduct, two structure stacks and a binary
Counter.  Each iteration performs one normalization step of the calculus:

1. scan Current for the leftmost application whose function part is an
   abstraction and whose argument starts with λ or ▶ (a value), splitting
   the term across Preredex / Functional / Argument / Postredex;
2. copy Functional to Reduct, erasing its first λ and replacing each
   occurrence of the erased binder's variable (index equal to the binary
   Counter tracking λ-nesting depth) by Argument, verbatim;
3. write Preredex ++ Reduct ++ Postredex back to Current;
4. erase every other tape.

Abstractions are scanned only for their extent, never for redexes inside,
which is exactly the no-reduction-under-λ discipline.  The operation
counter charges one unit per single-symbol read, write, push or pop; that
proxy is the "machine step" used by every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .theta import APP, LAM, MARK, canonical_theta, decode_theta

# structure-stack symbols
A_LAM = "A"   # pending abstraction body
F_APP = "F"   # pending first argument of an application
S_APP = "S"   # pending second argument of an application

FOUND = "found"
NO_REDEX = "no_redex"


class MachineRError(Exception):
    pass


def stack_update(stack, symbol: str) -> list[str]:
    """One scanned symbol applied to a structure stack (pure helper).

    @ pushes F, λ pushes A; ▶ pops S and A until an F is replaced by S or
    the stack empties; binary digits leave the stack alone.
    """
    out = list(stack)
    if symbol == APP:
        out.append(F_APP)
    elif symbol == LAM:
        out.append(A_LAM)
    elif symbol == MARK:
        while out:
            top = out.pop()
            if top == F_APP:
                out.append(S_APP)
                break
    elif symbol in ("0", "1"):
        pass
    else:
        raise ValueError(f"not a tape symbol: {symbol!r}")
    return out


@dataclass
class IterationStats:
    tl_before: int
    tl_after: int
    ops: int


@dataclass
class MachineRState:
    current: list[str]
    preredex: list[str] = field(default_factory=list)
    functional: list[str] = field(default_factory=list)
    argument: list[str] = field(default_factory=list)
    postredex: list[str] = field(default_factory=list)
    reduct: list[str] = field(default_factory=list)
    stack_term: list[str] = field(default_factory=list)
    stack_redex: list[str] = field(default_factory=list)
    counter: list[str] = field(default_factory=list)
    op_count: int = 0
    iterations: list[IterationStats] = field(default_factory=list)

    # counted single-symbol tape operations
    def read(self, tape: list[str], i: int) -> str:
        self.op_count += 1
        return tape[i]

    def write(self, tape: list[str], sym: str) -> None:
        self.op_count += 1
        tape.append(sym)

    def push(self, stack: list[str], sym: str) -> None:
        self.op_count += 1
        stack.append(sym)


def _close(state: MachineRState, stack: list[str]) -> int:
    """The counted ▶ case of `stack_update`: pop S and A frames until an F
    becomes S or the stack empties, one operation per pop and push.
    Returns how many A frames (abstraction bodies) it closed."""
    closed = 0
    ops = 0
    while stack:
        top = stack.pop()
        ops += 1
        if top == F_APP:
            stack.append(S_APP)
            ops += 1
            break
        if top == A_LAM:
            closed += 1
    state.op_count += ops
    return closed


def _copy_subterm(state: MachineRState, start: int, dest: list[str]) -> int:
    """Copy one complete subterm of Current starting at `start` into `dest`.

    The extent is tracked with StackRedex: a well-formed subterm ends at the
    variable occurrence that empties the stack.  Returns the end position.
    """
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
        if sym == APP:
            state.push(sr, F_APP)
        elif sym == LAM:
            state.push(sr, A_LAM)
        elif sym == MARK:
            _close(state, sr)
            while pos < n and cur[pos] in "01":
                state.write(dest, state.read(cur, pos))
                pos += 1
            if not sr:
                return pos
        else:
            raise MachineRError(f"unexpected symbol {sym!r} at a subterm boundary")


def find_redex_pass(state: MachineRState) -> str:
    """Step 1: locate the leftmost value-argument redex and split the tapes.

    After FOUND, Preredex still ends with the redex's own @ (it is discarded
    at reassembly), Functional holds the abstraction, Argument the argument
    and Postredex the rest.  NO_REDEX leaves Current unchanged and erases
    the scan scratch.
    """
    cur = state.current
    n = len(cur)
    st = state.stack_term
    pos = 0
    while pos < n:
        sym = state.read(cur, pos)
        if sym == LAM:
            # every abstraction is copied wholesale: no redexes inside count
            in_fun_position = bool(st) and st[-1] == F_APP
            end = _copy_subterm(state, pos, state.functional)
            nxt = state.read(cur, end) if end < n else ""
            if in_fun_position and nxt in (LAM, MARK):
                arg_end = _copy_subterm(state, end, state.argument)
                state.postredex.extend(cur[arg_end:])
                state.op_count += 2 * (n - arg_end)
                return FOUND
            # completed non-redex subterm: move it out and fold the stack
            state.preredex.extend(state.functional)
            state.op_count += 2 * len(state.functional)
            state.functional.clear()
            _close(state, st)  # net stack effect of a whole subterm
            pos = end
        else:
            state.write(state.preredex, sym)
            if sym == APP:
                state.push(st, F_APP)
            elif sym == MARK:
                _close(state, st)
            pos += 1
    state.op_count += len(state.preredex) + len(st)
    state.preredex.clear()
    st.clear()
    return NO_REDEX


def _counter_inc(state: MachineRState) -> None:
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


def _counter_dec(state: MachineRState) -> None:
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


def _counter_equals(state: MachineRState, digits: str) -> bool:
    c = state.counter
    state.op_count += min(len(c), len(digits)) + 1
    if len(c) != len(digits):
        return False
    return all(a == b for a, b in zip(c, digits))


def substitute_pass(state: MachineRState) -> MachineRState:
    """Step 2: Functional minus its first λ goes to Reduct, with the erased
    binder's occurrences replaced by Argument copied verbatim."""
    fn = state.functional
    n = len(fn)
    if not fn or fn[0] != LAM:
        raise MachineRError("Functional does not start with an abstraction")
    state.op_count += 1  # read (and erase) the leading λ
    state.counter[:] = ["0"]
    state.op_count += 1
    sr = state.stack_redex
    pos = 1
    while pos < n:
        sym = state.read(fn, pos)
        if sym == LAM:
            state.write(state.reduct, sym)
            state.push(sr, A_LAM)
            _counter_inc(state)
            pos += 1
        elif sym == APP:
            state.write(state.reduct, sym)
            state.push(sr, F_APP)
            pos += 1
        elif sym == MARK:
            dstart = pos + 1
            dend = dstart
            while dend < n and fn[dend] in "01":
                dend += 1
            digits = "".join(fn[dstart:dend])
            state.op_count += dend - dstart
            if _counter_equals(state, digits):
                state.reduct.extend(state.argument)
                state.op_count += 2 * len(state.argument)  # read and write
            else:
                state.write(state.reduct, MARK)
                for d in digits:
                    state.write(state.reduct, d)
            pos = dend
            # closing abstraction bodies lowers the depth counter
            for _ in range(_close(state, sr)):
                _counter_dec(state)
        else:
            raise MachineRError(f"unexpected symbol {sym!r} on Functional")
    return state


def reassemble_pass(state: MachineRState) -> MachineRState:
    """Steps 3 and 4: Current := Preredex ++ Reduct ++ Postredex, rest erased.

    The trailing symbol of Preredex is the fired redex's own application
    node; it disappears with the redex.
    """
    pre = state.preredex
    if not pre or pre[-1] != APP:
        raise MachineRError("Preredex does not end with the redex's application")
    pre.pop()
    state.op_count += 1
    state.current[:] = pre + state.reduct + state.postredex
    state.op_count += 2 * len(state.current)
    for tape in (state.preredex, state.functional, state.argument,
                 state.postredex, state.reduct, state.stack_term,
                 state.stack_redex, state.counter):
        state.op_count += len(tape)
        tape.clear()
    return state


@dataclass
class MachineRResult:
    theta: str
    op_count: int
    iterations: list[IterationStats]
    normalized: bool


def mr_normalize(theta: str, fuel_iterations: int = 100_000) -> MachineRResult:
    """Iterate steps 1-4 until no redex remains or the iteration fuel is spent.

    Input may use the unicode or the ASCII spelling; it is validated (arity
    and index scoping) before the machine starts.
    """
    if fuel_iterations <= 0:
        raise ValueError("fuel must be positive")
    s = canonical_theta(theta)
    decode_theta(s)  # reject malformed input up front
    state = MachineRState(current=list(s))
    for _ in range(fuel_iterations):
        tl_before = len(state.current)
        ops_before = state.op_count
        if find_redex_pass(state) == NO_REDEX:
            return MachineRResult("".join(state.current), state.op_count,
                                  state.iterations, True)
        substitute_pass(state)
        reassemble_pass(state)
        state.iterations.append(IterationStats(tl_before, len(state.current),
                                               state.op_count - ops_before))
    return MachineRResult("".join(state.current), state.op_count,
                          state.iterations, False)
