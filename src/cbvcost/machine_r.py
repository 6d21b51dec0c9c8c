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
proxy is the "machine step" used by every report.  A pass charges a whole
copied subterm, and the binary Counter's arithmetic, in closed form: the
count equals the symbol-by-symbol one, which the tests keep as the
reference.
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
    """The counted ▶ on a structure stack: pop S and A frames until an F
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
    """Copy one complete subterm of Current starting at `start` into `dest`
    and return its end.  `need` counts the subterms still to read: @ adds
    one, ▶ and its digits complete one.  The charge is that of the copy
    through StackRedex, empty before and after: a read and a write per
    symbol, per @ a push and a pop of F and of S, per λ of A.
    """
    cur = state.current
    n = len(cur)
    need = 1
    apps = lams = 0
    pos = start
    while need:
        if pos >= n:
            raise MachineRError("truncated subterm on Current")
        sym = cur[pos]
        pos += 1
        if sym == APP:
            need += 1
            apps += 1
        elif sym == LAM:
            lams += 1
        elif sym == MARK:
            need -= 1
            while pos < n and cur[pos] in "01":
                pos += 1
        else:
            raise MachineRError(f"unexpected symbol {sym!r} at a subterm boundary")
    dest.extend(cur[start:pos])
    state.op_count += 2 * (pos - start) + 4 * apps + 2 * lams
    return pos


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


def substitute_pass(state: MachineRState) -> MachineRState:
    """Step 2: Functional minus its first λ goes to Reduct, with the erased
    binder's occurrences replaced by Argument copied verbatim.

    The Counter holds the λ-depth d, its digits charged in closed form: an
    increment visits d's trailing ones and one more digit, a decrement its
    trailing zeros and one more, plus the leading zero it drops when d >= 2
    is a power of two; comparing with an index visits the shorter digit
    string and one more."""
    fn = state.functional
    n = len(fn)
    if not fn or fn[0] != LAM:
        raise MachineRError("Functional does not start with an abstraction")
    reduct = state.reduct
    sr = state.stack_redex
    d = 0
    ops = 2  # read (and erase) the leading λ, set the Counter to 0
    pos = 1
    while pos < n:
        sym = fn[pos]
        if sym == LAM:
            reduct.append(sym)
            sr.append(A_LAM)
            ops += 3 + (~d & (d + 1)).bit_length()  # read, write, push; increment
            d += 1
            pos += 1
        elif sym == APP:
            reduct.append(sym)
            sr.append(F_APP)
            ops += 3  # read, write, push
            pos += 1
        elif sym == MARK:
            dend = pos + 1
            while dend < n and fn[dend] in "01":
                dend += 1
            digits = "".join(fn[pos + 1:dend])
            depth = format(d, "b")
            ops += dend - pos + min(len(depth), len(digits)) + 1  # reads; compare
            if digits == depth:
                reduct.extend(state.argument)
                ops += 2 * len(state.argument)  # read and write
            else:
                reduct.extend(fn[pos:dend])
                ops += dend - pos
            pos = dend
            # closing abstraction bodies lowers the depth counter
            for _ in range(_close(state, sr)):
                if d == 0:
                    raise MachineRError("depth counter underflow")
                low = d & -d
                ops += low.bit_length() + (d > 1 and low == d)
                d -= 1
        else:
            raise MachineRError(f"unexpected symbol {sym!r} on Functional")
    state.counter[:] = format(d, "b")
    state.op_count += ops
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
    """Iterate steps 1-4 until no redex remains or the iteration fuel is
    spent; a normal form left by the last iteration counts.

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
    # the find pass every normalized run ends with, charged as such
    normalized = find_redex_pass(state) == NO_REDEX
    return MachineRResult("".join(state.current), state.op_count,
                          state.iterations, normalized)
