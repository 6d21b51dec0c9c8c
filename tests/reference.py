"""The tests' own reference implementations.

The package defines the cost model by plain reduction and ships the
machines measured against it; the whole-term helpers below exist only so
that the tests can check those machines against something simpler.
"""

from dataclasses import dataclass, field

from cbvcost import (
    ARG, FUN, Abs, App, BoundVar, CostTrace, FreeVar, InvalidPositionError,
    ReductionOutcome, Term, XiValue, is_redex,
)
from cbvcost.machine_r import A_LAM, F_APP, FOUND, NO_REDEX, S_APP, MachineRError
from cbvcost.reduction import Zipper
from cbvcost.theta import (
    APP, DEFAULT_FREE_NAME, LAM, MARK, MalformedThetaError, canonical_theta,
)

Position = tuple[str, ...]

MAX_ENUMERATION_SIZE = 12


# --- terms ------------------------------------------------------------------

def alpha_eq(a: Term, b: Term) -> bool:
    """Alpha-equivalence; identical to structural equality in locally
    nameless form."""
    return a == b


def is_well_scoped(t: Term) -> bool:
    """No de Bruijn index escapes its binders (free names are fine)."""
    return t.max_index < 0


# --- substitution on a whole term ---------------------------------------------
#
# Plain recursion, one binder at a time and no sharing: for the small terms
# the tests compare `terms.instantiate`, `substitute_top` and `lam` with.

def ref_instantiate(t: Term, values, names, depth: int = 0) -> Term:
    """`t` with each dangling index i below len(values) replaced by values[i]
    and each free name in `names` bound as names[name] counted from the root."""
    if type(t) is BoundVar:
        i = t.index - depth
        return values[i] if 0 <= i < len(values) else t
    if type(t) is FreeVar:
        return BoundVar(depth + names[t.name]) if t.name in names else t
    if type(t) is Abs:
        return Abs(ref_instantiate(t.body, values, names, depth + 1))
    return App(ref_instantiate(t.fun, values, names, depth),
               ref_instantiate(t.arg, values, names, depth))


def ref_substitute_top(body: Term, value: Term) -> Term:
    """The body of a fired redex with the argument in place of index 0."""
    return ref_instantiate(body, (value,), {})


def ref_close(t: Term, name: str, depth: int = 0) -> Term:
    """`t` with the free name bound by a binder just outside it."""
    if type(t) is FreeVar:
        return BoundVar(depth) if t.name == name else t
    if type(t) is Abs:
        return Abs(ref_close(t.body, name, depth + 1))
    if type(t) is App:
        return App(ref_close(t.fun, name, depth), ref_close(t.arg, name, depth))
    return t


def ref_lam(*names_and_body) -> Term:
    """Nested binders, innermost first, each closing its own name."""
    *names, body = names_and_body
    for name in reversed(names):
        body = Abs(ref_close(body, name))
    return body


# --- redexes on a whole term ------------------------------------------------

def find_redexes(t: Term) -> list[Position]:
    """All reducible positions, left to right."""
    out: list[Position] = []
    stack: list[tuple[Term, Position]] = [(t, ())]
    while stack:
        node, path = stack.pop()
        if node.n_redexes == 0 or type(node) is not App:
            continue
        if is_redex(node):
            out.append(path)
        stack.append((node.arg, path + (ARG,)))
        stack.append((node.fun, path + (FUN,)))
    return out


def subterm_at(t: Term, path: Position) -> Term:
    node = t
    for step in path:
        if type(node) is not App:
            raise InvalidPositionError("path leaves the term")
        node = node.fun if step == FUN else node.arg
    return node


def zipper_leftmost(t: Term, fuel: int) -> ReductionOutcome:
    """Leftmost reduction by substitution: fire redex #0 of a Zipper until
    no redex is left or `fuel` steps are spent, recording each step's
    position code and size and adding up max(1, growth) step by step."""
    trace = CostTrace(t.size)
    trace.sizes = []  # exact ints past 2⁶³ − 1
    z = Zipper(t)
    for _ in range(fuel):
        if z.n_redexes == 0:
            break
        before = z.size
        trace.positions.append(z.fire(0))
        trace.sizes.append(z.size)
        trace.total_cost += max(1, z.size - before)
    return ReductionOutcome(z.term(), trace, z.n_redexes == 0)


def brent_normalizes_within(t: Term, fuel: int, size_limit: int) -> bool:
    """The divergence probe with Brent's cycle detection as its only proof
    of divergence: leftmost steps on a Zipper, the whole term compared with
    the checkpoint at step 1, 2, 4, ... whenever their sizes agree."""
    z = Zipper(t)
    mark, mark_step = t, 1
    for step in range(1, fuel + 1):
        if z.n_redexes == 0:
            return True
        z.fire(0)
        if z.size > size_limit or (z.size == mark.size and z.term() == mark):
            return False
        if step == mark_step:
            mark, mark_step = z.term(), 2 * mark_step
    return False


def enumerate_closed_terms(max_size: int) -> list[Term]:
    """Every closed term of size <= max_size, smallest first, no duplicates.

    The listing for max_size k is a prefix of the listing for k+1.
    """
    if not 1 <= max_size <= MAX_ENUMERATION_SIZE:
        raise ValueError(f"max_size must be in 1..{MAX_ENUMERATION_SIZE}")
    memo: dict[tuple[int, int], list[Term]] = {}

    def terms_of(s: int, depth: int) -> list[Term]:
        key = (s, depth)
        got = memo.get(key)
        if got is not None:
            return got
        acc: list[Term] = []
        if s == 1:
            acc = [BoundVar(i) for i in range(depth)]
        else:
            acc.extend(Abs(b) for b in terms_of(s - 1, depth + 1))
            for left in range(1, s - 1):
                for f in terms_of(left, depth):
                    for a in terms_of(s - 1 - left, depth):
                        acc.append(App(f, a))
        memo[key] = acc
        return acc

    out: list[Term] = []
    for s in range(1, max_size + 1):
        out.extend(terms_of(s, 0))
    return out


# --- the string notation -----------------------------------------------------
#
# A left-to-right reader that validates and builds in one fold, symbol by
# symbol: the oracle for `theta.check_theta` and `theta.decode_theta`.

def ref_decode_theta(s: str) -> Term:
    """Inverse of encode_theta; every bare ▶ becomes FreeVar(DEFAULT_FREE_NAME).

    Rejects arity violations, non-canonical index blocks and indices that
    escape their binders.
    """
    s = canonical_theta(s)
    n = len(s)
    pos = 0
    # frames: ['λ'] awaiting a body, or ['@', fun-or-None]
    frames: list[list] = []
    depth = 0
    while True:
        if pos >= n:
            raise MalformedThetaError("unexpected end of string", n)
        ch = s[pos]
        if ch == APP:
            frames.append([APP, None])
            pos += 1
            continue
        if ch == LAM:
            frames.append([LAM])
            depth += 1
            pos += 1
            continue
        if ch != MARK:
            raise MalformedThetaError(f"unexpected symbol {ch!r}", pos)
        start = pos
        pos += 1
        dstart = pos
        while pos < n and s[pos] in "01":
            pos += 1
        digits = s[dstart:pos]
        if digits == "":
            term: Term = FreeVar(DEFAULT_FREE_NAME)
        else:
            if len(digits) > 1 and digits[0] == "0":
                raise MalformedThetaError("leading zero in index", dstart)
            index = int(digits, 2)
            if index >= depth:
                raise MalformedThetaError("index out of scope", start)
            term = BoundVar(index)
        # fold the completed subterm into the pending frames
        while frames:
            top = frames[-1]
            if top[0] == LAM:
                frames.pop()
                depth -= 1
                term = Abs(term)
            elif top[1] is None:
                top[1] = term
                term = None  # type: ignore[assignment]
                break
            else:
                frames.pop()
                term = App(top[1], term)
        if term is not None:
            if pos != n:
                raise MalformedThetaError("trailing symbols after a complete term", pos)
            return term


# --- machine-r ----------------------------------------------------------------

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


# --- machine-r on list tapes ------------------------------------------------
#
# Two references for cbvcost.machine_r, which works on whole string tapes.
# Both keep every tape as a list of symbols.  The closed-form passes
# (`find_redex_pass`, `substitute_pass`) walk the tapes one symbol at a
# time but charge a copied subterm and the depth Counter's arithmetic in
# closed form.  The symbol-by-symbol passes (`ref_find_redex_pass`,
# `ref_substitute_pass`) charge every read, write, push and pop, and every
# Counter digit visited, one operation each.  Both must leave the same tapes
# and the same op_count as the machine.

@dataclass
class ListState:
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


def close(state: ListState, stack: list[str]) -> int:
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


def copy_subterm(state: ListState, start: int, dest: list[str]) -> int:
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


def find_redex_pass(state: ListState, copy=copy_subterm) -> str:
    """Step 1 with every abstraction copied by `copy`."""
    cur = state.current
    n = len(cur)
    st = state.stack_term
    pos = 0
    while pos < n:
        sym = state.read(cur, pos)
        if sym == LAM:
            # every abstraction is copied wholesale: no redexes inside count
            in_fun_position = bool(st) and st[-1] == F_APP
            end = copy(state, pos, state.functional)
            nxt = state.read(cur, end) if end < n else ""
            if in_fun_position and nxt in (LAM, MARK):
                arg_end = copy(state, end, state.argument)
                state.postredex.extend(cur[arg_end:])
                state.op_count += 2 * (n - arg_end)
                return FOUND
            # completed non-redex subterm: move it out and fold the stack
            state.preredex.extend(state.functional)
            state.op_count += 2 * len(state.functional)
            state.functional.clear()
            close(state, st)  # net stack effect of a whole subterm
            pos = end
        else:
            state.write(state.preredex, sym)
            if sym == APP:
                state.push(st, F_APP)
            elif sym == MARK:
                close(state, st)
            pos += 1
    state.op_count += len(state.preredex) + len(st)
    state.preredex.clear()
    st.clear()
    return NO_REDEX


def substitute_pass(state: ListState) -> ListState:
    """Step 2, the Counter charged in closed form: an increment visits d's
    trailing ones and one more digit, a decrement its trailing zeros and one
    more, plus the leading zero it drops when d >= 2 is a power of two;
    comparing with an index visits the shorter digit string and one more."""
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
            for _ in range(close(state, sr)):
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


def reassemble_pass(state: ListState) -> ListState:
    """Steps 3 and 4: Current := Preredex ++ Reduct ++ Postredex, rest erased."""
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


def ref_copy_subterm(state: ListState, start: int, dest: list[str]) -> int:
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
            close(state, sr)
            while pos < n and cur[pos] in "01":
                state.write(dest, state.read(cur, pos))
                pos += 1
            if not sr:
                return pos
        else:
            raise MachineRError(f"unexpected symbol {sym!r} at a subterm boundary")


def ref_counter_inc(state: ListState) -> None:
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


def ref_counter_dec(state: ListState) -> None:
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


def ref_counter_equals(state: ListState, digits: str) -> bool:
    c = state.counter
    state.op_count += min(len(c), len(digits)) + 1
    if len(c) != len(digits):
        return False
    return all(a == b for a, b in zip(c, digits))


def ref_find_redex_pass(state: ListState) -> str:
    return find_redex_pass(state, ref_copy_subterm)


def ref_substitute_pass(state: ListState) -> ListState:
    fn = state.functional
    n = len(fn)
    if not fn or fn[0] != LAM:
        raise MachineRError("Functional does not start with an abstraction")
    state.op_count += 1
    state.counter[:] = ["0"]
    state.op_count += 1
    sr = state.stack_redex
    pos = 1
    while pos < n:
        sym = state.read(fn, pos)
        if sym == LAM:
            state.write(state.reduct, sym)
            state.push(sr, A_LAM)
            ref_counter_inc(state)
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
            if ref_counter_equals(state, digits):
                state.reduct.extend(state.argument)
                state.op_count += 2 * len(state.argument)
            else:
                state.write(state.reduct, MARK)
                for d in digits:
                    state.write(state.reduct, d)
            pos = dend
            for _ in range(close(state, sr)):
                ref_counter_dec(state)
        else:
            raise MachineRError(f"unexpected symbol {sym!r} on Functional")
    return state


# (find, substitute, reassemble) of each reference
CLOSED_FORM = (find_redex_pass, substitute_pass, reassemble_pass)
SYMBOL_BY_SYMBOL = (ref_find_redex_pass, ref_substitute_pass, reassemble_pass)


# --- the applicative structure ------------------------------------------------

def unpair(p: XiValue) -> tuple[XiValue, XiValue]:
    """Inverse of pair, for checking results; raises ValueError otherwise."""
    t = p.term
    if (type(t) is Abs and type(t.body) is App and type(t.body.fun) is App
            and type(t.body.fun.fun) is BoundVar and t.body.fun.fun.index == 0):
        return XiValue(t.body.fun.arg), XiValue(t.body.arg)
    raise ValueError("not a pair")
