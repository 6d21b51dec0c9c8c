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

The operation count is the machine's; the Python work behind it is done
on whole tapes.  Every tape is a `str`, written with slices and joins.
A pass charges each copied subterm and the binary Counter's arithmetic in
closed form.  The find pass steps over one structural token at a time
(an @, a ▶ with its digits, or a whole abstraction) and resumes where the
last iteration changed Current.  The substitute pass replays a plan
memoized per Functional string: the offsets of the literal text between
the occurrences, and the charge.  Each count equals the symbol-by-symbol
one; `tests/reference.py` keeps both the symbol-by-symbol machine and the
closed-form passes on list tapes that this module replaced, and the tests
run all three in lockstep.  One regex reads a ▶ and its digits for the
find pass, and each run of λ and @ with the ▶ after it for a plan.

The plans and one index of the Arguments with an @ that runs have
copied, the values substitution copies into Reducts, belong to the
process: every run and every pass shares them.  Plans and charges are
functions of their strings, so no count depends on what earlier runs
left there.  Nothing in cbvcost runs machine-r from two threads.  The
find pass takes a known subterm's end and charge from the index.  A plan
steps over a known closed subterm at the start of a run or after an @ in
one move: it holds no occurrence, so it adds only its charge, memoized
in the subterm's entry next to its copy charge, per Counter value, and
then closes the frames the subterm completes.

The structure stacks are persistent linked lists of runs of frames, so a
push takes O(1), a pop O(1) amortized, and a checkpoint shares the stack
instead of copying it.  The find pass spells its stack out for StackTerm
at its end.  A substitution starts from the empty StackRedex that step 4
leaves, with the Counter set to 0, and ends with both so again.

A run has a tape budget: `mr_normalize` stops, with reason "tape_limit",
before an iteration that would write a Current longer than `TAPE_LIMIT`
symbols.  Every other tape is a piece of Current or of the next one, and
the find pass keeps O(1) per top-level token of Current, so a run's own
tapes hold memory linear in the longer of its input and the budget.  The
shared memo holds plans of at most `TAPE_LIMIT` symbols of keys in all,
each a few offsets besides its key, and an index of at most `TAPE_LIMIT`
symbols, one per memoized charge included.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .reduction import DEFAULT_FUEL
# nothing here calls decode_theta; perfbench/tracer.py wraps it here by name
from .theta import APP, LAM, MARK, check_theta, decode_theta  # noqa: F401

# structure-stack symbols
A_LAM = "A"   # pending abstraction body
F_APP = "F"   # pending first argument of an application
S_APP = "S"   # pending second argument of an application

FOUND = "found"
NO_REDEX = "no_redex"

# the default tape budget, in symbols: 66x the longest Current of compiled
# FLIP on 8 bits (3,959), 4x the 65,531-symbol normal form of D nested 13
# deep; D nested 16 deep (a 260-character input) stops on it
TAPE_LIMIT = 1 << 18

# a run of λ and @, then a ▶ and its digits unless the run ends the tape
_RUN = re.compile("([λ@]*)(?:▶([01]*))?")
_APP_LAM = APP + LAM
# whole tokens: where a run of them stops, a symbol-by-symbol copy faults
_TOKENS = re.compile("(?:[λ@]|▶[01]*)*")
# the frame each symbol of a run pushes on StackRedex
_FRAMES = str.maketrans({LAM: A_LAM, APP: F_APP})


class MachineRError(Exception):
    pass


class TapeLimitReached(MachineRError):
    """A pass would write a Current longer than the run's tape budget."""


@dataclass
class IterationStats:
    tl_before: int
    tl_after: int
    ops: int


# a structure stack: None, or (frames, end, s, below): frames[:end] and
# then s S frames, the last on top, pushed onto the stack below
Stack = tuple | None


class _Scan(NamedTuple):
    """What a find pass that found a redex read: Current up to the redex's
    @, and before each top-level token a checkpoint (the token's start, ops
    so far, structure stack).  The last two tokens are that @ and the
    abstraction after it."""
    prefix: str
    checkpoints: list[tuple[int, int, Stack]]


class _Plan(NamedTuple):
    """A substitution of Functional `fn` without its Argument: `cuts` holds
    the start and end in `fn` of each literal span around the occurrences,
    and `literal` their total length.  The Reduct is those spans joined by
    the Argument; the charge is `ops + 2 * |argument| * occurrences`."""
    cuts: tuple[int, ...]
    literal: int
    ops: int
    occurrences: int


class _Index:
    """The Arguments with an @ that runs have copied, sorted in `keys`.
    `entries` gives each, oldest first, the subterm, the charge of copying
    it and, by Counter value, the charge of stepping over it in a plan.
    It drops its oldest subterms to hold at most TAPE_LIMIT symbols, one
    per charge of a step included, but always keeps the newest.
    `longest` is the length of the longest key held."""

    __slots__ = ("keys", "entries", "symbols", "longest")

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.entries: dict[str, tuple] = {}
        self.symbols = self.longest = 0

    def find(self, tape: str, start: int) -> tuple | None:
        """The entry of the subterm at `tape[start]`, if known.  No term is
        a prefix of another, but an index's digits may run on (▶1, ▶10):
        so only the greatest key not above the rest of the tape can be it,
        and only if no digit follows it there."""
        keys = self.keys
        i = bisect_right(keys, tape[start:start + self.longest])
        if i:
            key = keys[i - 1]
            if tape.startswith(key, start) and not tape.startswith(("0", "1"), start + len(key)):
                return self.entries[key]
        return None

    def add(self, key: str, charge: int) -> None:
        """Record the subterm `key` and its copy charge, unless it has no @."""
        if APP in key and key not in self.entries:
            self._make_room(len(key))
            self.entries[key] = (key, charge, {})
            insort(self.keys, key)
            self.longest = max(self.longest, len(key))

    def charge(self, entry: tuple, d: int) -> int | None:
        """The charge of substituting through the subterm of `entry` with
        the Counter at `d`, from an empty stack: its frames popped at its
        end.  None if the subterm is not closed."""
        charges = entry[2]
        if d not in charges:
            charges[d] = None  # counted now, and dropped with the entry
            self._make_room(1)
            charges[d] = _walk(entry[0], 0, d, self, None)
        return charges[d]

    def _make_room(self, size: int) -> None:
        """Count `size` more symbols, first dropping the oldest subterms
        while more than TAPE_LIMIT would be held."""
        entries = self.entries
        dropped = 0
        while entries and self.symbols + size > TAPE_LIMIT:
            key, _, charges = entries.pop(next(iter(entries)))
            self.symbols -= len(key) + len(charges)
            del self.keys[bisect_left(self.keys, key)]
            dropped = max(dropped, len(key))
        if dropped == self.longest:
            self.longest = max(map(len, self.keys), default=0)
        self.symbols += size


@dataclass
class _Memo:
    """What every run shares: the plans by Functional, oldest used first,
    the symbols of their keys, and the index."""
    plans: dict[str, _Plan] = field(default_factory=dict)
    plan_symbols: int = 0
    index: _Index = field(default_factory=_Index)


_MEMO = _Memo()


@dataclass
class MachineRState:
    """One run: the nine tapes, the operations and iterations so far, and
    the last find pass's checkpoints.  The plans and the index are _MEMO's."""
    current: str
    preredex: str = ""
    functional: str = ""
    argument: str = ""
    postredex: str = ""
    reduct: str = ""
    stack_term: str = ""
    stack_redex: str = ""
    counter: str = ""
    op_count: int = 0
    iterations: list[IterationStats] = field(default_factory=list)
    scan: _Scan | None = field(default=None, repr=False)


def _close(stack: Stack) -> tuple[Stack, int, int]:
    """The counted ▶ on a structure stack: pop S and A frames until an F
    becomes S or the stack empties, one operation per pop and push.
    Returns the new stack, the operations and the A frames popped."""
    ops = lams = 0
    while stack is not None:
        frames, end, s, below = stack
        i = frames.rfind(F_APP, 0, end)
        if i + 1 < end:
            lams += frames.count(A_LAM, i + 1, end)
        if i >= 0:
            # the frames under the F stay, with an S on top of them
            return (frames, i, 1, below), ops + s + end - i + 1, lams
        ops += s + end
        stack = below
    return None, ops, lams


def _frames(stack: Stack) -> str:
    """The stack as a tape, bottom frame first."""
    chunks = []
    while stack is not None:
        frames, end, s, stack = stack
        chunks.append(frames[:end] + S_APP * s)
    return "".join(reversed(chunks))


@lru_cache(maxsize=128)
def _runs(k: int) -> re.Pattern:
    """k runs of λ and @, each ended by a ▶ and its digits."""
    return re.compile(f"(?:[λ@]*▶[01]*){{{k}}}")


def _copy(tape: str, start: int, index: _Index) -> tuple[int, int]:
    """The end of the complete subterm of `tape` that starts at `start`,
    and the charge of copying it through StackRedex, empty before and
    after: a read and a write per symbol, per @ a push and a pop of F and
    of S, per λ of A.

    `need` counts the subterms still to read: each ▶ completes one and
    each @ adds one, so a round reads `need` marks at once and then owes
    one subterm per @ it read.  A subterm that needs a second round is
    taken from `index` if known there."""
    count = tape.count
    pos = start
    need = 1
    apps = 0
    while need:
        m = _runs(need).match(tape, pos)
        if m is None:
            raise _copy_fault(tape, start)
        end = m.end()
        need = count(APP, pos, end)
        if need and pos == start:
            entry = index.find(tape, start)
            if entry is not None:
                return start + len(entry[0]), entry[1]
        apps += need
        pos = end
    return pos, 2 * (pos - start) + 4 * apps + 2 * count(LAM, start, pos)


def _copy_fault(tape: str, start: int) -> MachineRError:
    """The fault a symbol-by-symbol copy from `start` meets on a tape that
    holds no complete subterm there."""
    end = _TOKENS.match(tape, start).end()
    if end == len(tape):
        return MachineRError("truncated subterm on Current")
    return MachineRError(f"unexpected symbol {tape[end]!r} at a subterm boundary")


def find_redex_pass(state: MachineRState) -> str:
    """Step 1: locate the leftmost value-argument redex and split the tapes.

    After FOUND, Preredex still ends with the redex's own @ (it is discarded
    at reassembly), Functional holds the abstraction, Argument the argument
    and Postredex the rest.  NO_REDEX leaves Current unchanged and erases
    the scan scratch.

    A scan resumes from the last one's checkpoints when Current still
    starts as the last one did up to the fired @.  The token before that @
    is read again: an abstraction there looks at the symbol after it,
    where the reduct now begins.  The charge is that of the scan from the
    start.
    """
    cur = state.current
    n = len(cur)
    index = _MEMO.index
    pos, ops, stack = 0, 0, None
    checkpoints: list[tuple[int, int, Stack]] = []
    last, state.scan = state.scan, None
    if last is not None and len(last.checkpoints) > 2 and cur.startswith(last.prefix):
        checkpoints = last.checkpoints
        del checkpoints[-2:]
        pos, ops, stack = checkpoints.pop()
    while pos < n:
        checkpoints.append((pos, ops, stack))
        sym = cur[pos]
        if sym == LAM:
            # every abstraction is copied wholesale: no redexes inside count
            end, charge = _copy(cur, pos, index)
            ops += 1 + charge
            if end < n:
                ops += 1  # read the symbol after it
                # this pass pushes no frame but F: the top is an F unless
                # S frames sit on it
                if stack and not stack[2] and cur[end] in (LAM, MARK):
                    arg_end, charge = _copy(cur, end, index)
                    ops += charge + 2 * (n - arg_end)
                    state.preredex = cur[:pos]
                    state.functional = cur[pos:end]
                    state.argument = cur[end:arg_end]
                    index.add(state.argument, charge)
                    state.postredex = cur[arg_end:]
                    state.stack_term = _frames(stack)
                    state.op_count += ops
                    state.scan = _Scan(cur[:pos - 1], checkpoints)
                    return FOUND
            # completed non-redex subterm: move it out and fold the stack
            stack, closing, _ = _close(stack)
            ops += 2 * (end - pos) + closing
            pos = end
        elif sym == APP:
            stack = (F_APP, 1, 0, stack)
            ops += 3  # read, write, push
            pos += 1
        elif sym == MARK:
            end = _RUN.match(cur, pos).end()
            stack, closing, _ = _close(stack)
            ops += 2 * (end - pos) + closing
            pos = end
        else:
            ops += 2  # read, write
            pos += 1
    # Preredex holds all of Current; erase it and the stack
    state.preredex = state.stack_term = ""
    state.op_count += ops + n + len(_frames(stack))
    return NO_REDEX


def _make_plan(fn: str, index: _Index) -> _Plan:
    """The substitution of Functional `fn`: read (and erase) the leading λ,
    set the Counter to 0, go on."""
    cuts = [1]
    ops = _walk(fn, 1, 0, index, cuts)
    cuts.append(len(fn))
    return _Plan(tuple(cuts), sum(cuts[1::2]) - sum(cuts[::2]), ops + 2, len(cuts) // 2 - 1)


def _walk(fn: str, at: int, d: int, index: _Index,
          cuts: list[int] | None) -> int | None:
    """Substitute from `fn[at]` on with the Counter at `d`, from and back
    to an empty stack, and return the operations; `cuts` gets the start
    and end of each occurrence.  With `cuts` None, the walk charges the
    subterm `fn`, or returns None if `fn` is not closed.

    Each round matches `_RUN` at `pos`: a run of λ and @, each read,
    written and pushed, and the ▶ after it with its digits, absent only
    where the run ends the tape.  Any other symbol where the match stops
    is foreign.  A known closed subterm at the start of a run or after an
    @ is stepped over: the run is cut before it, its charge added and the
    walk goes on after it.  At the start of the first run that subterm is
    a plan's whole body, or in a charge walk `fn` itself, which
    `_Index.charge` declines while counting it.  Counting the Counter up
    from 0 to d visits 2d - popcount(d) digits (`flips` below), so the
    increments of a run and the decrements of a close cost the difference
    of two such counts; a decrement also drops the leading zero at each
    power of two from 2 up."""
    base = d
    flips = 2 * d - d.bit_count()
    ops = 0
    pos = at
    stack: Stack = None
    while True:
        m = _RUN.match(fn, pos)
        run, digits = m.groups()
        known = None
        if APP in run:  # only a subterm with an @ is known
            k = 0 if run[0] == LAM else run.find(_APP_LAM) + 1 or -1
            while k >= 0 and run.find(APP, k) >= 0:
                known = index.find(fn, pos + k)
                if known is not None:
                    charge = index.charge(known, d + run.count(LAM, 0, k))
                    if charge is not None:
                        run = run[:k]
                        break
                    known = None
                k = run.find(_APP_LAM, k) + 1 or -1
        if run:
            stack = (run.translate(_FRAMES), len(run), 0, stack)
            ops += 3 * len(run)  # read, write, push
            lams = run.count(LAM)
            if lams:
                d += lams
                up = 2 * d - d.bit_count()
                ops += up - flips
                flips = up
        if known is not None:
            ops += charge
            pos += k + len(known[0])
        elif digits is None:
            if m.end() < len(fn):
                raise MachineRError(f"unexpected symbol {fn[m.end()]!r} on Functional")
            if stack is not None:
                raise MachineRError("truncated subterm on Functional")
            return ops
        else:
            width = d.bit_length() or 1
            ops += 2 + len(digits) + min(width, len(digits))  # reads; compare
            if cuts is not None and digits == format(d, "b"):
                cuts += (pos + len(run), m.end())
            elif cuts is None and digits and int(digits, 2) >= d - base:
                return None  # an index bound outside fn
            else:
                ops += 1 + len(digits)  # write
            pos = m.end()
        # closing abstraction bodies lowers the depth counter
        stack, closing, closed = _close(stack)
        ops += closing
        if closed:
            e = d - closed
            down = 2 * e - e.bit_count()
            # and the leading zeros dropped at 2, 4, 8, ... in (e, d]
            ops += flips - down + d.bit_length() - max(e, 1).bit_length()
            d, flips = e, down


def _plan(fn: str) -> _Plan:
    """The plan of Functional `fn`, memoized for the process.  A plan used
    becomes the newest; the memo drops the plans used longest ago to hold
    at most TAPE_LIMIT symbols of keys, but keeps the newest."""
    memo, plans = _MEMO, _MEMO.plans
    plan = plans.pop(fn, None)
    if plan is None:
        plan = _make_plan(fn, memo.index)
        while plans and memo.plan_symbols + len(fn) > TAPE_LIMIT:
            oldest = next(iter(plans))
            del plans[oldest]
            memo.plan_symbols -= len(oldest)
        memo.plan_symbols += len(fn)
    plans[fn] = plan
    return plan


def substitute_pass(state: MachineRState) -> MachineRState:
    """Step 2: Functional minus its first λ goes to Reduct, with the erased
    binder's occurrences replaced by Argument copied verbatim.

    The Counter holds the λ-depth d, its digits charged in closed form: an
    increment visits d's trailing ones and one more digit, a decrement its
    trailing zeros and one more, plus the leading zero it drops when d >= 2
    is a power of two; comparing with an index visits the shorter digit
    string and one more.

    Writing nothing, it raises MachineRError on a StackRedex that is not
    empty or a Functional that ends inside a subterm, and TapeLimitReached
    when Preredex ++ Reduct ++ Postredex would be longer than TAPE_LIMIT."""
    if state.stack_redex:
        raise MachineRError("StackRedex is not empty")
    if not state.functional.startswith(LAM):
        raise MachineRError("Functional does not start with an abstraction")
    fn, arg = state.functional, state.argument
    plan = _plan(fn)
    length = (plan.literal + plan.occurrences * len(arg)
              + len(state.preredex) - 1 + len(state.postredex))
    if length > TAPE_LIMIT:
        raise TapeLimitReached(f"Current would be {length} symbols long")
    spans = iter(plan.cuts)
    state.reduct = arg.join([fn[a:b] for a, b in zip(spans, spans)])
    state.counter = "0"
    state.op_count += plan.ops + 2 * len(arg) * plan.occurrences
    return state


def reassemble_pass(state: MachineRState) -> MachineRState:
    """Steps 3 and 4: Current := Preredex ++ Reduct ++ Postredex, rest erased.

    The trailing symbol of Preredex is the fired redex's own application
    node; it disappears with the redex.
    """
    pre = state.preredex
    if not pre.endswith(APP):
        raise MachineRError("Preredex does not end with the redex's application")
    state.current = pre[:-1] + state.reduct + state.postredex
    state.op_count += 2 * len(state.current) + sum(map(len, (
        pre, state.functional, state.argument, state.postredex, state.reduct,
        state.stack_term, state.stack_redex, state.counter)))  # pop the @, erase
    state.preredex = state.functional = state.argument = state.postredex = ""
    state.reduct = state.stack_term = state.stack_redex = state.counter = ""
    return state


@dataclass
class MachineRResult:
    theta: str
    op_count: int
    iterations: list[IterationStats]
    reason: str  # "normal", "fuel" or "tape_limit"

    @property
    def normalized(self) -> bool:
        return self.reason == "normal"


def mr_normalize(theta: str, fuel_iterations: int = DEFAULT_FUEL) -> MachineRResult:
    """Iterate steps 1-4 until no redex remains, the iteration fuel is
    spent, or an iteration would write a Current longer than TAPE_LIMIT
    symbols; a normal form left by the last iteration counts.

    Input may use the unicode or the ASCII spelling; `check_theta` validates
    it (arity, leading zeros in indices and index scoping) before the
    machine starts, building no term.
    """
    if fuel_iterations <= 0:
        raise ValueError("fuel must be positive")
    state = MachineRState(current=check_theta(theta))
    for _ in range(fuel_iterations):
        tl_before = len(state.current)
        ops_before = state.op_count
        if find_redex_pass(state) == NO_REDEX:
            return MachineRResult(state.current, state.op_count, state.iterations, "normal")
        try:
            substitute_pass(state)
        except TapeLimitReached:
            return MachineRResult(state.current, state.op_count, state.iterations,
                                  "tape_limit")
        reassemble_pass(state)
        state.iterations.append(IterationStats(tl_before, len(state.current),
                                               state.op_count - ops_before))
    # the find pass every normalized run ends with, charged as such
    reason = "normal" if find_redex_pass(state) == NO_REDEX else "fuel"
    return MachineRResult(state.current, state.op_count, state.iterations, reason)
