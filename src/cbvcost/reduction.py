"""Weighted call-by-value reduction.

A redex is an application of an abstraction to a value, and only positions
not under any binder are reducible.  Each step is charged
max(1, size_after - size_before), so the total weight of a reduction
accounts for the growth of every intermediate result; the time of a
normalizing term is that total plus the starting size.

All strategies pick among the same redex set, so by the diamond property
they agree on the normal form, the step count and the total weight; the
engine exposes leftmost, rightmost and a seeded random strategy to make
that claim falsifiable.

`normalize` rejects a term with a dangling de Bruijn index, as `print_term`
does: substitution inserts a value under binders without shifting it, so
they would capture such an index.  Leftmost reduction runs on a closure
machine, which never builds a reduct.  Weak call-by-value redexes never
nest, so evaluating the function, then the argument, then firing meets the
redexes in leftmost order, and a step's cost is arithmetic on the sizes the
machine keeps.  The `Zipper` substitutes; it can fire any redex, so it runs
the rightmost and random strategies and the divergence probe, which
compares whole terms, and the tests check the machine against it step by
step.  Each run loop records its own steps, a position code and a size
per step, and `_outcome` sums the weight from the sizes when the run ends.
"""

from __future__ import annotations

import csv
import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .terms import Abs, App, BoundVar, InvalidPositionError, Term, TermError, instantiate, substitute_top

FUN = "F"
ARG = "A"

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"
RANDOM = "random"
STRATEGIES = (LEFTMOST, RIGHTMOST, RANDOM)

# the steps (machine-r: iterations) a run may take when its caller names no fuel
DEFAULT_FUEL = 100_000

Position = tuple[str, ...]

# A position is kept as a code: a leading 1, then one bit per frame from
# the root down, 0 for FUN and 1 for ARG; the root's code is 1.  A push
# doubles the code, going to ARG adds 1 and a pop halves it.
_SIDES = str.maketrans({"0": FUN, "1": ARG})


def _sides(code: int) -> Position:
    """The sides that the position code `code` stands for, from the root down."""
    return tuple(bin(code)[3:].translate(_SIDES))


@dataclass(frozen=True, slots=True)
class TraceStep:
    position: Position
    cost: int
    size_after: int


class CostTrace:
    """The sizes of a reduction, one entry per β-step in each column.

    `sizes` holds the size of the term after each step, in an
    `array('q')` until a size passes 2⁶³ − 1 and in a list of ints from
    then on.  `positions` lists each step's position code (one bit per
    frame), which the closure machine shares between steps that fire at
    the same position.  The run loop that reduces fills both columns.  A
    step's cost is not stored: `_costs` derives it from consecutive sizes.
    `total_cost` is their sum, added up once when the run ends, so reading
    it, like the step count, is O(1); `steps` builds the `TraceStep`
    records, with their position tuples, on each access.
    """

    __slots__ = ("initial_size", "total_cost", "sizes", "positions")

    def __init__(self, initial_size: int):
        self.initial_size = initial_size
        self.total_cost = 0
        self.sizes = array("q")
        self.positions: list[int] = []

    @property
    def steps(self) -> list[TraceStep]:
        return list(map(TraceStep, map(_sides, self.positions),
                        _costs(self.initial_size, self.sizes), self.sizes))

    def __eq__(self, other):
        if not isinstance(other, CostTrace):
            return NotImplemented
        # an array never equals a list, so compare the sizes as lists
        return (self.initial_size == other.initial_size
                and self.positions == other.positions
                and list(self.sizes) == list(other.sizes))

    def __repr__(self) -> str:
        return (f"CostTrace(initial_size={self.initial_size}, "
                f"steps={len(self.positions)}, total_cost={self.total_cost})")


def _costs(size: int, sizes_after: Iterable[int]) -> Iterator[int]:
    """The cost of each step, max(1, size after − size before), from the
    size before the first step and the size after each; a stream, so a
    whole trace's costs are never held at once."""
    for after in sizes_after:
        growth = after - size
        yield growth if growth > 1 else 1
        size = after


@dataclass
class ReductionOutcome:
    term: Term
    trace: CostTrace
    normalized: bool

    @property
    def steps(self) -> int:
        return len(self.trace.positions)

    def time(self) -> Optional[int]:
        """Total weight plus initial size; None when fuel ran out first."""
        if not self.normalized:
            return None
        return self.trace.total_cost + self.trace.initial_size


def _outcome(term: Term, trace: CostTrace, normalized: bool) -> ReductionOutcome:
    """Close a run: its weight is summed once, from the sizes it recorded."""
    trace.total_cost = sum(_costs(trace.initial_size, trace.sizes))
    return ReductionOutcome(term, trace, normalized)


def is_redex(t: Term) -> bool:
    return type(t) is App and type(t.fun) is Abs and t.arg.is_value


# `redex_path` and `step_at` act on a whole term, and only the tests call
# them; they stay here because perfbench/tracer.py wraps both by name, and
# retiring those two metrics is a change to the benchmark.
def redex_path(t: Term, k: int) -> Position:
    """Path of the k-th redex in left-to-right order, in O(depth)."""
    if not 0 <= k < t.n_redexes:
        raise InvalidPositionError(f"term has {t.n_redexes} redexes, asked for #{k}")
    path: list[str] = []
    node = t
    while True:
        if is_redex(node):
            if k == 0:
                return tuple(path)
            k -= 1
        f = node.fun.n_redexes
        if k < f:
            path.append(FUN)
            node = node.fun
        else:
            k -= f
            path.append(ARG)
            node = node.arg


def step_at(t: Term, path: Position) -> tuple[Term, int]:
    """Fire the redex at `path`; returns the whole reduct and the step cost."""
    spine: list[tuple[App, str]] = []
    node = t
    for step in path:
        if type(node) is not App:
            raise InvalidPositionError("path leaves the term")
        spine.append((node, step))
        node = node.fun if step == FUN else node.arg
    if not is_redex(node):
        raise InvalidPositionError("no redex at this position")
    new = substitute_top(node.fun.body, node.arg)
    for parent, step in reversed(spine):
        new = App(new, parent.arg) if step == FUN else App(parent.fun, new)
    return new, max(1, new.size - t.size)


def _plug(parent: App, is_arg: int, node: Term) -> App:
    """`parent` with its child replaced by `node` (shared if unchanged): the
    argument if `is_arg`, else the function."""
    if is_arg:
        return parent if parent.arg is node else App(parent.fun, node)
    return parent if parent.fun is node else App(node, parent.arg)


class Zipper:
    """A term opened at one subterm (Huet, "The Zipper", JFP 1997).

    `focus` is the subterm, `parents` the applications from the root down
    to it and `path` the position code of the sides taken at each.  A
    parent may be stale on the side of the path but is current on the
    other, so plugging the focus back in rebuilds only the frames it
    passes.  `before` and `after` count the redexes left and right of the
    focus (no parent is itself a redex: its child on the path is an
    application) and `size` is the size of the whole term.  A step
    therefore builds applications only for the frames it climbs and for
    the substitution, never for the whole spine.  It records nothing:
    `fire` returns the position code of the step, for the caller to keep.
    """

    __slots__ = ("focus", "parents", "path", "before", "after", "size")

    def __init__(self, t: Term):
        self.focus = t
        self.parents: list[App] = []
        self.path = 1
        self.before = 0
        self.after = 0
        self.size = t.size

    @property
    def n_redexes(self) -> int:
        return self.before + self.focus.n_redexes + self.after

    def _up(self) -> None:
        parent = self.parents.pop()
        is_arg = self.path & 1
        self.path >>= 1
        if is_arg:
            self.before -= parent.fun.n_redexes
        else:
            self.after -= parent.arg.n_redexes
        self.focus = _plug(parent, is_arg, self.focus)

    def fire(self, k: int) -> int:
        """Fire redex #k in left-to-right order; equal to
        step_at(self.term(), redex_path(self.term(), k)) on the whole term.
        Returns the position code of the fired redex, the one a trace
        records.

        Climbs only until the focus holds redex #k, then descends as
        `redex_path` does.  Afterwards the focus is the reduct's parent,
        which the step may have turned into a redex.
        """
        if not 0 <= k < self.n_redexes:
            raise InvalidPositionError(f"term has {self.n_redexes} redexes, asked for #{k}")
        while not self.before <= k < self.before + self.focus.n_redexes:
            self._up()
        k -= self.before
        node = self.focus
        while True:
            if is_redex(node):
                if k == 0:
                    break
                k -= 1
            self.parents.append(node)
            f = node.fun.n_redexes
            self.path += self.path
            if k < f:
                self.after += node.arg.n_redexes
                node = node.fun
            else:
                k -= f
                self.path += 1
                self.before += f
                node = node.arg
        reduct = substitute_top(node.fun.body, node.arg)
        self.size += reduct.size - node.size
        position = self.path
        self.focus = reduct
        if self.parents:
            self._up()
        return position

    def term(self) -> Term:
        """The whole term; the focus does not move."""
        node, path = self.focus, self.path
        for parent in reversed(self.parents):
            node = _plug(parent, path & 1, node)
            path >>= 1
        return node


# --- leftmost reduction on a closure machine ---------------------------------
#
# A machine value is a triple.  (code, env, size) stands for a term value:
# code is an Abs or a FreeVar of the input, env the values of code's dangling
# indices (env[i] for index i) and size the size of the term it stands for,
# or None for an abstraction's closure in function position, whose size is
# never read.  (None, fun, arg) is a stuck application of two machine values.

def _count_uses(lam: Abs) -> tuple[int, tuple[tuple[int, int], ...]]:
    """From one walk of `lam`'s body, cached in `lam.uses`: how often the
    body uses index 0, `lam`'s bound index, and each other index i, which
    is `lam`'s dangling index i - 1."""
    counts: dict[int, int] = {}
    stack = [(lam.body, 0)]
    while stack:
        node, depth = stack.pop()
        if node.max_index < depth:
            continue
        if type(node) is BoundVar:
            i = node.index - depth
            counts[i] = counts.get(i, 0) + 1
        elif type(node) is Abs:
            stack.append((node.body, depth + 1))
        else:
            stack.append((node.arg, depth))
            stack.append((node.fun, depth))
    lam.uses = (counts.pop(0, 0), tuple(counts.items()))
    return lam.uses


def _read_back(root: tuple) -> Term:
    """The term that the machine value `root` stands for; a pending frame's
    code is read back as (code, env, None).

    Each value is read back once and its term shared wherever the value is
    bound, as a substitution shares the value it inserts.  The walk keeps its
    own stack, so depth is bounded by memory, not by the recursion limit.
    """
    memo: dict[int, Term] = {}
    stack = [root]
    while stack:
        v = stack[-1]
        if id(v) in memo:
            stack.pop()
            continue
        code, env, _ = v
        if code is None:
            needed = v[1:]
        elif type(code) is Abs:
            needed = [env[i - 1] for i, n in (code.uses or _count_uses(code))[1]]
        else:
            # a pending frame's code, read back only when fuel runs out
            needed = env[:code.max_index + 1]
        missing = [w for w in needed if id(w) not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if code is None:
            memo[id(v)] = App(memo[id(v[1])], memo[id(v[2])])
        else:
            # an index the code never uses may name a value not read back
            values = tuple(memo.get(id(w)) for w in env[:code.max_index + 1])
            memo[id(v)] = instantiate(code, values, {})
    return memo[id(root)]


def _leftmost(t: Term, fuel: int) -> ReductionOutcome:
    """Leftmost reduction of a well-scoped term on a closure machine;
    `normalize` rejects any other, so every index finds its value in env.

    The leftmost redex is the first one reached by evaluating the
    function, then the argument, then firing; everything left of it is in
    normal form, so after a step the next one lies in the reduct or above
    it, where evaluation goes on.  Firing (λM)[env] on a value V enters M
    with V bound, and the step's growth is k(|V| − 1) − |V| − 2 for the k
    occurrences of the bound index in M, counted once per abstraction node
    and cached on it.  A closure in function position is fired or stuck,
    never bound, so it is left unsized.  The frames' sides are kept as one
    position code, as on the Zipper, and a step records it as its
    position.  Out of fuel, the machine evaluates on to the next step
    without taking it, folds the redex and its frames into stuck
    applications and reads back that one value: the term the Zipper would
    hold.
    """
    # equal positions share one code: a run revisits few of them
    interned: dict[int, int] = {}
    trace = CostTrace(t.size)
    sizes, positions = trace.sizes, trace.positions
    size = t.size
    # FUN frame: (argument code, env) still to evaluate; ARG frame: the
    # function's value.  `path` is the position code of the frames.
    frames: list[tuple] = []
    path = 1
    code, env = t, ()
    while True:
        while type(code) is App:
            frames.append((code.arg, env))
            path += path
            code = code.fun
        if type(code) is Abs:
            if path & 1:
                value_size = code.size
                if code.max_index >= 0:
                    for i, n in (code.uses or _count_uses(code))[1]:
                        value_size += n * (env[i - 1][2] - 1)
            else:
                # fired or stuck, never bound: None makes a wrong read fail
                value_size = None
            # keep only the bindings the code can reach, so that a value
            # does not hold on to its whole scope
            value = (code, env[:code.max_index + 1], value_size)
        elif type(code) is BoundVar:
            value = env[code.index]
        else:
            value = (code, (), 1)
        while path > 1:
            if not path & 1:
                code, env = frames[-1]
                frames[-1] = value
                path += 1
                break
            path >>= 1
            fun = frames.pop()
            lam = fun[0]
            if type(lam) is Abs and value[0] is not None:
                if len(positions) == fuel:
                    # fold the redex into its frames as stuck applications
                    value = (None, fun, value)
                    while path > 1:
                        frame = frames.pop()
                        value = (None, frame, value) if path & 1 else (None, value, (*frame, None))
                        path >>= 1
                    return _outcome(_read_back(value), trace, False)
                k = (lam.uses or _count_uses(lam))[0]
                value_size = value[2]
                size += k * (value_size - 1) - value_size - 2
                try:
                    sizes.append(size)
                except OverflowError:
                    sizes = trace.sizes = [*sizes, size]
                positions.append(interned.setdefault(path, path))
                code, env = lam.body, (value,) + fun[1]
                break
            value = (None, fun, value)
        else:
            return _outcome(_read_back(value), trace, True)


def normalize(t: Term, strategy: str = LEFTMOST, fuel: int = DEFAULT_FUEL,
              seed: int = 42) -> ReductionOutcome:
    """Reduce until no redex remains or `fuel` steps are spent; a normal
    form reached by the last step counts.

    Divergence is undecidable; fuel exhaustion is an ordinary outcome, never
    an error.  The random strategy draws every choice from `seed`, so runs
    are reproducible.  Leftmost runs on the closure machine, the others on
    a Zipper.  A term with a dangling de Bruijn index (no parsed term has
    one) raises TermError under every strategy.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if t.max_index >= 0:
        raise TermError(f"cannot normalize dangling de Bruijn index {t.max_index}")
    if strategy == LEFTMOST:
        return _leftmost(t, fuel)
    rng = random.Random(seed) if strategy == RANDOM else None
    trace = CostTrace(t.size)
    sizes, positions = trace.sizes, trace.positions
    z = Zipper(t)
    for _ in range(fuel):
        n = z.n_redexes
        if n == 0:
            return _outcome(z.term(), trace, True)
        positions.append(z.fire(n - 1 if rng is None else rng.randrange(n)))
        try:
            sizes.append(z.size)
        except OverflowError:
            sizes = trace.sizes = [*sizes, z.size]
    return _outcome(z.term(), trace, z.n_redexes == 0)


def time_of(t: Term, fuel: int = DEFAULT_FUEL) -> Optional[int]:
    """Weight-plus-size of the (unique) normalization; None within fuel."""
    return normalize(t, LEFTMOST, fuel).time()


def write_trace_csv(trace: CostTrace, fp) -> None:
    """Trace export; byte-identical across runs for equal inputs."""
    writer = csv.writer(fp)
    writer.writerow(["step", "cost", "size_after", "position"])
    writer.writerows(zip(range(1, len(trace.positions) + 1),
                         _costs(trace.initial_size, trace.sizes), trace.sizes,
                         map("/".join, map(_sides, trace.positions))))


# --- term source ------------------------------------------------------------

def random_closed_term(rng: random.Random, max_size: int = 12) -> Term:
    """Seeded closed-term sampler used by the experiment corpora."""

    def gen(budget: int, depth: int) -> Term:
        app_min = 5 if depth == 0 else 3
        choices = []
        if depth > 0:
            choices.append("var")
        if budget >= 2:
            choices.append("abs")
        if budget >= app_min:
            choices.extend(("app", "app"))
        pick = rng.choice(choices)
        if pick == "var":
            return BoundVar(rng.randrange(depth))
        if pick == "abs":
            return Abs(gen(budget - 1, depth + 1))
        low = 2 if depth == 0 else 1
        split = rng.randint(low, budget - 1 - low)
        return App(gen(split, depth), gen(budget - 1 - split, depth))

    return gen(rng.randint(2, max(2, max_size)), 0)
