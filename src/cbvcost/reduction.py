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
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from typing import Optional

from .terms import Abs, App, BoundVar, InvalidPositionError, Term, substitute_top

FUN = "F"
ARG = "A"

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"
RANDOM = "random"
STRATEGIES = (LEFTMOST, RIGHTMOST, RANDOM)

Position = tuple[str, ...]


@dataclass(frozen=True)
class TraceStep:
    position: Position
    cost: int
    size_after: int


@dataclass
class CostTrace:
    initial_size: int
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def total_cost(self) -> int:
        """Sum of the per-step charges (the weight of the whole reduction)."""
        return sum(s.cost for s in self.steps)


@dataclass
class ReductionOutcome:
    term: Term
    trace: CostTrace
    normalized: bool

    @property
    def steps(self) -> int:
        return len(self.trace.steps)

    def time(self) -> Optional[int]:
        """Total weight plus initial size; None when fuel ran out first."""
        if not self.normalized:
            return None
        return self.trace.total_cost + self.trace.initial_size


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


def _plug(parent: App, side: str, node: Term) -> App:
    """`parent` with its `side` child replaced by `node` (shared if unchanged)."""
    if side == FUN:
        return parent if parent.fun is node else App(node, parent.arg)
    return parent if parent.arg is node else App(parent.fun, node)


class Zipper:
    """A term opened at one subterm (Huet, "The Zipper", JFP 1997).

    `focus` is the subterm, `parents` the applications from the root down
    to it and `path` the side (FUN or ARG) taken at each.  A parent may be
    stale on the side of the path but is current on the other, so plugging
    the focus back in rebuilds only the frames it passes.  `before` and
    `after` count the redexes left and right of the focus (no parent is
    itself a redex: its child on the path is an application) and `size` is
    the size of the whole term.  A step therefore builds applications only
    for the frames it climbs and for the substitution, never for the whole
    spine; the one cost left in the depth is copying the path into the
    step's position tuple.
    """

    __slots__ = ("focus", "parents", "path", "before", "after", "size")

    def __init__(self, t: Term):
        self.focus = t
        self.parents: list[App] = []
        self.path: list[str] = []
        self.before = 0
        self.after = 0
        self.size = t.size

    @property
    def n_redexes(self) -> int:
        return self.before + self.focus.n_redexes + self.after

    def _up(self) -> None:
        parent = self.parents.pop()
        side = self.path.pop()
        if side == FUN:
            self.after -= parent.arg.n_redexes
        else:
            self.before -= parent.fun.n_redexes
        self.focus = _plug(parent, side, self.focus)

    def fire(self, k: int) -> TraceStep:
        """Fire redex #k in left-to-right order; equal to
        step_at(self.term(), redex_path(self.term(), k)) on the whole term.

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
            if k < f:
                self.path.append(FUN)
                self.after += node.arg.n_redexes
                node = node.fun
            else:
                k -= f
                self.path.append(ARG)
                self.before += f
                node = node.arg
        reduct = substitute_top(node.fun.body, node.arg)
        growth = reduct.size - node.size
        self.size += growth
        step = TraceStep(tuple(self.path), max(1, growth), self.size)
        self.focus = reduct
        if self.parents:
            self._up()
        return step

    def term(self) -> Term:
        """The whole term; the focus does not move."""
        node = self.focus
        for parent, side in zip(reversed(self.parents), reversed(self.path)):
            node = _plug(parent, side, node)
        return node


def normalize(t: Term, strategy: str = LEFTMOST, fuel: int = 100_000,
              seed: int = 42) -> ReductionOutcome:
    """Reduce until no redex remains or `fuel` steps are spent; a normal
    form reached by the last step counts.

    Divergence is undecidable; fuel exhaustion is an ordinary outcome, never
    an error.  The random strategy draws every choice from `seed`, so runs
    are reproducible.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed) if strategy == RANDOM else None
    trace = CostTrace(t.size)
    z = Zipper(t)
    for _ in range(fuel):
        n = z.n_redexes
        if n == 0:
            return ReductionOutcome(z.term(), trace, True)
        if strategy == LEFTMOST:
            k = 0
        elif strategy == RIGHTMOST:
            k = n - 1
        else:
            k = rng.randrange(n)
        trace.steps.append(z.fire(k))
    return ReductionOutcome(z.term(), trace, z.n_redexes == 0)


def time_of(t: Term, fuel: int = 100_000) -> Optional[int]:
    """Weight-plus-size of the (unique) normalization; None within fuel."""
    return normalize(t, LEFTMOST, fuel).time()


def write_trace_csv(trace: CostTrace, fp) -> None:
    """Trace export; byte-identical across runs for equal inputs."""
    writer = csv.writer(fp)
    writer.writerow(["step", "cost", "size_after", "position"])
    for i, s in enumerate(trace.steps, 1):
        writer.writerow([i, s.cost, s.size_after, "/".join(s.position)])


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
