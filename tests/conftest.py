import contextlib
import random
import signal

import pytest
from hypothesis import strategies as st

from cbvcost import Abs, App, BoundVar, FreeVar, church_numeral, parse_term
from cbvcost.turing import FLIP_SPEC


# normalizes, so no proof of divergence can stop the divergence probe:
# church(1100) G c with G = \y.(\z.z) y takes 2 + 2 * 1100 leftmost steps,
# each at the bottom of a spine that starts 1,100 frames deep
DEEP_SLOW_TERM = App(App(church_numeral(1100), parse_term(r"\y.(\z.z) y")), FreeVar("c"))


@st.composite
def terms(draw, max_size=14, free_pool=("a", "b", "c")):
    """Well-scoped terms, possibly with free variables from the pool."""

    def gen(budget, depth):
        kinds = []
        if depth > 0:
            kinds.append("bound")
        if free_pool:
            kinds.append("free")
        if budget >= 2:
            kinds.append("abs")
        if budget >= 3:
            kinds.extend(["app", "app"])
        kind = draw(st.sampled_from(kinds))
        if kind == "bound":
            return BoundVar(draw(st.integers(0, depth - 1)))
        if kind == "free":
            return FreeVar(draw(st.sampled_from(free_pool)))
        if kind == "abs":
            return Abs(gen(budget - 1, depth + 1))
        split = draw(st.integers(1, budget - 2))
        return App(gen(split, depth), gen(budget - 1 - split, depth))

    return gen(draw(st.integers(1, max_size)), 0)


@st.composite
def single_free_terms(draw, max_size=14):
    """Terms with at most one distinct free name (codec round-trip domain)."""
    return draw(terms(max_size=max_size, free_pool=("v",)))


@contextlib.contextmanager
def within_a_second():
    """Fail, rather than hang, when the body runs for more than a second."""
    def expire(signum, frame):
        raise AssertionError("took more than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(2024)


def _flip_with(old, new):
    assert old in FLIP_SPEC
    return FLIP_SPEC.replace(old, new)


# a fault in each declaration of FLIP_SPEC: (spec, line of the declaration,
# message); parse_tm reports each at that line
DECLARATION_FAULTS = {
    "duplicate-symbol": (_flip_with("alphabet: 0 1 _", "alphabet: 0 1 1 _"), 2,
                         "alphabet symbols must be distinct"),
    "multi-character-symbol": (_flip_with("alphabet: 0 1 _", "alphabet: 0 1 __"), 2,
                               "tape symbols must be single characters"),
    "blank-outside-alphabet": (_flip_with("blank: _", "blank: x"), 3,
                               "blank symbol must belong to the alphabet"),
    "duplicate-state": (_flip_with("states: q0 qf", "states: q0 qf q0"), 4,
                        "states must be distinct"),
    "undeclared-initial": (_flip_with("initial: q0", "initial: q9"), 5,
                           "state 'q9' is not declared"),
    "undeclared-final": (_flip_with("final: qf", "final: q9"), 6,
                         "state 'q9' is not declared"),
}
