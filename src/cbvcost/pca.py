"""Closed values as a partial applicative structure with measured costs.

Applying one closed value to another either normalizes to a unique closed
value or is undefined (the application diverges); the reported cost is the
reduction weight of that normalization, not weight plus term size.  The
combinators shipped here are the pairing plumbing of the structure: each
step of their unfoldings substitutes a value for a variable occurring at
most once, so every step shrinks the term and costs exactly 1, which pins
their application costs to small constants independent of the operands.
Only contraction duplicates its operand and pays for it linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .encodings import tuple_of
from .reduction import LEFTMOST, normalize
from .terms import App, Term, is_closed, parse_term


@dataclass(frozen=True)
class XiValue:
    """A closed value, i.e. an element of the applicative structure."""

    term: Term

    def __post_init__(self):
        if not is_closed(self.term):
            raise ValueError("not a closed term")
        if not self.term.is_value:
            raise ValueError("not a value")


@dataclass(frozen=True)
class AppResult:
    result: XiValue
    cost: int


COMBINATOR_SOURCES = {
    "id": r"\x.x",
    "swap": r"\x.x (\y.\w.\z.z w y)",
    "assl": r"\x.x (\y.\w.w (\z.\q.\r.r (\s.s y z) q))",
    "tens": r"\s.\x.x (\y.\w.(\x.\z.z x w) (s y))",
    "conc": r"\x.x (\x.\y.\z.x (y z))",
    "cont": r"\x.\y.y x x",
    "eval": r"\x.x (\y.\w.y w)",
    "curry": r"\x.\y.\w.x (\z.z y w)",
}

COMBINATOR_NAMES = tuple(COMBINATOR_SOURCES)

_cache: dict[str, XiValue] = {}


def build_combinator(name: str) -> XiValue:
    """Pairing/plumbing combinators by name; see COMBINATOR_NAMES."""
    key = name.lower()
    if key not in COMBINATOR_SOURCES:
        raise KeyError(f"unknown combinator {name!r} (have {COMBINATOR_NAMES})")
    if key not in _cache:
        _cache[key] = XiValue(parse_term(COMBINATOR_SOURCES[key]))
    return _cache[key]


def pair(v: XiValue, u: XiValue) -> XiValue:
    """\\x.x V U, always a value."""
    return XiValue(tuple_of(v.term, u.term))


def apply_in_xi(u: XiValue, v: XiValue, fuel: int = 100_000) -> Optional[AppResult]:
    """Partial application in the structure: None when undefined within fuel."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    outcome = normalize(App(u.term, v.term), LEFTMOST, fuel)
    if not outcome.normalized:
        return None
    return AppResult(XiValue(outcome.term), outcome.trace.total_cost)
