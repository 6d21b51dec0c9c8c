"""Compact string notation for terms over the five-symbol alphabet {λ, @, 0, 1, ▶}.

Terms are written prefix: `@` heads an application, `λ` an abstraction.  A
variable occurrence is `▶` followed by the binary de Bruijn index of its
binder (most significant bit first, no leading zeros, index zero is "0");
a free occurrence is a bare `▶`.  The encoding erases free-variable names,
so decoding maps every bare `▶` to one canonical name and the round trip
term -> string -> term is only claimed for terms with at most one distinct
free name.

The ASCII serialization writes `L` for `λ` and `*` for `▶`; both forms are
accepted on input.
"""

from __future__ import annotations

import re

from .terms import Abs, App, BoundVar, FreeVar, Term, TermError

LAM = "λ"
APP = "@"
MARK = "▶"
_FOREIGN = re.compile(f"[^{LAM}{APP}{MARK}01]")
# a run of λ and @, then a variable: ▶ and its binary index, if any
_VAR = re.compile(f"([{LAM}{APP}]*){MARK}([01]*)")

DEFAULT_FREE_NAME = "v"

_TO_ASCII = str.maketrans({LAM: "L", MARK: "*"})
_FROM_ASCII = str.maketrans({"L": LAM, "*": MARK})


class MalformedThetaError(TermError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def theta_to_ascii(s: str) -> str:
    return s.translate(_TO_ASCII)


def canonical_theta(s: str) -> str:
    """Normalize ASCII input to the unicode form and validate the charset."""
    s = s.translate(_FROM_ASCII)
    foreign = _FOREIGN.search(s)
    if foreign:
        raise MalformedThetaError(f"symbol {foreign[0]!r} is not in the alphabet",
                                  foreign.start())
    return s


def encode_theta(t: Term) -> str:
    """Prefix encoding with binary indices; free occurrences become bare ▶."""
    out: list[str] = []
    stack: list[Term] = [t]
    while stack:
        node = stack.pop()
        if type(node) is BoundVar:
            out.append(MARK + format(node.index, "b"))
        elif type(node) is FreeVar:
            out.append(MARK)
        elif type(node) is Abs:
            out.append(LAM)
            stack.append(node.body)
        else:
            out.append(APP)
            stack.append(node.arg)
            stack.append(node.fun)
    return "".join(out)


def check_theta(s: str) -> str:
    """`canonical_theta(s)` when it spells one term, else MalformedThetaError
    at the first fault from the left: an arity violation, a leading zero in
    an index, or an index that escapes its binders.  Builds no term.
    """
    s = canonical_theta(s)
    n = len(s)
    # λs awaiting a body and @s awaiting a function.  An @ leaves once its
    # function is complete: its argument then completes whatever is below it.
    pending: list[str] = []
    depth = pos = 0
    while m := _VAR.match(s, pos):
        run, digits = m.groups()
        pending.extend(run)
        depth += run.count(LAM)
        if len(digits) > 1 and digits[0] == "0":
            raise MalformedThetaError("leading zero in index", m.start(2))
        if digits and int(digits, 2) >= depth:
            raise MalformedThetaError("index out of scope", m.start(2) - 1)
        pos = m.end()
        while pending:
            if pending.pop() == APP:
                break
            depth -= 1
        else:
            if pos != n:
                raise MalformedThetaError("trailing symbols after a complete term", pos)
            return s
    # a run of λ and @ meets a digit or the end of the string
    pos = n - len(s[pos:].lstrip(LAM + APP))
    if pos == n:
        raise MalformedThetaError("unexpected end of string", n)
    raise MalformedThetaError(f"unexpected symbol {s[pos]!r}", pos)


def decode_theta(s: str) -> Term:
    """Inverse of encode_theta; every bare ▶ becomes FreeVar(DEFAULT_FREE_NAME).

    Checks `s` with check_theta, then builds right to left: a variable
    pushes a leaf, a λ wraps the top term and an @ applies the top term to
    the one below it.
    """
    terms: list[Term] = []
    for run, digits in reversed(_VAR.findall(check_theta(s))):
        terms.append(BoundVar(int(digits, 2)) if digits else FreeVar(DEFAULT_FREE_NAME))
        for symbol in reversed(run):
            terms.append(Abs(terms.pop()) if symbol == LAM else App(terms.pop(), terms.pop()))
    return terms.pop()


def true_length(t: Term) -> int:
    """Length of the encoded string: size plus the bit length of every index,
    and one binary digit per index 0."""
    return len(encode_theta(t))
