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


def decode_theta(s: str) -> Term:
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


def true_length(t: Term) -> int:
    """Length of the encoded string: size plus the bit length of every index."""
    return len(encode_theta(t))
