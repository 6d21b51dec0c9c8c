"""Data inside the calculus: finite symbols, Scott strings, numerals, recursion.

A symbol of an n-element alphabet is the n-ary projection picking its
position, so the encoding fixes a total order on the alphabet.  Strings are
Scott-encoded lists of such symbols: the empty string selects a dedicated
final argument, and a cons cell applies the selector of its head symbol to
the encoded tail.  Both encodings depend on the alphabet's cardinality, so
the same text encodes differently over different alphabets; converters
re-encode a string into another alphabet, dropping symbols it lacks.

The recursion operator H satisfies, for every closed value N,
H N  =>  N (\\z. H N z)  with weight affine in the size of N, which is what
makes the string combinators and the machine compiler run in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .terms import Abs, App, BoundVar, Term, TermError, ap, fv, lam


class UnknownSymbolError(TermError):
    pass


class NotAStringEncoding(TermError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Ordered, distinct symbols; order is significant for the encoding."""

    symbols: tuple[str, ...]

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must be non-empty")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        if any(not s for s in syms):
            raise ValueError("alphabet symbols must be non-empty strings")
        object.__setattr__(self, "symbols", syms)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, s: str) -> bool:
        return s in self.symbols

    def index(self, s: str) -> int:
        try:
            return self.symbols.index(s)
        except ValueError:
            raise UnknownSymbolError(f"symbol {s!r} is not in alphabet {self.symbols}") from None


def _symbols_of(a: Alphabet, u: Sequence[str] | str) -> tuple[str, ...]:
    syms = tuple(u)
    for s in syms:
        if s not in a:
            raise UnknownSymbolError(f"symbol {s!r} is not in alphabet {a.symbols}")
    return syms


def encode_symbol(a: Alphabet, s: str) -> Term:
    """The i-th of n projections: \\x1...\\xn.xi."""
    i = a.index(s)
    n = len(a)
    t: Term = BoundVar(n - 1 - i)
    for _ in range(n):
        t = Abs(t)
    return t


def encode_string(a: Alphabet, u: Sequence[str] | str) -> Term:
    """Scott string over `a`; size is affine in len(u) for a fixed alphabet."""
    syms = _symbols_of(a, u)
    t: Term = BoundVar(0)          # empty string: \x1...\xn.\y.y
    for _ in range(len(a) + 1):
        t = Abs(t)
    for s in reversed(syms):
        t = _cons(a, s, t)
    return t


def _cons(a: Alphabet, s: str, tail: Term) -> Term:
    """The cons cell \\x1...\\xn.\\y.xi tail, with `s` the i-th symbol of `a`;
    `tail` goes under the binders unshifted, so it must be well scoped."""
    n = len(a)
    t: Term = App(BoundVar(n - a.index(s)), tail)
    for _ in range(n + 1):
        t = Abs(t)
    return t


def tuple_of(*parts: Term) -> Term:
    """\\x.x p1 ... pk; the parts must be well scoped, their free names stay free."""
    return Abs(ap(BoundVar(0), *parts))


def decode_string(a: Alphabet, t: Term) -> str:
    """Inverse of encode_string; raises NotAStringEncoding on any other term."""
    n = len(a)
    out: list[str] = []
    while True:
        node = t
        for _ in range(n + 1):
            if type(node) is not Abs:
                raise NotAStringEncoding("expected an abstraction spine")
            node = node.body
        if type(node) is BoundVar and node.index == 0:
            return "".join(out)
        if type(node) is not App or type(node.fun) is not BoundVar:
            raise NotAStringEncoding("body is not a selector application")
        d = node.fun.index
        if not 1 <= d <= n:
            raise NotAStringEncoding("selector does not address a symbol")
        out.append(a.symbols[n - d])
        t = node.arg


def church_numeral(n: int) -> Term:
    """\\x.\\y.x(x(...(x y)...)) with n applications of x."""
    if n < 0:
        raise ValueError("numeral must be non-negative")
    t: Term = BoundVar(0)
    for _ in range(n):
        t = App(BoundVar(1), t)
    return Abs(Abs(t))


def fixpoint_h() -> Term:
    """The recursion operator M M with M = \\x.\\f.f(\\z.x x f z).

    Not itself a value: the outer application is a redex, and two steps take
    H N to N (\\z.H N z) for any closed value N.
    """
    m = lam("x", "f", ap(fv("f"), lam("z", ap(fv("x"), fv("x"), fv("f"), fv("z")))))
    return App(m, m)


APPEND_KINDS = ("char", "string", "reverse")
CONVERT_KINDS = ("char", "string")


def build_append(a: Alphabet, kind: str) -> Term:
    """Closed string combinators over `a`.

    char:    prepends a symbol to a string; weight independent of the string.
    string:  concatenation; weight affine in the length of the first string
             and independent of the second.
    reverse: maps (u, v) to reverse(u) ++ v, same weight shape as string.
    """
    if kind == "char":
        ms = [lam("y", _cons(a, s, fv("y"))) for s in a]
        return lam("x", "y", ap(fv("x"), *ms, fv("y")))
    if kind == "string":
        cells = [
            lam("w", "k", ap(lam("h", _cons(a, s, fv("h"))), ap(fv("x"), fv("w"), fv("k"))))
            for s in a
        ]
    elif kind == "reverse":
        cells = [lam("w", "k", ap(fv("x"), fv("w"), _cons(a, s, fv("k")))) for s in a]
    else:
        raise ValueError(f"kind must be one of {APPEND_KINDS}")
    worker = lam("x", "y", "z", ap(fv("y"), *cells, lam("w", fv("w")), fv("z")))
    return App(fixpoint_h(), worker)


def build_convert(src: Alphabet, dst: Alphabet, kind: str) -> Term:
    """Re-encode from `src` to `dst`; symbols missing from `dst` are dropped.

    char takes a symbol encoding and yields a string of length one or zero;
    string maps whole strings with weight affine in their length.
    """
    if kind == "char":
        ms = [
            encode_string(dst, (s,)) if s in dst else encode_string(dst, ())
            for s in src
        ]
        return lam("x", ap(fv("x"), *ms))
    if kind == "string":
        cells = []
        for s in src:
            if s in dst:
                cons = lam("w", _cons(dst, s, fv("w")))
                cells.append(lam("z", ap(cons, ap(fv("x"), fv("z")))))
            else:
                cells.append(lam("z", ap(fv("x"), fv("z"))))
        worker = lam("x", "y", ap(fv("y"), *cells, encode_string(dst, ())))
        return App(fixpoint_h(), worker)
    raise ValueError(f"kind must be one of {CONVERT_KINDS}")
