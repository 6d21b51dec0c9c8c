"""The tests' own reference implementations.

The package defines the cost model by plain reduction and ships the
machines measured against it; the whole-term helpers below exist only so
that the tests can check those machines against something simpler.
"""

from cbvcost import (
    ARG, FUN, Abs, App, BoundVar, InvalidPositionError, Term, XiValue, is_redex,
)
from cbvcost.machine_r import A_LAM, F_APP, S_APP
from cbvcost.theta import APP, LAM, MARK

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


# --- the applicative structure ------------------------------------------------

def unpair(p: XiValue) -> tuple[XiValue, XiValue]:
    """Inverse of pair, for checking results; raises ValueError otherwise."""
    t = p.term
    if (type(t) is Abs and type(t.body) is App and type(t.body.fun) is App
            and type(t.body.fun.fun) is BoundVar and t.body.fun.fun.index == 0):
        return XiValue(t.body.fun.arg), XiValue(t.body.arg)
    raise ValueError("not a pair")
