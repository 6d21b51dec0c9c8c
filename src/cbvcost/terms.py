"""Lambda terms in locally nameless form.

Bound variables are de Bruijn indices, free variables carry names.  The
calculus never reduces under a binder, so a redex is never enclosed by an
abstraction; substituting the argument for the outermost binder therefore
needs no index shifting: the argument's bound variables are internal to it
and its free variables are names, which cannot be captured.

Every node caches its size, its count of reachable redexes, the largest
dangling de Bruijn index and a free-variable flag, so the reduction engine
can locate redexes and compute step costs without rescanning whole terms.
An abstraction also has a `uses` slot, None until the closure machine
first fires or sizes a closure of it and then filled with the occurrence
counts of its body's indices; like the other caches it depends only on the
immutable body, so it stays valid for every later run.
Alpha-equivalence coincides with structural equality in this representation.
"""

from __future__ import annotations


class TermError(Exception):
    """Base class for term-layer errors."""


class ParseError(TermError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class InvalidPositionError(TermError):
    """A path does not address a fireable redex."""


class Term:
    """A lambda term.  Instances are immutable after construction, except
    for `Abs.uses`, a cache of occurrence counts filled in when first
    needed; it depends only on the immutable body.

    `size` is the number of symbols: a variable counts 1, and each binder
    and each application adds 1.  `is_value` holds for variables (bound or
    free) and abstractions."""

    __slots__ = ("size", "n_redexes", "max_index", "has_free", "_hash")

    is_value = False

    def __eq__(self, other):
        """Structural equality in time linear in the shared DAGs."""
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash or a.size != b.size:
                return False
            if type(a) is BoundVar:
                if a.index != b.index:
                    return False
            elif type(a) is FreeVar:
                if a.name != b.name:
                    return False
            # a pair met before is already compared or still on the stack
            elif (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                if type(a) is Abs:
                    stack.append((a.body, b.body))
                else:
                    stack.append((a.fun, b.fun))
                    stack.append((a.arg, b.arg))
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.size <= 60 and self.max_index < 0:
            return f"<term {print_term(self)}>"
        return f"<term size={self.size}>"


class BoundVar(Term):
    __slots__ = ("index",)

    is_value = True

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("de Bruijn index must be non-negative")
        self.index = index
        self.size = 1
        self.n_redexes = 0
        self.max_index = index
        self.has_free = False
        self._hash = hash((0, index))


class FreeVar(Term):
    __slots__ = ("name",)

    is_value = True

    def __init__(self, name: str):
        self.name = name
        self.size = 1
        self.n_redexes = 0
        self.max_index = -1
        self.has_free = True
        self._hash = hash((1, name))


class Abs(Term):
    """`λ.body`.  `uses` is None until `reduction._count_uses` fills it."""

    __slots__ = ("body", "uses")

    is_value = True

    def __init__(self, body: Term):
        self.body = body
        self.uses = None
        self.size = 1 + body.size
        # evaluation is lazy: nothing under a binder counts as a redex
        self.n_redexes = 0
        self.max_index = body.max_index - 1
        self.has_free = body.has_free
        self._hash = hash((2, body._hash))


class App(Term):
    __slots__ = ("fun", "arg")

    is_value = False

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        self.size = 1 + fun.size + arg.size
        here = 1 if type(fun) is Abs and arg.is_value else 0
        self.n_redexes = fun.n_redexes + arg.n_redexes + here
        self.max_index = max(fun.max_index, arg.max_index)
        self.has_free = fun.has_free or arg.has_free
        self._hash = hash((3, fun._hash, arg._hash))


def is_closed(t: Term) -> bool:
    return not t.has_free and t.max_index < 0


def free_names(t: Term) -> set[str]:
    names: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if not node.has_free:
            continue
        if type(node) is FreeVar:
            names.add(node.name)
        elif type(node) is Abs:
            stack.append(node.body)
        else:
            stack.append(node.fun)
            stack.append(node.arg)
    return names


def instantiate(t: Term, values: tuple[Term, ...], names: dict[str, int]) -> Term:
    """`t` with each dangling index i < len(values) replaced by values[i], verbatim,
    and each free name in `names` bound as index names[name] at the root of `t`.

    Every other leaf stays as it is and every subtree with nothing to replace
    is returned as the same object.  The walk keeps its own stack, so depth is
    bounded by memory, not by the recursion limit.
    """
    n = len(values)
    out: list[Term] = []
    stack: list[tuple[Term, int, bool]] = [(t, 0, False)]
    while stack:
        node, depth, done = stack.pop()
        if done:
            if type(node) is Abs:
                body = out.pop()
                out.append(node if body is node.body else Abs(body))
            else:
                arg = out.pop()
                fun = out.pop()
                out.append(node if fun is node.fun and arg is node.arg else App(fun, arg))
            continue
        if node.max_index < depth and not (names and node.has_free):
            out.append(node)
        elif type(node) is BoundVar:
            i = node.index - depth
            out.append(values[i] if i < n else node)
        elif type(node) is FreeVar:
            out.append(BoundVar(depth + names[node.name]) if node.name in names else node)
        elif type(node) is Abs:
            stack.append((node, depth, True))
            stack.append((node.body, depth + 1, False))
        else:
            stack.append((node, depth, True))
            stack.append((node.arg, depth, False))
            stack.append((node.fun, depth, False))
    return out[0]


def substitute_top(body: Term, value: Term) -> Term:
    """Replace the outermost binder's variable throughout `body` with `value`.

    The engine fires a redex only outside every binder, so `value` is well
    scoped on its own and needs no shifting."""
    return instantiate(body, (value,), {})


# --- construction helpers -------------------------------------------------

def fv(name: str) -> FreeVar:
    return FreeVar(name)


def ap(fun: Term, *args: Term) -> Term:
    """Left-associated application chain."""
    t = fun
    for a in args:
        t = App(t, a)
    return t


def lam(*names_and_body) -> Term:
    """Bind the free occurrences of each name in the body, outermost first.

    `lam("x", "y", body)` binds `x` outside `y`: the term that nesting
    single-name calls gives, built in one walk.  A name listed twice binds
    at its innermost position, the ordinary shadowing of nested binders.
    """
    *names, body = names_and_body
    # each name's index at the root of the body: the new binders inside its own
    t = instantiate(body, (), {name: len(names) - 1 - i for i, name in enumerate(names)})
    for _ in names:
        t = Abs(t)
    return t


# --- parsing ----------------------------------------------------------------

def parse_term(text: str) -> Term:
    """Parse surface syntax: `\\x.body` or `λx.body`, juxtaposition applies left.

    Free variables are arbitrary identifiers.  Raises ParseError with the
    offending offset.  The parser keeps its own stack, so nesting depth is
    bounded by memory, not by Python's recursion limit.
    """
    env: list[str] = []  # binder names in scope, innermost last
    # the expressions enclosing the current one: (application read so far,
    # what ends it: _PAREN, _BINDER, or _INPUT for the whole text)
    enclosing: list[tuple[Term | None, str]] = []
    result: Term | None = None
    closer = _INPUT
    pos = 0
    while True:
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] != ")":
            if text[pos] in "\\λ":
                name, pos = _read_ident(text, _skip_ws(text, pos + 1))
                pos = _skip_ws(text, pos)
                if pos >= len(text) or text[pos] != ".":
                    raise ParseError("expected '.' after binder", pos)
                env.append(name)
                enclosing.append((result, closer))
                result, closer = None, _BINDER
                pos += 1
            elif text[pos] == "(":
                enclosing.append((result, closer))
                result, closer = None, _PAREN
                pos += 1
            else:
                name, pos = _read_ident(text, pos)
                result = _apply(result, _variable(env, name))
            continue
        if result is None:
            raise ParseError("expected a term", pos)
        # an abstraction body extends maximally right, so it ends the
        # expression it sits in as well
        while closer == _BINDER:
            env.pop()
            outer, closer = enclosing.pop()
            result = _apply(outer, Abs(result))
        if closer == _INPUT:
            if pos != len(text):
                raise ParseError("unexpected input after term", pos)
            return result
        if pos >= len(text):
            raise ParseError("expected ')'", pos)
        outer, closer = enclosing.pop()
        result = _apply(outer, result)
        pos += 1


_INPUT, _PAREN, _BINDER = "input", "(", "\\"


def _apply(fun: Term | None, arg: Term) -> Term:
    return arg if fun is None else App(fun, arg)


def _variable(env: list[str], name: str) -> Term:
    for back, bound in enumerate(reversed(env)):
        if bound == name:
            return BoundVar(back)
    return FreeVar(name)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _read_ident(text: str, pos: int):
    if pos >= len(text) or not (text[pos].isalpha() or text[pos] == "_"):
        raise ParseError("expected an identifier", pos)
    start = pos
    while pos < len(text) and (text[pos].isalnum() or text[pos] in "_'"):
        pos += 1
    return text[start:pos], pos


# --- printing ---------------------------------------------------------------

def print_term(t: Term) -> str:
    """Render a term; parse_term(print_term(t)) is alpha-equal to t.

    A dangling de Bruijn index has no binder to name, so it raises TermError.
    """
    taken = free_names(t)
    binder_names: list[str] = []

    def binder(depth: int) -> str:
        while len(binder_names) <= depth:
            k = len(binder_names)
            name = f"x{k}"
            n = 0
            while name in taken:
                n += 1
                name = f"x{k}_{n}"
            binder_names.append(name)
        return binder_names[depth]

    out: list[str] = []
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, depth = item
        if type(node) is BoundVar:
            if node.index >= depth:
                raise TermError(f"cannot print dangling de Bruijn index {node.index}")
            out.append(binder(depth - 1 - node.index))
        elif type(node) is FreeVar:
            out.append(node.name)
        elif type(node) is Abs:
            out.append("\\" + binder(depth) + ".")
            stack.append((node.body, depth + 1))
        else:
            fun, arg = node.fun, node.arg
            if type(arg) in (Abs, App):
                stack.extend([")", (arg, depth), "("])
            else:
                stack.append((arg, depth))
            stack.append(" ")
            if type(fun) is Abs:
                stack.extend([")", (fun, depth), "("])
            else:
                stack.append((fun, depth))
    return "".join(out)
