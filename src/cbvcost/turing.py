"""Deterministic one-tape machines: model, native simulator, and compilation.

The native simulator is the oracle: the compiler turns a machine into a
closed term (initializer, transition driver, output extractor, glued as
one function) whose reduction weight is linear in the number of machine
steps, and every compiled run is checked against the simulator.

The compiled output is the final tape string re-encoded over the IO
alphabet, so symbols outside it (in particular blanks) are dropped; the
oracle comparison therefore projects the simulator's raw string onto the
IO alphabet before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .encodings import (
    Alphabet,
    build_append,
    build_convert,
    decode_string,
    encode_string,
    encode_symbol,
    fixpoint_h,
    tuple_of,
)
from .reduction import LEFTMOST, normalize
from .terms import App, Term, ap, fv, lam

MOVES = ("L", "R", "S")


class TMDefinitionError(Exception):
    pass


class TMParseError(Exception):
    """A malformed description; `line` is None for a missing declaration."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class FuelExhausted(Exception):
    pass


class OracleMismatchError(Exception):
    """A result disagrees with its independent oracle: a bug."""


@dataclass(frozen=True)
class TMConfig:
    left: str
    head: str
    right: str
    state: str


@dataclass(frozen=True)
class TuringMachine:
    alphabet: tuple[str, ...]
    blank: str
    states: tuple[str, ...]
    initial: str
    final: str
    delta: dict[tuple[str, str], tuple[str, str, str]]

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet):
            raise TMDefinitionError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in self.alphabet):
            raise TMDefinitionError("tape symbols must be single characters")
        if self.blank not in self.alphabet:
            raise TMDefinitionError("blank symbol must belong to the alphabet")
        if len(set(self.states)) != len(self.states):
            raise TMDefinitionError("states must be distinct")
        for q in (self.initial, self.final):
            if q not in self.states:
                raise TMDefinitionError(f"state {q!r} is not declared")
        for (q, a), (q2, a2, move) in self.delta.items():
            if q not in self.states or q2 not in self.states:
                raise TMDefinitionError(f"transition uses unknown state in {(q, a)}")
            if a not in self.alphabet or a2 not in self.alphabet:
                raise TMDefinitionError(f"transition uses unknown symbol in {(q, a)}")
            if q == self.final:
                raise TMDefinitionError("the transition function is undefined on the final state")
            if move not in MOVES:
                raise TMDefinitionError(f"unknown move {move!r}")
        for q in self.states:
            if q == self.final:
                continue
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise TMDefinitionError(f"missing transition for ({q!r}, {a!r})")


def parse_tm(text: str) -> TuringMachine:
    """Line-oriented machine description; '#' starts a comment.

    Keys: alphabet, blank, states, initial, final, and one `delta:` line per
    transition `q a -> q' a' M` with M in {L, R, S}.
    """
    single: dict[str, str] = {}
    lists: dict[str, tuple[str, ...]] = {}
    deltas: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise TMParseError("expected 'key: value'", lineno)
        key = key.strip()
        tokens = rest.split()
        if key == "delta":
            if len(tokens) != 6 or tokens[2] != "->":
                raise TMParseError("expected 'delta: q a -> q a move'", lineno)
            deltas.append((lineno, tokens))
        elif key in ("alphabet", "states"):
            if not tokens:
                raise TMParseError(f"empty {key} declaration", lineno)
            if key in lists:
                raise TMParseError(f"duplicate {key} declaration", lineno)
            lists[key] = tuple(tokens)
        elif key in ("blank", "initial", "final"):
            if len(tokens) != 1:
                raise TMParseError(f"{key} takes exactly one token", lineno)
            if key in single:
                raise TMParseError(f"duplicate {key} declaration", lineno)
            single[key] = tokens[0]
        else:
            raise TMParseError(f"unknown key {key!r}", lineno)
    for key in ("alphabet", "states"):
        if key not in lists:
            raise TMParseError(f"missing {key} declaration")
    for key in ("blank", "initial", "final"):
        if key not in single:
            raise TMParseError(f"missing {key} declaration")
    delta: dict[tuple[str, str], tuple[str, str, str]] = {}
    for lineno, (q, a, _, q2, a2, move) in deltas:
        for state in (q, q2):
            if state not in lists["states"]:
                raise TMParseError(f"unknown state {state!r}", lineno)
        for sym in (a, a2):
            if sym not in lists["alphabet"]:
                raise TMParseError(f"unknown symbol {sym!r}", lineno)
        if q == single["final"]:
            raise TMParseError("transition out of the final state", lineno)
        if move not in MOVES:
            raise TMParseError(f"unknown move {move!r}", lineno)
        if (q, a) in delta:
            raise TMParseError(f"duplicate transition for ({q!r}, {a!r})", lineno)
        delta[(q, a)] = (q2, a2, move)
    return TuringMachine(lists["alphabet"], single["blank"], lists["states"],
                         single["initial"], single["final"], delta)


# --- native simulation --------------------------------------------------

def initial_config(m: TuringMachine, u: str) -> TMConfig:
    for ch in u:
        if ch not in m.alphabet:
            raise TMDefinitionError(f"input symbol {ch!r} is not in the alphabet")
    if u == "":
        return TMConfig("", m.blank, "", m.initial)
    return TMConfig("", u[0], u[1:], m.initial)


def tm_step(m: TuringMachine, c: TMConfig) -> TMConfig:
    q2, a2, move = m.delta[(c.state, c.head)]
    if move == "S":
        return TMConfig(c.left, a2, c.right, q2)
    if move == "L":
        if c.left:
            return TMConfig(c.left[:-1], c.left[-1], a2 + c.right, q2)
        return TMConfig("", m.blank, a2 + c.right, q2)
    if c.right:
        return TMConfig(c.left + a2, c.right[0], c.right[1:], q2)
    return TMConfig(c.left + a2, m.blank, "", q2)


@dataclass
class TMRun:
    output: Optional[str]
    steps: int
    halted: bool
    config: TMConfig


def simulate_tm(m: TuringMachine, u: str, fuel: int = 100_000) -> TMRun:
    """Run to the final state; the output string is left + head + right."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    c = initial_config(m, u)
    steps = 0
    while c.state != m.final:
        if steps >= fuel:
            return TMRun(None, steps, False, c)
        c = tm_step(m, c)
        steps += 1
    return TMRun(c.left + c.head + c.right, steps, True, c)


def project(s: str, symbols) -> str:
    """Drop every character not in `symbols` (e.g. blanks outside the IO alphabet)."""
    keep = set(symbols)
    return "".join(ch for ch in s if ch in keep)


# --- compilation to terms -------------------------------------------------

def encode_config(m: TuringMachine, c: TMConfig) -> Term:
    """\\x.x <reversed-left> <head> <right> <state>; the left part is stored reversed."""
    sig = Alphabet(m.alphabet)
    stq = Alphabet(m.states)
    return tuple_of(encode_string(sig, c.left[::-1]),
                    encode_symbol(sig, c.head),
                    encode_string(sig, c.right),
                    encode_symbol(stq, c.state))


def _check_sub_alphabet(m: TuringMachine, a: Alphabet) -> None:
    for s in a:
        if s not in m.alphabet:
            raise TMDefinitionError(f"IO symbol {s!r} is not in the machine alphabet")


def build_init(m: TuringMachine, input_alphabet: Alphabet) -> Term:
    """Closed term mapping an encoded input string to its initial configuration.

    Weight affine in the input length.  Recursing through the input leaves
    one extra blank at the end of the right tape; it is inert (the machine
    reads past the end as blank anyway) and disappears in the projection
    performed by the output extractor.
    """
    _check_sub_alphabet(m, input_alphabet)
    sig = Alphabet(m.alphabet)
    base = encode_config(m, TMConfig("", m.blank, "", m.initial))
    append_char = build_append(sig, "char")
    cells = []
    for s in input_alphabet:
        update = lam("w", tuple_of(fv("u"), encode_symbol(sig, s), fv("w"), fv("q")))
        cont = lam("u", "a", "v", "q", ap(update, ap(append_char, fv("a"), fv("v"))))
        cells.append(lam("z", ap(ap(fv("x"), fv("z")), cont)))
    worker = lam("x", "y", ap(fv("y"), *cells, base))
    return App(fixpoint_h(), worker)


def build_trans(m: TuringMachine) -> Term:
    """Closed term driving a configuration to the final one it reaches.

    Weight linear in the number of machine steps; diverges when no final
    configuration is reachable.  Applied to an already-final configuration
    it rebuilds it unchanged.
    """
    sig = Alphabet(m.alphabet)
    stq = Alphabet(m.states)
    append_char = build_append(sig, "char")
    eps = encode_string(sig, "")
    blank = encode_symbol(sig, m.blank)
    # continuations dispatching on the stored (reversed) left string
    lefts = [lam("u", "v", "q", tuple_of(fv("u"), encode_symbol(sig, s), fv("v"), fv("q")))
             for s in m.alphabet]
    left_empty = lam("v", "q", tuple_of(eps, blank, fv("v"), fv("q")))
    # continuations dispatching on the right string
    rights = [lam("v", "u", "q", tuple_of(fv("u"), encode_symbol(sig, s), fv("v"), fv("q")))
              for s in m.alphabet]
    right_empty = lam("u", "q", tuple_of(fv("u"), blank, eps, fv("q")))

    rows = []
    for qi in m.states:
        branches = []
        for aj in m.alphabet:
            if qi == m.final:
                branch = lam("u", "v", tuple_of(fv("u"), encode_symbol(sig, aj), fv("v"),
                                                encode_symbol(stq, qi)))
            else:
                ql, ak, move = m.delta[(qi, aj)]
                written = encode_symbol(sig, ak)
                target = encode_symbol(stq, ql)
                if move == "S":
                    branch = lam("u", "v", ap(fv("x"), tuple_of(fv("u"), written, fv("v"), target)))
                elif move == "L":
                    branch = lam("u", "v", ap(fv("x"), ap(fv("u"), *lefts, left_empty,
                                                          ap(append_char, written, fv("v")), target)))
                else:
                    branch = lam("u", "v", ap(fv("x"), ap(fv("v"), *rights, right_empty,
                                                          ap(append_char, written, fv("u")), target)))
            branches.append(branch)
        rows.append(lam("u", "a", "v", ap(fv("a"), *branches, fv("u"), fv("v"))))
    core = lam("u", "a", "v", "q", ap(fv("q"), *rows, fv("u"), fv("a"), fv("v")))
    worker = lam("x", "y", ap(fv("y"), core))
    return App(fixpoint_h(), worker)


def build_final(m: TuringMachine, output_alphabet: Alphabet) -> Term:
    """Closed term extracting the output string from a final configuration.

    Weight affine in the tape length; symbols outside the output alphabet
    are dropped by the conversion.
    """
    _check_sub_alphabet(m, output_alphabet)
    sig = Alphabet(m.alphabet)
    append_rev = build_append(output_alphabet, "reverse")
    append_str = build_append(output_alphabet, "string")
    conv_str = build_convert(sig, output_alphabet, "string")
    conv_char = build_convert(sig, output_alphabet, "char")
    body = lam("u", "a", "v", "q",
               ap(append_rev,
                  ap(conv_str, fv("u")),
                  ap(append_str, ap(conv_char, fv("a")), ap(conv_str, fv("v")))))
    return lam("x", ap(fv("x"), body))


def build_function(m: TuringMachine, io_alphabet: Alphabet) -> Term:
    """\\x. final (trans (init x)): the whole machine as one closed term."""
    init_t = build_init(m, io_alphabet)
    trans_t = build_trans(m)
    final_t = build_final(m, io_alphabet)
    return lam("x", ap(final_t, ap(trans_t, ap(init_t, fv("x")))))


@dataclass
class CompiledRun:
    output: str
    lambda_cost: int
    tm_steps: int


def run_compiled(m: TuringMachine, u: str, fuel: int = 1_000_000,
                 io_alphabet: Optional[Alphabet] = None) -> CompiledRun:
    """Reduce the compiled machine on `u` and check it against the simulator.

    Returns the decoded output, the reduction weight and the oracle's step
    count.  Raises FuelExhausted when reduction does not finish (a looping
    machine) and OracleMismatchError when the outputs differ.
    """
    if io_alphabet is None:
        io_alphabet = Alphabet(s for s in m.alphabet if s != m.blank)
    program = build_function(m, io_alphabet)
    outcome = normalize(App(program, encode_string(io_alphabet, u)), LEFTMOST, fuel)
    if not outcome.normalized:
        raise FuelExhausted(f"compiled machine did not halt within {fuel} steps")
    decoded = decode_string(io_alphabet, outcome.term)
    oracle = simulate_tm(m, u, fuel)
    if not oracle.halted:
        raise OracleMismatchError("compiled run halted but the simulator did not")
    expected = project(oracle.output, io_alphabet)
    if decoded != expected:
        raise OracleMismatchError(f"compiled output {decoded!r} != simulator output {expected!r}")
    return CompiledRun(decoded, outcome.trace.total_cost, oracle.steps)


# --- sample machines ------------------------------------------------------

FLIP_SPEC = """\
# complement every bit, one left-to-right sweep
alphabet: 0 1 _
blank: _
states: q0 qf
initial: q0
final: qf
delta: q0 0 -> q0 1 R
delta: q0 1 -> q0 0 R
delta: q0 _ -> qf _ S
"""

EVEN_PALINDROME_SPEC = """\
# accept even-length palindromes over {0,1}: erase matching outer symbols,
# bouncing between the ends; emits 1 on accept, 0 on reject (quadratic time)
alphabet: 0 1 _
blank: _
states: q0 r0 r1 c0 c1 bk nl qf
initial: q0
final: qf
delta: q0 0 -> r0 _ R
delta: q0 1 -> r1 _ R
delta: q0 _ -> qf 1 S
delta: r0 0 -> r0 0 R
delta: r0 1 -> r0 1 R
delta: r0 _ -> c0 _ L
delta: r1 0 -> r1 0 R
delta: r1 1 -> r1 1 R
delta: r1 _ -> c1 _ L
delta: c0 0 -> bk _ L
delta: c0 1 -> nl _ L
delta: c0 _ -> qf 0 S
delta: c1 0 -> nl _ L
delta: c1 1 -> bk _ L
delta: c1 _ -> qf 0 S
delta: bk 0 -> bk 0 L
delta: bk 1 -> bk 1 L
delta: bk _ -> q0 _ R
delta: nl 0 -> nl _ L
delta: nl 1 -> nl _ L
delta: nl _ -> qf 0 S
"""


def flip_machine() -> TuringMachine:
    return parse_tm(FLIP_SPEC)


def even_palindrome_machine() -> TuringMachine:
    return parse_tm(EVEN_PALINDROME_SPEC)
