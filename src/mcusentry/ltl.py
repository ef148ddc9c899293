"""Linear temporal logic over finite traces lifted to lassos.

A finite simulator trace is completed to an infinite word by looping its
terminal record (halt or post-reset idle), which is sound because every
proposition is constant on that sink. Two evaluators are provided: a naive
recursive one that follows the operator definitions literally (the
reference), and a bit-parallel one (one Python int per subformula) used on
large trace corpora. Tests keep them in agreement. Formula progression
(``progress``; Bacchus & Kabanza, AIJ 2000) joins them as a third
reading: what must hold from the next position on for a formula to hold
at this one. Every violation of a syntactically safe formula (``is_safe``;
Kupferman & Vardi, FMSD 2001) has a finite prefix that progresses it to
``false``. ``OBLIGATIONS`` numbers the formulas progression reaches, once
per process, with their progressions per code of the values they read.

The bit-parallel evaluator does not walk the formula tree per trace. A
formula compiles once to a ``_Program``: its distinct proposition names,
then one step per distinct subformula in dependency order (structurally
equal subtrees merged), which ``eval_vector`` runs as one flat loop over
ints. Programs are cached per formula object, keyed by identity, for the
last ``PROGRAM_CACHE_SIZE`` formulas compiled.

Propositions come from a table of named expressions (``props.build_props``)
or, when no table is given, from same-named attributes of the states. The
naive evaluator applies a table entry to one record at a time. The
bit-parallel one applies it once to the trace's ``machine.RecordColumns``
view, which yields the proposition at every position in one numpy
expression; the lasso keeps it packed into an int (``LassoTrace.prop_bits``),
so every formula evaluated on the same trace with the same table reuses it.

Operator semantics on an infinite word w at position i:

    X f     f holds at i+1
    G f     f holds at every j >= i
    f U g   g holds at some k >= i and f holds on [i, k)
    f W g   (f U g) or G f
    f B g   not ((not f) U g): any g-position has a strictly earlier f

Text format is prefix s-expressions, e.g. ``(G (-> (read GPIO) (pc_in ER)))``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import FormulaError
from .machine import RecordColumns, Trace

# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class; nodes are immutable and hashable."""

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class X(Formula):
    sub: Formula


@dataclass(frozen=True)
class G(Formula):
    sub: Formula


@dataclass(frozen=True)
class U(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class W(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class B(Formula):
    left: Formula
    right: Formula


def conj(*parts: Formula) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# ---------------------------------------------------------------------------
# Lasso traces

PropValuation = Callable[[object], object]


@dataclass
class LassoTrace:
    """Finite prefix plus a nonempty loop; positions index prefix+loop.

    The unrolled state list, its column view and the proposition words
    are computed on first use and kept, so a lasso's ``prefix`` and
    ``loop`` must not change after it is evaluated.
    """

    prefix: list
    loop: list
    _prop_bits: dict = field(default_factory=dict, init=False,
                             repr=False, compare=False)

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    @property
    def length(self) -> int:
        return len(self.prefix) + len(self.loop)

    @property
    def loop_start(self) -> int:
        return len(self.prefix)

    @cached_property
    def states(self) -> list:
        return self.prefix + self.loop

    @cached_property
    def columns(self) -> RecordColumns:
        return RecordColumns(self.states)

    def state(self, pos: int):
        return self.states[pos]

    def prop_bits(self, fn: "PropValuation") -> int:
        """Table entry ``fn`` at every position as one int, position ``i``
        at bit ``length - 1 - i``; evaluated once on the column view and
        kept per entry."""
        out = self._prop_bits.get(fn)
        if out is None:
            value = fn(self.columns)
            if np.ndim(value) == 0:  # a constant entry holds everywhere or nowhere
                out = (1 << self.length) - 1 if value else 0
            else:
                out = int.from_bytes(np.packbits(value), "big") >> (-self.length % 8)
            self._prop_bits[fn] = out
        return out

    def successor(self, pos: int) -> int:
        return pos + 1 if pos + 1 < self.length else self.loop_start

    @staticmethod
    def from_records(records: Sequence | Trace) -> "LassoTrace":
        """Stutter-complete a finite record sequence on its final record.

        Given a ``machine.Trace``, the lasso shares the trace's column
        view, whose positions are its own."""
        states = records.records if isinstance(records, Trace) else records
        if not states:
            raise ValueError("cannot lift an empty trace")
        lasso = LassoTrace(prefix=list(states[:-1]), loop=[states[-1]])
        if states is not records:
            lasso.columns = records.columns
        return lasso


# ---------------------------------------------------------------------------
# Naive reference evaluator


def eval_naive(f: Formula, trace: LassoTrace, pos: int = 0,
               props: Mapping[str, PropValuation] | None = None) -> bool:
    """Literal recursive evaluation; the semantic reference."""
    _check_position(trace, pos)
    return _ev(f, pos, trace, props)


def _check_position(trace: LassoTrace, pos: int) -> None:
    n = trace.length
    if not 0 <= pos < n:
        raise ValueError(f"position {pos} outside unrolled trace of length {n}")


def _ev(g: Formula, i: int, trace: LassoTrace,
        props: Mapping[str, PropValuation] | None) -> bool:
    # A module function, not a closure over itself: a recursive closure is
    # a reference cycle that keeps the trace alive until a full collection.
    if isinstance(g, Prop):
        state = trace.state(i)
        if props is not None:
            return bool(props[g.name](state))
        return bool(getattr(state, g.name))
    if isinstance(g, Not):
        return not _ev(g.sub, i, trace, props)
    if isinstance(g, And):
        return _ev(g.left, i, trace, props) and _ev(g.right, i, trace, props)
    if isinstance(g, Or):
        return _ev(g.left, i, trace, props) or _ev(g.right, i, trace, props)
    if isinstance(g, Implies):
        return (not _ev(g.left, i, trace, props)) or _ev(g.right, i, trace, props)
    if isinstance(g, X):
        return _ev(g.sub, trace.successor(i), trace, props)
    if isinstance(g, G):
        # Positions visited from i onward: the remaining prefix plus the
        # whole loop (from inside the loop, the wrap covers [ls, i) too).
        ls = trace.loop_start
        return all(_ev(g.sub, j, trace, props)
                   for j in range(i if i < ls else ls, trace.length))
    if isinstance(g, (U, W)):
        # Walk successors until a repeat: if right never holds before the
        # walk closes on itself, left held forever around the loop, which
        # fails the until and satisfies the weak until.
        j = i
        seen = set()
        while j not in seen:
            seen.add(j)
            if _ev(g.right, j, trace, props):
                return True
            if not _ev(g.left, j, trace, props):
                return False
            j = trace.successor(j)
        return isinstance(g, W)
    if isinstance(g, B):
        # not ((not left) U right), unfolded natively.
        j = i
        seen = set()
        while j not in seen:
            seen.add(j)
            if _ev(g.right, j, trace, props):
                return False
            if _ev(g.left, j, trace, props):
                return True
            j = trace.successor(j)
        return True
    raise TypeError(f"unknown formula node {g!r}")


# ---------------------------------------------------------------------------
# Bit-parallel evaluator


def eval_vector(f: Formula, trace: LassoTrace,
                props: Mapping[str, PropValuation] | None = None) -> np.ndarray:
    """Evaluate ``f`` at every position; returns a bool array of length n.

    Table contract: each entry of ``props`` is called once, on the trace's
    ``machine.RecordColumns`` view, so it must be written as the entries of
    ``props.build_props`` are (``&``, ``|`` and comparisons, never ``and``,
    ``or`` or ``in``), and the states must carry every ``machine.COLUMNS``
    field, as ``StateRecord`` does. With no table, propositions are the
    states' same-named attributes and any state type will do.

    Each subformula is one int, position i of n at bit n-1-i (propositions
    from ``LassoTrace.prop_bits``): the loop is the low bits, and an
    addition's carry runs from later positions to earlier ones. Until-like
    operators run on the trace doubled around its loop: one extra unrolling
    is enough for the least fixpoint because every position then sees a
    full loop iteration ahead of it.

    ``f`` runs as its ``_Program``, compiled at its first call and kept
    in a cache of the last ``PROGRAM_CACHE_SIZE`` formula objects
    compiled: one flat pass over the distinct subformulas, so a subtree
    that occurs twice is computed once.
    """
    n = trace.length
    names, steps, size = _program(f)
    full, k = (1 << n) - 1, n - trace.loop_start
    v = [0] * size
    for slot, name in names:
        if props is not None:
            v[slot] = trace.prop_bits(props[name])
        else:
            v[slot] = int("".join("1" if getattr(s, name) else "0"
                                  for s in trace.states), 2)
    for op, a, b, out in steps:
        x = v[a]
        if op == _AND:
            v[out] = x & v[b]
        elif op == _NOT:
            v[out] = full ^ x
        elif op == _IMPLIES:
            v[out] = (full ^ x) | v[b]
        elif op == _G:
            v[out] = _globally(x, k)
        elif op == _OR:
            v[out] = x | v[b]
        elif op == _X:  # the last position's successor is the loop start, bit k-1
            v[out] = ((x << 1) & full) | ((x >> (k - 1)) & 1)
        elif op == _W:
            v[out] = _until(x, v[b], k) | _globally(x, k)
        elif op == _U:
            v[out] = _until(x, v[b], k)
        else:  # B: not ((not left) U right)
            v[out] = full ^ _until(full ^ x, v[b], k)
    packed = (v[-1] << (-n % 8)).to_bytes((n + 7) // 8, "big")
    return np.unpackbits(np.frombuffer(packed, np.uint8), count=n).view(bool)


# Opcodes of a ``_Program`` step, numbered in ``eval_vector``'s test order,
# which follows how often the catalogue's formulas use each operator.
_AND, _NOT, _IMPLIES, _G, _OR, _X, _W, _U, _B = range(9)
_OPCODES = {And: _AND, Not: _NOT, Implies: _IMPLIES, G: _G, Or: _OR, X: _X,
            W: _W, U: _U, B: _B}
_UNARY_OPS = (_NOT, _G, _X)
PROGRAM_CACHE_SIZE = 256  # formula objects whose programs are kept


class _Program(NamedTuple):
    """A formula as ``size`` value slots, one per distinct subformula, in
    dependency order with the formula's own value last: ``props`` fills
    the slot of each distinct proposition name, and each step ``(opcode,
    a, b, out)`` computes slot ``out`` from slots ``a`` and ``b`` (``b``
    repeats ``a`` for a unary operator). Structurally equal subtrees
    share one slot."""

    props: tuple[tuple[int, str], ...]
    steps: tuple[tuple[int, int, int, int], ...]
    size: int


# id(formula) -> (formula, program); the entry keeps its formula alive, so
# the id cannot pass to another object while the entry is here.
_PROGRAMS: dict[int, tuple[Formula, _Program]] = {}


def _program(f: Formula) -> _Program:
    """``f``'s program from the cache, or compiled into it, evicting the
    oldest entry when the cache holds ``PROGRAM_CACHE_SIZE``."""
    hit = _PROGRAMS.get(id(f))
    if hit is not None and hit[0] is f:
        return hit[1]
    props, steps, slots = [], [], {}
    _visit(f, (props, steps, slots, {}))
    program = _Program(tuple(props), tuple(steps), len(slots))
    if len(_PROGRAMS) >= PROGRAM_CACHE_SIZE:
        del _PROGRAMS[next(iter(_PROGRAMS))]
    _PROGRAMS[id(f)] = (f, program)
    return program


def _visit(g: Formula, acc: tuple) -> int:
    """Give ``g`` and its subformulas slots, in post-order, and return
    ``g``'s.

    acc: the program's props and steps; the slot of each structural key (a
    name, or an opcode and its operands' slots), which merges equal
    subtrees; and the slot of each node identity, so that a node shared by
    reference is walked once. Not a closure over itself, for the reason
    given at ``_ev``."""
    props, steps, slots, by_id = acc
    slot = by_id.get(id(g))
    if slot is not None:
        return slot
    if isinstance(g, Prop):
        key = g.name
    else:
        op = _OPCODES.get(type(g))
        if op is None:
            raise TypeError(f"unknown formula node {g!r}")
        if op in _UNARY_OPS:
            a = b = _visit(g.sub, acc)
        else:
            a, b = _visit(g.left, acc), _visit(g.right, acc)
        key = (op, a, b)
    slot = slots.get(key)
    if slot is None:
        slot = slots[key] = len(slots)
        if isinstance(g, Prop):
            props.append((slot, key))
        else:
            steps.append((*key, slot))
    by_id[id(g)] = slot
    return slot


def _globally(sub: int, k: int) -> int:
    """G: the trailing run of ones (every later position holds), kept only
    when it covers the whole loop."""
    loop = (1 << k) - 1
    return sub & ~(sub + 1) if sub & loop == loop else 0


def _until(left: int, right: int, k: int) -> int:
    """U on the doubled loop (each operand gains a copy of its loop below
    bit 0): ``rx << 1`` puts a one at the lowest bit of each run of
    left-only positions that right follows, which carries through and
    clears the run (the until holds there) and stops just above it."""
    loop = (1 << k) - 1
    rx = (right << k) | (right & loop)
    lx = ((left << k) | (left & loop)) & ~rx
    return (rx | (lx & ~(lx + (rx << 1)))) >> k


def check_props(f: Formula, props: Mapping[str, PropValuation]) -> set[str]:
    """The names of ``f``'s propositions; raise ``FormulaError`` naming
    the first one that the table ``props`` does not define."""
    if isinstance(f, Prop):
        if f.name not in props:
            raise FormulaError(f"unknown proposition {f.name!r}")
        return {f.name}
    return set().union(*(check_props(child, props) for child in vars(f).values()))


def eval_formula(f: Formula, trace: LassoTrace, pos: int = 0,
                 props: Mapping[str, PropValuation] | None = None) -> bool:
    """Fast-path evaluation at one position through ``eval_vector``, whose
    table contract applies (``eval_naive`` takes any per-record table)."""
    _check_position(trace, pos)
    return bool(eval_vector(f, trace, props)[pos])


# ---------------------------------------------------------------------------
# Formula progression over the syntactically safe fragment

TRUE, FALSE = Prop("true"), Prop("false")


def is_safe(f: Formula, positive: bool = True) -> bool:
    """Syntactically safe: no U or B, and no G or W under a negation or
    in an implication's antecedent (Kupferman & Vardi, FMSD 2001)."""
    if isinstance(f, Prop):
        return True
    if isinstance(f, Not):
        return is_safe(f.sub, not positive)
    if isinstance(f, Implies):
        return is_safe(f.left, not positive) and is_safe(f.right, positive)
    allowed = isinstance(f, (And, Or, X)) or positive and isinstance(f, (G, W))
    return allowed and all(is_safe(child, positive) for child in vars(f).values())


def flatten(f: Formula, op: type) -> list[Formula]:
    """The operands of a nest of ``op`` (And or Or) nodes, left to right."""
    if isinstance(f, op):
        return flatten(f.left, op) + flatten(f.right, op)
    return [f]


def _not(f: Formula) -> Formula:
    if isinstance(f, Not):
        return f.sub
    return FALSE if f == TRUE else TRUE if f == FALSE else Not(f)


def _join(op: type, parts: list[Formula]) -> Formula:
    """``op`` (And or Or) over ``parts``, constants folded and nested
    ``op`` operands flattened, deduplicated and sorted by text."""
    unit, zero = (TRUE, FALSE) if op is And else (FALSE, TRUE)
    flat = {leaf for part in parts for leaf in flatten(part, op)} - {unit}
    if zero in flat or not flat:
        return zero if flat else unit
    out, *rest = sorted(flat, key=to_text)
    for part in rest:
        out = op(out, part)
    return out


def progress(f: Formula, values: dict[str, bool]) -> Formula:
    """What must hold from the next position on for ``f`` to hold at this
    one, given the values here of the propositions it reads outside X
    and of ``true`` and ``false`` (Bacchus & Kabanza, AIJ 2000),
    so a prefix violates a safe formula once it progresses to ``false``.
    Past the safe fragment a U or B may stay pending for ever."""
    if isinstance(f, Prop):
        return TRUE if values[f.name] else FALSE
    if isinstance(f, Not):
        return _not(progress(f.sub, values))
    if isinstance(f, (And, Or)):
        return _join(type(f), [progress(f.left, values), progress(f.right, values)])
    if isinstance(f, Implies):
        return _join(Or, [_not(progress(f.left, values)), progress(f.right, values)])
    if isinstance(f, X):
        return f.sub
    if isinstance(f, G):
        return _join(And, [progress(f.sub, values), f])
    if isinstance(f, (U, W)):
        return _join(Or, [progress(f.right, values),
                          _join(And, [progress(f.left, values), f])])
    if isinstance(f, B):
        return _join(And, [_not(progress(f.right, values)),
                           _join(Or, [progress(f.left, values), f])])
    raise TypeError(f"unknown formula node {f!r}")


def _reads(f: Formula) -> set[str]:
    """The propositions ``progress`` reads: those outside X, constants aside."""
    if isinstance(f, X):
        return set()
    if isinstance(f, Prop):
        return {f.name} - {"true", "false"}
    return set().union(*map(_reads, vars(f).values()))


class _Obligations:
    """Obligations numbered once per process (``false`` is 0, ``true``
    1), each kept with the propositions it reads, sorted, and progressed
    once per code of their values (``reads[i]`` at bit ``i``): progression
    depends only on the formula, so every walk shares these."""

    def __init__(self):
        self.number: dict[Formula, int] = {}
        self.entries: list[tuple[Formula, tuple[str, ...]]] = []  # formula, reads
        self._next: dict[tuple[int, int], int] = {}
        self.false, self.true = self.intern(FALSE), self.intern(TRUE)

    def intern(self, f: Formula) -> int:
        if f not in self.number:
            self.number[f] = len(self.entries)
            self.entries.append((f, tuple(sorted(_reads(f)))))
        return self.number[f]

    def next(self, oid: int, code: int) -> int:
        nxt = self._next.get((oid, code))
        if nxt is None:
            f, reads = self.entries[oid]
            values = {name: bool(code >> bit & 1) for bit, name in enumerate(reads)}
            values.update(true=True, false=False)
            nxt = self._next[oid, code] = self.intern(progress(f, values))
        return nxt


OBLIGATIONS = _Obligations()


# ---------------------------------------------------------------------------
# Text format

_BINARY = {"U": U, "W": W, "B": B, "&": And, "|": Or, "->": Implies}
_UNARY = {"X": X, "G": G, "!": Not}
_SYMBOLS = {node: symbol for table in (_UNARY, _BINARY)
            for symbol, node in table.items()}
# Deeper input is refused rather than overflowing the recursive parser and
# evaluators; the catalogue's deepest formula nests under ten levels.
MAX_NESTING = 100


@dataclass
class _Tokens:
    items: list[tuple[str, int]]
    pos: int = 0

    def peek(self) -> tuple[str, int] | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        self.pos += 1
        return tok


def _tokenize(text: str) -> _Tokens:
    items = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            items.append((c, i))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()":
            j += 1
        items.append((text[i:j], i))
        i = j
    return _Tokens(items)


def parse(text: str) -> Formula:
    """Parse the prefix s-expression format with positioned errors.

    A top-level operator application may omit its outer parentheses,
    e.g. ``G (-> (read GPIO) (pc_in ER))``.
    """
    stripped = text.strip()
    head = stripped.split(None, 1)[0] if stripped else ""
    if head in _UNARY or head in _BINARY:
        return parse(f"({stripped})")
    toks = _tokenize(text)
    f = _parse_expr(toks)
    trailing = toks.peek()
    if trailing is not None:
        raise FormulaError(f"trailing input {trailing[0]!r}", trailing[1])
    return f


def _parse_expr(toks: _Tokens, depth: int = 0) -> Formula:
    tok, off = toks.next()
    if tok == ")":
        raise FormulaError("unexpected ')'", off)
    if tok != "(":
        return Prop(tok)
    if depth == MAX_NESTING:
        raise FormulaError(f"formula nests deeper than {MAX_NESTING} levels", off)
    head, hoff = toks.next()
    if head in ("(", ")"):
        raise FormulaError(f"unexpected {head!r}", hoff)
    if head in _UNARY:
        sub = _parse_expr(toks, depth + 1)
        _expect_close(toks, head, hoff)
        return _UNARY[head](sub)
    if head in _BINARY:
        left = _parse_expr(toks, depth + 1)
        right = _parse_expr(toks, depth + 1)
        _expect_close(toks, head, hoff)
        return _BINARY[head](left, right)
    # Parametrized proposition like (read GPIO) or (pc_at ermax).
    parts = [head]
    while True:
        tok = toks.peek()
        if tok is None:
            raise FormulaError("missing ')'", hoff)
        if tok[0] == ")":
            toks.next()
            break
        if tok[0] == "(":
            raise FormulaError(f"operator {head!r} is not known", hoff)
        parts.append(toks.next()[0])
    return Prop(" ".join(parts))


def _expect_close(toks: _Tokens, head: str, off: int) -> None:
    tok = toks.peek()
    if tok is None or tok[0] != ")":
        raise FormulaError(f"missing ')' after {head!r}", off)
    toks.next()


def to_text(f: Formula) -> str:
    if isinstance(f, Prop):
        return f"({f.name})" if " " in f.name else f.name
    symbol = _SYMBOLS.get(type(f))
    if symbol is None:
        raise TypeError(f"unknown formula node {f!r}")
    if symbol in _UNARY:
        return f"({symbol} {to_text(f.sub)})"
    return f"({symbol} {to_text(f.left)} {to_text(f.right)})"
