"""Syntax for single-sorted relational first-order formulas.

Variables are tape-indexed: tape 0 prints as x, 1 as y, 2 as z, 3 as w, and
tape t >= 4 as v<t>.  A variable token is <tapeletter><position>, e.g. x0,
y12, v45 (tape 4, position 5).

Connectives & and | are stored as flattened n-ary nodes with children in a
deterministic structural order, so structurally equal formulas are equal
Python values and can back caches.  Rendering nests n-ary nodes back into
the binary grammar, right-associated.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, SignatureError

TAPE_LETTERS = "xyzw"


@dataclass(frozen=True, order=True)
class VarRef:
    tape: int
    position: int

    def render(self) -> str:
        if 0 <= self.tape < 4:
            return f"{TAPE_LETTERS[self.tape]}{self.position}"
        if 4 <= self.tape <= 9:
            return f"v{self.tape}{self.position}"
        raise ValueError(f"tape {self.tape} has no printable letter")


@dataclass(frozen=True)
class Signature:
    """Relational signature; equality is always available and not listed."""

    name: str
    relations: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for sym, arity in self.relations:
            if sym in seen:
                raise SignatureError(f"duplicate relation symbol {sym!r}")
            if sym in ("true", "false", "eq", "exists", "forall") or not sym.isalpha():
                raise SignatureError(f"bad relation symbol {sym!r}")
            if arity < 1:
                raise SignatureError(f"relation {sym!r} must have arity >= 1")
            seen.add(sym)

    def arity(self, sym: str) -> int | None:
        for s, a in self.relations:
            if s == sym:
                return a
        return None


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Bot(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    args: tuple[VarRef, ...]


@dataclass(frozen=True)
class Eq(Formula):
    lhs: VarRef
    rhs: VarRef


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: VarRef
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: VarRef
    body: Formula


TRUE = Top()
FALSE = Bot()

_RANK = {Top: 0, Bot: 1, Atom: 2, Eq: 3, Not: 4, And: 5, Or: 6, Implies: 7,
         Exists: 8, Forall: 9}


def sort_key(f: Formula):
    """Total structural order used for canonical child ordering."""
    t = type(f)
    r = _RANK[t]
    if t in (Top, Bot):
        return (r,)
    if t is Atom:
        return (r, f.rel, tuple((v.tape, v.position) for v in f.args))
    if t is Eq:
        return (r, "", ((f.lhs.tape, f.lhs.position), (f.rhs.tape, f.rhs.position)))
    if t is Not:
        return (r, sort_key(f.sub))
    if t in (And, Or):
        return (r, tuple(sort_key(c) for c in f.children))
    if t is Implies:
        return (r, (sort_key(f.lhs), sort_key(f.rhs)))
    return (r, ((f.var.tape, f.var.position),), sort_key(f.body))


# -- smart constructors ------------------------------------------------------
# conj/disj flatten, drop duplicates and neutral elements, fold constants and
# syntactic complements, and sort children structurally.

def neg(f: Formula) -> Formula:
    if isinstance(f, Top):
        return FALSE
    if isinstance(f, Bot):
        return TRUE
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def _assoc(items, node_type, absorber, neutral):
    flat = []
    for f in items:
        if isinstance(f, node_type):
            flat.extend(f.children)
        elif isinstance(f, type(absorber)):
            return absorber
        elif isinstance(f, type(neutral)):
            continue
        else:
            flat.append(f)
    seen = set()
    out = []
    for f in sorted(flat, key=sort_key):
        if f not in seen:
            seen.add(f)
            out.append(f)
    for f in out:
        if neg(f) in seen:
            return absorber
    if not out:
        return neutral
    if len(out) == 1:
        return out[0]
    return node_type(tuple(out))


def conj(items) -> Formula:
    return _assoc(items, And, FALSE, TRUE)


def disj(items) -> Formula:
    return _assoc(items, Or, TRUE, FALSE)


def implies(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Bot) or isinstance(b, Top):
        return TRUE
    if isinstance(a, Top):
        return b
    if isinstance(b, Bot):
        return neg(a)
    return Implies(a, b)


def _check_no_rebind(var, body):
    if isinstance(body, (Exists, Forall)):
        if body.var == var:
            raise SignatureError(f"quantifier rebinds {var.render()} in scope")
        _check_no_rebind(var, body.body)
    elif isinstance(body, Not):
        _check_no_rebind(var, body.sub)
    elif isinstance(body, (And, Or)):
        for c in body.children:
            _check_no_rebind(var, c)
    elif isinstance(body, Implies):
        _check_no_rebind(var, body.lhs)
        _check_no_rebind(var, body.rhs)


def exists(var: VarRef, body: Formula) -> Formula:
    _check_no_rebind(var, body)
    if isinstance(body, (Top, Bot)):
        return body
    return Exists(var, body)


def forall(var: VarRef, body: Formula) -> Formula:
    _check_no_rebind(var, body)
    if isinstance(body, (Top, Bot)):
        return body
    return Forall(var, body)


# -- variables ---------------------------------------------------------------

def free_vars(f: Formula) -> frozenset[VarRef]:
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.lhs, f.rhs))
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for c in f.children:
            out |= free_vars(c)
        return out
    if isinstance(f, Implies):
        return free_vars(f.lhs) | free_vars(f.rhs)
    return free_vars(f.body) - {f.var}


def all_vars(f: Formula) -> frozenset[VarRef]:
    if isinstance(f, (Exists, Forall)):
        return all_vars(f.body) | {f.var}
    if isinstance(f, Not):
        return all_vars(f.sub)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for c in f.children:
            out |= all_vars(c)
        return out
    if isinstance(f, Implies):
        return all_vars(f.lhs) | all_vars(f.rhs)
    return free_vars(f)


def substitute_vars(f: Formula, mapping: dict[VarRef, VarRef]) -> Formula:
    """Replace free occurrences per `mapping`; bound variables are left alone
    and alpha-renamed when they collide with a substitution image."""
    fv = free_vars(f)
    live = {k: v for k, v in mapping.items() if k in fv}
    images = list(live.values())
    if len(set(images)) != len(images):
        raise SignatureError("substitution map is not injective on free variables")
    return _subst(f, live)


def _subst(f: Formula, mapping: dict[VarRef, VarRef]) -> Formula:
    if not mapping:
        return f
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(mapping.get(v, v) for v in f.args))
    if isinstance(f, Eq):
        return Eq(mapping.get(f.lhs, f.lhs), mapping.get(f.rhs, f.rhs))
    if isinstance(f, Not):
        return Not(_subst(f.sub, mapping))
    if isinstance(f, And):
        return conj(_subst(c, mapping) for c in f.children)
    if isinstance(f, Or):
        return disj(_subst(c, mapping) for c in f.children)
    if isinstance(f, Implies):
        return Implies(_subst(f.lhs, mapping), _subst(f.rhs, mapping))
    # quantified: the bound variable itself is never substituted
    body_vars = free_vars(f.body)
    inner = {k: v for k, v in mapping.items() if k != f.var and k in body_vars}
    var, body = f.var, f.body
    if var in inner.values():
        used = {v.position for v in all_vars(body) if v.tape == var.tape}
        used |= {v.position for v in inner.values() if v.tape == var.tape}
        fresh = VarRef(var.tape, max(used) + 1)
        body = _subst(body, {var: fresh})
        var = fresh
    body = _subst(body, inner)
    return type(f)(var, body)


def rename_tapes(f: Formula, perm: dict[int, int]) -> Formula:
    """Total tape renaming (applies to bound variables too; safe because it
    is a bijection on the whole variable space)."""
    def go(g):
        if isinstance(g, (Top, Bot)):
            return g
        if isinstance(g, Atom):
            return Atom(g.rel, tuple(VarRef(perm.get(v.tape, v.tape), v.position) for v in g.args))
        if isinstance(g, Eq):
            return Eq(VarRef(perm.get(g.lhs.tape, g.lhs.tape), g.lhs.position),
                      VarRef(perm.get(g.rhs.tape, g.rhs.tape), g.rhs.position))
        if isinstance(g, Not):
            return Not(go(g.sub))
        if isinstance(g, And):
            return conj(go(c) for c in g.children)
        if isinstance(g, Or):
            return disj(go(c) for c in g.children)
        if isinstance(g, Implies):
            return Implies(go(g.lhs), go(g.rhs))
        v = VarRef(perm.get(g.var.tape, g.var.tape), g.var.position)
        return type(g)(v, go(g.body))
    values = [perm.get(t, t) for t in perm]
    if len(set(values)) != len(values):
        raise SignatureError("tape renaming must be injective")
    return go(f)


# -- rendering ---------------------------------------------------------------

def render_formula(f: Formula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Atom):
        return f"{f.rel}({','.join(v.render() for v in f.args)})"
    if isinstance(f, Eq):
        return f"eq({f.lhs.render()},{f.rhs.render()})"
    if isinstance(f, Not):
        return "!" + render_formula(f.sub)
    if isinstance(f, (And, Or)):
        op = " & " if isinstance(f, And) else " | "
        return "(" + op.join(render_formula(c) for c in f.children) + ")"
    if isinstance(f, Implies):
        return f"({render_formula(f.lhs)} -> {render_formula(f.rhs)})"
    kw = "exists" if isinstance(f, Exists) else "forall"
    return f"{kw} {f.var.render()}. {render_formula(f.body)}"


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[()!&|.,]|[a-z][a-z0-9]*)")
_VAR = re.compile(r"^([a-z])([0-9]+)$")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                at = len(text) - len(rest) + 1
                raise ParseError(f"unexpected character {rest[0]!r}", at)
            self.tokens.append((m.group(1), m.start(1) + 1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def offset(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text) + 1

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            what = expected or "token"
            raise ParseError(f"unexpected end of input, expected {what}", self.offset())
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {tok!r}", self.offset())
        self.i += 1
        return tok


def _decode_var(tok: str, at: int) -> VarRef:
    m = _VAR.match(tok)
    if m is None:
        raise ParseError(f"expected a variable, found {tok!r}", at)
    letter, digits = m.group(1), m.group(2)
    if letter in TAPE_LETTERS:
        return VarRef(TAPE_LETTERS.index(letter), int(digits))
    if letter == "v":
        if len(digits) < 2:
            raise ParseError(f"variable {tok!r} is missing a position", at)
        tape = int(digits[0])
        if tape < 4:
            raise ParseError(f"tape v{tape} is written {TAPE_LETTERS[tape]!r}", at)
        return VarRef(tape, int(digits[1:]))
    raise ParseError(f"unknown tape letter {letter!r}", at)


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.lex = _Lexer(text)
        self.sig = sig

    def parse(self) -> Formula:
        f = self.formula()
        if self.lex.peek() is not None:
            raise ParseError(f"trailing input {self.lex.peek()!r}", self.lex.offset())
        return f

    def formula(self) -> Formula:
        tok = self.lex.peek()
        at = self.lex.offset()
        if tok is None:
            raise ParseError("unexpected end of input", at)
        if tok == "true":
            self.lex.take()
            return TRUE
        if tok == "false":
            self.lex.take()
            return FALSE
        if tok == "!":
            self.lex.take()
            return neg(self.formula())
        if tok == "(":
            self.lex.take()
            lhs = self.formula()
            op = self.lex.take()
            if op not in ("&", "|", "->"):
                raise ParseError(f"expected '&', '|' or '->', found {op!r}", at)
            parts = [lhs, self.formula()]
            # & and | chain n-ary within one pair of parentheses
            while op in ("&", "|") and self.lex.peek() == op:
                self.lex.take()
                parts.append(self.formula())
            if self.lex.peek() != ")":
                raise ParseError("unbalanced parenthesis", self.lex.offset())
            self.lex.take(")")
            if op == "&":
                return conj(parts)
            if op == "|":
                return disj(parts)
            return implies(*parts)
        if tok in ("exists", "forall"):
            self.lex.take()
            var = _decode_var(self.lex.take(), self.lex.offset())
            self.lex.take(".")
            body = self.formula()
            try:
                return exists(var, body) if tok == "exists" else forall(var, body)
            except SignatureError as e:
                raise ParseError(str(e), at) from None
        if tok == "eq":
            self.lex.take()
            self.lex.take("(")
            a = _decode_var(self.lex.take(), self.lex.offset())
            self.lex.take(",")
            b = _decode_var(self.lex.take(), self.lex.offset())
            if self.lex.peek() != ")":
                raise ParseError("unbalanced parenthesis", self.lex.offset())
            self.lex.take(")")
            return Eq(a, b)
        if _VAR.match(tok):
            raise ParseError(f"unexpected variable {tok!r}", at)
        return self.atom(tok, at)

    def atom(self, rel: str, at: int) -> Formula:
        arity = self.sig.arity(rel)
        if arity is None:
            raise ParseError(f"unknown relation {rel!r}", at)
        self.lex.take()
        self.lex.take("(")
        args = []
        while True:
            args.append(_decode_var(self.lex.take(), self.lex.offset()))
            if self.lex.peek() == ",":
                self.lex.take(",")
                continue
            break
        if self.lex.peek() != ")":
            raise ParseError("unbalanced parenthesis", self.lex.offset())
        self.lex.take(")")
        if len(args) != arity:
            raise ParseError(f"relation {rel!r} expects {arity} arguments, got {len(args)}", at)
        return Atom(rel, tuple(args))


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse `text` over `sig`.  Children of & and | come out in canonical
    structural order (see module docstring); render then reproduces the
    canonical spelling."""
    return _Parser(text, sig).parse()
