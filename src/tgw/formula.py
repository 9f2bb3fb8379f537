"""Syntax for single-sorted relational first-order formulas.

Every relation is binary.  A language is the tuple of its relation names;
equality is always available and is not listed.  An atom is `eq(a,b)` or
`rel(a,b)` for a listed `rel`, and both are parsed by one rule.

Variables are tape-indexed: tape 0 prints as x, 1 as y, 2 as z, 3 as w, and
tape t >= 4 as v<t>.  A variable token is <tapeletter><position>, e.g. x0,
y12, v45 (tape 4, position 5).  Every renaming of free variables, moving
them between tapes included, is one capture-avoiding substitution, which
renames a binder only when an image would fall under it.

Formulas and variables are hash-consed: a constructor returns the one node
already built from the same class and fields, so structurally equal formulas
are the same object, compared and hashed by identity, and can back caches.
Each node stores its structural sort key, its free variables and the
variables its quantifiers bind, computed once from its children's, so no
question about a node's variables walks its tree.  Connectives & and | are
stored as flattened n-ary nodes with children in sort-key order.  Rendering
nests n-ary nodes back into the binary grammar, right-associated.
"""
from __future__ import annotations

from functools import total_ordering
from operator import attrgetter

from .errors import ParseError, SignatureError

TAPE_LETTERS = "xyzw"

# (class, *fields) -> the node.  Fields are str, int or tuples of nodes, so a
# lookup hashes nothing deeper than one level.  The table lives as long as
# the process.
_NODES: dict[tuple, _Node] = {}
_set = object.__setattr__


class _Node:
    """A hash-consed value.  `_fields` are the constructor's arguments;
    `_derive` returns the values of `_derived`, read off fields that are
    themselves nodes, so nothing recurses.  Equality and hashing are
    object identity; assignment raises."""

    __slots__ = ("sort_key",)
    _fields: tuple[str, ...] = ()
    _derived: tuple[str, ...] = ("sort_key",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            if len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes fields {cls._fields}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                _set(node, name, value)
            for name, value in zip(cls._derived, node._derive()):
                _set(node, name, value)
            _NODES[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


@total_ordering
class VarRef(_Node):
    """Ordered by (tape, position)."""

    __slots__ = _fields = ("tape", "position")

    def _derive(self):
        return ((self.tape, self.position),)

    def __lt__(self, other):
        return self.sort_key < other.sort_key if type(other) is VarRef else NotImplemented

    def render(self) -> str:
        if 0 <= self.tape < 4:
            return f"{TAPE_LETTERS[self.tape]}{self.position}"
        if 4 <= self.tape <= 9:
            return f"v{self.tape}{self.position}"
        raise ValueError(f"tape {self.tape} has no printable letter")


# the bound variables of every node that binds none
_UNBOUND: frozenset[VarRef] = frozenset()


class Formula(_Node):
    """`sort_key` is a total structural order, used for canonical child
    ordering; `free_vars` is the frozenset of free variables and
    `bound_vars` that of the variables some quantifier inside binds."""

    __slots__ = ("free_vars", "bound_vars")
    _derived = ("sort_key", "free_vars", "bound_vars")


class Top(Formula):
    __slots__ = ()

    def _derive(self):
        return (0,), _UNBOUND, _UNBOUND


class Bot(Formula):
    __slots__ = ()

    def _derive(self):
        return (1,), _UNBOUND, _UNBOUND


class Atom(Formula):
    __slots__ = _fields = ("rel", "args")

    def _derive(self):
        return ((2, self.rel, tuple(v.sort_key for v in self.args)),
                frozenset(self.args), _UNBOUND)


class Eq(Formula):
    __slots__ = _fields = ("lhs", "rhs")

    def _derive(self):
        return ((3, "", (self.lhs.sort_key, self.rhs.sort_key)),
                frozenset((self.lhs, self.rhs)), _UNBOUND)


class Not(Formula):
    __slots__ = _fields = ("sub",)

    def _derive(self):
        return (4, self.sub.sort_key), self.sub.free_vars, self.sub.bound_vars


class _Junction(Formula):
    __slots__ = _fields = ("children",)

    def _derive(self):
        cs = self.children
        return ((self._rank, tuple(c.sort_key for c in cs)),
                frozenset().union(*(c.free_vars for c in cs)),
                frozenset().union(*(c.bound_vars for c in cs)) or _UNBOUND)


class And(_Junction):
    __slots__ = ()
    _rank = 5


class Or(_Junction):
    __slots__ = ()
    _rank = 6


class Implies(Formula):
    __slots__ = _fields = ("lhs", "rhs")

    def _derive(self):
        return ((7, (self.lhs.sort_key, self.rhs.sort_key)),
                self.lhs.free_vars | self.rhs.free_vars,
                self.lhs.bound_vars | self.rhs.bound_vars or _UNBOUND)


class _Quantifier(Formula):
    __slots__ = _fields = ("var", "body")

    def _derive(self):
        return ((self._rank, (self.var.sort_key,), self.body.sort_key),
                self.body.free_vars - {self.var}, self.body.bound_vars | {self.var})


class Exists(_Quantifier):
    __slots__ = ()
    _rank = 8


class Forall(_Quantifier):
    __slots__ = ()
    _rank = 9


TRUE = Top()
FALSE = Bot()

sort_key = attrgetter("sort_key")
free_vars = attrgetter("free_vars")


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
    flat = set()
    for f in items:
        if type(f) is node_type:
            flat.update(f.children)
        elif f is absorber:
            return absorber
        elif f is not neutral:
            flat.add(f)
    # a negation never built cannot be among the children
    if any((f.sub if type(f) is Not else _NODES.get((Not, f))) in flat for f in flat):
        return absorber
    if len(flat) < 2:
        return flat.pop() if flat else neutral
    return node_type(tuple(sorted(flat, key=sort_key)))


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
    if var in body.bound_vars:
        raise SignatureError(f"quantifier rebinds {var.render()} in scope")


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

def substitute_vars(f: Formula, mapping: dict[VarRef, VarRef]) -> Formula:
    """Rename free occurrences per `mapping`; bound variables are left alone
    and alpha-renamed when they collide with a substitution image.  A
    renaming keeps distinct free variables distinct: two of them mapped to
    one image, or one mapped onto a free variable left unmapped, is refused
    (`identify_vars` is the substitution that may merge them)."""
    fv = free_vars(f)
    live = {k: v for k, v in mapping.items() if k in fv}
    images = set(live.values())
    if len(images) != len(live) or not images.isdisjoint(fv - live.keys()):
        raise SignatureError("substitution map is not injective on free variables")
    return identify_vars(f, live)


def identify_vars(f: Formula, mapping: dict[VarRef, VarRef]) -> Formula:
    """Replace free variables per `mapping`, where two variables may map to
    one or a variable onto another free one.  A binder that an image would
    fall under is renamed, so identifying variables is sound under
    quantifiers too."""
    if not mapping:
        return f
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(mapping.get(v, v) for v in f.args))
    if isinstance(f, Eq):
        return Eq(mapping.get(f.lhs, f.lhs), mapping.get(f.rhs, f.rhs))
    if isinstance(f, Not):
        return Not(identify_vars(f.sub, mapping))
    if isinstance(f, And):
        return conj(identify_vars(c, mapping) for c in f.children)
    if isinstance(f, Or):
        return disj(identify_vars(c, mapping) for c in f.children)
    if isinstance(f, Implies):
        return Implies(identify_vars(f.lhs, mapping), identify_vars(f.rhs, mapping))
    # quantified: the bound variable itself is never substituted
    body_vars = free_vars(f.body)
    inner = {k: v for k, v in mapping.items() if k != f.var and k in body_vars}
    var, body = f.var, f.body
    if var in inner.values():
        used = {v.position for v in body.free_vars | body.bound_vars if v.tape == var.tape}
        used |= {v.position for v in inner.values() if v.tape == var.tape}
        fresh = VarRef(var.tape, max(used) + 1)
        body = identify_vars(body, {var: fresh})
        var = fresh
    body = identify_vars(body, inner)
    return type(f)(var, body)


def rename_tapes(f: Formula, perm: dict[int, int]) -> Formula:
    """Move each free variable of `f` on a tape in `perm` to tape
    `perm[tape]` at the same position, by `substitute_vars`: a bound
    variable keeps its name unless an image would fall under it, and a map
    that merges two free variables is refused (`SignatureError`)."""
    return substitute_vars(f, {v: VarRef(perm[v.tape], v.position)
                               for v in free_vars(f) if v.tape in perm})


# -- rendering ---------------------------------------------------------------

def render_formula(f: Formula) -> str:
    """The formula's text.  A formula is a DAG of hash-consed nodes, so each
    distinct node is rendered once per call."""
    texts: dict[Formula, str] = {}

    def render(g: Formula) -> str:
        text = texts.get(g)
        if text is not None:
            return text
        if isinstance(g, Top):
            text = "true"
        elif isinstance(g, Bot):
            text = "false"
        elif isinstance(g, Atom):
            text = f"{g.rel}({','.join(v.render() for v in g.args)})"
        elif isinstance(g, Eq):
            text = f"eq({g.lhs.render()},{g.rhs.render()})"
        elif isinstance(g, Not):
            text = "!" + render(g.sub)
        elif isinstance(g, (And, Or)):
            op = " & " if isinstance(g, And) else " | "
            text = "(" + op.join(map(render, g.children)) + ")"
        elif isinstance(g, Implies):
            text = f"({render(g.lhs)} -> {render(g.rhs)})"
        else:
            kw = "exists" if isinstance(g, Exists) else "forall"
            text = f"{kw} {g.var.render()}. {render(g.body)}"
        texts[g] = text
        return text

    return render(f)


# -- parsing -----------------------------------------------------------------

_PUNCTUATION = frozenset("()!&|.,")


def _is_var(tok: str) -> bool:
    """Whether `tok` spells a variable: a letter a-z and then digits 0-9."""
    return tok.isascii() and tok[:1].islower() and tok[1:].isdigit()


class _Lexer:
    """The tokens of a formula, each with its 1-based offset: `->`, one of
    `()!&|.,`, or a word, a letter a-z followed by letters a-z and digits
    0-9.  Whitespace (`str.isspace`) separates tokens and is dropped."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos, end = 0, len(text)
        while True:
            while pos < end and text[pos].isspace():
                pos += 1
            if pos == end:
                break
            start, ch = pos, text[pos]
            if ch in _PUNCTUATION:
                pos += 1
            elif text.startswith("->", pos):
                pos += 2
            elif "a" <= ch <= "z":
                pos += 1
                while pos < end and ("a" <= text[pos] <= "z" or "0" <= text[pos] <= "9"):
                    pos += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", pos + 1)
            self.tokens.append((text[start:pos], start + 1))
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
    if not _is_var(tok):
        raise ParseError(f"expected a variable, found {tok!r}", at)
    letter, digits = tok[0], tok[1:]
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
    def __init__(self, text: str, relations: tuple[str, ...]):
        self.lex = _Lexer(text)
        self.relations = relations

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
        if _is_var(tok):
            raise ParseError(f"unexpected variable {tok!r}", at)
        return self.atom(tok, at)

    def atom(self, rel: str, at: int) -> Formula:
        if rel != "eq" and rel not in self.relations:
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
        if len(args) != 2:
            raise ParseError(f"relation {rel!r} expects 2 arguments, got {len(args)}", at)
        return Eq(*args) if rel == "eq" else Atom(rel, tuple(args))


def parse_formula(text: str, relations: tuple[str, ...]) -> Formula:
    """Parse `text`, whose atoms are `eq` and the binary `relations`.
    Children of & and | come out in canonical structural order (see module
    docstring); render then reproduces the canonical spelling."""
    return _Parser(text, relations).parse()
