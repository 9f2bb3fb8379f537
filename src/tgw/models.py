"""Concrete recursive countable models, formula evaluation in them, and the
greedy construction of witness-enumeration tuples.

Quantifiers are decided over a finite, per-step candidate set that provably
realises every 1-type over the current parameters:

  pureset     -- the parameters and one fresh element;
  dlo         -- the parameters, midpoints of adjacent ones, and one point
                 below and above everything (the order-type argument);
  equivinf    -- the parameters, a fresh member of each parameter's class,
                 and a member of a fresh class;
  randomgraph -- the parameters, the first committed vertex outside them
                 with each adjacency pattern over them, and, for each
                 pattern no committed vertex has, a vertex committed on
                 demand with exactly that pattern.

Truth of any formula on a tuple depends only on the tuple's complete
quantifier-free diagram (the theories eliminate quantifiers), so deciding
the body on one realisation per diagram decides the quantifier.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable

from .errors import (InternalConsistencyError, PreconditionError,
                     ResourceCapError)
from .formula import (And, Atom, Bot, Eq, Exists, Forall, Formula, Implies,
                      Not, Or, Top, VarRef, exists, free_vars, render_formula)
from .pairing import cantor_pair, cantor_unpair
from .record import Record
from .theories import CompleteType, Theory, get_theory, pair_codes

WITNESS_SCAN_CAP = 50_000


class ModelHandle:
    """A lazily extendable countable model; subclasses fix the carrier
    enumeration, the atomic evaluator (none for pureset, which has no
    relation), and the witness-candidate rule.
    `verdicts` holds the quantifier verdicts `evaluate` memoises, and
    `candidates` the witness candidates it has asked for, keyed by the
    sorted parameter tuple.

    The candidate memo is exact: a repeated `witness_candidates` call on the
    same parameters would return the same list and commit nothing.  The
    pureset, dlo and equivinf candidates are pure functions of the
    parameters.  A randomgraph call leaves every adjacency pattern over its
    parameters realised by a committed vertex, and each vertex committed
    later has a larger index, so the least vertex with each pattern never
    changes and no pattern is demanded again."""

    theory: Theory

    def __init__(self):
        self.verdicts: dict = {}
        self.candidates: dict[tuple, list] = {}

    def element(self, i: int):
        raise NotImplementedError

    def atomic(self, rel: str, a, b) -> bool:
        """Whether `rel` holds of (a, b); `rel` is taken to be one of the
        theory's relations (`compile_formula` checks each atom as it
        compiles)."""
        raise NotImplementedError

    def witness_candidates(self, params: list) -> list:
        raise NotImplementedError

    def carrier_size_hint(self) -> int | None:
        """Bound for witness scans when the reachable carrier is finite at
        any moment (the demand-driven graph); None means unbounded."""
        return None

    def dump(self, size: int) -> dict:
        carrier = [self.element(i) for i in range(size)]
        atoms = {}
        for rel in self.theory.relations:
            atoms[rel] = [[i, j] for i in range(size) for j in range(size)
                          if self.atomic(rel, carrier[i], carrier[j])]
        return {"theory": self.theory.id,
                "carrier": [self.render_element(e) for e in carrier],
                "atoms": atoms}

    def render_element(self, e) -> str:
        return str(e)


class PureSetModel(ModelHandle):
    theory = get_theory("pureset")

    def element(self, i):
        return i

    def witness_candidates(self, params):
        fresh = max((p for p in params), default=-1) + 1
        return sorted(set(params)) + [fresh]


class DloModel(ModelHandle):
    """The rationals; the carrier enumerates 0 and then +/- the Calkin-Wilf
    sequence, hitting every rational exactly once."""

    theory = get_theory("dlo")

    def __init__(self):
        from fractions import Fraction   # imported here: only this model needs it
        super().__init__()
        self._seq = [Fraction(0)]
        self._cw = Fraction(1)

    def element(self, i):
        while len(self._seq) <= i:
            self._seq.append(self._cw)
            self._seq.append(-self._cw)
            q = self._cw
            self._cw = 1 / (2 * (q.numerator // q.denominator) - q + 1)
        return self._seq[i]

    def atomic(self, rel, a, b):
        """a < b by cross-multiplying, which is exact because a Fraction's
        denominator is positive, and skips `Fraction.__lt__`'s dispatch."""
        return a.numerator * b.denominator < b.numerator * a.denominator

    def witness_candidates(self, params):
        vals = sorted(set(params))
        if not vals:
            return [self.element(0)]
        out = list(vals)
        out += [a + (b - a) / 2 for a, b in zip(vals, vals[1:])]
        out += [vals[0] - 1, vals[-1] + 1]
        return sorted(out)

    def dump(self, size):
        """The base dump, with `lt` read off each element's rank in the
        sorted carrier: the carrier lists distinct rationals, so a < b exactly
        when a's rank is lower."""
        carrier = [self.element(i) for i in range(size)]
        rank = [0] * size
        for r, i in enumerate(sorted(range(size), key=carrier.__getitem__)):
            rank[i] = r
        return {"theory": self.theory.id,
                "carrier": [self.render_element(e) for e in carrier],
                "atoms": {"lt": [[i, j] for i, r in enumerate(rank)
                                 for j, s in enumerate(rank) if r < s]}}

    def render_element(self, e):
        return f"{e.numerator}/{e.denominator}"


class EquivInfModel(ModelHandle):
    """Naturals carrying class tags through the Cantor pairing, so every
    class is infinite and there are infinitely many of them."""

    theory = get_theory("equivinf")

    def __init__(self):
        super().__init__()
        self._class: dict[int, int] = {}   # element -> its class, decoded once

    def element(self, i):
        return i

    def class_of(self, e):
        c = self._class.get(e)
        if c is None:
            c = self._class[e] = cantor_unpair(e)[0]
        return c

    def atomic(self, rel, a, b):
        return self.class_of(a) == self.class_of(b)

    def witness_candidates(self, params):
        out = sorted(set(params))
        decoded = [cantor_unpair(p) for p in out]
        for c in sorted({c for c, _ in decoded}):
            j = max(j for c2, j in decoded if c2 == c) + 1
            out.append(cantor_pair(c, j))
        fresh_class = max((c for c, _ in decoded), default=-1) + 1
        out.append(cantor_pair(fresh_class, 0))
        return out


class RandomGraphModel(ModelHandle):
    """Deterministic presentation of the random graph.  Plain growth uses
    the bit rule (u < v adjacent iff bit u of v is set), whose limit is the
    Rado graph, so the committed base realises adjacency patterns early;
    a posted extension demand still commits a dedicated fresh vertex with
    edges to exactly the demanded set.  Committed bits never change."""

    theory = get_theory("randomgraph")

    def __init__(self):
        super().__init__()
        self.size = 0
        self._demand_pos: dict[int, frozenset] = {}

    def element(self, i):
        self.size = max(self.size, i + 1)
        return i

    def atomic(self, rel, a, b):
        if a == b:
            return False
        u, w = (a, b) if a < b else (b, a)
        if w >= self.size:
            raise InternalConsistencyError("adjacency queried beyond committed part")
        pos = self._demand_pos.get(w)
        if pos is not None:
            return u in pos
        return bool(w >> u & 1)

    def commit_demand(self, pos: frozenset) -> int:
        v = self.size
        self.size += 1
        self._demand_pos[v] = pos
        return v

    def witness_candidates(self, params):
        ps = sorted(set(params))
        first: dict[int, int] = {}   # adjacency mask over ps -> its least vertex
        for w in range(self.size):
            if w not in ps:
                mask = sum(1 << i for i, a in enumerate(ps) if self.atomic("adj", w, a))
                first.setdefault(mask, w)
        return ps + list(first.values()) + [
            self.commit_demand(frozenset(a for i, a in enumerate(ps) if mask >> i & 1))
            for mask in range(1 << len(ps)) if mask not in first]

    def carrier_size_hint(self):
        return self.size


_MODELS = {"pureset": PureSetModel, "dlo": DloModel,
           "equivinf": EquivInfModel, "randomgraph": RandomGraphModel}


def make_model(theory) -> ModelHandle:
    return _MODELS[get_theory(theory).id]()


# -- evaluation ---------------------------------------------------------------

_COMPILED: dict[tuple[Formula, Theory], Callable] = {}
_UNASSIGNED = object()


def evaluate(f: Formula, M: ModelHandle, assignment: dict) -> bool:
    """Truth of `f` in `M` under `assignment`, a map from VarRef to element.

    `f` is compiled once per theory (`compile_formula`) into closures that
    are then called as `test(M, assignment)`; a relation that `M`'s theory
    does not list is refused (`SignatureError`) as its atom compiles.

    Every quantifier node reads its candidates through `M.candidates`, so
    each parameter set is asked of `witness_candidates` once per model.
    That is exact, as `ModelHandle` says: pureset, dlo and equivinf
    candidates are pure functions of the parameters, and a randomgraph
    call leaves nothing to commit on a repeat and the same least vertex
    for each pattern.

    A quantifier node whose body binds no variable (its stored
    `bound_vars` is empty) also memoises its verdict in `M.verdicts`,
    keyed by the node and the values of the body's free variables.  That
    is exact: such a body is quantifier-free, so it makes no call that
    changes the model, the candidates for fixed parameters realise every
    1-type over them, and they are fixed by the candidate memo.  A body
    that binds variables is not memoised, because its inner quantifiers'
    candidate calls take the outer candidates as parameters and may commit
    elements, which a skipped evaluation would not commit."""
    return compile_formula(f, M.theory)(M, assignment)


def compile_formula(f: Formula, theory: Theory) -> Callable[[ModelHandle, dict], bool]:
    """The closure `test(M, assignment)` that evaluates `f` in models of
    `theory`, compiled on first use and then kept per formula node and
    theory (structurally equal formulas are one node).  Each atom is
    checked against the theory's relations as it compiles (`SignatureError`
    for one it does not list), so a kept closure calls `ModelHandle.atomic`
    unchecked."""
    test = _COMPILED.get((f, theory))
    if test is None:
        test = _COMPILED[f, theory] = _compile(f, theory)
    return test


def _compile(f: Formula, theory: Theory):
    t = type(f)
    if t is Top:
        return lambda M, asg: True
    if t is Bot:
        return lambda M, asg: False
    if t is Eq:
        lhs, rhs = f.lhs, f.rhs

        def eq(M, asg):
            try:
                return asg[lhs] == asg[rhs]
            except KeyError:
                raise _unassigned(asg, lhs, rhs) from None
        return eq
    if t is Atom:
        theory.check_relation(f)
        rel, a, b = f.rel, f.args[0], f.args[1]

        def atom(M, asg):
            try:
                ea, eb = asg[a], asg[b]
            except KeyError:
                raise _unassigned(asg, a, b) from None
            return M.atomic(rel, ea, eb)
        return atom
    if t is Not:
        sub = compile_formula(f.sub, theory)
        return lambda M, asg: not sub(M, asg)
    if t is And:
        children = tuple(compile_formula(c, theory) for c in f.children)

        def all_of(M, asg):
            for c in children:
                if not c(M, asg):
                    return False
            return True
        return all_of
    if t is Or:
        children = tuple(compile_formula(c, theory) for c in f.children)

        def any_of(M, asg):
            for c in children:
                if c(M, asg):
                    return True
            return False
        return any_of
    if t is Implies:
        lhs, rhs = compile_formula(f.lhs, theory), compile_formula(f.rhs, theory)
        return lambda M, asg: (not lhs(M, asg)) or rhs(M, asg)
    if t is Exists or t is Forall:
        return _compile_quantifier(f, theory)
    raise PreconditionError(f"cannot evaluate {render_formula(f)}")


def _compile_quantifier(f, theory):
    body = compile_formula(f.body, theory)
    var = f.var
    live = tuple(sorted(free_vars(f.body)))
    decisive = type(f) is Exists   # the body value that settles the verdict
    memo = not f.body.bound_vars

    def quantifier(M, asg):
        values = tuple(asg.get(v, _UNASSIGNED) for v in live)
        if memo:
            key = (quantifier, values)
            verdict = M.verdicts.get(key)
            if verdict is not None:
                return verdict
        params = tuple(sorted({e for e in values if e is not _UNASSIGNED}))
        candidates = M.candidates.get(params)
        if candidates is None:
            candidates = M.candidates[params] = M.witness_candidates(list(params))
        inner = dict(asg)
        verdict = not decisive
        for c in candidates:
            inner[var] = c
            if bool(body(M, inner)) is decisive:
                verdict = decisive
                break
        if memo:
            M.verdicts[key] = verdict
        return verdict
    return quantifier


def _unassigned(asg: dict, *vs: VarRef) -> PreconditionError:
    v = next(v for v in vs if v not in asg)
    return PreconditionError(f"assignment does not cover {v.render()}")


def tuple_type(M: ModelHandle, elements: list) -> CompleteType:
    """The complete one-tape diagram of `elements`, read off the model;
    position p is elements[p].  An element equal to an earlier one takes its
    class.  A new one's codes to the earlier classes (`PairCodes.codes_to`)
    go to the triple-table step (`PairCodes._one_point`) as one-code masks,
    which checks each class triple once, when its last class is added."""
    pc = pair_codes(M.theory)
    first: dict = {}  # element -> its class, numbered in order of appearance
    between: tuple[int, ...] = ()
    for e in elements:
        if e not in first:
            codes = pc.codes_to(M.atomic, list(first), e)
            if codes is None or not pc._one_point(between, len(first),
                                                  tuple(1 << code for code in codes)):
                raise InternalConsistencyError("model produced an inadmissible diagram")
            between += codes
            first[e] = len(first)
    return CompleteType(M.theory.id, 1, len(elements), tuple(map(first.__getitem__, elements)),
                        between)


# -- witness-enumeration tuples ----------------------------------------------

class DTuple(Record):
    __slots__ = ("elements", "checks")

    @property
    def ok(self) -> bool:
        return all(self.checks)


Y0 = VarRef(1, 0)


def build_dtuple(M: ModelHandle, seq, n: int, cover, prefer=(),
                 pins: dict | None = None, base=()) -> DTuple:
    """Greedy tuple construction: each position takes `next_entry`, except
    that `pins` forces stated positions and `base` fixes a prefix."""
    pins = pins or {}
    elements: list = []
    asg: dict = {}   # x_i -> elements[i] for the positions placed so far
    for p in range(n):
        phi = seq.rich_formula(p)
        if p < len(base):
            choice = base[p]
        elif p in pins:
            choice = pins[p]
        else:
            choice = next_entry(M, phi, asg, elements, cover, prefer)
        elements.append(choice)
        asg[VarRef(0, p)] = choice
    checks = certify_dtuple(M, seq, tuple(elements))
    return DTuple(tuple(elements), checks)


def next_entry(M: ModelHandle, phi: Formula, asg: dict, elements: list,
               cover, prefer=()):
    """The entry placed after `elements`, which `asg` assigns to x_0, x_1,
    ...: a witness y0 of `phi` when one exists (preferred elements first,
    then the carrier in index order), and otherwise the next element
    advancing `cover`.  A scan that stops at `WITNESS_SCAN_CAP` without a
    witness is refused with a cap error."""
    holds = compile_formula(phi, M.theory)
    has = compile_formula(exists(Y0, phi), M.theory) if Y0 in free_vars(phi) else holds
    if has(M, asg):
        for choice in _witness_scan(M, prefer):
            asg[Y0] = choice
            if holds(M, asg):
                del asg[Y0]
                return choice
        if M.carrier_size_hint() is None:   # the scan stopped at the cap
            raise ResourceCapError(
                f"no witness found for slot {len(elements)} within the scan cap "
                f"{WITNESS_SCAN_CAP}", cap="witness-scan", limit=WITNESS_SCAN_CAP,
                observed=len(prefer) + WITNESS_SCAN_CAP)
        raise InternalConsistencyError(
            f"no witness found for slot {len(elements)} within the scan bound")
    return next(e for e in itertools.chain(cover, map(M.element, itertools.count()))
                if e not in elements)


def _witness_scan(M: ModelHandle, prefer):
    """The witness candidates in order: `prefer`, then the carrier in index
    order up to the scan bound, which is read once `prefer` is spent."""
    yield from prefer
    yield from map(M.element, range(M.carrier_size_hint() or WITNESS_SCAN_CAP))


def certify_dtuple(M: ModelHandle, seq, elements: tuple) -> tuple[bool, ...]:
    """Re-evaluate each defining clause: whenever the k-th formula has a
    witness over the prefix, position k holds one."""
    checks = []
    asg: dict = {}
    for k, e in enumerate(elements):
        asg[VarRef(0, k)] = e
        checks.append(compile_formula(seq.defining_clause(k), M.theory)(M, asg))
    return tuple(checks)
