"""Concrete recursive countable models, formula evaluation in them, and the
greedy construction of witness-enumeration tuples.

Quantifiers are decided over a finite, per-step candidate set that provably
realises every 1-type over the current parameters:

  pureset     -- the parameters and one fresh element;
  dlo         -- the parameters, midpoints of adjacent ones, and one point
                 below and above everything (the order-type argument);
  equivinf    -- the parameters, a fresh member of each parameter's class,
                 and a member of a fresh class;
  randomgraph -- the parameters, every committed vertex, and, for each
                 adjacency pattern over the parameters not yet realised, a
                 vertex committed on demand with exactly that pattern.

Truth of any formula on a tuple depends only on the tuple's complete
quantifier-free diagram (the theories eliminate quantifiers), so deciding
the body on one realisation per diagram decides the quantifier.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (EvaluationCapError, InternalConsistencyError,
                     PreconditionError)
from .formula import (And, Atom, Bot, Eq, Exists, Forall, Formula, Implies,
                      Not, Or, Top, VarRef, exists, free_vars, render_formula)
from .pairing import cantor_pair, cantor_unpair
from .theories import CompleteType, Theory, get_theory, pair_codes

DEFAULT_QUANTIFIER_CAP = 8
WITNESS_SCAN_CAP = 50_000


class ModelHandle:
    """A lazily extendable countable model; subclasses fix the carrier
    enumeration, the atomic evaluator, and the witness-candidate rule."""

    theory: Theory
    max_quantifier_depth: int

    def __init__(self, max_quantifier_depth: int = DEFAULT_QUANTIFIER_CAP):
        self.max_quantifier_depth = max_quantifier_depth

    def element(self, i: int):
        raise NotImplementedError

    def atomic(self, rel: str, a, b) -> bool:
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
        for rel, _ in self.theory.signature.relations:
            atoms[rel] = [[i, j] for i in range(size) for j in range(size)
                          if self.atomic(rel, carrier[i], carrier[j])]
        return {"theory": self.theory.id,
                "carrier": [self.render_element(e) for e in carrier],
                "atoms": atoms}

    def render_element(self, e) -> str:
        return str(e)


class PureSetModel(ModelHandle):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.theory = get_theory("pureset")

    def element(self, i):
        return i

    def atomic(self, rel, a, b):
        raise PreconditionError("pureset has no relations")

    def witness_candidates(self, params):
        fresh = max((p for p in params), default=-1) + 1
        return sorted(set(params)) + [fresh]


class DloModel(ModelHandle):
    """The rationals; the carrier enumerates 0 and then +/- the Calkin-Wilf
    sequence, hitting every rational exactly once."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.theory = get_theory("dlo")
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
        return a < b

    def witness_candidates(self, params):
        vals = sorted(set(params))
        if not vals:
            return [Fraction(0)]
        out = list(vals)
        out += [a + (b - a) / 2 for a, b in zip(vals, vals[1:])]
        out += [vals[0] - 1, vals[-1] + 1]
        return sorted(out)

    def render_element(self, e):
        return f"{e.numerator}/{e.denominator}"


class EquivInfModel(ModelHandle):
    """Naturals carrying class tags through the Cantor pairing, so every
    class is infinite and there are infinitely many of them."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.theory = get_theory("equivinf")

    def element(self, i):
        return i

    def class_of(self, e):
        return cantor_unpair(e)[0]

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

    def __init__(self, **kw):
        super().__init__(**kw)
        self.theory = get_theory("randomgraph")
        self.size = 0
        self._demand_pos: dict[int, frozenset] = {}

    def ensure_size(self, n):
        self.size = max(self.size, n)

    def element(self, i):
        self.ensure_size(i + 1)
        return i

    def atomic(self, rel, a, b):
        if a == b:
            return False
        if max(a, b) >= self.size:
            raise InternalConsistencyError("adjacency queried beyond committed part")
        u, w = min(a, b), max(a, b)
        if w in self._demand_pos:
            return u in self._demand_pos[w]
        return bool(w >> u & 1)

    def commit_demand(self, pos: frozenset) -> int:
        v = self.size
        self.size += 1
        self._demand_pos[v] = pos
        return v

    def has_pattern(self, w, pos, negs) -> bool:
        return (w not in pos and w not in negs
                and all(self.atomic("adj", w, a) for a in pos)
                and all(not self.atomic("adj", w, b) for b in negs))

    def witness_candidates(self, params):
        ps = sorted(set(params))
        committed = list(range(self.size))
        out = list(ps) + [w for w in committed if w not in ps]
        for mask in range(1 << len(ps)):
            pos = frozenset(ps[i] for i in range(len(ps)) if mask >> i & 1)
            negs = frozenset(ps) - pos
            if not any(self.has_pattern(w, pos, negs) for w in committed):
                out.append(self.commit_demand(pos))
        return out

    def carrier_size_hint(self):
        return self.size


_MODELS = {"pureset": PureSetModel, "dlo": DloModel,
           "equivinf": EquivInfModel, "randomgraph": RandomGraphModel}


def make_model(theory, **kw) -> ModelHandle:
    return _MODELS[get_theory(theory).id](**kw)


# -- evaluation ---------------------------------------------------------------

def evaluate(f: Formula, M: ModelHandle, assignment: dict, _depth: int = 0) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Eq):
        return _val(assignment, f.lhs) == _val(assignment, f.rhs)
    if isinstance(f, Atom):
        return M.atomic(f.rel, _val(assignment, f.args[0]), _val(assignment, f.args[1]))
    if isinstance(f, Not):
        return not evaluate(f.sub, M, assignment, _depth)
    if isinstance(f, And):
        return all(evaluate(c, M, assignment, _depth) for c in f.children)
    if isinstance(f, Or):
        return any(evaluate(c, M, assignment, _depth) for c in f.children)
    if isinstance(f, Implies):
        return (not evaluate(f.lhs, M, assignment, _depth)) or \
            evaluate(f.rhs, M, assignment, _depth)
    if isinstance(f, (Exists, Forall)):
        if _depth >= M.max_quantifier_depth:
            raise EvaluationCapError(
                f"quantifier depth exceeds the cap {M.max_quantifier_depth}",
                cap="quantifier-depth", limit=M.max_quantifier_depth,
                observed=_depth + 1)
        body_vars = free_vars(f.body)
        live = {v: e for v, e in assignment.items() if v in body_vars}
        params = sorted(set(live.values()))
        cands = M.witness_candidates(params)
        results = (evaluate(f.body, M, {**assignment, f.var: c}, _depth + 1)
                   for c in cands)
        return any(results) if isinstance(f, Exists) else all(results)
    raise PreconditionError(f"cannot evaluate {render_formula(f)}")


def _val(assignment, v: VarRef):
    try:
        return assignment[v]
    except KeyError:
        raise PreconditionError(
            f"assignment does not cover {v.render()}") from None


def tuple_type(M: ModelHandle, tuples: list) -> CompleteType:
    """The complete diagram of the given same-length tuples, read off the
    model; tape t position p is tuples[t][p]."""
    k = len(tuples)
    if k < 1 or len({len(t) for t in tuples}) != 1:
        raise PreconditionError("tuple_type needs tuples of one common length")
    n = len(tuples[0])
    flat = [e for t in tuples for e in t]
    classes = []
    reps: list = []
    for e in flat:
        for c, r in enumerate(reps):
            if r == e:
                classes.append(c)
                break
        else:
            classes.append(len(reps))
            reps.append(e)
    theory = M.theory
    rels = []
    for rel, _ in theory.signature.relations:
        pairs = frozenset((i, j) for i in range(len(reps)) for j in range(len(reps))
                          if M.atomic(rel, reps[i], reps[j]))
        rels.append((rel, pairs))
    t = CompleteType(theory.id, k, n, tuple(classes), tuple(sorted(rels)))
    if not pair_codes(theory).admits(t):
        raise InternalConsistencyError("model produced an inadmissible diagram")
    return t


# -- witness-enumeration tuples ----------------------------------------------

@dataclass(frozen=True)
class DTuple:
    theory_id: str
    level: int
    elements: tuple
    checks: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.checks)


Y0 = VarRef(1, 0)


def _is_witness(M, phi, prefix_asg, e):
    return evaluate(phi, M, {**prefix_asg, Y0: e})


def build_dtuple(M: ModelHandle, seq, n: int, cover=(), prefer=(),
                 pins: dict | None = None, base=()) -> DTuple:
    """Greedy tuple construction: position k takes a witness of the k-th
    enumeration formula when one exists (preferred elements first, then the
    carrier in index order), and otherwise the next element advancing
    `cover`.  `pins` forces stated positions; `base` fixes a prefix."""
    pins = pins or {}
    elements: list = []
    for p in range(n):
        phi = seq.rich_formula(p)
        asg = {VarRef(0, i): elements[i] for i in range(p)}
        if p < len(base):
            elements.append(base[p])
            continue
        if p in pins:
            elements.append(pins[p])
            continue
        has = evaluate(exists(Y0, phi), M, asg) if Y0 in free_vars(phi) \
            else evaluate(phi, M, asg)
        choice = None
        if has:
            for e in prefer:
                if _is_witness(M, phi, asg, e):
                    choice = e
                    break
            if choice is None:
                bound = M.carrier_size_hint() or WITNESS_SCAN_CAP
                for i in range(bound):
                    e = M.element(i)
                    if _is_witness(M, phi, asg, e):
                        choice = e
                        break
                if choice is None:
                    raise InternalConsistencyError(
                        f"no witness found for slot {p} within the scan bound")
        else:
            for e in cover:
                if e not in elements:
                    choice = e
                    break
            if choice is None:
                i = 0
                while M.element(i) in elements:
                    i += 1
                choice = M.element(i)
        elements.append(choice)
    checks = certify_dtuple(M, seq, tuple(elements))
    return DTuple(M.theory.id, n, tuple(elements), checks)


def certify_dtuple(M: ModelHandle, seq, elements: tuple) -> tuple[bool, ...]:
    """Re-evaluate each defining clause: whenever the k-th formula has a
    witness over the prefix, position k holds one."""
    checks = []
    for k in range(len(elements)):
        asg = {VarRef(0, i): elements[i] for i in range(k + 1)}
        checks.append(evaluate(seq.defining_clause(k), M, asg))
    return tuple(checks)
