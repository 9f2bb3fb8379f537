"""Decision procedures for the built-in complete theories.

Each theory is complete, decidable, and eliminates quantifiers:

  pureset     -- infinite pure set (equality only)
  dlo         -- dense linear order without endpoints (lt)
  randomgraph -- the random (Rado) graph (adj, irreflexive symmetric)
  equivinf    -- equivalence relation with infinitely many infinite classes

Quantifier elimination works inside out: negations are pushed to literals
(with per-theory literal normalisation), one existential is eliminated from
each DNF cube by the theory's textbook rule, and universals go through
negation.  A complete quantifier-free diagram over finitely many variables
is represented by a partition of the variables plus relation values on the
partition classes (`CompleteType`); admissibility of the diagram is exactly
consistency with the theory, so enumerating admissible diagrams enumerates
complete types.  A theory is given by two hooks, its literal normal form
and its elimination rule (see `Theory`); every other fact about finite
diagrams is decided by quantifier elimination, not written per theory.

Every signature is binary, so a diagram is also fixed by its 2-variable
sub-diagrams: its pair-code tuple holds, for each pair i < j, the index of
that pair's sub-diagram in `diagrams_over(theory, 2)` (`PairCodes`).  The
pair diagrams are the relation tables on one or two distinct elements that
QE proves to occur, and the triple table, which codes can close a triangle,
is QE of one existential per two codes.  Each theory's finite diagrams are
those of its universal part, which is axiomatised in at most three
variables (equality is a congruence, plus the order, adjacency or
equivalence laws), so a code tuple names a consistent diagram iff every
3-variable sub-diagram is one.  As each theory is the Fraisse limit of these
diagrams, `diagram_codes` generates them one variable at a time: a new
variable relates to each earlier equality class by a code allowed by the
triple table, and copies that code to the rest of the class.  Every pool
`diagrams_over(theory, m)` is built this way, and `PairCodes.admits` decides
admissibility of any diagram (such as one read off a model) by the same pair
codes and triple table.

Diagram formulas are read off the same codes.  Per grid, a literal table
(`PairCodes.literal_table`) holds for each pair position and pair code the
literals that pin that pair, each with its rank in the `sort_key` order of
all the grid's literals and with its rendered text; a diagram's formula is
the equality entries tying variables to their class representatives plus
the code entries of the representative pairs, sorted by rank, which is the
order `conj` would give them.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import and_, itemgetter

from .errors import (InternalConsistencyError, PreconditionError,
                     ResourceCapError, SignatureError)
from .formula import (FALSE, TRUE, And, Atom, Bot, Eq, Exists, Forall,
                      Formula, Implies, Not, Or, Signature, Top, VarRef, conj,
                      disj, exists, free_vars, neg, render_formula, sort_key,
                      substitute_vars)

DEFAULT_GRID_CAP = 12
DNF_CUBE_CAP = 200_000
ONE_POINT_CACHE_CAP = 1 << 18   # one-point extensions held by a PairCodes cache
CLASS_CODES_CACHE_CAP = 1 << 16  # class-level diagrams held by a PairCodes cache


def _sorted_pair(a: VarRef, b: VarRef) -> tuple[VarRef, VarRef]:
    return (a, b) if (a.tape, a.position) <= (b.tape, b.position) else (b, a)


class Theory:
    """Base for the built-in theories.  Besides the signature, a theory is
    two hooks: `normalize_literal` (the literal normal form) and
    `eliminate_one` (the single-existential rule).  The rest is derived by
    QE: the pair diagrams, the triple table and the pinning literals
    (`PairCodes`), and the literals that prune DNF cubes (`_clash`)."""

    id: str = ""
    signature: Signature = Signature("empty")

    # every model is infinite, so two distinct elements always exist
    def normalize_literal(self, negated: bool, atom: Formula) -> Formula:
        if isinstance(atom, Eq):
            if atom.lhs == atom.rhs:
                return FALSE if negated else TRUE
            a, b = _sorted_pair(atom.lhs, atom.rhs)
            lit = Eq(a, b)
            return Not(lit) if negated else lit
        raise SignatureError(f"{self.id} has no relation {atom.rel!r}")

    def eliminate_one(self, v: VarRef, lits: list[Formula]) -> Formula:
        """A quantifier-free formula equivalent to the existential over `v`
        of the conjunction of `lits`, normalised literals that all name v."""
        raise NotImplementedError

    # shared helpers ---------------------------------------------------------

    def _subst_out(self, v: VarRef, w: VarRef, lits: list[Formula]) -> Formula:
        out = []
        for lit in lits:
            negated = isinstance(lit, Not)
            atom = lit.sub if negated else lit
            out.append(self.normalize_literal(negated, substitute_vars(atom, {v: w})))
        return conj(out)

    def _find_eq(self, v: VarRef, lits: list[Formula]):
        """First positive equality naming v, with its partner variable."""
        for lit in lits:
            if isinstance(lit, Eq):
                return lit, (lit.rhs if lit.lhs == v else lit.lhs)
        return None, None

    def _demands(self, v: VarRef, lits: list[Formula], rel: str):
        """Positive and negative rel-partners of v; negated equalities place
        no constraint on a fresh witness and are dropped."""
        pos, negs = [], []
        for lit in lits:
            negated = isinstance(lit, Not)
            atom = lit.sub if negated else lit
            if isinstance(atom, Eq):
                continue
            if atom.rel != rel:
                raise SignatureError(f"unexpected relation {atom.rel!r}")
            w = atom.args[1] if atom.args[0] == v else atom.args[0]
            (negs if negated else pos).append(w)
        return pos, negs


class PureSet(Theory):
    id = "pureset"
    signature = Signature("pureset")

    def eliminate_one(self, v, lits):
        lit, w = self._find_eq(v, lits)
        if lit is not None:
            return self._subst_out(v, w, [l for l in lits if l is not lit])
        return TRUE  # only inequations remain; the model is infinite


class DenseLinearOrder(Theory):
    id = "dlo"
    signature = Signature("dlo", (("lt", 2),))

    def normalize_literal(self, negated, atom):
        if isinstance(atom, Eq):
            if atom.lhs == atom.rhs:
                return FALSE if negated else TRUE
            a, b = _sorted_pair(atom.lhs, atom.rhs)
            if negated:  # a != b  <=>  a < b or b < a
                return disj([Atom("lt", (a, b)), Atom("lt", (b, a))])
            return Eq(a, b)
        a, b = atom.args
        if a == b:
            return TRUE if negated else FALSE
        if negated:  # not a < b  <=>  b < a or a = b
            return disj([Atom("lt", (b, a)), Eq(*_sorted_pair(a, b))])
        return atom

    def eliminate_one(self, v, lits):
        lit, w = self._find_eq(v, lits)
        if lit is not None:
            return self._subst_out(v, w, [l for l in lits if l is not lit])
        lowers = [l.args[0] for l in lits if isinstance(l, Atom) and l.args[1] == v]
        uppers = [l.args[1] for l in lits if isinstance(l, Atom) and l.args[0] == v]
        # density and lack of endpoints: a witness exists iff every lower
        # bound sits below every upper bound
        return conj(self.normalize_literal(False, Atom("lt", (a, b)))
                    for a in lowers for b in uppers)


class RandomGraph(Theory):
    id = "randomgraph"
    signature = Signature("randomgraph", (("adj", 2),))

    def normalize_literal(self, negated, atom):
        if isinstance(atom, Eq):
            return super().normalize_literal(negated, atom)
        a, b = atom.args
        if a == b:
            return TRUE if negated else FALSE  # adjacency is irreflexive
        lit = Atom("adj", _sorted_pair(a, b))
        return Not(lit) if negated else lit

    def eliminate_one(self, v, lits):
        lit, w = self._find_eq(v, lits)
        if lit is not None:
            return self._subst_out(v, w, [l for l in lits if l is not lit])
        pos, negs = self._demands(v, lits, "adj")
        # extension axiom: a fresh witness adjacent to all of pos and none of
        # negs exists iff the two demand sets name distinct elements
        return conj(self.normalize_literal(True, Eq(a, b))
                    for a in pos for b in negs)


class EquivInf(Theory):
    id = "equivinf"
    signature = Signature("equivinf", (("equiv", 2),))

    def normalize_literal(self, negated, atom):
        if isinstance(atom, Eq):
            return super().normalize_literal(negated, atom)
        a, b = atom.args
        if a == b:
            return FALSE if negated else TRUE  # reflexive
        lit = Atom("equiv", _sorted_pair(a, b))
        return Not(lit) if negated else lit

    def eliminate_one(self, v, lits):
        lit, w = self._find_eq(v, lits)
        if lit is not None:
            return self._subst_out(v, w, [l for l in lits if l is not lit])
        pos, negs = self._demands(v, lits, "equiv")
        parts = [self.normalize_literal(False, Atom("equiv", (a, b)))
                 for a, b in itertools.combinations(pos, 2)]
        parts += [self.normalize_literal(True, Atom("equiv", (a, b)))
                  for a in pos for b in negs]
        # classes are infinite and there are infinitely many of them, so the
        # pairwise conditions are all that is required
        return conj(parts)


THEORIES: dict[str, Theory] = {t.id: t for t in
                               (PureSet(), DenseLinearOrder(), RandomGraph(), EquivInf())}


def get_theory(theory_id) -> Theory:
    if isinstance(theory_id, Theory):
        return theory_id
    try:
        return THEORIES[theory_id]
    except KeyError:
        raise PreconditionError(f"unsupported theory id {theory_id!r}") from None


# -- quantifier elimination --------------------------------------------------

_QE_CACHE: dict[tuple[str, Formula], Formula] = {}


def _nnf(theory: Theory, f: Formula, negated: bool) -> Formula:
    if isinstance(f, Top):
        return FALSE if negated else TRUE
    if isinstance(f, Bot):
        return TRUE if negated else FALSE
    if isinstance(f, (Atom, Eq)):
        return theory.normalize_literal(negated, f)
    if isinstance(f, Not):
        return _nnf(theory, f.sub, not negated)
    if isinstance(f, And):
        parts = [_nnf(theory, c, negated) for c in f.children]
        return disj(parts) if negated else conj(parts)
    if isinstance(f, Or):
        parts = [_nnf(theory, c, negated) for c in f.children]
        return conj(parts) if negated else disj(parts)
    if isinstance(f, Implies):
        if negated:
            return conj([_nnf(theory, f.lhs, False), _nnf(theory, f.rhs, True)])
        return disj([_nnf(theory, f.lhs, True), _nnf(theory, f.rhs, False)])
    if isinstance(f, Exists):
        body = _nnf(theory, f.body, negated)
        node = Forall if negated else Exists
    else:
        body = _nnf(theory, f.body, negated)
        node = Exists if negated else Forall
    if isinstance(body, (Top, Bot)):
        return body
    return node(f.var, body)


def _literals(theory: Theory, vs) -> list[Formula]:
    """The normalised literals over the variables `vs`, in `sort_key` order."""
    atoms = [Eq(a, b) for a in vs for b in vs] + [
        Atom(rel, args) for rel, arity in theory.signature.relations
        for args in itertools.product(vs, repeat=arity)]
    lits = {theory.normalize_literal(negated, atom)
            for atom in atoms for negated in (False, True)}
    return sorted((l for l in lits if isinstance(l, (Atom, Eq, Not))), key=sort_key)


_CLASH_CACHE: dict[tuple[str, Formula], frozenset] = {}


def _clash(theory: Theory, l: Formula) -> frozenset:
    """Every normalised literal that contradicts `l`: its complement, or a
    literal m over `l`'s two variables such that the elimination rule turns
    the existential over the later variable of `l` and m into false.  Other
    literals share at most one variable with `l`, and pair diagrams that
    share one amalgamate, so none contradicts `l`.  Pair codes are built by
    QE, so this reads none."""
    key = (theory.id, l)
    if key not in _CLASH_CACHE:
        vs = sorted(free_vars(l))
        _CLASH_CACHE[key] = frozenset([neg(l)] + [
            m for m in _literals(theory, vs)
            if isinstance(theory.eliminate_one(vs[-1], [l, m]), Bot)])
    return _CLASH_CACHE[key]


def _dnf(theory: Theory, f: Formula) -> list[frozenset]:
    if isinstance(f, Top):
        return [frozenset()]
    if isinstance(f, Bot):
        return []
    if isinstance(f, (Atom, Eq, Not)):
        return [frozenset((f,))]
    if isinstance(f, Or):
        out = []
        seen = set()
        for c in f.children:
            for cube in _dnf(theory, c):
                if cube not in seen:
                    seen.add(cube)
                    out.append(cube)
        return out
    if isinstance(f, And):
        cubes = [frozenset()]
        for c in f.children:
            nxt = []
            seen = set()
            for add in _dnf(theory, c):
                bad = frozenset().union(*(_clash(theory, l) for l in add))
                for cube in cubes:
                    if not cube.isdisjoint(bad):
                        continue
                    merged = cube | add
                    if merged in seen:
                        continue
                    seen.add(merged)
                    nxt.append(merged)
                    if len(nxt) > DNF_CUBE_CAP:
                        raise ResourceCapError(
                            "DNF cube cap exceeded", cap="dnf-cubes",
                            limit=DNF_CUBE_CAP, observed=len(nxt))
            cubes = nxt
        return cubes
    raise InternalConsistencyError(f"not in NNF: {render_formula(f)}")


def _cube_formula(cube: frozenset) -> Formula:
    return conj(sorted(cube, key=sort_key))


def _exists_one(theory: Theory, v: VarRef, qf: Formula) -> Formula:
    if v not in free_vars(qf):
        return qf
    out = []
    for cube in _dnf(theory, qf):
        with_v = sorted((l for l in cube if v in free_vars(l)), key=sort_key)
        rest = [l for l in cube if v not in free_vars(l)]
        reduced = theory.eliminate_one(v, with_v)
        out.append(conj([_cube_formula(frozenset(rest)), reduced]))
    return disj(out)


def _elim(theory: Theory, f: Formula) -> Formula:
    if isinstance(f, (Top, Bot, Atom, Eq, Not)):
        return f
    if isinstance(f, And):
        return conj(_elim(theory, c) for c in f.children)
    if isinstance(f, Or):
        return disj(_elim(theory, c) for c in f.children)
    if isinstance(f, Exists):
        return _exists_one(theory, f.var, _elim(theory, f.body))
    if isinstance(f, Forall):
        inner = _elim(theory, f.body)
        negated = _nnf(theory, neg(inner), False)
        return _nnf(theory, neg(_exists_one(theory, f.var, negated)), False)
    raise InternalConsistencyError("unexpected node after NNF")


def eliminate_quantifiers(f: Formula, theory) -> Formula:
    """Quantifier-free formula equivalent to `f` modulo the theory, with
    normalised literals and canonically ordered connectives."""
    theory = get_theory(theory)
    key = (theory.id, f)
    hit = _QE_CACHE.get(key)
    if hit is None:
        hit = _elim(theory, _nnf(theory, f, False))
        _QE_CACHE[key] = hit
    return hit


def decide_sentence(f: Formula, theory) -> bool:
    theory = get_theory(theory)
    if free_vars(f):
        raise PreconditionError("decide_sentence requires a sentence (no free variables)")
    result = eliminate_quantifiers(f, theory)
    if isinstance(result, Top):
        return True
    if isinstance(result, Bot):
        return False
    raise InternalConsistencyError(
        f"QE left a non-ground residue: {render_formula(result)}")


# -- complete types ----------------------------------------------------------

@dataclass(frozen=True)
class CompleteType:
    """A complete quantifier-free diagram over a k-tapes-by-n-positions grid.
    Variable (tape, pos) maps to index tape*n + pos; `classes` is the
    equality partition in restricted-growth form and `rels` holds the full
    relation tables on partition classes."""

    theory_id: str
    k: int
    n: int
    classes: tuple[int, ...]
    rels: tuple[tuple[str, frozenset], ...]

    @property
    def theory(self) -> Theory:
        return THEORIES[self.theory_id]

    def rel_table(self, rel: str) -> frozenset:
        for name, pairs in self.rels:
            if name == rel:
                return pairs
        raise SignatureError(f"no relation {rel!r} in diagram")

    def num_classes(self) -> int:
        return max(self.classes, default=-1) + 1

    def var_class(self, v: VarRef) -> int:
        if not (0 <= v.tape < self.k and 0 <= v.position < self.n):
            raise PreconditionError(
                f"variable {v.render()} outside the {self.k}x{self.n} grid")
        return self.classes[v.tape * self.n + v.position]

    def satisfies_qf(self, f: Formula) -> bool:
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, Eq):
            return self.var_class(f.lhs) == self.var_class(f.rhs)
        if isinstance(f, Atom):
            pair = (self.var_class(f.args[0]), self.var_class(f.args[1]))
            return pair in self.rel_table(f.rel)
        if isinstance(f, Not):
            return not self.satisfies_qf(f.sub)
        if isinstance(f, And):
            return all(self.satisfies_qf(c) for c in f.children)
        if isinstance(f, Or):
            return any(self.satisfies_qf(c) for c in f.children)
        if isinstance(f, Implies):
            return (not self.satisfies_qf(f.lhs)) or self.satisfies_qf(f.rhs)
        raise PreconditionError("satisfies_qf needs a quantifier-free formula")

    def diagram_formula(self) -> Formula:
        """Minimal conjunction pinning the whole diagram: each variable is
        tied to its class representative and each representative pair is
        pinned by the pinning literals of its code (`PairCodes.pins`).  The
        literals come from the grid's literal table
        (`PairCodes.literal_table`) in rank order, so the value equals `conj`
        of them without `conj`'s sorting."""
        lits = [lit for _, lit, _ in self._diagram_literals()]
        if len(lits) > 1:
            return And(tuple(lits))
        return lits[0] if lits else TRUE

    def diagram_text(self) -> str:
        """`render_formula(self.diagram_formula())`, joined from the literal
        table's rendered texts."""
        texts = [text for _, _, text in self._diagram_literals()]
        if len(texts) > 1:
            return "(" + " & ".join(texts) + ")"
        return texts[0] if texts else "true"

    def _diagram_literals(self) -> list[tuple[int, Formula, str]]:
        """The literal-table entries of the diagram, sorted by rank: for a
        variable j in an earlier class, the equality on (representative, j);
        for a new representative j, the entries of the codes it has with
        the earlier representatives.  `classes` is in restricted-growth
        form, so class c's representative is the c-th one met."""
        pc = pair_codes(self.theory_id)
        table = pc.literal_table(self.k, self.n)
        between = pc.class_codes(self.num_classes(), self.rels)
        reps: list[int] = []
        out = []
        for j, c in enumerate(self.classes):
            row = j * (j - 1) // 2
            if c < len(reps):
                out += table[row + reps[c]][pc.eq]
                continue
            crow = c * (c - 1) // 2
            for a, i in enumerate(reps):
                out += table[row + i][between[crow + a]]
            reps.append(j)
        out.sort(key=itemgetter(0))
        return out

    def restrict(self, tapes: tuple[int, ...], positions: int | None = None) -> "CompleteType":
        """Sub-diagram on the listed tapes (in the listed order), keeping
        positions < `positions` (defaults to all)."""
        n = self.n if positions is None else positions
        idx = [t * self.n + p for t in tapes for p in range(n)]
        return self._select(idx, len(tapes), n)

    def restrict_vars(self, indices: list[int]) -> "CompleteType":
        """Sub-diagram on an explicit variable-index list, as a 1xm grid."""
        return self._select(indices, 1, len(indices))

    def _select(self, idx: list[int], k: int, n: int) -> "CompleteType":
        remap: dict[int, int] = {}
        classes = []
        for i in idx:
            c = self.classes[i]
            remap.setdefault(c, len(remap))
            classes.append(remap[c])
        rels = []
        for rel, pairs in self.rels:
            kept = frozenset((remap[a], remap[b]) for a, b in pairs
                             if a in remap and b in remap)
            rels.append((rel, kept))
        return CompleteType(self.theory_id, k, n, tuple(classes), tuple(rels))

    def key(self):
        return (self.classes, tuple((r, tuple(sorted(p))) for r, p in self.rels))


def _diagrams(theory: Theory, m: int) -> list[CompleteType]:
    """Every m-variable diagram, by one-variable extension, sorted by key."""
    pc = pair_codes(theory)
    tables: dict[tuple[int, ...], tuple] = {}
    keyed = []
    for _codes, between, c, classes in _extensions(theory, 1, m):
        if between not in tables:  # it fixes c once m >= 1
            tables[between] = pc.class_tables(between, c)
        key, rels = tables[between]
        keyed.append(((classes, key), CompleteType(theory.id, 1, m, classes, rels)))
    keyed.sort(key=lambda kt: kt[0])  # CompleteType.key, built once per table
    return [t for _, t in keyed]


def _distinct_diagrams(theory: Theory, c: int,
                       one: CompleteType | None = None) -> list[CompleteType]:
    """The diagrams of c distinct variables: every relation table on c
    classes that restricts to the 1-variable diagram `one` (if given) on
    each class and that `decide_sentence` proves c distinct elements carry."""
    vs = [VarRef(0, i) for i in range(c)]
    atoms = [Atom(rel, args) for rel, _ in theory.signature.relations
             for args in itertools.product(vs, repeat=2)]
    out = []
    for bits in itertools.product((False, True), repeat=len(atoms)):
        t = CompleteType(theory.id, 1, c, tuple(range(c)), tuple(
            (rel, frozenset((a.args[0].position, a.args[1].position)
                            for a, bit in zip(atoms, bits) if bit and a.rel == rel))
            for rel, _ in theory.signature.relations))
        if one and any(t.restrict_vars([i]).rels != one.rels for i in range(c)):
            continue
        sentence = conj([neg(Eq(a, b)) for a, b in itertools.combinations(vs, 2)]
                        + [a if bit else neg(a) for a, bit in zip(atoms, bits)])
        for v in reversed(vs):
            sentence = exists(v, sentence)
        if decide_sentence(sentence, theory):
            out.append(t)
    return out


_DIAGRAM_CACHE: dict[tuple[str, int], list[CompleteType]] = {}


def check_grid_cap(m: int, cap: int) -> None:
    if m > cap:
        raise ResourceCapError(
            f"grid of {m} variables exceeds the enumeration cap {cap}",
            cap="max-grid", limit=cap, observed=m)


def diagrams_over(theory, m: int, cap: int = DEFAULT_GRID_CAP) -> list[CompleteType]:
    theory = get_theory(theory)
    check_grid_cap(m, cap)
    key = (theory.id, m)
    if key not in _DIAGRAM_CACHE:
        _DIAGRAM_CACHE[key] = _diagrams(theory, m)
    return _DIAGRAM_CACHE[key]


# -- pair codes --------------------------------------------------------------

def pair_index(i: int, j: int) -> int:
    """Position of the variable pair i < j in a pair-code tuple.  Pairs are
    listed by their larger variable, then by the smaller one, so the codes
    of a diagram's first m variables are a prefix of its code tuple."""
    return j * (j - 1) // 2 + i


def restriction_map(k: int, n: int, tapes: tuple[int, ...]) -> tuple[tuple[int, bool], ...]:
    """How to read the code tuple of `CompleteType.restrict(tapes)` off the
    code tuple of a k-by-n-grid diagram: for each pair of the sub-grid, in
    pair order, the position of the source pair and whether the restriction
    reads it converse (the listed tapes reverse it)."""
    if any(not 0 <= t < k for t in tapes):
        raise PreconditionError(f"tapes outside the {k}x{n} grid")
    if len(set(tapes)) < len(tapes):
        raise PreconditionError("a restriction map needs distinct tapes")
    idx = [t * n + p for t in tapes for p in range(n)]
    return tuple((pair_index(a, b), False) if a < b else (pair_index(b, a), True)
                 for j, b in enumerate(idx) for a in idx[:j])


class PairCodes:
    """One theory's diagrams as pair-code tuples.

    The code of the pair i < j is the index, in `diagrams_over(theory, 2)`,
    of the sub-diagram on (i, j) with i read as x0; those diagrams, and the
    1-variable one, are built here by QE.  `pins[code]` is a shortest list
    of normalised literals on (x0, x1) that holds of that code alone.
    `triples[a][b]` is the bit set of the codes c such that codes a, b, c on
    the pairs (h, i), (h, j), (i, j) of h < i < j occur together in a
    3-variable diagram: the codes on (x1, x2) of QE of the existential over
    x0 of `pins[a]` on (x0, x1) and `pins[b]` on (x0, x2).
    """

    def __init__(self, theory: Theory):
        one = _distinct_diagrams(theory, 1)
        if len(one) != 1:
            raise InternalConsistencyError("pair codes need a unique 1-variable diagram")
        self.theory_id = theory.id
        self.one = one[0]
        self.two = two = sorted(_distinct_diagrams(theory, 2, self.one) + [
            CompleteType(theory.id, 1, 2, (0, 0), self.one.rels)], key=CompleteType.key)
        self.full = (1 << len(two)) - 1
        self.eq = next(c for c, d in enumerate(two) if d.classes == (0, 0))
        self.rel_names = tuple(rel for rel, _ in self.one.rels)
        # relation values between distinct x0, x1, both ways, per relation
        flags = tuple(tuple(((0, 1) in d.rel_table(r), (1, 0) in d.rel_table(r))
                            for r in self.rel_names) for d in two)
        self._code_of = {f: c for c, f in enumerate(flags) if c != self.eq}
        self.converse = tuple(c if c == self.eq else
                              self._code_of[tuple((b, a) for a, b in f)]
                              for c, f in enumerate(flags))
        # per relation: whether it is reflexive, and per code its two ways
        self._tables = tuple((r, (0, 0) in self.one.rel_table(r),
                              tuple(f[x][0] for f in flags),
                              tuple(f[x][1] for f in flags))
                             for x, r in enumerate(self.rel_names))
        self._class_codes: dict[tuple[int, tuple], tuple[int, ...]] = {}
        x0, x1, x2 = (VarRef(0, i) for i in range(3))
        lits = _literals(theory, (x0, x1))
        masks = {lit: self.mask(lit, {x0: 0, x1: 1}) for lit in lits}
        codes = range(len(two))
        # the first of the shortest literal lists whose masks meet in the code
        self.pins = tuple(next(list(ls) for size in range(len(lits) + 1)
                               for ls in itertools.combinations(lits, size)
                               if functools.reduce(and_, map(masks.get, ls), self.full) == 1 << c)
                          for c in codes)

        def closing(a, b):
            pinned = [substitute_vars(lit, {x1: v})
                      for code, v in ((a, x1), (b, x2)) for lit in self.pins[code]]
            return self.mask(eliminate_quantifiers(exists(x0, conj(pinned)), theory),
                             {x1: 0, x2: 1})
        self._bits = tuple(tuple(c for c in codes if mask >> c & 1)
                           for mask in range(self.full + 1))
        # swapping x1 and x2 reads the closing codes converse
        rows = [[0] * len(two) for _ in codes]
        for a, b in itertools.combinations_with_replacement(codes, 2):
            rows[a][b] = closing(a, b)
            rows[b][a] = sum(1 << self.converse[c] for c in self._bits[rows[a][b]])
        self.triples = tuple(map(tuple, rows))
        self._one_point_cache: dict = {}
        self._one_point_cached = 0
        self._literal_tables: dict[tuple[int, int], tuple] = {}

    def literal_table(self, k: int, n: int) -> tuple:
        """The literals that pin each pair of the k-by-n grid: entry
        [pair_index(i, j)][code] lists (rank, literal, text) for the pair
        i < j holding `code`, where rank is the literal's position in the
        `sort_key` order of every literal in the table and text is its
        rendering.  The literals are `pins[code]` on (v_i, v_j).  Built on
        first use per grid and kept."""
        hit = self._literal_tables.get((k, n))
        if hit is not None:
            return hit
        x0, x1 = VarRef(0, 0), VarRef(0, 1)
        vs = [VarRef(t, p) for t in range(k) for p in range(n)]
        rows = [[[substitute_vars(lit, {x0: a, x1: b}) for lit in pins] for pins in self.pins]
                for j, b in enumerate(vs) for a in vs[:j]]
        order = sorted({lit for row in rows for lits in row for lit in lits}, key=sort_key)
        rank = {lit: r for r, lit in enumerate(order)}
        hit = tuple(tuple(tuple((rank[lit], lit, render_formula(lit)) for lit in lits)
                          for lits in row) for row in rows)
        self._literal_tables[(k, n)] = hit
        return hit

    def codes_of(self, t: CompleteType) -> tuple[int, ...]:
        between = self.class_codes(t.num_classes(), t.rels)
        eq, conv = self.eq, self.converse
        return tuple(eq if a == b else between[pair_index(a, b)] if a < b
                     else conv[between[pair_index(b, a)]]
                     for j, b in enumerate(t.classes) for a in t.classes[:j])

    def class_tables(self, between: tuple[int, ...], c: int):
        """Relation tables of the diagram whose c classes carry the
        all-distinct code tuple `between`: as `CompleteType.rels`, and as the
        sorted pair tuples that `CompleteType.key` lists."""
        pairs = [(a, b) for b in range(c) for a in range(b)]
        keyed = []
        for rel, diagonal, fwd, bwd in self._tables:
            table = [p for p, code in zip(pairs, between) if fwd[code]]
            table += [(b, a) for (a, b), code in zip(pairs, between) if bwd[code]]
            if diagonal:
                table += [(t, t) for t in range(c)]
            table.sort()
            keyed.append((rel, tuple(table)))
        return tuple(keyed), tuple((rel, frozenset(t)) for rel, t in keyed)

    def class_codes(self, c: int, rels: tuple) -> tuple[int, ...]:
        """The all-distinct code tuple of c classes whose relation tables are
        `rels` (as `CompleteType.rels`): the inverse of `class_tables`.
        Diagrams of one pool share their class tables, so these are cached;
        the cache is emptied when full."""
        key = (c, rels)
        hit = self._class_codes.get(key)
        if hit is None:
            named = dict(rels)
            tables = [named[rel] for rel in self.rel_names]
            hit = tuple(self._code_of[tuple(((a, b) in t, (b, a) in t) for t in tables)]
                        for b in range(c) for a in range(b))
            if len(self._class_codes) >= CLASS_CODES_CACHE_CAP:
                self._class_codes.clear()
            self._class_codes[key] = hit
        return hit

    def admits(self, t: CompleteType) -> bool:
        """Whether the diagram `t` is consistent with the theory: each
        relation's diagonal is the 1-variable diagram's, every pair of
        classes has a code and every triple of classes is allowed by
        `triples`.  The universal part is axiomatised in at most three
        variables, so this is exactly admissibility."""
        c = t.num_classes()
        named = dict(t.rels)
        try:
            if any(((i, i) in named[rel]) != diagonal
                   for rel, diagonal, _, _ in self._tables for i in range(c)):
                return False
            between = self.class_codes(c, t.rels)
        except KeyError:
            return False
        return all(self.triples[between[pair_index(a, b)]][between[pair_index(a, d)]]
                   >> between[pair_index(b, d)] & 1
                   for d in range(c) for b in range(d) for a in range(b))

    def mask(self, f: Formula, index: dict[VarRef, int]) -> int:
        """Codes of the pair of grid variables that the quantifier-free `f`
        names (at most two) on which it holds; all or none if it names
        fewer than two."""
        vs = sorted(free_vars(f), key=index.__getitem__)
        if len(vs) > 2:
            raise PreconditionError("a code mask needs at most two variables")
        f = substitute_vars(f, {v: VarRef(0, i) for i, v in enumerate(vs)})
        if len(vs) < 2:
            return self.full if self.one.satisfies_qf(f) else 0
        return sum(1 << c for c, d in enumerate(self.two) if d.satisfies_qf(f))

    def predicate(self, f: Formula, index: dict[VarRef, int]):
        """`f` as a test on code tuples that hold its variables' pairs."""
        vs = sorted({index[v] for v in free_vars(f)})
        if len(vs) <= 2:
            mask = self.mask(f, index)
            if len(vs) < 2:
                return lambda codes: bool(mask)
            pos = pair_index(*vs)
            return lambda codes: mask >> codes[pos] & 1
        if isinstance(f, Not):
            g = self.predicate(f.sub, index)
            return lambda codes: not g(codes)
        if isinstance(f, Implies):
            return self.predicate(disj([neg(f.lhs), f.rhs]), index)
        if isinstance(f, (And, Or)):
            gs = [self.predicate(c, index) for c in f.children]
            test = all if isinstance(f, And) else any
            return lambda codes: test(g(codes) for g in gs)
        raise PreconditionError("pair codes need a quantifier-free constraint")

    def _extend(self, codes, between, c, classes, j, m, units, checks):
        """(codes, between, c, classes) for each diagram over m variables
        that extends `codes` over j: `classes` is its equality partition in
        restricted-growth form, c its number of classes and `between` the
        code tuple of the classes (all distinct)."""
        if j == m:
            yield codes, between, c, classes
            return
        masks = None
        if units[j]:
            masks = [self.full] * c
            for i, mask in units[j]:
                masks[classes[i]] &= mask
            masks = tuple(masks)
        for v, joined in self._one_point(between, c, masks):
            ext = codes + tuple(map(v.__getitem__, classes))
            if checks[j] and not all(test(ext) for test in checks[j]):
                continue
            if joined < 0:
                step = (ext, between + v, c + 1, classes + (c,))
            else:
                step = (ext, between, c, classes + (joined,))
            if j + 1 == m:
                yield step
            else:
                yield from self._extend(*step, j + 1, m, units, checks)

    def _one_point(self, between, c, masks):
        """The ways a new variable relates to c classes with the all-distinct
        code tuple `between`: one code per class (within `masks`, if given),
        chosen class by class against the triple table, each with the class
        the variable joins (-1 if it starts its own).  They depend on the
        classes alone, so they are cached; the cache is emptied when full."""
        key = (between, masks)
        hit = self._one_point_cache.get(key)
        if hit is not None:
            return hit
        partial = [()]
        for t in range(c):
            rows = [self.triples[between[pair_index(s, t)]] for s in range(t)]
            nxt = []
            for v in partial:
                mask = self.full if masks is None else masks[t]
                for s, row in enumerate(rows):
                    mask &= row[v[s]]
                for code in self._bits[mask]:
                    nxt.append(v + (code,))
            partial = nxt
        eq = self.eq
        hit = [(v, v.index(eq) if eq in v else -1) for v in partial]
        if self._one_point_cached + len(hit) > ONE_POINT_CACHE_CAP:
            self._one_point_cache.clear()
            self._one_point_cached = 0
        self._one_point_cache[key] = hit
        self._one_point_cached += len(hit)
        return hit


_PAIR_CODES: dict[str, PairCodes] = {}


def pair_codes(theory) -> PairCodes:
    theory = get_theory(theory)
    if theory.id not in _PAIR_CODES:
        _PAIR_CODES[theory.id] = PairCodes(theory)
    return _PAIR_CODES[theory.id]


def _pruning(pc: PairCodes, k: int, n: int, qf: Formula):
    """Per new variable j: the (i, mask) code masks that the constraint's
    conjuncts over two variables put on the pairs (i, j), and the tests of
    its wider conjuncts whose last variable is j.  None if a conjunct over
    fewer than two variables fails."""
    m = k * n
    index = {VarRef(t, p): t * n + p for t in range(k) for p in range(n)}
    if not free_vars(qf) <= index.keys():
        raise PreconditionError("constraint has variables outside the grid")
    units: list[dict[int, int]] = [{} for _ in range(m)]
    checks: list[list] = [[] for _ in range(m)]
    for part in (qf.children if isinstance(qf, And) else (qf,)):
        vs = sorted(index[v] for v in free_vars(part))
        if len(vs) < 2:
            if not pc.mask(part, index):
                return None
        elif len(vs) == 2:
            i, j = vs
            units[j][i] = units[j].get(i, pc.full) & pc.mask(part, index)
        else:
            checks[vs[-1]].append(pc.predicate(part, index))
    return [tuple(u.items()) for u in units], checks


def _extensions(theory, k: int, n: int, constraint: Formula = TRUE,
                prefix: tuple[int, ...] = ()):
    """Iterator of (codes, between, c, classes) for `diagram_codes`; see
    `PairCodes._extend`."""
    pc = pair_codes(theory)
    m = k * n
    start = (1 + math.isqrt(1 + 8 * len(prefix))) // 2
    if start * (start - 1) // 2 != len(prefix) or (start > m and prefix):
        raise PreconditionError("prefix is not a code tuple on the grid's first variables")
    pruning = _pruning(pc, k, n, constraint)
    if pruning is None:
        return iter(())
    if m == 0:
        return iter((((), (), 0, ()),))
    classes: list[int] = []
    reps: list[int] = []
    between: tuple[int, ...] = ()
    for j in range(start):
        row = j * (j - 1) // 2
        joined = next((t for t, r in enumerate(reps) if prefix[row + r] == pc.eq), -1)
        if joined < 0:
            between += tuple(prefix[row + r] for r in reps)
            joined = len(reps)
            reps.append(j)
        classes.append(joined)
    return pc._extend(tuple(prefix), between, len(reps), tuple(classes),
                      start, m, *pruning)


def diagram_codes(theory, k: int, n: int, constraint: Formula = TRUE,
                  prefix: tuple[int, ...] = ()):
    """Stream the pair-code tuples of the diagrams on the k-by-n grid
    (variable (t, p) is t*n + p) that are consistent with the theory and the
    quantifier-free `constraint` and extend the code tuple `prefix` of the
    first variables, one variable at a time.  A conjunct of the constraint
    is tested once its last variable is placed, a conjunct over one pair as
    a code mask on that pair; conjuncts within the prefix are taken as met.
    Deterministic order; results are not cached and no size cap applies."""
    return map(itemgetter(0), _extensions(get_theory(theory), k, n, constraint, prefix))


def enumerate_types(theory, k: int, n: int, constraint: Formula = TRUE,
                    cap: int = DEFAULT_GRID_CAP) -> list[CompleteType]:
    """All complete types on a k-tapes-by-n-positions grid consistent with
    the theory and with `constraint`, in deterministic order."""
    theory = get_theory(theory)
    if k < 1 or n < 0:
        raise PreconditionError("need k >= 1 and n >= 0")
    m = k * n
    grid = {VarRef(t, p) for t in range(k) for p in range(n)}
    if not free_vars(constraint) <= grid:
        raise PreconditionError("constraint has variables outside the grid")
    qf = eliminate_quantifiers(constraint, theory)
    out = []
    for d in diagrams_over(theory, m, cap):
        t = CompleteType(theory.id, k, n, d.classes, d.rels)
        if t.satisfies_qf(qf):
            out.append(t)
    return out


# -- canonical forms ---------------------------------------------------------

CANONICAL_VAR_CAP = 6


def canonical_form(f: Formula, theory) -> Formula:
    """Semantic normal form: the disjunction of the complete diagrams of the
    formula's satisfying types over exactly the variables it depends on.
    Two formulas are T-equivalent iff their canonical forms are equal."""
    theory = get_theory(theory)
    qf = eliminate_quantifiers(f, theory)
    vs = sorted(free_vars(qf))
    if not vs:
        return qf
    if len(vs) > CANONICAL_VAR_CAP:
        raise ResourceCapError(f"canonical form over {len(vs)} variables "
                               f"exceeds the cap {CANONICAL_VAR_CAP}",
                               cap="canonical-vars", limit=CANONICAL_VAR_CAP,
                               observed=len(vs))
    to_grid = {v: VarRef(0, i) for i, v in enumerate(vs)}
    mapped = substitute_vars(qf, to_grid)
    sat = [d for d in diagrams_over(theory, len(vs)) if d.satisfies_qf(mapped)]
    vs, sat = _drop_dummies(theory, vs, sat)
    if not sat:
        return FALSE
    if len(sat) == len(diagrams_over(theory, len(vs))) or not vs:
        return TRUE
    back = {VarRef(0, i): v for i, v in enumerate(vs)}
    return disj(substitute_vars(d.diagram_formula(), back) for d in sat)


def depends_on_all_vars(theory, m: int, sat_keys: set) -> bool:
    """True iff the set of m-variable diagrams named by `sat_keys` is not a
    pullback along forgetting any single variable (and is neither empty nor
    everything)."""
    theory = get_theory(theory)
    if not sat_keys or len(sat_keys) == len(diagrams_over(theory, m)):
        return False
    return not any(_is_pullback(theory, m, drop, sat_keys) for drop in range(m))


def _is_pullback(theory: Theory, m: int, drop: int, sat_keys: set) -> bool:
    """True iff membership in the set of m-variable diagrams named by
    `sat_keys` is constant on each fibre of forgetting variable `drop`."""
    keep = [i for i in range(m) if i != drop]
    verdicts: dict = {}
    for d in diagrams_over(theory, m):
        inside = d.key() in sat_keys
        if verdicts.setdefault(d.restrict_vars(keep).key(), inside) != inside:
            return False
    return True


def _drop_dummies(theory: Theory, vs: list[VarRef], sat: list[CompleteType]):
    """Remove variables the satisfying set does not depend on, the last
    such variable first."""
    while vs:
        sat_keys = {d.key() for d in sat}
        drop = next((i for i in reversed(range(len(vs)))
                     if _is_pullback(theory, len(vs), i, sat_keys)), None)
        if drop is None:
            break
        keep = [i for i in range(len(vs)) if i != drop]
        restricted: dict = {}
        for d in sat:
            r = d.restrict_vars(keep)
            restricted.setdefault(r.key(), r)
        vs = [vs[i] for i in keep]
        sat = sorted(restricted.values(), key=CompleteType.key)
    return vs, sat
