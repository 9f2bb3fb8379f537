"""Decision procedures for the built-in complete theories.

Each theory is complete, decidable, and eliminates quantifiers:

  pureset     -- infinite pure set (equality only)
  dlo         -- dense linear order without endpoints (lt)
  randomgraph -- the random (Rado) graph (adj, irreflexive symmetric)
  equivinf    -- equivalence relation with infinitely many infinite classes

Each theory is the Fraisse limit of its age, the finite structures that
embed in its models, and every relation is binary.  Its universal part is
axiomatised in at most three variables (the order, adjacency or
equivalence laws), so the age is fixed by its structures on at most three
distinct elements, which `Theory.in_age` accepts or refuses.  That hook is
all a theory defines: every fact about finite diagrams, quantifier
elimination's rules included, is read off those structures (`PairCodes`).

Quantifier elimination works inside out: negations are pushed to literals,
each put in its normal form (`PairCodes.literal`), one existential is
eliminated from each DNF cube, and universals go through negation.  Each
existential is miniscoped before its body's DNF is taken: it distributes
over a disjunction, and the conjuncts that do not mention its variable
stay outside it, so they are never multiplied into its cubes.  A cube with
a positive equality v = w loses v by substitution (`_eliminate`); the
others go to the pairwise rule on the codes (`PairCodes.eliminate`), and
cubes holding two literals that no pair code meets are pruned (`_clash`).
Formulas enter QE through the NNF walk (`_Elimination.nnf`), which refuses
a relation the theory does not list.

A complete quantifier-free diagram over finitely many variables is fixed
by its equality partition and its 2-variable sub-diagrams between the
classes.  A pair code is the index of a 2-variable diagram in
`diagrams_over(theory, 2)`; those diagrams are the relation values on one
element and on two distinct elements that the age holds (`PairCodes`, the
only holder of relation values).  A diagram (`CompleteType`) is its
partition plus the code tuple of its classes, and every question about it,
from its formula to the truth of a quantifier-free formula on it, is read
off codes.  The triple table, which codes can close a triangle, is read off
the age's structures on three elements.  As the age is axiomatised in three
variables, a code tuple names a consistent diagram iff every 3-variable
sub-diagram is one, and enumerating consistent code tuples enumerates
complete types.  `diagram_codes` generates them one variable at a time: a
new variable relates to each earlier equality class by a code allowed by
the triple table, and copies that code to the rest of the class.  A diagram
is consistent iff its diagram on its classes is, so a pool
`diagrams_over(theory, m)` is built as a product instead: every equality
partition of the m variables times the all-distinct code tuples of its
classes, which grow one class at a time by the same triple-table step
(`_diagrams`).  A diagram read off a model grows by that step too
(`models.tuple_type`), its codes read off the model (`PairCodes.codes_to`)
as one-code masks.  A quantifier-free formula is tested on code tuples
(`PairCodes.predicate`) by code masks of its parts over at most two
variables (`PairCodes.mask`).

Diagram formulas are read off the same codes.  Per grid, a literal table
(`PairCodes.literal_table`) holds for each pair position and pair code the
literals that pin that pair, each with its rank in the `sort_key` order of
all the grid's literals and with its rendered text; a diagram's formula is
the equality entries tying variables to their class representatives plus
the code entries of the representative pairs, sorted by rank, which is the
order `conj` would give them.  The first list depends on the partition
alone and the second on the representatives and `between`, so rendering
many diagrams reuses both (`diagram_texts`).
"""
from __future__ import annotations

import functools
import itertools
from operator import and_, itemgetter, or_

from .errors import (InternalConsistencyError, PreconditionError,
                     ResourceCapError, SignatureError)
from .formula import (FALSE, TRUE, And, Atom, Bot, Eq, Exists, Forall,
                      Formula, Implies, Not, Or, Top, VarRef, conj, disj,
                      free_vars, identify_vars, neg, render_formula, sort_key,
                      substitute_vars)
from .record import Record, _set

GRID_CAP = 12
POOL_CAP = 1_000_000   # diagrams in one pool
DNF_CUBE_CAP = 200_000
ONE_POINT_CACHE_CAP = 1 << 18   # one-point extensions held by a PairCodes cache
_X0, _X1 = VarRef(0, 0), VarRef(0, 1)   # the pair that pair codes and forms are read on


class Theory:
    """Base for the built-in theories.  A theory is `relations`, the names
    of its binary relations (none for pureset), and one hook, `in_age`,
    which says which structures on at most three distinct elements lie in
    its age.  The pair diagrams, the triple table, the literal normal forms
    and the elimination rule are all read off it (`PairCodes`)."""

    id: str = ""
    relations: tuple[str, ...] = ()

    def in_age(self, holds, k: int) -> bool:
        """Whether the structure on the k <= 3 distinct elements 0, ..., k-1
        in which relation rel holds from a to b iff `holds(rel, a, b)` lies
        in the theory's age."""
        raise NotImplementedError

    def check_relation(self, atom: Atom) -> None:
        """Refuse an atom whose relation is not listed or that does not
        have two arguments."""
        if atom.rel not in self.relations or len(atom.args) != 2:
            raise SignatureError(
                f"{self.id} has no relation {atom.rel!r} of arity {len(atom.args)}")


def _transitive(holds, rel: str, k: int) -> bool:
    els = range(k)
    return not any(holds(rel, a, b) and holds(rel, b, c) and not holds(rel, a, c)
                   for a in els for b in els for c in els)


class PureSet(Theory):
    id = "pureset"

    def in_age(self, holds, k):
        return True


class DenseLinearOrder(Theory):
    id = "dlo"
    relations = ("lt",)

    def in_age(self, holds, k):
        # a strict total order
        els = range(k)
        return (not any(holds("lt", a, a) for a in els)
                and all(holds("lt", a, b) != holds("lt", b, a)
                        for a, b in itertools.combinations(els, 2))
                and _transitive(holds, "lt", k))


class RandomGraph(Theory):
    id = "randomgraph"
    relations = ("adj",)

    def in_age(self, holds, k):
        # irreflexive and symmetric
        els = range(k)
        return (not any(holds("adj", a, a) for a in els)
                and all(holds("adj", a, b) == holds("adj", b, a)
                        for a, b in itertools.combinations(els, 2)))


class EquivInf(Theory):
    id = "equivinf"
    relations = ("equiv",)

    def in_age(self, holds, k):
        # an equivalence
        els = range(k)
        return (all(holds("equiv", a, a) for a in els)
                and all(holds("equiv", a, b) == holds("equiv", b, a)
                        for a, b in itertools.combinations(els, 2))
                and _transitive(holds, "equiv", k))


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

# A dict, not `functools.cache`: bench/traced.py counts its entries.
_QE_CACHE: dict[tuple[str, Formula], Formula] = {}


def _eliminate(theory: Theory, v: VarRef, lits: list[Formula]) -> Formula:
    """The existential over `v` of the conjunction of `lits`, normalised
    literals that all name v.  A positive equality v = w puts w for v in the
    other literals, normalised again (`PairCodes.literal`); without one, the
    pairwise rule on the codes decides (`PairCodes.eliminate`)."""
    pc = pair_codes(theory)
    eq = next((lit for lit in lits if isinstance(lit, Eq)), None)
    if eq is None:
        return pc.eliminate(v, lits)
    w = eq.rhs if eq.lhs == v else eq.lhs
    out = []
    for lit in lits:
        if lit is not eq:
            negated = isinstance(lit, Not)
            atom = lit.sub if negated else lit
            out.append(pc.literal(negated, identify_vars(atom, {v: w})))
    return conj(out)


def _literals(pc: PairCodes, vs) -> list[Formula]:
    """The normalised literals over the variables `vs`, in `sort_key` order."""
    atoms = [Eq(a, b) for a in vs for b in vs] + [
        Atom(rel, args) for rel in pc.rel_names
        for args in itertools.product(vs, repeat=2)]
    lits = {pc.literal(negated, atom) for atom in atoms for negated in (False, True)}
    return sorted((l for l in lits if isinstance(l, (Atom, Eq, Not))), key=sort_key)


@functools.cache
def _clash(theory: Theory, l: Formula) -> frozenset:
    """Every normalised literal that contradicts `l`: its complement, and
    the literals m over `l`'s two variables whose code mask is disjoint from
    `l`'s, so that no pair code meets both.  Other literals share at most
    one variable with `l`, and pair diagrams that share one amalgamate, so
    none contradicts `l`."""
    pc = pair_codes(theory)
    vs = sorted(free_vars(l))
    index = {vs[0]: 0, vs[1]: 1}
    mask = pc.mask(l, index)
    return frozenset([neg(l)] + [
        m for m in _literals(pc, vs) if not mask & pc.mask(m, index)])


class _Elimination:
    """One quantifier elimination.  Formulas are hash-consed DAGs in which a
    subformula recurs (a defining clause holds phi_k under both polarities),
    so the walks are memoised per node: NNF per (node, polarity), DNF per
    node.  The memos live as long as the elimination, so nothing outlives
    one `eliminate_quantifiers` miss and `DNF_CUBE_CAP` bounds the cubes of
    each node as it is expanded.  An existential takes the DNF only of what
    is left after two miniscoping rules (`exists_one`): exists v (A | B) is
    (exists v A) | (exists v B), and exists v (A & B) is A & exists v B
    when v is not free in A."""

    __slots__ = ("theory", "pc", "_nnfs", "_dnfs")

    def __init__(self, theory: Theory):
        self.theory = theory
        self.pc = pair_codes(theory)
        self._nnfs: dict[tuple[Formula, bool], Formula] = {}
        self._dnfs: dict[Formula, list[frozenset]] = {}

    def nnf(self, f: Formula, negated: bool) -> Formula:
        """`f`, negated if asked, with negations pushed to the literals and
        each literal normalised; a relation the theory does not list is refused."""
        key = (f, negated)
        hit = self._nnfs.get(key)
        if hit is None:
            hit = self._nnfs[key] = self._nnf_node(f, negated)
        return hit

    def _nnf_node(self, f: Formula, negated: bool) -> Formula:
        theory = self.theory
        if isinstance(f, Top):
            return FALSE if negated else TRUE
        if isinstance(f, Bot):
            return TRUE if negated else FALSE
        if isinstance(f, Atom):
            theory.check_relation(f)
        if isinstance(f, (Atom, Eq)):
            return self.pc.literal(negated, f)
        if isinstance(f, Not):
            return self.nnf(f.sub, not negated)
        if isinstance(f, And):
            parts = [self.nnf(c, negated) for c in f.children]
            return disj(parts) if negated else conj(parts)
        if isinstance(f, Or):
            parts = [self.nnf(c, negated) for c in f.children]
            return conj(parts) if negated else disj(parts)
        if isinstance(f, Implies):
            if negated:
                return conj([self.nnf(f.lhs, False), self.nnf(f.rhs, True)])
            return disj([self.nnf(f.lhs, True), self.nnf(f.rhs, False)])
        body = self.nnf(f.body, negated)
        if isinstance(body, (Top, Bot)):
            return body
        node = (Forall if negated else Exists) if isinstance(f, Exists) else \
            (Exists if negated else Forall)
        return node(f.var, body)

    def dnf(self, f: Formula) -> list[frozenset]:
        """The cubes of the NNF formula `f`, each a set of literals, with
        cubes that hold a clashing pair (`_clash`) pruned as they are joined."""
        hit = self._dnfs.get(f)
        if hit is None:
            hit = self._dnfs[f] = self._dnf_node(f)
        return hit

    def _dnf_node(self, f: Formula) -> list[frozenset]:
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
                for cube in self.dnf(c):
                    if cube not in seen:
                        seen.add(cube)
                        out.append(cube)
            return out
        if isinstance(f, And):
            theory = self.theory
            cubes = [frozenset()]
            for c in f.children:
                nxt = []
                seen = set()
                for add in self.dnf(c):
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

    def exists_one(self, v: VarRef, qf: Formula) -> Formula:
        """The existential over `v` of the NNF quantifier-free `qf`,
        miniscoped before any DNF is taken: it distributes over the
        disjuncts of an `Or`, and the conjuncts of an `And` without v stay
        outside it.  The DNF of what is left is eliminated cube by cube."""
        if v not in free_vars(qf):
            return qf
        if isinstance(qf, Or):
            return disj(self.exists_one(v, c) for c in qf.children)
        if isinstance(qf, And):
            outside = [c for c in qf.children if v not in free_vars(c)]
            if outside:
                inside = conj(c for c in qf.children if v in free_vars(c))
                return conj(outside + [self.exists_one(v, inside)])
        # cubes of one DNF share few distinct sets of literals on v
        reduced: dict[frozenset, Formula] = {}
        out = []
        for cube in self.dnf(qf):
            with_v = frozenset(l for l in cube if v in free_vars(l))
            if with_v not in reduced:
                reduced[with_v] = _eliminate(self.theory, v, sorted(with_v, key=sort_key))
            rest = [l for l in cube if v not in free_vars(l)]
            out.append(conj(rest + [reduced[with_v]]))
        return disj(out)

    def elim(self, f: Formula) -> Formula:
        """QE of the NNF formula `f`, inside out."""
        if isinstance(f, (Top, Bot, Atom, Eq, Not)):
            return f
        if isinstance(f, And):
            return conj(self.elim(c) for c in f.children)
        if isinstance(f, Or):
            return disj(self.elim(c) for c in f.children)
        if isinstance(f, Exists):
            return self.exists_one(f.var, self.elim(f.body))
        if isinstance(f, Forall):
            # forall v. g is not exists v. not g
            negated = self.nnf(self.elim(f.body), True)
            return self.nnf(self.exists_one(f.var, negated), True)
        raise InternalConsistencyError("unexpected node after NNF")


def eliminate_quantifiers(f: Formula, theory) -> Formula:
    """Quantifier-free formula equivalent to `f` modulo the theory, with
    normalised literals and canonically ordered connectives."""
    theory = get_theory(theory)
    key = (theory.id, f)
    hit = _QE_CACHE.get(key)
    if hit is None:
        qe = _Elimination(theory)
        hit = _QE_CACHE[key] = qe.elim(qe.nnf(f, False))
    return hit


# -- complete types ----------------------------------------------------------

class CompleteType(Record):
    """A complete quantifier-free diagram over a k-tapes-by-n-positions grid.
    Variable (tape, pos) maps to index tape*n + pos; `classes` is the
    equality partition in restricted-growth form and `between` the pair-code
    tuple of the classes, which are all distinct (`PairCodes`): the code of
    classes a < b sits at `pair_index(a, b)`.  Diagrams of one pool share
    their `between` tuples."""

    __slots__ = ("theory_id", "k", "n", "classes", "between")

    def __init__(self, theory_id: str, k: int, n: int, classes: tuple[int, ...],
                 between: tuple[int, ...]):
        _set(self, "theory_id", theory_id)
        _set(self, "k", k)
        _set(self, "n", n)
        _set(self, "classes", classes)
        _set(self, "between", between)

    # spelled out, not `Record`'s field walk: `_is_pullback`, `_drop_dummies`
    # and `realisations` hash a diagram per pool member or scanned entry
    def __eq__(self, other):
        if type(other) is not CompleteType:
            return NotImplemented
        return (self.theory_id, self.k, self.n, self.classes, self.between) == \
            (other.theory_id, other.k, other.n, other.classes, other.between)

    def __hash__(self):
        return hash((self.theory_id, self.k, self.n, self.classes, self.between))

    def num_classes(self) -> int:
        return max(self.classes, default=-1) + 1

    def diagram_formula(self) -> Formula:
        """Minimal conjunction pinning the whole diagram: each variable is
        tied to its class representative and each representative pair is
        pinned by the pinning literals of its code (`PairCodes.pins`).  The
        literals come from the grid's literal table
        (`PairCodes.literal_table`) in rank order, so the value equals `conj`
        of them without `conj`'s sorting."""
        lits = [lit for _, lit, _ in _DiagramLiterals(self.theory_id, self.k, self.n)(self)]
        if len(lits) > 1:
            return And(tuple(lits))
        return lits[0] if lits else TRUE

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
        classes = tuple([remap.setdefault(self.classes[i], len(remap)) for i in idx])
        kept = list(remap)  # the kept classes, by their new numbers
        conv, between = pair_codes(self.theory_id).converse, self.between
        sub = tuple([between[pair_index(a, b)] if a < b else conv[between[pair_index(b, a)]]
                     for j, b in enumerate(kept) for a in kept[:j]])
        return CompleteType(self.theory_id, k, n, classes, sub)


class _DiagramLiterals:
    """The literal-table entries (`PairCodes.literal_table`) of a theory's
    diagrams on the k-by-n grid, sorted by rank, from memoised parts.  Per
    equality partition: its class representatives (`classes` is in
    restricted-growth form, so class c's is the c-th variable to start a
    class) and the entries of the equalities tying every other variable to
    its representative.  Per (representatives, `between`): the entries of the
    codes of the representative pairs.  A diagram's entries are the two
    lists merged by rank.  The memos live as long as this object."""

    __slots__ = ("eq", "table", "_parts", "_codes")

    def __init__(self, theory_id: str, k: int, n: int):
        pc = pair_codes(theory_id)
        self.eq = pc.eq
        self.table = pc.literal_table(k, n)
        self._parts: dict[tuple[int, ...], tuple] = {}
        self._codes: dict[tuple[tuple[int, ...], tuple[int, ...]], list] = {}

    def __call__(self, t: CompleteType) -> list[tuple[int, Formula, str]]:
        part = self._parts.get(t.classes)
        if part is None:
            reps: list[int] = []
            eqs = []
            for j, c in enumerate(t.classes):
                if c < len(reps):
                    eqs += self.table[j * (j - 1) // 2 + reps[c]][self.eq]
                else:
                    reps.append(j)
            eqs.sort(key=itemgetter(0))
            part = self._parts[t.classes] = (tuple(reps), eqs)
        reps, eqs = part
        key = (reps, t.between)
        codes = self._codes.get(key)
        if codes is None:
            codes = []
            for b, j in enumerate(reps):
                row, crow = j * (j - 1) // 2, b * (b - 1) // 2
                for a, i in enumerate(reps[:b]):
                    codes += self.table[row + i][t.between[crow + a]]
            codes.sort(key=itemgetter(0))
            self._codes[key] = codes
        return sorted(eqs + codes, key=itemgetter(0))


def diagram_texts(types: list[CompleteType]) -> list[str]:
    """`render_formula(t.diagram_formula())` for each diagram `t` of
    `types`, joined from the literal table's rendered texts; diagrams on one
    grid share memoised parts for this call."""
    grids: dict[tuple[str, int, int], _DiagramLiterals] = {}
    out = []
    for t in types:
        grid = (t.theory_id, t.k, t.n)
        entries = grids.get(grid)
        if entries is None:
            entries = grids[grid] = _DiagramLiterals(*grid)
        texts = [text for _, _, text in entries(t)]
        out.append("(" + " & ".join(texts) + ")" if len(texts) > 1
                   else texts[0] if texts else "true")
    return out


def _partitions(m: int) -> list[tuple[int, ...]]:
    """The equality partitions of m variables in restricted-growth form, in
    lexicographic order: each partition of j variables, in order, extended
    by every class the next variable can join or start."""
    parts = [()]
    for _ in range(m):
        parts = [p + (c,) for p in parts for c in range(max(p, default=-1) + 2)]
    return parts


def _diagrams(theory: Theory, m: int) -> list[CompleteType]:
    """Every m-variable diagram in pool order, by equality partition and
    then by class tables (`PairCodes.class_tables`), as a product: a
    diagram is consistent iff its diagram on its classes is, so the pool is
    each equality partition times the all-distinct code tuples of its c
    classes.  The tuples on c + 1 classes are those on c, each extended by
    a new class (`PairCodes._one_point`), and each list is sorted once by
    its class tables; partitions come in lexicographic order, so the
    product is in pool order.  Diagrams with equal `between` tuples share
    one.  The pool has sum_c S(m, c) |D_c| diagrams, S(m, c) the partitions
    of m variables into c classes and D_c the tuples on c classes; a pool
    whose sum passes `POOL_CAP` is refused as soon as it does, before any
    diagram is built."""
    pc = pair_codes(theory)
    stirling = [1] + [0] * m   # S(j, c) for c <= m, from j = 0 to m
    for j in range(m):
        for c in range(j + 1, 0, -1):
            stirling[c] = c * stirling[c] + stirling[c - 1]
        stirling[0] = 0
    tuples = [[()]]
    size = stirling[0]
    for c in range(m):
        tuples.append([b + v for b in tuples[c]
                       for v, joined in pc._one_point(b, c, None) if joined < 0])
        size += stirling[c + 1] * len(tuples[c + 1])
        if size > POOL_CAP:
            raise ResourceCapError(
                f"pool of at least {size} diagrams on {m} variables exceeds the cap {POOL_CAP}",
                cap="pool-size", limit=POOL_CAP, observed=size)
    for c, level in enumerate(tuples):
        level.sort(key=lambda b: pc.class_tables(b, c))
    return [CompleteType(theory.id, 1, m, classes, between)
            for classes in _partitions(m)
            for between in tuples[max(classes, default=-1) + 1]]


# A dict, not `functools.cache`: bench/traced.py reads its entries.
_DIAGRAM_CACHE: dict[tuple[str, int], list[CompleteType]] = {}


def check_grid_cap(m: int) -> None:
    if m > GRID_CAP:
        raise ResourceCapError(
            f"grid of {m} variables exceeds the enumeration cap {GRID_CAP}",
            cap="max-grid", limit=GRID_CAP, observed=m)


def diagrams_over(theory, m: int) -> list[CompleteType]:
    theory = get_theory(theory)
    check_grid_cap(m)
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


def grid_index(k: int, n: int) -> dict[VarRef, int]:
    """Variable (t, p) of the k-by-n grid -> its index t*n + p."""
    return {VarRef(t, p): t * n + p for t in range(k) for p in range(n)}


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


@functools.cache
def _class_pairs(c: int) -> tuple:
    """The pairs a < b of c classes in pair order, their converses and the
    pairs (t, t), built once so that relation tables share them."""
    pairs = tuple((a, b) for b in range(c) for a in range(b))
    return pairs, tuple((b, a) for a, b in pairs), tuple((t, t) for t in range(c))


def _tables(names: tuple[str, ...], diagonal: tuple[bool, ...], flags, c: int) -> tuple:
    """Per relation, the sorted pairs of c classes it holds on, given
    whether it is reflexive and, per class pair a < b in pair order, the
    pair's flags: relation x's value from a to b at 2x, from b to a at 2x+1."""
    pairs, converses, same = _class_pairs(c)
    out = []
    for x, rel in enumerate(names):
        table = [p for p, f in zip(pairs, flags) if f[2 * x]]
        table += [p for p, f in zip(converses, flags) if f[2 * x + 1]]
        if diagonal[x]:
            table += same
        table.sort()
        out.append((rel, tuple(table)))
    return tuple(out)


def _structure(names: tuple[str, ...], diagonal: tuple[bool, ...], flags):
    """The relation values on the distinct elements 0, 1, 2, ... as
    `Theory.in_age` reads them, `holds(rel, a, b)`: each relation's value on
    one element is its `diagonal` entry, and the pair a < b carries the
    flags `flags[pair_index(a, b)]`, relation x's value from a to b at 2x
    and from b to a at 2x+1."""
    def holds(rel, a, b):
        x = names.index(rel)
        if a == b:
            return diagonal[x]
        return flags[pair_index(min(a, b), max(a, b))][2 * x + (a > b)]
    return holds


class PairCodes:
    """One theory's diagrams as pair-code tuples, read off its age
    (`Theory.in_age`) without quantifier elimination.

    The pair diagrams are the relation values, on one element and both ways
    between two distinct ones, of the age's structures on one and two
    elements; this is the only place that holds relation values, and
    `codes_to` is their one reader.  `diagonal` is each relation's value on
    one element (it is the same on every element).  Code 0 is equality and
    the other codes number the pair diagrams of two distinct elements in
    pool order (`_diagrams`), so a code is the index of its pair diagram in
    `diagrams_over(theory, 2)`.  The code of the pair i < j of a diagram is
    that of its sub-diagram on (i, j) with i read as x0.  `pins[code]` is a
    shortest list of normalised literals on (x0, x1) that holds of that code
    alone.  `triples[a][b]` is the bit set of the codes c such that codes
    a, b, c on the pairs (h, i), (h, j), (i, j) of h < i < j occur together
    in a 3-variable diagram.  Where two of h, i, j are equal the row is
    fixed (c is b when h = i, the converse of a when h = j, and equality
    when i = j needs a = b); three distinct elements are the age's.

    QE's rules are read off the same codes.  `forms[mask]` is the normal
    form on (x0, x1) of the codes in `mask`: true for all codes, false for
    none, else the disjunction of the fewest positive atoms whose masks
    partition it, else one negated atom; of atoms with one mask the
    `sort_key`-least stands for all.  A literal is the form of its mask
    (`literal`).  `eliminate` decides a one-point extension pair by pair,
    by the triple table, which is exact only when codes to the partners
    that fit two at a time fit all at once: it holds for these four
    theories (an order's lower bounds below its upper bounds, the graph's
    and the equivalence's demands conflicting two at a time).
    """

    def __init__(self, theory: Theory):
        self.theory_id = theory.id
        self.rel_names = names = theory.relations
        bits = (False, True)
        diagonals = [d for d in itertools.product(bits, repeat=len(names))
                     if theory.in_age(_structure(names, d, ()), 1)]
        if len(diagonals) != 1:
            raise InternalConsistencyError("pair codes need a unique 1-variable diagram")
        self.diagonal = diagonal = diagonals[0]
        width = 2 * len(names)
        distinct = [f for f in itertools.product(bits, repeat=width)
                    if theory.in_age(_structure(names, diagonal, (f,)), 2)]
        # an equal pair's flags are the diagonals; its classes (0, 0) put it
        # before the distinct pairs in pool order
        self.eq = eq = 0
        self._flags = flags = [tuple(diagonal[i // 2] for i in range(width))] + sorted(
            distinct, key=lambda f: _tables(names, diagonal, [f], 2))
        self.full = (1 << len(flags)) - 1
        self._code_of = {f: c for c, f in enumerate(flags) if c != eq}
        self.converse = tuple(c if c == eq else
                              self._code_of[tuple(f[i ^ 1] for i in range(len(f)))]
                              for c, f in enumerate(flags))
        # per relation: the codes on which it holds from x0 to x1, from x1
        # to x0, and its diagonal
        on = [sum(1 << c for c, f in enumerate(flags) if f[i]) for i in range(width)]
        self._rel_masks = {r: (on[2 * x], on[2 * x + 1], diagonal[x]) for x, r in enumerate(names)}
        pair = {_X0: 0, _X1: 1}
        atoms: dict[int, Formula] = {}   # per mask, its sort_key-least atom
        for atom in sorted([Eq(_X0, _X1)] + [Atom(r, args) for r in names
                                             for args in ((_X0, _X1), (_X1, _X0))], key=sort_key):
            atoms.setdefault(self.mask(atom, pair), atom)
        self.forms = forms = {0: FALSE, self.full: TRUE}
        for size in range(1, len(atoms) + 1):
            for part in itertools.combinations(atoms.items(), size):
                union = functools.reduce(or_, (m for m, _ in part))
                if union.bit_count() == sum(m.bit_count() for m, _ in part):
                    forms.setdefault(union, disj(a for _, a in part))
        for m, atom in atoms.items():
            forms.setdefault(self.full ^ m, Not(atom))
        lits = _literals(self, (_X0, _X1))
        masks = {lit: self.mask(lit, pair) for lit in lits}
        codes = range(len(flags))
        # the first of the shortest literal lists whose masks meet in the code
        self.pins = tuple(next(list(ls) for size in range(len(lits) + 1)
                               for ls in itertools.combinations(lits, size)
                               if functools.reduce(and_, map(masks.get, ls), self.full) == 1 << c)
                          for c in codes)
        self._bits = tuple(tuple(c for c in codes if mask >> c & 1)
                           for mask in range(self.full + 1))

        def closing(a, b):
            if a == eq:
                return 1 << b
            if b == eq:
                return 1 << self.converse[a]
            return (1 << eq if a == b else 0) | sum(
                1 << c for c in codes if c != eq
                and theory.in_age(_structure(names, diagonal, (flags[a], flags[b], flags[c])), 3))
        self.triples = tuple(tuple(closing(a, b) for b in codes) for a in codes)
        self._one_point_cache: dict = {}   # a dict, so ONE_POINT_CACHE_CAP can bound it
        self._one_point_cached = 0

    @functools.cache
    def _form(self, mask: int, a: VarRef, b: VarRef) -> Formula:
        """The form of the code mask `mask` on the pair (a, b), a read as
        x0; memoised per mask and pair."""
        return substitute_vars(self.forms[mask], {_X0: a, _X1: b})

    def _toward(self, atom: Formula, v: VarRef) -> tuple[VarRef, int]:
        """For an atom on v and one other variable w: w, and the mask of the
        codes on (v, w), v read as x0, on which the atom holds."""
        if isinstance(atom, Eq):
            return atom.rhs if atom.lhs == v else atom.lhs, 1 << self.eq
        (a, b), (fwd, bwd, _) = atom.args, self._rel_masks[atom.rel]
        return (b, fwd) if a == v else (a, bwd)

    def literal(self, negated: bool, atom: Formula) -> Formula:
        """The normal form of the atom `atom`, negated if asked: the form of
        its code mask on its two variables in order, or true or false when
        they are one variable."""
        vs = sorted(atom.free_vars)
        if len(vs) == 1:
            holds = isinstance(atom, Eq) or self._rel_masks[atom.rel][2]
            return FALSE if holds == negated else TRUE
        w, mask = self._toward(atom, vs[0])
        return self._form(mask ^ self.full if negated else mask, vs[0], w)

    def eliminate(self, v: VarRef, lits: list[Formula]) -> Formula:
        """The existential over `v` of the conjunction of `lits`, normalised
        literals that all name v and none of them a positive equality.  Per
        partner w, the literals on (v, w) allow the codes of a mask, v read
        as x0; an empty mask is false.  Otherwise, per partners w < w', the
        codes that the triple table lets close on (w, w') for some allowed
        codes on (v, w) and (v, w') are what the existential leaves there."""
        full, masks = self.full, {}
        for lit in lits:
            negated = isinstance(lit, Not)
            w, mask = self._toward(lit.sub if negated else lit, v)
            masks[w] = masks.get(w, full) & (mask ^ full if negated else mask)
        if not all(masks.values()):
            return FALSE
        ws = sorted(masks)
        parts = []
        for j, w2 in enumerate(ws):
            for w in ws[:j]:
                allowed = 0
                for x in self._bits[masks[w]]:
                    row = self.triples[x]
                    for y in self._bits[masks[w2]]:
                        allowed |= row[y]
                parts.append(self._form(allowed, w, w2))
        return conj(parts)

    @functools.cache
    def literal_table(self, k: int, n: int) -> tuple:
        """The literals that pin each pair of the k-by-n grid: entry
        [pair_index(i, j)][code] lists (rank, literal, text) for the pair
        i < j holding `code`, where rank is the literal's position in the
        `sort_key` order of every literal in the table and text is its
        rendering.  The literals are `pins[code]` on (v_i, v_j).  Built on
        first use per grid and kept."""
        vs = [VarRef(t, p) for t in range(k) for p in range(n)]
        rows = [[[substitute_vars(lit, {_X0: a, _X1: b}) for lit in pins] for pins in self.pins]
                for j, b in enumerate(vs) for a in vs[:j]]
        order = sorted({lit for row in rows for lits in row for lit in lits}, key=sort_key)
        rank = {lit: r for r, lit in enumerate(order)}
        return tuple(tuple(tuple((rank[lit], lit, render_formula(lit)) for lit in lits)
                           for lits in row) for row in rows)

    def codes_of(self, t: CompleteType) -> tuple[int, ...]:
        between, eq, conv = t.between, self.eq, self.converse
        return tuple(eq if a == b else between[pair_index(a, b)] if a < b
                     else conv[between[pair_index(b, a)]]
                     for j, b in enumerate(t.classes) for a in t.classes[:j])

    @functools.cache
    def class_tables(self, between: tuple[int, ...], c: int) -> tuple:
        """Per relation, the sorted pairs of the c classes with the
        all-distinct code tuple `between` that it holds on: the pool order's
        second key.  Built once per distinct `between` and kept."""
        return _tables(self.rel_names, self.diagonal, [self._flags[code] for code in between], c)

    def codes_to(self, atomic, reps: list, e) -> tuple[int, ...] | None:
        """The codes of the pairs (r, e), r in `reps`, where each relation
        rel holds from a to b iff `atomic(rel, a, b)`; None if e's own values
        are not the diagonal or a pair's values both ways have no code, so
        that no consistent diagram has them.  e is taken as distinct from
        every r, so no code is the equality code."""
        names = self.rel_names
        if tuple(atomic(rel, e, e) for rel in names) != self.diagonal:
            return None
        codes = tuple(self._code_of.get(tuple(atomic(rel, *way) for rel in names
                                              for way in ((r, e), (e, r))))
                      for r in reps)
        return None if None in codes else codes

    def mask(self, f: Formula, index: dict[VarRef, int]) -> int:
        """Codes of the pair of grid variables that the quantifier-free `f`
        names (at most two) on which it holds, read off the relation values
        of the pair diagrams; all or none if it names fewer than two."""
        vs = sorted(free_vars(f), key=index.__getitem__)
        if len(vs) > 2:
            raise PreconditionError("a code mask needs at most two variables")
        full = self.full

        def holds(g: Formula) -> int:
            if isinstance(g, (Top, Bot)):
                return full if isinstance(g, Top) else 0
            if isinstance(g, Eq):
                return full if g.lhs == g.rhs else 1 << self.eq
            if isinstance(g, Atom):  # the first variable of the pair is x0
                if len(g.args) != 2 or g.rel not in self._rel_masks:
                    get_theory(self.theory_id).check_relation(g)
                fwd, bwd, diagonal = self._rel_masks[g.rel]
                a, b = g.args
                return (full if diagonal else 0) if a == b else fwd if a == vs[0] else bwd
            if isinstance(g, Not):
                return full ^ holds(g.sub)
            if isinstance(g, Implies):
                return (full ^ holds(g.lhs)) | holds(g.rhs)
            if isinstance(g, And):
                return functools.reduce(and_, map(holds, g.children), full)
            if isinstance(g, Or):
                return functools.reduce(or_, map(holds, g.children), 0)
            raise PreconditionError("a code mask needs a quantifier-free formula")
        return holds(f)

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

    def select(self, pool, f: Formula, index: dict[VarRef, int]) -> list[CompleteType]:
        """The diagrams of `pool`, on the grid that `index` numbers, on
        which the quantifier-free `f` holds.  Unless `f` names two variables
        or more, it holds on all of them or none: then none is tested, and
        all of them is `pool` itself."""
        if len(free_vars(f)) < 2:
            return pool if self.mask(f, index) else []
        test = self.predicate(f, index)
        return [d for d in pool if test(self.codes_of(d))]

    def _extend(self, codes, between, c, classes, m, units, checks):
        """The code tuple of each diagram over m variables that extends the
        diagram on the first len(classes) variables with code tuple
        `codes`: `classes` is its equality partition in restricted-growth
        form, c its number of classes and `between` the code tuple of the
        classes (all distinct)."""
        j = len(classes)
        if j == m:
            yield codes
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
            if j + 1 == m:
                yield ext
            elif joined < 0:
                yield from self._extend(ext, between + v, c + 1, classes + (c,), m,
                                        units, checks)
            else:
                yield from self._extend(ext, between, c, classes + (joined,), m,
                                        units, checks)

    def _one_point(self, between, c, masks):
        """The ways a new variable relates to c classes with the all-distinct
        code tuple `between`: one code per class (within `masks`, if given),
        chosen class by class against the triple table, each with the class
        the variable joins (-1 if it starts its own).  With one-code masks
        this checks a given code tuple: it is the only way, or none if some
        triple closing on the new variable is forbidden.  They depend on the
        classes alone, so they are cached; the cache is emptied when full.
        The key holds c, since `between` is () for both c = 0 and c = 1."""
        key = (between, c, masks)
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


# One PairCodes per theory, so the method caches keep no other instance alive.
_pair_codes = functools.cache(PairCodes)


def pair_codes(theory) -> PairCodes:
    """The one `PairCodes` of a theory or theory id, built on first use."""
    return _pair_codes(get_theory(theory))


def _pruning(pc: PairCodes, k: int, n: int, qf: Formula):
    """Per new variable j: the (i, mask) code masks that the constraint's
    conjuncts over two variables put on the pairs (i, j), and the tests of
    its wider conjuncts whose last variable is j.  None if a conjunct over
    fewer than two variables fails."""
    m = k * n
    index = grid_index(k, n)
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


def diagram_codes(theory, k: int, n: int, constraint: Formula = TRUE, *,
                  prefix: CompleteType | None = None):
    """Stream the pair-code tuples of the diagrams on the k-by-n grid
    (variable (t, p) is t*n + p) that are consistent with the theory and the
    quantifier-free `constraint` and extend the diagram `prefix` on the
    grid's first variables (none if omitted), one variable at a time
    (`PairCodes._extend`).  A conjunct of the constraint is tested once its
    last variable is placed, a conjunct over one pair as a code mask on that
    pair; conjuncts within the prefix are taken as met.  Deterministic
    order; results are not cached and no size cap applies."""
    theory = get_theory(theory)
    pc = pair_codes(theory)
    if prefix is None:
        prefix = CompleteType(theory.id, 1, 0, (), ())
    if len(prefix.classes) > k * n:
        raise PreconditionError("prefix has more variables than the grid")
    pruning = _pruning(pc, k, n, constraint)
    if pruning is None:
        return iter(())
    return pc._extend(pc.codes_of(prefix), prefix.between, prefix.num_classes(),
                      prefix.classes, k * n, *pruning)


def enumerate_types(theory, k: int, n: int, constraint: Formula) -> list[CompleteType]:
    """All complete types on a k-tapes-by-n-positions grid consistent with
    the theory and with `constraint`, in deterministic order."""
    theory = get_theory(theory)
    if k < 1 or n < 0:
        raise PreconditionError("need k >= 1 and n >= 0")
    index = grid_index(k, n)
    if not free_vars(constraint) <= index.keys():
        raise PreconditionError("constraint has variables outside the grid")
    qf = eliminate_quantifiers(constraint, theory)
    selected = pair_codes(theory).select(diagrams_over(theory, k * n), qf, index)
    if k == 1:  # the pool's diagrams are the 1-by-n types
        return list(selected)
    return [CompleteType(theory.id, k, n, d.classes, d.between) for d in selected]


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
    sat = pair_codes(theory).select(diagrams_over(theory, len(vs)), qf,
                                    {v: i for i, v in enumerate(vs)})
    vs, sat = _drop_dummies(theory, vs, sat)
    if not sat:
        return FALSE
    if len(sat) == len(diagrams_over(theory, len(vs))) or not vs:
        return TRUE
    back = {VarRef(0, i): v for i, v in enumerate(vs)}
    return disj(substitute_vars(d.diagram_formula(), back) for d in sat)


def depends_on_all_vars(theory, m: int, sat: set[CompleteType]) -> bool:
    """True iff the set `sat` of diagrams of the m-variable pool is not a
    pullback along forgetting any single variable (and is neither empty nor
    everything)."""
    theory = get_theory(theory)
    if not sat or len(sat) == len(diagrams_over(theory, m)):
        return False
    return not any(_is_pullback(theory, m, drop, sat) for drop in range(m))


def _is_pullback(theory: Theory, m: int, drop: int, sat: set[CompleteType]) -> bool:
    """True iff membership in the set `sat` of diagrams of the m-variable
    pool is constant on each fibre of forgetting variable `drop`."""
    keep = [i for i in range(m) if i != drop]
    verdicts: dict[CompleteType, bool] = {}
    for d in diagrams_over(theory, m):
        inside = d in sat
        if verdicts.setdefault(d.restrict_vars(keep), inside) != inside:
            return False
    return True


def _drop_dummies(theory: Theory, vs: list[VarRef], sat: list[CompleteType]):
    """Remove variables the satisfying set does not depend on, the last
    such variable first."""
    while vs:
        members = set(sat)
        drop = next((i for i in reversed(range(len(vs)))
                     if _is_pullback(theory, len(vs), i, members)), None)
        if drop is None:
            break
        keep = [i for i in range(len(vs)) if i != drop]
        sat = list(dict.fromkeys(d.restrict_vars(keep) for d in sat))
        vs = [vs[i] for i in keep]
    return vs, sat
