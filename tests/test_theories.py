import functools
import inspect
import itertools
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgw import theories
from tgw.errors import (InternalConsistencyError, PreconditionError, ResourceCapError,
                        SignatureError)
from tgw.formula import (FALSE, TRUE, And, Atom, Bot, Eq, Exists, Forall,
                         Formula, Implies, Not, Or, Top, VarRef, conj, disj, exists,
                         forall, free_vars, identify_vars, neg, parse_formula,
                         render_formula, sort_key, substitute_vars)
from tgw.models import tuple_type
from tgw.rich import RichSequence
from tgw.theories import (PairCodes, Theory, _clash, _drop_dummies, _eliminate,
                          _Elimination, canonical_form, depends_on_all_vars,
                          diagram_codes, diagrams_over, eliminate_quantifiers,
                          enumerate_types, get_theory, pair_codes, pair_index,
                          restriction_map)

from test_cli import fresh_env
from test_formula import render_tree


def qe(text, theory):
    t = get_theory(theory)
    return eliminate_quantifiers(parse_formula(text, t.relations), t)


def decide_sentence(f, theory):
    """The truth of the sentence `f` as QE decides it: the tests' oracle for
    model evaluation and for the pair facts that `PairCodes` reads off the
    age."""
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


def decide(text, theory):
    t = get_theory(theory)
    return decide_sentence(parse_formula(text, t.relations), t)


# -- the hand-written facts that the package derives by QE (oracles) --------

def set_partitions(m):
    """All partitions of range(m) as restricted-growth strings, in
    lexicographic order."""
    if m == 0:
        yield ()
        return
    rgs = [0] * m

    def rec(i, mx):
        if i == m:
            yield tuple(rgs)
            return
        for c in range(mx + 2):
            rgs[i] = c
            yield from rec(i + 1, max(mx, c))
    yield from rec(1, 0)


def dlo_tables(c):
    # one strict order per permutation of the classes
    return [{"lt": frozenset((order[i], order[j]) for i in range(c) for j in range(i + 1, c))}
            for order in itertools.permutations(range(c))]


def graph_tables(c):
    pairs = list(itertools.combinations(range(c), 2))
    out = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        edges = frozenset(p for p, b in zip(pairs, bits) if b)
        out.append({"adj": edges | frozenset((j, i) for i, j in edges)})
    return out


def equiv_tables(c):
    return [{"equiv": frozenset((i, j) for i in range(c) for j in range(c) if part[i] == part[j])}
            for part in set_partitions(c)]


# the relation tables on c distinct classes
REL_ASSIGNMENTS = {"pureset": lambda c: [{}], "dlo": dlo_tables,
                   "randomgraph": graph_tables, "equivinf": equiv_tables}


def type_key(t):
    """The pool-order key of the diagram `t`: its equality partition and,
    per relation, the sorted pairs of classes it holds on
    (`PairCodes.class_tables`).  `diagrams_over` lists a pool in this
    order."""
    return t.classes, pair_codes(t.theory_id).class_tables(t.between, t.num_classes())


def table_key(classes, tables):
    """`type_key` of the diagram with the equality partition
    `classes` and the relation tables `tables` on its classes, built from
    the tables themselves."""
    return classes, tuple((rel, tuple(sorted(pairs))) for rel, pairs in sorted(tables.items()))


def product_diagrams(theory_id, m):
    """Every m-variable diagram as an equality partition times the relation
    tables on its classes: (key, classes, tables), sorted by key."""
    out = [(table_key(classes, tables), classes, tables)
           for classes in set_partitions(m)
           for tables in REL_ASSIGNMENTS[theory_id](max(classes, default=-1) + 1)]
    return sorted(out, key=lambda row: row[0])


class _TableModel:
    """A stub model whose elements are class numbers and whose relation
    values are the pairs listed in `tables`."""

    def __init__(self, theory_id, tables):
        self.theory = get_theory(theory_id)
        self.tables = tables

    def atomic(self, rel, a, b):
        return (a, b) in self.tables[rel]


def from_tables(theory_id, classes, tables):
    """The 1-by-m diagram with these classes and relation tables, read by
    `tuple_type` as a model's relation values are; None if it refuses
    them."""
    try:
        return tuple_type(_TableModel(theory_id, tables), list(classes))
    except InternalConsistencyError:
        return None


def satisfies_qf(t, f):
    """Whether the quantifier-free `f` holds on the diagram `t`, judged
    literal by literal on the relation tables that `type_key(t)` lists (the
    evaluator the diagrams carried when they held their tables)."""
    tables = dict(type_key(t)[1])

    def cls(v):
        return t.classes[v.tape * t.n + v.position]

    def holds(g):
        if isinstance(g, (Top, Bot)):
            return isinstance(g, Top)
        if isinstance(g, Eq):
            return cls(g.lhs) == cls(g.rhs)
        if isinstance(g, Atom):
            return (cls(g.args[0]), cls(g.args[1])) in tables[g.rel]
        if isinstance(g, Not):
            return not holds(g.sub)
        if isinstance(g, Implies):
            return not holds(g.lhs) or holds(g.rhs)
        return (all if isinstance(g, And) else any)(map(holds, g.children))
    return holds(f)


def pair_literals(theory_id, a, b, forward, backward):
    """Minimal literals pinning one pair of distinct classes, given the
    relation values both ways; literals the theory implies are omitted."""
    ne = Not(Eq(*sorted((a, b))))
    if theory_id == "dlo":  # the strict order implies the inequality
        return [Atom("lt", (a, b) if forward else (b, a))]
    if theory_id == "randomgraph":  # adjacency is irreflexive
        adj = Atom("adj", tuple(sorted((a, b))))
        return [adj] if forward else [ne, Not(adj)]
    if theory_id == "equivinf":  # equivalence is reflexive
        equiv = Atom("equiv", tuple(sorted((a, b))))
        return [equiv, ne] if forward else [Not(equiv)]
    return [ne]


def literal_conflict(theory_id, a, b):
    """Contradiction between two normalised literals beyond the syntactic
    complement; symmetric, and only between literals on the same pair."""
    if isinstance(a, Eq):
        a, b = b, a
    if theory_id == "dlo" and isinstance(a, Atom) and isinstance(b, Atom):
        return a.args == b.args[::-1]  # the order is asymmetric
    if isinstance(a, Eq) or not isinstance(b, Eq):
        return False
    same = {b.lhs, b.rhs}.__eq__
    if theory_id in ("dlo", "randomgraph"):  # both relations are irreflexive
        return isinstance(a, Atom) and same(set(a.args))
    if theory_id == "equivinf":  # equivalence is reflexive
        return isinstance(a, Not) and isinstance(a.sub, Atom) and same(set(a.sub.args))
    return False


# -- the hand-written QE rules (oracles) ---------------------------------------
# Each theory once defined its literal normal form, its single-existential
# rule and the demands that rule reads by hand, beside its age.  They are
# kept here unchanged as the exact oracle of the rules `PairCodes` derives
# from the pair codes and the triple table.

class HandRules:
    id: str = ""

    # every model is infinite, so two distinct elements always exist
    def normalize_literal(self, negated: bool, atom: Formula) -> Formula:
        if isinstance(atom, Eq):
            if atom.lhs == atom.rhs:
                return FALSE if negated else TRUE
            lit = Eq(*sorted((atom.lhs, atom.rhs)))
            return Not(lit) if negated else lit
        raise SignatureError(f"{self.id} has no relation {atom.rel!r}")

    def eliminate_one(self, v: VarRef, lits: list[Formula]) -> Formula:
        """A quantifier-free formula equivalent to the existential over `v`
        of the conjunction of `lits`, normalised literals that all name v.
        None of them is a positive equality: `_eliminate` substitutes those
        away before it calls this hook, so only inequations may remain."""
        raise NotImplementedError

    def _demands(self, v: VarRef, lits: list[Formula]):
        """Positive and negative relation partners of v; negated equalities
        place no constraint on a fresh witness and are dropped."""
        pos, negs = [], []
        for lit in lits:
            negated = isinstance(lit, Not)
            atom = lit.sub if negated else lit
            if isinstance(atom, Eq):
                continue
            w = atom.args[1] if atom.args[0] == v else atom.args[0]
            (negs if negated else pos).append(w)
        return pos, negs


class HandPureSet(HandRules):
    id = "pureset"

    def eliminate_one(self, v, lits):
        return TRUE  # only inequations remain; the model is infinite


class HandDenseLinearOrder(HandRules):
    id = "dlo"

    def normalize_literal(self, negated, atom):
        if isinstance(atom, Eq):
            if atom.lhs == atom.rhs:
                return FALSE if negated else TRUE
            a, b = sorted((atom.lhs, atom.rhs))
            if negated:  # a != b  <=>  a < b or b < a
                return disj([Atom("lt", (a, b)), Atom("lt", (b, a))])
            return Eq(a, b)
        a, b = atom.args
        if a == b:
            return TRUE if negated else FALSE
        if negated:  # not a < b  <=>  b < a or a = b
            return disj([Atom("lt", (b, a)), Eq(*sorted((a, b)))])
        return atom

    def eliminate_one(self, v, lits):
        lowers = [l.args[0] for l in lits if isinstance(l, Atom) and l.args[1] == v]
        uppers = [l.args[1] for l in lits if isinstance(l, Atom) and l.args[0] == v]
        # density and lack of endpoints: a witness exists iff every lower
        # bound sits below every upper bound
        return conj(self.normalize_literal(False, Atom("lt", (a, b)))
                    for a in lowers for b in uppers)


class HandRandomGraph(HandRules):
    id = "randomgraph"

    def normalize_literal(self, negated, atom):
        if isinstance(atom, Eq):
            return super().normalize_literal(negated, atom)
        a, b = atom.args
        if a == b:
            return TRUE if negated else FALSE  # adjacency is irreflexive
        lit = Atom("adj", tuple(sorted((a, b))))
        return Not(lit) if negated else lit

    def eliminate_one(self, v, lits):
        pos, negs = self._demands(v, lits)
        # extension axiom: a fresh witness adjacent to all of pos and none of
        # negs exists iff the two demand sets name distinct elements
        return conj(self.normalize_literal(True, Eq(a, b))
                    for a in pos for b in negs)


class HandEquivInf(HandRules):
    id = "equivinf"

    def normalize_literal(self, negated, atom):
        if isinstance(atom, Eq):
            return super().normalize_literal(negated, atom)
        a, b = atom.args
        if a == b:
            return FALSE if negated else TRUE  # reflexive
        lit = Atom("equiv", tuple(sorted((a, b))))
        return Not(lit) if negated else lit

    def eliminate_one(self, v, lits):
        pos, negs = self._demands(v, lits)
        parts = [self.normalize_literal(False, Atom("equiv", (a, b)))
                 for a, b in itertools.combinations(pos, 2)]
        parts += [self.normalize_literal(True, Atom("equiv", (a, b)))
                  for a in pos for b in negs]
        # classes are infinite and there are infinitely many of them, so the
        # pairwise conditions are all that is required
        return conj(parts)


HAND_RULES = {rules.id: rules for rules in
              (HandPureSet(), HandDenseLinearOrder(), HandRandomGraph(), HandEquivInf())}


def hand_eliminate(rules, v, lits):
    """`_eliminate` on the hand rules: a positive equality v = w puts w for
    v in the other literals, and `eliminate_one` decides the rest."""
    eq = next((lit for lit in lits if isinstance(lit, Eq)), None)
    if eq is None:
        return rules.eliminate_one(v, lits)
    w = eq.rhs if eq.lhs == v else eq.lhs
    out = []
    for lit in lits:
        if lit is not eq:
            negated = isinstance(lit, Not)
            atom = lit.sub if negated else lit
            out.append(rules.normalize_literal(negated, identify_vars(atom, {v: w})))
    return conj(out)


def hand_clash(rules, l):
    """`_clash` on the hand rules: the complement of `l`, and the literals m
    over its two variables such that eliminating the later variable from
    `l` and m gives false."""
    vs = sorted(free_vars(l))
    lits = normalized_literals(get_theory(rules.id), vs, rules.normalize_literal)
    return frozenset([neg(l)] + [m for m in lits
                                 if isinstance(hand_eliminate(rules, vs[-1], [l, m]), Bot)])


def use_hand_rules(mp):
    """Make QE run on the hand rules under the monkeypatch `mp`, with empty
    QE and clash caches, so no entry made on the hand rules outlives it."""
    mp.setattr(PairCodes, "literal",
               lambda pc, negated, atom: HAND_RULES[pc.theory_id].normalize_literal(negated, atom))
    mp.setattr(PairCodes, "eliminate",
               lambda pc, v, lits: HAND_RULES[pc.theory_id].eliminate_one(v, lits))
    mp.setattr(theories, "_QE_CACHE", {})
    mp.setattr(theories, "_clash", functools.cache(theories._clash.__wrapped__))


def subsets(items):
    return [ls for size in range(len(items) + 1) for ls in itertools.combinations(items, size)]


@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_derived_rules_are_the_hand_rules(theory_id):
    # every literal over at most three variables, the clash set of each
    # normalised one, and every cube on three partners of v with v at each
    # of four positions: the rules read off the codes give the very formulas
    # of the hand rules
    theory, rules, pc = get_theory(theory_id), HAND_RULES[theory_id], pair_codes(theory_id)
    vs = [VarRef(0, i) for i in range(3)]
    atoms = [Eq(a, b) for a in vs for b in vs]
    atoms += [Atom(rel, (a, b)) for rel in theory.relations for a in vs for b in vs]
    for atom in atoms:
        for negated in (False, True):
            assert pc.literal(negated, atom) is rules.normalize_literal(negated, atom), \
                (negated, atom)
    lits = normalized_literals(theory, vs, rules.normalize_literal)
    assert lits == normalized_literals(theory, vs)
    for l in lits:
        assert _clash(theory, l) == hand_clash(rules, l), l
    grid = [VarRef(0, i) for i in range(4)]
    cubes = 0
    for p, v in enumerate(grid):
        options = [subsets(normalized_literals(theory, [w, v], rules.normalize_literal))
                   for w in grid if w != v]
        for choice in itertools.product(*options):
            cube = sorted((l for ls in choice for l in ls), key=sort_key)
            assert _eliminate(theory, v, cube) is hand_eliminate(rules, v, cube), \
                (render_formula(conj(cube)), v)
            cubes += 1
    assert cubes == 4 * {"pureset": 4, "dlo": 8, "randomgraph": 16, "equivinf": 16}[theory_id] ** 3


def test_theories_define_only_the_one_hook():
    # a theory is its age on at most three elements; every other fact about
    # finite diagrams, QE's rules included, is derived from it
    subclasses = [cls for _, cls in inspect.getmembers(theories, inspect.isclass)
                  if issubclass(cls, Theory) and cls is not Theory]
    assert len(subclasses) == 4
    for cls in subclasses:
        methods = {name for name, value in vars(cls).items()
                   if inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod, property))}
        assert methods == {"in_age"}, (cls.__name__, methods)


# -- pair facts: the age against QE ---------------------------------------------
# `PairCodes` reads the pair diagrams and the triple table off
# `Theory.in_age`, and QE's rules off those; QE on the hand rules derives
# them without the age.

X0, X1, X2 = (VarRef(0, i) for i in range(3))


def occurs(theory, vs, values):
    """Whether distinct elements `vs` carry `values`, a dict from atoms on
    them to bools: QE decides the existential sentence."""
    sentence = conj([neg(Eq(a, b)) for a, b in itertools.combinations(vs, 2)]
                    + [atom if bit else neg(atom) for atom, bit in values.items()])
    for v in reversed(vs):
        sentence = exists(v, sentence)
    return decide_sentence(sentence, theory)


def qe_pair_facts(theory):
    """The pair facts as QE on the hand rules derives them: the relation
    values that occur on one element and on two distinct ones, in pool
    order, their converses and pinning literals, and per codes a, b on
    (x0, x1) and (x0, x2) the codes on (x1, x2) that QE of the existential
    over x0 leaves."""
    with pytest.MonkeyPatch.context() as mp:
        use_hand_rules(mp)
        return _qe_pair_facts(theory)


def _qe_pair_facts(theory):
    names = theory.relations
    bits = (False, True)
    diagonals = [d for d in itertools.product(bits, repeat=len(names))
                 if occurs(theory, [X0], {Atom(r, (X0, X0)): v for r, v in zip(names, d)})]
    assert len(diagonals) == 1
    diagonal = diagonals[0]
    on_each = {Atom(r, (v, v)): d for r, d in zip(names, diagonal) for v in (X0, X1)}
    ways = [Atom(r, args) for r in names for args in ((X0, X1), (X1, X0))]
    distinct = [f for f in itertools.product(bits, repeat=len(ways))
                if occurs(theory, [X0, X1], {**on_each, **dict(zip(ways, f))})]

    def pool_key(f):   # the pair diagram's relation tables on classes (0, 1)
        return table_key((0, 1), {r: {cell for cell, bit in (((0, 1), f[2 * x]),
                                                             ((1, 0), f[2 * x + 1]),
                                                             ((0, 0), diagonal[x]),
                                                             ((1, 1), diagonal[x])) if bit}
                                  for x, r in enumerate(names)})
    distinct.sort(key=pool_key)
    flags = [tuple(diagonal[i // 2] for i in range(len(ways)))] + distinct
    codes = range(len(flags))
    converse = (0,) + tuple(1 + distinct.index(tuple(f[i ^ 1] for i in range(len(f))))
                            for f in distinct)

    def holds(g, c, first):
        """Whether the quantifier-free `g` over two variables holds on them
        when they carry code c, read with `first` as x0."""
        if isinstance(g, (Top, Bot)):
            return isinstance(g, Top)
        if isinstance(g, Eq):
            return g.lhs == g.rhs or c == 0
        if isinstance(g, Atom):
            x = names.index(g.rel)
            a, b = g.args
            return diagonal[x] if a == b else flags[c][2 * x + (a != first)]
        if isinstance(g, Not):
            return not holds(g.sub, c, first)
        return (all if isinstance(g, And) else any)(holds(h, c, first) for h in g.children)

    lits = normalized_literals(theory, [X0, X1])

    def only(ls, c):
        return [d for d in codes if all(holds(l, d, X0) for l in ls)] == [c]
    pins = tuple(next(list(ls) for size in range(len(lits) + 1)
                      for ls in itertools.combinations(lits, size) if only(ls, c))
                 for c in codes)
    triples = []
    for a in codes:
        row = []
        for b in codes:
            pinned = [substitute_vars(lit, {X1: v})
                      for code, v in ((a, X1), (b, X2)) for lit in pins[code]]
            closed = eliminate_quantifiers(exists(X0, conj(pinned)), theory)
            row.append(sum(1 << c for c in codes if holds(closed, c, X1)))
        triples.append(tuple(row))
    return {"diagonal": diagonal, "flags": flags, "converse": converse,
            "pins": pins, "triples": tuple(triples)}


def age_pair_facts(pc):
    return {"diagonal": pc.diagonal, "flags": pc._flags, "converse": pc.converse,
            "pins": pc.pins, "triples": pc.triples}


@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_pair_codes_from_the_age_match_qe(theory_id, monkeypatch):
    theory = get_theory(theory_id)
    expected = qe_pair_facts(theory)
    # the age alone builds them: no QE runs
    for name in ("eliminate_quantifiers", "_eliminate", "_Elimination"):
        monkeypatch.setattr(theories, name, None)
    assert age_pair_facts(PairCodes(theory)) == expected
    # distinct-pair codes, and 3-element structures: 1, the orders of three
    # elements, the graphs on three vertices and the partitions of three
    distinct = range(1, len(expected["flags"]))
    triangles = sum(bin(expected["triples"][a][b] >> 1).count("1") for a in distinct for b in distinct)
    assert (len(distinct), triangles) == \
        {"pureset": (1, 1), "dlo": (2, 6), "randomgraph": (2, 8), "equivinf": (2, 5)}[theory_id]


def test_an_order_without_transitivity_fails_the_qe_oracle():
    class Intransitive(theories.DenseLinearOrder):
        def in_age(self, holds, k):   # dlo's rule without its transitivity
            els = range(k)
            return (not any(holds("lt", a, a) for a in els)
                    and all(holds("lt", a, b) != holds("lt", b, a)
                            for a, b in itertools.combinations(els, 2)))
    theory = get_theory("dlo")
    bad = age_pair_facts(PairCodes(Intransitive()))
    good = qe_pair_facts(theory)
    assert {k for k in good if bad[k] != good[k]} == {"triples"}


# -- independent brute-force oracle over raw bit tables ----------------------
# A raw diagram assigns a bit to every ordered pair for each relation and to
# every unordered pair for equality.  Admissibility is checked on the raw
# bits, without the package's class-based representation.

def brute_force_count(theory_id, m):
    eq_pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rel_pairs = [(i, j) for i in range(m) for j in range(m)]

    def eqv(eqbits, i, j):
        if i == j:
            return True
        return eqbits[(min(i, j), max(i, j))]

    count = 0
    for eqchoice in itertools.product((False, True), repeat=len(eq_pairs)):
        eqbits = dict(zip(eq_pairs, eqchoice))
        # equality must be transitive (reflexive/symmetric by encoding)
        if any(eqv(eqbits, i, j) and eqv(eqbits, j, k) and not eqv(eqbits, i, k)
               for i in range(m) for j in range(m) for k in range(m)):
            continue
        if theory_id == "pureset":
            count += 1
            continue
        for relchoice in itertools.product((False, True), repeat=len(rel_pairs)):
            rel = dict(zip(rel_pairs, relchoice))
            if not congruent(rel, eqbits, eqv, m):
                continue
            if theory_id == "dlo" and dlo_ok(rel, eqbits, eqv, m):
                count += 1
            elif theory_id == "randomgraph" and graph_ok(rel, eqbits, eqv, m):
                count += 1
            elif theory_id == "equivinf" and equiv_ok(rel, eqbits, eqv, m):
                count += 1
    return count


def congruent(rel, eqbits, eqv, m):
    for i in range(m):
        for j in range(m):
            for i2 in range(m):
                for j2 in range(m):
                    if eqv(eqbits, i, i2) and eqv(eqbits, j, j2):
                        if rel[(i, j)] != rel[(i2, j2)]:
                            return False
    return True


def dlo_ok(rel, eqbits, eqv, m):
    for i in range(m):
        for j in range(m):
            if eqv(eqbits, i, j):
                if rel[(i, j)]:
                    return False
            elif rel[(i, j)] == rel[(j, i)]:
                return False
            for k in range(m):
                if rel[(i, j)] and rel[(j, k)] and not rel[(i, k)]:
                    return False
    return True


def graph_ok(rel, eqbits, eqv, m):
    return all(not rel[(i, j)] if eqv(eqbits, i, j) else rel[(i, j)] == rel[(j, i)]
               for i in range(m) for j in range(m))


def equiv_ok(rel, eqbits, eqv, m):
    for i in range(m):
        for j in range(m):
            if eqv(eqbits, i, j) and not rel[(i, j)]:
                return False
            if rel[(i, j)] != rel[(j, i)]:
                return False
            for k in range(m):
                if rel[(i, j)] and rel[(j, k)] and not rel[(i, k)]:
                    return False
    return True


RAW_ORACLES = {"pureset": lambda rel, eqbits, eqv, m: True, "dlo": dlo_ok,
               "randomgraph": graph_ok, "equivinf": equiv_ok}


def raw_bits(theory_id, c):
    """Every raw bit assignment to the cells (i, j) of c distinct classes,
    one bit per cell for the theory's one relation (pureset has none)."""
    cells = [(i, j) for i in range(c) for j in range(c)]
    width = len(get_theory(theory_id).relations)
    return [dict(zip(cells, bits))
            for bits in itertools.product((False, True), repeat=len(cells) * width)]


def oracle_admits(theory_id, c, rel):
    return RAW_ORACLES[theory_id](rel, {}, lambda _, i, j: i == j, c)


def joined_pairs(pairs, c, rng):
    """Raw bits on c distinct classes in which every pair of classes
    carries the bits of one of `pairs`, raw bits on two classes."""
    rel = {}
    for ab in itertools.combinations(range(c), 2):
        rel.update({(ab[i], ab[j]): bit for (i, j), bit in rng.choice(pairs).items()})
    return rel


@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_tuple_type_matches_raw_bit_oracle(theory_id):
    # every raw relation table on c <= 3 distinct classes, and a seeded
    # sample on 4 and 5 classes in which every pair of classes carries the
    # bits of an admitted 2-class table, so that only a triple can refuse:
    # `tuple_type` refuses exactly where the raw-bit oracle does, and on
    # c <= 3 it accepts exactly the enumerated diagrams whose variables are
    # all distinct
    rel_names = get_theory(theory_id).relations
    pairs = [rel for rel in raw_bits(theory_id, 2) if oracle_admits(theory_id, 2, rel)]
    rng = random.Random(2718)
    for c in range(6):
        rels = raw_bits(theory_id, c) if c < 4 else [joined_pairs(pairs, c, rng)
                                                     for _ in range(300)]
        accepted, verdicts = set(), set()
        for rel in rels:
            tables = {r: frozenset(p for p, bit in rel.items() if bit) for r in rel_names}
            t = from_tables(theory_id, tuple(range(c)), tables)
            admitted = oracle_admits(theory_id, c, rel)
            verdicts.add(admitted)
            assert (t is not None) == admitted, (c, tables)
            if t is not None:
                assert type_key(t) == table_key(t.classes, tables)
                accepted.add(type_key(t))
        if c < 4:
            assert accepted == {type_key(d) for d in diagrams_over(theory_id, c)
                                if d.classes == tuple(range(c))}
        else:  # only dlo's and equivinf's triples refuse admitted pairs
            assert verdicts == ({True, False} if theory_id in ("dlo", "equivinf") else {True})


@pytest.mark.parametrize("theory_id,top", [
    ("pureset", 3), ("dlo", 3), ("equivinf", 3), ("randomgraph", 2)])
def test_pullback_test_shared_by_dependence_and_dummy_dropping(theory_id, top):
    # a set S of diagrams ignores variable i iff S is the preimage of its own
    # image under forgetting i; S depends on all its variables iff it ignores
    # none and is neither empty nor everything, and then (and only then, for
    # such S) dropping dummy variables keeps all of them
    for m in range(top + 1):
        pool = diagrams_over(theory_id, m)
        vs = [VarRef(0, i) for i in range(m)]
        forget = [[type_key(d.restrict_vars([i for i in range(m) if i != drop])) for d in pool]
                  for drop in range(m)]
        for size in range(len(pool) + 1):
            for subset in itertools.combinations(range(len(pool)), size):
                image = [{row[i] for i in subset} for row in forget]
                ignores = any(set(subset) == {j for j, r in enumerate(row) if r in im}
                              for row, im in zip(forget, image))
                want = 0 < size < len(pool) and not ignores
                sat = [pool[i] for i in subset]
                assert depends_on_all_vars(theory_id, m, set(sat)) == want, (m, subset)
                kept, _ = _drop_dummies(get_theory(theory_id), vs, sat)
                if 0 < size < len(pool):
                    assert (len(kept) == m) == want, (m, subset)


@pytest.mark.parametrize("theory,n,expected", [
    ("pureset", 2, 2), ("pureset", 3, 5),
    ("dlo", 2, 3), ("dlo", 3, 13),
    ("randomgraph", 2, 3), ("randomgraph", 3, 15),
    ("equivinf", 2, 3), ("equivinf", 3, 12),
])
def test_enumerate_matches_brute_force(theory, n, expected):
    got = enumerate_types(theory, 1, n, TRUE)
    assert len(got) == expected
    assert brute_force_count(theory, n) == expected


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_extension_enumerator_matches_product(theory):
    # one-variable extension against the 3-variable triple table yields
    # exactly the partition x relation-table pools, in the same order
    th = get_theory(theory)
    codes = pair_codes(th)
    for m in range(6 if theory == "randomgraph" else 7):
        want = product_diagrams(theory, m)
        assert [type_key(d) for d in diagrams_over(th, m)] == [key for key, _, _ in want]
        got = list(diagram_codes(th, 1, m))
        assert len(set(got)) == len(got) == len(want)
        assert set(got) == {codes.codes_of(from_tables(theory, classes, tables))
                            for _, classes, tables in want}


@pytest.mark.slow
@pytest.mark.parametrize("theory,m", [("pureset", 7), ("dlo", 7), ("equivinf", 7),
                                      ("randomgraph", 6)])
def test_product_pool_matches_extension_route(theory, m):
    # the extension route streams the pool's code tuples; the pool is
    # strictly increasing in key, so it is that stream deduplicated and
    # sorted, as the extension-then-sort route built it
    th = get_theory(theory)
    pc = pair_codes(th)
    for size in range(m + 1):
        pool = theories._diagrams(th, size)
        keys = [type_key(d) for d in pool]
        assert all(a < b for a, b in zip(keys, keys[1:])), size
        streamed = list(diagram_codes(th, 1, size))
        assert len(streamed) == len(pool), size
        assert set(streamed) == {pc.codes_of(d) for d in pool}, size
        # one tuple object per distinct `between`
        assert len({id(d.between) for d in pool}) == len({d.between for d in pool})


@pytest.mark.parametrize("m,bell", enumerate([1, 1, 2, 5, 15, 52, 203, 877, 4140]))
def test_partitions_are_bell_many_in_lexicographic_order(m, bell):
    parts = theories._partitions(m)
    assert len(parts) == len(set(parts)) == bell
    assert parts == sorted(parts) == list(set_partitions(m))


@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_pool_cap_counts_the_whole_pool(theory_id, monkeypatch):
    # the running count sum_c S(m, c) |D_c| ends at the pool's size, so a
    # cap one below that size refuses the pool with the size observed
    th = get_theory(theory_id)
    sizes = {m: len(diagrams_over(th, m)) for m in range(1, 7)}
    for m, size in sizes.items():
        monkeypatch.setattr(theories, "POOL_CAP", size - 1)
        with pytest.raises(ResourceCapError) as exc:
            theories._diagrams(th, m)
        assert (exc.value.cap, exc.value.limit, exc.value.observed) == ("pool-size", size - 1, size)


def test_one_point_cache_tells_no_classes_from_one():
    # between is () for c = 0 and c = 1; an empty c = 0 entry once stood in
    # for the one-class extensions and broke the next pool build
    th = get_theory("dlo")
    pc = pair_codes(th)
    assert pc._one_point((), 0, None) == [((), -1)]
    assert pc._one_point((), 1, None) == [((pc.eq,), 0)] + [
        ((code,), -1) for code in range(1, len(pc.converse))]
    assert theories._diagrams(th, 4) == diagrams_over(th, 4)


@pytest.mark.parametrize("theory,m", [("equivinf", 7), ("dlo", 6)])
def test_pool_texts_render_their_formulas(theory, m):
    pool = diagrams_over(theory, m)
    # one memo for the whole pool, and a fresh one per diagram
    texts = theories.diagram_texts(pool)
    assert texts == [render_formula(d.diagram_formula()) for d in pool]
    assert texts == [theories.diagram_texts([d])[0] for d in pool]


@pytest.mark.parametrize("theory,text", [
    ("dlo", "((lt(x0,x1) | eq(x0,y1)) & lt(y0,x1))"),
    ("dlo", "(lt(x0,y0) | lt(y1,x1))"),
    ("randomgraph", "((adj(x0,y0) | adj(x1,y1)) & !eq(x0,x1))"),
    ("equivinf", "(equiv(x0,y1) -> (equiv(x1,y0) & !eq(x1,y0)))"),
    ("pureset", "(eq(x0,y0) | eq(x1,y1))"),
])
def test_diagram_codes_constraint_and_prefix(theory, text):
    th = get_theory(theory)
    codes = pair_codes(th)
    f = qe(text, theory)
    types = enumerate_types(th, 2, 2, f)
    want = {codes.codes_of(t) for t in types}
    assert set(diagram_codes(th, 2, 2, f)) == want
    # extending the tape-0 restrictions reaches the same set
    tape0 = {t.restrict((0,)) for t in types}
    assert {c for p in tape0 for c in diagram_codes(th, 2, 2, f, prefix=p)} == want


def test_diagram_codes_refuses_a_prefix_wider_than_the_grid():
    th = get_theory("dlo")
    prefix = enumerate_types(th, 1, 3, TRUE)[0]
    assert len(list(diagram_codes(th, 1, 3, prefix=prefix))) == 1
    with pytest.raises(PreconditionError):
        diagram_codes(th, 1, 2, prefix=prefix)


def test_restriction_map_matches_restrict():
    for theory in ("dlo", "equivinf"):
        codes = pair_codes(theory)
        conv = codes.converse
        for t in enumerate_types(theory, 3, 2, TRUE):
            full = codes.codes_of(t)
            for tapes in [(1, 0), (2, 0), (1,), (0, 2), (2, 1, 0)]:
                rmap = restriction_map(3, 2, tapes)
                read = tuple(conv[full[p]] if flip else full[p] for p, flip in rmap)
                assert read == codes.codes_of(t.restrict(tapes))
    with pytest.raises(PreconditionError):
        restriction_map(2, 2, (0, 0))


def test_enumerate_deterministic_and_distinct():
    a = enumerate_types("dlo", 1, 3, TRUE)
    b = enumerate_types("dlo", 1, 3, TRUE)
    assert [type_key(t) for t in a] == [type_key(t) for t in b]
    assert len({type_key(t) for t in a}) == len(a)


def test_enumerate_level_zero():
    assert len(enumerate_types("dlo", 1, 0, TRUE)) == 1


def test_enumerate_cap():
    with pytest.raises(ResourceCapError):
        enumerate_types("randomgraph", 2, 7, TRUE)


def test_enumerate_with_constraint():
    got = enumerate_types("dlo", 1, 2, parse_formula("lt(x0,x1)", get_theory("dlo").relations))
    assert len(got) == 1


def test_type_monotone_refinement():
    # each (1,n)-type extends to at least one (1,n+1)-type
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        small = enumerate_types(theory, 1, 2, TRUE)
        big = enumerate_types(theory, 1, 3, TRUE)
        restricted = {type_key(t.restrict((0,), 2)) for t in big}
        assert {type_key(t) for t in small} <= restricted


# -- quantifier elimination --------------------------------------------------

def test_qe_dlo_between():
    assert qe("exists y0.(lt(x0,y0) & lt(y0,x1))", "dlo") == \
        parse_formula("lt(x0,x1)", get_theory("dlo").relations)


def test_qe_pureset_witness():
    assert qe("exists y0. eq(y0,x0)", "pureset") == TRUE


def test_qe_randomgraph_extension():
    f = qe("exists y0.(adj(x0,y0) & !adj(x1,y0) & !eq(y0,x0) & !eq(y0,x1))",
           "randomgraph")
    assert f == neg(Eq(VarRef(0, 0), VarRef(0, 1)))


def test_qe_unsupported_theory():
    with pytest.raises(PreconditionError):
        get_theory("zfc")


def test_decide_dlo_unbounded():
    assert decide("forall x0. exists y0. lt(x0,y0)", "dlo") is True


def test_decide_pureset_no_singleton():
    assert decide("exists x0. forall y0. eq(x0,y0)", "pureset") is False


def test_decide_randomgraph_symmetry():
    assert decide("forall x0. forall x1. (adj(x0,x1) -> adj(x1,x0))",
                  "randomgraph") is True


def test_decide_equivinf():
    assert decide("forall x0. exists y0. (equiv(x0,y0) & !eq(x0,y0))", "equivinf") is True
    assert decide("forall x0. exists y0. !equiv(x0,y0)", "equivinf") is True
    assert decide("forall x0. forall x1. equiv(x0,x1)", "equivinf") is False


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_qe_refuses_relations_outside_the_signature(theory):
    # the parser checks the signature; a formula built through the API is
    # checked where it enters QE, under any connective or quantifier
    x0, x1, x2 = (VarRef(0, i) for i in range(3))
    own = get_theory(theory).relations
    bad = [Atom(rel, (x0, x1)) for rel in ("lt", "adj", "equiv") if rel not in own]
    bad += [Atom(rel, args) for rel in own for args in ((x0,), (x0, x1, x2))]
    assert len(bad) == (3 if theory == "pureset" else 4)
    for atom in bad:
        arity = len(atom.args)
        chained = conj([atom, identify_vars(atom, {x0: x1, x1: x2})])
        for f in (atom, neg(atom), exists(x1, chained), forall(x0, exists(x1, atom))):
            with pytest.raises(SignatureError,
                               match=f"^{theory} has no relation '{atom.rel}' of arity {arity}$"):
                eliminate_quantifiers(f, theory)
        with pytest.raises(SignatureError, match=f"'{atom.rel}' of arity {arity}"):
            decide_sentence(exists(x0, Atom(atom.rel, (x0,) * arity)), theory)


def test_decide_requires_sentence():
    with pytest.raises(PreconditionError):
        decide("lt(x0,x1)", "dlo")


def test_qe_dlo_negation_expansion():
    # not(x0 < x1) is x1 < x0 or x0 = x1
    f = qe("exists y0. (!lt(y0,x0) & lt(y0,x1))", "dlo")
    # a witness not below x0 but below x1 exists iff x0 < x1
    assert f == parse_formula("lt(x0,x1)", get_theory("dlo").relations)


# -- QE agreement with truth over small rational samples (dlo) ---------------

DLO_CORPUS = [
    "exists y0.(lt(x0,y0) & lt(y0,x1))",
    "forall y0.(lt(x0,y0) -> lt(x1,y0))",
    "exists y0.(lt(y0,x0) | eq(y0,x1))",
    "exists y0. forall y1. (lt(y0,y1) -> lt(x0,y1))",
    "(!lt(x0,x1) & !eq(x0,x1))",
]


def eval_dlo(f, assignment):
    from fractions import Fraction
    from tgw.formula import And, Atom, Bot, Eq, Exists, Forall, Implies, Not, Or, Top

    def go(g, asg):
        if isinstance(g, Top):
            return True
        if isinstance(g, Bot):
            return False
        if isinstance(g, Atom):
            return asg[g.args[0]] < asg[g.args[1]]
        if isinstance(g, Eq):
            return asg[g.lhs] == asg[g.rhs]
        if isinstance(g, Not):
            return not go(g.sub, asg)
        if isinstance(g, And):
            return all(go(c, asg) for c in g.children)
        if isinstance(g, Or):
            return any(go(c, asg) for c in g.children)
        if isinstance(g, Implies):
            return not go(g.lhs, asg) or go(g.rhs, asg)
        vals = sorted(set(asg.values()))
        cands = set(vals)
        cands |= {a + (b - a) / 2 for a, b in zip(vals, vals[1:])}
        if vals:
            cands |= {vals[0] - 1, vals[-1] + 1}
        else:
            cands = {Fraction(0)}
        if isinstance(g, Exists):
            return any(go(g.body, {**asg, g.var: c}) for c in sorted(cands))
        return all(go(g.body, {**asg, g.var: c}) for c in sorted(cands))

    return go(f, dict(assignment))


def test_qe_sound_on_rational_samples():
    from fractions import Fraction
    rels = get_theory("dlo").relations
    points = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for text in DLO_CORPUS:
        f = parse_formula(text, rels)
        g = eliminate_quantifiers(f, "dlo")
        assert free_vars(g) <= free_vars(f) | set()
        for a in points:
            for b in points:
                asg = {VarRef(0, 0): a, VarRef(0, 1): b}
                assert eval_dlo(f, asg) == eval_dlo(g, asg), text


# -- diagram formulas and canonical forms ------------------------------------

def test_diagram_formula_roundtrip():
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        for t in enumerate_types(theory, 1, 3, TRUE):
            sat = [u for u in enumerate_types(theory, 1, 3, TRUE)
                   if satisfies_qf(u, t.diagram_formula())]
            assert [type_key(u) for u in sat] == [type_key(t)]


def conj_diagram_formula(t):
    """The diagram formula as `conj` of the pair-literal oracle: each
    variable tied to its class representative, each representative pair
    pinned relation by relation (the construction the literal table
    replaces)."""
    theory = get_theory(t.theory_id)
    vs = [VarRef(tp, p) for tp in range(t.k) for p in range(t.n)]
    lits, reps = [], {}
    for i, c in enumerate(t.classes):
        if c in reps:
            lits.append(Eq(reps[c], vs[i]))
        else:
            reps[c] = vs[i]
    tables = [dict(type_key(t)[1])[rel] for rel in theory.relations]
    for a, b in itertools.combinations(sorted(reps), 2):
        for table in tables or [frozenset()]:
            lits += pair_literals(theory.id, reps[a], reps[b], (a, b) in table,
                                  (b, a) in table)
    return conj(lits)


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_diagram_formula_matches_conj(theory):
    widest = 4 if theory == "randomgraph" else 5
    shapes = set()
    for k in (1, 2):
        for n in range(widest // k + 1):
            for t in enumerate_types(theory, k, n, TRUE):
                expected = conj_diagram_formula(t)
                assert t.diagram_formula() == expected, (k, n, t.classes)
                assert theories.diagram_texts([t]) == [render_formula(expected)], \
                    (k, n, t.classes)
                shapes.add(type(expected).__name__)
    # m = 0 gives true, two variables give single literals, wider grids And
    assert {"Top", "And"} <= shapes and shapes & {"Eq", "Atom", "Not"}


def test_canonical_form_semantic_identity():
    rels = get_theory("dlo").relations
    a = parse_formula("!lt(x0,x1)", rels)
    b = parse_formula("(lt(x1,x0) | eq(x0,x1))", rels)
    assert canonical_form(a, "dlo") == canonical_form(b, "dlo")
    c = parse_formula("(lt(x0,x1) & lt(x1,x0))", rels)
    assert canonical_form(c, "dlo") == FALSE


def test_canonical_form_drops_dummies():
    rels = get_theory("pureset").relations
    f = parse_formula("(eq(x0,x1) | !eq(x0,x1))", rels)
    assert canonical_form(f, "pureset") == TRUE
    g = parse_formula("(eq(x0,x1) & eq(x2,x2))", rels)
    assert free_vars(canonical_form(g, "pureset")) == {VarRef(0, 0), VarRef(0, 1)}


def test_canonical_form_idempotent():
    rels = get_theory("randomgraph").relations
    corpus = ["adj(x0,y0)", "!adj(x0,y0)", "(adj(x0,x1) | eq(x0,x1))",
              "exists y0. adj(x0,y0)"]
    for text in corpus:
        c = canonical_form(parse_formula(text, rels), "randomgraph")
        assert canonical_form(c, "randomgraph") == c


def test_set_partitions_bell():
    assert len(list(set_partitions(4))) == 15


# -- every cube on four partners, against the pool ------------------------------
# The pool is built from the age, without QE, so it judges each elimination:
# a diagram of the partners satisfies the eliminated formula iff it extends
# by v to a diagram that meets the cube.

@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_eliminate_matches_the_pool_on_every_cube(theory_id):
    theory = get_theory(theory_id)
    pc = pair_codes(theory)
    # v sits between the partners in the variable order, so its normalised
    # literals name it first on some pairs and second on others; on the
    # grid, partner i is variable i and v is variable p
    partners = [VarRef(0, i) for i in (0, 1, 3, 4)]
    v = VarRef(0, 2)
    p = len(partners)
    index = {w: i for i, w in enumerate(partners)}
    pool = diagrams_over(theory, p)
    # per tuple of code masks on the pairs (w, v): the partner diagrams that
    # `diagram_codes` extends by v with each pair's code in its mask
    meets = defaultdict(set)
    for d in pool:
        for ext in diagram_codes(theory, 1, p + 1, prefix=d):
            holding = [[m for m in range(1, pc.full + 1) if m >> ext[pair_index(i, p)] & 1]
                       for i in range(p)]
            for masks in itertools.product(*holding):
                meets[masks].add(d)
    # per partner w: each set of literals on (w, v) that some pair code meets
    options = []
    for w in partners:
        lits = normalized_literals(theory, [w, v])
        assert all(free_vars(l) == {w, v} for l in lits)
        subsets = [(ls, pc.mask(conj(ls), {w: 0, v: 1}))
                   for size in range(len(lits) + 1) for ls in itertools.combinations(lits, size)]
        options.append([(ls, mask) for ls, mask in subsets if mask])
    coded = [(d, pc.codes_of(d)) for d in pool]
    judged: dict = {}
    checked = 0
    for choice in itertools.product(*options):
        masks = tuple(mask for _, mask in choice)
        if masks not in meets:
            continue   # no diagram meets the cube
        cube = sorted((l for ls, _ in choice for l in ls), key=sort_key)
        result = _eliminate(theory, v, cube)
        if result not in judged:
            test = pc.predicate(result, index)
            judged[result] = {d for d, codes in coded if test(codes)}
        assert judged[result] == meets[masks], (render_formula(conj(cube)), render_formula(result))
        checked += 1
    assert checked == {"pureset": 3, "dlo": 4, "randomgraph": 8, "equivinf": 8}[theory_id] ** p


# -- DNF pruning by clash sets -----------------------------------------------

CLASH_THEORIES = [get_theory(t) for t in ("pureset", "dlo", "randomgraph", "equivinf")]


def normalized_literals(theory, vs, normalize=None):
    """The literals over `vs` in normal form, by `PairCodes.literal` unless
    another `normalize` is given, in `sort_key` order."""
    normalize = normalize or pair_codes(theory).literal
    atoms = [Eq(a, b) for a in vs for b in vs]
    atoms += [Atom(rel, (a, b)) for rel in theory.relations
              for a in vs for b in vs]
    lits = {normalize(negated, atom) for atom in atoms for negated in (False, True)}
    return sorted((l for l in lits if isinstance(l, (Atom, Eq, Not))), key=sort_key)


@pytest.mark.parametrize("theory", CLASH_THEORIES, ids=lambda t: t.id)
def test_clash_index_matches_pairwise_oracle(theory):
    lits = normalized_literals(theory, [VarRef(0, i) for i in range(3)])
    assert lits
    for l in lits:
        for m in lits:
            expected = m == neg(l) or literal_conflict(theory.id, l, m)
            assert (m in _clash(theory, l)) == expected, (theory.id, l, m)


def _conflicts(theory, cube, add):
    """The pairwise scan the clash index replaced (test oracle)."""
    for l in add:
        nl = neg(l)
        for m in cube:
            if m == nl or literal_conflict(theory.id, l, m):
                return True
    return False


def dnf_pairwise(theory, f):
    """`_dnf` with the pairwise conflict scan (test oracle)."""
    if isinstance(f, Top):
        return [frozenset()]
    if isinstance(f, Bot):
        return []
    if isinstance(f, (Atom, Eq, Not)):
        return [frozenset((f,))]
    out, seen = [], set()
    if isinstance(f, Or):
        for c in f.children:
            for cube in dnf_pairwise(theory, c):
                if cube not in seen:
                    seen.add(cube)
                    out.append(cube)
        return out
    cubes = [frozenset()]
    for c in f.children:
        nxt, seen = [], set()
        for add in dnf_pairwise(theory, c):
            for cube in cubes:
                if not _conflicts(theory, cube, add) and cube | add not in seen:
                    seen.add(cube | add)
                    nxt.append(cube | add)
        cubes = nxt
    return cubes


def assert_dnf_matches_pairwise(theory, f):
    qe = _Elimination(theory)
    for g in (qe.nnf(f, False), qe.nnf(f, True)):
        assert qe.dnf(g) == dnf_pairwise(theory, g), render_formula(f)


@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_dnf_matches_pairwise_on_dphi_conjuncts(theory_id):
    seq = RichSequence(theory_id)
    shapes = set()
    for k in range(12):
        f = seq.dphi_conjunct(k)
        assert_dnf_matches_pairwise(get_theory(theory_id), f)
        shapes.add(type(f).__name__)
    assert shapes & {"And", "Or"}


# -- the QE walks before their per-node memo (test oracles) --------------------
# Each walks its formula as a tree, so a shared subformula is walked once per
# occurrence; they must give the memoised walks' results node for node.
# `dnf_pairwise` above is the DNF walk's tree oracle.

def nnf_tree(theory, f, negated):
    if isinstance(f, Top):
        return FALSE if negated else TRUE
    if isinstance(f, Bot):
        return TRUE if negated else FALSE
    if isinstance(f, Atom):
        theory.check_relation(f)
    if isinstance(f, (Atom, Eq)):
        return pair_codes(theory).literal(negated, f)
    if isinstance(f, Not):
        return nnf_tree(theory, f.sub, not negated)
    if isinstance(f, And):
        parts = [nnf_tree(theory, c, negated) for c in f.children]
        return disj(parts) if negated else conj(parts)
    if isinstance(f, Or):
        parts = [nnf_tree(theory, c, negated) for c in f.children]
        return conj(parts) if negated else disj(parts)
    if isinstance(f, Implies):
        if negated:
            return conj([nnf_tree(theory, f.lhs, False), nnf_tree(theory, f.rhs, True)])
        return disj([nnf_tree(theory, f.lhs, True), nnf_tree(theory, f.rhs, False)])
    if isinstance(f, Exists):
        body = nnf_tree(theory, f.body, negated)
        node = Forall if negated else Exists
    else:
        body = nnf_tree(theory, f.body, negated)
        node = Exists if negated else Forall
    if isinstance(body, (Top, Bot)):
        return body
    return node(f.var, body)


def qe_tree(theory, f):
    def exists_one(v, qf):
        if v not in free_vars(qf):
            return qf
        if isinstance(qf, Or):
            return disj(exists_one(v, c) for c in qf.children)
        if isinstance(qf, And):
            outside = [c for c in qf.children if v not in free_vars(c)]
            if outside:
                inside = conj(c for c in qf.children if v in free_vars(c))
                return conj(outside + [exists_one(v, inside)])
        out = []
        for cube in dnf_pairwise(theory, qf):
            with_v = sorted((l for l in cube if v in free_vars(l)), key=sort_key)
            rest = [l for l in cube if v not in free_vars(l)]
            out.append(conj(rest + [_eliminate(theory, v, with_v)]))
        return disj(out)

    def elim(g):
        if isinstance(g, (Top, Bot, Atom, Eq, Not)):
            return g
        if isinstance(g, And):
            return conj(elim(c) for c in g.children)
        if isinstance(g, Or):
            return disj(elim(c) for c in g.children)
        if isinstance(g, Exists):
            return exists_one(g.var, elim(g.body))
        inner = elim(g.body)
        negated = nnf_tree(theory, neg(inner), False)
        return nnf_tree(theory, neg(exists_one(g.var, negated)), False)

    return elim(nnf_tree(theory, f, False))


def assert_walks_match_trees(theory, f):
    """The memoised NNF, DNF and QE of `f` are the tree walks' results."""
    qe = _Elimination(theory)
    for negated in (False, True):
        g = qe.nnf(f, negated)
        assert g is nnf_tree(theory, f, negated), render_formula(f)
        if not g.bound_vars:
            assert qe.dnf(g) == dnf_pairwise(theory, g), render_formula(f)
    assert qe.elim(qe.nnf(f, False)) is qe_tree(theory, f), render_formula(f)


@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_memoised_walks_match_tree_walks_on_dphi(theory_id):
    # levels 0-12: each defining clause, its quantifier-free conjunct, and
    # the level's formulas as rendered
    theory = get_theory(theory_id)
    seq = RichSequence(theory_id)
    for k in range(13):
        assert_walks_match_trees(theory, seq.defining_clause(k))
        assert_walks_match_trees(theory, seq.dphi_conjunct(k))
        assert seq.dphi_conjunct(k) is qe_tree(theory, seq.defining_clause(k))
        level = seq.dphi_formula(k)
        for f in (level.formula, level.simplified):
            assert render_formula(f) == render_tree(f)


class _UnscopedElimination(_Elimination):
    """QE as it was before miniscoping: each existential is eliminated from
    every cube of its whole body's DNF (test oracle)."""

    __slots__ = ()

    def exists_one(self, v, qf):
        if v not in free_vars(qf):
            return qf
        out = []
        for cube in self.dnf(qf):
            with_v = sorted((l for l in cube if v in free_vars(l)), key=sort_key)
            rest = [l for l in cube if v not in free_vars(l)]
            out.append(conj(rest + [_eliminate(self.theory, v, with_v)]))
        return disj(out)


def equivalent_on_pool(theory, f, g):
    """Whether no diagram on the variables of the quantifier-free `f` and
    `g` meets one and not the other: a counter-example search in their
    pool, as `RichSequence.valid` makes one."""
    vs = sorted(free_vars(f) | free_vars(g), key=sort_key)
    grid = {v: VarRef(0, i) for i, v in enumerate(vs)}
    return all(next(diagram_codes(theory, 1, len(grid), substitute_vars(h, grid)), None)
               is None for h in (conj([f, neg(g)]), conj([neg(f), g])))


def test_equivalent_on_pool_finds_a_counter_example():
    a, b = VarRef(0, 0), VarRef(0, 1)
    assert equivalent_on_pool(get_theory("dlo"), Not(Atom("lt", (a, b))),
                              disj([Atom("lt", (b, a)), Eq(a, b)]))
    assert not equivalent_on_pool(get_theory("dlo"), Not(Atom("lt", (a, b))),
                                  Atom("lt", (b, a)))


# on dlo and randomgraph, level 21's rich formula is refused by the recorded
# section-schedule defect (a step that depends on its own slot)
@pytest.mark.parametrize("theory_id,levels", [("pureset", 28), ("equivinf", 26),
                                              ("dlo", 21), ("randomgraph", 21)])
def test_dphi_conjuncts_are_equivalent_to_the_unscoped_elimination(theory_id, levels):
    theory = get_theory(theory_id)
    seq = RichSequence(theory_id)
    for k in range(levels):
        unscoped = _UnscopedElimination(theory)
        old = unscoped.elim(unscoped.nnf(seq.defining_clause(k), False))
        assert equivalent_on_pool(theory, seq.dphi_conjunct(k), old), (theory_id, k)


@st.composite
def qf_formulas(draw, theory, width=4):
    """Quantifier-free formulas over at most `width` variables whose leaves
    are two to four atoms on two variable pairs (maybe the same), so that
    complements and conflicting literals meet in different branches."""
    vs = [VarRef(0, i) for i in range(width)]
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(vs, 2))),
                          min_size=2, max_size=2))
    rels = ["eq", *theory.relations]

    def atom(rel, pair, flip):
        a, b = pair[::-1] if flip else pair
        return Eq(a, b) if rel == "eq" else Atom(rel, (a, b))

    palette = draw(st.lists(st.builds(atom, st.sampled_from(rels), st.sampled_from(pairs),
                                      st.booleans()), min_size=2, max_size=4))

    def build(depth):
        op = draw(st.sampled_from(["and"] if depth == 0 else
                                  ["leaf"] if depth == 3 else
                                  ["leaf", "not", "and", "or", "or", "implies"]))
        if op == "leaf":
            leaf = draw(st.sampled_from(palette))
            return Not(leaf) if draw(st.booleans()) else leaf
        if op == "not":
            return Not(build(depth + 1))
        if op == "implies":
            return Implies(build(depth + 1), build(depth + 1))
        children = tuple(build(depth + 1) for _ in range(draw(st.integers(2, 3))))
        return And(children) if op == "and" else Or(children)

    return build(0)


@pytest.mark.parametrize("theory", CLASH_THEORIES, ids=lambda t: t.id)
def test_dnf_matches_pairwise_on_generated_formulas(theory):
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(qf_formulas(theory))
    def check(f):
        assert_dnf_matches_pairwise(theory, f)
    check()


def test_canonical_form_cap_fields(monkeypatch):
    monkeypatch.setattr(theories, "CANONICAL_VAR_CAP", 3)
    f = conj(Eq(VarRef(0, i), VarRef(0, i + 1)) for i in range(3))
    with pytest.raises(ResourceCapError) as exc:
        canonical_form(f, "pureset")
    assert (exc.value.cap, exc.value.limit, exc.value.observed) == ("canonical-vars", 3, 4)


@pytest.mark.parametrize("theory", CLASH_THEORIES, ids=lambda t: t.id)
def test_canonical_form_is_idempotent_and_agrees_with_qe(theory):
    # the canonical form of a generated formula is its own canonical form,
    # and it holds on exactly the diagrams of the formula's grid on which
    # the formula's QE does
    pool = diagrams_over(theory, 4)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(qf_formulas(theory))
    def check(f):
        c = canonical_form(f, theory)
        assert canonical_form(c, theory) == c, render_formula(f)
        g = eliminate_quantifiers(f, theory)
        assert all(satisfies_qf(d, c) == satisfies_qf(d, g) for d in pool), render_formula(f)
    check()


# -- standing mutants ---------------------------------------------------------
# Each one-line mutant of a `src/tgw` file must fail a test other than a
# pinned report: (the file, the line, its mutant, the tests that kill it).

STANDING_MUTANTS = {
    "dlo-intransitive": (
        "theories.py",
        '                and _transitive(holds, "lt", k))',
        '                and True)',
        ["test_theories.py::test_pair_codes_from_the_age_match_qe[dlo]"]),
    "equivinf-asymmetric": (
        "theories.py",
        '                and all(holds("equiv", a, b) == holds("equiv", b, a)',
        '                and all(True or holds("equiv", a, b) == holds("equiv", b, a)',
        ["test_theories.py::test_pair_codes_from_the_age_match_qe[equivinf]"]),
    "eliminate-last-pair-only": (
        "theories.py",
        '                        allowed |= row[y]',
        '                        allowed = row[y]',
        ["test_theories.py::test_derived_rules_are_the_hand_rules[equivinf]",
         "test_theories.py::test_eliminate_matches_the_pool_on_every_cube[equivinf]"]),
    "form-prefers-negated-atom": (
        "theories.py",
        '            forms.setdefault(self.full ^ m, Not(atom))',
        '            forms[self.full ^ m] = Not(atom)',
        ["test_theories.py::test_derived_rules_are_the_hand_rules[dlo]"]),
    "clash-keeps-meeting-masks": (
        "theories.py",
        '        m for m in _literals(pc, vs) if not mask & pc.mask(m, index)])',
        '        m for m in _literals(pc, vs) if mask & pc.mask(m, index)])',
        ["test_theories.py::test_clash_index_matches_pairwise_oracle"]),
    "miniscope-drops-outside-conjunct": (
        "theories.py",
        '                return conj(outside + [self.exists_one(v, inside)])',
        '                return conj(outside[1:] + [self.exists_one(v, inside)])',
        ["test_groupoid.py::test_compose_examples"]),
    "miniscope-drops-disjunct": (
        "theories.py",
        '            return disj(self.exists_one(v, c) for c in qf.children)',
        '            return disj(self.exists_one(v, c) for c in qf.children[1:])',
        ["test_models.py::test_qe_decides_miniscoped_sentences_like_the_model[pureset]"]),
    # `_emit`'s broken-pipe handling, which only a closed stdout reaches
    "emit-skips-flush": (
        "cli.py",
        '        sys.stdout.flush()',
        '        pass',
        ["test_cli.py::test_a_closed_stdout_is_no_traceback"]),
    "emit-keeps-broken-stdout": (
        "cli.py",
        '        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())',
        '        pass',
        ["test_cli.py::test_a_closed_stdout_is_no_traceback"]),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", STANDING_MUTANTS)
def test_standing_mutant_is_killed(name, tmp_path):
    module, line, mutant, killers = STANDING_MUTANTS[name]
    src = Path(theories.__file__).resolve().parents[1]
    shutil.copytree(src / "tgw", tmp_path / "tgw", ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "tgw" / module
    text = target.read_text()
    assert text.count("\n" + line + "\n") == 1, line
    target.write_text(text.replace("\n" + line + "\n", "\n" + mutant + "\n"))
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(tests / killer) for killer in killers)],
        cwd=tests.parent, env={**fresh_env(), "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, timeout=60)
    summary = proc.stdout.splitlines()[-1] if proc.stdout else proc.stderr
    assert proc.returncode == 1 and " failed" in summary and "error" not in summary, \
        proc.stdout[-2000:] + proc.stderr[-2000:]
