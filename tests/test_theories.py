import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgw import theories
from tgw.errors import PreconditionError, ResourceCapError
from tgw.formula import (FALSE, TRUE, And, Atom, Bot, Eq, Implies, Not, Or, Top,
                         VarRef, conj, free_vars, neg, parse_formula,
                         render_formula, sort_key)
from tgw.rich import RichSequence
from tgw.theories import (CompleteType, Theory, _clash, _dnf, _drop_dummies,
                          _nnf, _sorted_pair, canonical_form, decide_sentence,
                          depends_on_all_vars, diagram_codes, diagrams_over,
                          eliminate_quantifiers, enumerate_types, get_theory,
                          pair_codes, restriction_map)


def qe(text, theory):
    t = get_theory(theory)
    return eliminate_quantifiers(parse_formula(text, t.signature), t)


def decide(text, theory):
    t = get_theory(theory)
    return decide_sentence(parse_formula(text, t.signature), t)


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


def product_diagrams(theory_id, m):
    """Every m-variable diagram as an equality partition times the relation
    tables on its classes, sorted by key."""
    out = [CompleteType(theory_id, 1, m, classes, tuple(sorted(rels.items())))
           for classes in set_partitions(m)
           for rels in REL_ASSIGNMENTS[theory_id](max(classes, default=-1) + 1)]
    return sorted(out, key=CompleteType.key)


def pair_literals(theory_id, a, b, forward, backward):
    """Minimal literals pinning one pair of distinct classes, given the
    relation values both ways; literals the theory implies are omitted."""
    ne = Not(Eq(*_sorted_pair(a, b)))
    if theory_id == "dlo":  # the strict order implies the inequality
        return [Atom("lt", (a, b) if forward else (b, a))]
    if theory_id == "randomgraph":  # adjacency is irreflexive
        adj = Atom("adj", _sorted_pair(a, b))
        return [adj] if forward else [ne, Not(adj)]
    if theory_id == "equivinf":  # equivalence is reflexive
        equiv = Atom("equiv", _sorted_pair(a, b))
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


def test_theories_define_only_the_two_hooks():
    # a theory is its literal normal form and its elimination rule; every
    # other fact about finite diagrams is derived from those by QE
    subclasses = [cls for _, cls in inspect.getmembers(theories, inspect.isclass)
                  if issubclass(cls, Theory) and cls is not Theory]
    assert len(subclasses) == 4
    for cls in subclasses:
        methods = {name for name, value in vars(cls).items()
                   if inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod, property))}
        assert methods <= {"normalize_literal", "eliminate_one"}, (cls.__name__, methods)


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


@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_admits_matches_raw_bit_oracle(theory_id):
    # every raw relation table on c <= 3 distinct classes: `admits` agrees
    # with the raw-bit oracle and accepts exactly the enumerated diagrams
    # whose variables are all distinct
    pc = pair_codes(theory_id)
    rel_names = [r for r, _ in get_theory(theory_id).signature.relations]
    ok = RAW_ORACLES[theory_id]
    for c in range(4):
        cells = [(i, j) for i in range(c) for j in range(c)]
        accepted = set()
        for bits in itertools.product((False, True), repeat=len(cells) * len(rel_names)):
            rel = dict(zip(cells, bits))
            rels = tuple((r, frozenset(p for p in cells if rel[p])) for r in rel_names)
            t = CompleteType(theory_id, 1, c, tuple(range(c)), rels)
            assert pc.admits(t) == ok(rel, {}, lambda _, i, j: i == j, c), (c, rels)
            if pc.admits(t):
                accepted.add(t.key())
        distinct = {d.key() for d in diagrams_over(theory_id, c)
                    if d.classes == tuple(range(c))}
        assert accepted == distinct


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
        forget = [[d.restrict_vars([i for i in range(m) if i != drop]).key() for d in pool]
                  for drop in range(m)]
        for size in range(len(pool) + 1):
            for subset in itertools.combinations(range(len(pool)), size):
                image = [{row[i] for i in subset} for row in forget]
                ignores = any(set(subset) == {j for j, r in enumerate(row) if r in im}
                              for row, im in zip(forget, image))
                want = 0 < size < len(pool) and not ignores
                keys = {pool[i].key() for i in subset}
                assert depends_on_all_vars(theory_id, m, keys) == want, (m, subset)
                kept, _ = _drop_dummies(get_theory(theory_id), vs,
                                        [pool[i] for i in subset])
                if 0 < size < len(pool):
                    assert (len(kept) == m) == want, (m, subset)


@pytest.mark.parametrize("theory,n,expected", [
    ("pureset", 2, 2), ("pureset", 3, 5),
    ("dlo", 2, 3), ("dlo", 3, 13),
    ("randomgraph", 2, 3), ("randomgraph", 3, 15),
    ("equivinf", 2, 3), ("equivinf", 3, 12),
])
def test_enumerate_matches_brute_force(theory, n, expected):
    got = enumerate_types(theory, 1, n)
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
        assert [d.key() for d in diagrams_over(th, m)] == [d.key() for d in want]
        got = list(diagram_codes(th, 1, m))
        assert len(set(got)) == len(got) == len(want)
        assert set(got) == {codes.codes_of(d) for d in want}


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
    want = {codes.codes_of(t) for t in enumerate_types(th, 2, 2, f)}
    assert set(diagram_codes(th, 2, 2, f)) == want
    # extending the tape-0 prefixes reaches the same set
    tape0 = {c[:1] for c in want}
    assert {c for p in tape0 for c in diagram_codes(th, 2, 2, f, p)} == want


def test_restriction_map_matches_restrict():
    for theory in ("dlo", "equivinf"):
        codes = pair_codes(theory)
        conv = codes.converse
        for t in enumerate_types(theory, 3, 2):
            full = codes.codes_of(t)
            for tapes in [(1, 0), (2, 0), (1,), (0, 2), (2, 1, 0)]:
                rmap = restriction_map(3, 2, tapes)
                read = tuple(conv[full[p]] if flip else full[p] for p, flip in rmap)
                assert read == codes.codes_of(t.restrict(tapes))
    with pytest.raises(PreconditionError):
        restriction_map(2, 2, (0, 0))


def test_enumerate_deterministic_and_distinct():
    a = enumerate_types("dlo", 1, 3)
    b = enumerate_types("dlo", 1, 3)
    assert [t.key() for t in a] == [t.key() for t in b]
    assert len({t.key() for t in a}) == len(a)


def test_enumerate_level_zero():
    assert len(enumerate_types("dlo", 1, 0)) == 1


def test_enumerate_cap():
    with pytest.raises(ResourceCapError):
        enumerate_types("randomgraph", 2, 7)


def test_enumerate_with_constraint():
    got = enumerate_types("dlo", 1, 2, parse_formula("lt(x0,x1)", get_theory("dlo").signature))
    assert len(got) == 1


def test_type_monotone_refinement():
    # each (1,n)-type extends to at least one (1,n+1)-type
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        small = enumerate_types(theory, 1, 2)
        big = enumerate_types(theory, 1, 3)
        restricted = {t.restrict((0,), 2).key() for t in big}
        assert {t.key() for t in small} <= restricted


# -- quantifier elimination --------------------------------------------------

def test_qe_dlo_between():
    assert qe("exists y0.(lt(x0,y0) & lt(y0,x1))", "dlo") == \
        parse_formula("lt(x0,x1)", get_theory("dlo").signature)


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


def test_decide_requires_sentence():
    with pytest.raises(PreconditionError):
        decide("lt(x0,x1)", "dlo")


def test_qe_dlo_negation_expansion():
    # not(x0 < x1) is x1 < x0 or x0 = x1
    f = qe("exists y0. (!lt(y0,x0) & lt(y0,x1))", "dlo")
    # a witness not below x0 but below x1 exists iff x0 < x1
    assert f == parse_formula("lt(x0,x1)", get_theory("dlo").signature)


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
    sig = get_theory("dlo").signature
    points = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for text in DLO_CORPUS:
        f = parse_formula(text, sig)
        g = eliminate_quantifiers(f, "dlo")
        assert free_vars(g) <= free_vars(f) | set()
        for a in points:
            for b in points:
                asg = {VarRef(0, 0): a, VarRef(0, 1): b}
                assert eval_dlo(f, asg) == eval_dlo(g, asg), text


# -- diagram formulas and canonical forms ------------------------------------

def test_diagram_formula_roundtrip():
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        for t in enumerate_types(theory, 1, 3):
            sat = [u for u in enumerate_types(theory, 1, 3)
                   if u.satisfies_qf(t.diagram_formula())]
            assert [u.key() for u in sat] == [t.key()]


def conj_diagram_formula(t):
    """The diagram formula as `conj` of the pair-literal oracle: each
    variable tied to its class representative, each representative pair
    pinned relation by relation (the construction the literal table
    replaces)."""
    theory = t.theory
    vs = [VarRef(tp, p) for tp in range(t.k) for p in range(t.n)]
    lits, reps = [], {}
    for i, c in enumerate(t.classes):
        if c in reps:
            lits.append(Eq(reps[c], vs[i]))
        else:
            reps[c] = vs[i]
    tables = [t.rel_table(rel) for rel, _ in theory.signature.relations]
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
            for t in enumerate_types(theory, k, n):
                expected = conj_diagram_formula(t)
                assert t.diagram_formula() == expected, (k, n, t.classes)
                assert t.diagram_text() == render_formula(expected), (k, n, t.classes)
                shapes.add(type(expected).__name__)
    # m = 0 gives true, two variables give single literals, wider grids And
    assert {"Top", "And"} <= shapes and shapes & {"Eq", "Atom", "Not"}


def test_canonical_form_semantic_identity():
    sig = get_theory("dlo").signature
    a = parse_formula("!lt(x0,x1)", sig)
    b = parse_formula("(lt(x1,x0) | eq(x0,x1))", sig)
    assert canonical_form(a, "dlo") == canonical_form(b, "dlo")
    c = parse_formula("(lt(x0,x1) & lt(x1,x0))", sig)
    assert canonical_form(c, "dlo") == FALSE


def test_canonical_form_drops_dummies():
    sig = get_theory("pureset").signature
    f = parse_formula("(eq(x0,x1) | !eq(x0,x1))", sig)
    assert canonical_form(f, "pureset") == TRUE
    g = parse_formula("(eq(x0,x1) & eq(x2,x2))", sig)
    assert free_vars(canonical_form(g, "pureset")) == {VarRef(0, 0), VarRef(0, 1)}


def test_canonical_form_idempotent():
    sig = get_theory("randomgraph").signature
    corpus = ["adj(x0,y0)", "!adj(x0,y0)", "(adj(x0,x1) | eq(x0,x1))",
              "exists y0. adj(x0,y0)"]
    for text in corpus:
        c = canonical_form(parse_formula(text, sig), "randomgraph")
        assert canonical_form(c, "randomgraph") == c


def test_set_partitions_bell():
    assert len(list(set_partitions(4))) == 15


# -- DNF pruning by clash sets -----------------------------------------------

CLASH_THEORIES = [get_theory(t) for t in ("pureset", "dlo", "randomgraph", "equivinf")]


def normalized_literals(theory, vs):
    atoms = [Eq(a, b) for a in vs for b in vs]
    atoms += [Atom(rel, (a, b)) for rel, _ in theory.signature.relations
              for a in vs for b in vs]
    lits = {theory.normalize_literal(negated, atom)
            for atom in atoms for negated in (False, True)}
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
    for g in (_nnf(theory, f, False), _nnf(theory, f, True)):
        assert _dnf(theory, g) == dnf_pairwise(theory, g), render_formula(f)


@pytest.mark.parametrize("theory_id", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_dnf_matches_pairwise_on_dphi_conjuncts(theory_id):
    seq = RichSequence(theory_id)
    shapes = set()
    for k in range(12):
        f = seq.dphi_conjunct(k)
        assert_dnf_matches_pairwise(get_theory(theory_id), f)
        shapes.add(type(f).__name__)
    assert shapes & {"And", "Or"}


@st.composite
def qf_formulas(draw, theory, width=4):
    """Quantifier-free formulas over at most `width` variables whose leaves
    are two to four atoms on two variable pairs (maybe the same), so that
    complements and conflicting literals meet in different branches."""
    vs = [VarRef(0, i) for i in range(width)]
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(vs, 2))),
                          min_size=2, max_size=2))
    rels = ["eq"] + [r for r, _ in theory.signature.relations]

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
