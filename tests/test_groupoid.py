import copy
import itertools

import pytest

from tgw import groupoid, theories
from tgw.errors import PreconditionError, ResourceCapError, SignatureError
from tgw.formula import FALSE, TRUE, Atom, Eq, VarRef, conj, neg, parse_formula
from tgw.groupoid import (LAWS, ClopenSet, LevelTable, Refusal, SubGroupoid,
                          base_clopen, clopen, clopen_equiv, compose_clopen,
                          contains_base,
                          en_clopen, invert_clopen, is_en_invariant,
                          is_subgroupoid, merge_tape, minimal_en_index,
                          project_clopen, source_clopen, target_clopen,
                          theta_fiber, theta_reindex, verify_level_axioms)
from tgw.reconstruction import predicate_corpus
from tgw.rich import RichSequence
from tgw.theories import diagram_codes, enumerate_types, get_theory, pair_codes

from test_theories import type_key

SEQS = {t: RichSequence(t) for t in ("pureset", "dlo", "randomgraph", "equivinf")}


def cl(theory, text, arity, level=None):
    seq = SEQS[theory]
    return clopen(seq, parse_formula(text, seq.theory.relations), arity=arity,
                  level=level)


def corpus(theory, level=1):
    """Small clopen corpus per theory: atoms, negations, conjunctions over
    the k=2 window at the given level."""
    texts = {"pureset": ["true", "false", "eq(x0,y0)", "!eq(x0,y0)"],
             "dlo": ["true", "false", "eq(x0,y0)", "lt(x0,y0)", "lt(y0,x0)",
                     "(lt(x0,y0) | eq(x0,y0))"],
             "randomgraph": ["true", "false", "eq(x0,y0)", "adj(x0,y0)",
                             "(!adj(x0,y0) & !eq(x0,y0))",
                             "(adj(x0,y0) | eq(x0,y0))"],
             "equivinf": ["true", "false", "eq(x0,y0)", "equiv(x0,y0)",
                          "!equiv(x0,y0)", "(equiv(x0,y0) & !eq(x0,y0))"]}
    return [cl(theory, t, arity=2, level=level) for t in texts[theory]]


def test_compose_examples():
    U = cl("pureset", "eq(x0,y0)", arity=2)
    V = cl("pureset", "eq(x0,y1)", arity=2, level=2)
    assert compose_clopen(U, V).formula == Eq(VarRef(0, 0), VarRef(1, 1))
    # the level base acts as a two-sided unit
    E = en_clopen(SEQS["pureset"], 2)
    for W in corpus("pureset", level=2):
        assert clopen_equiv(compose_clopen(E, W), W)
        assert clopen_equiv(compose_clopen(W, E), W)
    # the empty clopen absorbs
    Z = cl("pureset", "false", arity=2, level=1)
    assert compose_clopen(Z, U).formula == FALSE


def test_invert_examples():
    V = cl("pureset", "eq(x0,y1)", arity=2, level=2)
    assert invert_clopen(V).formula == Eq(VarRef(1, 0), VarRef(0, 1))
    for theory in SEQS:
        for U in corpus(theory):
            assert invert_clopen(invert_clopen(U)) == U


def test_inversion_antihomomorphism():
    for theory in SEQS:
        for U, V in itertools.combinations(corpus(theory), 2):
            lhs = invert_clopen(compose_clopen(U, V))
            rhs = compose_clopen(invert_clopen(V), invert_clopen(U))
            assert clopen_equiv(lhs, rhs), theory


def test_composition_associative_on_corpus():
    for theory in SEQS:
        cs = corpus(theory)[:4]
        for U, V, W in itertools.product(cs, repeat=3):
            lhs = compose_clopen(compose_clopen(U, V), W)
            rhs = compose_clopen(U, compose_clopen(V, W))
            assert clopen_equiv(lhs, rhs), theory


def test_source_examples():
    U = cl("pureset", "eq(x0,y1)", arity=2, level=2)
    assert source_clopen(U).formula == TRUE
    assert source_clopen(base_clopen(SEQS["pureset"], 1)).formula == TRUE
    Z = cl("pureset", "false", arity=2, level=1)
    assert source_clopen(Z).formula == FALSE
    # source of the inverse is the target
    for theory in SEQS:
        for U in corpus(theory):
            assert clopen_equiv(source_clopen(invert_clopen(U)), target_clopen(U))


def test_contains_base_examples():
    assert contains_base(en_clopen(SEQS["pureset"], 1)) is True
    assert contains_base(cl("dlo", "lt(x0,y0)", arity=2)) is False
    assert contains_base(cl("dlo", "true", arity=2, level=1)) is True


@pytest.mark.parametrize("theory", ["equivinf", "randomgraph"])
def test_contains_base_refusal_witness_is_least_failing_point(theory):
    # two refusals from the subgroupoids corpus, and one at level 2, where
    # the 1-tape table has more than one point
    clopens = [X for X in predicate_corpus(SEQS[theory], 1) if X.arity == 2]
    clopens.append(cl(theory, "(eq(x0,y1) & eq(x1,y0))", arity=2, level=2))
    refusals = [(U, v) for U in clopens for v in [is_subgroupoid(U)]
                if isinstance(v, Refusal) and v.axiom == "contains-base"]
    assert len(refusals) == 3
    for U, verdict in refusals:
        table = LevelTable(U.seq, 1, U.level)
        holds = table.points_of(ClopenSet(U.seq, 1, merge_tape(U.formula), U.level))
        assert (verdict.witness.k, verdict.witness.n) == (1, U.level)
        assert table.index(verdict.witness) == min(set(range(len(table.points))) - holds)


def test_subgroupoid_examples():
    E2 = en_clopen(SEQS["pureset"], 2)
    assert isinstance(is_subgroupoid(E2), SubGroupoid)
    bad = is_subgroupoid(cl("dlo", "lt(x0,y0)", arity=2))
    assert isinstance(bad, Refusal) and bad.axiom == "symmetric"
    assert bad.witness is not None
    coarse = is_subgroupoid(cl("equivinf", "true", arity=2, level=1))
    assert isinstance(coarse, SubGroupoid)
    mid = is_subgroupoid(cl("equivinf", "equiv(x0,y0)", arity=2))
    assert isinstance(mid, SubGroupoid)


def test_minimal_en_index():
    E2 = is_subgroupoid(en_clopen(SEQS["dlo"], 2))
    assert minimal_en_index(E2, 4) == 2
    full = is_subgroupoid(cl("dlo", "true", arity=2, level=1))
    assert minimal_en_index(full, 4) == 0
    eq1 = is_subgroupoid(cl("dlo", "eq(x0,y0)", arity=2))
    assert minimal_en_index(eq1, 4) == 1


def test_build_level_table_counts():
    assert len(LevelTable(SEQS["pureset"], 2, 1).points) == 2
    assert len(LevelTable(SEQS["pureset"], 2, 1).base) == 1
    assert len(LevelTable(SEQS["dlo"], 2, 1).points) == 3
    assert len(LevelTable(SEQS["dlo"], 1, 0).points) == 1


def test_verify_level_axioms_all_theories():
    for theory, seq in SEQS.items():
        report = verify_level_axioms(LevelTable(seq, 2, 1))
        assert all(report[law] is True for law in LAWS)


@pytest.mark.parametrize("theory,counts", [
    ("pureset", (15, 2, 203)),
    ("equivinf", (60, 3, 2471)),
    pytest.param("dlo", (75, 3, 4683), marks=pytest.mark.slow),
])
def test_verify_level_axioms_level_two(theory, counts):
    report = verify_level_axioms(LevelTable(SEQS[theory], 2, 2))
    assert all(report[law] is True for law in LAWS)
    assert (report["points"], report["base-points"],
            report["composition-triples"]) == counts


@pytest.mark.slow
@pytest.mark.parametrize("theory,level,counts", [
    ("randomgraph", 2, (127, 3, 53071)),
    ("pureset", 3, (203, 5, 21147)),
])
def test_verify_level_axioms_past_four_tapes(theory, level, counts, monkeypatch):
    # tables whose 4-tape amalgams were out of reach; the 3n-variable
    # composition is the largest grid the laws need
    monkeypatch.setattr(theories, "GRID_CAP", 3 * level)
    tab = LevelTable(SEQS[theory], 2, level)
    report = verify_level_axioms(tab)
    assert all(report[law] is True for law in LAWS)
    assert (report["points"], report["base-points"],
            report["composition-triples"]) == counts


def four_tape_relation(tab):
    """Oracle: (p, q, r) -> every s such that one 4-tape amalgam restricts
    to p, q, r, s on the tape pairs (0,1), (1,2), (2,3), (0,3), streamed
    tape by tape: the third tape extends the points, the fourth the 3-tape
    diagrams (`enumerate_types`) whose codes the first step streamed."""
    def extend(prefix, tape):
        return diagram_codes(tab.seq.theory, tape + 1, tab.n,
                             tab._tape_condition(tape), prefix=prefix)

    theory = tab.seq.theory
    three = conj(tab._tape_condition(t) for t in range(3))
    amalgams = {pair_codes(theory).codes_of(t): t
                for t in enumerate_types(theory, 3, tab.n, three)}
    index12 = tab.restriction_index(3, (1, 2))
    index23 = tab.restriction_index(4, (2, 3))
    index03 = tab.restriction_index(4, (0, 3))
    four = {}
    for p, point in enumerate(tab.points):
        for tri in extend(point, 2):
            q = index12(tri)
            for quad in extend(amalgams[tri], 3):
                four.setdefault((p, q, index23(quad)), set()).add(index03(quad))
    return four


def composites(composition, left):
    """Oracle: (p, q, r) -> (p q) r when `left`, else p (q r), for a set of
    composition triples; triples with no composite are absent."""
    comp = {}
    for a, b, c in composition:
        comp.setdefault((a, b), set()).add(c)
    by_end = {}
    for (a, b), cs in comp.items():
        by_end.setdefault(a if left else b, []).append((b if left else a, cs))
    out = {}
    for (a, b), mids in comp.items():
        for u in mids:
            for other, cs in by_end.get(u, ()):
                key = (a, b, other) if left else (other, a, b)
                out.setdefault(key, set()).update(cs)
    return out


def least_mismatch(lhs, rhs):
    bad = [t for t in lhs.keys() | rhs.keys() if lhs.get(t) != rhs.get(t)]
    return min(bad) if bad else None


@pytest.mark.parametrize("theory,level", [
    *((t, 1) for t in SEQS), ("pureset", 2), ("equivinf", 2),
    pytest.param("dlo", 2, marks=pytest.mark.slow),
])
def test_four_tape_amalgams_are_the_composite_join(theory, level):
    # a 4-tape amalgam exists iff its (0,3) type lies in (p q) r and in
    # p (q r), so comparing the two composites is the whole amalgam check
    tab = LevelTable(SEQS[theory], 2, level)
    lhs, rhs = (composites(tab.composition, left) for left in (True, False))
    four = four_tape_relation(tab)
    meet = {t: lhs[t] & rhs[t] for t in lhs.keys() & rhs.keys()}
    assert four == {t: s for t, s in meet.items() if s}
    assert lhs == rhs == four
    assert verify_level_axioms(tab)["associativity"] is True


MUTATED = {("pureset", 1): [(1, 1, 1)], ("dlo", 1): [],
           ("randomgraph", 1): [(1, 1, 1), (2, 2, 2)],
           ("equivinf", 1): [(1, 1, 1), (2, 2, 2)], ("pureset", 2): [(14, 14, 14)]}


@pytest.mark.parametrize("theory,level", sorted(MUTATED))
def test_single_triple_mutations_fail_a_law(theory, level, monkeypatch):
    # openness reads no composition, so it is left out of the loop
    monkeypatch.setattr(groupoid, "_openness", lambda tab: None)
    tab = LevelTable(SEQS[theory], 2, level)
    report = verify_level_axioms(tab)  # also caches what the copies share
    assert all(report[law] is True for law in LAWS)
    comp = tab.composition
    survivors = []
    for t in itertools.product(range(len(tab.points)), repeat=3):
        mutant = copy.copy(tab)
        mutant.composition = comp - {t} if t in comp else comp | {t}
        report = verify_level_axioms(mutant)
        if level == 1 or t in comp:  # the oracle is slow on 3,172 additions
            lhs, rhs = (composites(mutant.composition, left) for left in (True, False))
            least = least_mismatch(lhs, rhs)
            assoc = report["associativity"]
            assert (assoc is True) == (least is None), t
            if least is not None:
                assert assoc.witness == least, t
        if all(report[law] is True for law in LAWS):
            survivors.append(t)
    # only drops of a self-inverse p from p p escape: the relation left
    # satisfies every law, so no check on the relation alone can see them
    for p, q, c in survivors:
        assert p == q == c and (p, p, p) in comp and tab.inverses[p] == p
    assert survivors == MUTATED[theory, level]


def test_level_table_caps_amalgams(monkeypatch):
    seq = SEQS["pureset"]
    monkeypatch.setattr(theories, "GRID_CAP", 2)
    # the 2-variable points fit; the 3-tape composition amalgams do not
    with pytest.raises(ResourceCapError, match="grid of 3 variables") as exc:
        LevelTable(seq, 2, 1)
    assert (exc.value.cap, exc.value.limit, exc.value.observed) == ("max-grid", 2, 3)
    monkeypatch.setattr(theories, "GRID_CAP", 3)
    report = verify_level_axioms(LevelTable(seq, 2, 1))
    assert all(report[law] is True for law in LAWS)


def test_table_codes_and_restriction_maps():
    for theory, seq in SEQS.items():
        tab = LevelTable(seq, 2, 2)
        one = LevelTable(seq, 1, 2)
        swap = tab.restriction_index(2, (1, 0))
        tape1 = one.restriction_index(2, (1,))
        for i, p in enumerate(tab.points):
            assert tab.index(p) == i
            assert swap(tab.codes[i]) == tab.index(p.restrict((1, 0)))
            assert tape1(tab.codes[i]) == one.index(p.restrict((1,)))
            assert tab.inverses[i] == swap(tab.codes[i])
            target = tab.points[tab.target_bases[i]]
            assert type_key(target.restrict((0,))) == type_key(p.restrict((0,)))
            assert tab.target_bases[i] in tab.base


def test_point_clopen_agreement():
    # composition of clopens matches relational composition of point sets
    for theory, seq in SEQS.items():
        tab = LevelTable(seq, 2, 1)
        for U, V in itertools.product(corpus(theory), repeat=2):
            pu, pv = tab.points_of(U), tab.points_of(V)
            expected = {c for a, b, c in tab.composition if a in pu and b in pv}
            got = tab.points_of(compose_clopen(U, V))
            assert got == expected, theory


def test_en_neutrality_on_levels():
    for theory, seq in SEQS.items():
        E = en_clopen(seq, 2)
        for U in corpus(theory, level=2):
            assert clopen_equiv(compose_clopen(U, E), U)


def test_clopen_roundtrip_through_points():
    # formula -> point set -> disjunction of diagrams -> equivalent formula
    for theory, seq in SEQS.items():
        tab = LevelTable(seq, 2, 1)
        for U in corpus(theory):
            back = tab.clopen_of(tab.points_of(U))
            assert clopen_equiv(back, U), theory


def test_en_invariance():
    U = cl("dlo", "lt(x0,y0)", arity=2)
    assert is_en_invariant(U, 1)
    V = cl("dlo", "lt(x0,y1)", arity=2, level=2)
    assert is_en_invariant(V, 2)
    assert not is_en_invariant(V, 1)


def test_theta_reindex():
    seq = SEQS["pureset"]
    tab3 = LevelTable(seq, 3, 1)
    for p in tab3.points:
        base, pairs = theta_reindex(p)
        assert base.k == 1 and len(pairs) == 2
        fiber = theta_fiber(tab3, base, pairs)
        assert tab3.index(p) in fiber
    # all-equal point decomposes into the diagonal pair twice
    diag = [p for p in tab3.points if p.num_classes() == 1][0]
    base, pairs = theta_reindex(diag)
    E = LevelTable(seq, 2, 1)
    assert all(E.points[E.index(g)] in (E.points[i] for i in E.base) for g in pairs)


@pytest.mark.parametrize("theory,k,level", [
    ("equivinf", 2, 1), ("equivinf", 3, 1), ("dlo", 2, 1), ("dlo", 3, 1), ("dlo", 2, 2),
    pytest.param("equivinf", 3, 2, marks=pytest.mark.slow)])
def test_theta_fiber_matches_restrict_scan(theory, k, level):
    tab = LevelTable(SEQS[theory], k, level)
    # the scan by `restrict` and `key`, with the points grouped by their
    # restrictions once rather than restricted again for every fiber
    fibers: dict[tuple, list[int]] = {}
    for i, q in enumerate(tab.points):
        keys = tuple(type_key(q.restrict(tapes))
                     for tapes in [(0,), *((0, j) for j in range(1, k))])
        fibers.setdefault(keys, []).append(i)
    for p in tab.points:
        base, pairs = theta_reindex(p)
        want = (type_key(base), *(type_key(g) for g in pairs))
        assert theta_fiber(tab, base, pairs) == fibers[want]
    # a base that disagrees with the pairs on tape 0 has an empty fiber
    # (at level 1 tape 0 has one variable, so there is one base and no check)
    bases = {type_key(q.restrict((0,))): q.restrict((0,)) for q in tab.points}
    base, pairs = theta_reindex(tab.points[-1])
    for key, other in bases.items():
        if key != type_key(base):
            assert theta_fiber(tab, other, pairs) == []


def test_theta_diagonal_two_tape():
    seq = SEQS["dlo"]
    tab = LevelTable(seq, 2, 1)
    for b in tab.base:
        base, pairs = theta_reindex(tab.points[b])
        assert len(pairs) == 1
        assert tab.index(pairs[0]) in tab.base


def test_project_clopen():
    U = cl("pureset", "!eq(x1,y1)", arity=2, level=2)
    down = project_clopen(U, 1)
    assert down.level == 1 and down.formula == TRUE
    assert project_clopen(U, 2) is U
    Z = cl("pureset", "false", arity=2, level=2)
    assert project_clopen(Z, 1).formula == FALSE


def test_project_matches_point_restriction():
    for theory, seq in SEQS.items():
        tab2 = LevelTable(seq, 2, 2)
        tab1 = LevelTable(seq, 2, 1)
        for U in corpus(theory, level=2):
            down = project_clopen(U, 1)
            expected = {tab1.index(tab2.points[i].restrict((0, 1), 1))
                        for i in tab2.points_of(U)}
            assert tab1.points_of(down) == frozenset(expected), theory


def test_points_of_refuses_relations_outside_the_signature():
    # a clopen built directly, not through `clopen`, skips QE's check and
    # reaches the pair-code masks
    seq = SEQS["dlo"]
    x0, y0 = VarRef(0, 0), VarRef(1, 0)
    table = LevelTable(seq, 2, 1)
    for atom in (Atom("adj", (x0, y0)), Atom("lt", (x0, y0, x0))):
        with pytest.raises(SignatureError,
                           match=f"^dlo has no relation '{atom.rel}' of arity {len(atom.args)}$"):
            table.points_of(ClopenSet(seq, 2, atom, 1))


def test_clopen_window_validation():
    with pytest.raises(PreconditionError):
        ClopenSet(SEQS["dlo"], 1, parse_formula("lt(x0,y0)",
                  get_theory("dlo").relations), 1)
    # of several variables outside the window the least one is named, so
    # the message does not hang on set order
    with pytest.raises(PreconditionError, match="^x2 outside the 1x1 window$"):
        ClopenSet(SEQS["dlo"], 1, parse_formula("lt(z3,x2)",
                  get_theory("dlo").relations), 1)
