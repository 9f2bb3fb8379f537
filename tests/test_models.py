import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgw import reconstruction, theories
from tgw.categorical import universality_check
from tgw.errors import (InternalConsistencyError, PreconditionError,
                        SignatureError)
from tgw.formula import (FALSE, TRUE, And, Atom, Bot, Eq, Exists, Forall,
                         Implies, Not, Or, Top, VarRef, free_vars,
                         parse_formula, render_formula)
from tgw.models import (DloModel, DTuple, EquivInfModel, ModelHandle,
                        RandomGraphModel, build_dtuple, evaluate, make_model,
                        tuple_type)
from tgw.rich import RichSequence
from tgw.theories import _Elimination, decide_sentence, enumerate_types, get_theory

from test_formula import render_tree
from test_theories import assert_walks_match_trees, satisfies_qf, type_key


def x(i):
    return VarRef(0, i)


def relations(theory):
    return get_theory(theory).relations


class SeqStub:
    """Minimal enumeration handle: a fixed prefix, then true forever, with
    the defining clauses built as a rich sequence builds them."""

    def __init__(self, theory_id, prefix):
        self.theory = get_theory(theory_id)
        self.prefix = [parse_formula(t, self.theory.relations) for t in prefix]
        self._clauses = {}

    defining_clause = RichSequence.defining_clause

    def rich_formula(self, n):
        from tgw.formula import TRUE
        if 1 <= n <= len(self.prefix):
            return self.prefix[n - 1]
        return TRUE


def test_evaluate_dlo_atom():
    M = make_model("dlo")
    f = parse_formula("lt(x0,x1)", relations("dlo"))
    assert evaluate(f, M, {x(0): Fraction(1, 2), x(1): Fraction(2, 1)}) is True


def test_evaluate_pureset_fresh_witness():
    M = make_model("pureset")
    f = parse_formula("exists y0. !eq(y0,x0)", relations("pureset"))
    assert evaluate(f, M, {x(0): 5}) is True


def test_evaluate_randomgraph_extension_sentence():
    M = make_model("randomgraph")
    f = parse_formula(
        "forall x0. forall x1. (!eq(x0,x1) -> exists y0."
        "(adj(x0,y0) & !adj(x1,y0) & !eq(y0,x0) & !eq(y0,x1)))",
        relations("randomgraph"))
    assert evaluate(f, M, {}) is True


def test_evaluate_equivinf_class_structure():
    M = make_model("equivinf")
    f = parse_formula("exists y0. (equiv(y0,x0) & !eq(y0,x0))", relations("equivinf"))
    assert evaluate(f, M, {x(0): 0}) is True
    g = parse_formula("exists y0. !equiv(y0,x0)", relations("equivinf"))
    assert evaluate(g, M, {x(0): 0}) is True


def test_evaluate_missing_assignment():
    M = make_model("dlo")
    with pytest.raises(PreconditionError):
        evaluate(parse_formula("lt(x0,x1)", relations("dlo")), M, {x(0): Fraction(0)})


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_evaluate_refuses_relations_outside_the_signature(theory):
    # each model's `atomic` reads only its own relation, so a formula built
    # through the API is checked against the model's theory, whatever other
    # theory's model evaluated it first
    owners = {"lt": "dlo", "adj": "randomgraph", "equiv": "equivinf"}
    own = relations(theory)
    x0, x1, x2 = x(0), x(1), x(2)
    bad = [Atom(rel, (x0, x1)) for rel in owners if rel not in own]
    bad += [Atom(rel, args) for rel in own for args in ((x0,), (x0, x1, x2))]
    assert len(bad) == (3 if theory == "pureset" else 4)
    M = make_model(theory)
    for atom in bad:
        arity = len(atom.args)
        sentence = atom
        for v in sorted(free_vars(atom), reverse=True):
            sentence = Exists(v, sentence)
        if atom.rel not in own:
            evaluate(sentence, make_model(owners[atom.rel]), {})
        for f in (sentence, Not(sentence), Forall(x2, Or((sentence, Eq(x2, x2))))):
            with pytest.raises(SignatureError,
                               match=f"^{theory} has no relation '{atom.rel}' of arity {arity}$"):
                evaluate(f, M, {})


def test_tuple_type_examples():
    M = make_model("pureset")
    t = tuple_type(M, [0, 0])
    assert t.k == 1 and t.n == 2
    assert t.classes == (0, 0)

    D = make_model("dlo")
    t2 = tuple_type(D, [Fraction(0), Fraction(1)])
    assert satisfies_qf(t2, parse_formula("lt(x0,x1)", relations("dlo")))

    G = make_model("randomgraph")
    G.witness_candidates([0])  # posts the one-vertex patterns
    t3 = tuple_type(G, [0, 1])
    assert t3.classes == (0, 1)


def test_build_dtuple_level_zero():
    M = make_model("dlo")
    dt = build_dtuple(M, SeqStub("dlo", []), 0, ())
    assert dt.elements == () and dt.ok


def test_build_dtuple_pureset_cover_and_witness():
    M = make_model("pureset")
    dt = build_dtuple(M, SeqStub("pureset", ["!eq(x0,y0)"]), 2, cover=[0, 1])
    assert dt.elements == (0, 1)
    assert dt.ok


def test_build_dtuple_dlo_least_witness_above():
    M = make_model("dlo")
    dt = build_dtuple(M, SeqStub("dlo", ["lt(x0,y0)"]), 2, ())
    assert dt.elements[0] == Fraction(0)
    # least-index rational above 0 in the carrier order 0, 1, -1, 1/2, ...
    assert dt.elements[1] == Fraction(1)
    assert dt.ok


def test_build_dtuple_extension_keeps_prefix():
    M = make_model("equivinf")
    seq = SeqStub("equivinf", ["equiv(x0,y0)", "!equiv(x0,y0)"])
    dt = build_dtuple(M, seq, 2, cover=[0, 1, 2])
    ext = build_dtuple(M, seq, 5, cover=[0, 1, 2], base=dt.elements)
    assert ext.elements[:2] == dt.elements
    assert ext.ok


def test_dtuple_certificate_reevaluates():
    M = make_model("dlo")
    seq = SeqStub("dlo", ["lt(x0,y0)", "lt(y0,x0)"])
    dt = build_dtuple(M, seq, 3, ())
    assert dt.ok
    bad = DTuple((Fraction(0), Fraction(-1)), ())
    from tgw.models import certify_dtuple
    assert certify_dtuple(M, seq, bad.elements) == (True, False)


def test_oracle_agreement_on_sentences():
    corpora = {
        "pureset": ["exists x0. exists y0. !eq(x0,y0)",
                    "forall x0. exists y0. eq(x0,y0)",
                    "exists x0. forall y0. eq(x0,y0)"],
        "dlo": ["forall x0. exists y0. lt(x0,y0)",
                "exists x0. forall y0. lt(x0,y0)",
                "forall x0. forall x1. (lt(x0,x1) -> exists y0.(lt(x0,y0) & lt(y0,x1)))"],
        "randomgraph": ["forall x0. exists y0. adj(x0,y0)",
                        "exists x0. forall y0. adj(x0,y0)"],
        "equivinf": ["forall x0. exists y0. (equiv(x0,y0) & !eq(x0,y0))",
                     "exists x0. forall y0. equiv(x0,y0)"],
    }
    for theory, texts in corpora.items():
        M = make_model(theory)
        for text in texts:
            f = parse_formula(text, relations(theory))
            assert evaluate(f, M, {}) == decide_sentence(f, theory), (theory, text)


def test_tuple_types_are_enumerated_types():
    M = make_model("dlo")
    pts = [Fraction(0), Fraction(1), Fraction(1)]
    t = tuple_type(M, pts)
    keys = {type_key(u) for u in enumerate_types("dlo", 1, 3, TRUE)}
    assert type_key(t) in keys


# the least prefix of each model's elements realising every 4-variable type
REALISING_PREFIX = {"pureset": 4, "dlo": 4, "equivinf": 10, "randomgraph": 12}


@pytest.mark.parametrize("theory", sorted(REALISING_PREFIX))
def test_enumeration_matches_model_tuples(theory):
    # every m-tuple over the prefix has an enumerated type, and every
    # enumerated type is realised by one of them
    M = make_model(theory)
    prefix = [M.element(i) for i in range(REALISING_PREFIX[theory])]
    for m in range(5):
        realised = {type_key(tuple_type(M, list(tup)))
                    for tup in itertools.product(prefix, repeat=m)}
        want = enumerate_types(theory, 1, m, TRUE)
        assert realised == {type_key(t) for t in want}, (theory, m)


class _ReflexiveOrder(DloModel):
    def atomic(self, rel, a, b):
        return a <= b


class _DirectedGraph(RandomGraphModel):
    def atomic(self, rel, a, b):
        return a < b


class _Neighbours(EquivInfModel):
    def atomic(self, rel, a, b):
        return abs(a - b) <= 1


@pytest.mark.parametrize("model,elements", [
    (_ReflexiveOrder, [0, 1]),      # a diagonal unlike the 1-variable diagram
    (_DirectedGraph, [0, 1]),       # a class pair with no pair code
    (_Neighbours, [0, 1, 2]),       # a class triple the triple table forbids
    (_Neighbours, [0, 1, 0, 2]),    # the same, after a repeated element
])
def test_tuple_type_refuses_inadmissible_diagrams(model, elements):
    stub, plain = model(), model.__base__()
    for M in (stub, plain):
        for e in elements:
            M.element(e)
    with pytest.raises(InternalConsistencyError, match="inadmissible"):
        tuple_type(stub, elements)
    # the model the stub alters gives an admissible diagram on the same tuple
    assert tuple_type(plain, elements).num_classes() == len(set(elements))


def test_model_dump_deterministic():
    a = make_model("randomgraph").dump(4)
    b = make_model("randomgraph").dump(4)
    assert a == b
    assert a["theory"] == "randomgraph"
    assert len(a["carrier"]) == 4


@pytest.mark.parametrize("size", [0, 1, 2, 37, 200])
def test_dlo_dump_by_ranks_matches_the_atomic_dump(size):
    # the base dump asks `atomic` of every ordered pair
    assert DloModel().dump(size) == ModelHandle.dump(DloModel(), size)


@st.composite
def sentences(draw, theory, max_quantifiers=3):
    """Sentences with at most `max_quantifiers` quantifiers, each binding its
    own variable.  Half are prenex, Q x0 .. Q x_{n-2} [!] exists x_{n-1} over
    a cube of two or three literals that pair the innermost variable with
    another through the theory's relation: the one-point extension problems
    that `eliminate_one` decides.  Those are drawn from one seeded `Random`,
    so that they vary more than Hypothesis's own draws would."""
    rels = ["eq", *relations(theory)]

    def literal(pick, pairs, names):
        a, b = pick(pairs)
        rel = pick(names)
        lit = Eq(a, b) if rel == "eq" else Atom(rel, (a, b))
        return pick([lit, Not(lit)])

    if draw(st.booleans()):
        rnd = draw(st.randoms(use_true_random=False))
        *outer, v = [x(i) for i in range(max_quantifiers)]
        pairs = [p for w in outer for p in ((w, v), (v, w))]
        f = Exists(v, And(tuple(literal(rnd.choice, pairs, rels[-1:])
                                for _ in range(rnd.randint(2, 3)))))
        f = rnd.choice([f, Not(f)])
        for w in reversed(outer):
            f = rnd.choice([Exists, Forall])(w, f)
        return f
    budget = [max_quantifiers]

    def build(bound, depth):
        ops = ["atom"] * 3 if bound else ["const"]
        if depth < 3:
            ops += ["not", "and", "or", "implies"]
        if budget[0]:
            ops += ["quantifier"] * 3
        op = draw(st.sampled_from(ops))
        if op == "const":
            return draw(st.sampled_from([TRUE, FALSE]))
        if op == "atom":  # x R x literals are constants: distinct variables if possible
            return literal(lambda xs: draw(st.sampled_from(xs)),
                           [p for p in itertools.product(bound, repeat=2)
                            if p[0] != p[1] or len(bound) == 1], rels)
        if op == "not":
            return Not(build(bound, depth + 1))
        if op == "quantifier":
            v = x(len(bound))
            budget[0] -= 1
            node = draw(st.sampled_from([Exists, Forall]))
            return node(v, build(bound + [v], depth + 1))
        lhs, rhs = build(bound, depth + 1), build(bound, depth + 1)
        if op == "implies":
            return Implies(lhs, rhs)
        return And((lhs, rhs)) if op == "and" else Or((lhs, rhs))

    return build([], 0)


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_qe_decides_like_the_model(theory):
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(sentences(theory))
    def check(f):
        assert decide_sentence(f, theory) == evaluate(f, make_model(theory), {})
    check()


@st.composite
def miniscoped_sentences(draw, theory):
    """Sentences Q x0 Q x1 Q x2 [!] exists x3 (A op B), op `&` or `|`, where
    A is one or two literals with the first on x3 and B one or two literals
    on x0..x2: the existentials that QE splits over a disjunction or keeps
    B outside of."""
    rels = ["eq", *relations(theory)]
    *outer, v = [x(i) for i in range(4)]
    on_v = [p for w in outer for p in ((w, v), (v, w))]
    off_v = list(itertools.permutations(outer, 2))

    def literal(pairs):
        a, b = draw(st.sampled_from(pairs))
        rel = draw(st.sampled_from(rels))
        lit = Eq(a, b) if rel == "eq" else Atom(rel, (a, b))
        return Not(lit) if draw(st.booleans()) else lit

    def part(first, rest):
        lits = (literal(first),) + tuple(literal(rest) for _ in range(draw(st.integers(0, 1))))
        return lits[0] if len(lits) == 1 else draw(st.sampled_from([And, Or]))(lits)

    body = draw(st.sampled_from([And, Or]))((part(on_v, on_v + off_v), part(off_v, off_v)))
    f = Exists(v, body)
    f = draw(st.sampled_from([f, Not(f)]))
    for w in reversed(outer):
        f = draw(st.sampled_from([Exists, Forall]))(w, f)
    return f


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_qe_decides_miniscoped_sentences_like_the_model(theory, monkeypatch):
    # both rules must fire on the innermost existential of some example
    fired = set()
    exists_one = _Elimination.exists_one

    def spy(self, v, qf):
        if v == x(3) and v in free_vars(qf):
            if isinstance(qf, Or):
                fired.add("or")
            elif isinstance(qf, And) and any(v not in free_vars(c) for c in qf.children):
                fired.add("and")
        return exists_one(self, v, qf)

    monkeypatch.setattr(_Elimination, "exists_one", spy)
    monkeypatch.setattr(theories, "_QE_CACHE", {})

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(miniscoped_sentences(theory))
    def check(f):
        assert decide_sentence(f, theory) == evaluate(f, make_model(theory), {})
    check()
    assert fired == {"or", "and"}


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_memoised_walks_match_tree_walks_on_sentences(theory):
    t = get_theory(theory)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(sentences(theory))
    def check(f):
        assert_walks_match_trees(t, f)
        assert render_formula(f) == render_tree(f)
    check()


def oracle_evaluate(f, M, assignment):
    """The recursive evaluator the compiled one replaced, kept as the
    reference: no compilation, no memo, and one assignment per candidate."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Eq):
        return _val(assignment, f.lhs) == _val(assignment, f.rhs)
    if isinstance(f, Atom):
        return M.atomic(f.rel, _val(assignment, f.args[0]), _val(assignment, f.args[1]))
    if isinstance(f, Not):
        return not oracle_evaluate(f.sub, M, assignment)
    if isinstance(f, And):
        return all(oracle_evaluate(c, M, assignment) for c in f.children)
    if isinstance(f, Or):
        return any(oracle_evaluate(c, M, assignment) for c in f.children)
    if isinstance(f, Implies):
        return (not oracle_evaluate(f.lhs, M, assignment)) or \
            oracle_evaluate(f.rhs, M, assignment)
    if isinstance(f, (Exists, Forall)):
        body_vars = free_vars(f.body)
        live = {v: e for v, e in assignment.items() if v in body_vars}
        params = sorted(set(live.values()))
        cands = M.witness_candidates(params)
        results = (oracle_evaluate(f.body, M, {**assignment, f.var: c})
                   for c in cands)
        return any(results) if isinstance(f, Exists) else all(results)
    raise PreconditionError(f"cannot evaluate {render_formula(f)}")


def _val(assignment, v):
    try:
        return assignment[v]
    except KeyError:
        raise PreconditionError(
            f"assignment does not cover {v.render()}") from None


FREE = (x(0), x(1))


@st.composite
def open_formulas(draw, theory):
    """Formulas over the free variables FREE with at most three nested
    quantifiers.  A quantifier binds a fresh y-variable or one of FREE,
    which it then shadows; atoms use the variables in scope."""
    rels = ["eq", *relations(theory)]

    def build(scope, depth, quantifiers):
        ops = ["atom"] * 3
        if depth < 4:
            ops += ["not", "and", "or", "implies"]
        if quantifiers < 3:
            ops += ["quantifier"] * 3
        op = draw(st.sampled_from(ops))
        if op == "atom":
            a, b = draw(st.sampled_from(list(itertools.product(scope, repeat=2))))
            rel = draw(st.sampled_from(rels))
            return Eq(a, b) if rel == "eq" else Atom(rel, (a, b))
        if op == "not":
            return Not(build(scope, depth + 1, quantifiers))
        if op == "quantifier":
            v = draw(st.sampled_from([VarRef(1, quantifiers), *FREE]))
            node = draw(st.sampled_from([Exists, Forall]))
            return node(v, build(sorted({*scope, v}), depth + 1, quantifiers + 1))
        lhs = build(scope, depth + 1, quantifiers)
        rhs = build(scope, depth + 1, quantifiers)
        if op == "implies":
            return Implies(lhs, rhs)
        return And((lhs, rhs)) if op == "and" else Or((lhs, rhs))

    return build(list(FREE), 0, 0)


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_compiled_evaluate_agrees_with_the_oracle(theory):
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(open_formulas(theory), st.tuples(st.integers(0, 7), st.integers(0, 7)))
    def check(f, indices):
        M, fresh = make_model(theory), make_model(theory)
        want = oracle_evaluate(f, fresh, {v: fresh.element(i) for v, i in zip(FREE, indices)})
        asg = {v: M.element(i) for v, i in zip(FREE, indices)}
        assert evaluate(f, M, asg) == want
        # the second evaluation reads memoised verdicts and commits nothing
        state = dict(M.verdicts), getattr(M, "size", None)
        assert evaluate(f, M, asg) == want
        assert (dict(M.verdicts), getattr(M, "size", None)) == state
    check()


def quantifier_free(f):
    """The walk that chose which quantifier bodies memoise before nodes
    stored their bound variables."""
    if isinstance(f, (Exists, Forall)):
        return False
    if isinstance(f, Not):
        return quantifier_free(f.sub)
    if isinstance(f, Implies):
        return quantifier_free(f.lhs) and quantifier_free(f.rhs)
    if isinstance(f, (And, Or)):
        return all(map(quantifier_free, f.children))
    return True


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(open_formulas("equivinf"))
def test_memo_flag_matches_the_quantifier_free_walker(f):
    assert (not f.bound_vars) == quantifier_free(f)


def test_randomgraph_commit_order_is_pinned():
    # the vertices committed by two witness workloads, and the adjacency set
    # of each vertex committed on demand, as the candidate rule first gave them
    M = make_model("randomgraph")
    universality_check(RichSequence("randomgraph"), k=2, m0=1, M=M, samples=32)
    assert M.size == 113
    assert {v: tuple(sorted(pos)) for v, pos in M._demand_pos.items()} == UNIVERSALITY_DEMANDS

    made = []

    def recording(theory):
        made.append(make_model(theory))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconstruction, "make_model", recording)
        reconstruction.reconstruct_and_compare("randomgraph", depth=1, budget=32)
    assert [(R.size, R._demand_pos) for R in made] == [(32, {})]


UNIVERSALITY_DEMANDS = {
    8: (), 9: (0,), 10: (1,), 11: (5,), 12: (0, 5), 13: (0, 1, 5), 14: (4,),
    15: (3,), 16: (3, 5), 17: (0, 3, 5), 18: (0, 4), 19: (0, 4), 20: (18,),
    21: (0, 18), 22: (4, 18), 23: (0, 4, 18), 24: (6,), 25: (0, 6),
    26: (0, 1, 6), 27: (0, 7), 28: (3, 7), 29: (8,), 30: (0, 8), 31: (0, 8),
    32: (30,), 33: (0, 30), 34: (8, 30), 35: (0, 8, 30), 36: (9,), 37: (0, 9),
    38: (1, 9), 39: (0, 1, 9), 40: (10,), 41: (0, 10), 42: (1, 10),
    43: (0, 1, 10), 44: (11,), 45: (0, 11), 46: (5, 11), 47: (0, 5, 11),
    48: (12,), 49: (1, 12), 50: (0, 1, 12), 51: (13,), 52: (3, 13),
    53: (0, 14), 54: (0, 14), 55: (53,), 56: (0, 53), 57: (14, 53),
    58: (0, 14, 53), 59: (15,), 60: (0, 15), 61: (3, 15), 62: (0, 3, 15),
    63: (16,), 64: (3, 16), 65: (0, 3, 16), 66: (17,), 67: (1, 17),
    68: (1, 18), 69: (0, 1, 18), 70: (0, 19), 71: (1, 19), 72: (0, 1, 19),
    73: (20,), 74: (0, 20), 75: (18, 20), 76: (0, 18, 20), 77: (21,),
    78: (1, 21), 79: (0, 1, 21), 80: (22,), 81: (0, 22), 82: (0, 18, 22),
    83: (1, 23), 84: (0, 1, 23), 85: (0, 24), 86: (0, 24), 87: (85,),
    88: (0, 85), 89: (24, 85), 90: (0, 24, 85), 91: (0, 25), 92: (25,),
    93: (0, 1, 25), 94: (0, 26), 95: (3, 26), 96: (27,), 97: (0, 27),
    98: (1, 27), 99: (28,), 100: (3, 28), 101: (0, 3, 28), 102: (0, 29),
    103: (0, 29), 104: (102,), 105: (0, 102), 106: (29, 102),
    107: (0, 29, 102), 108: (1, 30), 109: (0, 1, 30), 110: (0, 31),
    111: (1, 31), 112: (0, 1, 31),
}


@pytest.mark.parametrize("params", [[], [0], [1, 0], [0, 2, 5]])
def test_randomgraph_candidates_realise_each_pattern_once(params):
    G = make_model("randomgraph")
    G.element(5)
    first = G.witness_candidates(params)
    ps = sorted(set(params))
    assert first[:len(ps)] == ps
    masks = [sum(1 << i for i, a in enumerate(ps) if G.atomic("adj", w, a))
             for w in first[len(ps):]]
    assert sorted(masks) == list(range(1 << len(ps)))
    # a repeated call commits nothing and returns the same candidates
    size = G.size
    assert G.witness_candidates(params) == first
    assert G.size == size


def _candidates_through_the_memo(M, indices):
    """Evaluate `exists y0` over a body whose parameters are the elements at
    `indices`, so the quantifier asks `M.candidates` for them."""
    y0 = VarRef(1, 0)
    body = Or(tuple(Eq(y0, x(i)) for i in range(len(indices)))) if indices else Eq(y0, y0)
    evaluate(Exists(y0, body), M, {x(i): M.element(j) for i, j in enumerate(indices)})
    return tuple(sorted({M.element(j) for j in indices}))


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_candidate_memo_matches_fresh_calls_on_the_grown_model(theory):
    M = make_model(theory)
    M.element(5)
    keys = [_candidates_through_the_memo(M, ix) for ix in ([], [0], [3, 1], [0, 2, 5], [4, 4])]
    assert set(keys) <= set(M.candidates)
    memoised = {key: list(M.candidates[key]) for key in keys}
    # grow the model: more elements, candidates over other parameters, and
    # on the graph, vertices committed on demand
    M.element(200)
    for ix in ([7], [9, 150], [1, 6, 200], [0, 1, 2, 3]):
        _candidates_through_the_memo(M, ix)
    if theory == "randomgraph":
        for pos in (frozenset(), frozenset({0}), frozenset({1, 3}), frozenset({0, 2, 5})):
            M.commit_demand(pos)
    state = getattr(M, "size", None), dict(getattr(M, "_demand_pos", {}))
    for key, cands in memoised.items():
        assert M.candidates[key] == cands
        assert M.witness_candidates(list(key)) == cands, key
    assert (getattr(M, "size", None), dict(getattr(M, "_demand_pos", {}))) == state


def test_cheap_atoms_match_their_definitions():
    from tgw.pairing import cantor_unpair
    D, E = make_model("dlo"), make_model("equivinf")
    dlo = [D.element(i) for i in range(60)]
    assert all(D.atomic("lt", a, b) == (a < b) for a in dlo for b in dlo)
    assert all(E.atomic("equiv", a, b) == (cantor_unpair(a)[0] == cantor_unpair(b)[0])
               for a in range(60) for b in range(60))
