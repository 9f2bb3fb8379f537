import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgw.errors import (EvaluationCapError, InternalConsistencyError,
                        PreconditionError)
from tgw.formula import (FALSE, TRUE, And, Atom, Eq, Exists, Forall, Implies,
                         Not, Or, VarRef, parse_formula)
from tgw.models import (DloModel, DTuple, EquivInfModel, RandomGraphModel,
                        build_dtuple, evaluate, make_model, tuple_type)
from tgw.rich import RichSequence
from tgw.theories import decide_sentence, enumerate_types, get_theory


def x(i):
    return VarRef(0, i)


def sig(theory):
    return get_theory(theory).signature


class SeqStub:
    """Minimal enumeration handle: a fixed prefix, then true forever, with
    the defining clauses built as a rich sequence builds them."""

    def __init__(self, theory_id, prefix):
        self.theory = get_theory(theory_id)
        self.prefix = [parse_formula(t, self.theory.signature) for t in prefix]
        self._clauses = {}

    defining_clause = RichSequence.defining_clause

    def rich_formula(self, n):
        from tgw.formula import TRUE
        if 1 <= n <= len(self.prefix):
            return self.prefix[n - 1]
        return TRUE


def test_evaluate_dlo_atom():
    M = make_model("dlo")
    f = parse_formula("lt(x0,x1)", sig("dlo"))
    assert evaluate(f, M, {x(0): Fraction(1, 2), x(1): Fraction(2, 1)}) is True


def test_evaluate_pureset_fresh_witness():
    M = make_model("pureset")
    f = parse_formula("exists y0. !eq(y0,x0)", sig("pureset"))
    assert evaluate(f, M, {x(0): 5}) is True


def test_evaluate_randomgraph_extension_sentence():
    M = make_model("randomgraph")
    f = parse_formula(
        "forall x0. forall x1. (!eq(x0,x1) -> exists y0."
        "(adj(x0,y0) & !adj(x1,y0) & !eq(y0,x0) & !eq(y0,x1)))",
        sig("randomgraph"))
    assert evaluate(f, M, {}) is True


def test_evaluate_equivinf_class_structure():
    M = make_model("equivinf")
    f = parse_formula("exists y0. (equiv(y0,x0) & !eq(y0,x0))", sig("equivinf"))
    assert evaluate(f, M, {x(0): 0}) is True
    g = parse_formula("exists y0. !equiv(y0,x0)", sig("equivinf"))
    assert evaluate(g, M, {x(0): 0}) is True


def test_evaluate_missing_assignment():
    M = make_model("dlo")
    with pytest.raises(PreconditionError):
        evaluate(parse_formula("lt(x0,x1)", sig("dlo")), M, {x(0): Fraction(0)})


def test_evaluate_depth_cap():
    M = make_model("pureset", max_quantifier_depth=1)
    f = parse_formula("exists y0. exists y1. !eq(y0,y1)", sig("pureset"))
    with pytest.raises(EvaluationCapError):
        evaluate(f, M, {})


def test_tuple_type_examples():
    M = make_model("pureset")
    t = tuple_type(M, [[0], [0]])
    assert t.k == 2 and t.n == 1
    assert t.classes == (0, 0)

    D = make_model("dlo")
    t2 = tuple_type(D, [[Fraction(0), Fraction(1)]])
    assert t2.satisfies_qf(parse_formula("lt(x0,x1)", sig("dlo")))

    G = make_model("randomgraph")
    G.witness_candidates([0])  # posts the one-vertex patterns
    t3 = tuple_type(G, [[0, 1]])
    assert t3.classes == (0, 1)


def test_build_dtuple_level_zero():
    M = make_model("dlo")
    dt = build_dtuple(M, SeqStub("dlo", []), 0)
    assert dt.elements == () and dt.ok


def test_build_dtuple_pureset_cover_and_witness():
    M = make_model("pureset")
    dt = build_dtuple(M, SeqStub("pureset", ["!eq(x0,y0)"]), 2, cover=[0, 1])
    assert dt.elements == (0, 1)
    assert dt.ok


def test_build_dtuple_dlo_least_witness_above():
    M = make_model("dlo")
    dt = build_dtuple(M, SeqStub("dlo", ["lt(x0,y0)"]), 2)
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
    dt = build_dtuple(M, seq, 3)
    assert dt.ok
    bad = DTuple("dlo", 2, (Fraction(0), Fraction(-1)), ())
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
            f = parse_formula(text, sig(theory))
            assert evaluate(f, M, {}) == decide_sentence(f, theory), (theory, text)


def test_tuple_types_are_enumerated_types():
    M = make_model("dlo")
    pts = [Fraction(0), Fraction(1), Fraction(1)]
    t = tuple_type(M, [pts])
    keys = {u.key() for u in enumerate_types("dlo", 1, 3)}
    assert t.key() in keys


# the least prefix of each model's elements realising every 4-variable type
REALISING_PREFIX = {"pureset": 4, "dlo": 4, "equivinf": 10, "randomgraph": 12}


@pytest.mark.parametrize("theory", sorted(REALISING_PREFIX))
def test_enumeration_matches_model_tuples(theory):
    # every m-tuple over the prefix has an enumerated type, and every
    # enumerated type is realised by one of them
    M = make_model(theory)
    prefix = [M.element(i) for i in range(REALISING_PREFIX[theory])]
    for m in range(5):
        realised = {tuple_type(M, [list(tup)]).key()
                    for tup in itertools.product(prefix, repeat=m)}
        assert realised == {t.key() for t in enumerate_types(theory, 1, m)}, (theory, m)


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
])
def test_tuple_type_refuses_inadmissible_diagrams(model, elements):
    stub, plain = model(), model.__base__()
    for M in (stub, plain):
        for e in elements:
            M.element(e)
    with pytest.raises(InternalConsistencyError, match="inadmissible"):
        tuple_type(stub, [elements])
    # the model the stub alters gives an admissible diagram on the same tuple
    assert tuple_type(plain, [elements]).num_classes() == len(elements)


def test_model_dump_deterministic():
    a = make_model("randomgraph").dump(4)
    b = make_model("randomgraph").dump(4)
    assert a == b
    assert a["theory"] == "randomgraph"
    assert len(a["carrier"]) == 4


@st.composite
def sentences(draw, theory, max_quantifiers=3):
    """Sentences with at most `max_quantifiers` quantifiers, each binding its
    own variable.  Half are prenex, Q x0 .. Q x_{n-2} [!] exists x_{n-1} over
    a cube of two or three literals that pair the innermost variable with
    another through the theory's relation: the one-point extension problems
    that `eliminate_one` decides.  Those are drawn from one seeded `Random`,
    so that they vary more than Hypothesis's own draws would."""
    rels = ["eq"] + [rel for rel, _ in sig(theory).relations]

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
