import pytest

from tgw.errors import PreconditionError
from tgw.formula import (TRUE, Eq, VarRef, conj, implies, parse_formula,
                         rename_tapes)
from tgw.groupoid import (ClopenSet, LevelTable, SubGroupoid, clopen,
                          contains_base, en_clopen, is_subgroupoid)
from tgw.models import build_dtuple, make_model
from tgw.reconstruction import (predicate_corpus, predicate_value,
                                reconstruct_and_compare, sort_elements)
from tgw.rich import RichSequence
from tgw.theories import canonical_form, get_theory

SEQS = {t: RichSequence(t) for t in ("pureset", "dlo", "randomgraph", "equivinf")}


def cl(theory, text, **kw):
    seq = SEQS[theory]
    return clopen(seq, parse_formula(text, seq.theory.signature), **kw)


def recovered(H: SubGroupoid):
    """H's two-tape formula read back through the point table at its level,
    as `reconstruct` recovers each predicate, in canonical form."""
    U = H.clopen
    tab = LevelTable(U.seq, 2, U.level)
    return canonical_form(tab.clopen_of(tab.points_of(U)).formula, U.theory)


def test_equivalence_recovery_exact_for_e1():
    H = is_subgroupoid(en_clopen(SEQS["pureset"], 1))
    assert recovered(H) == Eq(VarRef(0, 0), VarRef(1, 0))


@pytest.mark.parametrize("theory,text,refusal", [
    ("dlo", "lt(x0,y0)", "not reflexive"),
    ("dlo", "(lt(x0,y0) | eq(x0,y0))", "not symmetric"),
    ("randomgraph", "(eq(x0,y0) | adj(x0,y0))", "not transitive"),
])
def test_equivalence_axioms_refusals(theory, text, refusal):
    # the named axiom is the first to fail on the witness sort
    seq = SEQS[theory]
    E = parse_formula(text, seq.theory.signature)
    swap = rename_tapes(E, {0: 1, 1: 0})
    chain = conj([E, rename_tapes(E, {0: 1, 1: 2})])
    verdicts = {"not reflexive": contains_base(ClopenSet(seq, 2, E, 1)),
                "not symmetric": seq.valid(implies(E, swap), 2),
                "not transitive": seq.valid(implies(chain, rename_tapes(E, {1: 2})), 3)}
    assert next(name for name, holds in verdicts.items() if not holds) == refusal


def test_equivalence_recovery_true():
    H = is_subgroupoid(cl("pureset", "true", arity=2, level=1))
    assert recovered(H) == TRUE


def test_equivalence_recovery_equivinf():
    H = is_subgroupoid(cl("equivinf", "equiv(x0,y0)", arity=2))
    E = recovered(H)
    assert E == canonical_form(parse_formula("equiv(x0,y0)",
                               get_theory("equivinf").signature), "equivinf")


def test_lemma_round_trip_corpus():
    # E -> clopen -> E returns a theory-equivalent formula
    corpus = {"pureset": ["eq(x0,y0)", "true"],
              "dlo": ["eq(x0,y0)", "true"],
              "randomgraph": ["eq(x0,y0)", "true"],
              "equivinf": ["eq(x0,y0)", "equiv(x0,y0)", "true"]}
    for theory, texts in corpus.items():
        for text in texts:
            E = parse_formula(text, SEQS[theory].theory.signature)
            H = is_subgroupoid(clopen(SEQS[theory], E, arity=2,
                                      level=max(1, clopen(SEQS[theory], E).level)))
            assert isinstance(H, SubGroupoid), (theory, text)
            assert recovered(H) == canonical_form(E, theory), (theory, text)


def test_sort_elements_classes():
    theory = "pureset"
    seq = SEQS[theory]
    M = make_model(theory)
    H = is_subgroupoid(en_clopen(seq, 1))
    e = build_dtuple(M, seq, 1, cover=[M.element(i) for i in range(8)])
    classes = sort_elements(e, H, M, seq, 8)
    firsts = [c.rep.elements[0] for c in classes]
    assert len(set(firsts)) == len(firsts) == 8


def test_sort_elements_coarse_relation():
    theory = "dlo"
    seq = SEQS[theory]
    M = make_model(theory)
    H = is_subgroupoid(cl(theory, "true", arity=2, level=1))
    e = build_dtuple(M, seq, 1, cover=[M.element(i) for i in range(4)])
    classes = sort_elements(e, H, M, seq, 8)
    assert len(classes) == 1
    assert len(classes[0].members) == 8


def test_sort_refinement():
    # finer sub-groupoid refines the coarser quotient on the same sample
    theory = "equivinf"
    seq = SEQS[theory]
    M = make_model(theory)
    fine = is_subgroupoid(en_clopen(seq, 1))
    coarse = is_subgroupoid(cl(theory, "equiv(x0,y0)", arity=2))
    e = build_dtuple(M, seq, 1, cover=[M.element(i) for i in range(8)])
    fine_classes = sort_elements(e, fine, M, seq, 8)
    coarse_classes = sort_elements(e, coarse, M, seq, 8)
    assert len(coarse_classes) <= len(fine_classes)


def test_sort_elements_budget_zero():
    theory = "pureset"
    seq = SEQS[theory]
    M = make_model(theory)
    H = is_subgroupoid(en_clopen(seq, 1))
    e = build_dtuple(M, seq, 1)
    with pytest.raises(PreconditionError):
        sort_elements(e, H, M, seq, 0)


def test_predicate_value_examples():
    theory = "dlo"
    seq = SEQS[theory]
    M = make_model(theory)
    H = is_subgroupoid(en_clopen(seq, 1))
    e = build_dtuple(M, seq, 1, cover=[M.element(i) for i in range(4)])
    classes = sort_elements(e, H, M, seq, 4)
    by_first = {c.rep.elements[0]: c for c in classes}
    from fractions import Fraction
    zero, one = by_first[Fraction(0)], by_first[Fraction(1)]
    X = cl(theory, "lt(x0,y0)", arity=2)
    assert predicate_value(X, [zero, one], M) is True
    assert predicate_value(X, [one, zero], M) is False
    # reflexivity of the sort relation on one class twice
    assert predicate_value(H.clopen, [zero, zero], M) is True
    # distinct classes are not identified
    E = cl("pureset", "eq(x0,y0)", arity=2)
    Mp = make_model("pureset")
    Hp = is_subgroupoid(en_clopen(SEQS["pureset"], 1))
    ep = build_dtuple(Mp, SEQS["pureset"], 1, cover=[0, 1])
    cp = sort_elements(ep, Hp, Mp, SEQS["pureset"], 2)
    assert predicate_value(E, [cp[0], cp[1]], Mp) is False


def test_predicate_corpus_pureset():
    cs = predicate_corpus(SEQS["pureset"], 1)
    rendered = {c.formula for c in cs}
    assert len(rendered) == 4  # true, false, eq, !eq


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_reconstruct_and_compare(theory):
    report = reconstruct_and_compare(theory, level=1, depth=1, budget=8)
    assert report["ok"] and report["bijection"]
    assert report["classes"] == 8
    assert all(p["invariant"] and p["well_defined"] and p["transported"]
               for p in report["predicates"])


def test_reconstruction_fixed_point():
    # a second round from a different base point is isomorphic: same class
    # count and identical predicate tables under the carrier identification
    a = reconstruct_and_compare("dlo", level=1, depth=1, budget=4)
    b = reconstruct_and_compare("dlo", level=1, depth=1, budget=4,
                                prefer_offset=1)
    assert a["classes"] == b["classes"]
    ta = {p["formula"]: p["table"] for p in a["predicates"]}
    tb = {p["formula"]: p["table"] for p in b["predicates"]}
    assert set(ta) == set(tb)
    for k in ta:
        assert set(ta[k].values()) == set(tb[k].values()) or ta[k] == tb[k]
