import itertools

import pytest

from tgw.errors import PreconditionError
from tgw.formula import (FALSE, TRUE, Eq, Forall, Implies, VarRef, conj,
                         exists, forall, free_vars, neg, parse_formula,
                         render_formula, substitute_vars)
from tgw.models import Y0, evaluate, make_model
from tgw.rich import RichSequence
from tgw.theories import decide_sentence, eliminate_quantifiers, get_theory


def parse(text, theory):
    return parse_formula(text, get_theory(theory).signature)


def x(i):
    return VarRef(0, i)


def relativize_exists_full(seq, body, level):
    """The unpruned relativisation: every position below `level`
    quantified under all of the level-`level` condition."""
    f = conj([seq.dphi_conjunct(k) for k in range(level)] + [body])
    for p in reversed(range(level)):
        f = exists(x(p), f)
    return eliminate_quantifiers(f, seq.theory)


def plain_valid(f, theory):
    """Validity over all values of the free variables, not relativised to
    the witness sort."""
    for v in sorted(free_vars(f), reverse=True):
        f = forall(v, f)
    return decide_sentence(f, theory)


def test_slot_zero_is_true():
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        assert RichSequence(theory).rich_formula(0) == TRUE


def test_prefix_validation():
    with pytest.raises(PreconditionError):
        RichSequence("pureset", prefix=[parse("eq(x1,y0)", "pureset")])


def test_dphi_level_zero_and_one():
    seq = RichSequence("pureset")
    assert seq.dphi_formula(0).formula == TRUE
    lvl = seq.dphi_formula(1)
    assert render_formula(lvl.formula) == "forall y0. (true -> true)"
    assert lvl.simplified == TRUE


def test_defining_clause_matches_plain_constructors():
    # the raw `dphi` text renders these clauses, built before with the plain
    # constructors
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        seq = RichSequence(theory)
        for k in range(20):
            phi = seq.rich_formula(k)
            want = (Forall(Y0, Implies(phi, substitute_vars(phi, {Y0: x(k)})))
                    if Y0 in free_vars(phi) else TRUE)
            assert seq.defining_clause(k) == want, (theory, k)


def test_dphi_prefix_example():
    seq = RichSequence("pureset", prefix=[parse("!eq(x0,y0)", "pureset")])
    lvl = seq.dphi_formula(2)
    assert lvl.simplified == parse("!eq(x0,x1)", "pureset")


def test_dphi_monotone_and_nonempty():
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        seq = RichSequence(theory)
        for n in range(6):
            step = conj([seq.dphi_formula(n + 1).simplified,
                         neg(seq.dphi_formula(n).simplified)])
            holds = seq.relativize_exists(conj([step, FALSE]), 0)  # vacuous guard
            # monotonicity: level n+1 implies level n
            gap = conj([seq.dphi_formula(n + 1).simplified,
                        neg(seq.dphi_formula(n).simplified)])
            g = eliminate_quantifiers(gap, theory)
            assert plain_valid(neg(g), theory), (theory, n)
            # nonemptiness, without pruning
            assert relativize_exists_full(seq, TRUE, n) == TRUE


def test_relativize_prune_matches_full():
    for theory in ("pureset", "dlo"):
        seq = RichSequence(theory)
        bodies = ["eq(x0,y0)", "!eq(x1,y0)"]
        if theory == "dlo":
            bodies += ["lt(x0,y0)", "(lt(y0,x0) & lt(y0,x2))"]
        for text in bodies:
            body = parse(text, theory)
            lvl = max(v.position for v in free_vars(body) if v.tape == 0) + 1
            pruned = seq.relativize_exists(body, 0)
            full = relativize_exists_full(seq, body, lvl)
            gap = conj([pruned, neg(full)])
            gap2 = conj([full, neg(pruned)])
            for g in (gap, gap2):
                g = eliminate_quantifiers(g, theory)
                assert plain_valid(neg(g), theory), (theory, text)


def test_relativize_spec_examples():
    ps = RichSequence("pureset")
    assert ps.relativize_exists(Eq(x(0), Y0), 0) == TRUE
    assert ps.relativize_exists(FALSE, 0) == FALSE
    dlo = RichSequence("dlo")
    assert dlo.relativize_exists(parse("lt(x0,y0)", "dlo"), 0) == TRUE


def test_relativize_agrees_with_model_search():
    # relativized existence evaluated at a parameter equals a brute-force
    # search over level-n tuples satisfying the level condition
    cases = [("pureset", "eq(x0,y0)"), ("pureset", "(!eq(x0,y0) & !eq(x1,y0))"),
             ("dlo", "(lt(x0,y0) & lt(y0,x1))"), ("dlo", "lt(y0,x0)")]
    for theory, text in cases:
        seq = RichSequence(theory)
        M = make_model(theory)
        body = parse(text, theory)
        n = max(v.position for v in free_vars(body) if v.tape == 0) + 1
        rel = seq.relativize_exists(body, 0)
        dcond = seq.dphi_formula(n).simplified
        carrier = [M.element(i) for i in range(12)]
        for e in carrier[:4]:
            asg = {Y0: e}
            got = evaluate(rel, M, asg)
            found = False
            for tup in itertools.product(carrier, repeat=n):
                full = {**asg, **{x(i): tup[i] for i in range(n)}}
                if evaluate(dcond, M, full) and evaluate(body, M, full):
                    found = True
                    break
            assert got == found, (theory, text, e)


@pytest.mark.parametrize("theory,text,tapes,on_sort,plain", [
    # pureset slots 3 and 5 carry eq(x0,y0), so every sort tuple repeats x0
    ("pureset", "eq(x0,x5)", 1, True, False),
    ("pureset", "eq(x0,x1)", 1, False, False),
    ("dlo", "(lt(x0,y0) | lt(y0,x0) | eq(x0,y0))", 2, True, True),
    ("dlo", "lt(x0,y0)", 2, False, False),
    ("equivinf", "((equiv(x0,y0) & equiv(y0,z0)) -> equiv(x0,z0))", 3, True, True),
])
def test_valid_on_sort_and_plain(theory, text, tapes, on_sort, plain):
    seq = RichSequence(theory)
    f = parse(text, theory)
    assert seq.valid(f, tapes) is on_sort
    assert plain_valid(f, theory) is plain


def test_section_plan_pureset():
    plan = RichSequence("pureset").section.plan(4)
    assert plan["A"][0] == 1
    assert plan["B"][:2] == [0, 1]
    assert plan["m"] == sorted(plan["m"])
    assert len(plan["m"]) == 4


def test_section_plan_dlo():
    plan = RichSequence("dlo").section.plan(3)
    assert plan["A"][0] == 1 and plan["B"][1] == 1
    assert len(plan["m"]) == 3
