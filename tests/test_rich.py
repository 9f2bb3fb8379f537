import itertools

import pytest

from tgw.errors import PreconditionError
from tgw.formula import (FALSE, TRUE, Eq, VarRef, conj, free_vars, neg,
                         parse_formula, render_formula)
from tgw.models import Y0, evaluate, make_model
from tgw.rich import (BijectionStage, RichSequence, _valid, bijection_stage,
                      initial_stage, is_approximate_bijection, run_stages,
                      witness_indices)
from tgw.theories import (decide_sentence, eliminate_quantifiers, get_theory,
                          enumerate_types)


def parse(text, theory):
    return parse_formula(text, get_theory(theory).signature)


def x(i):
    return VarRef(0, i)


def test_slot_zero_is_true():
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        assert RichSequence(theory).rich_formula(0) == TRUE


def test_index_of_roundtrip():
    seq = RichSequence("pureset")
    m = seq.index_of(parse("eq(x0,y0)", "pureset"))
    assert m >= 1
    assert seq.rich_formula(m) == parse("eq(x0,y0)", "pureset")


def test_index_of_dlo_padding():
    seq = RichSequence("dlo")
    psi = parse("lt(x0,y0)", "dlo")
    m = seq.index_of(psi)
    assert seq.rich_formula(m) == psi
    high = seq.index_of(psi, min_index=40)
    assert high >= 40
    assert seq.rich_formula(high) == psi


def test_index_of_respects_variable_bound():
    seq = RichSequence("pureset")
    psi = parse("eq(x3,y0)", "pureset")
    m = seq.index_of(psi)
    assert m >= 4
    assert seq.rich_formula(m) == psi


def test_prefix_validation():
    with pytest.raises(PreconditionError):
        RichSequence("pureset", prefix=[parse("eq(x1,y0)", "pureset")])


def test_dphi_level_zero_and_one():
    seq = RichSequence("pureset")
    assert seq.dphi_formula(0).formula == TRUE
    lvl = seq.dphi_formula(1)
    assert render_formula(lvl.formula) == "forall y0. (true -> true)"
    assert lvl.simplified == TRUE


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
            vs = sorted(free_vars(g), reverse=True)
            from tgw.formula import forall as fa, exists as ex
            sentence = neg(g)
            for v in vs:
                sentence = fa(v, sentence)
            assert decide_sentence(sentence, theory), (theory, n)
            # nonemptiness, without pruning
            assert seq.relativize_exists(TRUE, 0, level=n, prune=False) == TRUE


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
            full = seq.relativize_exists(body, 0, level=lvl, prune=False)
            gap = conj([pruned, neg(full)])
            gap2 = conj([full, neg(pruned)])
            for g in (gap, gap2):
                g = eliminate_quantifiers(g, theory)
                sentence = neg(g)
                from tgw.formula import forall as fa
                for v in sorted(free_vars(g), reverse=True):
                    sentence = fa(v, sentence)
                assert decide_sentence(sentence, theory), (theory, text)


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
    assert _valid(f, theory) is plain


def test_witness_indices_pureset():
    seq = RichSequence("pureset")
    ii = witness_indices(seq, Eq(VarRef(1, 0), x(0)), 1, 1)
    assert len(ii) == 1 and ii[0] >= 1
    assert seq.rich_formula(ii[0]) == parse("eq(x0,y0)", "pureset")


def test_witness_indices_dlo():
    seq = RichSequence("dlo")
    ii = witness_indices(seq, parse("lt(x0,y0)", "dlo"), 1, 1)
    assert len(ii) == 1 and ii[0] >= 1
    assert seq.rich_formula(ii[0]) == parse("lt(x0,y0)", "dlo")


def test_witness_indices_m_zero():
    seq = RichSequence("pureset")
    assert witness_indices(seq, seq.dphi_formula(1).simplified, 1, 0) == []


def test_witness_indices_two_witnesses():
    seq = RichSequence("pureset")
    psi = conj([Eq(VarRef(1, 0), x(0)), neg(Eq(VarRef(1, 1), x(0)))])
    ii = witness_indices(seq, psi, 1, 2)
    assert len(ii) == 2 and ii[0] < ii[1] and ii[0] >= 1


def test_witness_indices_hypothesis_failure():
    seq = RichSequence("pureset")
    bad = conj([Eq(VarRef(1, 0), x(0)), Eq(x(0), x(1))])
    with pytest.raises(PreconditionError, match="separating type"):
        witness_indices(seq, bad, 2, 1)


def test_initial_stage_and_identity_linkage():
    seq = RichSequence("pureset")
    s0 = initial_stage()
    assert s0.phi == TRUE and s0.n == 0
    s1 = bijection_stage(seq, seq, s0)
    assert s1.f_indices == (0,) and s1.g_indices == (0,)
    assert s1.phi == parse("eq(x0,y0)", "pureset")


def test_three_stages_distinct_sequences():
    seq_a = RichSequence("pureset")
    seq_b = RichSequence("pureset", prefix=[parse("!eq(x0,y0)", "pureset")])
    stages = run_stages(seq_a, seq_b, 3)
    assert len(stages) == 4
    for s in stages:
        assert is_approximate_bijection(seq_a, seq_b, s.phi)


def test_stage_count_zero_identity():
    seq = RichSequence("dlo")
    assert run_stages(seq, seq, 0) == [initial_stage()]


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
