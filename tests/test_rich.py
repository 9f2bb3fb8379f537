import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgw.cli import main
from tgw.formula import (FALSE, TRUE, Eq, Forall, Implies, VarRef, conj,
                         exists, forall, free_vars, neg, parse_formula,
                         render_formula, substitute_vars)
from tgw.models import (Y0, certify_dtuple, compile_formula, evaluate,
                        make_model, tuple_type)
from tgw.rich import SECTION_SCAN_CAP, RichSequence
from tgw.theories import (THEORIES, diagrams_over, eliminate_quantifiers,
                          get_theory)

from test_models import open_formulas
from test_theories import decide_sentence, type_key


def parse(text, theory):
    return parse_formula(text, get_theory(theory).relations)


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


def test_dphi_monotone_and_nonempty():
    for theory in ("pureset", "dlo", "randomgraph", "equivinf"):
        seq = RichSequence(theory)
        for n in range(6):
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


def valid_by_qe(seq, f, tapes):
    """The route `valid` replaced, kept as its oracle: `relativize_forall`
    on each tape in turn, then decide the sentence left."""
    for t in range(tapes):
        f = seq.relativize_forall(f, tape=t)
    return decide_sentence(f, seq.theory)


@pytest.mark.parametrize("theory", THEORIES)
def test_valid_agrees_with_qe_on_open_formulas(theory):
    seq = RichSequence(theory)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(open_formulas(theory), st.sampled_from([(0, 1), (3, 5), (2, 6)]))
    def check(f, at):
        # the witness condition constrains nothing on x0, x1 alone, so the
        # free variables are also moved to positions where it does; the
        # oracle's quantifiers would rebind variables that f binds, so it is
        # given f's quantifier-free equivalent
        f = substitute_vars(f, {x(0): x(at[0]), x(1): x(at[1])})
        assert seq.valid(f, 1) is valid_by_qe(seq, eliminate_quantifiers(f, theory), 1)
    check()


# Commands whose `valid` calls are replayed against the oracle.  The skolem
# scans of lt(y0,x0) on dlo and (equiv(x0,y0)&!eq(x0,y0)) on equivinf agree
# too, but the oracle takes seconds on each, and minutes on the scan of
# (equiv(x0,y0)&!eq(x1,y0)); universality decides no validity.
VALID_COMMANDS = (
    [f"subgroupoids --theory {t} --depth {d}" for t in THEORIES for d in (0, 1, 2)]
    + [f"reconstruct --theory {t} --budget 8" for t in THEORIES]
    + ["source --theory pureset --phi eq(x0,y0)",
       "source --theory dlo --phi (lt(x0,x1)&eq(x1,y0))",
       "source --theory equivinf --phi (equiv(x0,y0)&!eq(x0,y0))",
       "source --theory randomgraph --phi (adj(x0,y0)&!eq(x1,y1))",
       "skolem --theory pureset --formula (!eq(x0,y0)&!eq(x1,y0))",
       "skolem --theory dlo --formula lt(x0,y0)",
       "skolem --theory equivinf --formula !equiv(x0,y0)",
       "skolem --theory randomgraph --formula adj(x0,y0)"])


def test_valid_agrees_with_qe_on_the_calls_commands_make(capsys, monkeypatch):
    calls = {}
    search = RichSequence.valid

    def record(seq, f, tapes):
        calls[seq.theory.id, f, tapes] = verdict = search(seq, f, tapes)
        return verdict
    monkeypatch.setattr(RichSequence, "valid", record)
    for argv in VALID_COMMANDS:
        assert main(argv.split()) == 0, argv
    capsys.readouterr()
    seqs = {t: RichSequence(t) for t in THEORIES}
    assert {tapes for _, _, tapes in calls} == {1, 2}
    assert set(calls.values()) == {True, False}
    for (theory, f, tapes), verdict in calls.items():
        assert valid_by_qe(seqs[theory], f, tapes) is verdict, (theory, render_formula(f))


def test_section_plan_pureset():
    plan = RichSequence("pureset").section.plan(4)
    assert dict(plan.a_bounds)[0] == 1
    assert plan.b_bounds[:2] == (0, 1)
    assert list(plan.m) == sorted(plan.m)
    assert len(plan.m) == 4


def test_section_plan_dlo():
    plan = RichSequence("dlo").section.plan(3)
    assert dict(plan.a_bounds)[0] == 1 and plan.b_bounds[1] == 1
    assert len(plan.m) == 3


def one_types_over(section, n):
    """Oracle: the complete diagrams over (c_<n, y) whose first n variables
    hold the reference prefix's type, filtered from the whole pool."""
    ref = tuple_type(section.model, section.tuple_prefix(n))
    return [d for d in diagrams_over(section.seq.theory, n + 1)
            if d.classes[:n] == ref.classes
            and d.between[:len(ref.between)] == ref.between]


def first_realization(section, diagram, n):
    """Oracle: the least i >= n whose entry satisfies the diagram formula
    over the first n entries, evaluated at each position in turn."""
    holds = compile_formula(diagram.diagram_formula(), section.model.theory)
    asg = {x(j): e for j, e in enumerate(section.tuple_prefix(n))}
    for i in range(n, SECTION_SCAN_CAP):
        asg[x(n)] = section.tuple_prefix(i + 1)[i]
        if holds(section.model, asg):
            return i
    return None


# the steps each theory's section reaches before the recorded self-slot
# defect, and the n whose realisations those steps read
@pytest.mark.parametrize("theory,steps", [("pureset", 6), ("equivinf", 6),
                                          ("dlo", 3), ("randomgraph", 3)])
def test_realisation_scan_matches_oracles(theory, steps):
    section = RichSequence(theory).section
    plan = section.plan(steps)
    for n in range(steps):
        record = section.realisations(n)
        types = one_types_over(section, n)
        assert len(record) == len(types), n
        assert {type_key(d): i for d, i in record.items()} == \
            {type_key(d): first_realization(section, d, n) for d in types}, n
        assert list(record.values()) == sorted(record.values())
        assert section.a_bound(n) == max(record.values()) + 1
    # each entry's defining clause was checked once, when it was placed
    assert all(certify_dtuple(section.model, section.seq, plan.reference))
