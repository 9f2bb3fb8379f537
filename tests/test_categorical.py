
import pytest

from tgw.errors import PreconditionError
from tgw.categorical import (apply_mstar, schedule_holds, skolem_map,
                             true_slots, universality_check)
from tgw.formula import TRUE, parse_formula
from tgw.models import DTuple, build_dtuple, make_model, tuple_type
from tgw.rich import RichSequence, SectionSchedule
from tgw.theories import get_theory

from test_theories import type_key

SEQS = {t: RichSequence(t) for t in ("pureset", "dlo", "randomgraph", "equivinf")}


def parse(text, theory):
    return parse_formula(text, get_theory(theory).relations)


def test_section_schedule_empty():
    # the record holds what the state has computed, so the state is fresh
    sched = RichSequence("dlo").section.plan(0)
    assert sched.m == () and sched.b_bounds == (0,)


def test_section_schedule_pureset_bounds():
    sched = SEQS["pureset"].section.plan(4)
    a = dict(sched.a_bounds)
    assert a[0] == 1           # the unique 1-type over nothing sits at entry 0
    assert sched.b_bounds[1] == 1
    assert list(sched.m) == sorted(sched.m)
    assert all(a[n] > n for n in a if n > 0)


def test_apply_mstar_pureset_full():
    seq = SEQS["pureset"]
    sched = seq.section.plan(4)
    M = make_model("pureset")
    a = build_dtuple(M, seq, sched.m[-1] + 1)
    cert = apply_mstar(a, sched, M, seq)
    assert cert.ok
    assert all(ok for _, ok in cert.q_checks)
    # the first blocks are complete at four steps, so both windows verify
    assert [k for k, _ in cert.window_checks] == [0, 1]


def test_apply_mstar_dlo():
    seq = SEQS["dlo"]
    sched = seq.section.plan(3)
    M = make_model("dlo")
    a = build_dtuple(M, seq, sched.m[-1] + 1)
    cert = apply_mstar(a, sched, M, seq)
    assert cert.ok and len(cert.q_checks) == 3


def test_apply_mstar_records_failures():
    # the reference starts 0, 1, 2, 0, so its first three scheduled entries
    # are distinct and the fourth repeats the first: the constant tuple loses
    # the type at stage 2, the injective one at stage 4 and every window
    seq = SEQS["pureset"]
    sched = seq.section.plan(4)
    assert sched.reference[:4] == (0, 1, 2, 0)
    M = make_model("pureset")
    level = sched.m[-1] + 1
    const = apply_mstar(DTuple((0,) * level, ()), sched, M, seq)
    assert not const.ok
    assert const.q_checks == ((1, True), (2, False), (3, False), (4, False))
    assert const.windows_ok
    injective = apply_mstar(DTuple(tuple(range(level)), ()), sched, M, seq)
    assert [ok for _, ok in injective.q_checks] == [True, True, True, False]
    assert injective.window_checks == ((0, None), (1, None))
    assert not injective.windows_ok


@pytest.mark.parametrize("theory,steps", [("pureset", 4), ("dlo", 3),
                                          ("randomgraph", 3), ("equivinf", 4)])
def test_schedule_holds_checks_the_record(theory, steps):
    seq = SEQS[theory]
    sched = seq.section.plan(steps)
    assert schedule_holds(seq, sched)
    # an entry repeated everywhere realises only the types that repeat it
    same = (sched.reference[0],) * len(sched.reference)
    assert not schedule_holds(
        seq, SectionSchedule(sched.m, sched.a_bounds, sched.b_bounds, same))
    # a bound that is not past its n
    bounds = tuple((n, n if n == 1 else a) for n, a in sched.a_bounds)
    assert not schedule_holds(
        seq, SectionSchedule(sched.m, bounds, sched.b_bounds, sched.reference))


def test_apply_mstar_level_precondition():
    seq = SEQS["dlo"]
    sched = seq.section.plan(3)
    M = make_model("dlo")
    short = build_dtuple(M, seq, 3)
    with pytest.raises(PreconditionError):
        apply_mstar(short, sched, M, seq)


def test_section_property_across_base_points():
    # the section's source is the same reference restriction from every
    # sampled base tuple, while its target is the sample itself
    seq = SEQS["pureset"]
    sched = seq.section.plan(3)
    M = make_model("pureset")
    keys = set()
    for s in range(3):
        a = build_dtuple(M, seq, sched.m[-1] + 1, prefer=[M.element(s)])
        cert = apply_mstar(a, sched, M, seq)
        keys.add(type_key(tuple_type(M, list(cert.output_elements))))
    assert len(keys) == 1


def test_skolem_map_examples():
    seq = SEQS["pureset"]
    r = skolem_map(parse("eq(y0,x0)", "pureset"), seq)
    assert r["index"] == 0
    assert skolem_map(parse("true", "pureset"), seq)["index"] == 0
    d = skolem_map(parse("lt(x0,y0)", "dlo"), SEQS["dlo"])
    assert d["index"] >= 1


def test_skolem_map_rejects_bad_variables():
    with pytest.raises(PreconditionError):
        skolem_map(parse("eq(y1,x0)", "pureset"), SEQS["pureset"])


def test_true_slots_are_true():
    seq = SEQS["equivinf"]
    slots = true_slots(seq, 2, 3)
    assert len(slots) == 3 and slots == sorted(slots)
    for s in slots:
        assert seq.rich_formula(s) == TRUE


@pytest.mark.parametrize("theory", ["pureset", "dlo", "randomgraph", "equivinf"])
def test_universality_all_theories(theory):
    rep = universality_check(SEQS[theory], k=2, m0=1, M=make_model(theory), samples=4)
    assert rep["successes"] == rep["samples"] == 4


def test_universality_identity_target():
    seq = SEQS["dlo"]
    M = make_model("dlo")
    slots = true_slots(seq, 1, 1)
    a = build_dtuple(M, seq, slots[0] + 1)
    b = build_dtuple(M, seq, slots[0] + 1, base=a.elements[:1],
                     pins={slots[0]: a.elements[slots[0]]})
    assert b.ok and b.elements[slots[0]] == a.elements[slots[0]]
