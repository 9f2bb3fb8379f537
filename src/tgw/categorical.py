"""The omega-categorical extras: trivialising-section schedules over the
pinned reference tuple, their application certificates, exact witness-index
selection, and ball-surjectivity of the coordinate maps.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (InternalConsistencyError, PreconditionError,
                     ResourceCapError)
from .formula import (TRUE, Formula, VarRef, exists, free_vars, implies,
                      render_formula, substitute_vars)
from .models import (DTuple, ModelHandle, Y0, build_dtuple, evaluate,
                     make_model, tuple_type)
from .rich import RichSequence

SKOLEM_SCAN_CAP = 256
TRUE_SLOT_SCAN_CAP = 4096


@dataclass(frozen=True)
class SectionSchedule:
    theory_id: str
    steps: int
    m: tuple[int, ...]
    a_bounds: tuple[tuple[int, int], ...]
    b_bounds: tuple[int, ...]
    reference: tuple


def section_schedule(seq: RichSequence, steps: int) -> SectionSchedule:
    """Compute the schedule and re-verify its defining property: every
    1-type over each reference prefix is realised inside its bound."""
    if steps == 0:
        return SectionSchedule(seq.theory.id, 0, (), (), (0,), ())
    section = seq.section
    plan = section.plan(steps)
    for n, bound in plan["A"].items():
        if bound <= n and n > 0:
            raise InternalConsistencyError(f"realization bound A_{n} not past {n}")
        for d in section.one_types_over(n):
            if not any(section.realized_at(d, n, i) for i in range(n, bound)):
                raise InternalConsistencyError(
                    f"1-type over the first {n} entries unrealised below A_{n}")
    ms = tuple(plan["m"])
    if list(ms) != sorted(set(ms)):
        raise InternalConsistencyError("schedule slots must increase strictly")
    return SectionSchedule(seq.theory.id, steps, ms,
                           tuple(sorted(plan["A"].items())),
                           tuple(plan["B"]), tuple(plan["reference"]))


@dataclass(frozen=True)
class TrivialisationCertificate:
    input_elements: tuple
    output_elements: tuple
    q_checks: tuple[tuple[int, bool], ...]
    window_checks: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.q_checks)


def apply_mstar(a: DTuple, sched: SectionSchedule, M: ModelHandle,
                seq: RichSequence) -> TrivialisationCertificate:
    """Pick out the scheduled coordinates b_i = a_{m(i)} and certify that
    they follow the reference type, plus the window property for every
    completed block."""
    if sched.steps == 0:
        return TrivialisationCertificate(tuple(a.elements), (), (), ())
    if a.level < sched.m[-1] + 1:
        raise PreconditionError(
            f"input tuple level {a.level} below m({sched.steps - 1})+1")
    refM = seq.section.model
    b = tuple(a.elements[i] for i in sched.m)
    q_checks = []
    for n in range(1, sched.steps + 1):
        want = tuple_type(refM, [list(sched.reference[:n])])
        asg = {VarRef(0, j): b[j] for j in range(n)}
        holds = evaluate(want.diagram_formula(), M, asg)
        q_checks.append((n, holds))
        if not holds:
            raise InternalConsistencyError(f"reference type lost at stage {n}")
    window_checks = []
    for k in range(len(sched.b_bounds) - 1):
        lo, hi = sched.b_bounds[k], sched.b_bounds[k + 1]
        if hi > sched.steps or k >= a.level:
            continue
        hit = next((ell for ell in range(lo, hi) if b[ell] == a.elements[k]), None)
        if hit is None:
            raise InternalConsistencyError(
                f"entry {k} missing from its window [{lo},{hi})")
        window_checks.append((k, hit))
    return TrivialisationCertificate(tuple(a.elements), b,
                                     tuple(q_checks), tuple(window_checks))


# -- exact Skolem indices -------------------------------------------------------

def skolem_map(phi: Formula, seq: RichSequence) -> dict:
    """Least index i whose coordinate provably witnesses phi whenever a
    witness exists: the universal sentence is decided by the oracle, not
    merely sampled."""
    xs = [v for v in free_vars(phi) if v.tape == 0]
    if any(v.tape not in (0, 1) or (v.tape == 1 and v.position != 0)
           for v in free_vars(phi)):
        raise PreconditionError("phi must use x-variables and y0 only")
    n = max((v.position for v in xs), default=-1) + 1
    satisfiable = seq.relativize_exists(
        exists(Y0, phi) if Y0 in free_vars(phi) else phi, tape=0)
    for i in range(SKOLEM_SCAN_CAP):
        inst = substitute_vars(phi, {Y0: VarRef(0, i)}) if Y0 in free_vars(phi) else phi
        body = implies(exists(Y0, phi) if Y0 in free_vars(phi) else phi, inst)
        if seq.valid(body, 1):
            return {"index": i, "formula": render_formula(phi),
                    "sentence": render_formula(body),
                    "satisfiable_on_sort": render_formula(satisfiable)}
    raise ResourceCapError(f"no witness index below the scan cap {SKOLEM_SCAN_CAP}",
                           cap="skolem-scan", limit=SKOLEM_SCAN_CAP,
                           observed=SKOLEM_SCAN_CAP)


# -- universality ---------------------------------------------------------------

def true_slots(seq: RichSequence, start: int, count: int) -> list[int]:
    out = []
    i = start
    while len(out) < count:
        if i - start > TRUE_SLOT_SCAN_CAP:
            raise ResourceCapError("ran out of trivially-true slots",
                                   cap="true-slot-scan", limit=TRUE_SLOT_SCAN_CAP,
                                   observed=i - start)
        if seq.rich_formula(i) == TRUE:
            out.append(i)
        i += 1
    return out


def universality_check(seq: RichSequence, k: int = 1, m0: int = 1,
                       M: ModelHandle | None = None, samples: int = 8) -> dict:
    """For sampled (tuple, target) pairs, rebuild a witness tuple that keeps
    the first m0 entries and hits the target on k trivially-true
    coordinates; every sample must succeed."""
    M = M or make_model(seq.theory)
    slots = true_slots(seq, m0, k)
    level = slots[-1] + 1
    transcripts = []
    for s in range(samples):
        a = build_dtuple(M, seq, level,
                         cover=[M.element(i) for i in range(8)],
                         prefer=[M.element(s)])
        target = [M.element((s + j) % (samples + k)) for j in range(k)]
        pins = dict(zip(slots, target))
        b = build_dtuple(M, seq, level, base=a.elements[:m0], pins=pins,
                         cover=[M.element(i) for i in range(8)])
        ok = (b.ok and b.elements[:m0] == a.elements[:m0]
              and all(b.elements[i] == pins[i] for i in pins))
        if not ok:
            raise InternalConsistencyError(
                f"universality construction failed on sample {s}")
        transcripts.append({"sample": s,
                            "target": [M.render_element(t) for t in target],
                            "ok": True})
    return {"indices": slots, "samples": samples, "successes": samples,
            "transcripts": transcripts}
