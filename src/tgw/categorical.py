"""The omega-categorical extras: trivialising-section schedules over the
pinned reference tuple, their application certificates, exact witness-index
selection, and ball-surjectivity of the coordinate maps.
"""
from __future__ import annotations

from .errors import (InternalConsistencyError, PreconditionError,
                     ResourceCapError)
from .formula import (TRUE, Formula, VarRef, exists, free_vars,
                      identify_vars, implies, render_formula)
from .models import (DTuple, ModelHandle, Y0, build_dtuple, compile_formula,
                     evaluate, tuple_type)
from .record import Record
from .rich import RichSequence, SectionSchedule

SKOLEM_SCAN_CAP = 256
TRUE_SLOT_SCAN_CAP = 4096


def schedule_holds(seq: RichSequence, sched: SectionSchedule) -> bool:
    """Whether every recorded realisation is one: for each n, A_n > n
    (for n > 0), and each recorded position i lies in [n, A_n) and its
    entry satisfies the 1-type's diagram over the first n entries in the
    section model."""
    section = seq.section
    M = section.model
    for n, bound in sched.a_bounds:
        if bound <= n and n > 0:
            return False
        asg = {VarRef(0, j): sched.reference[j] for j in range(n)}
        for d, i in section.realisations(n).items():
            asg[VarRef(0, n)] = sched.reference[i]
            if not (n <= i < bound
                    and compile_formula(d.diagram_formula(), M.theory)(M, asg)):
                return False
    return True


class TrivialisationCertificate(Record):
    __slots__ = ("output_elements", "q_checks", "window_checks")

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.q_checks)

    @property
    def windows_ok(self) -> bool:
        return all(hit is not None for _, hit in self.window_checks)


def apply_mstar(a: DTuple, sched: SectionSchedule, M: ModelHandle,
                seq: RichSequence) -> TrivialisationCertificate:
    """Pick out the scheduled coordinates b_i = a_{m(i)} and check that they
    follow the reference type, stage by stage (`q_checks`), and that every
    completed block's entry occurs in its window (`window_checks`, with
    None for a missing entry)."""
    level, steps = len(a.elements), len(sched.m)
    if sched.m and level < sched.m[-1] + 1:
        raise PreconditionError(f"input tuple level {level} below m({steps - 1})+1")
    refM = seq.section.model
    b = tuple(a.elements[i] for i in sched.m)
    q_checks = []
    for n in range(1, steps + 1):
        want = tuple_type(refM, list(sched.reference[:n]))
        asg = {VarRef(0, j): b[j] for j in range(n)}
        q_checks.append((n, evaluate(want.diagram_formula(), M, asg)))
    window_checks = []
    for k in range(len(sched.b_bounds) - 1):
        lo, hi = sched.b_bounds[k], sched.b_bounds[k + 1]
        if hi > steps or k >= level:
            continue
        window_checks.append(
            (k, next((ell for ell in range(lo, hi) if b[ell] == a.elements[k]), None)))
    return TrivialisationCertificate(b, tuple(q_checks), tuple(window_checks))


# -- exact Skolem indices -------------------------------------------------------

def skolem_map(phi: Formula, seq: RichSequence) -> dict:
    """Least index i whose coordinate provably witnesses phi whenever a
    witness exists: the universal sentence is decided by the oracle, not
    merely sampled."""
    xs = [v for v in free_vars(phi) if v.tape == 0]
    if any(v.tape not in (0, 1) or (v.tape == 1 and v.position != 0)
           for v in free_vars(phi)):
        raise PreconditionError("phi must use x-variables and y0 only")
    # the scan quantifies y0 and the x-variables around phi, so a quantifier
    # in phi on an x-variable, or on y0 where y0 is free, would rebind it
    if any(v.tape == 0 for v in phi.bound_vars) or Y0 in phi.bound_vars & free_vars(phi):
        raise PreconditionError("phi must not bind x-variables, nor y0 where it is free")
    n = max((v.position for v in xs), default=-1) + 1
    satisfiable = seq.relativize_exists(
        exists(Y0, phi) if Y0 in free_vars(phi) else phi, tape=0)
    for i in range(SKOLEM_SCAN_CAP):
        inst = identify_vars(phi, {Y0: VarRef(0, i)}) if Y0 in free_vars(phi) else phi
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


def universality_check(seq: RichSequence, k: int, m0: int, M: ModelHandle,
                       samples: int) -> dict:
    """For sampled (tuple, target) pairs, rebuild a witness tuple that keeps
    the first m0 entries and hits the target on k trivially-true
    coordinates; every sample must succeed."""
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
