"""Reconstruction from the groupoid presentation: sorts are certified
clopen sub-groupoids, predicates are invariant clopens, and both are
realised over a base tuple in a lab model as quotients of generated
witness tuples.  The desk-scale comparison then checks that the realised
structure is isomorphic to the induced structure on the sampled carrier.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InternalConsistencyError, PreconditionError
from .formula import (FALSE, TRUE, Atom, Eq, VarRef, free_vars, neg,
                      render_formula)
from .groupoid import (ClopenSet, LevelTable, SubGroupoid, act_clopen,
                       clopen_equiv, en_clopen, is_subgroupoid)
from .models import DTuple, ModelHandle, build_dtuple, evaluate, make_model, tuple_type
from .rich import RichSequence
from .theories import canonical_form


@dataclass(frozen=True)
class SortClass:
    rep: DTuple
    members: tuple[DTuple, ...]


def sort_elements(e: DTuple, H: SubGroupoid, M: ModelHandle, seq: RichSequence,
                  budget: int) -> list[SortClass]:
    """Generate up to `budget` witness tuples (varying the preferred first
    witnesses) and quotient them by H-membership of their pair types."""
    if budget <= 0:
        raise PreconditionError("budget must be positive")
    level = e.level
    if level < H.clopen.level:
        raise PreconditionError("base tuple level below the sort's level")
    tuples = []
    for i in range(budget):
        t = build_dtuple(M, seq, level, cover=[M.element(j) for j in range(budget)],
                         prefer=[M.element(i)])
        if not t.ok:
            raise InternalConsistencyError("generated tuple failed its certificate")
        tuples.append(t)
    classes: list[list[DTuple]] = []
    for t in tuples:
        for cls in classes:
            if _same_class(M, cls[0], t, H):
                cls.append(t)
                break
        else:
            classes.append([t])
    return [SortClass(cls[0], tuple(cls)) for cls in classes]


def _same_class(M: ModelHandle, a: DTuple, b: DTuple, H: SubGroupoid) -> bool:
    pair = tuple_type(M, [a.elements, b.elements])
    return pair.satisfies_qf(H.clopen.formula)


def predicate_value(X: ClopenSet, classes: list[SortClass], M: ModelHandle) -> bool:
    """Evaluate the invariant clopen on one representative per tape, checking
    well-definedness across the sampled members."""
    if len(classes) != X.arity:
        raise PreconditionError("need one class per tape")
    value = _eval_on(X, [c.rep for c in classes], M)
    for choice in _member_choices(classes):
        if _eval_on(X, choice, M) != value:
            raise InternalConsistencyError(
                "invariant clopen took different values on one class")
    return value


def _member_choices(classes: list[SortClass]):
    if not classes:
        yield []
        return
    head, *rest = classes
    for m in head.members:
        for tail in _member_choices(rest):
            yield [m] + tail


def _eval_on(X: ClopenSet, tuples: list[DTuple], M: ModelHandle) -> bool:
    asg = {}
    for t, dt in enumerate(tuples):
        for p in range(X.level):
            asg[VarRef(t, p)] = dt.elements[p]
    return evaluate(X.formula, M, asg)


def predicate_corpus(seq: RichSequence, depth: int) -> list[ClopenSet]:
    """Arity-(1 or 2) clopens from the depth-bounded formula grammar over
    the level-1 window, de-duplicated up to the theory."""
    theory = seq.theory
    x0, y0 = VarRef(0, 0), VarRef(1, 0)
    atoms = [Eq(x0, y0)]
    for rel, _ in theory.signature.relations:
        atoms.append(Atom(rel, (x0, y0)))
        if theory.id == "dlo":
            atoms.append(Atom(rel, (y0, x0)))
    formulas = [TRUE, FALSE] + atoms
    if depth >= 1:
        formulas += [neg(a) for a in atoms]
    out, seen = [], set()
    for f in formulas:
        c = canonical_form(f, theory)
        if c in seen:
            continue
        seen.add(c)
        arity = max((v.tape for v in free_vars(c)), default=0) + 1
        out.append(ClopenSet(seq, arity, c, 1 if free_vars(c) else 0))
    return out


def certify_invariance(X: ClopenSet, sorts: list[SubGroupoid]) -> bool:
    movers = [s.clopen for s in sorts]
    if len(movers) == 1 and X.arity == 2:
        movers = movers * 2
    return clopen_equiv(act_clopen(X, movers[:X.arity]), X)


def reconstruct_and_compare(theory, level: int = 1, depth: int = 1,
                            budget: int = 8, prefer_offset: int = 0) -> dict:
    """Build the reconstructed language restricted to the level-1 identity
    sort and the depth-bounded invariant predicates, realise it over a base
    tuple, and verify the transport isomorphism onto the sampled carrier."""
    seq = RichSequence(theory)
    M = make_model(theory)
    H1 = is_subgroupoid(en_clopen(seq, 1))
    if not isinstance(H1, SubGroupoid):
        raise InternalConsistencyError("the level-1 identity relation must certify")
    working = max(level, 1)
    e = build_dtuple(M, seq, working,
                     cover=[M.element(i) for i in range(budget)],
                     prefer=[M.element(prefer_offset)])
    classes = sort_elements(e, H1, M, seq, budget)
    carrier = [c.rep.elements[0] for c in classes]
    bijection = (len(set(carrier)) == len(carrier)
                 and set(carrier) == {M.element(i) for i in range(budget)})
    report = {"theory": seq.theory.id, "level": level, "depth": depth,
              "budget": budget, "sorts": 1, "classes": len(classes),
              "bijection": bijection,
              "carrier": [M.render_element(c) for c in carrier],
              "predicates": [], "ok": bijection}
    tab = LevelTable(seq, 2, 1)
    for X in predicate_corpus(seq, depth):
        entry = {"formula": render_formula(X.formula), "arity": X.arity}
        entry["invariant"] = certify_invariance(X, [H1])
        table = {}
        transported = True
        # the groupoid-side recovery of the same predicate
        recovered = tab.clopen_of(tab.points_of(X)) if X.arity == 2 else X
        for combo in itertools.product(classes, repeat=X.arity):
            try:
                got = predicate_value(X, list(combo), M)
            except InternalConsistencyError:
                entry["well_defined"] = False
                report["ok"] = False
                break
            want = _eval_on(recovered, [c.rep for c in combo], M)
            key = ",".join(str(carrier.index(c.rep.elements[0])) for c in combo)
            table[key] = got
            if got != want:
                transported = False
                entry["violation"] = key
        else:
            entry["well_defined"] = True
        entry["transported"] = transported
        entry["table"] = table
        report["predicates"].append(entry)
        if not (entry["invariant"] and entry["well_defined"] and transported):
            report["ok"] = False
    return report
