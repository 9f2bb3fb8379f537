"""Reconstruction from the groupoid presentation: sorts are certified
clopen sub-groupoids, predicates are invariant clopens, and both are
realised in a lab model as quotients of generated witness tuples.  The
desk-scale comparison then checks that the realised structure is
isomorphic to the induced structure on the sampled carrier.
"""
from __future__ import annotations

import functools
import itertools

from .errors import InternalConsistencyError, PreconditionError
from .formula import (FALSE, TRUE, Atom, Eq, VarRef, free_vars, neg,
                      render_formula)
from .groupoid import (ClopenSet, LevelTable, SubGroupoid, en_clopen,
                       is_en_invariant, is_subgroupoid)
from .models import (DTuple, ModelHandle, build_dtuple, compile_formula,
                     make_model)
from .record import Record
from .rich import RichSequence
from .theories import canonical_form


class SortClass(Record):
    """Witness tuples identified by a sort's relation, in the order they
    were generated; the first of `members` represents the class."""

    __slots__ = ("members",)


def sort_elements(H: SubGroupoid, M: ModelHandle, seq: RichSequence,
                  budget: int) -> list[SortClass]:
    """Generate up to `budget` witness tuples at H's level (varying the
    preferred first witnesses) and quotient them by H: a tuple joins the
    first class whose first member it is H-related to, by H's quantifier-free
    formula evaluated on the pair."""
    if budget <= 0:
        raise PreconditionError("budget must be positive")
    level = H.clopen.level
    tuples = []
    M.element(budget - 1)   # commits the first `budget` elements before any scan
    for i in range(budget):
        t = build_dtuple(M, seq, level, prefer=[M.element(i)])
        if not t.ok:
            raise InternalConsistencyError("generated tuple failed its certificate")
        tuples.append(t)
    classes: list[list[DTuple]] = []
    for t in tuples:
        for cls in classes:
            if _eval_on(H.clopen, [cls[0], t], M):
                cls.append(t)
                break
        else:
            classes.append([t])
    return [SortClass(tuple(cls)) for cls in classes]


def predicate_value(X: ClopenSet, classes: list[SortClass], M: ModelHandle) -> bool:
    """The invariant clopen's value on one representative per tape, checked
    to be well defined across the sampled members.  Each member tuple is
    evaluated once; the tuple of each class's first member comes first in
    the product."""
    if len(classes) != X.arity:
        raise PreconditionError("need one class per tape")
    choices = itertools.product(*(c.members for c in classes))
    value = _eval_on(X, next(choices), M)
    for choice in choices:
        if _eval_on(X, choice, M) != value:
            raise InternalConsistencyError(
                "invariant clopen took different values on one class")
    return value


def _eval_on(X: ClopenSet, tuples: list[DTuple], M: ModelHandle) -> bool:
    asg = {v: tuples[v.tape].elements[v.position] for v in _window(len(tuples), X.level)}
    return compile_formula(X.formula, M.theory)(M, asg)


@functools.cache
def _window(tapes: int, level: int) -> tuple[VarRef, ...]:
    return tuple(VarRef(t, p) for t in range(tapes) for p in range(level))


def predicate_corpus(seq: RichSequence, depth: int) -> list[ClopenSet]:
    """Arity-(1 or 2) clopens from the depth-bounded formula grammar over
    the level-1 window, de-duplicated up to the theory."""
    theory = seq.theory
    x0, y0 = VarRef(0, 0), VarRef(1, 0)
    atoms = [Eq(x0, y0)]
    for rel in theory.relations:
        atoms += [Atom(rel, (x0, y0)), Atom(rel, (y0, x0))]
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


def reconstruct_and_compare(theory, depth: int, budget: int) -> dict:
    """Build the reconstructed language restricted to the level-1 identity
    sort and the depth-bounded invariant predicates, realise it on sampled
    witness tuples, and verify the transport isomorphism onto the sampled
    carrier."""
    seq = RichSequence(theory)
    M = make_model(theory)
    H1 = is_subgroupoid(en_clopen(seq, 1))
    if not isinstance(H1, SubGroupoid):
        raise InternalConsistencyError("the level-1 identity relation must certify")
    classes = sort_elements(H1, M, seq, budget)
    carrier = [c.members[0].elements[0] for c in classes]
    bijection = (len(set(carrier)) == len(carrier)
                 and set(carrier) == {M.element(i) for i in range(budget)})
    report = {"theory": seq.theory.id, "level": H1.clopen.level, "depth": depth,
              "budget": budget, "sorts": 1, "classes": len(classes),
              "bijection": bijection,
              "carrier": [M.render_element(c) for c in carrier],
              "predicates": [], "ok": bijection}
    tab = LevelTable(seq, 2, 1)
    for X in predicate_corpus(seq, depth):
        entry = {"formula": render_formula(X.formula), "arity": X.arity}
        entry["invariant"] = is_en_invariant(X, H1.clopen.level)
        table = {}
        transported = True
        # the groupoid-side recovery of the same predicate
        recovered = tab.clopen_of(tab.points_of(X)) if X.arity == 2 else X
        # classes have distinct first elements, so a class's index is its
        # element's index in the carrier
        for combo in itertools.product(range(len(classes)), repeat=X.arity):
            chosen = [classes[i] for i in combo]
            try:
                got = predicate_value(X, chosen, M)
            except InternalConsistencyError:
                entry["well_defined"] = False
                report["ok"] = False
                break
            want = _eval_on(recovered, [c.members[0] for c in chosen], M)
            key = ",".join(map(str, combo))
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
