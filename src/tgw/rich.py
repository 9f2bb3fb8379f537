"""Rich enumeration sequences and the witness-sort built from them.

A rich sequence assigns to every index n a formula in variables x_<n and a
single y, such that every formula (up to theory equivalence, with dummy
padding) occurs at arbitrarily large indices.  Slot layout, after an
optional user prefix P of length L:

  slot 0            true (always)
  slots 1..L        P (validated: slot i may use x-positions < i only)
  slot n = L+u, u odd   first occurrence of item (u-1)/2
  slot n = L+u, u even  repeat: item k where (e, k) = cantor_unpair(u/2 - 1)

  item 3r    the canonical stream: rank 0 false, rank 1 true, then every
             minimal diagram-union normal form once, in weight order
  item 3t+1  the section-schedule stream, step t (the self-referential
             formulas behind the trivialising section; they may use the
             slot numbers of earlier steps, which is well founded)
  item 3j+2  the copy stream: eq(xj, y0), so the entry at position j is
             echoed shortly before the j-th schedule slot; this keeps the
             schedule's realization scans ahead of the slots they define

A slot falls back to `true` when its item needs x-positions >= the slot
index, which also realises the dummy padding of richness: each item
reappears at every repeat slot, hence at arbitrarily large indices.

The level-n witness condition is the conjunction over k < n of

    forall y ( phi_k(x_<k, y) -> phi_k(x_<k, x_k) )

whose k-th conjunct has a small quantifier-free equivalent C_k.  Because a
tuple satisfying the first n conditions always extends one level further
(pick any witness, or anything at all), existential quantification over the
witness sort relativises to finite levels, and conjuncts whose position is
not reachable from the body's positions can be dropped; `relativize_exists`
uses that pruning.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (InternalConsistencyError, PreconditionError,
                     ResourceCapError)
from .formula import (FALSE, TRUE, And, Eq, Forall, Formula, Implies, VarRef,
                      conj, disj, exists, forall, free_vars, implies, neg,
                      rename_tapes, substitute_vars)
from .models import Y0, build_dtuple, evaluate, make_model, tuple_type
from .pairing import cantor_unpair
from .theories import (decide_sentence, depends_on_all_vars, diagrams_over,
                       eliminate_quantifiers, get_theory)

CANONICAL_RANK_CAP = 20_000
CANONICAL_WEIGHT_CAP = 18
CANONICAL_VAR_LIMIT = 5
CANONICAL_POSITION_CAP = 64
SECTION_SCAN_CAP = 2000


# -- the canonical stream -----------------------------------------------------

class _CanonicalStream:
    """Per-theory lazy enumeration of minimal diagram-union normal forms in
    (weight, support, subset) order.  Weight of a form over x-support S with
    y-flag y and c diagrams is sum(bitlen(p+1) for p in S) + y + 2*(c-1);
    charging positions by bit length keeps formulas with sparse high
    positions at small ranks."""

    def __init__(self, theory):
        self.theory = theory
        self.items: list[Formula] = [FALSE, TRUE]
        self._weights = self._by_weight()

    def _by_weight(self):
        for w in itertools.count(2):
            if w > CANONICAL_WEIGHT_CAP:
                return
            yield from self._of_weight(w)

    def _of_weight(self, w):
        for support, has_y in _supports(w):
            base = sum(_posw(p) for p in support) + has_y
            rem = w - base
            if rem < 0 or rem % 2:
                continue
            c = rem // 2 + 1
            m = len(support) + has_y
            if m < 2 or m > CANONICAL_VAR_LIMIT:
                continue
            pool = diagrams_over(self.theory, m)
            if c > len(pool):
                continue
            var_list = [VarRef(0, p) for p in support] + ([Y0] if has_y else [])
            back = {VarRef(0, i): v for i, v in enumerate(var_list)}
            for combo in itertools.combinations(range(len(pool)), c):
                keys = {pool[i].key() for i in combo}
                if not depends_on_all_vars(self.theory, m, keys):
                    continue
                yield disj(substitute_vars(pool[i].diagram_formula(), back)
                           for i in combo)

    def item(self, r: int) -> Formula:
        if r > CANONICAL_RANK_CAP:
            raise ResourceCapError(f"canonical stream rank {r} exceeds the cap",
                                   cap="canonical-rank", limit=CANONICAL_RANK_CAP,
                                   observed=r)
        while len(self.items) <= r:
            try:
                self.items.append(next(self._weights))
            except StopIteration:
                raise ResourceCapError(
                    "canonical stream exhausted its weight cap",
                    cap="canonical-weight", limit=CANONICAL_WEIGHT_CAP,
                    observed=CANONICAL_WEIGHT_CAP + 1) from None
        return self.items[r]

    def rank_of(self, f: Formula) -> int:
        r = 0
        while True:
            if self.item(r) == f:
                return r
            r += 1


def _posw(p: int) -> int:
    return (p + 1).bit_length()


def _supports(w: int):
    """All x-position supports S below the position cap with total position
    weight <= w, paired with the y flag, in deterministic order."""
    out = []

    def rec(start, budget, acc):
        out.append(tuple(acc))
        for p in range(start, CANONICAL_POSITION_CAP):
            cost = _posw(p)
            if cost > budget:
                continue
            acc.append(p)
            rec(p + 1, budget - cost, acc)
            acc.pop()
    rec(0, w, [])
    for s in sorted(out):
        for has_y in (0, 1):
            yield s, has_y


_STREAMS: dict[str, _CanonicalStream] = {}


def _stream(theory) -> _CanonicalStream:
    theory = get_theory(theory)
    if theory.id not in _STREAMS:
        _STREAMS[theory.id] = _CanonicalStream(theory)
    return _STREAMS[theory.id]


# -- rich sequences -----------------------------------------------------------

@dataclass(frozen=True)
class DPhiLevel:
    n: int
    formula: Formula
    simplified: Formula


class RichSequence:
    """A concrete rich sequence over one of the built-in theories.  `prefix`
    pins the formulas of slots 1..len(prefix); everything else follows the
    canonical layout, shifted past the prefix.  `section` is the
    trivialising-section state over the sequence's pinned reference tuple:
    it builds the schedule stream's formulas, and the categorical suite
    reads its `plan`, `model`, `one_types_over` and `realized_at`."""

    def __init__(self, theory, prefix=()):
        self.theory = get_theory(theory)
        self.prefix = tuple(prefix)
        for i, f in enumerate(self.prefix, start=1):
            bad = [v for v in free_vars(f)
                   if not (v.tape == 0 and v.position < i) and v != Y0]
            if bad:
                raise PreconditionError(
                    f"prefix slot {i} may only use x-positions below {i} and y0")
        self._slots: dict[int, Formula] = {}
        self._clauses: dict[int, Formula] = {}
        self._conjuncts: dict[int, Formula] = {}
        self.section = _SectionState(self)

    # slot layout ------------------------------------------------------------

    @property
    def offset(self) -> int:
        return len(self.prefix)

    def schedule_slot(self, t: int) -> int:
        return self.offset + 6 * t + 3

    def _item(self, k: int) -> Formula:
        if k % 3 == 0:
            return _stream(self.theory).item(k // 3)
        if k % 3 == 1:
            return self.section.step_formula((k - 1) // 3)
        return Eq(VarRef(0, (k - 2) // 3), Y0)

    def rich_formula(self, n: int) -> Formula:
        if n < 0:
            raise PreconditionError("negative index")
        if n == 0:
            return TRUE
        if n <= self.offset:
            return self.prefix[n - 1]
        if n in self._slots:
            return self._slots[n]
        u = n - self.offset
        if u % 2:
            f = self._item((u - 1) // 2)
        else:
            _e, k = cantor_unpair(u // 2 - 1)
            f = self._item(k)
        if any(v.tape == 0 and v.position >= n for v in free_vars(f)):
            f = TRUE  # dummy padding: the item reappears at later slots
        self._slots[n] = f
        return f

    # the witness condition ----------------------------------------------------

    def defining_clause(self, k: int) -> Formula:
        """The k-th defining clause forall y0 (phi_k -> phi_k[y0 := x_k]),
        or `true` when phi_k does not mention y0."""
        if k not in self._clauses:
            phi = self.rich_formula(k)
            self._clauses[k] = (
                forall(Y0, implies(phi, substitute_vars(phi, {Y0: VarRef(0, k)})))
                if Y0 in free_vars(phi) else TRUE)
        return self._clauses[k]

    def dphi_conjunct(self, k: int) -> Formula:
        """Quantifier-free equivalent of the k-th defining clause, in the
        tape-0 variables x_<k, x_k."""
        if k not in self._conjuncts:
            clause = self.defining_clause(k)
            self._conjuncts[k] = (clause if clause == TRUE
                                  else eliminate_quantifiers(clause, self.theory))
        return self._conjuncts[k]

    def dphi_formula(self, n: int) -> DPhiLevel:
        clauses = []
        for k in range(n):
            phi = self.rich_formula(k)
            clauses.append(self.defining_clause(k) if Y0 in free_vars(phi)
                           else Forall(Y0, Implies(phi, phi)))
        raw = TRUE if not clauses else (clauses[0] if len(clauses) == 1
                                        else And(tuple(clauses)))
        simplified = conj(self.dphi_conjunct(k) for k in range(n))
        return DPhiLevel(n, raw, simplified)

    def _closure(self, positions) -> set[int]:
        todo = sorted(positions, reverse=True)
        seen = set(todo)
        while todo:
            k = todo.pop()
            for v in free_vars(self.dphi_conjunct(k)):
                if v.tape == 0 and v.position not in seen:
                    seen.add(v.position)
                    todo.append(v.position)
        return seen

    def relativize_exists(self, body: Formula, tape: int) -> Formula:
        """Quantifier-free form of: some witness-sort tuple on `tape`
        satisfies `body` (Lemma-style expressibility).  Equivalent to
        quantifying all positions below any level past the body's under
        that level's condition; conjuncts unreachable from the body's
        positions are dropped because a partial solution always extends."""
        S = self._closure({v.position for v in free_vars(body) if v.tape == tape})
        constraints = [rename_tapes(self.dphi_conjunct(k), {0: tape})
                       for k in sorted(S)]
        f = conj(constraints + [body])
        for p in sorted(S, reverse=True):
            f = exists(VarRef(tape, p), f)
        return eliminate_quantifiers(f, self.theory)

    def relativize_forall(self, body: Formula, tape: int) -> Formula:
        inner = self.relativize_exists(neg(body), tape)
        return eliminate_quantifiers(neg(inner), self.theory)

    def valid(self, f: Formula, tapes: int) -> bool:
        """Whether `f` holds of every witness-sort tuple on each of the
        tapes 0..tapes-1: `relativize_forall` on each tape, then decide."""
        for t in range(tapes):
            f = self.relativize_forall(f, tape=t)
        return decide_sentence(f, self.theory)


# -- the self-referential section-schedule stream ------------------------------

class _SectionState:
    """Computes the trivialising-section data for the sequence's pinned base
    tuple: the reference tuple itself, the realization bounds A_n, the block
    bounds B_k, and the per-step formulas placed at the schedule slots."""

    def __init__(self, seq: RichSequence):
        self.seq = seq
        self.model = make_model(seq.theory)
        self._tuple: list = []
        self._steps: dict[int, Formula] = {}
        self._a: dict[int, int] = {}
        self._b: list[int] = [0]
        self._computing: set[int] = set()

    def tuple_prefix(self, n: int) -> list:
        while len(self._tuple) < n:
            p = len(self._tuple)
            ext = build_dtuple(self.model, self.seq, p + 1,
                               cover=_cover(self.model, p + 1),
                               base=tuple(self._tuple))
            self._tuple = list(ext.elements)
        return self._tuple[:n]

    def one_types_over(self, n: int):
        """Complete diagrams over (c_<n, y) consistent with the prefix type."""
        prefix = self.tuple_prefix(n)
        pool = diagrams_over(self.seq.theory, n + 1)
        if n == 0:
            return list(pool)
        want = tuple_type(self.model, [prefix]).restrict_vars(list(range(n))).key()
        return [d for d in pool if d.restrict_vars(list(range(n))).key() == want]

    def realized_at(self, diagram, n: int, i: int) -> bool:
        prefix = self.tuple_prefix(n)
        c_i = self.tuple_prefix(i + 1)[i]
        asg = {VarRef(0, j): prefix[j] for j in range(n)}
        asg[VarRef(0, n)] = c_i
        return evaluate(diagram.diagram_formula(), self.model, asg)

    def a_bound(self, n: int) -> int:
        """Least A with every 1-type over the reference prefix realised at
        some position in [n, A)."""
        if n in self._a:
            return self._a[n]
        worst = n
        for d in self.one_types_over(n):
            for i in range(n, SECTION_SCAN_CAP):
                if self.realized_at(d, n, i):
                    worst = max(worst, i + 1)
                    break
            else:
                raise InternalConsistencyError(
                    f"no realization of a 1-type over the first {n} entries "
                    f"within {SECTION_SCAN_CAP} positions")
        self._a[n] = worst
        return worst

    def b_chain_through(self, n: int) -> int:
        """Index k with B_k <= n < B_{k+1}, extending the chain as needed."""
        while self._b[-1] <= n:
            self._b.append(self.a_bound(self._b[-1]))
        for k in range(len(self._b) - 1):
            if self._b[k] <= n < self._b[k + 1]:
                return k
        raise InternalConsistencyError("block chain inconsistent")

    def step_formula(self, t: int) -> Formula:
        if t in self._steps:
            return self._steps[t]
        if t in self._computing:
            raise InternalConsistencyError(
                f"section step {t} depends on its own slot")
        self._computing.add(t)
        try:
            f = self._build_step(t)
        finally:
            self._computing.discard(t)
        self._steps[t] = f
        return f

    def _build_step(self, t: int) -> Formula:
        n = t
        k = self.b_chain_through(n)
        a_n = self.a_bound(n)
        prefix = self.tuple_prefix(max(n + 1, a_n))
        bhat = [VarRef(0, self.seq.schedule_slot(j)) for j in range(n)]
        xk = VarRef(0, k)

        def q_diagram(upto: int, extra: int | None, targets: list[VarRef]) -> Formula:
            cols = [[prefix[j] for j in range(upto)] + ([prefix[extra]] if extra is not None else [])]
            d = tuple_type(self.model, cols)
            mapping = {VarRef(0, j): targets[j] for j in range(len(targets))}
            return substitute_vars(d.diagram_formula(), mapping)

        # if the tracked entry realises the reference type of the next
        # entry, copy it; otherwise follow the least matching realisation
        case1 = conj([q_diagram(n + 1, None, bhat + [xk]), Eq(xk, Y0)])
        case1_key = tuple_type(self.model, [prefix[:n + 1]]).key()
        parts = [case1]
        seen = {case1_key}
        for ell in range(n + 1, a_n):
            key = tuple_type(self.model, [prefix[:n] + [prefix[ell]]]).key()
            if key in seen:
                continue
            seen.add(key)
            guard = q_diagram(n, ell, bhat + [xk])
            body = q_diagram(n + 1, ell, bhat + [Y0, xk])
            parts.append(conj([guard, body]))
        return disj(parts)

    def plan(self, steps: int) -> dict:
        ms = [self.seq.schedule_slot(t) for t in range(steps)]
        for t in range(steps):
            self.step_formula(t)
        while self._b[-1] <= steps - 1:
            self._b.append(self.a_bound(self._b[-1]))
        return {"m": ms, "A": dict(sorted(self._a.items())), "B": list(self._b),
                "steps": steps, "reference": list(self._tuple)}


def _cover(model, n: int):
    return [model.element(i) for i in range(max(2 * n, 8))]
