"""Rich enumeration sequences and the witness-sort built from them.

A rich sequence assigns to every index n a formula in variables x_<n and a
single y, such that every formula (up to theory equivalence, with dummy
padding) occurs at arbitrarily large indices.  Slot layout:

  slot 0            true (always)
  slot n, n odd     first occurrence of item (n-1)/2
  slot n, n even    repeat: item k where (e, k) = cantor_unpair(n/2 - 1)

  item 3r    the canonical stream: rank 0 false, rank 1 true, then every
             minimal diagram-union normal form once, in weight order
  item 3t+1  the section-schedule stream, step t (the self-referential
             formulas behind the trivialising section; they may use the
             slot numbers of earlier steps, which is well founded)
  item 3j+2  the copy stream: eq(xj, y0), so the entry at position j is
             echoed shortly before the j-th schedule slot; this keeps each
             realisation scan ahead of the slots it defines

A slot falls back to `true` when its item needs x-positions >= the slot
index, which also realises the dummy padding of richness: each item
reappears at every repeat slot, hence at arbitrarily large indices.

The level-n witness condition is the conjunction over k < n of

    forall y ( phi_k(x_<k, y) -> phi_k(x_<k, x_k) )

whose k-th conjunct has a small quantifier-free equivalent C_k.  Because a
tuple satisfying the first n conditions always extends one level further
(pick any witness, or anything at all), existential quantification over the
witness sort relativises to finite levels, and conjuncts whose position is
not reachable from the body's positions can be dropped.  `relativize_exists`
uses that pruning, and so does `valid`: f fails on the witness sort iff some
diagram on the closures of f's positions meets their conjuncts C_k and
not-f.  Tapes share no conjunct, so the closures of all tapes, renamed onto
one grid, are searched for that diagram at once by `diagram_codes`.
"""
from __future__ import annotations

import functools
import itertools

from .errors import (InternalConsistencyError, PreconditionError,
                     ResourceCapError)
from .formula import (FALSE, TRUE, And, Eq, Forall, Formula, Implies, VarRef,
                      conj, disj, exists, forall, free_vars, identify_vars,
                      implies, neg, rename_tapes, substitute_vars)
from .models import Y0, compile_formula, make_model, next_entry, tuple_type
from .pairing import cantor_unpair
from .record import Record
from .theories import (CompleteType, check_grid_cap, depends_on_all_vars,
                       diagram_codes, diagrams_over, eliminate_quantifiers,
                       get_theory)

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
                if not depends_on_all_vars(self.theory, m, {pool[i] for i in combo}):
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


_stream = functools.cache(_CanonicalStream)   # one stream per theory


# -- rich sequences -----------------------------------------------------------

class DPhiLevel(Record):
    __slots__ = ("formula", "simplified")


class RichSequence:
    """A concrete rich sequence over one of the built-in theories, in the
    slot layout above.  `section` is the trivialising-section state over the
    sequence's pinned reference tuple: it builds the schedule stream's
    formulas, and the categorical suite reads its `plan`, `model` and
    `realisations`."""

    def __init__(self, theory):
        self.theory = get_theory(theory)
        # per-sequence memos: a method cache would keep every sequence alive
        self._slots: dict[int, Formula] = {}
        self._clauses: dict[int, Formula] = {}
        self._conjuncts: dict[int, Formula] = {}
        self.section = _SectionState(self)

    # slot layout ------------------------------------------------------------

    def schedule_slot(self, t: int) -> int:
        return 6 * t + 3

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
        if n in self._slots:
            return self._slots[n]
        if n % 2:
            f = self._item((n - 1) // 2)
        else:
            _e, k = cantor_unpair(n // 2 - 1)
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
        return DPhiLevel(raw, simplified)

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
        """Quantifier-free form of: every witness-sort tuple on `tape`
        satisfies `body`, by two syntactic QEs.  No command calls it: it is
        kept as the oracle of `valid`'s search and as a traced layer."""
        inner = self.relativize_exists(neg(body), tape)
        return eliminate_quantifiers(neg(inner), self.theory)

    def valid(self, f: Formula, tapes: int) -> bool:
        """Whether `f` holds of every witness-sort tuple on each of the
        tapes 0..tapes-1: no diagram on the closures of f's positions,
        renamed tape after tape onto one grid, meets their conjuncts C_k and
        not-f.  The closures suffice since a partial solution extends, and
        one grid since tapes share no conjunct.  A grid of more than
        `GRID_CAP` variables is refused."""
        bad = eliminate_quantifiers(neg(f), self.theory)
        grid: dict[VarRef, VarRef] = {}
        for t in range(tapes):
            for p in sorted(self._closure({v.position for v in free_vars(bad)
                                           if v.tape == t})):
                grid[VarRef(t, p)] = VarRef(0, len(grid))
        check_grid_cap(len(grid))
        search = substitute_vars(conj([bad] + [
            rename_tapes(self.dphi_conjunct(v.position), {0: v.tape}) for v in grid]), grid)
        return next(diagram_codes(self.theory, 1, len(grid), search), None) is None


# -- the self-referential section-schedule stream ------------------------------

class SectionSchedule(Record):
    __slots__ = ("m", "a_bounds", "b_bounds", "reference")


class _SectionState:
    """The trivialising-section data for the sequence's pinned reference
    tuple, which grows one entry at a time in a model of its own.  For each
    n, `realisations` scans the entries n, n+1, ... once and records where
    each 1-type over the first n entries is first realised; the realisation
    bounds A_n, the block bounds B_k and the per-step formulas placed at the
    schedule slots all read that record.  The model is built on first use,
    so a sequence that never reads it never imports what its theory's
    model needs."""

    def __init__(self, seq: RichSequence):
        self.seq = seq
        self._tuple: list = []
        self._asg: dict = {}   # x_i -> entry i
        self._steps: dict[int, Formula] = {}   # step_formula's memo, beside its recursion guard
        self._realised: dict[int, dict[CompleteType, int]] = {}   # `plan` reads its keys
        self._b: list[int] = [0]
        self._computing: set[int] = set()

    @functools.cached_property
    def model(self):
        return make_model(self.seq.theory)

    def tuple_prefix(self, n: int) -> list:
        """The first n reference entries.  Each new entry p is placed as
        `build_dtuple` would place it and its defining clause is certified
        once.  Before entry p the model commits its first max(2p + 2, 8)
        elements, and its witnesses depend on that growth."""
        while len(self._tuple) < n:
            p = len(self._tuple)
            self.model.element(max(2 * p + 2, 8) - 1)
            entry = next_entry(self.model, self.seq.rich_formula(p), self._asg, self._tuple)
            self._tuple.append(entry)
            self._asg[VarRef(0, p)] = entry
            if not compile_formula(self.seq.defining_clause(p), self.model.theory)(
                    self.model, self._asg):
                raise InternalConsistencyError(
                    f"reference entry {p} fails its defining clause")
        return self._tuple[:n]

    def realisations(self, n: int) -> dict[CompleteType, int]:
        """Each 1-type over the first n entries -> the least position i >= n
        whose entry realises it, in position order.  One scan reads each
        entry's type with `tuple_type` and stops once it has met every
        1-type over the prefix, as many as `diagram_codes` extends the
        prefix's `tuple_type` by one variable.  A scan that cannot meet them
        all before `SECTION_SCAN_CAP` is refused before it starts."""
        if n in self._realised:
            return self._realised[n]
        prefix = self.tuple_prefix(n)
        want = sum(1 for _ in diagram_codes(self.seq.theory, 1, n + 1,
                                            prefix=tuple_type(self.model, prefix)))
        if want > SECTION_SCAN_CAP - n:
            raise ResourceCapError(
                f"{want} 1-types over the first {n} entries cannot all be realised "
                f"within {SECTION_SCAN_CAP} positions", cap="section-scan",
                limit=SECTION_SCAN_CAP, observed=n + want)
        found: dict[CompleteType, int] = {}
        for i in range(n, SECTION_SCAN_CAP):
            found.setdefault(tuple_type(self.model, prefix + [self.tuple_prefix(i + 1)[i]]), i)
            if len(found) == want:
                break
        else:
            raise ResourceCapError(
                f"no realization of every 1-type over the first {n} entries "
                f"within {SECTION_SCAN_CAP} positions", cap="section-scan",
                limit=SECTION_SCAN_CAP, observed=SECTION_SCAN_CAP - n)
        self._realised[n] = found
        return found

    def a_bound(self, n: int) -> int:
        """Least A with every 1-type over the reference prefix realised at
        some position in [n, A)."""
        return max(self.realisations(n).values()) + 1

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
        realised = self.realisations(n)
        prefix = self.tuple_prefix(self.a_bound(n))
        bhat = [VarRef(0, self.seq.schedule_slot(j)) for j in range(n)]
        xk = VarRef(0, k)

        # x_k may be an earlier slot: two diagram variables can land on one
        def pinned(d, targets: list[VarRef]) -> Formula:
            return identify_vars(d.diagram_formula(),
                                 {VarRef(0, j): v for j, v in enumerate(targets)})

        # if the tracked entry realises the reference type of the next
        # entry (first realised at n itself), copy it; otherwise follow the
        # least realisation of its type
        parts = []
        for d, ell in realised.items():
            guard = pinned(d, bhat + [xk])
            if ell == n:
                parts.append(conj([guard, Eq(xk, Y0)]))
            else:
                body = tuple_type(self.model, prefix[:n + 1] + [prefix[ell]])
                parts.append(conj([guard, pinned(body, bhat + [Y0, xk])]))
        return disj(parts)

    def plan(self, steps: int) -> SectionSchedule:
        """The first `steps` schedule slots, with the realisation bounds, block
        bounds and reference tuple as far as the state has computed them."""
        for t in range(steps):
            self.step_formula(t)   # extends the block chain past t
        return SectionSchedule(
            tuple(self.seq.schedule_slot(t) for t in range(steps)),
            tuple((n, self.a_bound(n)) for n in sorted(self._realised)),
            tuple(self._b), tuple(self._tuple))
