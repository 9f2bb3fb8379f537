"""Clopen algebra of the finite-level groupoid and its point tables.

An arity-k clopen is a formula over tapes 0..k-1 (positions below its
level), read as a subset of the space of k-tuples-of-enumerations types.
Equality of clopens is semantic: provable equivalence relative to the
witness sort on every tape.  The level-n avatar of the space is the whole
space of k-tape level-n types under the per-tape level condition; all of
them extend into the limit, which is the density argument this module
leans on.  Composition of finite-level points is a relation, not a
function; associativity and the other groupoid laws are verified for the
relation, with composition of clopens as the formula-level counterpart.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import InternalConsistencyError, PreconditionError
from .formula import (And, Atom, Bot, Eq, Formula, Implies, Not, Or, Top,
                      VarRef, conj, disj, free_vars, implies, neg, rename_tapes)
from .rich import RichSequence
from .theories import (DEFAULT_GRID_CAP, CompleteType, check_grid_cap,
                       decide_sentence, diagram_codes, eliminate_quantifiers,
                       enumerate_types, pair_codes, restriction_map)


def merge_tape(f: Formula, src: int, dst: int) -> Formula:
    """Quantifier-free diagonal substitution: every tape-src variable
    becomes the tape-dst variable at the same position."""
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(VarRef(dst if v.tape == src else v.tape, v.position)
                                 for v in f.args))
    if isinstance(f, Eq):
        a, b = (VarRef(dst if v.tape == src else v.tape, v.position)
                for v in (f.lhs, f.rhs))
        return Eq(a, b)
    if isinstance(f, Not):
        return neg(merge_tape(f.sub, src, dst))
    if isinstance(f, And):
        return conj(merge_tape(c, src, dst) for c in f.children)
    if isinstance(f, Or):
        return disj(merge_tape(c, src, dst) for c in f.children)
    if isinstance(f, Implies):
        return implies(merge_tape(f.lhs, src, dst), merge_tape(f.rhs, src, dst))
    raise PreconditionError("diagonal substitution needs a quantifier-free formula")


@dataclass(frozen=True)
class ClopenSet:
    seq: RichSequence
    arity: int
    formula: Formula
    level: int

    def __post_init__(self):
        for v in free_vars(self.formula):
            if v.tape >= self.arity or v.position >= self.level:
                raise PreconditionError(
                    f"{v.render()} outside the {self.arity}x{self.level} window")

    @property
    def theory(self):
        return self.seq.theory


def clopen(seq: RichSequence, formula: Formula, arity: int | None = None,
           level: int | None = None) -> ClopenSet:
    fv = free_vars(formula)
    if arity is None:
        arity = max((v.tape for v in fv), default=0) + 1
    if level is None:
        level = max((v.position for v in fv), default=-1) + 1
    return ClopenSet(seq, arity, eliminate_quantifiers(formula, seq.theory), level)


def en_clopen(seq: RichSequence, n: int) -> ClopenSet:
    f = conj(Eq(VarRef(0, i), VarRef(1, i)) for i in range(n))
    return ClopenSet(seq, 2, f, n)


def base_clopen(seq: RichSequence, level: int) -> ClopenSet:
    """The diagonal at the working level: the finite avatar of the base."""
    return en_clopen(seq, level)


# -- the algebra ---------------------------------------------------------------

def compose_clopen(U: ClopenSet, V: ClopenSet) -> ClopenSet:
    """Existential image over a shared middle tape, relativised to the
    witness sort; the formula-level composition law."""
    _common(U, V)
    if U.arity != 2 or V.arity != 2:
        raise PreconditionError("composition needs arity-2 clopens")
    level = max(U.level, V.level)
    shifted = rename_tapes(V.formula, {0: 1, 1: 2})
    body = conj([U.formula, shifted])
    out = U.seq.relativize_exists(body, tape=1)
    return ClopenSet(U.seq, 2, rename_tapes(out, {2: 1}), level)


def invert_clopen(U: ClopenSet) -> ClopenSet:
    if U.arity != 2:
        raise PreconditionError("inversion needs an arity-2 clopen")
    return ClopenSet(U.seq, 2, rename_tapes(U.formula, {0: 1, 1: 0}), U.level)


def source_clopen(U: ClopenSet) -> ClopenSet:
    """The source image: existentially project away the target tape."""
    if U.arity != 2:
        raise PreconditionError("source needs an arity-2 clopen")
    out = U.seq.relativize_exists(U.formula, tape=0)
    return ClopenSet(U.seq, 1, rename_tapes(out, {1: 0}), U.level)


def target_clopen(U: ClopenSet) -> ClopenSet:
    return source_clopen(invert_clopen(U))


def contains_base(U: ClopenSet) -> bool:
    diag = merge_tape(U.formula, 1, 0)
    sentence = U.seq.relativize_forall(diag, tape=0, level=U.level, prune=False)
    return decide_sentence(sentence, U.theory)


def clopen_le(U: ClopenSet, V: ClopenSet) -> bool:
    _common(U, V)
    return U.seq.valid(implies(U.formula, V.formula), max(U.arity, V.arity))

def clopen_equiv(U: ClopenSet, V: ClopenSet) -> bool:
    return clopen_le(U, V) and clopen_le(V, U)


def _common(U: ClopenSet, V: ClopenSet):
    if U.seq is not V.seq:
        raise PreconditionError("clopens live over different sequences")


def separating_type(U: ClopenSet, V: ClopenSet, cap_level: int = 3) -> CompleteType | None:
    """A point table witness on which exactly one of the clopens holds."""
    level = min(max(U.level, V.level, 1), cap_level)
    gap = disj([conj([U.formula, neg(V.formula)]),
                conj([neg(U.formula), V.formula])])
    k = max(U.arity, V.arity)
    tab = LevelTable(U.seq, k, level)
    for p in tab.points:
        if p.satisfies_qf(eliminate_quantifiers(gap, U.theory)):
            return p
    return None


@dataclass(frozen=True)
class SubGroupoid:
    clopen: ClopenSet
    certificate: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class Refusal:
    axiom: str
    witness: CompleteType | None

    def __bool__(self):
        return False


def is_subgroupoid(U: ClopenSet):
    """Certify the three clopen sub-groupoid axioms, or refuse with the one
    that failed and a witness point."""
    inv = invert_clopen(U)
    if not clopen_equiv(inv, U):
        return Refusal("symmetric", separating_type(U, inv))
    if not contains_base(U):
        bad = clopen(U.seq, neg(merge_tape(U.formula, 1, 0)))
        table = LevelTable(U.seq, 1, max(U.level, 1))
        hits = table.points_of(ClopenSet(U.seq, 1, bad.formula, max(U.level, 1))) \
            if bad.arity == 1 else set()
        witness = table.points[min(hits)] if hits else None
        return Refusal("contains-base", witness)
    sq = compose_clopen(U, U)
    if not clopen_equiv(sq, U):
        return Refusal("multiplicatively-closed", separating_type(U, sq))
    cert = (("symmetric", True), ("contains-base", True),
            ("multiplicatively-closed", True))
    return SubGroupoid(U, cert)


def minimal_en_index(H: SubGroupoid, search_bound: int) -> int:
    if search_bound < H.clopen.level:
        raise PreconditionError("search bound below the sub-groupoid's level")
    for n in range(search_bound + 1):
        if clopen_le(en_clopen(H.clopen.seq, n), H.clopen):
            return n
    raise InternalConsistencyError(
        "no level equality relation fits inside the sub-groupoid")


# -- level tables --------------------------------------------------------------

class LevelTable:
    """All k-tape level-n types under the per-tape level condition, with the
    base sublist and, for k = 2, the amalgamation composition relation.

    `points` are sorted by `CompleteType.key`; `codes[i]` is point i's
    pair-code tuple (`theories.PairCodes`), and the index maps code tuples
    to point ids.  Amalgams are never built as `CompleteType`s: a k-tape
    type meets the per-tape condition iff its first k-1 tapes and its last
    tape do, so the 3-tape (and, in `verify_level_axioms`, 4-tape) amalgams
    are streamed by `diagram_codes` as one-tape extensions of the points'
    code tuples, and their restrictions to two tapes are read through fixed
    pair-position maps (`restriction_map`).  Grids of k*n variables and,
    for k = 2, the 3n-variable amalgams are checked against `cap` first."""

    def __init__(self, seq: RichSequence, k: int, n: int, cap: int = DEFAULT_GRID_CAP):
        check_grid_cap(k * n, cap)
        if k == 2:
            check_grid_cap(3 * n, cap)
        self.seq = seq
        self.k = k
        self.n = n
        self.cap = cap
        self._dphi = seq.dphi_formula(n).simplified
        constraint = conj(self._tape_condition(t) for t in range(k))
        self.points = tuple(enumerate_types(seq.theory, k, n, constraint, cap=cap))
        self._pc = pair_codes(seq.theory)
        self.codes = tuple(map(self._pc.codes_of, self.points))
        self._index = {c: i for i, c in enumerate(self.codes)}
        diag = conj(Eq(VarRef(t, i), VarRef(t + 1, i))
                    for t in range(k - 1) for i in range(n))
        self.base = tuple(i for i, p in enumerate(self.points)
                          if p.satisfies_qf(diag))
        self.composition = frozenset(self._compose()) if k == 2 else frozenset()

    def _tape_condition(self, tape: int) -> Formula:
        return rename_tapes(self._dphi, {0: tape})

    def extend_tape(self, codes: tuple[int, ...], tape: int):
        """Code tuples of the (tape+1)-tape amalgams whose first tapes are
        `codes` and whose new tape meets the level condition."""
        return diagram_codes(self.seq.theory, tape + 1, self.n,
                             self._tape_condition(tape), codes)

    def restriction_index(self, k: int, tapes: tuple[int, ...]):
        """Function from a k-tape code tuple to the id of its restriction to
        `tapes`.  The dict it reads is keyed by the codes as the restriction
        map reads them, so converse pairs cost nothing per call."""
        rmap = restriction_map(k, self.n, tapes)
        conv = self._pc.converse
        keyed = {tuple(conv[c] if flip else c for c, (_, flip) in zip(codes, rmap)): i
                 for i, codes in enumerate(self.codes)}
        read = _reader([pos for pos, _ in rmap])
        return lambda codes: keyed[read(codes)]

    def _compose(self):
        index12 = self.restriction_index(3, (1, 2))
        index02 = self.restriction_index(3, (0, 2))
        for p, codes in enumerate(self.codes):
            for tri in self.extend_tape(codes, 2):
                yield p, index12(tri), index02(tri)

    def index(self, point: CompleteType) -> int:
        try:
            return self._index[self._pc.codes_of(point)]
        except KeyError:
            raise PreconditionError("point does not belong to this table") from None

    def compose_sets(self):
        out: dict[tuple[int, int], set[int]] = {}
        for a, b, c in self.composition:
            out.setdefault((a, b), set()).add(c)
        return out

    def points_of(self, U: ClopenSet) -> frozenset[int]:
        if U.level > self.n or U.arity != self.k:
            raise PreconditionError("clopen does not fit this table")
        return frozenset(i for i, p in enumerate(self.points)
                         if p.satisfies_qf(U.formula))

    def clopen_of(self, indices) -> ClopenSet:
        f = disj(self.points[i].diagram_formula() for i in sorted(indices))
        return ClopenSet(self.seq, self.k, eliminate_quantifiers(f, self.seq.theory),
                         self.n)

    @cached_property
    def _inverses(self) -> tuple[int, ...]:
        swap = self.restriction_index(2, (1, 0))
        return tuple(map(swap, self.codes))

    @cached_property
    def _base_by_tape0(self) -> dict:
        tape0 = self.n * (self.n - 1) // 2  # the codes of tape 0 lead each tuple
        return {self.codes[b][:tape0]: b for b in self.base}

    def inverse_index(self, i: int) -> int:
        return self._inverses[i]

    def target_base(self, i: int) -> int:
        tape0 = self.n * (self.n - 1) // 2
        try:
            return self._base_by_tape0[self.codes[i][:tape0]]
        except KeyError:
            raise InternalConsistencyError("missing base point for a target") from None

    def source_base(self, i: int) -> int:
        return self.target_base(self.inverse_index(i))


def _reader(positions: list[int]):
    """Function from a code tuple to the tuple of its codes at `positions`."""
    if len(positions) == 1:
        pos, = positions
        return lambda codes: (codes[pos],)
    return itemgetter(*positions) if positions else (lambda codes: ())


def _four_tape_relation(tab: LevelTable) -> dict:
    """(p, q, r) -> every s such that one 4-tape amalgam restricts to p, q,
    r, s on the tape pairs (0,1), (1,2), (2,3), (0,3).  Each point is
    extended tape by tape; p is taken once per point and q once per 3-tape
    prefix."""
    index12 = tab.restriction_index(3, (1, 2))
    index23 = tab.restriction_index(4, (2, 3))
    index03 = tab.restriction_index(4, (0, 3))
    four: dict[tuple[int, int, int], set[int]] = {}
    try:
        for p, codes in enumerate(tab.codes):
            for tri in tab.extend_tape(codes, 2):
                q = index12(tri)
                for quad in tab.extend_tape(tri, 3):
                    four.setdefault((p, q, index23(quad)), set()).add(index03(quad))
    except KeyError:
        raise InternalConsistencyError(
            "a 4-tape amalgam restricts to a type outside the table") from None
    return four


def _composites(comp: dict, left: bool) -> dict:
    """(p, q, r) -> (p q) r when `left`, else p (q r), for the composition
    relation `comp` ((a, b) -> set of composites); triples with no composite
    are absent."""
    by_end: dict[int, list] = {}
    for (a, b), cs in comp.items():
        if left:
            by_end.setdefault(a, []).append((b, cs))
        else:
            by_end.setdefault(b, []).append((a, cs))
    out: dict[tuple[int, int, int], set[int]] = {}
    for (a, b), mids in comp.items():
        for u in mids:
            for other, cs in by_end.get(u, ()):
                key = (a, b, other) if left else (other, a, b)
                out.setdefault(key, set()).update(cs)
    return out


def verify_level_axioms(tab: LevelTable) -> dict:
    """Exhaustive finite-level checks of the groupoid laws on a k=2 table:
    relational associativity (against the four-tape amalgams), two-sided
    neutrality of base points, inversion through the base, and openness of
    the source map against the formula-level source.

    Associativity compares (p q) r, p (q r) and the amalgams for every
    point triple; the three relations are held as dicts without their
    empty entries, so the comparison costs their size, not npts**3."""
    if tab.k != 2:
        raise PreconditionError("axioms are verified on arity-2 tables")
    check_grid_cap(4 * tab.n, tab.cap)
    report: dict[str, object] = {}
    comp = tab.compose_sets()
    npts = len(tab.points)

    four = _four_tape_relation(tab)
    lhs, rhs = _composites(comp, left=True), _composites(comp, left=False)
    if not lhs == rhs == four:
        p, q, r = min(t for t in lhs.keys() | rhs.keys() | four.keys()
                      if not lhs.get(t) == rhs.get(t) == four.get(t))
        raise InternalConsistencyError(f"associativity fails at points ({p},{q},{r})")
    report["associativity"] = True

    for p in range(npts):
        e_t, e_s = tab.target_base(p), tab.source_base(p)
        if comp.get((e_t, p), set()) != {p} or comp.get((p, e_s), set()) != {p}:
            raise InternalConsistencyError(f"neutrality fails at point {p}")
    report["neutrality"] = True

    for p in range(npts):
        if tab.target_base(p) not in comp.get((p, tab.inverse_index(p)), set()):
            raise InternalConsistencyError(f"inversion fails at point {p}")
    report["inversion"] = True

    # source images commute with unions, so singleton generators (plus one
    # sample union) decide openness for every definable point-set
    one_tape = LevelTable(tab.seq, 1, tab.n, tab.cap)
    tape1 = one_tape.restriction_index(2, (1,))
    samples = [frozenset((i,)) for i in range(npts)]
    if npts >= 2:
        samples.append(frozenset((0, npts - 1)))
    for sample in samples:
        U = tab.clopen_of(sample)
        pointwise = frozenset(tape1(tab.codes[i]) for i in sample)
        via_formula = one_tape.points_of(source_clopen(U))
        if pointwise != via_formula:
            raise InternalConsistencyError(
                f"openness fails on point-set {sorted(sample)}")
    report["openness"] = True
    report["points"] = npts
    report["base-points"] = len(tab.base)
    report["composition-triples"] = len(tab.composition)
    return report


# -- fibred powers, theta, projections ----------------------------------------

def theta_reindex(p: CompleteType):
    """Decompose a (k+1)-tape point into its tape-0 base restriction and the
    pairwise (0, i) points, the finite shadow of the re-indexing
    homeomorphism."""
    if p.k < 2:
        raise PreconditionError("theta needs at least two tapes")
    base = p.restrict((0,))
    pairs = [p.restrict((0, i)) for i in range(1, p.k)]
    return base, pairs


def theta_fiber(tab: LevelTable, base: CompleteType, pairs) -> list[int]:
    """All table points whose restriction to tape 0 is `base` and to tapes
    (0, j+1) is `pairs[j]`.  The wanted restrictions are turned into the
    codes each point must hold at fixed pair positions (`restriction_map`),
    so the scan compares code tuples and builds no restriction."""
    pc = tab._pc
    need: dict[int, int] = {}
    for tapes, g in [((0,), base), *(((0, j + 1), g) for j, g in enumerate(pairs))]:
        if len(g.classes) != len(tapes) * tab.n:
            return []
        rmap = restriction_map(tab.k, tab.n, tapes)
        for (pos, flip), c in zip(rmap, pc.codes_of(g)):
            c = pc.converse[c] if flip else c
            if need.setdefault(pos, c) != c:
                return []
    positions = sorted(need)
    read, want = _reader(positions), tuple(map(need.__getitem__, positions))
    return [i for i, codes in enumerate(tab.codes) if read(codes) == want]


def project_clopen(U: ClopenSet, m: int) -> ClopenSet:
    """Image under the level projection: fresh witness-sort tapes agree with
    the visible ones below m and satisfy the original formula."""
    if m > U.level:
        raise PreconditionError("projection target above the clopen's level")
    if m == U.level:
        return U
    k = U.arity
    body = rename_tapes(U.formula, {t: t + k for t in range(k)})
    links = [Eq(VarRef(t, p), VarRef(t + k, p)) for t in range(k) for p in range(m)]
    out = conj([body] + links)
    for t in range(k):
        out = U.seq.relativize_exists(out, tape=t + k)
    return ClopenSet(U.seq, k, out, m)


def act_clopen(U: ClopenSet, movers: list[ClopenSet]) -> ClopenSet:
    """The right action on an arity-k clopen by one arity-2 clopen per tape:
    existentially re-route every tape through its mover."""
    k = U.arity
    if len(movers) != k:
        raise PreconditionError("need one mover per tape")
    body = rename_tapes(U.formula, {t: t + k for t in range(k)})
    parts = [body]
    for t, g in enumerate(movers):
        _common(U, g)
        parts.append(rename_tapes(g.formula, {0: t + k, 1: t}))
    out = conj(parts)
    level = max([U.level] + [g.level for g in movers])
    for t in range(k):
        out = U.seq.relativize_exists(out, tape=t + k)
    return ClopenSet(U.seq, k, out, level)


def is_en_invariant(U: ClopenSet, n: int) -> bool:
    movers = [en_clopen(U.seq, n)] * U.arity
    return clopen_equiv(act_clopen(U, movers), U)


def cantor_branching(seq: RichSequence, level: int, extra: int) -> bool:
    """Every base point at each level up to `level` admits at least two
    incompatible extensions within `extra` further levels."""
    for n in range(level + 1):
        for p in LevelTable(seq, 1, n).points:
            if not _branches(seq, p, n, extra):
                return False
    return True


def _branches(seq, p, n, extra) -> bool:
    for j in range(1, extra + 1):
        ext = [q for q in LevelTable(seq, 1, n + j).points
               if q.restrict((0,), n).key() == p.key()]
        if len({q.key() for q in ext}) >= 2:
            return True
    return False
