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
Composing points amalgamates them over the middle tape, so associativity
is the amalgamation property read at one level: (p q) r == p (q r).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import (InternalConsistencyError, PreconditionError,
                     ResourceCapError)
from .formula import (Eq, Formula, VarRef, conj, disj, free_vars, implies, neg,
                      rename_tapes, substitute_vars)
from .rich import RichSequence
from .theories import (DEFAULT_GRID_CAP, CompleteType, check_grid_cap,
                       decide_sentence, diagram_codes, eliminate_quantifiers,
                       enumerate_types, pair_codes, restriction_map)


def merge_tape(f: Formula, src: int, dst: int) -> Formula:
    """Diagonal substitution: every free tape-src variable becomes the
    tape-dst variable at the same position."""
    return substitute_vars(f, {v: VarRef(dst, v.position)
                               for v in free_vars(f) if v.tape == src})


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
    sentence = U.seq.relativize_forall(diag, tape=0)
    return decide_sentence(sentence, U.theory)


def clopen_le(U: ClopenSet, V: ClopenSet) -> bool:
    _common(U, V)
    return U.seq.valid(implies(U.formula, V.formula), max(U.arity, V.arity))

def clopen_equiv(U: ClopenSet, V: ClopenSet) -> bool:
    return clopen_le(U, V) and clopen_le(V, U)


def _common(U: ClopenSet, V: ClopenSet):
    if U.seq is not V.seq:
        raise PreconditionError("clopens live over different sequences")


def separating_type(U: ClopenSet, V: ClopenSet) -> CompleteType | None:
    """A point table witness on which exactly one of the clopens holds,
    searched in a table of level at most 3."""
    level = min(max(U.level, V.level, 1), 3)
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
    """A failed law and its witness: a point for the clopen sub-groupoid
    axioms, the least failing point ids for the level-table laws."""
    axiom: str
    witness: CompleteType | tuple[int, ...] | None

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
    tape do, so the 3-tape amalgams are streamed by `diagram_codes` as
    one-tape extensions of the points' code tuples, and their restrictions
    to two tapes are read through fixed pair-position maps
    (`restriction_map`).  Grids of k*n variables and, for k = 2, the
    3n-variable amalgams (the largest grid) are checked against `cap`."""

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

    def _tape_condition(self, tape: int) -> Formula:
        return rename_tapes(self._dphi, {0: tape})

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

    @cached_property
    def composition(self) -> frozenset[tuple[int, int, int]]:
        """The (p, q, c) with c a composite of p and q (k = 2 only), built
        on first use: a caller can refuse the table on its points alone."""
        return frozenset(self._compose()) if self.k == 2 else frozenset()

    def _compose(self):
        index12 = self.restriction_index(3, (1, 2))
        index02 = self.restriction_index(3, (0, 2))
        tape2 = self._tape_condition(2)
        for p, codes in enumerate(self.codes):
            for tri in diagram_codes(self.seq.theory, 3, self.n, tape2, codes):
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
    def inverses(self) -> tuple[int, ...]:
        """Point id -> the id of its converse (tapes 0 and 1 swapped)."""
        swap = self.restriction_index(2, (1, 0))
        return tuple(map(swap, self.codes))

    @cached_property
    def target_bases(self) -> tuple[int, ...]:
        """Point id -> the base point of its tape-0 type.  A point's source
        base point is the target base point of its inverse."""
        tape0 = self.n * (self.n - 1) // 2  # the codes of tape 0 lead each tuple
        by_tape0 = {self.codes[b][:tape0]: b for b in self.base}
        try:
            return tuple(by_tape0[codes[:tape0]] for codes in self.codes)
        except KeyError:
            raise InternalConsistencyError("missing base point for a target") from None


def _reader(positions: list[int]):
    """Function from a code tuple to the tuple of its codes at `positions`."""
    if len(positions) == 1:
        pos, = positions
        return lambda codes: (codes[pos],)
    return itemgetter(*positions) if positions else (lambda codes: ())


# Most point triples (npts**3) the associativity join may range over:
# pureset level 3 (203 points) fits, equivinf level 3 (2,471) is refused.
ASSOC_TRIPLE_CAP = 10_000_000
LAWS = ("associativity", "neutrality", "inversion", "openness")


def _associativity(rows: list[dict], members: list[dict]):
    """Least (p, q, r) with (p q) r != p (q r), where rows[a][b] holds the
    composites of (a, b) as a bitmask and members[a][b] as a list.  For each
    (p, q) both sides are built as r -> bitmask: the left ORs rows[a][r]
    over a in p q, the right ORs rows[p][b] over b in q r.  Either side can
    be non-empty only if p q is defined or some composite b of q has p b
    defined, so only those q are visited."""
    factors = [set() for _ in rows]  # b -> the q with b among their composites
    for q, row in enumerate(members):
        for cs in row.values():
            for b in cs:
                factors[b].add(q)
    for p, row_p in enumerate(rows):
        for q in sorted(set(row_p).union(*(factors[b] for b in row_p))):
            left: dict[int, int] = {}
            for a in members[p].get(q, ()):
                for r, m in rows[a].items():
                    left[r] = left.get(r, 0) | m
            right = {}
            for r, cs in members[q].items():
                m = 0
                for b in cs:
                    m |= row_p.get(b, 0)
                if m:
                    right[r] = m
            if left != right:
                return p, q, min(r for r in left.keys() | right.keys()
                                 if left.get(r) != right.get(r))
    return None


def _openness(tab: LevelTable):
    """Least point-set whose pointwise source image differs from the points
    of its formula-level source.  Source images commute with unions, so
    singleton generators (plus one sample union) decide every definable
    point-set."""
    npts = len(tab.points)
    one_tape = LevelTable(tab.seq, 1, tab.n, tab.cap)
    tape1 = one_tape.restriction_index(2, (1,))
    samples = [(i,) for i in range(npts)] + ([(0, npts - 1)] if npts >= 2 else [])
    return next((s for s in samples
                 if frozenset(tape1(tab.codes[i]) for i in s)
                 != one_tape.points_of(source_clopen(tab.clopen_of(s)))), None)


def verify_level_axioms(tab: LevelTable) -> dict:
    """Exhaustive finite-level checks of the groupoid laws on a k=2 table;
    each law in `LAWS` maps to True or to a `Refusal` holding its least
    failing point ids.  A diagram is consistent iff every triple of its
    variables is, so a 4-tape amalgam restricting to p, q, r, s on tapes
    (0,1), (1,2), (2,3), (0,3) exists iff s is in (p q) r and in p (q r):
    associativity is the whole amalgam check.  Inversion asks for the
    target base point in p p^-1 and that (p, q, c) give (c, q^-1, p) and
    (p^-1, c, q), which catches a composite dropped from or added to an
    associative relation.  Neutrality is two-sided for base points, and
    openness compares the source map with the formula-level source."""
    if tab.k != 2:
        raise PreconditionError("axioms are verified on arity-2 tables")
    npts = len(tab.points)
    if npts ** 3 > ASSOC_TRIPLE_CAP:
        raise ResourceCapError(
            f"associativity join over {npts}**3 point triples exceeds the cap "
            f"{ASSOC_TRIPLE_CAP}", cap="assoc-triples", limit=ASSOC_TRIPLE_CAP,
            observed=npts ** 3)
    comp, inv, tgt = tab.composition, tab.inverses, tab.target_bases
    rows: list[dict[int, int]] = [{} for _ in range(npts)]
    members: list[dict[int, list]] = [{} for _ in range(npts)]
    for a, b, c in comp:
        rows[a][b] = rows[a].get(b, 0) | 1 << c
        members[a].setdefault(b, []).append(c)
    witnesses = {
        "associativity": _associativity(rows, members),
        "neutrality": next(((p,) for p in range(npts)
                            if rows[tgt[p]].get(p) != 1 << p
                            or rows[p].get(tgt[inv[p]]) != 1 << p), None),
        "inversion": next(((p,) for p in range(npts)
                           if not rows[p].get(inv[p], 0) >> tgt[p] & 1), None)
        or min(((p, q, c) for p, q, c in comp
                if (c, inv[q], p) not in comp or (inv[p], c, q) not in comp),
               default=None),
        "openness": _openness(tab)}
    return {**{law: True if w is None else Refusal(law, w) for law, w in witnesses.items()},
            "points": npts, "base-points": len(tab.base), "composition-triples": len(comp)}


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
