"""Finitely presented modules over polynomial rings.

A module element of A^r is a tuple of r polynomials.  Module Groebner
bases run under position-over-term order (lower component index wins, ties
by a ring order), which doubles as an elimination order on components:
that single device computes syzygies, annihilators, kernels, cokernels and
cohomology of complexes.  `module_groebner` is ttkit's only Groebner
engine: `polyring.buchberger` runs an ideal through it as a rank-1 module.
The chain criterion prunes S-pairs at every rank; the coprime-lead
criterion holds only for ideals, so it is applied at rank 1 alone.

Conventions: a `PresentedModule` is coker of its relation columns; maps of
presented modules are matrices on generators, validated to send relations
into relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Optional, Sequence

from .errors import DomainMismatchError, PreconditionError, ValidationError
from .fields import Matrix, rank as matrix_rank, rref
from .polyring import (
    GREVLEX,
    MonomialOrder,
    Poly,
    PolyRing,
    ideal_intersection,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

Vector = tuple  # tuple of Poly, one entry per generator of a free module


@dataclass(frozen=True)
class ModuleOrder:
    """Position-over-term: lower component index dominates, monomials tie-break."""

    ring_order: MonomialOrder = GREVLEX

    def key(self, term):
        pos, mono = term
        return (-pos, self.ring_order.key(mono))


POT = ModuleOrder(GREVLEX)


# -- vector helpers ------------------------------------------------------------


def zero_vector(ring: PolyRing, rank: int) -> Vector:
    z = ring.zero()
    return (z,) * rank


def unit_vector(ring: PolyRing, rank: int, i: int) -> Vector:
    z = ring.zero()
    return tuple(ring.one() if j == i else z for j in range(rank))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(p: Poly, a: Vector) -> Vector:
    return tuple(p * x for x in a)


def vec_is_zero(a: Vector) -> bool:
    return all(x.is_zero() for x in a)


def _lead(v: Vector, order: ModuleOrder):
    """Leading (position, monomial) of a nonzero vector, and its coefficient."""
    for pos, p in enumerate(v):
        if p.terms:
            mono, c = p.leading(order.ring_order)
            return (pos, mono), c
    raise ValidationError("zero vector has no leading term")


def _monic(v: Vector, order: ModuleOrder):
    """(v scaled to lead coefficient 1, its lead term, the scale factor)."""
    lt, lc = _lead(v, order)
    inv = v[0].ring.field.inv(lc)
    return tuple(p.scale(inv) for p in v), lt, inv


# -- module division and Groebner bases -----------------------------------------


def vector_divmod(
    v: Vector, basis: Sequence[Vector], order: ModuleOrder = POT, quotients: bool = True
):
    """v = sum(q_k basis_k) + r with no term of r divisible by a basis lead.

    The first basis vector whose lead divides wins, so the output is
    deterministic in the order given.  At rank 1 this is multivariate
    polynomial division.

    Heap-ordered division, after Monagan and Pearce (J. Symbolic Comput.
    46, 2011): the terms still to divide sit in a dict, and a min-heap on
    (position, negated ring key) yields the largest of them.  Each monomial
    is pushed when it enters the dict; entries whose term was cancelled are
    skipped when popped.  That is sound because each step only adds terms
    below the one just popped.  With quotients=False the quotients are not
    built and the first item returned is None.
    """
    if not v:
        raise ValidationError("zero-rank vector")
    ring = v[0].ring
    p = ring.field.p
    rank = len(v)
    nkey = order.ring_order.neg_key
    # per position, in index order: (k, lead monomial, 1 / lead coefficient)
    leads_at: dict = {}
    tails = []  # each basis vector's other terms, as (pos, mono, coeff)
    for k, b in enumerate(basis):
        (lp, lm), lc = _lead(b, order)  # rejects a zero basis vector
        leads_at.setdefault(lp, []).append((k, lm, None if lc == 1 else ring.field.inv(lc)))
        tails.append(
            [(pos, m, c) for pos, q in enumerate(b) for m, c in q.terms if m != lm or pos != lp]
        )
    quots = [[] for _ in basis] if quotients else None
    rem: list = [[] for _ in range(rank)]
    work: dict = {}
    heap = []
    for pos, q in enumerate(v):
        for mono, c in q.terms:
            work[(pos, mono)] = c
            heap.append((pos, nkey(mono), mono))
    heapify(heap)
    while heap:
        pos, _, mono = heappop(heap)
        c = work.pop((pos, mono), None)
        if c is None:
            continue  # cancelled after it was pushed
        for k, lm, inv in leads_at.get(pos, ()):
            if all(map(le, lm, mono)):
                break
        else:
            rem[pos].append((mono, c))
            continue
        qm = tuple(map(sub, mono, lm))
        qc = c if inv is None else c * inv if p == 0 else c * inv % p
        if quotients:
            quots[k].append((qm, qc))
        for bpos, bmono, bc in tails[k]:
            key = (bpos, tuple(map(add, qm, bmono)))
            cur = work.get(key)
            if cur is None:
                work[key] = -qc * bc if p == 0 else -qc * bc % p
                heappush(heap, (bpos, nkey(key[1]), key[1]))
            else:
                new = cur - qc * bc if p == 0 else (cur - qc * bc) % p
                if new == 0:
                    del work[key]
                else:
                    work[key] = new
    grevlex = order.ring_order.kind == "grevlex"

    def build(terms):
        # popped largest first, so under grevlex already in `Poly` storage order
        return Poly(ring, tuple(terms)) if grevlex else ring.from_terms(terms)

    if quotients:
        quots = [build(q) for q in quots]
    return quots, tuple(build(r) for r in rem)


def vector_normal_form(v: Vector, basis: Sequence[Vector], order: ModuleOrder = POT) -> Vector:
    basis = [b for b in basis if not vec_is_zero(b)]
    if not basis or vec_is_zero(v):
        return v
    return vector_divmod(v, basis, order, quotients=False)[1]


def module_groebner(
    gens: Sequence[Vector], order: ModuleOrder = POT, track: bool = False
):
    """Reduced monic Groebner basis of the submodule generated by gens.

    Pair selection: smallest lcm under the ring order (normal strategy),
    ties by index.  The open pairs sit in a min-heap keyed by (ring key of
    the lcm, pair), pushed when a pair is made; pairs leave it only by being
    selected, so it pops them in exactly that order.  A pair is discarded
    by the chain criterion when a third lead at the same position divides
    the lcm and both side pairs are done, and, at rank 1 only, when its
    leads are coprime.  Ideals run here as rank-1 modules, through
    `polyring.buchberger`.

    With track=True also returns, for each basis vector, its expression as
    a combination of the input generators.
    """
    gens = list(gens)
    nonzero = [(i, g) for i, g in enumerate(gens) if not vec_is_zero(g)]
    if not nonzero:
        return ([], []) if track else []
    ring = nonzero[0][1][0].ring
    rank = len(nonzero[0][1])
    m = len(gens)
    rkey = order.ring_order.key

    basis: list = []
    leads: list = []
    reps: Optional[list] = [] if track else None
    for i, g in nonzero:
        b, lt, inv = _monic(g, order)
        basis.append(b)
        leads.append(lt)
        if track:
            rep = [ring.zero()] * m
            rep[i] = ring.const(inv)
            reps.append(rep)

    pairs: list = []  # heap of (ring key of the lcm, (i, j), lcm)
    done = set()

    def add_pair(i, j):
        if leads[i][0] == leads[j][0]:
            l = mono_lcm(leads[i][1], leads[j][1])
            heappush(pairs, (rkey(l), (i, j), l))

    for j in range(len(basis)):
        for i in range(j):
            add_pair(i, j)

    while pairs:
        _, pair, l = heappop(pairs)
        done.add(pair)
        i, j = pair
        pos = leads[i][0]
        if rank == 1 and l == mono_mul(leads[i][1], leads[j][1]):
            continue  # coprime leading terms
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or leads[k][0] != pos:
                continue
            if mono_divides(leads[k][1], l):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        mi = ring.monomial(mono_div(l, leads[i][1]))
        mj = ring.monomial(mono_div(l, leads[j][1]))
        s = vec_sub(vec_scale(mi, basis[i]), vec_scale(mj, basis[j]))
        if vec_is_zero(s):
            continue
        quots, r = vector_divmod(s, basis, order, quotients=track)
        if vec_is_zero(r):
            continue
        b, lt, inv = _monic(r, order)
        if track:
            s_rep = [mi * a - mj * c for a, c in zip(reps[i], reps[j])]
            reps.append([a.scale(inv) for a in _rep_minus(s_rep, quots, reps)])
        basis.append(b)
        leads.append(lt)
        new = len(basis) - 1
        for k in range(new):
            add_pair(k, new)

    basis, reps = _module_interreduce(basis, leads, reps, order)
    return (basis, reps) if track else basis


def _rep_minus(rep: list, quots: Sequence[Poly], reps: Sequence[list]) -> list:
    """rep - sum(q_k reps_k): the representation after a division step."""
    for q, other in zip(quots, reps):
        if not q.is_zero():
            rep = [a - q * b for a, b in zip(rep, other)]
    return rep


def _module_interreduce(basis: list, leads: list, reps: Optional[list], order: ModuleOrder):
    """The reduced basis of a monic Groebner basis, by descending lead.

    Drops each vector whose lead another lead divides (of equal leads the
    first stays), then reduces each survivor by the others.  Reducing never
    moves a lead, so one pass leaves every vector reduced.  `reps` is None
    when untracked, else it follows the vectors.
    """
    keep = [
        a
        for a, la in enumerate(leads)
        if not any(
            b != a and lb[0] == la[0] and mono_divides(lb[1], la[1]) and (lb[1] != la[1] or b < a)
            for b, lb in enumerate(leads)
        )
    ]
    basis = [basis[a] for a in keep]
    leads = [leads[a] for a in keep]
    if reps is not None:
        reps = [reps[a] for a in keep]
    for i in range(len(basis)):
        quots, basis[i] = vector_divmod(
            basis[i], basis[:i] + basis[i + 1 :], order, quotients=reps is not None
        )
        if reps is not None:
            reps[i] = _rep_minus(reps[i], quots, reps[:i] + reps[i + 1 :])
    idx = sorted(range(len(basis)), key=lambda i: order.key(leads[i]), reverse=True)
    return [basis[i] for i in idx], (None if reps is None else [reps[i] for i in idx])


# -- syzygies --------------------------------------------------------------------


def syzygy_basis(cols: Sequence[Vector], rank: int, ring: Optional[PolyRing] = None) -> list:
    """Generators of {v in A^m : sum v_j cols_j = 0} for columns in A^rank.

    Elimination: augment each column with its own unit tag, run a
    position-over-term basis with the watched components first, and keep
    the members whose watched block vanished.
    """
    cols = list(cols)
    m = len(cols)
    if m == 0:
        return []
    for c in cols:
        if len(c) != rank:
            raise ValidationError("column height does not match rank")
    if rank == 0:
        if ring is None:
            raise ValidationError("rank-0 syzygies need an explicit ring")
        return [unit_vector(ring, m, j) for j in range(m)]
    ring = cols[0][0].ring
    aug = []
    for j, c in enumerate(cols):
        tag = unit_vector(ring, m, j)
        aug.append(tuple(c) + tag)
    gb = module_groebner(aug, POT)
    out = []
    for v in gb:
        if all(p.is_zero() for p in v[:rank]):
            out.append(tuple(v[rank:]))
    return out


# -- presented modules -----------------------------------------------------------


@dataclass(frozen=True)
class PresentedModule:
    """Cokernel of the relation columns inside A^rank."""

    ring: PolyRing
    rank: int
    relations: tuple  # tuple of Vectors of length rank

    def __post_init__(self) -> None:
        for r in self.relations:
            if len(r) != self.rank:
                raise ValidationError("relation length does not match rank")
            for p in r:
                if p.ring != self.ring:
                    raise DomainMismatchError("relation entries from a different ring")

    @staticmethod
    def free(ring: PolyRing, rank: int) -> "PresentedModule":
        return PresentedModule(ring, rank, ())

    @staticmethod
    def cyclic(ring: PolyRing, ideal_gens: Sequence[Poly]) -> "PresentedModule":
        return PresentedModule(ring, 1, tuple((g,) for g in ideal_gens))

    @staticmethod
    def zero(ring: PolyRing) -> "PresentedModule":
        return PresentedModule(ring, 0, ())

    def relation_gb(self) -> list:
        return _relation_gb(self)

    def contains_in_relations(self, v: Vector) -> bool:
        gb = self.relation_gb()
        return vec_is_zero(vector_normal_form(v, gb))

    def reduce(self, v: Vector) -> Vector:
        return vector_normal_form(v, self.relation_gb())

    def is_zero(self) -> bool:
        if self.rank == 0:
            return True
        gb = self.relation_gb()
        return all(
            vec_is_zero(vector_normal_form(unit_vector(self.ring, self.rank, i), gb))
            for i in range(self.rank)
        )


# Relation bases by presentation; past the bound the oldest entry goes first.
_REL_GB_CACHE: dict = {}
_REL_GB_CACHE_MAX = 1024


def _relation_gb(mod: PresentedModule) -> list:
    key = (mod.ring, mod.rank, mod.relations)
    hit = _REL_GB_CACHE.get(key)
    if hit is None:
        hit = module_groebner(list(mod.relations), POT)
        while len(_REL_GB_CACHE) >= _REL_GB_CACHE_MAX:
            del _REL_GB_CACHE[next(iter(_REL_GB_CACHE))]
        _REL_GB_CACHE[key] = hit
    return hit


def annihilator(mod: PresentedModule) -> list:
    """Generators of ann(M) = {f : f M = 0}; [] encodes the zero ideal."""
    if mod.rank == 0 or mod.is_zero():
        return [mod.ring.one()]
    result: Optional[list] = None
    for i in range(mod.rank):
        cols = [unit_vector(mod.ring, mod.rank, i)] + list(mod.relations)
        syz = syzygy_basis(cols, mod.rank)
        ideal_i = [v[0] for v in syz if not v[0].is_zero()]
        if not ideal_i:
            return []
        result = ideal_i if result is None else ideal_intersection(result, ideal_i)
        if not result:
            return []
    return result


def direct_sum(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    if a.ring != b.ring:
        raise DomainMismatchError("direct sum over different rings")
    zr_a = zero_vector(a.ring, a.rank)
    zr_b = zero_vector(b.ring, b.rank)
    rels = tuple(tuple(r) + zr_b for r in a.relations) + tuple(zr_a + tuple(r) for r in b.relations)
    return PresentedModule(a.ring, a.rank + b.rank, rels)


def module_tensor(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    """A-module tensor product; generator (i, j) sits at index i*b.rank + j."""
    if a.ring != b.ring:
        raise DomainMismatchError("tensor over different rings")
    ring = a.ring
    rank = a.rank * b.rank
    rels = []
    for r in a.relations:
        for j in range(b.rank):
            v = [ring.zero()] * rank
            for i in range(a.rank):
                v[i * b.rank + j] = r[i]
            rels.append(tuple(v))
    for i in range(a.rank):
        for s in b.relations:
            v = [ring.zero()] * rank
            for j in range(b.rank):
                v[i * b.rank + j] = s[j]
            rels.append(tuple(v))
    return PresentedModule(ring, rank, tuple(rels))


def submodule_presentation(gens: Sequence[Vector], ambient: PresentedModule):
    """Present the submodule of `ambient` generated by `gens`.

    Returns (module, gens): relations are all coefficient vectors whose
    combination of gens dies in the ambient module.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        return PresentedModule.zero(ambient.ring), []
    cols = gens + list(ambient.relations)
    syz = syzygy_basis(cols, ambient.rank)
    m = len(gens)
    rels = []
    for v in syz:
        head = tuple(v[:m])
        if not vec_is_zero(head):
            rels.append(head)
    return PresentedModule(ambient.ring, m, tuple(rels)), gens


def submodule_lift(v: Vector, gens: Sequence[Vector], ambient: PresentedModule):
    """Coefficients c with v = sum(c_j gens_j) in the ambient module, or None."""
    gens = [tuple(g) for g in gens]
    ring = ambient.ring
    cols = gens + list(ambient.relations)
    basis, reps = module_groebner(cols, POT, track=True)
    if not basis:
        return [ring.zero()] * len(gens) if vec_is_zero(v) else None
    quots, rem = vector_divmod(v, basis, POT)
    if not vec_is_zero(rem):
        return None
    coeffs = [ring.zero()] * len(gens)
    for q, rep in zip(quots, reps):
        if q.is_zero():
            continue
        for j in range(len(gens)):
            coeffs[j] = coeffs[j] + q * rep[j]
    return coeffs


# -- maps of presented modules ----------------------------------------------------


@dataclass(frozen=True)
class ModuleMap:
    """Map of presented modules, given on generators by columns."""

    source: PresentedModule
    target: PresentedModule
    columns: tuple  # source.rank many Vectors of length target.rank

    def __post_init__(self) -> None:
        if len(self.columns) != self.source.rank:
            raise ValidationError("one column per source generator required")
        for c in self.columns:
            if len(c) != self.target.rank:
                raise ValidationError("column height must equal target rank")

    def check_well_defined(self) -> None:
        for r in self.source.relations:
            img = self.apply_vector(r)
            if not self.target.contains_in_relations(img):
                raise ValidationError("map does not send relations into relations")

    def apply_vector(self, v: Vector) -> Vector:
        if self.source.rank == 0:
            return zero_vector(self.target.ring, self.target.rank)
        out = zero_vector(self.target.ring, self.target.rank)
        for coeff, col in zip(v, self.columns):
            if not coeff.is_zero():
                out = vec_add(out, vec_scale(coeff, col))
        return out

    def compose(self, earlier: "ModuleMap") -> "ModuleMap":
        """self after earlier."""
        if earlier.target.rank != self.source.rank or earlier.target.ring != self.source.ring:
            raise DomainMismatchError("maps are not composable")
        cols = tuple(self.apply_vector(c) for c in earlier.columns)
        return ModuleMap(earlier.source, self.target, cols)

    def is_zero_map(self) -> bool:
        return all(self.target.contains_in_relations(c) for c in self.columns)

    @staticmethod
    def zero(source: PresentedModule, target: PresentedModule) -> "ModuleMap":
        z = zero_vector(target.ring, target.rank)
        return ModuleMap(source, target, tuple(z for _ in range(source.rank)))

    @staticmethod
    def identity(mod: PresentedModule) -> "ModuleMap":
        cols = tuple(unit_vector(mod.ring, mod.rank, i) for i in range(mod.rank))
        return ModuleMap(mod, mod, cols)


def map_cokernel(f: ModuleMap) -> PresentedModule:
    rels = tuple(f.target.relations) + tuple(f.columns)
    return PresentedModule(f.target.ring, f.target.rank, rels)


def map_kernel(f: ModuleMap):
    """Kernel of f as (module, lift columns into the source free module)."""
    ring = f.source.ring
    if f.source.rank == 0:
        return PresentedModule.zero(ring), []
    if f.target.rank == 0:
        gens = [unit_vector(ring, f.source.rank, i) for i in range(f.source.rank)]
        return PresentedModule(ring, f.source.rank, f.source.relations), gens
    cols = list(f.columns) + list(f.target.relations)
    syz = syzygy_basis(cols, f.target.rank)
    m = f.source.rank
    raw = [tuple(v[:m]) for v in syz]
    gens = [g for g in raw if not f.source.contains_in_relations(g)]
    # drop duplicates deterministically
    uniq = []
    for g in gens:
        if g not in uniq:
            uniq.append(g)
    if not uniq:
        return PresentedModule.zero(ring), []
    mod, _ = submodule_presentation(uniq, f.source)
    return mod, uniq


def map_is_injective(f: ModuleMap) -> bool:
    k, _ = map_kernel(f)
    return k.is_zero()


def map_is_surjective(f: ModuleMap) -> bool:
    return map_cokernel(f).is_zero()


def map_is_isomorphism(f: ModuleMap) -> bool:
    return map_is_surjective(f) and map_is_injective(f)


# -- complexes --------------------------------------------------------------------


@dataclass(frozen=True)
class PresentedComplex:
    """Bounded cochain complex of presented modules; maps raise degree by 1."""

    ring: PolyRing
    start: int
    modules: tuple  # PresentedModule at degrees start, start+1, ...
    maps: tuple  # ModuleMap between consecutive modules (len = len(modules)-1)

    def __post_init__(self) -> None:
        if self.modules and len(self.maps) != len(self.modules) - 1:
            raise ValidationError("need exactly one map between consecutive terms")
        for k, f in enumerate(self.maps):
            if f.source is not self.modules[k] and f.source != self.modules[k]:
                raise ValidationError(f"map {k} has the wrong source")
            if f.target != self.modules[k + 1]:
                raise ValidationError(f"map {k} has the wrong target")

    def validate(self) -> None:
        for f in self.maps:
            f.check_well_defined()
        for k in range(len(self.maps) - 1):
            comp = self.maps[k + 1].compose(self.maps[k])
            if not comp.is_zero_map():
                raise ValidationError(f"d_{self.start + k + 1} d_{self.start + k} != 0")

    def degrees(self):
        return range(self.start, self.start + len(self.modules))

    def module_at(self, i: int) -> PresentedModule:
        if self.start <= i < self.start + len(self.modules):
            return self.modules[i - self.start]
        return PresentedModule.zero(self.ring)

    def map_at(self, i: int) -> Optional[ModuleMap]:
        k = i - self.start
        if 0 <= k < len(self.maps):
            return self.maps[k]
        return None

    @staticmethod
    def single(mod: PresentedModule, degree: int = 0) -> "PresentedComplex":
        return PresentedComplex(mod.ring, degree, (mod,), ())


def cohomology_with_lifts(c: PresentedComplex, i: int):
    """H^i(c) as (module, kernel generator lifts in the degree-i free)."""
    ring = c.ring
    mod = c.module_at(i)
    if mod.rank == 0:
        return PresentedModule.zero(ring), []
    out = c.map_at(i)
    if out is None or out.target.rank == 0:
        kernel_gens = [unit_vector(ring, mod.rank, k) for k in range(mod.rank)]
    else:
        cols = list(out.columns) + list(out.target.relations)
        syz = syzygy_basis(cols, out.target.rank, ring)
        kernel_gens = []
        for v in syz:
            head = tuple(v[: mod.rank])
            if vec_is_zero(head) or head in kernel_gens:
                continue
            if mod.contains_in_relations(head):
                continue
            kernel_gens.append(head)
    inc = c.map_at(i - 1)
    boundary = list(inc.columns) if inc is not None else []
    denom = boundary + list(mod.relations)
    if not kernel_gens:
        return PresentedModule.zero(ring), []
    cols = kernel_gens + denom
    syz = syzygy_basis(cols, mod.rank)
    m = len(kernel_gens)
    rels = []
    for v in syz:
        head = tuple(v[:m])
        if not vec_is_zero(head):
            rels.append(head)
    h = PresentedModule(ring, m, tuple(rels))
    return h, kernel_gens


def cohomology(c: PresentedComplex, i: int) -> PresentedModule:
    return cohomology_with_lifts(c, i)[0]


# -- graded bookkeeping ------------------------------------------------------------


def mono_weighted_deg(m, var_weights: Optional[Sequence[int]]) -> int:
    if var_weights is None:
        return mono_deg(m)
    return sum(e * w for e, w in zip(m, var_weights))


def poly_weighted_degree(p: Poly, var_weights: Optional[Sequence[int]]) -> Optional[int]:
    """Weighted degree of a weighted-homogeneous polynomial, else None."""
    degs = {mono_weighted_deg(m, var_weights) for m, _ in p.terms}
    if len(degs) != 1:
        return None
    return degs.pop()


def monomials_of_degree(ring: PolyRing, d: int, var_weights: Optional[Sequence[int]] = None) -> list:
    """Exponent tuples of (weighted) total degree d, grevlex-descending."""
    if d < 0:
        return []
    n = ring.nvars
    if n == 0:
        return [()] if d == 0 else []
    if var_weights is None:
        var_weights = (1,) * n
    if any(w < 1 for w in var_weights):
        raise ValidationError("variable weights must be positive")
    out = []

    def rec(prefix, remaining, slot):
        if slot == n - 1:
            if remaining % var_weights[slot] == 0:
                out.append(prefix + (remaining // var_weights[slot],))
            return
        for e in range(remaining // var_weights[slot], -1, -1):
            rec(prefix + (e,), remaining - e * var_weights[slot], slot + 1)

    rec((), d, 0)
    out.sort(key=GREVLEX.neg_key)
    return out


def relation_degree(rel: Vector, weights: Sequence[int],
                    var_weights: Optional[Sequence[int]] = None) -> Optional[int]:
    """Common degree of a homogeneous relation (entry degree + generator
    weight must agree across nonzero entries); None if inhomogeneous."""
    deg = None
    for j, p in enumerate(rel):
        if p.is_zero():
            continue
        pd = poly_weighted_degree(p, var_weights)
        if pd is None:
            return None
        d = pd + weights[j]
        if deg is None:
            deg = d
        elif deg != d:
            return None
    return deg


def module_is_graded(mod: PresentedModule, weights: Sequence[int],
                     var_weights: Optional[Sequence[int]] = None) -> bool:
    if len(weights) != mod.rank:
        raise ValidationError("one weight per generator required")
    return all(relation_degree(r, weights, var_weights) is not None for r in mod.relations)


def graded_basis_pairs(mod: PresentedModule, weights: Sequence[int], d: int,
                       var_weights: Optional[Sequence[int]] = None) -> list:
    """Index pairs (generator, monomial) spanning the degree-d slice of the free cover."""
    pairs = []
    for j in range(mod.rank):
        for m in monomials_of_degree(mod.ring, d - weights[j], var_weights):
            pairs.append((j, m))
    return pairs


def _relation_shifts_matrix(mod, weights, d, pairs, index, var_weights=None):
    ring = mod.ring
    fld = ring.field
    rows = []
    for rel in mod.relations:
        rdeg = relation_degree(rel, weights, var_weights)
        if rdeg is None:
            raise PreconditionError("inhomogeneous relation in graded computation")
        for shift in monomials_of_degree(ring, d - rdeg, var_weights):
            row = [fld.zero()] * len(pairs)
            for j, p in enumerate(rel):
                for mono, c in p.terms:
                    key = (j, mono_mul(shift, mono))
                    row[index[key]] = fld.add(row[index[key]], c)
            rows.append(row)
    return rows


def graded_dim(mod: PresentedModule, weights: Sequence[int], d: int,
               var_weights: Optional[Sequence[int]] = None) -> int:
    """Dimension over the base field of the degree-d piece of the module."""
    pairs = graded_basis_pairs(mod, weights, d, var_weights)
    if not pairs:
        return 0
    index = {p: i for i, p in enumerate(pairs)}
    rows = _relation_shifts_matrix(mod, weights, d, pairs, index, var_weights)
    if not rows:
        return len(pairs)
    m = Matrix.from_rows(mod.ring.field, rows)
    return len(pairs) - matrix_rank(m)


def graded_piece(mod: PresentedModule, weights: Sequence[int], d: int,
                 var_weights: Optional[Sequence[int]] = None):
    """Basis data of the degree-d slice: (pairs, reducer).

    The reducer maps a coefficient vector over `pairs` to canonical
    coordinates modulo the degree-d slice of the relations.
    """
    pairs = graded_basis_pairs(mod, weights, d, var_weights)
    index = {p: i for i, p in enumerate(pairs)}
    fld = mod.ring.field
    rows = _relation_shifts_matrix(mod, weights, d, pairs, index, var_weights)
    if rows:
        mat = Matrix.from_rows(fld, rows)
        red, pivots = rref(mat)
    else:
        red, pivots = None, ()
    pivot_set = set(pivots)
    free_cols = [i for i in range(len(pairs)) if i not in pivot_set]
    free_index = {c: k for k, c in enumerate(free_cols)}

    def reduce_vec(coeffs):
        v = list(coeffs)
        if red is not None:
            for r_idx, pc in enumerate(pivots):
                c = v[pc]
                if fld.is_zero(c):
                    continue
                row = red.row(r_idx)
                v = [fld.sub(a, fld.mul(c, b)) for a, b in zip(v, row)]
        out = [fld.zero()] * len(free_cols)
        for i, c in enumerate(v):
            if not fld.is_zero(c):
                out[free_index[i]] = c
        return out

    return pairs, free_cols, reduce_vec


def vector_to_pair_coeffs(v: Vector, pairs, index=None):
    """Coefficients of a homogeneous vector over the (gen, monomial) pairs."""
    ring = v[0].ring
    fld = ring.field
    if index is None:
        index = {p: i for i, p in enumerate(pairs)}
    out = [fld.zero()] * len(pairs)
    for j, p in enumerate(v):
        for mono, c in p.terms:
            key = (j, mono)
            if key not in index:
                raise ValidationError("vector leaves the expected graded slice")
            out[index[key]] = fld.add(out[index[key]], c)
    return out


# -- finite-dimensional modules ------------------------------------------------------


def standard_pairs(mod: PresentedModule, cap: int = 4096) -> Optional[list]:
    """The (generator, monomial) pairs not under a relation leading term.

    These span coker as a vector space; returns None when the staircase is
    infinite (or larger than cap).  Order: generator index, then grevlex
    ascending, so multiplication matrices are reproducible.
    """
    gb = mod.relation_gb()
    by_pos: dict = {}
    for pos, mono in (_lead(v, POT)[0] for v in gb):
        by_pos.setdefault(pos, []).append(mono)
    ring = mod.ring
    n = ring.nvars
    out = []
    for j in range(mod.rank):
        blockers = by_pos.get(j, [])
        seen = set()
        frontier = [(0,) * n]
        block = []
        while frontier:
            mono = frontier.pop(0)
            if mono in seen:
                continue
            seen.add(mono)
            if any(mono_divides(b, mono) for b in blockers):
                continue
            block.append(mono)
            if len(out) + len(block) > cap:
                return None
            for k in range(n):
                nxt = tuple(e + (1 if t == k else 0) for t, e in enumerate(mono))
                if nxt not in seen:
                    frontier.append(nxt)
        block.sort(key=lambda m: GREVLEX.key(m))
        out.extend((j, m) for m in block)
    return out


def vector_in_standard_coords(mod: PresentedModule, pairs, v: Vector):
    """Coordinates of v's class over the standard pairs."""
    fld = mod.ring.field
    red = mod.reduce(v)
    index = {p: i for i, p in enumerate(pairs)}
    out = [fld.zero()] * len(pairs)
    for j, p in enumerate(red):
        for mono, c in p.terms:
            key = (j, mono)
            if key not in index:
                raise ValidationError("reduced vector contains a non-standard monomial")
            out[index[key]] = c
    return out


def multiplication_matrix(mod: PresentedModule, pairs, f: Poly) -> Matrix:
    """Matrix of multiplication by f on the standard-pairs basis."""
    fld = mod.ring.field
    cols = []
    for j, mono in pairs:
        vec = [mod.ring.zero()] * mod.rank
        vec[j] = mod.ring.monomial(mono) * f
        cols.append(vector_in_standard_coords(mod, pairs, tuple(vec)))
    n = len(pairs)
    ent = tuple(cols[c][r] for r in range(n) for c in range(n))
    return Matrix(fld, n, n, ent)


# -- degree-bounded membership oracle -------------------------------------------------


def bounded_membership(f: Poly, gens: Sequence[Poly], degree_bound: int) -> bool:
    """Linear-algebra ideal membership: is f = sum q_i g_i with
    deg(q_i g_i) <= degree_bound?  Independent of any Groebner machinery.

    Sparse elimination on the Macaulay columns `shift * g`: monomials are
    numbered largest first under grevlex, each column is top-reduced by the
    pivots found so far, and a column whose lead is still new becomes a
    monic pivot.  Then f is a member iff top-reduction drives it to zero.
    """
    ring = f.ring
    fld = ring.field
    p = fld.p
    columns = []
    for g in gens:
        if g.is_zero():
            continue
        for shift_deg in range(degree_bound - g.total_degree() + 1):
            for shift in monomials_of_degree(ring, shift_deg):
                columns.append((ring.monomial(shift) * g).terms)
    if not columns:
        return f.is_zero()
    monos = sorted({m for col in columns for m, _ in col}, key=GREVLEX.neg_key)
    index = {m: i for i, m in enumerate(monos)}
    pivots: dict = {}  # lead index -> the other terms of a monic pivot
    for col in columns:
        v = {index[m]: c for m, c in col}
        lead = _top_reduce(v, pivots, p)
        if lead is not None:
            inv = fld.inv(v.pop(lead))
            pivots[lead] = [(i, c * inv if p == 0 else c * inv % p) for i, c in v.items()]
    target = {}
    for m, c in f.terms:
        if m not in index:
            return False  # no column reaches this monomial
        target[index[m]] = c
    return _top_reduce(target, pivots, p) is None


def _top_reduce(v: dict, pivots: dict, p: int):
    """Subtract pivots from v (index -> coeff) while its lead, the least
    index, is a pivot lead.  Returns the first lead that is not, or None
    once v is zero."""
    while v:
        lead = min(v)
        tail = pivots.get(lead)
        if tail is None:
            return lead
        c = v.pop(lead)
        for i, a in tail:
            new = v.get(i, 0) - c * a
            if p:
                new %= p
            if new:
                v[i] = new
            else:
                v.pop(i, None)
    return None
