"""Finitely presented modules over polynomial rings.

A module element of A^r is a tuple of r polynomials.  Module Groebner
bases run under position-over-term order (lower component index wins, ties
by a ring order), which doubles as an elimination order on components:
that single device computes syzygies, annihilators, kernels, cokernels and
cohomology of complexes.  `module_groebner` is ttkit's only Groebner
engine: `polyring.buchberger` runs an ideal through it as a rank-1 module.
The chain criterion prunes S-pairs at every rank; the coprime-lead
criterion holds only for ideals, so it is applied at rank 1 alone.

Division is done by reducers: vectors prepared once, with their lead
found, and run through the one division loop that S-vectors,
interreduction, `vector_divmod` and the normal forms of a
`polyring.GroebnerBasis` and of a kept relation basis share.  The loop
has two scalar modes, chosen by the reducer.  A monic reducer takes field
steps in the field's arithmetic.  Over QQ, Groebner runs keep primitive
integer reducers and take pseudo-steps, so only integers occur
(Becker and Weispfenning, Groebner Bases, GTM 141, 1993, section 10.1).

Conventions: a `PresentedModule` is coker of its relation columns; maps of
presented modules are matrices on generators, validated to send relations
into relations.

Graded dimensions and coordinates come from the standard pairs of the
relation basis, the pairs under no lead of `relation_gb()`: by Macaulay's
basis theorem those of degree d are a basis of the degree-d piece, and
normal forms give the coordinates over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from typing import Optional, Sequence

from .errors import DomainMismatchError, PreconditionError, ValidationError
from .fields import Matrix
from .polyring import (
    GREVLEX,
    MonomialOrder,
    Poly,
    PolyRing,
    ideal_intersection,
    mono_deg,
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


def _check_vector(name: str, v: Vector, ring: PolyRing, rank: int) -> None:
    """Refuse v unless it lies in A^rank for this ring A."""
    if len(v) != rank:
        raise ValidationError(f"{name} has length {len(v)}, not the rank {rank}")
    if any(p.ring != ring for p in v):
        raise DomainMismatchError(f"{name} has entries from a different ring")


# -- module division and Groebner bases -----------------------------------------


def _lead_first(v: Vector, order: ModuleOrder) -> list:
    """The (pos, mono, c) terms of a vector, its leading term first."""
    terms = [(pos, m, c) for pos, q in enumerate(v) for m, c in q.terms]
    if terms and order.ring_order.kind != "grevlex":  # else the storage order has it first
        lpos, nkey = terms[0][0], order.ring_order.neg_key
        k = min((nkey(m), i) for i, (pos, m, _) in enumerate(terms) if pos == lpos)[1]
        terms.insert(0, terms.pop(k))
    return terms


class _Reducers:
    """Vectors prepared once for division, and the one division loop.

    A reducer is (lead (pos, mono), tail [(pos, mono, c)], lc): the lead,
    found once, the other terms, and the lead coefficient.  Field reducers
    are monic (lc == 1).  Integral reducers, which `module_groebner` uses
    over QQ, are primitive integer vectors with lc > 0.  `leads_at` maps a
    position to the (lead monomial, index) of the reducers leading there,
    in index order.
    """

    def __init__(self, order: ModuleOrder, field, integral: bool):
        self.nkey = order.ring_order.neg_key
        self.field = field
        self.integral = integral
        self.reducers: list = []
        self.leads_at: dict = {}

    def add(self, terms: list):
        """Prepare the nonzero vector with these (pos, mono, c) terms, its
        leading one first, as the next reducer; return the scalar the
        reducer is that vector times.

        Field reducers divide by the lead coefficient.  Integral ones clear
        the denominators, `numerator * (L // denominator)`, then divide out
        the content, signed so that the lead is positive.
        """
        if not terms:
            raise ValidationError("zero vector has no leading term")
        pos, mono, c = terms[0]
        if self.integral:
            coeffs = [c for _, _, c in terms]
            den = lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
            content = gcd(*coeffs)
            if coeffs[0] < 0:
                content = -content
            coeffs = [c // content for c in coeffs]
            lc, scale = coeffs[0], Fraction(den, content)
            tail = [(pos, m, c) for (pos, m, _), c in zip(terms[1:], coeffs[1:])]
        elif c == 1:
            lc, scale, tail = 1, c, terms[1:]
        else:
            mul, scale = self.field.mul, self.field.inv(c)
            lc, tail = 1, [(pos, m, mul(c, scale)) for pos, m, c in terms[1:]]
        self.append(((pos, mono), tail, lc))
        return scale

    def append(self, reducer) -> None:
        (pos, mono), _, _ = reducer
        self.leads_at.setdefault(pos, []).append((mono, len(self.reducers)))
        self.reducers.append(reducer)

    def divide(self, work: dict, quots: Optional[list] = None):
        """Divide the vector `work` ({(pos, mono): c}, consumed) by the reducers.

        The first reducer whose lead divides the largest pending term wins.
        A monic reducer takes a field step: subtract c times it.  Any other
        takes a pseudo-step: with g = gcd(c, lc), scale every pending term
        by lc / g and subtract c / g times it, so integral reducers keep the
        work in integers.

        Heap-ordered, after Monagan and Pearce (J. Symbolic Comput. 46,
        2011): a min-heap on (position, negated ring key) yields the largest
        pending term.  Each monomial is pushed when it enters the dict;
        entries whose term was cancelled are skipped when popped.  That is
        sound because each step only adds terms below the one just popped.

        Returns the remainder as (pos, mono, c) in descending order, and the
        product of the pseudo-step scales: the remainder is that multiple of
        the remainder of field division, each term brought from the scale at
        which it was emitted to the final one.  With `quots`, a list per
        reducer, each step appends its (monomial, coefficient); those are
        the quotients when every step is a field step.
        """
        nkey, p, reducers, leads_at = self.nkey, self.field.p, self.reducers, self.leads_at
        heap = [(pos, nkey(mono), mono) for pos, mono in work]
        heapify(heap)
        rem, emitted_at = [], []  # remainder terms, and the scale of each
        scale = 1
        while heap:
            pos, _, mono = heappop(heap)
            c = work.pop((pos, mono), None)
            if c is None:
                continue  # cancelled after it was pushed
            for lm, k in leads_at.get(pos, ()):
                if all(map(le, lm, mono)):
                    break
            else:
                rem.append((pos, mono, c))
                emitted_at.append(scale)
                continue
            _, tail, lc = reducers[k]
            if lc != 1:
                g = gcd(c, lc)
                c //= g
                if g != lc:
                    mult = lc // g
                    scale *= mult
                    for key in work:
                        work[key] *= mult
            qm = tuple(map(sub, mono, lm))
            if quots is not None:
                quots[k].append((qm, c))
            for bpos, bmono, bc in tail:
                key = (bpos, tuple(map(add, qm, bmono)))
                cur = work.get(key)
                if cur is None:
                    work[key] = -c * bc if p == 0 else -c * bc % p
                    heappush(heap, (bpos, nkey(key[1]), key[1]))
                else:
                    new = cur - c * bc if p == 0 else (cur - c * bc) % p
                    if new == 0:
                        del work[key]
                    else:
                        work[key] = new
        if scale != 1:
            rem = [(pos, m, c if s == scale else c * (scale // s))
                   for (pos, m, c), s in zip(rem, emitted_at)]
        return rem, scale

    def s_vector(self, i: int, j: int, l) -> dict:
        """(lc_j/g) m_i r_i - (lc_i/g) m_j r_j, g = gcd(lc_i, lc_j), for
        the multiples m_i r_i, m_j r_j leading at the monomial l, as a work
        dict; their leads cancel."""
        p = self.field.p
        (_, li), ti, ci = self.reducers[i]
        (_, lj), tj, cj = self.reducers[j]
        g = gcd(ci, cj)
        a, b = cj // g, ci // g
        mi = tuple(map(sub, l, li))
        mj = tuple(map(sub, l, lj))
        work = {(pos, tuple(map(add, mi, m))): a * c for pos, m, c in ti}
        for pos, m, c in tj:
            key = (pos, tuple(map(add, mj, m)))
            new = work.get(key, 0) - b * c
            if p:
                new %= p
            if new:
                work[key] = new
            else:
                work.pop(key, None)
        return work


def _polys(ring: PolyRing, rank: int, terms, grevlex: bool) -> Vector:
    """The vector with these (pos, mono, c) terms, each position's terms
    distinct and in descending order."""
    at: list = [[] for _ in range(rank)]
    for pos, m, c in terms:
        at[pos].append((m, c))
    if grevlex:  # descending is already the `Poly` storage order
        return tuple(Poly(ring, tuple(t)) for t in at)
    return tuple(ring.from_terms(t) for t in at)


def _poly(ring: PolyRing, terms: list, grevlex: bool) -> Poly:
    # descending under grevlex is already the `Poly` storage order
    return Poly(ring, tuple(terms)) if grevlex else ring.from_terms(terms)


def vector_divmod(
    v: Vector, basis: Sequence[Vector], order: ModuleOrder = POT, quotients: bool = True
):
    """v = sum(q_k basis_k) + r with no term of r divisible by a basis lead.

    The first basis vector whose lead divides wins, so the output is
    deterministic in the order given.  At rank 1 this is multivariate
    polynomial division.  Each basis vector is prepared as a monic reducer
    and the division runs in the loop that `module_groebner` uses, in field
    arithmetic, so remainder and quotients are exact.  With
    quotients=False the quotients are not built and the first item
    returned is None.
    """
    if not v:
        raise ValidationError("zero-rank vector")
    ring = v[0].ring
    red = _Reducers(order, ring.field, integral=False)
    scales = [red.add(_lead_first(b, order)) for b in basis]
    quots = [[] for _ in basis] if quotients else None
    rem, _ = red.divide({(pos, m): c for pos, q in enumerate(v) for m, c in q.terms}, quots)
    grevlex = order.ring_order.kind == "grevlex"
    if quotients:
        mul = ring.field.mul
        quots = [_poly(ring, [(m, mul(c, s)) for m, c in q], grevlex)
                 for q, s in zip(quots, scales)]
    return quots, _polys(ring, len(v), rem, grevlex)


def module_groebner(gens: Sequence[Vector], order: ModuleOrder = POT) -> list:
    """Reduced monic Groebner basis of the submodule generated by gens.

    Each vector is prepared once, as a reducer, when it joins the basis;
    S-vectors, their reduction and the final interreduction all run in one
    division loop over those reducers.  Over QQ the run keeps every
    reducer as a primitive integer vector and divides by pseudo-steps, so
    only integers occur in the loop, and makes the basis monic in
    `Fraction`s on output.  Otherwise the reducers are monic and
    the arithmetic is the field's.  Both give the same basis.

    Pair selection: smallest lcm under the ring order (normal strategy),
    ties by index.  The open pairs sit in a min-heap keyed by (ring key of
    the lcm, pair), pushed when a pair is made; pairs leave it only by being
    selected, so it pops them in exactly that order.  A pair is discarded
    by the chain criterion when a third lead at the same position divides
    the lcm and both side pairs are done, and, at rank 1 only, when its
    leads are coprime.  Ideals run here as rank-1 modules, through
    `polyring.buchberger`.
    """
    nonzero = [g for g in gens if not vec_is_zero(g)]
    if not nonzero:
        return []
    ring = nonzero[0][0].ring
    integral = ring.field.p == 0
    rank = len(nonzero[0])
    rkey = order.ring_order.key
    grevlex = order.ring_order.kind == "grevlex"

    red = _Reducers(order, ring.field, integral)
    for g in nonzero:
        red.add(_lead_first(g, order))
    leads = [r[0] for r in red.reducers]

    pairs: list = []  # heap of (ring key of the lcm, (i, j), lcm)
    done = set()

    def add_pair(i, j):
        if leads[i][0] == leads[j][0]:
            l = mono_lcm(leads[i][1], leads[j][1])
            heappush(pairs, (rkey(l), (i, j), l))

    for j in range(len(leads)):
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
        for lk, k in red.leads_at[pos]:
            if k != i and k != j and all(map(le, lk, l)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        rem, _ = red.divide(red.s_vector(i, j, l))
        if not rem:
            continue
        red.add(rem)
        leads.append(red.reducers[-1][0])
        new = len(leads) - 1
        for k in range(new):
            add_pair(k, new)

    one = ring.field.one()
    basis = []
    for (lpos, lmono), tail, lc in _module_interreduce(red, order):
        if integral:
            tail = [(pos, mono, Fraction(c, lc)) for pos, mono, c in tail]
        basis.append(_polys(ring, rank, [(lpos, lmono, one)] + tail, grevlex))
    return basis


def _module_interreduce(red: _Reducers, order: ModuleOrder) -> list:
    """The reducers of the reduced basis, by descending lead, from those of
    a Groebner basis.

    Drops each reducer whose lead another lead divides (of equal leads the
    first stays), then reduces each survivor's tail by all of them, those
    already reduced included.  No term below a lead is divisible by it, and
    reducing never moves a lead, so one pass leaves every vector reduced.
    """
    leads = [r[0] for r in red.reducers]
    keep = [
        a
        for a, la in enumerate(leads)
        if not any(
            b != a and lb[0] == la[0] and mono_divides(lb[1], la[1]) and (lb[1] != la[1] or b < a)
            for b, lb in enumerate(leads)
        )
    ]
    kept = _Reducers(order, red.field, red.integral)
    for a in keep:
        kept.append(red.reducers[a])
    for i, (lead, tail, lc) in enumerate(kept.reducers):
        rem, scale = kept.divide({(pos, m): c for pos, m, c in tail})
        lc *= scale
        if lc != 1:  # integral: take the content out again
            g = gcd(lc, *(c for _, _, c in rem))
            lc //= g
            rem = [(pos, m, c // g) for pos, m, c in rem]
        kept.reducers[i] = (lead, rem, lc)
    return sorted(kept.reducers, key=lambda r: order.key(r[0]), reverse=True)


# -- presented modules -----------------------------------------------------------


@dataclass(frozen=True)
class PresentedModule:
    """Cokernel of the relation columns inside A^rank."""

    ring: PolyRing
    rank: int
    relations: tuple  # tuple of Vectors of length rank

    def __post_init__(self) -> None:
        for k, r in enumerate(self.relations):
            _check_vector(f"relation {k}", r, self.ring, self.rank)

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
        return _relation_basis(self).vectors

    def contains_in_relations(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def reduce(self, v: Vector) -> Vector:
        """The normal form of v in A^rank modulo the relation basis."""
        _check_vector("vector", v, self.ring, self.rank)
        return _relation_basis(self).normal_form(v)

    def is_zero(self) -> bool:
        if self.rank == 0:
            return True
        rb = _relation_basis(self)
        return all(
            vec_is_zero(rb.normal_form(unit_vector(self.ring, self.rank, i)))
            for i in range(self.rank)
        )


class _RelationBasis:
    """The reduced POT basis of a presentation's relations and, prepared on
    the first normal form and kept beside it, its monic reducers: every
    later normal form divides by them, exactly as `vector_divmod` would by
    a freshly prepared basis."""

    def __init__(self, ring: PolyRing, vectors: list):
        self.ring = ring
        self.vectors = vectors

    @cached_property
    def _reducers(self) -> _Reducers:
        red = _Reducers(POT, self.ring.field, integral=False)
        for b in self.vectors:
            red.add(_lead_first(b, POT))
        return red

    def normal_form(self, v: Vector) -> Vector:
        if not self.vectors or vec_is_zero(v):
            return v
        rem, _ = self._reducers.divide(
            {(pos, m): c for pos, q in enumerate(v) for m, c in q.terms})
        return _polys(self.ring, len(v), rem, grevlex=True)


# Relation bases by presentation; past the bound the oldest entry goes first.
_REL_GB_CACHE: dict = {}
_REL_GB_CACHE_MAX = 1024


def _relation_basis(mod: PresentedModule) -> _RelationBasis:
    key = (mod.ring, mod.rank, mod.relations)
    hit = _REL_GB_CACHE.get(key)
    if hit is None:
        hit = _RelationBasis(mod.ring, module_groebner(list(mod.relations), POT))
        while len(_REL_GB_CACHE) >= _REL_GB_CACHE_MAX:
            del _REL_GB_CACHE[next(iter(_REL_GB_CACHE))]
        _REL_GB_CACHE[key] = hit
    return hit


def _augmented(gens: list, ambient: PresentedModule) -> _RelationBasis:
    """The kept relation basis of the augmented module P in A^(rank + m)
    generated by (gens_j, e_j) and by (r_k, 0) for the ambient relations r_k.

    Under position-over-term order the first block dominates, so P's basis
    is an elimination basis: its members whose first block vanishes are a
    Groebner basis of the relative syzygies, and a normal form modulo P
    decides and computes lifts (Greuel and Pfister, A Singular Introduction
    to Commutative Algebra, `syz` and `lift`).
    """
    ring, rank = ambient.ring, ambient.rank
    for j, g in enumerate(gens):
        _check_vector(f"gens[{j}]", g, ring, rank)
    m = len(gens)
    tail = zero_vector(ring, m)
    rels = tuple(g + unit_vector(ring, m, j) for j, g in enumerate(gens))
    rels += tuple(tuple(r) + tail for r in ambient.relations)
    return _relation_basis(PresentedModule(ring, rank + m, rels))


def syzygy_basis(gens: Sequence[Vector], ambient: PresentedModule) -> list:
    """Reduced Groebner basis of the relative syzygies of gens in ambient,
    {c in A^m : sum(c_j gens_j) lies in the ambient relations}: the tails of
    the members of the augmented basis whose first block vanished."""
    rank = ambient.rank
    return [v[rank:] for v in _augmented([tuple(g) for g in gens], ambient).vectors
            if vec_is_zero(v[:rank])]


def annihilator(mod: PresentedModule) -> list:
    """Generators of ann(M) = {f : f M = 0}; [] encodes the zero ideal."""
    if mod.rank == 0 or mod.is_zero():
        return [mod.ring.one()]
    result: Optional[list] = None
    for i in range(mod.rank):
        ideal_i = [v[0] for v in syzygy_basis([unit_vector(mod.ring, mod.rank, i)], mod)]
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

    Returns (module, gens): the relations are the relative syzygies of gens,
    the coefficient vectors whose combination of gens dies in `ambient`.
    """
    gens = [tuple(g) for g in gens]
    return PresentedModule(ambient.ring, len(gens), tuple(syzygy_basis(gens, ambient))), gens


def submodule_lift(v: Vector, gens: Sequence[Vector], ambient: PresentedModule):
    """Coefficients c with v = sum(c_j gens_j) in the ambient module, or None.

    (v, -c) lies in the augmented module P of `_augmented` exactly when
    v = sum(c_j gens_j) modulo the ambient relations, so v lifts iff the
    normal form w of (v, 0) modulo P has w[:rank] = 0, and then
    c = -w[rank:].
    """
    ring, rank = ambient.ring, ambient.rank
    _check_vector("v", v, ring, rank)
    gens = [tuple(g) for g in gens]
    w = _augmented(gens, ambient).normal_form(tuple(v) + zero_vector(ring, len(gens)))
    if not vec_is_zero(w[:rank]):
        return None
    return [-c for c in w[rank:]]


# -- maps of presented modules ----------------------------------------------------


@dataclass(frozen=True)
class ModuleMap:
    """Map of presented modules, given on generators by columns."""

    source: PresentedModule
    target: PresentedModule
    columns: tuple  # source.rank many Vectors of length target.rank

    def __post_init__(self) -> None:
        if self.source.ring != self.target.ring:
            raise DomainMismatchError("source and target over different rings")
        if len(self.columns) != self.source.rank:
            raise ValidationError("one column per source generator required")
        for j, c in enumerate(self.columns):
            _check_vector(f"column {j}", c, self.target.ring, self.target.rank)

    def check_well_defined(self) -> None:
        for r in self.source.relations:
            img = self.apply_vector(r)
            if not self.target.contains_in_relations(img):
                raise ValidationError("map does not send relations into relations")

    def apply_vector(self, v: Vector) -> Vector:
        _check_vector("vector", v, self.source.ring, self.source.rank)
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


def _kernel_gens(f: ModuleMap) -> list:
    """Generators of ker f in the free module on the source's generators:
    the relative syzygies of f's columns in the target that are not source
    relations, or every unit vector when the target has rank 0."""
    if f.target.rank == 0:
        return [unit_vector(f.source.ring, f.source.rank, i) for i in range(f.source.rank)]
    return [g for g in syzygy_basis(f.columns, f.target)
            if not f.source.contains_in_relations(g)]


def map_kernel(f: ModuleMap):
    """Kernel of f as (module, lift columns into the source free module)."""
    gens = _kernel_gens(f)
    if f.target.rank == 0:
        return PresentedModule(f.source.ring, f.source.rank, f.source.relations), gens
    return submodule_presentation(gens, f.source)


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


def cohomology_with_lifts(c: PresentedComplex, i: int):
    """H^i(c) as (module, kernel generator lifts in the degree-i free)."""
    ring = c.ring
    mod = c.module_at(i)
    if mod.rank == 0:
        return PresentedModule.zero(ring), []
    out = c.map_at(i) or ModuleMap.zero(mod, PresentedModule.zero(ring))
    kernel_gens = _kernel_gens(out)
    inc = c.map_at(i - 1)
    boundary = inc.columns if inc is not None else ()
    ambient = PresentedModule(ring, mod.rank, boundary + mod.relations)  # term mod boundaries
    return submodule_presentation(kernel_gens, ambient)


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


def _relation_leads(mod: PresentedModule) -> dict:
    """Position -> the lead monomials of the relation basis there."""
    by_pos: dict = {}
    for pos, mono, _ in (_lead_first(v, POT)[0] for v in mod.relation_gb()):
        by_pos.setdefault(pos, []).append(mono)
    return by_pos


def graded_standard_pairs(mod: PresentedModule, weights: Sequence[int], d: int,
                          var_weights: Optional[Sequence[int]] = None) -> list:
    """The standard pairs of degree d: the (generator j, monomial m) with
    weights[j] + deg(m) == d that no relation lead at position j divides,
    by generator, then grevlex-descending.

    For homogeneous relations they are a basis of the degree-d piece
    (Macaulay's basis theorem; Eisenbud, Commutative Algebra, GTM 150,
    Thm 15.3), and `vector_in_standard_coords` gives the coordinates of a
    degree-d vector over them.  Any relation that is inhomogeneous or zero
    is refused once the slice is nonempty.
    """
    pairs = [(j, m) for j in range(mod.rank)
             for m in monomials_of_degree(mod.ring, d - weights[j], var_weights)]
    if not pairs or not mod.relations:
        return pairs
    if any(relation_degree(r, weights, var_weights) is None for r in mod.relations):
        raise PreconditionError("inhomogeneous relation in graded computation")
    leads = _relation_leads(mod)
    return [(j, m) for j, m in pairs
            if not any(mono_divides(b, m) for b in leads.get(j, ()))]


def graded_dim(mod: PresentedModule, weights: Sequence[int], d: int,
               var_weights: Optional[Sequence[int]] = None) -> int:
    """Dimension over the base field of the degree-d piece of the module."""
    return len(graded_standard_pairs(mod, weights, d, var_weights))


# -- finite-dimensional modules ------------------------------------------------------


def standard_pairs(mod: PresentedModule, cap: int = 4096) -> Optional[list]:
    """The (generator, monomial) pairs not under a relation leading term.

    These span coker as a vector space; returns None when the staircase is
    infinite (or larger than cap).  Order: generator index, then grevlex
    ascending, so multiplication matrices are reproducible.
    """
    by_pos = _relation_leads(mod)
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

    The Macaulay columns are eliminated by `_macaulay_echelon`, which keeps
    the echelon of the last (ring, gens, degree_bound) it was asked for, so
    consecutive queries on one ideal and bound eliminate once.  Then f is a
    member iff top-reduction by the pivots drives it to zero.
    """
    gens = tuple(gens)
    if any(g.ring != f.ring for g in gens):
        raise DomainMismatchError("generators from a different ring than the polynomial")
    index, pivots = _macaulay_echelon(f.ring, gens, degree_bound)
    target = {}
    for m, c in f.terms:
        if m not in index:
            return False  # no column reaches this monomial
        target[index[m]] = c
    return _top_reduce(target, pivots, f.ring.field.p) is None


@lru_cache(maxsize=1)
def _macaulay_echelon(ring: PolyRing, gens: tuple, degree_bound: int):
    """(monomial index, pivots) of the Macaulay columns `shift * g` with
    deg(shift * g) <= degree_bound; callers only read them.

    Sparse elimination: monomials are numbered largest first under
    grevlex, each column is top-reduced by the pivots found so far, and a
    column whose lead is still new becomes a monic pivot.  Only the last
    echelon is kept, because queries on one ideal come one after another.
    """
    fld = ring.field
    p = fld.p
    columns = []
    for g in gens:
        if g.is_zero():
            continue
        for shift_deg in range(degree_bound - g.total_degree() + 1):
            for shift in monomials_of_degree(ring, shift_deg):
                columns.append((ring.monomial(shift) * g).terms)
    monos = sorted({m for col in columns for m, _ in col}, key=GREVLEX.neg_key)
    index = {m: i for i, m in enumerate(monos)}
    pivots: dict = {}  # lead index -> the other terms of a monic pivot
    for col in columns:
        v = {index[m]: c for m, c in col}
        lead = _top_reduce(v, pivots, p)
        if lead is not None:
            inv = fld.inv(v.pop(lead))
            pivots[lead] = [(i, c * inv if p == 0 else c * inv % p) for i, c in v.items()]
    return index, pivots


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
