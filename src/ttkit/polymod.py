"""Finitely presented modules over polynomial rings.

A module element of A^r is a tuple of r polynomials.  Module Groebner
bases run under position-over-term order (lower component index wins, ties
by a ring order), which doubles as an elimination order on components:
that single device computes syzygies, annihilators, kernels, cokernels and
cohomology of complexes.  `module_groebner` is ttkit's only Groebner
engine: `polyring.buchberger` runs an ideal through it as a rank-1 module.
The chain criterion prunes S-pairs at every rank; the coprime-lead
criterion holds only for ideals, so only rank-1 runs never queue a
coprime pair.

Division is done by reducers: vectors prepared once, with their lead
found, and run through the one division loop that S-vectors,
interreduction, `vector_divmod` and the normal forms of a
`polyring.GroebnerBasis` and of a kept relation basis share.  The loop
has two scalar modes, chosen by the reducer.  A monic reducer takes field
steps in the field's arithmetic.  Over QQ, Groebner runs keep primitive
integer reducers and take pseudo-steps, so only integers occur
(Becker and Weispfenning, Groebner Bases, GTM 141, 1993, section 10.1).

In the loop a term (pos, m) is one int, packed only on the way in and out
(Monagan and Pearce, J. Symbolic Comput. 46, 2011): (pos << shift) +
sum(m_i w_i).  The low n fields, 32 bits each, hold sum(m_i << 32 i), the
top bit of each a guard bit; above them sit the order's fields, most
significant first, [-deg] (grevlex), [-m_0, ..., -m_{n-1}] (lex) or
[-d1, m_{k-1}, ..., m_0, -d2, m_{n-1}, ..., m_k] (block(k)), then pos.
So keys ascend as (pos, neg_key(m)), a product adds keys, and at one
position b divides a iff key(a) - key(b) has no guard bit set, that
difference then being the key of a / b.  An exponent past MAX_EXPONENT =
2^31 - 1 raises.

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
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add
from struct import Struct
from typing import Optional, Sequence

from .errors import DomainMismatchError, PreconditionError, ValidationError
from .fields import Echelon, Matrix
from .polyring import (
    GREVLEX,
    MonomialOrder,
    Poly,
    PolyRing,
    ideal_intersection,
    mono_deg,
    mono_divides,
    mono_lcm,
)

Vector = tuple  # tuple of Poly, one entry per generator of a free module


@dataclass(frozen=True)
class ModuleOrder:
    """Position-over-term: lower component index dominates, monomials tie-break."""

    ring_order: MonomialOrder = GREVLEX


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

MAX_EXPONENT = 2**31 - 1
_FIELD = 32  # bits per exponent field; the top one is the guard bit


class _Packing:
    """The packed keys of A^r under one monomial order, laid out as the
    module docstring says: encoder, position shift, guard mask, decoding."""

    def __init__(self, order: MonomialOrder, nvars: int):
        low = _FIELD * nvars
        width = (nvars * MAX_EXPONENT).bit_length()
        every = tuple(range(nvars))
        if order.kind == "lex":
            fields = [(-1, (i,)) for i in every]
        elif order.kind == "grevlex":
            fields = [(-1, every)]
        else:
            k = min(order.block_size, nvars)
            fields = ([(-1, every[:k])] + [(1, (i,)) for i in reversed(every[:k])]
                      + [(-1, every[k:])] + [(1, (i,)) for i in reversed(every[k:])])
        weights = [1 << (_FIELD * i) for i in every]
        for f, (sign, idx) in enumerate(reversed(fields)):  # least significant first
            for i in idx:
                weights[i] += sign << (low + width * f)
        top = low + width * len(fields)
        # the key of a monomial as one compiled linear form, about three
        # times faster than sum(map(mul, m, weights))
        self.encode = eval("lambda m: " + (" + ".join(
            f"m[{i}] * {w}" for i, w in enumerate(weights)) or "0"))
        self.shift = top + 1
        self.half = 1 << top  # (key + half) >> shift is the position
        self.guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in every)
        self.low = (1 << low) - 1
        self.nbytes = low // 8
        self.exponents = Struct(f"<{nvars}I").unpack
        self.grevlex = order.kind == "grevlex"

    def key(self, pos: int, mono) -> int:
        return (pos << self.shift) + self.encode(mono)

    def decode(self, key: int):
        """The (pos, mono) of a key."""
        return ((key + self.half) >> self.shift,
                self.exponents((key & self.low).to_bytes(self.nbytes, "little")))

    def pack(self, v: Vector) -> dict:
        """The terms of the vector v as {key: c}; an exponent past
        MAX_EXPONENT raises."""
        for q in v:  # the first term has the largest degree, in the `Poly` storage order
            if q.terms and sum(q.terms[0][0]) > MAX_EXPONENT and any(
                    e > MAX_EXPONENT for m, _ in q.terms for e in m):
                raise ValidationError(_PAST_LIMIT)
        encode, shift = self.encode, self.shift
        return {(pos << shift) + encode(m): c for pos, q in enumerate(v) for m, c in q.terms}

    def unpack(self, ring: PolyRing, rank: int, terms) -> Vector:
        """The vector with these [(key, c)] terms, in ascending key order."""
        at: list = [[] for _ in range(rank)]
        half, shift, low, nbytes, expo = self.half, self.shift, self.low, self.nbytes, self.exponents
        for key, c in terms:
            at[(key + half) >> shift].append((expo((key & low).to_bytes(nbytes, "little")), c))
        if self.grevlex:  # ascending keys are descending grevlex, the `Poly` storage order
            return tuple([Poly(ring, tuple(t)) for t in at])
        return tuple([ring.from_terms(t) for t in at])


_packing = lru_cache(maxsize=32)(_Packing)  # (order, nvars) -> the shared _Packing
_PAST_LIMIT = f"an exponent exceeds {MAX_EXPONENT} (2^31 - 1), the largest supported"


class _Reducers:
    """Vectors prepared once for division, and the one division loop.

    Built for a ring order and a ring, whose `_packing` it keeps, from the
    nonzero `vectors`, packed.  A reducer is (lead key, tail [(key, c)],
    lc): the lead, the smallest key of the vector, found once, the other
    terms, and the lead coefficient.  Field reducers are monic (lc == 1).
    Integral reducers, which `module_groebner` uses over QQ, are primitive
    integer vectors with lc > 0.  `leads_at` maps a position to the
    (lead key, index) of the reducers leading there, in index order.
    """

    def __init__(self, order: MonomialOrder, ring: PolyRing, integral: bool = False,
                 vectors: Sequence[Vector] = ()):
        self.order, self.ring, self.integral = order, ring, integral
        self.pk = _packing(order, ring.nvars)
        self.reducers: list = []
        self.leads_at: dict = {}
        for v in vectors:
            self.add(self.pk.pack(v).items())

    def add(self, terms) -> None:
        """Prepare the nonzero vector with these (key, c) terms as the next
        reducer.

        Field reducers divide by the lead coefficient.  Integral ones clear
        the denominators, `numerator * (L // denominator)`, then divide out
        the content, signed so that the lead is positive.
        """
        if not terms:
            raise ValidationError("zero vector has no leading term")
        lead, c = min(terms)
        tail = [t for t in terms if t[0] != lead]
        if self.integral:
            den = lcm(*(b.denominator for _, b in terms))
            lc = c.numerator * (den // c.denominator)
            tail = [(k, b.numerator * (den // b.denominator)) for k, b in tail]
            content = gcd(lc, *(b for _, b in tail))
            if lc < 0:
                content = -content
            lc //= content
            tail = [(k, b // content) for k, b in tail]
        elif c == 1:
            lc = 1
        else:
            mul, inv = self.ring.field.mul, self.ring.field.inv(c)
            lc, tail = 1, [(k, mul(b, inv)) for k, b in tail]
        self.append((lead, tail, lc))

    def append(self, reducer) -> None:
        lead = reducer[0]
        at = self.leads_at.setdefault((lead + self.pk.half) >> self.pk.shift, [])
        at.append((lead, len(self.reducers)))
        self.reducers.append(reducer)

    def divide(self, work: dict, quots: Optional[list] = None):
        """Divide the vector `work` ({key: c}, consumed) by the reducers.

        The first reducer whose lead lk divides the largest pending key k,
        `(k - lk) & guard == 0`, wins.  A new key with a guard bit set
        raises; a pending one was checked when it entered.  A monic reducer
        takes a field step: subtract c times it.  Any other takes a
        pseudo-step: with g = gcd(c, lc), scale every pending term by
        lc / g and subtract c / g times it, so integral reducers keep the
        work in integers.

        Heap-ordered, after Monagan and Pearce: a min-heap of keys yields
        the largest pending term.  Each key is pushed when it enters the
        dict; keys whose term was cancelled are skipped when popped.  That is sound because each step
        only adds terms below the one just popped.

        Returns the remainder as [(key, c)] in ascending key order, and the
        product of the pseudo-step scales: the remainder is that multiple
        of the remainder of field division, each term brought from the
        scale at which it was emitted to the final one.  With `quots`, a
        list per reducer, each step appends its (monomial key, coefficient);
        those are the quotients when every step is a field step.
        """
        pk, p, reducers, leads_at = self.pk, self.ring.field.p, self.reducers, self.leads_at
        half, shift, guard = pk.half, pk.shift, pk.guard
        heap = list(work)
        heapify(heap)
        rem, emitted_at = [], []  # remainder terms, and the scale of each
        scale = 1
        while heap:
            key = heappop(heap)
            c = work.pop(key, None)
            if c is None:
                continue  # cancelled after it was pushed
            for lk, k in leads_at.get((key + half) >> shift, ()):
                if not (key - lk) & guard:
                    break
            else:
                rem.append((key, c))
                emitted_at.append(scale)
                continue
            _, tail, lc = reducers[k]
            if lc != 1:
                g = gcd(c, lc)
                c //= g
                if g != lc:
                    mult = lc // g
                    scale *= mult
                    for w in work:
                        work[w] *= mult
            qk = key - lk
            if quots is not None:
                quots[k].append((qk, c))
            for bk, bc in tail:
                nk = qk + bk
                cur = work.get(nk)
                if cur is None:
                    if nk & guard:
                        raise ValidationError(_PAST_LIMIT)
                    work[nk] = -c * bc if p == 0 else -c * bc % p
                    heappush(heap, nk)
                else:
                    new = cur - c * bc if p == 0 else (cur - c * bc) % p
                    if new == 0:
                        del work[nk]
                    else:
                        work[nk] = new
        if scale != 1:
            rem = [(k, c if s == scale else c * (scale // s))
                   for (k, c), s in zip(rem, emitted_at)]
        return rem, scale

    def s_vector(self, i: int, j: int, l: int) -> dict:
        """(lc_j/g) m_i r_i - (lc_i/g) m_j r_j, g = gcd(lc_i, lc_j), for
        the multiples m_i r_i, m_j r_j leading at the key l, as a work
        dict; their leads cancel."""
        p, guard = self.ring.field.p, self.pk.guard
        li, ti, ci = self.reducers[i]
        lj, tj, cj = self.reducers[j]
        g = gcd(ci, cj)
        a, b = cj // g, ci // g
        mi, mj = l - li, l - lj
        work = {mi + k: a * c for k, c in ti}
        for k, c in tj:
            key = mj + k
            new = work.get(key, 0) - b * c
            if p:
                new %= p
            if new:
                work[key] = new
            else:
                work.pop(key, None)
        # equal keys are equal terms, so only the keys left need the check
        if any(key & guard for key in work):
            raise ValidationError(_PAST_LIMIT)
        return work

    def normal_form(self, v: Vector) -> Vector:
        """The remainder of the nonzero vector v on field division."""
        rem, _ = self.divide(self.pk.pack(v))
        return self.pk.unpack(self.ring, len(v), rem)


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
    returned is None.  Every basis vector must have the length of v.
    """
    if not v:
        raise ValidationError("zero-rank vector")
    ring = v[0].ring
    for k, b in enumerate(basis):
        _check_vector(f"basis[{k}]", b, ring, len(v))
    red = _Reducers(order.ring_order, ring, vectors=basis)
    quots = [[] for _ in basis] if quotients else None
    rem, _ = red.divide(red.pk.pack(v), quots)
    if quotients:  # the reducer of b is b over its lead coefficient
        inverses = [ring.field.inv(min(red.pk.pack(b).items())[1]) for b in basis]
        quots = [red.pk.unpack(ring, 1, [(m, ring.field.mul(c, s)) for m, c in q])[0]
                 for q, s in zip(quots, inverses)]
    return quots, red.pk.unpack(ring, len(v), rem)


def module_groebner(gens: Sequence[Vector], order: ModuleOrder = POT) -> list:
    """Reduced monic Groebner basis of the submodule generated by gens.

    Each vector is prepared once, as a reducer, when it joins the basis;
    S-vectors, their reduction and the final interreduction all run in one
    division loop over those reducers, on packed keys.  Over QQ the run
    keeps every reducer as a primitive integer vector and divides by
    pseudo-steps, so only integers occur in the loop, and makes the basis
    monic on output (`Field.from_fraction`, so an int where the lead
    coefficient divides).  Otherwise the reducers are monic and
    the arithmetic is the field's.  Both give the same basis.

    Pair selection: smallest lcm under the ring order (normal strategy),
    ties by index.  The open pairs sit in a min-heap of (minus the key of
    the lcm at position 0, i, j), pushed when a pair is made; pairs leave
    it only by being selected, so it pops them in exactly that order.  At
    rank 1 only, a pair whose leads are coprime (the lcm's key is the sum
    of theirs) is done when made and never pushed: its S-vector always has
    a standard representation, so the chain criterion may count it as
    treated.  A popped pair is discarded by the chain criterion when a
    third lead at the same position divides the lcm and both side pairs
    are done (Becker and Weispfenning, GTM 141, section 5.5).
    Ideals run here as rank-1 modules, through `polyring.buchberger`, and
    stop at [1] as soon as a constant generator or S-remainder appears.
    Generators from different rings or of different lengths are refused.
    """
    ring = next((p.ring for v in gens for p in v), None)
    if any(p.ring is not ring and p.ring != ring for v in gens for p in v):
        raise DomainMismatchError("generators from different rings")
    if len({len(v) for v in gens}) > 1:
        raise ValidationError("generators of different lengths")
    nonzero = [g for g in gens if not vec_is_zero(g)]
    if not nonzero:
        return []
    integral = ring.field.p == 0
    rank = len(nonzero[0])
    red = _Reducers(order.ring_order, ring, integral, nonzero)
    if rank == 1 and any(r[0] == 0 for r in red.reducers):
        return [(ring.one(),)]  # key 0 is the constant at position 0
    pk, shift, guard = red.pk, red.pk.shift, red.pk.guard
    leads = [pk.decode(r[0]) for r in red.reducers]  # (pos, mono) of each lead

    pairs: list = []  # heap of (-(key of the lcm at position 0), i, j, key of the lcm)
    done = [set() for _ in leads]  # done[i]: the j whose pair with i is done

    def add_pair(i, j):
        (pos, mi), (pj, mj) = leads[i], leads[j]
        if pos == pj:
            l = pk.key(0, mono_lcm(mi, mj))
            if rank == 1 and l == red.reducers[i][0] + red.reducers[j][0]:
                done[i].add(j)  # coprime leads: the S-vector reduces to zero
                done[j].add(i)
            else:
                heappush(pairs, (-l, i, j, l + (pos << shift)))

    for j in range(len(leads)):
        for i in range(j):
            add_pair(i, j)

    while pairs:
        _, i, j, l = heappop(pairs)
        done_i, done_j = done[i], done[j]
        done_i.add(j)
        done_j.add(i)
        for lk, k in red.leads_at[leads[i][0]]:
            if k in done_i and k in done_j and not (l - lk) & guard:
                break  # chain criterion
        else:
            rem, _ = red.divide(red.s_vector(i, j, l))
            if not rem:
                continue
            if rank == 1 and rem[0][0] == 0:
                return [(ring.one(),)]
            red.add(rem)
            leads.append(pk.decode(red.reducers[-1][0]))
            done.append(set())
            new = len(leads) - 1
            for k in range(new):
                add_pair(k, new)

    frac = ring.field.from_fraction
    basis = []
    for lead, tail, lc in _module_interreduce(red):
        if lc != 1:
            tail = [(k, frac(c, lc)) for k, c in tail]
        basis.append(pk.unpack(ring, rank, [(lead, 1)] + tail))
    return basis


def _module_interreduce(red: _Reducers) -> list:
    """The reducers of the reduced basis, by ascending lead key (descending
    lead), from those of a Groebner basis.

    Drops each reducer whose lead another lead at its position divides (of
    equal leads the first stays), then reduces each survivor's tail by all
    of them, those already reduced included, except that a survivor whose
    tail no kept lead divides is kept as it is, already primitive over QQ.
    No term below a lead is divisible by it, and reducing never moves a
    lead, so one pass leaves every vector reduced.
    """
    half, shift, guard = red.pk.half, red.pk.shift, red.pk.guard
    keep = []
    for at in red.leads_at.values():
        for la, a in at:
            for lb, b in at:
                if b != a and not (la - lb) & guard and (lb != la or b < a):
                    break
            else:
                keep.append(a)
    kept = _Reducers(red.order, red.ring, red.integral)
    for a in sorted(keep):
        kept.append(red.reducers[a])
    for i, (lead, tail, lc) in enumerate(kept.reducers):
        if not any(not (k - lk) & guard for k, _ in tail
                   for lk, _ in kept.leads_at.get((k + half) >> shift, ())):
            continue  # a reduced tail stays as it is
        rem, scale = kept.divide(dict(tail))
        lc *= scale
        if lc != 1:  # integral: take the content out again
            g = gcd(lc, *(c for _, c in rem))
            lc //= g
            rem = [(k, c // g) for k, c in rem]
        kept.reducers[i] = (lead, rem, lc)
    return sorted(kept.reducers, key=lambda r: r[0])


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
        return _Reducers(POT.ring_order, self.ring, vectors=self.vectors)

    def normal_form(self, v: Vector) -> Vector:
        if not self.vectors or vec_is_zero(v):
            return v
        return self._reducers.normal_form(v)


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


def weighted_exponents(weights: Sequence[int], d: int) -> list:
    """Exponent tuples alpha with sum alpha_i * weights_i = d, the first
    exponents descending: each slot but the last runs down from the most
    that fits, and the last takes the rest when its weight divides it."""
    if d < 0:
        return []
    n = len(weights)
    if n == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, remaining, slot):
        if slot == n - 1:
            if remaining % weights[slot] == 0:
                out.append(prefix + (remaining // weights[slot],))
            return
        for e in range(remaining // weights[slot], -1, -1):
            rec(prefix + (e,), remaining - e * weights[slot], slot + 1)

    rec((), d, 0)
    return out


def monomials_of_degree(ring: PolyRing, d: int, var_weights: Optional[Sequence[int]] = None) -> list:
    """Exponent tuples of (weighted) total degree d, grevlex-descending."""
    if var_weights is None:
        var_weights = (1,) * ring.nvars
    if any(w < 1 for w in var_weights):
        raise ValidationError("variable weights must be positive")
    return sorted(weighted_exponents(var_weights, d), key=GREVLEX.neg_key)


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
    for v in mod.relation_gb():  # under POT, the first term of the first nonzero entry
        pos = next(i for i, q in enumerate(v) if q.terms)
        by_pos.setdefault(pos, []).append(v[pos].terms[0][0])
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


STANDARD_PAIRS_CAP = 4096  # a staircase with more pairs than this counts as infinite


def standard_pairs(mod: PresentedModule) -> Optional[list]:
    """The (generator, monomial) pairs not under a relation leading term.

    These span coker as a vector space; returns None when the staircase is
    infinite (or has more than `STANDARD_PAIRS_CAP` pairs).  Order:
    generator index, then grevlex ascending, so multiplication matrices
    are reproducible.

    Each staircase is read degree by degree, up to the first degree with no
    standard monomial.  Standard monomials are closed under division, so
    those of degree d + 1 are among the standard ones of degree d times a
    variable, and a staircase costs its size times the number of variables.
    A staircase with no pure power of some variable among its leads is
    infinite.
    """
    leads = _relation_leads(mod)
    n = mod.ring.nvars
    steps = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    out = []
    for j in range(mod.rank):
        blockers = leads.get(j, ())
        if len({i for b in blockers for i in range(n) if sum(b) == b[i]}) < n:
            return None
        block, layer = [], {(0,) * n}
        while layer := [m for m in layer if not any(mono_divides(b, m) for b in blockers)]:
            block += layer
            if len(out) + len(block) > STANDARD_PAIRS_CAP:
                return None
            layer = {tuple(map(add, m, e)) for m in layer for e in steps}
        out.extend((j, m) for m in sorted(block, key=GREVLEX.key))
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
    member iff the echelon reduces it to zero.
    """
    gens = tuple(gens)
    if any(g.ring != f.ring for g in gens):
        raise DomainMismatchError("generators from a different ring than the polynomial")
    index, echelon = _macaulay_echelon(f.ring, gens, degree_bound)
    if any(m not in index for m, _ in f.terms):
        return False  # no column reaches this monomial
    return echelon.reduce((index[m], c) for m, c in f.terms) is None


@lru_cache(maxsize=1)
def _macaulay_echelon(ring: PolyRing, gens: tuple, degree_bound: int):
    """(monomial index, `Echelon`) of the Macaulay columns `shift * g` with
    deg(shift * g) <= degree_bound; callers only read them.

    Monomials are numbered largest first under grevlex, so a column's lead
    is its grevlex-largest monomial.  Only the last echelon is kept,
    because queries on one ideal come one after another.
    """
    columns = []
    for g in gens:
        if g.is_zero():
            continue
        for shift_deg in range(degree_bound - g.total_degree() + 1):
            for shift in monomials_of_degree(ring, shift_deg):
                columns.append([(tuple(map(add, shift, m)), c) for m, c in g.terms])
    monos = sorted({m for col in columns for m, _ in col}, key=GREVLEX.neg_key)
    index = {m: i for i, m in enumerate(monos)}
    echelon = Echelon(ring.field, ([(index[m], c) for m, c in col] for col in columns))
    return index, echelon
