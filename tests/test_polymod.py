import random
import time
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttkit import polymod
from ttkit.errors import DomainMismatchError, PreconditionError, ValidationError
from ttkit.fields import GF, QQ, Matrix, rref, solve
from ttkit.polyring import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    PolyRing,
    block_order,
    buchberger,
    mono_div,
    mono_divides,
    mono_lcm,
    radical_equal,
)
from ttkit.polymod import (
    ModuleMap,
    ModuleOrder,
    POT,
    PresentedComplex,
    PresentedModule,
    annihilator,
    bounded_membership,
    cohomology,
    direct_sum,
    graded_dim,
    graded_standard_pairs,
    map_cokernel,
    map_is_isomorphism,
    map_kernel,
    module_groebner,
    module_tensor,
    monomials_of_degree,
    multiplication_matrix,
    relation_degree,
    standard_pairs,
    submodule_lift,
    submodule_presentation,
    syzygy_basis,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vector_divmod,
    vector_in_standard_coords,
    weighted_exponents,
    zero_vector,
)

def mono_mul(a, b):
    """The product of two exponent tuples."""
    return tuple(x + y for x, y in zip(a, b))


def leading(p, order):
    """The (monomial, coeff) of the nonzero p largest under the ring order."""
    return max(p.terms, key=lambda t: order.key(t[0]))


def pot_key(order, term):
    """The position-over-term key of a term (pos, mono) under a
    `ModuleOrder`: the lower position wins, then the ring order."""
    pos, mono = term
    return (-pos, order.ring_order.key(mono))


RXY = PolyRing(QQ, ("x", "y"))
RX = PolyRing(QQ, ("x",))


def vector_normal_form(v, basis, order=POT):
    """The per-call path, the oracle of the relation reducers a presented
    module keeps: divide by freshly prepared reducers of the nonzero basis
    vectors."""
    basis = [b for b in basis if not vec_is_zero(b)]
    if not basis or vec_is_zero(v):
        return v
    return vector_divmod(v, basis, order, quotients=False)[1]


def P(t, ring=RXY):
    return ring.parse_poly(t)


def V(*texts, ring=RXY):
    return tuple(ring.parse_poly(t) for t in texts)


def vec_combination(cols, coeffs):
    """sum_k coeffs[k] * cols[k]: what a syzygy kills and a lift rebuilds."""
    out = zero_vector(cols[0][0].ring, len(cols[0]))
    for c, col in zip(coeffs, cols):
        out = vec_add(out, vec_scale(c, col))
    return out


# -- syzygies ------------------------------------------------------------------


def test_syzygy_of_x_y_is_koszul():
    syz = syzygy_basis([V("x"), V("y")], PresentedModule.free(RXY, 1))
    assert len(syz) == 1
    v = syz[0]
    # up to sign and scale this must be (y, -x)
    assert vec_is_zero(vec_combination([V("x"), V("y")], v))
    assert radical_equal([v[0]], [P("y")]) and radical_equal([v[1]], [P("x")])


def test_syzygy_of_identity_columns_empty():
    cols = [unit_vector(RXY, 2, 0), unit_vector(RXY, 2, 1)]
    assert syzygy_basis(cols, PresentedModule.free(RXY, 2)) == []


def test_syzygy_of_zero_columns_is_everything():
    cols = [zero_vector(RXY, 1), zero_vector(RXY, 1)]
    syz = syzygy_basis(cols, PresentedModule.free(RXY, 1))
    gb = module_groebner(syz)
    for j in range(2):
        assert vec_is_zero(vector_normal_form(unit_vector(RXY, 2, j), gb))


def _bounded_kernel_vectors(cols, rank, ring, degree_bound):
    """Oracle: all kernel vectors with entries of degree <= degree_bound,
    found by exact linear algebra over the monomial basis."""
    from ttkit.fields import Matrix, kernel_basis

    monos = []
    for d in range(degree_bound + 1):
        monos.extend(monomials_of_degree(ring, d))
    unknowns = [(j, m) for j in range(len(cols)) for m in monos]
    eq_monos = []
    for d in range(2 * degree_bound + 3):
        eq_monos.extend(monomials_of_degree(ring, d))
    rows = []
    for pos in range(rank):
        for em in eq_monos:
            row = []
            for (j, m) in unknowns:
                prod = dict((ring.monomial(m) * cols[j][pos]).terms)
                row.append(prod.get(em, ring.field.zero()))
            rows.append(row)
    mat = Matrix.from_rows(ring.field, rows)
    kb = kernel_basis(mat)
    out = []
    for c in range(kb.cols):
        vec = [ring.zero()] * len(cols)
        for i, (j, m) in enumerate(unknowns):
            coeff = kb.at(i, c)
            if not ring.field.is_zero(coeff):
                vec[j] = vec[j] + ring.monomial(m, coeff)
        out.append(tuple(vec))
    return out


def test_syzygy_completeness_against_linear_algebra_oracle():
    cols = [V("x^2"), V("x*y"), V("y^2")]
    syz = syzygy_basis(cols, PresentedModule.free(RXY, 1))
    for v in syz:
        assert vec_is_zero(vec_combination(cols, v))
    gb = module_groebner(syz)
    for v in _bounded_kernel_vectors(cols, 1, RXY, 2):
        assert vec_is_zero(vector_normal_form(v, gb))


def test_koszul_three_variable_syzygies():
    r = PolyRing(QQ, ("x", "y", "z"))
    cols = [(r.var("x"),), (r.var("y"),), (r.var("z"),)]
    syz = syzygy_basis(cols, PresentedModule.free(r, 1))
    for v in syz:
        assert vec_is_zero(vec_combination(cols, v))
    gb = module_groebner(syz)
    koszul = [
        (r.var("y"), -r.var("x"), r.zero()),
        (r.var("z"), r.zero(), -r.var("x")),
        (r.zero(), r.var("z"), -r.var("y")),
    ]
    for v in koszul:
        assert vec_is_zero(vector_normal_form(v, gb))


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_syzygy_property_random_monomial_columns(a, b):
    cols = [V(f"x^{a}*y"), V(f"x*y^{b}")]
    for v in syzygy_basis(cols, PresentedModule.free(RXY, 1)):
        assert vec_is_zero(vec_combination(cols, v))


# -- division ------------------------------------------------------------------


def test_vector_divmod_reconstructs():
    basis = [V("x", "y"), V("0", "x^2")]
    v = V("x^2 + x*y", "x*y + y^2 + x^2*y")
    quots, rem = vector_divmod(v, basis)
    acc = rem
    for q, b in zip(quots, basis):
        acc = tuple(p + q * bp for p, bp in zip(acc, b))
    assert acc == v


def lead_of(vec, order):
    """(position, monomial) of the first nonzero entry's largest term."""
    for pos, p in enumerate(vec):
        if p.terms:
            return pos, max((m for m, _ in p.terms), key=order.ring_order.key)
    return None


def max_term_division(v, basis, order):
    """Reference division: find the leading term by a full `max` each step."""
    ring = v[0].ring
    fld = ring.field
    work = {(pos, m): c for pos, p in enumerate(v) for m, c in p.terms}
    leads = [lead_of(b, order) for b in basis]
    quots = [[] for _ in basis]
    rem = [[] for _ in v]
    while work:
        pos, mono = max(work, key=lambda term: pot_key(order, term))
        c = work.pop((pos, mono))
        hit = next(
            (k for k, (lp, lm) in enumerate(leads) if lp == pos and mono_divides(lm, mono)), None
        )
        if hit is None:
            rem[pos].append((mono, c))
            continue
        lp, lm = leads[hit]
        qm = mono_div(mono, lm)
        qc = fld.mul(c, fld.inv(dict(basis[hit][lp].terms)[lm]))
        quots[hit].append((qm, qc))
        for bpos, bp in enumerate(basis[hit]):
            for bm, bc in bp.terms:
                key = (bpos, mono_mul(qm, bm))
                if key == (pos, mono):
                    continue
                new = fld.sub(work.get(key, fld.zero()), fld.mul(qc, bc))
                if fld.is_zero(new):
                    work.pop(key, None)
                else:
                    work[key] = new
    return [ring.from_terms(q) for q in quots], tuple(ring.from_terms(r) for r in rem)


DIV_RINGS = [PolyRing(QQ, ("x", "y", "z")), PolyRing(GF(7), ("x", "y", "z"))]
DIV_ORDERS = [ModuleOrder(GREVLEX), ModuleOrder(LEX), ModuleOrder(block_order(1))]


@st.composite
def division_cases(draw):
    ring = draw(st.sampled_from(DIV_RINGS))
    order = draw(st.sampled_from(DIV_ORDERS))
    rank = draw(st.integers(min_value=1, max_value=3))
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)
    term = st.tuples(mono, st.integers(min_value=-3, max_value=3))

    def poly(max_terms):
        terms = draw(st.lists(term, max_size=max_terms))
        return ring.from_terms((m, ring.field.from_int(c)) for m, c in terms)

    def vector(max_terms):
        return tuple(poly(max_terms) for _ in range(rank))

    basis = [b for b in (vector(3) for _ in range(draw(st.integers(1, 4)))) if lead_of(b, order)]
    return vector(6), basis, order


@given(division_cases())
@settings(max_examples=150, deadline=None)
def test_vector_divmod_is_a_division_with_reduced_remainder(case):
    v, basis, order = case
    quots, rem = vector_divmod(v, basis, order)
    acc = rem
    for q, b in zip(quots, basis):
        acc = tuple(p + q * bp for p, bp in zip(acc, b))
    assert acc == v
    leads = [lead_of(b, order) for b in basis]
    for pos, p in enumerate(rem):
        for m, _ in p.terms:
            assert not any(lp == pos and mono_divides(lm, m) for lp, lm in leads)
    none, rem_only = vector_divmod(v, basis, order, quotients=False)
    assert none is None and rem_only == rem
    assert (quots, rem) == max_term_division(v, basis, order)


# -- module Groebner bases ---------------------------------------------------------

RF7 = PolyRing(GF(7), ("x", "y"))


def test_module_groebner_refuses_generators_from_another_ring():
    """Unchecked, (x,) over QQ and (y,) over GF(7) gave a basis.  The one
    check covers a zero entry and a mixed vector, and serves `buchberger`."""
    for gens in ([V("x"), V("y", ring=RF7)], [V("x"), (RF7.zero(),)],
                 [(P("x"), P("y", RF7))]):
        with pytest.raises(DomainMismatchError, match="different rings"):
            module_groebner(gens)
    with pytest.raises(DomainMismatchError, match="different rings"):
        buchberger([P("x"), P("y", RF7)])


def test_module_groebner_refuses_generators_of_different_lengths():
    """Unchecked, [(x, y), (y,)] read (y,) as (y, 0), and [(x,), (x, y)]
    raised IndexError."""
    for gens in ([V("x", "y"), V("y")], [V("x"), V("x", "y")], [V("x", "y"), (RXY.zero(),)]):
        with pytest.raises(ValidationError, match="different lengths"):
            module_groebner(gens)


def test_vector_divmod_refuses_basis_vectors_of_another_length():
    """Unchecked, the first two raised IndexError and the third read (y,)
    as (y, 0)."""
    for v, basis in ((V("x"), [V("x", "y")]), (V("x + y"), [V("y", "x")]),
                     (V("x", "y"), [V("y")])):
        with pytest.raises(ValidationError, match=r"basis\[0\] has length"):
            vector_divmod(v, basis)


def test_module_groebner_coprime_criterion_only_at_rank_one():
    # The leads x*e0 and y*e0 are coprime, yet their S-vector (0, y - x)
    # does not reduce to zero: the coprime shortcut is wrong above rank 1.
    basis = module_groebner([V("x", "1"), V("y", "1")])
    assert V("0", "x - y") in basis


# -- reference engine: Fraction arithmetic, basis prepared on every call ------------
#
# The engine before reducers were prepared once per basis vector and QQ
# bases were computed on primitive integer vectors.  Kept as the oracle.


def ref_lead(v, order):
    for pos, p in enumerate(v):
        if p.terms:
            mono, c = leading(p, order.ring_order)
            return (pos, mono), c
    raise ValueError("zero vector has no leading term")


def ref_monic(v, order):
    lt, lc = ref_lead(v, order)
    inv = v[0].ring.field.inv(lc)
    return tuple(p.scale(inv) for p in v), lt, inv


def ref_vector_divmod(v, basis, order, quotients=True):
    ring = v[0].ring
    p = ring.field.p
    nkey = order.ring_order.neg_key
    leads_at = {}
    tails = []
    for k, b in enumerate(basis):
        (lp, lm), lc = ref_lead(b, order)
        leads_at.setdefault(lp, []).append((k, lm, None if lc == 1 else ring.field.inv(lc)))
        tails.append(
            [(pos, m, c) for pos, q in enumerate(b) for m, c in q.terms if m != lm or pos != lp]
        )
    quots = [[] for _ in basis] if quotients else None
    rem = [[] for _ in v]
    work = {}
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
            continue
        for k, lm, inv in leads_at.get(pos, ()):
            if mono_divides(lm, mono):
                break
        else:
            rem[pos].append((mono, c))
            continue
        qm = mono_div(mono, lm)
        qc = c if inv is None else c * inv if p == 0 else c * inv % p
        if quotients:
            quots[k].append((qm, qc))
        for bpos, bmono, bc in tails[k]:
            key = (bpos, mono_mul(qm, bmono))
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
    if quotients:
        quots = [ring.from_terms(q) for q in quots]
    return quots, tuple(ring.from_terms(r) for r in rem)


def ref_rep_minus(rep, quots, reps):
    for q, other in zip(quots, reps):
        if not q.is_zero():
            rep = [a - q * b for a, b in zip(rep, other)]
    return rep


def ref_module_interreduce(basis, leads, reps, order):
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
        quots, basis[i] = ref_vector_divmod(
            basis[i], basis[:i] + basis[i + 1:], order, quotients=reps is not None
        )
        if reps is not None:
            reps[i] = ref_rep_minus(reps[i], quots, reps[:i] + reps[i + 1:])
    idx = sorted(range(len(basis)), key=lambda i: pot_key(order, leads[i]), reverse=True)
    return [basis[i] for i in idx], (None if reps is None else [reps[i] for i in idx])


def ref_module_groebner(gens, order, track=False):
    gens = list(gens)
    nonzero = [(i, g) for i, g in enumerate(gens) if not vec_is_zero(g)]
    if not nonzero:
        return ([], []) if track else []
    ring = nonzero[0][1][0].ring
    rank = len(nonzero[0][1])
    rkey = order.ring_order.key
    basis, leads, reps = [], [], [] if track else None
    for i, g in nonzero:
        b, lt, inv = ref_monic(g, order)
        basis.append(b)
        leads.append(lt)
        if track:
            rep = [ring.zero()] * len(gens)
            rep[i] = ring.const(inv)
            reps.append(rep)
    pairs, done = [], set()

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
            continue
        if any(
            k not in (i, j) and leads[k][0] == pos and mono_divides(leads[k][1], l)
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        mi = ring.monomial(mono_div(l, leads[i][1]))
        mj = ring.monomial(mono_div(l, leads[j][1]))
        s = vec_sub(vec_scale(mi, basis[i]), vec_scale(mj, basis[j]))
        if vec_is_zero(s):
            continue
        quots, r = ref_vector_divmod(s, basis, order, quotients=track)
        if vec_is_zero(r):
            continue
        b, lt, inv = ref_monic(r, order)
        if track:
            s_rep = [mi * a - mj * c for a, c in zip(reps[i], reps[j])]
            reps.append([a.scale(inv) for a in ref_rep_minus(s_rep, quots, reps)])
        basis.append(b)
        leads.append(lt)
        new = len(basis) - 1
        for k in range(new):
            add_pair(k, new)
    basis, reps = ref_module_interreduce(basis, leads, reps, order)
    return (basis, reps) if track else basis


# Two variables: under LEX, random inputs in three already grow bases that
# take minutes.
ENGINE_RINGS = [PolyRing(QQ, ("x", "y")), PolyRing(GF(7), ("x", "y")), PolyRing(GF(32003), ("x", "y"))]


@st.composite
def engine_cases(draw):
    """Generators at ranks 1-3 under GREVLEX, LEX and block_order(1), over
    QQ (integers up to 10^6 and fractions), GF(7) and GF(32003)."""
    ring = draw(st.sampled_from(ENGINE_RINGS))
    order = draw(st.sampled_from(DIV_ORDERS))
    rank = draw(st.integers(min_value=1, max_value=3))
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)
    big = st.integers(min_value=-10**6, max_value=10**6).filter(bool)
    if ring.field.is_rational:
        coeff = st.one_of(
            st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction),
            big.map(Fraction),
            st.builds(Fraction, big, st.integers(min_value=1, max_value=10**3)),
        )
    else:
        coeff = big.map(ring.field.from_int)

    def vector(max_terms):
        return tuple(
            ring.from_terms(draw(st.lists(st.tuples(mono, coeff), max_size=max_terms)))
            for _ in range(rank)
        )

    gens = [vector(3) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return ring, order, gens, vector(4)


def integral_remainder(v, divisors, order):
    """Pseudo-division of v, its denominators cleared, by integral
    reducers: the remainder as {(pos, mono): c} over that scale."""
    ring = v[0].ring
    reducers = polymod._Reducers(order.ring_order, ring, integral=True)
    pk = reducers.pk
    for d in divisors:
        reducers.add(pk.pack(d).items())
    den = lcm(1, *(c.denominator for q in v for _, c in q.terms))
    work = {k: c.numerator * (den // c.denominator) for k, c in pk.pack(v).items()}
    rem, scale = reducers.divide(work)
    assert scale > 0 and all(type(c) is int for _, c in rem)
    return {pk.decode(k): Fraction(c, scale * den) for k, c in rem}


RQ2 = ENGINE_RINGS[0]


# (y^2 + 6x + y) by 4x + 1: y^2 is emitted, then 6x takes a pseudo-step
# with gcd(6, 4) = 2, which scales the pending y and the terms after it by 2.
@example((RQ2, ModuleOrder(GREVLEX), [V("4*x + 1", ring=RQ2)], V("y^2 + 6*x + y", ring=RQ2)))
@given(engine_cases())
@settings(max_examples=200, deadline=None)
def test_division_matches_the_reference_division(case):
    ring, order, gens, v = case
    divisors = [g for g in gens if not vec_is_zero(g)]
    if not divisors:
        return
    quots, rem = vector_divmod(v, divisors, order)
    assert (quots, rem) == ref_vector_divmod(v, divisors, order)
    if ring.field.is_rational:
        assert integral_remainder(v, divisors, order) == {
            (pos, m): c for pos, q in enumerate(rem) for m, c in q.terms}


@given(engine_cases())
@settings(max_examples=200, deadline=None)
def test_engine_matches_the_reference_engine(case):
    ring, order, gens, v = case
    basis = module_groebner(gens, order)
    assert basis == ref_module_groebner(gens, order)
    if basis:
        assert vector_divmod(v, basis, order) == ref_vector_divmod(v, basis, order)


CRITERION_RINGS = ENGINE_RINGS[:2]  # QQ and GF(7), in x and y


def small_coeffs(ring):
    """Nonzero coefficients: small fractions over QQ, units of GF(7)."""
    if ring.field.is_rational:
        return st.builds(Fraction, st.integers(min_value=-9, max_value=9).filter(bool),
                         st.integers(min_value=1, max_value=4))
    return st.integers(min_value=1, max_value=6).map(ring.field.from_int)


@st.composite
def coprime_lead_cases(draw):
    """Rank-1 generators over QQ or GF(7) under GREVLEX, LEX and
    block_order(1): x^a and y^b plus tails below them, so their pair is
    coprime, then up to two generators drawn freely."""
    ring = draw(st.sampled_from(CRITERION_RINGS))
    order = draw(st.sampled_from(DIV_ORDERS))
    key, coeff = order.ring_order.key, small_coeffs(ring)
    mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * 2)
    monos = [(a, b) for a in range(4) for b in range(4)]
    gens = []
    for lead in ((draw(st.integers(min_value=1, max_value=3)), 0),
                 (0, draw(st.integers(min_value=1, max_value=3)))):
        below = st.tuples(st.sampled_from([m for m in monos if key(m) < key(lead)]), coeff)
        gens.append((ring.from_terms([(lead, draw(coeff))] + draw(st.lists(below, max_size=3))),))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        gens.append((ring.from_terms(draw(st.lists(st.tuples(mono, coeff), max_size=3))),))
    return order, gens


@given(coprime_lead_cases())
@settings(max_examples=100, deadline=None)
def test_engine_matches_the_reference_on_coprime_leads(case):
    """Coprime pairs are done from the start and never queued; the chain
    criterion then reads them as done, and the basis stays the reduced one."""
    order, gens = case
    assert module_groebner(gens, order) == ref_module_groebner(gens, order)


@st.composite
def unreduced_bases(draw):
    """A reduced basis over QQ or GF(7) at rank 1 or 2, and the same basis
    with multiples c*q*b_j of smaller members added to some members b_i,
    always to the first when there are two or more: q*lead(b_j) lies below
    lead(b_i), so the sum is a Groebner basis of the same module, with the
    same leads, whose altered tails are reducible and whose last member is
    unaltered."""
    ring = draw(st.sampled_from(CRITERION_RINGS))
    order = draw(st.sampled_from(DIV_ORDERS))
    rank = draw(st.integers(min_value=1, max_value=2))
    coeff = small_coeffs(ring)
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)
    gens = [tuple(ring.from_terms(draw(st.lists(st.tuples(mono, coeff), max_size=3)))
                  for _ in range(rank)) for _ in range(draw(st.integers(min_value=2, max_value=3)))]
    basis = ref_module_groebner(gens, order)
    leads = [lead_of(v, order) for v in basis]
    unreduced = []
    for i, v in enumerate(basis):
        for j in range(i + 1, len(basis)):
            q = (0, 0) if (i, j) == (0, len(basis) - 1) else draw(
                st.sampled_from([None, (0, 0), (1, 0), (0, 1)]))
            pos, m = leads[j]
            if q is not None and pot_key(order, (pos, mono_mul(q, m))) < pot_key(order, leads[i]):
                v = vec_add(v, vec_scale(ring.monomial(q, draw(coeff)), basis[j]))
        unreduced.append(v)
    return order, basis, unreduced


@given(unreduced_bases())
@settings(max_examples=100, deadline=None)
def test_engine_reduces_an_unreduced_groebner_basis(case):
    """Interreduction divides the tails that a lead divides and keeps the
    reduced ones as they are."""
    order, basis, unreduced = case
    assert module_groebner(unreduced, order) == basis == ref_module_groebner(unreduced, order)


@example((RQ2, ModuleOrder(LEX), [V("-6*x - 4*y^2", "3/5*y", ring=RQ2)], None))
@given(engine_cases())
@settings(max_examples=80, deadline=None)
def test_integral_reducers_are_primitive_with_a_positive_lead(case):
    ring, order, gens, _ = case
    reducers = polymod._Reducers(order.ring_order, ring, integral=ring.field.is_rational)
    pk = reducers.pk
    for g in gens:
        if vec_is_zero(g):
            continue
        terms = pk.pack(g)
        reducers.add(terms.items())
        lead, tail, lc = reducers.reducers[-1]
        assert pk.decode(lead) == lead_of(g, order)
        # the reducer is g times the scalar that takes g's lead to lc
        scale = ring.field.mul(lc, ring.field.inv(terms[lead]))
        got = [(lead, lc)] + tail
        assert len(got) == len(terms)
        assert {pk.decode(k): c for k, c in got} == {
            (pos, m): ring.field.mul(c, scale) for pos, q in enumerate(g) for m, c in q.terms}
        if ring.field.is_rational:
            coeffs = [c for _, c in got]
            assert all(type(c) is int for c in coeffs) and lc > 0 and gcd(*coeffs) == 1
        else:
            assert lc == 1


CYCLIC4 = ["a + b + c + d", "a*b + b*c + c*d + d*a", "a*b*c + b*c*d + c*d*a + d*a*b",
           "a*b*c*d - 1"]
# Selecting its pairs by degree alone, not by the full lcm, costs 1 more
# reducer and 4 more S-vectors.
MIXED = ["8*y^2*z + 4*x^2*y + 2*y^2 + 3*x^2", "6*x^2*z + x*z^2 + 5*z^3 + 5*y^2",
         "7*z^3 + 7*y*z^2 + 9*y*z + 6*y^2", "x*z + 4*y^2"]


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_groebner_work_counts_are_pinned(monkeypatch, field):
    """Work count: the reducers prepared, the S-vectors formed and the
    divisions run by `module_groebner` on cyclic-4 under grevlex and lex,
    on a mixed-degree ideal in three variables and on a rank-3 module.  A
    change to the pair order or to either criterion moves them.  Marking
    coprime pairs done when they are made took the mixed ideal's
    S-vectors from 16 to 15; keeping reduced tails undivided, with that,
    took the divisions from 18, 26, 21 and 19 to 11, 22, 19 and 15."""
    counts = {}
    for name in ("add", "s_vector", "divide"):
        def counted(*args, _name=name, _fn=getattr(polymod._Reducers, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(polymod._Reducers, name, counted)
    ring = PolyRing.parse(f"{field}[a,b,c,d]")
    cyclic4 = [(ring.parse_poly(t),) for t in CYCLIC4]
    space = PolyRing.parse(f"{field}[x,y,z]")
    mixed = [(space.parse_poly(t),) for t in MIXED]
    plane = PolyRing.parse(f"{field}[x,y]")
    module = [tuple(plane.parse_poly(t) for t in v) for v in (
        ("x^2 - y", "x", "0"), ("x*y", "y^2 - 1", "x"), ("y^3", "x*y", "y - 1"), ("x", "y", "x*y"))]
    got = []
    for gens, order in ((cyclic4, ModuleOrder(GREVLEX)), (cyclic4, ModuleOrder(LEX)),
                        (mixed, POT), (module, POT)):
        counts.clear()
        basis = module_groebner(gens, order)
        got.append((len(basis), counts["add"], counts["s_vector"], counts["divide"]))
    assert got == [(7, 10, 11, 11), (6, 14, 20, 22), (5, 11, 15, 19), (7, 14, 12, 15)]


def count_reducer_work(monkeypatch):
    """Count the `_Reducers.add`, `s_vector` and `divide` calls into a dict."""
    counts = {"add": 0, "s_vector": 0, "divide": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(polymod._Reducers, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(polymod._Reducers, name, counted)
    return counts


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_the_unit_ideal_stops_at_one(monkeypatch, field):
    """A rank-1 run returns [1] once a constant generator or S-remainder
    appears; a constant lead at position 0 of a rank-2 module is no unit."""
    ring = PolyRing.parse(f"{field}[x,y,z]")
    counts = count_reducer_work(monkeypatch)
    one = [(ring.one(),)]
    for texts in (["x*y - 1", "y*z - 1", "x*z - 1", "x + y + z"],
                  ["x^2 + y^2 + z^2 - 1", "x - y", "y - z", "x*y*z - 2"],
                  ["x^2 - y", "y^2 - z", "z^2 - x", "x*y*z - 2"]):
        gens = [(ring.parse_poly(t),) for t in texts]
        assert module_groebner(gens) == one == ref_module_groebner(gens, POT)
        assert buchberger([g for (g,) in gens], LEX) == [ring.one()]
    counts.update(add=0, s_vector=0, divide=0)
    module_groebner([(ring.parse_poly(t),) for t in ("x*y - 1", "y*z - 1", "x*z - 1", "x + y + z")])
    # the engine without the exit: 8 reducers, 6 S-vectors, 7 divisions
    assert counts == {"add": 7, "s_vector": 5, "divide": 5}
    counts.update(add=0, s_vector=0, divide=0)
    gens = [(ring.parse_poly(t),) for t in ("x^2 - y", "3", "y*z + x")]
    assert module_groebner(gens) == one
    assert counts == {"add": 3, "s_vector": 0, "divide": 0}

    plane = PolyRing.parse(f"{field}[x,y]")
    for vectors in ([("1", "x"), ("y", "0")], [("x", "y"), ("x - 1", "0")], [("x", "1"), ("y", "x")]):
        gens = [tuple(plane.parse_poly(t) for t in v) for v in vectors]
        basis = module_groebner(gens)
        assert basis == ref_module_groebner(gens, POT)
        assert any(not v[1].is_zero() for v in basis)


# -- packed keys ------------------------------------------------------------------


@st.composite
def packing_cases(draw):
    """Two terms (pos, mono) in n = 1-4 variables under lex, grevlex or
    block(1..n-1), exponents small, near the limit or anywhere up to it;
    the second is often the first with one unit moved between variables,
    so that only the order's last tie-breaks tell them apart."""
    n = draw(st.integers(min_value=1, max_value=4))
    order = draw(st.sampled_from([LEX, GREVLEX] + [block_order(k) for k in range(1, n)]))
    top = polymod.MAX_EXPONENT
    expo = st.one_of(st.integers(min_value=0, max_value=3),
                     st.integers(min_value=top - 3, max_value=top),
                     st.integers(min_value=0, max_value=top))
    term = st.tuples(st.integers(min_value=0, max_value=3), st.tuples(*[expo] * n))
    pa, a = draw(term)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    moved = list(a)
    if moved[i] > 0 and moved[j] < top:
        moved[i] -= 1
        moved[j] += 1
    return order, n, (pa, a), draw(st.one_of(term, st.just((pa, tuple(moved)))))


@given(packing_cases())
@settings(max_examples=400, deadline=None)
def test_packed_keys_agree_with_the_order_products_and_divisibility(case):
    order, n, (pa, a), (pb, b) = case
    pk = polymod._packing(order, n)
    ka, kb = pk.key(pa, a), pk.key(pb, b)
    assert (ka < kb) == ((pa, order.neg_key(a)) < (pb, order.neg_key(b)))
    assert (ka == kb) == ((pa, a) == (pb, b))
    assert pk.decode(ka) == (pa, a) and pk.decode(kb) == (pb, b)
    prod = mono_mul(a, b)
    if max(prod) <= polymod.MAX_EXPONENT:
        assert ka + kb == pk.key(pa + pb, prod)
        assert not (ka + kb) & pk.guard
    else:
        assert (ka + kb) & pk.guard  # the overflow shows in a guard bit
    divides = not (ka - pk.key(pa, b)) & pk.guard
    assert divides == mono_divides(b, a)
    if divides:
        assert pk.decode(ka - pk.key(pa, b)) == (0, mono_div(a, b))


def test_exponents_past_the_limit_raise():
    """Packed keys hold exponents up to 2^31 - 1: past that the input, a
    division step or an S-vector raises instead of answering wrongly."""
    ring = PolyRing(QQ, ("x", "y"))
    top = polymod.MAX_EXPONENT
    assert top == 2**31 - 1
    with pytest.raises(ValidationError, match=str(top)):
        GroebnerBasis.of([ring.parse_poly(f"x^{top + 1} - y")])
    assert GroebnerBasis.of([ring.parse_poly(f"x^{top} - y")]).polys == (
        ring.parse_poly(f"x^{top} - y"),)
    x2, d = ring.parse_poly("x^2"), ring.parse_poly(f"x - y^{2**30}")
    with pytest.raises(ValidationError, match=str(top)):  # x^2 -> x*y^(2^30) -> y^(2^31)
        vector_divmod((x2,), [(d,)], ModuleOrder(LEX))
    with pytest.raises(ValidationError, match=str(top)):
        GroebnerBasis(ring, LEX, (d,)).normal_form(x2)
    # the S-vector of x*y - y^top and y^2 holds y * y^top
    with pytest.raises(ValidationError, match=str(top)):
        buchberger([ring.parse_poly(f"x*y - y^{top}"), ring.parse_poly("y^2")], LEX)


# -- presented modules ------------------------------------------------------------


def test_relation_gb_cache_evicts_oldest_past_its_bound(monkeypatch):
    monkeypatch.setattr(polymod, "_REL_GB_CACHE", {})
    monkeypatch.setattr(polymod, "_REL_GB_CACHE_MAX", 3)
    mods = [PresentedModule.cyclic(RXY, [P(f"x^{k} - y"), P("y^2")]) for k in range(1, 6)]
    for mod in mods:
        mod.relation_gb()
    keys = [(m.ring, m.rank, m.relations) for m in mods]
    assert list(polymod._REL_GB_CACHE) == keys[2:]  # the two oldest are gone
    for mod in mods:
        assert mod.relation_gb() == module_groebner(list(mod.relations))
    assert len(polymod._REL_GB_CACHE) == 3


@st.composite
def presented_cases(draw):
    """A presentation over QQ or GF(7) in x, y (possibly without relations,
    or with a zero relation) and vectors to reduce by it."""
    ring = draw(st.sampled_from([RXY, RF7]))
    rank = draw(st.integers(min_value=1, max_value=2))
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)
    term = st.tuples(mono, st.integers(min_value=-3, max_value=3))

    def vector(max_terms):
        return tuple(
            ring.from_terms((m, ring.field.from_int(c))
                            for m, c in draw(st.lists(term, max_size=max_terms)))
            for _ in range(rank))

    rels = tuple(vector(3) for _ in range(draw(st.integers(min_value=0, max_value=3))))
    vs = [vector(5) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return PresentedModule(ring, rank, rels), vs


@given(presented_cases())
@settings(max_examples=100, deadline=None)
def test_kept_relation_reducers_give_the_per_call_normal_form(case):
    """`reduce`, `contains_in_relations` and `is_zero` divide by the reducers
    kept beside the relation basis; the oracle prepares them afresh on every
    call.  Every vector goes through twice, the second time on reducers
    that are already kept."""
    mod, vs = case
    gb = mod.relation_gb()

    def fresh(v):
        return vector_divmod(v, gb, POT, quotients=False)[1]

    for v in vs + vs:
        got, want = mod.reduce(v), fresh(v)
        assert [p.terms for p in got] == [p.terms for p in want]
        assert [type(c) for p in got for _, c in p.terms] == \
            [type(c) for p in want for _, c in p.terms]
        assert mod.contains_in_relations(v) == vec_is_zero(want)
    units = [unit_vector(mod.ring, mod.rank, i) for i in range(mod.rank)]
    assert mod.is_zero() == all(vec_is_zero(fresh(e)) for e in units)


def test_relation_reducers_are_prepared_once_per_presentation(monkeypatch):
    """Work count: 10 `contains_in_relations` calls, then `reduce` and
    `is_zero`, on one presentation, and the same calls on an equal one built
    separately, prepare each vector of the relation basis once.  Per-call
    preparation would multiply the count."""
    monkeypatch.setattr(polymod, "_REL_GB_CACHE", {})
    rels = (V("x^2 - y", "x"), V("x*y", "y^2 - 1"), V("y^3", "x*y"))
    probes = [V("x^2 - y", "x"), V("x", "0"), V("x^3 - x*y", "x^2"), V("0", "y^2 - 1"),
              V("x*y^3", "x^2*y^2"), V("1", "1"), V("y^3 + x*y", "x*y + y^2 - 1"),
              V("0", "0"), V("x^2*y", "y^3"), V("y", "x")]
    gb = PresentedModule(RXY, 2, rels).relation_gb()  # the Groebner run prepares its own
    prepared = []
    add = polymod._Reducers.add
    monkeypatch.setattr(polymod._Reducers, "add",
                        lambda red, terms: prepared.append(terms) or add(red, terms))
    for mod in (PresentedModule(RXY, 2, rels), PresentedModule(RXY, 2, rels)):
        verdicts = [mod.contains_in_relations(v) for v in probes]
        assert verdicts[0] and verdicts[2] and verdicts[7] and not verdicts[1]
        mod.reduce(probes[4])
        assert not mod.is_zero()
    assert len(prepared) == len(gb) > 0
    assert len(polymod._REL_GB_CACHE) == 1


RXYZ = PolyRing(QQ, ("x", "y", "z"))


@pytest.mark.parametrize("method", ["contains_in_relations", "reduce"])
def test_relation_normal_forms_refuse_foreign_vectors(method):
    """In Q[x,y]/(x), x*z from Q[x,y,z], 3x over GF(7), the empty vector
    and (x, y) are refused, not reduced."""
    ask = getattr(PresentedModule.cyclic(RXY, [P("x")]), method)
    with pytest.raises(DomainMismatchError):
        ask(V("x*z", ring=RXYZ))
    with pytest.raises(DomainMismatchError):
        ask(V("3*x", ring=RF7))
    with pytest.raises(ValidationError, match="length 0"):
        ask(())
    with pytest.raises(ValidationError, match="length 2"):
        ask(V("x", "y"))


def test_annihilator_cyclic():
    m = PresentedModule.cyclic(RXY, [P("x*y - 1")])
    assert radical_equal(annihilator(m), [P("x*y - 1")])


def test_annihilator_free_is_zero_ideal():
    assert annihilator(PresentedModule.free(RXY, 2)) == []


def test_annihilator_of_direct_sum_is_intersection():
    m = direct_sum(PresentedModule.cyclic(RXY, [P("x")]), PresentedModule.cyclic(RXY, [P("y")]))
    assert radical_equal(annihilator(m), [P("x*y")])


def test_annihilator_zero_module_is_unit():
    z = PresentedModule.cyclic(RXY, [RXY.one()])
    ann = annihilator(z)
    assert ann and ann[0].is_constant()


def test_tensor_of_cyclic_modules_adds_ideals():
    a = PresentedModule.cyclic(RXY, [P("x")])
    b = PresentedModule.cyclic(RXY, [P("y")])
    t = module_tensor(a, b)
    assert radical_equal(annihilator(t), [P("x"), P("y")])


def test_support_multiplicativity_seed_cases():
    # ann(A/I tensor A/J) has the same radical as I + J
    cases = [
        ([P("x^2")], [P("y")]),
        ([P("x*y")], [P("x - 1")]),
        ([P("x - y")], [P("x + y")]),
    ]
    for i_gens, j_gens in cases:
        t = module_tensor(PresentedModule.cyclic(RXY, i_gens), PresentedModule.cyclic(RXY, j_gens))
        assert radical_equal(annihilator(t), i_gens + j_gens)


def test_is_zero_module():
    assert PresentedModule.cyclic(RXY, [RXY.one()]).is_zero()
    assert not PresentedModule.cyclic(RXY, [P("x")]).is_zero()
    assert PresentedModule.zero(RXY).is_zero()


def test_submodule_presentation_and_lift():
    free = PresentedModule.free(RXY, 2)
    gens = [V("x", "0"), V("0", "y")]
    sub, _ = submodule_presentation(gens, free)
    assert sub.rank == 2 and not sub.relations
    lift = submodule_lift(V("x^2*y", "0"), gens, free)
    assert lift is not None
    assert vec_combination(gens, lift) == V("x^2*y", "0")
    assert submodule_lift(V("1", "0"), gens, free) is None


def test_submodule_lift_respects_ambient_relations():
    amb = PresentedModule.cyclic(RXY, [P("x^2")])
    gens = [V("x")]
    lift = submodule_lift(V("x + x^2"), gens, amb)
    assert lift is not None
    diff = vec_combination(gens, lift)[0] - P("x + x^2")
    assert amb.contains_in_relations((diff,))


def ref_submodule_lift(v, gens, ambient):
    """The lift before it became a normal form: a tracked Groebner basis of
    the generators and ambient relations, then a division with quotients."""
    ring = ambient.ring
    basis, reps = ref_module_groebner(list(gens) + list(ambient.relations), POT, track=True)
    if not basis:
        return [ring.zero()] * len(gens) if vec_is_zero(v) else None
    quots, rem = ref_vector_divmod(v, basis, POT)
    if not vec_is_zero(rem):
        return None
    coeffs = [ring.zero()] * len(gens)
    for q, rep in zip(quots, reps):
        coeffs = [c + q * r for c, r in zip(coeffs, rep)]
    return coeffs


@st.composite
def lift_cases(draw):
    """Generators (possibly none, possibly zero) in a free or presented
    module of rank 1-2 over QQ or GF(7), and a vector that is a combination
    of them modulo the relations, perturbed or not; `member` says which."""
    ring = draw(st.sampled_from([RXY, RF7]))
    rank = draw(st.integers(min_value=1, max_value=2))
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)
    term = st.tuples(mono, st.integers(min_value=-3, max_value=3))

    def poly(max_terms):
        return ring.from_terms((m, ring.field.from_int(c))
                               for m, c in draw(st.lists(term, max_size=max_terms)))

    def vector(max_terms):
        return tuple(poly(max_terms) for _ in range(rank))

    gens = [vector(2) for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    rels = tuple(vector(2) for _ in range(draw(st.integers(min_value=0, max_value=2))))
    v = zero_vector(ring, rank)
    for col in gens + list(rels):
        v = vec_add(v, vec_scale(poly(2), col))
    member = draw(st.booleans())
    if not member:
        v = vec_add(v, vector(2))
    return v, gens, PresentedModule(ring, rank, rels), member


@given(lift_cases())
@settings(max_examples=150, deadline=None)
def test_submodule_lift_agrees_with_the_tracked_lift(case):
    """Both lifts give the same verdict, and every lift returned is one.
    Lifts are not unique, so the coefficients themselves are not compared."""
    v, gens, ambient, member = case
    got, want = submodule_lift(v, gens, ambient), ref_submodule_lift(v, gens, ambient)
    assert (got is None) == (want is None)
    if member:
        assert got is not None
    for coeffs in (got, want):
        if coeffs is not None:
            assert len(coeffs) == len(gens)
            combo = (vec_combination(gens, coeffs) if gens
                     else zero_vector(ambient.ring, ambient.rank))
            assert ambient.contains_in_relations(vec_sub(v, combo))


def test_submodule_lift_refuses_malformed_input():
    free = PresentedModule.free(RXY, 2)
    with pytest.raises(ValidationError, match=r"gens\[1\]"):
        submodule_lift(V("x", "y"), [V("x", "0"), V("x")], free)
    with pytest.raises(ValidationError, match="v has length 1"):
        submodule_lift(V("x"), [V("x", "0")], free)
    with pytest.raises(DomainMismatchError, match=r"gens\[0\]"):
        submodule_lift(V("x", "0"), [V("x", "0", ring=RF7)], free)
    with pytest.raises(DomainMismatchError, match="v has"):
        submodule_lift(V("x", "y", ring=RXYZ), [V("x", "0"), V("0", "1")], free)


def test_lifts_against_one_submodule_run_one_groebner_basis(monkeypatch):
    """Work count: 10 lifts against one (gens, ambient) share the kept
    relation basis of the augmented module; a basis per lift would make 10."""
    monkeypatch.setattr(polymod, "_REL_GB_CACHE", {})
    runs = []
    engine = polymod.module_groebner
    monkeypatch.setattr(polymod, "module_groebner",
                        lambda gens, order=POT: runs.append(1) or engine(gens, order))
    amb = PresentedModule(RXY, 2, (V("x^2", "0"), V("y", "x")))
    gens = [V("x", "y"), V("0", "y^2"), V("x*y", "1")]
    probes = [V("x", "y"), V("1", "0"), V("x^2*y", "x*y^2"), V("x^2", "0"), V("0", "0"),
              V("x*y", "1"), V("x + x*y", "y + 1"), V("y", "0"), V("0", "y^3"), V("x", "y^2")]
    lifts = [submodule_lift(v, gens, amb) for v in probes]
    assert len(runs) == 1
    assert lifts[0] is not None and lifts[1] is None
    for v, coeffs in zip(probes, lifts):
        if coeffs is not None:
            assert amb.contains_in_relations(vec_sub(v, vec_combination(gens, coeffs)))


def test_a_presentation_and_its_lifts_run_one_groebner_basis(monkeypatch):
    """Work count: `submodule_presentation(gens, M)` reads its relations off
    the kept augmented basis that 10 lifts against (gens, M) then divide by;
    a syzygy elimination of its own would make 2 runs."""
    monkeypatch.setattr(polymod, "_REL_GB_CACHE", {})
    runs = []
    engine = polymod.module_groebner
    monkeypatch.setattr(polymod, "module_groebner",
                        lambda gens, order=POT: runs.append(1) or engine(gens, order))
    amb = PresentedModule(RXY, 2, (V("x^2", "0"), V("y", "x")))
    gens = [V("x", "y"), V("0", "y^2"), V("x*y", "1")]
    probes = [V("x", "y"), V("1", "0"), V("x^2*y", "x*y^2"), V("x^2", "0"), V("0", "0"),
              V("x*y", "1"), V("x + x*y", "y + 1"), V("y", "0"), V("0", "y^3"), V("x", "y^2")]
    sub, _ = submodule_presentation(gens, amb)
    lifts = [submodule_lift(v, gens, amb) for v in probes]
    assert len(runs) == 1
    assert sub.rank == 3 and sub.relations
    for c in sub.relations:
        assert amb.contains_in_relations(vec_combination(gens, c))
    assert lifts[0] is not None and lifts[1] is None


def ref_syzygy_basis(cols, rank, ring=None):
    """The syzygies before they were read off the augmented basis:
    generators of {v in A^m : sum v_j cols_j = 0} for columns in A^rank, by
    augmenting each column with its own unit tag, running a
    position-over-term basis and keeping the members whose first block
    vanished."""
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
    aug = [tuple(c) + unit_vector(ring, m, j) for j, c in enumerate(cols)]
    return [tuple(v[rank:]) for v in module_groebner(aug, POT)
            if all(p.is_zero() for p in v[:rank])]


@st.composite
def syzygy_cases(draw):
    """Generators (possibly none, possibly zero) in a module of rank 0-2
    over QQ or GF(7), free or with 1-2 relations."""
    ring = draw(st.sampled_from([RXY, RF7]))
    rank = draw(st.integers(min_value=0, max_value=2))
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)
    term = st.tuples(mono, st.integers(min_value=-3, max_value=3))

    def vector():
        return tuple(ring.from_terms((m, ring.field.from_int(c))
                                     for m, c in draw(st.lists(term, max_size=2)))
                     for _ in range(rank))

    gens = [vector() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    rels = tuple(vector() for _ in range(draw(st.integers(min_value=0, max_value=2))))
    return gens, PresentedModule(ring, rank, rels)


@given(syzygy_cases())
@settings(max_examples=120, deadline=None)
def test_relative_syzygies_agree_with_the_elimination_oracle(case):
    """In a free module the syzygies equal the oracle's.  In a presented one
    each is a relative syzygy, and they generate the same module as the
    oracle's heads over the generators and relations together."""
    gens, ambient = case
    ring, rank, m = ambient.ring, ambient.rank, len(gens)
    got = syzygy_basis(gens, ambient)
    if not ambient.relations:
        assert got == ref_syzygy_basis(gens, rank, ring)
        return
    for c in got:
        combo = zero_vector(ring, rank)
        for cj, g in zip(c, gens):
            combo = vec_add(combo, vec_scale(cj, g))
        assert ambient.contains_in_relations(combo)
    want = [v[:m] for v in ref_syzygy_basis(gens + list(ambient.relations), rank, ring)]
    want = [v for v in want if not vec_is_zero(v)]
    for vectors, members in ((got, want), (want, got)):
        gb = module_groebner(vectors)
        assert all(vec_is_zero(vector_normal_form(v, gb)) for v in members)


# -- maps -----------------------------------------------------------------------


def test_kernel_and_cokernel_of_multiplication():
    a = PresentedModule.free(RX, 1)
    f = ModuleMap(a, a, (V("x", ring=RX),))
    f.check_well_defined()
    k, _ = map_kernel(f)
    assert k.is_zero()
    c = map_cokernel(f)
    assert radical_equal(annihilator(c), [RX.var("x")])


def test_kernel_of_nilpotent_multiplication():
    m = PresentedModule.cyclic(RX, [P("x^2", RX)])
    f = ModuleMap(m, m, (V("x", ring=RX),))
    f.check_well_defined()
    k, gens = map_kernel(f)
    assert not k.is_zero()
    assert radical_equal(annihilator(k), [P("x", RX)])
    for g in gens:
        assert m.contains_in_relations(tuple(p * RX.var("x") for p in g))


def test_isomorphism_detector():
    m = PresentedModule.cyclic(RX, [P("x^2 - 1", RX)])
    two = ModuleMap(m, m, (V("2", ring=RX),))
    assert map_is_isomorphism(two)
    x = ModuleMap(m, m, (V("x", ring=RX),))
    assert map_is_isomorphism(x)  # x is a unit mod x^2 - 1
    m2 = PresentedModule.cyclic(RX, [P("x^2", RX)])
    assert not map_is_isomorphism(ModuleMap(m2, m2, (V("x", ring=RX),)))


def test_map_well_definedness_rejected():
    src = PresentedModule.cyclic(RX, [P("x", RX)])
    tgt = PresentedModule.free(RX, 1)
    bad = ModuleMap(src, tgt, (V("1", ring=RX),))
    with pytest.raises(Exception):
        bad.check_well_defined()


def test_module_maps_refuse_malformed_input():
    """Over F = Q[x,y]^1 with the map "multiply by x", (x, y), () and x*z
    from Q[x,y,z] are refused, not applied; so are columns from Q[x,y,z],
    GF(7) or of the wrong height, and a source and target over different
    rings."""
    free = PresentedModule.free(RXY, 1)
    f = ModuleMap(free, free, (V("x"),))
    assert f.apply_vector(V("y")) == V("x*y")
    with pytest.raises(ValidationError, match="length 2"):
        f.apply_vector(V("x", "y"))
    with pytest.raises(ValidationError, match="length 0"):
        f.apply_vector(())
    with pytest.raises(DomainMismatchError):
        f.apply_vector(V("x*z", ring=RXYZ))
    with pytest.raises(DomainMismatchError, match="column 0"):
        ModuleMap(free, free, (V("x*z", ring=RXYZ),))
    with pytest.raises(DomainMismatchError, match="column 0"):
        ModuleMap(free, free, (V("x", ring=RF7),))
    with pytest.raises(ValidationError, match="column 1 has length 2"):
        ModuleMap(PresentedModule.free(RXY, 2), free, (V("x"), V("x", "y")))
    with pytest.raises(DomainMismatchError, match="different rings"):
        ModuleMap(free, PresentedModule.free(RF7, 1), (V("x", ring=RF7),))


# -- complexes and cohomology -------------------------------------------------------


def koszul_xy():
    a0 = PresentedModule.free(RXY, 1)
    a1 = PresentedModule.free(RXY, 2)
    a2 = PresentedModule.free(RXY, 1)
    d0 = ModuleMap(a0, a1, (V("-y", "x"),))
    d1 = ModuleMap(a1, a2, (V("x"), V("y")))
    return PresentedComplex(RXY, -2, (a0, a1, a2), (d0, d1))


def test_koszul_complex_cohomology():
    c = koszul_xy()
    c.validate()
    h0 = cohomology(c, 0)
    assert radical_equal(annihilator(h0), [P("x"), P("y")])
    assert graded_dim(h0, [0] * h0.rank, 0) == 1
    assert graded_dim(h0, [0] * h0.rank, 1) == 0
    assert cohomology(c, -1).is_zero()
    assert cohomology(c, -2).is_zero()


def test_two_term_complex_cohomology():
    a = PresentedModule.free(RX, 1)
    d = ModuleMap(a, a, (V("x", ring=RX),))
    c = PresentedComplex(RX, -1, (a, a), (d,))
    c.validate()
    assert cohomology(c, -1).is_zero()
    h0 = cohomology(c, 0)
    assert radical_equal(annihilator(h0), [RX.var("x")])


def test_complex_validation_catches_nonzero_square():
    a = PresentedModule.free(RX, 1)
    d = ModuleMap(a, a, (V("x", ring=RX),))
    c = PresentedComplex(RX, 0, (a, a, a), (d, d))
    with pytest.raises(Exception):
        c.validate()


# -- graded dimensions ----------------------------------------------------------------


def test_graded_dim_of_free_module():
    free = PresentedModule.free(RXY, 1)
    assert [graded_dim(free, [0], d) for d in range(4)] == [1, 2, 3, 4]


def test_graded_dim_of_quotient():
    m = PresentedModule.cyclic(RXY, [P("x^2"), P("x*y")])
    assert [graded_dim(m, [0], d) for d in range(5)] == [1, 2, 1, 1, 1]


def test_graded_dim_with_weights():
    m = PresentedModule.free(RX, 2)
    assert graded_dim(m, [0, 1], 1) == 2  # x*e0 and e1


@st.composite
def homogeneous_ideals(draw):
    """Generators of a homogeneous ideal in 2 or 3 variables over QQ or GF(7)."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    ring = PolyRing(field, ("x", "y", "z")[:draw(st.integers(min_value=2, max_value=3))])
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        monos = monomials_of_degree(ring, draw(st.integers(min_value=1, max_value=3)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3))
        coeffs = [draw(st.integers(min_value=1, max_value=6)) for _ in chosen]
        gens.append(ring.from_terms((m, field.from_int(c)) for m, c in zip(chosen, coeffs)))
    return ring, [g for g in gens if not g.is_zero()]


@given(homogeneous_ideals())
@settings(max_examples=40, deadline=None)
def test_graded_dim_is_the_hilbert_function_of_the_initial_ideal(case):
    # Macaulay: R/I and R/in(I) have the same Hilbert function, and the
    # degree-d monomials outside in(I) count it with no linear algebra
    ring, gens = case
    leads = [leading(g, GREVLEX)[0] for g in buchberger(gens)]
    mod = PresentedModule.cyclic(ring, gens)
    for d in range(5):
        standard = [m for m in monomials_of_degree(ring, d)
                    if not any(mono_divides(lead, m) for lead in leads)]
        assert graded_dim(mod, [0], d) == len(standard)


def macaulay_slice(mod, weights, d, var_weights=None):
    """The reference: row-reduce the Macaulay matrix of the degree-d slice.

    Columns are the pairs (generator, monomial) of degree d, generator
    ascending, then grevlex-descending; rows are the monomial shifts of the
    relations into degree d.  Returns the pairs of the non-pivot columns
    and a function giving a degree-d vector's coordinates over them, the
    vector reduced by the rref rows.
    """
    ring = mod.ring
    fld = ring.field
    pairs = [(j, m) for j in range(mod.rank)
             for m in monomials_of_degree(ring, d - weights[j], var_weights)]
    index = {p: i for i, p in enumerate(pairs)}
    rows = []
    for rel in mod.relations if pairs else ():
        rdeg = relation_degree(rel, weights, var_weights)
        if rdeg is None:
            raise PreconditionError("inhomogeneous relation in graded computation")
        for shift in monomials_of_degree(ring, d - rdeg, var_weights):
            row = [fld.zero()] * len(pairs)
            for j, p in enumerate(rel):
                for mono, c in p.terms:
                    k = index[(j, mono_mul(shift, mono))]
                    row[k] = fld.add(row[k], c)
            rows.append(row)
    red, pivots = rref(Matrix.from_rows(fld, rows)) if rows else (None, ())
    free = [i for i in range(len(pairs)) if i not in pivots]

    def coords(v):
        vec = [fld.zero()] * len(pairs)
        for j, p in enumerate(v):
            for mono, c in p.terms:
                vec[index[(j, mono)]] = c
        for r, pc in enumerate(pivots):
            c = vec[pc]
            if c != 0:
                vec = [fld.sub(a, fld.mul(c, b)) for a, b in zip(vec, red.row(r))]
        return [vec[i] for i in free]

    return [pairs[i] for i in free], coords


@st.composite
def graded_modules(draw):
    """(module, generator weights, variable weights, degree-d vectors by d):
    ranks 1-3, generator weights 0-2, over QQ or GF(7), homogeneous
    relations of degree up to 4, in x, y, z with unit weights or in x, y
    weighted (2, 3).  In two variables lex and grevlex agree on every
    weighted-homogeneous slice, so only the three-variable cases can tell
    the orders apart."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    var_weights = draw(st.sampled_from([None, (2, 3)]))
    ring = PolyRing(field, ("x", "y") if var_weights else ("x", "y", "z"))
    rank = draw(st.integers(min_value=1, max_value=3))
    weights = [draw(st.integers(min_value=0, max_value=2)) for _ in range(rank)]
    coeffs = st.sampled_from([1, -1, 2, -2, 3, -3]).map(field.from_int)

    def homogeneous_vector(deg):
        """A random vector of degree deg, zero when the slice is empty."""
        out = []
        for w in weights:
            monos = monomials_of_degree(ring, deg - w, var_weights)
            chosen = draw(st.lists(st.sampled_from(monos), max_size=3)) if monos else []
            out.append(ring.from_terms((m, draw(coeffs)) for m in chosen))
        return tuple(out)

    relations = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        rel = homogeneous_vector(draw(st.integers(min_value=max(weights), max_value=4)))
        if not vec_is_zero(rel):
            relations.append(rel)
    mod = PresentedModule(ring, rank, tuple(relations))
    vectors = {d: [homogeneous_vector(d) for _ in range(2)] for d in range(5)}
    return mod, weights, var_weights, vectors


@st.composite
def dense_ideals(draw):
    """graded_modules' shape for R/I, I spanned by 2 or 3 forms of degree 2
    or 3 in x, y, z with every monomial present.  Sparse relations rarely
    lead differently under lex and grevlex; the Groebner bases of dense ones
    mostly do by degree 4."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    ring = PolyRing(field, ("x", "y", "z"))
    coeffs = st.sampled_from([1, -1, 2, -2, 3, -3]).map(field.from_int)
    relations = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        monos = monomials_of_degree(ring, draw(st.integers(min_value=2, max_value=3)))
        relations.append((ring.from_terms((m, draw(coeffs)) for m in monos),))
    vectors = {d: [(ring.from_terms((m, draw(coeffs)) for m in monomials_of_degree(ring, d)),)]
               for d in range(5)}
    return PresentedModule(ring, 1, tuple(relations)), [0], None, vectors


@given(st.one_of(graded_modules(), dense_ideals()))
@settings(max_examples=200, deadline=None)
def test_graded_standard_pairs_match_the_macaulay_slice(case):
    # Same pairs and the same coordinates, not only the same count: the
    # Hilbert function does not see the monomial order, coordinates do.
    mod, weights, var_weights, vectors = case
    for d, vs in vectors.items():
        pairs = graded_standard_pairs(mod, weights, d, var_weights)
        want_pairs, want_coords = macaulay_slice(mod, weights, d, var_weights)
        assert pairs == want_pairs
        assert graded_dim(mod, weights, d, var_weights) == len(want_pairs)
        for v in vs:
            assert vector_in_standard_coords(mod, pairs, v) == want_coords(v)


def test_graded_standard_pairs_are_listed_generator_first_then_grevlex_descending():
    m = PresentedModule(RXY, 2, (V("x^2", "0"), V("0", "y")))
    assert graded_standard_pairs(m, [0, 1], 2) == [
        (0, (1, 1)), (0, (0, 2)), (1, (1, 0))]


def test_graded_coordinates_follow_the_grevlex_relation_basis():
    # y^2 - x*z leads with y^2 under grevlex and with x*z under lex: the
    # dimension is the same either way, the standard pairs are not
    ring = PolyRing(QQ, ("x", "y", "z"))
    m = PresentedModule.cyclic(ring, [ring.parse_poly("y^2 - x*z")])
    pairs = graded_standard_pairs(m, [0], 2)
    assert pairs == [(0, (2, 0, 0)), (0, (1, 1, 0)), (0, (1, 0, 1)),
                     (0, (0, 1, 1)), (0, (0, 0, 2))]
    y2 = (ring.parse_poly("y^2"),)
    assert vector_in_standard_coords(m, pairs, y2) == [0, 0, 1, 0, 0]


@pytest.mark.parametrize("rel", ["x + y^2", "0"])
def test_graded_standard_pairs_refuse_bad_relations_on_a_nonempty_slice(rel):
    m = PresentedModule(RXY, 1, (V(rel),))
    for graded in (graded_standard_pairs, graded_dim, macaulay_slice):
        with pytest.raises(PreconditionError, match="inhomogeneous relation"):
            graded(m, [0], 1)


@pytest.mark.parametrize("rel", ["x + y^2", "0"])
def test_graded_standard_pairs_pass_bad_relations_on_an_empty_slice(rel):
    # generator weight 2 puts nothing in degrees 0 and 1
    m = PresentedModule(RXY, 1, (V(rel),))
    for d in (-1, 0, 1):
        assert graded_standard_pairs(m, [2], d) == []
        assert graded_dim(m, [2], d) == 0
        assert macaulay_slice(m, [2], d)[0] == []


# -- finite-dimensional helpers ---------------------------------------------------------


def test_standard_pairs_finite_and_infinite():
    m = PresentedModule.cyclic(RX, [P("x^2 - 1", RX)])
    pairs = standard_pairs(m)
    assert pairs == [(0, (0,)), (0, (1,))]
    assert standard_pairs(PresentedModule.free(RX, 1)) is None


@pytest.mark.parametrize("ring, rels, arm", [
    (RXY, ["x^1500", "y"], 1500),
    (RXYZ, ["x^200", "y", "z"], 200),
], ids=["two-variables", "three-variables"])
def test_a_long_thin_staircase_costs_its_size(ring, rels, arm):
    # listing every monomial of each degree up to the top of the arm took
    # seconds for x^1500 in two variables, and grows with the cube in three
    mod = PresentedModule.cyclic(ring, [P(r, ring) for r in rels])
    start = time.perf_counter()
    pairs = standard_pairs(mod)
    assert time.perf_counter() - start < 0.5
    assert pairs == [(0, (e,) + (0,) * (ring.nvars - 1)) for e in range(arm)]


def test_an_infinite_staircase_is_refused_before_any_degree_is_listed(monkeypatch):
    # y - 1 leads with y and no power of x is a lead: without the check on
    # pure powers the x-axis would be walked up to the cap
    tested = []
    monkeypatch.setattr(polymod, "mono_divides", lambda *args: tested.append(args) or False)
    assert standard_pairs(PresentedModule.cyclic(RXY, [P("y - 1")])) is None
    assert tested == []


def ref_standard_pairs(mod, cap):
    """The breadth-first walk `standard_pairs` replaced: from 1, step up one
    variable at a time and keep what no relation lead divides."""
    by_pos = polymod._relation_leads(mod)
    n = mod.ring.nvars
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


@st.composite
def staircase_cases(draw):
    """A module over QQ or GF(7) in x, y of rank 1 or 2, and a cap of 1-40.
    Besides up to two random relations, each position may get relations led
    by a pure power of x, of y or, half the time, of both, so that finite
    staircases, within the cap and past it, are common."""
    ring = draw(st.sampled_from([RXY, RF7]))
    rank = draw(st.integers(min_value=1, max_value=2))
    mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * 2)
    term = st.tuples(mono, st.integers(min_value=-3, max_value=3))

    def poly(terms):
        return ring.from_terms((m, ring.field.from_int(c)) for m, c in terms)

    rels = [tuple(poly(draw(st.lists(term, max_size=3))) for _ in range(rank))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    for j in range(rank):
        for var in draw(st.sampled_from([(0, 1), (0, 1), (0, 1), (0,), (1,), ()])):
            e = draw(st.integers(min_value=1, max_value=4))
            power = tuple(e if i == var else 0 for i in range(2))
            lower = [(m, c) for m, c in draw(st.lists(term, max_size=2)) if sum(m) < e]
            rels.append(tuple(poly([(power, 1)] + lower) if i == j else ring.zero()
                              for i in range(rank)))
    return PresentedModule(ring, rank, tuple(rels)), draw(st.integers(min_value=1, max_value=40))


@given(staircase_cases())
@settings(max_examples=150, deadline=None)
def test_standard_pairs_match_the_breadth_first_walk(case):
    mod, cap = case
    with patch.object(polymod, "STANDARD_PAIRS_CAP", cap):
        assert standard_pairs(mod) == ref_standard_pairs(mod, cap)


@pytest.mark.parametrize("n", range(4))
def test_weighted_exponents_match_the_product_filter(n):
    for weights in product((1, 2, 3), repeat=n):
        for d in range(-1, 9):
            want = [alpha for alpha in product(range(d, -1, -1), repeat=n)
                    if sum(e * w for e, w in zip(alpha, weights)) == d]
            assert weighted_exponents(weights, d) == want, (weights, d)


def test_multiplication_matrix_swap():
    m = PresentedModule.cyclic(RX, [P("x^2 - 1", RX)])
    pairs = standard_pairs(m)
    mat = multiplication_matrix(m, pairs, RX.var("x"))
    assert mat.at(0, 0) == Fraction(0) and mat.at(0, 1) == Fraction(1)
    assert mat.at(1, 0) == Fraction(1) and mat.at(1, 1) == Fraction(0)


def test_bounded_membership_examples():
    gens = [P("x^2 - y"), P("y^2 - 1")]
    assert bounded_membership(P("x^2 - y"), gens, 4)
    assert bounded_membership(P("x^2*y + x^2 - y^2 - y"), gens, 5)
    assert not bounded_membership(P("x"), gens, 6)


def dense_bounded_membership(f, gens, degree_bound):
    """The reference oracle: one dense `solve` on the whole Macaulay matrix,
    rows the monomials (grevlex-descending), columns the products shift * g."""
    ring = f.ring
    fld = ring.field
    columns = []
    for g in gens:
        if g.is_zero():
            continue
        gd = g.total_degree()
        for shift_deg in range(degree_bound - gd + 1):
            for shift in monomials_of_degree(ring, shift_deg):
                columns.append(ring.monomial(shift) * g)
    all_monos = sorted(
        {m for p in columns + [f] for m, _ in p.terms}, key=GREVLEX.key, reverse=True
    )
    if not columns:
        return f.is_zero()
    rows = len(all_monos)
    zero = fld.zero()
    col_terms = [dict(col.terms) for col in columns]
    ent = tuple(t.get(m, zero) for m in all_monos for t in col_terms)
    mat = Matrix(fld, rows, len(columns), ent)
    f_terms = dict(f.terms)
    rhs = Matrix(fld, rows, 1, tuple(f_terms.get(m, zero) for m in all_monos))
    return solve(mat, rhs) is not None


@st.composite
def membership_cases(draw):
    """(f, gens, degree bound, kind) over QQ, GF(7) or GF(32003) in x, y, z.
    A "member" f is sum(q_i g_i) with every deg(q_i g_i) <= the bound."""
    field = draw(st.sampled_from([QQ, GF(7), GF(32003)]))
    ring = PolyRing(field, ("x", "y", "z"))
    if field.is_rational:
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(Fraction)
    else:
        coeffs = st.integers(min_value=0, max_value=field.p - 1)

    def poly(max_deg, max_terms, min_deg=0):
        terms = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
            d = draw(st.integers(min_value=min_deg, max_value=max_deg))
            mono = draw(st.sampled_from(monomials_of_degree(ring, d)))
            terms.append((mono, draw(coeffs)))
        return ring.from_terms(terms)

    bound = draw(st.integers(min_value=2, max_value=6))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        gens = [ring.zero()] * draw(st.integers(min_value=0, max_value=2))
    else:
        # no constant terms, so the ideal is proper and nonmembers are common
        gens = [poly(3, 3, 1) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    kind = draw(st.sampled_from(["member", "perturbed", "random", "zero"]))
    f = ring.zero()
    if kind in ("member", "perturbed"):
        for g in gens:
            if not g.is_zero() and g.total_degree() <= bound:
                f = f + poly(bound - g.total_degree(), 3) * g
    if kind == "perturbed":
        f = f + poly(bound, 1)
    elif kind == "random":
        f = poly(bound + 1, 4)
    return f, gens, bound, kind


@given(membership_cases())
@settings(max_examples=200, deadline=None)
def test_bounded_membership_matches_dense_oracle(case):
    f, gens, bound, kind = case
    verdict = bounded_membership(f, gens, bound)
    assert verdict == dense_bounded_membership(f, gens, bound)
    if kind in ("member", "zero"):
        assert verdict


def test_bounded_membership_bounds_on_the_twisted_cubic():
    # (x^2 - y, x^3 - z) is the ideal of t -> (t, t^2, t^3); x*y - z needs
    # q_i g_i up to degree 3, and y^3 - z^2 up to degree 5.
    probes = [
        ("x*y - z", 2, False), ("x*y - z", 3, True),
        ("y^3 - z^2", 4, False), ("y^3 - z^2", 5, True),
        ("x", 6, False), ("y - z", 6, False), ("z^2 - x*y", 6, False),
    ]
    for field in (QQ, GF(7), GF(32003)):
        ring = PolyRing(field, ("x", "y", "z"))
        gens = [ring.parse_poly("x^2 - y"), ring.parse_poly("x^3 - z")]
        for text, bound, expected in probes:
            f = ring.parse_poly(text)
            assert bounded_membership(f, gens, bound) == expected
            assert dense_bounded_membership(f, gens, bound) == expected
        assert bounded_membership(ring.zero(), [ring.zero()], 2)
        assert not bounded_membership(ring.one(), [ring.zero()], 2)


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_the_integer_echelon_agrees_with_the_dense_oracle(field):
    """The twisted cubic t -> (t, 5/6 t^2, 35/8 t^3), written with the
    coefficients 1/3, 2/5 and -7/4: at bounds 2-6 the verdicts on members,
    perturbed members and random polys match the dense `Fraction` oracle,
    and every pivot of the kept echelon is a primitive integer vector with
    a positive lead over QQ, and monic over GF(p)."""
    ring = PolyRing(field, ("x", "y", "z"))
    gens = [ring.parse_poly("1/3*x^2 - 2/5*y"), ring.parse_poly("-7/4*x^3 + 2/5*z")]
    rng = random.Random(18)
    coeffs = [Fraction(n, d) for n in (-7, -2, -1, 1, 3, 5) for d in (1, 3, 4)]

    def poly(max_deg, nterms):
        monos = [m for d in range(max_deg + 1) for m in monomials_of_degree(ring, d)]
        return ring.from_terms((rng.choice(monos), field.from_fraction(c.numerator, c.denominator))
                               for c in rng.sample(coeffs, nterms))

    seen = 0
    for bound in range(2, 7):
        for kind in ("member", "perturbed", "random") * 4:
            f = ring.zero()
            if kind != "random":
                for g in gens:
                    if g.total_degree() <= bound:
                        f = f + poly(bound - g.total_degree(), 2) * g
            if kind == "perturbed":
                f = f + poly(bound, 1)
            elif kind == "random":
                f = poly(bound, 3)
            verdict = bounded_membership(f, gens, bound)
            assert verdict == dense_bounded_membership(f, gens, bound)
            if kind == "member":
                assert verdict
            seen += verdict
        _, echelon = polymod._macaulay_echelon(ring, tuple(gens), bound)
        pivots = echelon.pivots
        assert pivots
        for lc, tail in pivots.values():
            coeffs_of = [lc] + [c for _, c in tail]
            assert all(type(c) is int for c in coeffs_of)
            if field.is_rational:
                assert lc > 0 and gcd(*coeffs_of) == 1
            else:
                assert lc == 1
    assert 20 <= seen < 60


def test_the_oracle_memo_follows_ideal_bound_and_field():
    """Interleaved queries, each against the dense oracle: a memo that
    answered from the echelon of another ideal, bound or field fails."""
    cubic = PolyRing(QQ, ("x", "y", "z"))
    a = [cubic.parse_poly("x^2 - y"), cubic.parse_poly("x^3 - z")]
    b = [cubic.parse_poly("x*y - z"), cubic.parse_poly("x^2 - y")]
    # the same term data: x + 2y and 4x + y span (x, y) over QQ, and over
    # GF(7), where 4x + y = 4(x + 2y), only (x + 2y)
    line = {fld: PolyRing(fld, ("x", "y")) for fld in (QQ, GF(7))}
    same = {fld: [r.parse_poly("x + 2*y"), r.parse_poly("4*x + y")] for fld, r in line.items()}
    for fld, r in line.items():
        assert [g.terms for g in same[fld]] == [g.terms for g in same[QQ]]
    queries = [
        (a, 2, cubic.parse_poly("x*y - z"), False),
        (b, 2, cubic.parse_poly("x*y - z"), True),
        (a, 3, cubic.parse_poly("x*y - z"), True),
        (a, 2, cubic.parse_poly("x*y - z"), False),
        (a, 2, cubic.parse_poly("x^2 - y"), True),
        (same[QQ], 1, line[QQ].parse_poly("y"), True),
        (same[GF(7)], 1, line[GF(7)].parse_poly("y"), False),
        (same[QQ], 1, line[QQ].parse_poly("x"), True),
        ([cubic.zero()] * 2, 3, cubic.parse_poly("x*y - z"), False),
        ([cubic.zero()] * 2, 3, cubic.zero(), True),
        (a, 3, cubic.parse_poly("x*y - z"), True),
        (a, 2, cubic.parse_poly("x*y - z"), False),
    ]
    for gens, bound, f, expected in queries:
        assert bounded_membership(f, gens, bound) == expected
        assert dense_bounded_membership(f, gens, bound) == expected


def test_bounded_membership_refuses_a_polynomial_from_another_ring():
    gens = [P("x^2 - y")]
    assert bounded_membership(P("3*x^2 - 3*y"), gens, 2)  # the echelon of (gens, 2) is kept
    wider = PolyRing(QQ, ("x", "y", "z")).parse_poly("x^2*z")
    mod7 = PolyRing(GF(7), ("x", "y")).parse_poly("3*x^2 - 3*y")
    for f, with_gens in ((wider, gens), (mod7, gens), (mod7, [RXY.zero()])):
        with pytest.raises(DomainMismatchError):
            bounded_membership(f, with_gens, 2)


def test_membership_prepares_once_per_basis_and_eliminates_once_per_ideal(monkeypatch):
    """Work counts: 10 `contains` calls on one basis prepare each of its
    polynomials once, and 4 oracle calls on one (gens, bound) run one
    elimination.  Per-call preparation would multiply both counts."""
    ring = PolyRing(QQ, ("x", "y", "z"))
    gens = [ring.parse_poly(t) for t in ("x^2 - y*z", "y^2 - x*z + z", "x*y*z - 1")]
    gb = GroebnerBasis.of(gens)
    probes = [ring.parse_poly(t) for t in
              ("x^2 - y*z", "x", "y^3 - z^2", "x*y", "x^3 + y", "z - 1", "x^2*y - y^2*z",
               "y^2 - x*z + z", "x + y + z", "x*y*z^2 - z")]
    prepared = []
    add = polymod._Reducers.add
    monkeypatch.setattr(polymod._Reducers, "add",
                        lambda red, terms: prepared.append(terms) or add(red, terms))
    verdicts = [gb.contains(f) for f in probes]
    assert verdicts[0] and verdicts[7] and not verdicts[1]
    assert len(prepared) == len(gb.polys)

    bounded_membership(ring.one(), [ring.parse_poly("x")], 1)  # another ideal first
    calls = []
    degrees = polymod.monomials_of_degree
    monkeypatch.setattr(polymod, "monomials_of_degree",
                        lambda *args: calls.append(args) or degrees(*args))
    first = bounded_membership(probes[0], gens, 4)
    eliminated = len(calls)
    rest = [bounded_membership(f, gens, 4) for f in probes[1:4]]
    assert first and rest == [False, False, False]
    assert eliminated > 0 and len(calls) == eliminated
