from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit import polymod
from ttkit.fields import GF, QQ, Matrix, solve
from ttkit.polyring import (
    GREVLEX,
    LEX,
    PolyRing,
    block_order,
    mono_div,
    mono_divides,
    mono_mul,
    radical_equal,
)
from ttkit.polymod import (
    ModuleMap,
    ModuleOrder,
    PresentedComplex,
    PresentedModule,
    annihilator,
    bounded_membership,
    cohomology,
    direct_sum,
    graded_dim,
    map_cokernel,
    map_is_isomorphism,
    map_kernel,
    module_groebner,
    module_tensor,
    monomials_of_degree,
    multiplication_matrix,
    standard_pairs,
    submodule_lift,
    submodule_presentation,
    syzygy_basis,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vector_divmod,
    vector_normal_form,
    zero_vector,
)

RXY = PolyRing(QQ, ("x", "y"))
RX = PolyRing(QQ, ("x",))


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
    syz = syzygy_basis([V("x"), V("y")], 1)
    assert len(syz) == 1
    v = syz[0]
    # up to sign and scale this must be (y, -x)
    assert vec_is_zero(vec_combination([V("x"), V("y")], v))
    assert radical_equal([v[0]], [P("y")]) and radical_equal([v[1]], [P("x")])


def test_syzygy_of_identity_columns_empty():
    cols = [unit_vector(RXY, 2, 0), unit_vector(RXY, 2, 1)]
    assert syzygy_basis(cols, 2) == []


def test_syzygy_of_zero_columns_is_everything():
    cols = [zero_vector(RXY, 1), zero_vector(RXY, 1)]
    syz = syzygy_basis(cols, 1)
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
                prod = ring.monomial(m) * cols[j][pos]
                row.append(prod.coeff_of(em))
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
    syz = syzygy_basis(cols, 1)
    for v in syz:
        assert vec_is_zero(vec_combination(cols, v))
    gb = module_groebner(syz)
    for v in _bounded_kernel_vectors(cols, 1, RXY, 2):
        assert vec_is_zero(vector_normal_form(v, gb))


def test_koszul_three_variable_syzygies():
    r = PolyRing(QQ, ("x", "y", "z"))
    cols = [(r.var("x"),), (r.var("y"),), (r.var("z"),)]
    syz = syzygy_basis(cols, 1)
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
    for v in syzygy_basis(cols, 1):
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
        pos, mono = max(work, key=order.key)
        c = work.pop((pos, mono))
        hit = next(
            (k for k, (lp, lm) in enumerate(leads) if lp == pos and mono_divides(lm, mono)), None
        )
        if hit is None:
            rem[pos].append((mono, c))
            continue
        lp, lm = leads[hit]
        qm = mono_div(mono, lm)
        qc = fld.div(c, basis[hit][lp].coeff_of(lm))
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


@pytest.mark.parametrize(
    "ring, gens",
    [
        (RXY, [("x", "y"), ("y^2", "x - 1"), ("x*y", "0")]),
        (RXY, [("x^2 - y", "1", "0"), ("x*y - 1", "0", "1"), ("y^2 - x", "0", "0")]),
        (RXY, [("x^2 - y",), ("x*y - 1",), ("0",)]),
        (RF7, [("x^2 + 3*y", "x"), ("x*y + 3", "y"), ("y^2", "x*y")]),
    ],
)
def test_module_groebner_tracked_reps_reconstruct_basis(ring, gens):
    gens = [V(*g, ring=ring) for g in gens]
    basis, reps = module_groebner(gens, track=True)
    assert basis == module_groebner(gens)
    assert len(reps) == len(basis)
    for v, rep in zip(basis, reps):
        assert len(rep) == len(gens)
        assert vec_combination(gens, rep) == v


def test_module_groebner_coprime_criterion_only_at_rank_one():
    # The leads x*e0 and y*e0 are coprime, yet their S-vector (0, y - x)
    # does not reduce to zero: the coprime shortcut is wrong above rank 1.
    basis = module_groebner([V("x", "1"), V("y", "1")])
    assert V("0", "x - y") in basis


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


# -- finite-dimensional helpers ---------------------------------------------------------


def test_standard_pairs_finite_and_infinite():
    m = PresentedModule.cyclic(RX, [P("x^2 - 1", RX)])
    pairs = standard_pairs(m)
    assert pairs == [(0, (0,)), (0, (1,))]
    assert standard_pairs(PresentedModule.free(RX, 1), cap=64) is None


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
