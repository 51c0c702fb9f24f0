import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:
    sympy = None

from ttkit.errors import DomainMismatchError, ValidationError
from ttkit import polyring
from ttkit.polymod import ModuleOrder, vector_divmod
from ttkit.fields import GF, QQ
from ttkit.polyring import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    MonomialOrder,
    PolyRing,
    block_order,
    buchberger,
    eliminate,
    ideal_contains_radical,
    ideal_intersection,
    ideal_is_proper,
    radical_equal,
    radical_member,
    s_poly,
)

def mono_mul(a, b):
    """The product of two exponent tuples."""
    return tuple(x + y for x, y in zip(a, b))


def leading(p, order):
    """The (monomial, coeff) of the nonzero p largest under the order."""
    return max(p.terms, key=lambda t: order.key(t[0]))


RXYZ = PolyRing(QQ, ("x", "y", "z"))
RXY = PolyRing(QQ, ("x", "y"))


def P(text, ring=RXYZ):
    return ring.parse_poly(text)


# -- orders ---------------------------------------------------------------------


def test_grevlex_degree_two_chain():
    # In k[x,y,z]: x^2 > xy > y^2 > xz > yz > z^2 under grevlex.
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [GREVLEX.key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)


def test_lex_order_chain():
    monos = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0)]
    keys = [LEX.key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)


def test_block_order_eliminates_first_variable():
    order = block_order(1)
    # any monomial containing x beats any monomial without it
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    assert ((order.key((1, 2, 0)) > order.key((1, 0, 1)))
            == (GREVLEX.key((2, 0)) > GREVLEX.key((0, 1))))


def test_bad_order_kind_rejected():
    with pytest.raises(ValidationError):
        MonomialOrder("degrevlex")


def all_monomials(nvars, max_deg):
    return [
        m
        for m in itertools.product(range(max_deg + 1), repeat=nvars)
        if sum(m) <= max_deg
    ]


@pytest.mark.parametrize("nvars", [3, 4])
@pytest.mark.parametrize(
    "order",
    [LEX, GREVLEX, block_order(1), block_order(2)],
    ids=["lex", "grevlex", "block1", "block2"],
)
def test_negated_key_sorts_as_reversed_key(order, nvars):
    monos = all_monomials(nvars, 4)
    assert sorted(monos, key=order.neg_key) == sorted(monos, key=order.key, reverse=True)


# -- parser / printer -------------------------------------------------------------


def test_parse_examples():
    p = dict(P("3*x^2*y - 1/2*z + 1").terms)
    assert p == {(2, 1, 0): Fraction(3), (0, 0, 1): Fraction(-1, 2),
                 (0, 0, 0): Fraction(1)}


def test_parse_implicit_multiplication():
    assert P("2x y^2") == P("2*x*y^2")
    assert P("x x") == P("x^2")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValidationError):
        P("x + w")


def test_parse_fp_coefficients():
    ring = PolyRing(GF(7), ("x",))
    p = ring.parse_poly("10*x - 3")
    assert dict(p.terms) == {(1,): 3, (0,): 4}


def test_parse_rejects_a_zero_denominator():
    with pytest.raises(ValidationError, match="zero denominator"):
        P("x^2 - 1/0")
    with pytest.raises(ValidationError, match="zero denominator"):
        PolyRing(GF(7), ("x",)).parse_poly("x + 1/7")
    assert PolyRing(GF(7), ("x",)).parse_poly("1/8") == PolyRing(GF(7), ("x",)).one()


def test_ring_descriptor_round_trip():
    ring = PolyRing.parse("Fp:7[x,y]")
    assert ring.field == GF(7) and ring.variables == ("x", "y")
    assert PolyRing.parse(RXYZ.describe()) == RXYZ


@st.composite
def random_polys(draw, ring=RXY, max_terms=5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = []
    for _ in range(n):
        mono = tuple(
            draw(st.integers(min_value=0, max_value=4)) for _ in range(ring.nvars)
        )
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        terms.append((mono, Fraction(c)))
    return ring.from_terms(terms)


@given(random_polys())
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip(p):
    assert RXY.parse_poly(str(p)) == p


@given(random_polys(), random_polys())
@settings(max_examples=50, deadline=None)
def test_ring_axioms_spotchecks(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p


@st.composite
def products_with_a_monomial(draw):
    """(one-term Poly, Poly, Poly) over QQ, GF(7) or GF(32003) in x, y, z."""
    field = draw(st.sampled_from([QQ, GF(7), GF(32003)]))
    ring = PolyRing(field, ("x", "y", "z"))
    if field.is_rational:
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(Fraction)
    else:
        coeffs = st.integers(min_value=0, max_value=field.p - 1)
    monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)

    def poly():
        n = draw(st.integers(min_value=0, max_value=6))
        return ring.from_terms([(draw(monos), draw(coeffs)) for _ in range(n)])

    c = draw(coeffs.filter(lambda a: a != 0))
    return ring.monomial(draw(monos), c), poly(), poly()


@given(products_with_a_monomial())
@settings(max_examples=150, deadline=None)
def test_products_match_sorted_pairwise_products(case):
    mono, p, q = case
    ring = p.ring
    f = ring.field

    def pairwise(a, b):
        return ring.from_terms(
            (mono_mul(m1, m2), f.mul(c1, c2)) for m1, c1 in a.terms for m2, c2 in b.terms
        )

    for product, expected in (
        (mono * p, pairwise(mono, p)),
        (p * mono, pairwise(p, mono)),
        (p * q, pairwise(p, q)),
    ):
        assert product == expected
        keys = [GREVLEX.key(m) for m, _ in product.terms]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert all(not f.is_zero(c) for _, c in product.terms)



@st.composite
def summands(draw):
    """Two Polys over QQ or GF(7) in x, y, z; the second cancels a drawn
    subset of the first's terms, up to all of them."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    ring = PolyRing(field, ("x", "y", "z"))
    if field.is_rational:
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(Fraction)
    else:
        coeffs = st.integers(min_value=0, max_value=field.p - 1)
    terms = st.lists(st.tuples(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3), coeffs),
                     max_size=6)
    a = ring.from_terms(draw(terms))
    cancel = draw(st.lists(st.sampled_from(a.terms), unique=True)) if a.terms else []
    b = ring.from_terms(draw(terms) + [(m, field.neg(c)) for m, c in cancel])
    return a, b


@given(summands())
@settings(max_examples=150, deadline=None)
def test_sums_match_accumulated_terms(case):
    a, b = case
    ring = a.ring
    for x, y in ((a, b), (b, a), (a, -b), (a, -a)):
        total = x + y
        assert total == ring.from_terms(x.terms + y.terms)
        keys = [GREVLEX.key(m) for m, _ in total.terms]
        assert all(u > v for u, v in zip(keys, keys[1:]))
        assert all(not ring.field.is_zero(c) for _, c in total.terms)
    assert (a - a).is_zero()

def test_s_poly_pinned_values():
    # lcm(x^2, xy) = x^2 y: y (x^2 - y) - x (xy - 1) = x - y^2.
    assert s_poly(P("x^2 - y", RXY), P("x*y - 1", RXY), GREVLEX) == P("-y^2 + x", RXY)
    # Over GF(7) with leads 3 and 2: 5y (3x^2 + y) - 4x (2xy + 1) = 5y^2 - 4x.
    r7 = PolyRing(GF(7), ("x", "y"))
    f, g = r7.parse_poly("3*x^2 + y"), r7.parse_poly("2*x*y + 1")
    assert str(s_poly(f, g, GREVLEX)) == "5*y^2 + 3*x"
    # Under lex the lead of x*z - y^2 is x*z: z (x^2 - y) - x (x*z - y^2).
    h = s_poly(P("x^2 - y"), P("x*z - y^2"), LEX)
    assert h == P("x*y^2 - y*z")
    assert h.terms == (((1, 2, 0), 1), ((0, 1, 1), -1))


# -- division and normal forms ------------------------------------------------------


@given(random_polys(), random_polys())
@settings(max_examples=40, deadline=None)
def test_divmod_reconstructs(f, g):
    if g.is_zero():
        return
    # rank-1 division in the module engine
    quots, rem = vector_divmod((f,), [(g,)], ModuleOrder(GREVLEX))
    assert quots[0] * g + rem[0] == f


def test_normal_form_example_from_grammar():
    gb = GroebnerBasis.of([P("x^2 - y", RXY), P("y^3 - 1", RXY)], GREVLEX)
    assert gb.normal_form(P("x^2*y^2", RXY)) == RXY.one()


def test_twisted_cubic_lex_basis():
    # I = (x^2 - y, x^3 - z) under lex x > y > z.  Hand derivation: the two
    # S-polynomial rounds give xy - z, then xz - y^2, then y^3 - z^2.
    gens = [P("x^2 - y"), P("x^3 - z")]
    gb = buchberger(gens, LEX)
    expected = {P("x^2 - y"), P("x*y - z"), P("x*z - y^2"), P("y^3 - z^2")}
    assert set(gb) == expected


def test_twisted_cubic_membership_matches_bounded_oracle():
    from ttkit.polymod import bounded_membership

    gens = [P("x^2 - y"), P("x^3 - z")]
    gb = GroebnerBasis.of(gens, LEX)
    probes = [
        (P("y^3 - z^2"), True),
        (P("x*y - z"), True),
        (P("x^4 - y^2"), True),
        (P("x"), False),
        (P("y - z"), False),
        (P("x*y"), False),
    ]
    for f, expected in probes:
        assert gb.contains(f) == expected
        assert bounded_membership(f, gens, f.total_degree() + 4) == expected


def test_buchberger_deterministic_and_permutation_stable():
    gens = [P("x^2 - y", RXY), P("x*y - 1", RXY)]
    a = buchberger(gens, GREVLEX)
    b = buchberger(list(reversed(gens)), GREVLEX)
    c = buchberger(gens, GREVLEX)
    assert a == b == c


def test_buchberger_over_f7():
    ring = PolyRing(GF(7), ("x", "y"))
    gens = [ring.parse_poly("x^2 + y"), ring.parse_poly("x*y + 3")]
    gb = GroebnerBasis.of(gens, GREVLEX)
    # y * (x^2 + y) - x * (xy + 3) = y^2 - 3x, so x is in the ideal's shadow:
    assert gb.contains(ring.parse_poly("y^2 - 3*x"))


@given(random_polys(), random_polys())
@settings(max_examples=25, deadline=None)
def test_normal_form_multiplicative_up_to_ideal(f, g):
    gb = GroebnerBasis.of([P("x^2 - y", RXY), P("y^2 - 1", RXY)], GREVLEX)
    lhs = gb.normal_form(f * g)
    rhs = gb.normal_form(gb.normal_form(f) * gb.normal_form(g))
    assert lhs == rhs


def ref_normal_form(f, polys, order):
    """The reference path: divide by reducers that `vector_divmod` prepares
    afresh on every call."""
    basis = [(g,) for g in polys if not g.is_zero()]
    if f.is_zero() or not basis:
        return f
    return vector_divmod((f,), basis, ModuleOrder(order), quotients=False)[1][0]


@st.composite
def bases_and_polys(draw):
    """Bases of one ring and order, and polynomials to reduce by them.  One
    basis is built directly from raw polynomials, zero and non-monic ones
    included, as a cached site basis is; the others by `GroebnerBasis.of`."""
    field = draw(st.sampled_from([QQ, GF(7), GF(32003)]))
    order = draw(st.sampled_from([GREVLEX, LEX, block_order(1)]))
    ring = PolyRing(field, ("x", "y", "z"))

    def poly(max_terms, max_exp):
        terms = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
            mono = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(3))
            if field.is_rational:
                c = Fraction(draw(st.fractions(min_value=-4, max_value=4, max_denominator=3)))
            else:
                c = draw(st.integers(min_value=0, max_value=field.p - 1))
            terms.append((mono, c))
        return ring.from_terms(terms)

    bases = [GroebnerBasis.of([poly(3, 2) for _ in range(draw(st.integers(1, 3)))], order)
             for _ in range(draw(st.integers(1, 2)))]
    bases.append(GroebnerBasis(ring, order, tuple(poly(3, 2) for _ in range(draw(st.integers(0, 3))))))
    polys = [poly(5, 3) for _ in range(draw(st.integers(1, 4)))]
    return ring, bases, polys


@given(bases_and_polys())
@settings(max_examples=60, deadline=None)
def test_kept_reducers_give_the_per_call_normal_form(case):
    ring, bases, polys = case
    # each f on every basis in turn, all of it twice, then f = 0
    for f in polys + polys + [ring.zero()]:
        for gb in bases:
            got = gb.normal_form(f)
            want = ref_normal_form(f, gb.polys, gb.order)
            assert got.ring == want.ring
            assert got.terms == want.terms
            assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]
            assert gb.contains(f) == want.is_zero()
            if f.is_zero():
                assert got.is_zero()


def test_prepared_reducers_leave_equality_and_hash_alone():
    gens = [P("x^2 - y", RXY), P("x*y - 1", RXY)]
    a, b = GroebnerBasis.of(gens), GroebnerBasis.of(gens)
    assert a == b and hash(a) == hash(b)
    assert a.contains(P("x^3 - x*y", RXY))
    assert "_reducers" in vars(a) and "_reducers" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b}) == 1


def test_membership_refuses_a_polynomial_from_another_ring():
    # Without the ring check, x^2*z reduces to y, and 3*x^2 - 3*y over GF(7)
    # counts as contained.
    gb = GroebnerBasis.of([P("x^2 - y", RXY)])
    assert gb.contains(P("3*x^2 - 3*y", RXY))
    for f in (P("x^2*z"), PolyRing(GF(7), ("x", "y")).parse_poly("3*x^2 - 3*y"), RXYZ.zero()):
        with pytest.raises(DomainMismatchError):
            gb.normal_form(f)
        with pytest.raises(DomainMismatchError):
            gb.contains(f)


# Exact reduced bases, printed order included: the order of a basis is part
# of the determinism contract.
PINNED_BASES = [
    ("Q[x,y,z]", GREVLEX, ["x^2 - y", "x^3 - z"],
     ["x^2 - y", "x*y - z", "y^2 - x*z"]),
    ("Q[x,y,z]", LEX, ["x^2 - y", "x^3 - z"],
     ["x^2 - y", "x*y - z", "-y^2 + x*z", "y^3 - z^2"]),
    ("Q[x,y,z]", GREVLEX, ["x + y + z", "x*y + y*z + x*z", "x*y*z - 1"],
     ["z^3 - 1", "y^2 + y*z + z^2", "x + y + z"]),
    ("Q[x,y,z]", LEX, ["x + y + z", "x*y + y*z + x*z", "x*y*z - 1"],
     ["x + y + z", "y^2 + y*z + z^2", "z^3 - 1"]),
    ("Q[x,y,z]", GREVLEX, ["2*x^2 + 3*y*z - 1/2", "x*y - z^2 + 1", "y^2 - x*z"],
     ["z^4 - 1/10*x*z - 7/5*z^2 + 2/5", "x*z^2 - 2/5*x - 1/10*y",
      "y*z^2 - 2/5*y - 1/10*z", "x^2 + 3/2*y*z - 1/4", "x*y - z^2 + 1", "y^2 - x*z"]),
    ("Fp:7[x,y]", GREVLEX, ["x^2 + y", "x*y + 3"], ["x^2 + y", "x*y + 3", "y^2 + 4*x"]),
    ("Fp:7[x,y]", LEX, ["x^2 + y", "x*y + 3"], ["2*y^2 + x", "y^3 + 2"]),
    ("Fp:7[x,y,z]", GREVLEX, ["3*x^2*y + z", "y^2 - 2*x*z", "z^3 + x"],
     ["x^4 + 6*x*y", "x^3*z + 6*y*z", "x^2*y + 5*z", "z^3 + x", "y^2 + 5*x*z"]),
    ("Fp:7[x,y,z]", LEX, ["3*x^2*y + z", "y^2 - 2*x*z", "z^3 + x"],
     ["z^3 + x", "2*z^4 + y^2", "z^10 + y*z", "z^15 + 2*z"]),
    ("Q[t,x,y]", block_order(1), ["x - t^2 - t", "y - t^3"],
     ["t^2 + t - x", "t*x + t - x - y", "-x^2 + t*y - t + x + 2*y", "x^3 - 3*x*y - y^2 - y"]),
    ("Fp:7[t,x,y]", block_order(1), ["x - t^2 - t", "y - t^3"],
     ["t^2 + t + 6*x", "t*x + t + 6*x + 6*y", "6*x^2 + t*y + 6*t + x + 2*y",
      "x^3 + 4*x*y + 6*y^2 + 6*y"]),
]


@pytest.mark.parametrize("ring, order, gens, expected", PINNED_BASES)
def test_reduced_bases_are_pinned(ring, order, gens, expected):
    ring = PolyRing.parse(ring)
    gb = buchberger([ring.parse_poly(g) for g in gens], order)
    assert [str(g) for g in gb] == expected


@pytest.mark.parametrize(
    "ring, k, gens, expected",
    [
        ("Q[t,x,y]", 1, ["x - t^2 - t", "y - t^3"], ["x^3 - 3*x*y - y^2 - y"]),
        ("Fp:7[t,x,y]", 1, ["x - t^2 - t", "y - t^3"], ["x^3 + 4*x*y + 6*y^2 + 6*y"]),
        ("Q[s,t,x,y,z]", 2, ["x - s*t", "y - s^2", "z - t^2"], ["x^2 - y*z"]),
    ],
)
def test_eliminated_bases_are_pinned(ring, k, gens, expected):
    ring = PolyRing.parse(ring)
    assert [str(g) for g in eliminate([ring.parse_poly(g) for g in gens], k)] == expected


@st.composite
def small_ideals(draw):
    field = draw(st.sampled_from([QQ, GF(7), GF(101)]))
    ring = PolyRing(field, ("x", "y", "z"))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        terms = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            mono = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(3))
            terms.append((mono, field.from_int(draw(st.integers(min_value=-4, max_value=4)))))
        gens.append(ring.from_terms(terms))
    return ring, gens


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_buchberger_matches_sympy_grevlex(case):
    ring, gens = case
    fld = ring.field
    syms = sympy.symbols(ring.variables)
    opts = {"domain": "QQ"} if fld.is_rational else {"modulus": fld.p}
    exprs = [
        sympy.Poly.from_dict({m: sympy.Rational(c) if fld.is_rational else c for m, c in g.terms},
                             *syms, **opts).as_expr()
        for g in gens
    ]

    def coeff(c):
        if fld.is_rational:
            return Fraction(int(c.p), int(c.q))
        return int(c) % fld.p

    theirs = set()
    for g in sympy.groebner(exprs, *syms, order="grevlex", **opts).exprs:
        terms = sympy.Poly(g, *syms, **opts).terms()
        g = ring.from_terms((m, coeff(c)) for m, c in terms)
        theirs.add(g.scale(fld.inv(leading(g, GREVLEX)[1])))
    assert set(buchberger(gens, GREVLEX)) == theirs


# -- radical membership --------------------------------------------------------------


def test_radical_membership_basics():
    assert radical_member(P("x", RXY), [P("x^2", RXY)])
    assert not radical_member(P("x", RXY), [P("y", RXY)])
    # (x+y)^4 lies in (x^2, y^3); cross-check via an explicit power
    gens = [P("x^2", RXY), P("y^3", RXY)]
    f = P("x + y", RXY)
    assert radical_member(f, gens)
    gb = GroebnerBasis.of(gens, GREVLEX)
    assert gb.normal_form(f ** 4).is_zero()
    assert not radical_member(RXY.one(), [P("x", RXY)])


def test_radical_equal_distinguishes():
    assert radical_equal([P("x^2", RXY)], [P("x", RXY)])
    assert not radical_equal([P("x", RXY)], [P("y", RXY)])


def test_radical_membership_refuses_generators_from_another_ring():
    """Mixed rings raise before the memo is asked, so no mixed key enters it.
    Unchecked, the generators were padded to the wrong width: x was
    reported in the radical of (x^2) from Q[x,y,z], and x + y not in that
    of (x*z)."""
    x = P("x", RXY)
    held = polyring._radical_member.cache_info().currsize
    for f, gens in ((x, [P("x^2")]), (P("x + y", RXY), [P("x*z")]), (RXY.zero(), [P("x")]),
                    (x, (P("x^2", RXY), P("x")))):
        with pytest.raises(DomainMismatchError):
            radical_member(f, gens)
    with pytest.raises(DomainMismatchError):
        ideal_contains_radical([x], [P("x^2")])
    with pytest.raises(DomainMismatchError):
        radical_equal([P("x^2")], [x])
    assert polyring._radical_member.cache_info().currsize == held


def test_radical_memo_keeps_the_field_apart():
    """x + 3 lies in the radical of x^2 + 6x + 2 = (x - 4)^2 over GF(7) but
    not over QQ, where the quadratic is irreducible: the same term data,
    asked in both orders, with the memo cleared and then warm."""
    rq, r7 = PolyRing(QQ, ("x",)), PolyRing(GF(7), ("x",))
    polyring._radical_member.cache_clear()
    for ring in (rq, r7, r7, rq):
        f, g = P("x + 3", ring), P("x^2 + 6*x + 2", ring)
        assert radical_member(f, [g]) == (ring is r7)
        assert radical_member(f, (g,)) == (ring is r7)


def test_radical_membership_on_a_ring_with_a_variable_named_t():
    """The extra variable takes a name the ring does not use.  It was always
    `_t`, so on Q[_t, x] every radical question raised a duplicate-variable
    error."""
    for names in (("_t", "x"), ("_t", "_t_", "x")):
        ring = PolyRing(QQ, names)
        x, t = ring.var("x"), ring.var("_t")
        assert radical_member(x, [x**2])
        assert not radical_member(x + ring.one(), [x**2])
        assert radical_equal([t**3], [t])


@st.composite
def radical_questions(draw):
    """Term data in x, y with coefficients in 1..6, so that it reads the same
    over QQ and GF(7): one poly and one or two generators."""
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)
    term = st.tuples(mono, st.integers(min_value=1, max_value=6))
    poly = st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[0])
    return draw(poly), draw(st.lists(poly, min_size=1, max_size=2))


@given(radical_questions())
@settings(max_examples=60, deadline=None)
def test_memoised_radical_membership_matches_the_uncached_computation(case):
    f_terms, gens_terms = case
    uncached = polyring._radical_member.__wrapped__
    for field in (QQ, GF(7), QQ):
        ring = PolyRing(field, ("x", "y"))

        def build(terms):
            return ring.from_terms((m, field.from_int(c)) for m, c in terms)

        f, gens = build(f_terms), [build(t) for t in gens_terms]
        want = uncached(f, tuple(gens))
        assert radical_member(f, gens) == want
        assert radical_member(f, tuple(gens)) == want


# -- intersections and elimination -------------------------------------------------


def test_ideal_intersection_textbook():
    inter = ideal_intersection([P("x", RXY)], [P("y", RXY)])
    assert radical_equal(inter, [P("x*y", RXY)])
    gb = GroebnerBasis.of(inter, GREVLEX)
    assert gb.contains(P("x*y", RXY))
    assert not gb.contains(P("x", RXY))


def test_ideal_intersection_refuses_generators_from_another_ring():
    """Unchecked, both answered [x*y]: over GF(7) 8*y reads as y, and v in
    Q[u, v] has the exponents of y."""
    for other in (P("8*y", PolyRing(GF(7), ("x", "y"))), P("v", PolyRing(QQ, ("u", "v")))):
        with pytest.raises(DomainMismatchError):
            ideal_intersection([P("x", RXY)], [other])


def ref_ideal_intersection(a, b):
    """The tag-variable intersection, kept as the oracle: the generators
    of t (a) + (1 - t) (b) in A[t] that eliminating t leaves."""
    a, b = list(a), list(b)
    if not a or not b:
        return []
    ring = a[0].ring
    big = polyring.ring_with_prefix(ring, ("_t",))
    t = big.var("_t")
    gens = [t * polyring.lift_to_prefix(f, big, 1) for f in a]
    gens += [(big.one() - t) * polyring.lift_to_prefix(g, big, 1) for g in b]
    return eliminate(gens, 1)


@st.composite
def intersection_cases(draw):
    """Two lists of 0-3 polys in x, y, z over QQ or GF(7), zero polys
    included, with up to 3 squarefree terms: with squares, some random pairs
    of ideals take minutes on either path."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    ring = PolyRing(field, ("x", "y", "z"))
    mono = st.tuples(*[st.integers(min_value=0, max_value=1)] * 3)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)

    def poly():
        terms = draw(st.lists(st.tuples(mono, coeff), max_size=3))
        return ring.from_terms((m, field.from_fraction(c.numerator, c.denominator))
                               for m, c in terms)

    side = st.integers(min_value=0, max_value=3)
    return [poly() for _ in range(draw(side))], [poly() for _ in range(draw(side))]


@given(intersection_cases())
@settings(max_examples=150, deadline=None)
def test_ideal_intersection_agrees_with_the_tag_variable_oracle(case):
    a, b = case
    assert ideal_intersection(a, b) == ref_ideal_intersection(a, b)


def test_eliminate_twisted_cubic_relations():
    gens = [P("y - x^2"), P("z - x^3")]
    out = eliminate(gens, 1)  # drop x
    ryz = PolyRing(QQ, ("y", "z"))
    assert out == [ryz.parse_poly("y^3 - z^2")]


def test_proper_ideal_detector():
    assert ideal_is_proper([P("x", RXY)])
    assert not ideal_is_proper([P("x", RXY), P("x - 1", RXY)])


def test_radical_containment_for_sum_products():
    # rad(I J) = rad(I cap J) on a seeded example
    i1 = [P("x", RXY)]
    i2 = [P("x - 1", RXY), P("y", RXY)]
    prod = [f * g for f in i1 for g in i2]
    inter = ideal_intersection(i1, i2)
    assert ideal_contains_radical(prod, inter)
    assert ideal_contains_radical(inter, prod)

