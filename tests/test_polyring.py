import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:
    sympy = None

from ttkit.errors import ValidationError
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
    mono_mul,
    radical_equal,
    radical_member,
    s_poly,
)

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
    assert order.greater((1, 0, 0), (0, 5, 5))
    assert order.greater((1, 2, 0), (1, 0, 1)) == GREVLEX.greater((2, 0), (0, 1))


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
    p = P("3*x^2*y - 1/2*z + 1")
    assert p.coeff_of((2, 1, 0)) == Fraction(3)
    assert p.coeff_of((0, 0, 1)) == Fraction(-1, 2)
    assert p.coeff_of((0, 0, 0)) == Fraction(1)


def test_parse_implicit_multiplication():
    assert P("2x y^2") == P("2*x*y^2")
    assert P("x x") == P("x^2")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValidationError):
        P("x + w")


def test_parse_fp_coefficients():
    ring = PolyRing(GF(7), ("x",))
    p = ring.parse_poly("10*x - 3")
    assert p.coeff_of((1,)) == 3
    assert p.coeff_of((0,)) == 4


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
        theirs.add(ring.from_terms((m, coeff(c)) for m, c in terms).monic(GREVLEX))
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


# -- intersections and elimination -------------------------------------------------


def test_ideal_intersection_textbook():
    inter = ideal_intersection([P("x", RXY)], [P("y", RXY)])
    assert radical_equal(inter, [P("x*y", RXY)])
    gb = GroebnerBasis.of(inter, GREVLEX)
    assert gb.contains(P("x*y", RXY))
    assert not gb.contains(P("x", RXY))


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

