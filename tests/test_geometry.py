"""Closed sets, sites, and site spaces.

The point-membership oracle used below is direct evaluation: a rational
point lies in V(I) iff every generator vanishes at it.  Images of closed
sets under invariant maps are cross-checked against hand-derived ideals.
"""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit import geometry, memo
from ttkit.errors import ValidationError
from ttkit.fields import GF, QQ
from ttkit.geometry import (
    ClosedSet,
    PrimeSite,
    SiteSpace,
    check_univariate_irreducible,
    closed_contains,
    closed_equal,
    closed_union,
    image_closed_under_map,
    is_certified_prime,
    site_in_closed,
    site_specializes,
)
from ttkit.polyring import PolyRing, radical_equal


A1 = PolyRing.parse("Q[x]")
A2 = PolyRing.parse("Q[x,y]")


def trial_division_irreducible(coeffs, p):
    """Oracle: no monic polynomial of degree 1..deg/2 divides f over GF(p)."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] % p == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg <= 0:
        return False

    def rem(num, den):
        num = list(num)
        while len(num) >= len(den):
            factor = num[-1]
            shift = len(num) - len(den)
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - factor * c) % p
            while num and num[-1] == 0:
                num.pop()
        return num

    inv = pow(coeffs[-1], p - 2, p)
    monic = [c * inv % p for c in coeffs]
    return not any(
        not rem(monic, list(tail) + [1])
        for d in range(1, deg // 2 + 1)
        for tail in product(range(p), repeat=d)
    )


def point_in_closed(c, values):
    """Evaluation oracle: all generators vanish at the rational point."""
    consts = [c.ring.const(c.ring.field.from_int(v)) for v in values]
    return all(g.substitute(consts).is_zero() for g in c.generators)


class TestClosedSets:
    def test_radical_comparison(self):
        x = A1.var("x")
        assert closed_equal(ClosedSet(A1, (x * x,)), ClosedSet(A1, (x,)))
        assert closed_contains(ClosedSet(A1, (x,)), ClosedSet(A1, (x * x,)))

    def test_union_is_product(self):
        x, y = A2.gens()
        u = closed_union(ClosedSet(A2, (x,)), ClosedSet(A2, (y,)))
        assert closed_equal(u, ClosedSet(A2, (x * y,)))

    def test_whole_and_empty(self):
        empty = ClosedSet.empty(A1)
        assert ClosedSet.whole(A1).is_whole()
        assert not empty.is_whole()
        x = A1.var("x")
        # V(x) cup V(x-1) neither whole nor empty
        u = closed_union(ClosedSet(A1, (x,)), ClosedSet(A1, (x - 1,)))
        assert not u.is_whole() and not closed_contains(empty, u)

    def test_union_against_point_oracle(self):
        x, y = A2.gens()
        c = ClosedSet(A2, (x - 1,))
        d = ClosedSet(A2, (y - 2,))
        u = closed_union(c, d)
        for pt in [(1, 5), (3, 2), (1, 2), (0, 0)]:
            expected = point_in_closed(c, pt) or point_in_closed(d, pt)
            assert point_in_closed(u, pt) == expected


class TestIrreducibilityCertificates:
    def test_linear_always_passes(self):
        check_univariate_irreducible(A1.parse_poly("x - 5"))

    def test_rational_quadratic(self):
        check_univariate_irreducible(A1.parse_poly("x^2 - 2"))
        with pytest.raises(ValidationError):
            check_univariate_irreducible(A1.parse_poly("x^2 - 1"))

    def test_rational_cubic(self):
        check_univariate_irreducible(A1.parse_poly("x^3 - 2"))
        with pytest.raises(ValidationError):
            check_univariate_irreducible(A1.parse_poly("x^3 - 8"))
        # non-monic with fractional root 2/3
        with pytest.raises(ValidationError):
            check_univariate_irreducible(A1.parse_poly("3*x^3 - 2*x^2"))

    def test_rational_quartic_unsupported(self):
        with pytest.raises(ValidationError):
            check_univariate_irreducible(A1.parse_poly("x^4 + 1"))

    def test_finite_field_trial_division(self):
        B = PolyRing(GF(7), ("x",))
        # -1 is not a square mod 7, 2 is (3^2 = 2)
        check_univariate_irreducible(B.parse_poly("x^2 + 1"))
        with pytest.raises(ValidationError):
            check_univariate_irreducible(B.parse_poly("x^2 - 2"))
        # x^3 - 2: cubes mod 7 are 0,1,6 so 2 is not a cube
        check_univariate_irreducible(B.parse_poly("x^3 - 2"))

    def test_multivariate_rejected(self):
        with pytest.raises(ValidationError):
            check_univariate_irreducible(A2.parse_poly("x*y - 1"))

    @given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_distinct_degree_test_matches_trial_division(self, p, data):
        coeffs = data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                                    min_size=2, max_size=5))
        assert geometry._fp_irreducible(coeffs, p) == trial_division_irreducible(coeffs, p)

    def test_distinct_degree_test_on_every_small_polynomial(self):
        for p, deg in ((2, 4), (3, 4), (5, 3)):
            for coeffs in product(range(p), repeat=deg + 1):
                assert geometry._fp_irreducible(coeffs, p) == trial_division_irreducible(
                    coeffs, p), (p, coeffs)

    @pytest.mark.parametrize("p, irreducible", [(1009, True), (32003, False)])
    def test_large_primes_are_decided_quickly(self, p, irreducible):
        # x^4 + 11 is irreducible mod 1009; mod 32003 it is
        # (x + 183)(x - 183)(x^2 + 1486).  Trial division needs p^2 candidates.
        g = PolyRing(GF(p), ("x",)).parse_poly("x^4 + 11")
        start = time.perf_counter()
        if irreducible:
            check_univariate_irreducible(g)
        else:
            with pytest.raises(ValidationError):
                check_univariate_irreducible(g)
        assert time.perf_counter() - start < 1.0

    def test_divisors_match_a_full_scan(self):
        for n in range(1, 600):
            assert geometry._divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    @pytest.mark.parametrize("text, irreducible", [
        ("x^2 + 10000019", True),
        ("x^2 + 1000000000000", True),
        ("x^2 - 1000000000000", False),
        ("4*x^2 - 1000000000000", False),
        ("x^2 + 10000000000000000", True),
        ("x^2 + 1000000000000000000", True),
        # cubics past the bound get no certificate, reducible or not
        ("x^3 - 1000000000000000", False),
        ("x^3 - 2000000000000000", False),
    ])
    def test_large_constant_terms_are_decided_quickly(self, text, irreducible):
        start = time.perf_counter()
        if irreducible:
            check_univariate_irreducible(A1.parse_poly(text))
        else:
            with pytest.raises(ValidationError):
                check_univariate_irreducible(A1.parse_poly(text))
        assert time.perf_counter() - start < 1.0


class TestPrimeSites:
    def test_rational_point_accepts(self):
        x, y = A2.gens()
        PrimeSite("p", A2, (x - 1, y - 2), "rational-point").validate()

    def test_rational_point_rejects_nonlinear(self):
        x, y = A2.gens()
        with pytest.raises(ValidationError):
            PrimeSite("p", A2, (x * x - 1, y), "rational-point").validate()

    def test_rational_point_rejects_mixed_linear(self):
        x, y = A2.gens()
        with pytest.raises(ValidationError):
            PrimeSite("p", A2, (x + y - 1, x), "rational-point").validate()

    def test_rational_point_must_pin_all_variables(self):
        x, _ = A2.gens()
        with pytest.raises(ValidationError):
            PrimeSite("p", A2, (x - 1,), "rational-point").validate()

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValidationError):
            PrimeSite("p", A1, (A1.one(),), "declared").validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            PrimeSite("p", A1, (), "open")

    @pytest.mark.parametrize("ring, text, kind, certified", [
        (A1, "", "declared", True),                      # the zero ideal
        (A1, "0", "declared", True),
        (A1, "x - 2", "declared", True),
        (A2, "x, y", "declared", True),
        (A2, "x + y - 2", "declared", True),
        (A2, "x - 1, y - 1", "rational-point", True),
        (A1, "x^2 + 1", "principal-irreducible", True),
        (PolyRing.parse("Fp:7[x,y]"), "x^2 + 1", "principal-irreducible", True),
        (A1, "x^2 + 1", "declared", False),              # not principal-irreducible
        (A1, "x^2 - 1", "principal-irreducible", False),  # reducible
        (A2, "x*y - 1", "principal-irreducible", False),  # no certificate
        (A1, "x, x - 1", "declared", False),             # linear but the unit ideal
        (A1, "1", "declared", False),
    ])
    def test_certified_primes_are_read_off_the_generators(self, ring, text, kind,
                                                           certified):
        gens = tuple(ring.parse_poly(t) for t in text.split(",")) if text else ()
        assert is_certified_prime(PrimeSite("p", ring, gens, kind)) == certified

    def test_membership_matches_evaluation(self):
        x, y = A2.gens()
        site = PrimeSite("p", A2, (x - 1, y - 2), "rational-point")
        for gens, pt in [((x - 1,), (1, 2)), ((y,), (1, 2)), ((x + y - 3,), (1, 2))]:
            c = ClosedSet(A2, gens)
            assert site_in_closed(site, c) == point_in_closed(c, pt)


def a1_space():
    x = A1.var("x")
    return SiteSpace(
        A1,
        (
            PrimeSite("eta", A1, (), "declared"),
            PrimeSite("origin", A1, (x,), "rational-point"),
            PrimeSite("one", A1, (x - 1,), "rational-point"),
        ),
    )


def a2_space():
    x, y = A2.gens()
    return SiteSpace(
        A2,
        (
            PrimeSite("eta", A2, (), "declared"),
            PrimeSite("x-axis", A2, (y,), "declared"),
            PrimeSite("y-axis", A2, (x,), "declared"),
            PrimeSite("parabola", A2, (y - x * x,), "declared"),
            PrimeSite("origin", A2, (x, y), "rational-point"),
            PrimeSite("(2,4)", A2, (x - 2, y - 4), "rational-point"),
        ),
    )


class TestSiteSpaces:
    def test_duplicate_labels_rejected(self):
        x = A1.var("x")
        with pytest.raises(ValidationError):
            SiteSpace(A1, (PrimeSite("p", A1, (x,)), PrimeSite("p", A1, (x - 1,))))

    def test_duplicate_ideals_up_to_radical_rejected(self):
        x = A1.var("x")
        sp = SiteSpace(A1, (PrimeSite("a", A1, (x,)), PrimeSite("b", A1, (x * x,))))
        with pytest.raises(ValidationError):
            sp.validate()

    def test_specialization_order_on_line(self):
        sp = a1_space()
        sp.validate()
        spec = sp.specialization_map()
        assert spec["eta"] == {"eta", "origin", "one"}
        assert spec["origin"] == {"origin"}
        assert not site_specializes(sp.site("origin"), sp.site("one"))

    def test_specialization_order_on_plane(self):
        sp = a2_space()
        sp.validate()
        spec = sp.specialization_map()
        assert spec["x-axis"] == {"x-axis", "origin"}
        assert spec["parabola"] == {"parabola", "origin", "(2,4)"}
        assert spec["y-axis"] == {"y-axis", "origin"}

    def test_specialization_maps_stay_right_past_the_memo_bound(self, monkeypatch):
        monkeypatch.setattr(geometry, "_SPEC_MAP_CACHE", {})
        monkeypatch.setattr(memo, "MEMO_SIZE", 2)
        x = A1.var("x")
        spaces = [
            SiteSpace(
                A1,
                (
                    PrimeSite("eta", A1, (), "declared"),
                    PrimeSite("pt", A1, (x - k,), "rational-point"),
                ),
            )
            for k in range(4)
        ]
        for sp in spaces:
            sp.specialization_map()
        for sp in spaces:
            assert sp.specialization_map() == {"eta": {"eta", "pt"}, "pt": {"pt"}}
        assert len(geometry._SPEC_MAP_CACHE) == 2

    def test_equal_spaces_hash_alike_once_and_share_one_cache_entry(self, monkeypatch):
        """A space hashes its sites once; equal spaces built separately hash
        alike, as the dataclass hash did, and meet in one cache entry."""
        monkeypatch.setattr(geometry, "_SPEC_MAP_CACHE", {})
        sp, other = a2_space(), a2_space()
        assert sp is not other and sp == other
        assert hash(sp) == hash(other) == hash((sp.ring, sp.sites))
        site_hashes = []
        site_hash = PrimeSite.__hash__
        monkeypatch.setattr(PrimeSite, "__hash__",
                            lambda site: site_hashes.append(site) or site_hash(site))
        spec = sp.specialization_map()
        for _ in range(10):
            assert sp.specialization_map() is spec
            assert other.specialization_map() is spec
        assert len(geometry._SPEC_MAP_CACHE) == 1
        assert site_hashes == []

    def test_closed_subsets_of_line_enumerated(self):
        # closure demands: eta forces everything, points are closed
        expected = [
            frozenset(),
            frozenset({"one"}),
            frozenset({"origin"}),
            frozenset({"one", "origin"}),
            frozenset({"eta", "one", "origin"}),
        ]
        assert a1_space().all_specialization_closed_subsets() == expected

    def test_sites_in_closed(self):
        sp = a2_space()
        x, y = A2.gens()
        assert sp.sites_in_closed(ClosedSet(A2, (y,))) == {"x-axis", "origin"}
        assert sp.sites_in_closed(ClosedSet.whole(A2)) == frozenset(sp.labels())
        assert sp.sites_in_closed(ClosedSet.empty(A2)) == frozenset()

    @given(st.sets(st.sampled_from(["eta", "x-axis", "y-axis", "parabola", "origin", "(2,4)"])))
    @settings(max_examples=25, deadline=None)
    def test_closure_operator_laws(self, labels):
        sp = a2_space()
        cl = sp.closure_of(labels)
        assert labels <= cl
        assert sp.closure_of(cl) == cl
        assert sp.is_specialization_closed(cl)


class TestClosedImages:
    def test_squaring_map_on_line(self):
        # u = x^2 identifies +-1; hand-derived images
        U = PolyRing.parse("Q[u]")
        x = A1.var("x")
        sq = [x * x]
        img = image_closed_under_map(ClosedSet(A1, (x,)), sq, U)
        assert closed_equal(img, ClosedSet(U, (U.var("u"),)))
        img = image_closed_under_map(ClosedSet(A1, (x * x - 1,)), sq, U)
        assert closed_equal(img, ClosedSet(U, (U.var("u") - 1,)))
        img = image_closed_under_map(ClosedSet(A1, (x - 1,)), sq, U)
        assert closed_equal(img, ClosedSet(U, (U.var("u") - 1,)))
        img = image_closed_under_map(ClosedSet.whole(A1), sq, U)
        assert img.is_whole()

    def test_symmetric_functions_send_diagonal_to_discriminant(self):
        # s = x+y, p = xy map the diagonal x=y onto s^2 = 4p
        T = PolyRing.parse("Q[s,p]")
        x, y = A2.gens()
        img = image_closed_under_map(ClosedSet(A2, (x - y,)), [x + y, x * y], T)
        s, p = T.gens()
        assert radical_equal(list(img.generators), [s * s - 4 * p])

    def test_point_image(self):
        T = PolyRing.parse("Q[s,p]")
        x, y = A2.gens()
        img = image_closed_under_map(ClosedSet(A2, (x - 2, y - 3,)), [x + y, x * y], T)
        s, p = T.gens()
        assert closed_equal(img, ClosedSet(T, (s - 5, p - 6)))

    def test_variable_name_clash_rejected(self):
        x = A1.var("x")
        with pytest.raises(ValidationError):
            image_closed_under_map(ClosedSet(A1, (x,)), [x * x], A1)


@st.composite
def image_questions(draw):
    """Term data in x, y with coefficients in 1..6, so that it reads the same
    over QQ and GF(7): up to two generators of a closed set, and the images
    of s and p."""
    mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)
    term = st.tuples(mono, st.integers(min_value=1, max_value=6))
    poly = st.lists(term, min_size=1, max_size=2, unique_by=lambda t: t[0])
    return draw(st.lists(poly, max_size=2)), draw(st.lists(poly, min_size=2, max_size=2))


@given(image_questions())
@settings(max_examples=40, deadline=None)
def test_memoised_images_match_the_uncached_elimination(case):
    gens_terms, image_terms = case
    memo = geometry._image_closed_under_map
    hits = memo.cache_info().hits
    for field in (QQ, GF(7), QQ):
        src, target = PolyRing(field, ("x", "y")), PolyRing(field, ("s", "p"))

        def build(terms):
            return src.from_terms((m, field.from_int(c)) for m, c in terms)

        c = ClosedSet(src, tuple(build(t) for t in gens_terms))
        images = [build(t) for t in image_terms]
        want = memo.__wrapped__(c, tuple(images), target)
        assert image_closed_under_map(c, images, target) == want
        assert image_closed_under_map(c, tuple(images), target) == want
    assert memo.cache_info().hits >= hits + 4
