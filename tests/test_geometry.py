"""Closed sets, sites, and site spaces.

The point-membership oracle used below is direct evaluation: a rational
point lies in V(I) iff every generator vanishes at it.  Images of closed
sets under invariant maps are cross-checked against hand-derived ideals.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit import geometry
from ttkit.errors import ValidationError
from ttkit.fields import GF
from ttkit.geometry import (
    ClosedSet,
    PrimeSite,
    SiteSpace,
    check_univariate_irreducible,
    closed_contains,
    closed_equal,
    closed_union,
    image_closed_under_map,
    site_in_closed,
    site_specializes,
)
from ttkit.polyring import PolyRing, radical_equal


A1 = PolyRing.parse("Q[x]")
A2 = PolyRing.parse("Q[x,y]")


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
        assert ClosedSet.whole(A1).is_whole()
        assert ClosedSet.empty(A1).is_empty()
        assert not ClosedSet.empty(A1).is_whole()
        x = A1.var("x")
        # V(x) cup V(x-1) neither whole nor empty
        u = closed_union(ClosedSet(A1, (x,)), ClosedSet(A1, (x - 1,)))
        assert not u.is_whole() and not u.is_empty()

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
        assert sp.specializations("eta") == {"eta", "origin", "one"}
        assert sp.specializations("origin") == {"origin"}
        assert not site_specializes(sp.site("origin"), sp.site("one"))

    def test_specialization_order_on_plane(self):
        sp = a2_space()
        sp.validate()
        assert sp.specializations("x-axis") == {"x-axis", "origin"}
        assert sp.specializations("parabola") == {"parabola", "origin", "(2,4)"}
        assert sp.specializations("y-axis") == {"y-axis", "origin"}

    def test_specialization_map_cache_evicts_oldest_past_its_bound(self, monkeypatch):
        monkeypatch.setattr(geometry, "_SPEC_MAP_CACHE", {})
        monkeypatch.setattr(geometry, "_SPEC_MAP_CACHE_MAX", 2)
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
        assert list(geometry._SPEC_MAP_CACHE) == spaces[2:]  # the two oldest are gone
        for sp in spaces:
            assert sp.specialization_map() == {"eta": {"eta", "pt"}, "pt": {"pt"}}
        assert len(geometry._SPEC_MAP_CACHE) == 2

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
