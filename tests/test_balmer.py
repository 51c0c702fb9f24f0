"""Support-data axioms, the classification bijection, and the spectrum.

Most fixtures declare profiles by hand so the set combinatorics is tested
on its own; the affine superline model at the end feeds real supports
computed from Koszul complexes through the same machinery.
"""

import pytest

from ttkit.balmer import (
    SupportDatum,
    SupportProfile,
    build_spc,
    check_classification,
    check_homeomorphism,
    eta,
    induced_site_map,
    induced_spc_map,
    realize_subset,
    theta,
    verify_support_datum,
)
from ttkit.errors import DomainMismatchError, PreconditionError, ValidationError
from ttkit.fields import QQ
from ttkit.geometry import PrimeSite, SiteSpace
from ttkit.polyring import PolyRing
from ttkit.supermod import (
    SuperAlgebra,
    SuperComplex,
    koszul_complex_super,
    shift_supercomplex,
    supph_super,
    tensor_supercomplexes,
    direct_sum_supercomplex,
)


def sierpinski():
    ring = PolyRing(QQ, ("x",))
    x = ring.var("x")
    return SiteSpace(ring, (
        PrimeSite("closed", ring, (x,)),
        PrimeSite("generic", ring, ()),
    ))


def sierpinski_datum():
    space = sierpinski()
    every = frozenset(space.labels())
    objs = (
        SupportProfile("zero", frozenset()),
        SupportProfile("unit", every),
        SupportProfile("sky", frozenset({"closed"})),
        SupportProfile("sky1", frozenset({"closed"})),
    )
    return SupportDatum(
        space, "unit", "zero", objs,
        tensors=(("sky", "sky", "sky"), ("unit", "sky", "sky")),
        triangles=(("sky", "sky", "sky1"),),
        sums=(("zero", "sky", "sky"), ("sky", "unit", "unit")),
        shifts=(("sky", "sky1"),),
    )


def line_space():
    """Three closed points and the generic point of the affine line."""
    ring = PolyRing(QQ, ("x",))
    x = ring.var("x")
    one = ring.one()
    return ring, SiteSpace(ring, (
        PrimeSite("origin", ring, (x,)),
        PrimeSite("one", ring, (x - one,)),
        PrimeSite("minus", ring, (x + one,)),
        PrimeSite("generic", ring, ()),
    ))


def line_datum():
    """Every specialization-closed subset realized by a declared object."""
    _, space = line_space()
    every = frozenset(space.labels())
    points = ("origin", "one", "minus")
    objs = [SupportProfile("zero", frozenset()), SupportProfile("unit", every)]
    for p in points:
        objs.append(SupportProfile(f"sky[{p}]", frozenset({p})))
    objs.append(SupportProfile("pair[origin,one]", frozenset({"origin", "one"})))
    objs.append(SupportProfile("pair[origin,minus]", frozenset({"origin", "minus"})))
    objs.append(SupportProfile("pair[one,minus]", frozenset({"one", "minus"})))
    objs.append(SupportProfile("allpoints", frozenset(points)))
    tensors = (
        ("sky[origin]", "sky[one]", "zero"),
        ("pair[origin,one]", "pair[origin,minus]", "sky[origin]"),
        ("unit", "allpoints", "allpoints"),
    )
    sums = (
        ("sky[origin]", "sky[one]", "pair[origin,one]"),
        ("pair[origin,one]", "sky[minus]", "allpoints"),
    )
    triangles = (("sky[origin]", "sky[one]", "pair[origin,one]"),)
    shifts = (("allpoints", "allpoints"),)
    return SupportDatum(space, "unit", "zero", tuple(objs),
                        tensors=tensors, triangles=triangles,
                        sums=sums, shifts=shifts)


# -- datum validation and axioms ----------------------------------------------------


def test_trivial_datum_passes():
    space = sierpinski()
    objs = (SupportProfile("zero", frozenset()),
            SupportProfile("unit", frozenset(space.labels())))
    report = verify_support_datum(SupportDatum(space, "unit", "zero", objs))
    assert report.passed


def test_sierpinski_datum_passes_all_axioms():
    report = verify_support_datum(sierpinski_datum())
    assert report.passed
    assert [v.axiom for v in report.verdicts] == ["SD1", "SD2", "SD3", "SD4", "SD5"]


def test_profile_must_be_specialization_closed():
    space = sierpinski()
    # the generic point alone is not closed under specialization
    bad = SupportProfile("open", frozenset({"generic"}))
    with pytest.raises(ValidationError, match="specialization"):
        bad.validate(space)


def test_planted_sd5_violation_names_the_pair():
    space = sierpinski()
    every = frozenset(space.labels())
    objs = (
        SupportProfile("zero", frozenset()),
        SupportProfile("unit", every),
        SupportProfile("sky", frozenset({"closed"})),
        SupportProfile("wrong", every),
    )
    datum = SupportDatum(space, "unit", "zero", objs,
                         tensors=(("sky", "sky", "wrong"),))
    report = verify_support_datum(datum)
    assert not report.passed
    sd5 = report.verdict("SD5")
    assert not sd5.passed
    assert "sky" in sd5.counterexamples[0] and "wrong" in sd5.counterexamples[0]
    # the other axioms are untouched
    assert report.verdict("SD1").passed and report.verdict("SD4").passed


def test_unit_with_partial_support_fails_sd1():
    space = sierpinski()
    objs = (SupportProfile("zero", frozenset()),
            SupportProfile("unit", frozenset({"closed"})))
    report = verify_support_datum(SupportDatum(space, "unit", "zero", objs))
    assert not report.verdict("SD1").passed
    assert "generic" in report.verdict("SD1").counterexamples[0]


def test_cone_leak_fails_sd4():
    datum = sierpinski_datum()
    bad = SupportDatum(
        datum.space, datum.unit, datum.zero, datum.objects,
        triangles=(("zero", "sky", "unit"),))
    report = verify_support_datum(bad)
    assert not report.verdict("SD4").passed
    assert "generic" in report.verdict("SD4").counterexamples[0]


def test_duplicate_registration_rejected():
    space = sierpinski()
    objs = (SupportProfile("zero", frozenset()),
            SupportProfile("zero", frozenset()),
            SupportProfile("unit", frozenset(space.labels())))
    with pytest.raises(ValidationError, match="duplicate"):
        SupportDatum(space, "unit", "zero", objs).validate()


# -- classification ------------------------------------------------------------------------


def test_theta_needs_closed_input():
    with pytest.raises(PreconditionError, match="specialization-closed"):
        theta(sierpinski_datum(), {"generic"})


def test_theta_eta_round_trip_on_sierpinski():
    datum = sierpinski_datum()
    report = check_classification(datum)
    assert report.passed
    # three specialization-closed subsets on the Sierpinski space
    assert len(report.rows) == 3


def test_theta_lists_objects_in_registration_order():
    datum = sierpinski_datum()
    assert theta(datum, frozenset({"closed"})) == ("zero", "sky", "sky1")


def test_eta_unions_supports():
    datum = sierpinski_datum()
    assert eta(datum, ("zero", "sky")) == frozenset({"closed"})


def test_realizability_gap_is_named():
    space = sierpinski()
    objs = (SupportProfile("zero", frozenset()),
            SupportProfile("unit", frozenset(space.labels())))
    datum = SupportDatum(space, "unit", "zero", objs)
    with pytest.raises(PreconditionError, match="closed"):
        check_classification(datum)


def test_classification_exhaustive_on_the_line():
    datum = line_datum()
    report = check_classification(datum)
    assert report.passed
    # 8 subsets of the closed points plus the whole space
    assert len(report.rows) == 9


def test_realize_subset_returns_the_witness():
    datum = line_datum()
    assert realize_subset(datum, frozenset({"origin"})) == "sky[origin]"


# -- spectrum -------------------------------------------------------------------------------


def test_spc_has_one_prime_per_site_in_order():
    datum = line_datum()
    spc = build_spc(datum)
    assert [p.site_label for p in spc.primes] == list(datum.space.labels())


def test_prime_members_at_the_origin():
    spc = build_spc(line_datum())
    assert spc.prime_at("origin").members == (
        "zero", "sky[one]", "sky[minus]", "pair[one,minus]")


def test_spc_rejects_nonprime_profiles():
    space = sierpinski()
    every = frozenset(space.labels())
    objs = (
        SupportProfile("zero", frozenset()),
        SupportProfile("unit", every),
        SupportProfile("a", frozenset({"closed"})),
        SupportProfile("b", every),
        SupportProfile("ab", every),
    )
    # tensor support should be the intersection {closed}; whole-space output
    # breaks primality at the generic point
    datum = SupportDatum(space, "unit", "zero", objs,
                         tensors=(("a", "b", "ab"),))
    with pytest.raises(ValidationError, match="prime"):
        build_spc(datum)


def test_twisted_unit_must_be_everywhere():
    space = sierpinski()
    every = frozenset(space.labels())
    objs = (
        SupportProfile("zero", frozenset()),
        SupportProfile("unit", every),
        SupportProfile("twist", frozenset({"closed"})),
    )
    datum = SupportDatum(space, "unit", "zero", objs, twisted_units=("twist",))
    with pytest.raises(ValidationError, match="twisted unit"):
        build_spc(datum)
    good = SupportDatum(space, "unit", "zero", (
        objs[0], objs[1], SupportProfile("twist", every)),
        twisted_units=("twist",))
    build_spc(good).validate()


def test_homeomorphism_certificate_on_the_line():
    datum = line_datum()
    spc = build_spc(datum)
    report = check_homeomorphism(spc, datum.space)
    assert report.passed
    assert report.bijective and not report.collisions
    assert all(ok for _, ok in report.basic_closed_rows)


def test_homeomorphism_detects_collisions():
    space = sierpinski()
    objs = (SupportProfile("zero", frozenset()),
            SupportProfile("unit", frozenset(space.labels())))
    spc = build_spc(SupportDatum(space, "unit", "zero", objs))
    report = check_homeomorphism(spc, space)
    assert not report.passed
    assert report.collisions == (("closed", "generic"),)


def test_homeomorphism_requires_matching_space():
    datum = line_datum()
    spc = build_spc(datum)
    with pytest.raises(DomainMismatchError):
        check_homeomorphism(spc, sierpinski())


# -- induced map on spectra --------------------------------------------------------------


def quotient_spaces():
    """The line with a two-element symmetry downstairs of it."""
    ring = PolyRing(QQ, ("x",))
    x = ring.var("x")
    one = ring.one()
    upstairs = SiteSpace(ring, (
        PrimeSite("origin", ring, (x,)),
        PrimeSite("orbit", ring, (x * x - one,)),
        PrimeSite("generic", ring, ()),
    ))
    uring = PolyRing(QQ, ("u",))
    u = uring.var("u")
    downstairs = SiteSpace(uring, (
        PrimeSite("u0", uring, (u,)),
        PrimeSite("u1", uring, (u - uring.one(),)),
        PrimeSite("ugen", uring, ()),
    ))
    return ring, upstairs, downstairs


def quotient_data():
    ring, up, down = quotient_spaces()
    every_up = frozenset(up.labels())
    every_down = frozenset(down.labels())
    dx = SupportDatum(up, "unitX", "zeroX", (
        SupportProfile("zeroX", frozenset()),
        SupportProfile("unitX", every_up),
        SupportProfile("skyX", frozenset({"origin"})),
        SupportProfile("orbitX", frozenset({"orbit"})),
    ))
    dy = SupportDatum(down, "unitY", "zeroY", (
        SupportProfile("zeroY", frozenset()),
        SupportProfile("unitY", every_down),
        SupportProfile("skyY", frozenset({"u0"})),
        SupportProfile("orbY", frozenset({"u1"})),
    ))
    return ring, up, down, dx, dy


def test_induced_site_map_matches_by_radical():
    ring, up, down = quotient_spaces()
    x = ring.var("x")
    mapping = induced_site_map(up, down, [x * x])
    assert mapping == {"origin": "u0", "orbit": "u1", "generic": "ugen"}


def test_induced_site_map_rejects_undeclared_images():
    ring, up, down = quotient_spaces()
    x = ring.var("x")
    smaller = SiteSpace(down.ring, down.sites[:1])
    with pytest.raises(PreconditionError, match="not a declared site"):
        induced_site_map(up, smaller, [x * x])


def test_induced_map_certificate():
    ring, up, down, dx, dy = quotient_data()
    x = ring.var("x")
    site_map = induced_site_map(up, down, [x * x])
    report = induced_spc_map(
        site_map, dx, dy,
        pullbacks={"skyY": "skyX", "unitY": "unitX", "orbY": "orbitX"},
        towers={
            "zeroX": (),
            "unitX": ("unitY",),
            "skyX": ("skyY",),
            "orbitX": ("orbY",),
        })
    assert report.passed
    assert report.surjective and report.injective
    assert all(ok for _, _, ok in report.pullback_rows)
    assert all(ok for _, _, _, ok in report.closed_rows)


def test_induced_map_requires_tower_data():
    ring, up, down, dx, dy = quotient_data()
    x = ring.var("x")
    site_map = induced_site_map(up, down, [x * x])
    with pytest.raises(PreconditionError, match="tower"):
        induced_spc_map(site_map, dx, dy, pullbacks={},
                        towers={"zeroX": ()})


def test_induced_map_flags_wrong_pullback_support():
    ring, up, down, dx, dy = quotient_data()
    x = ring.var("x")
    site_map = induced_site_map(up, down, [x * x])
    report = induced_spc_map(
        site_map, dx, dy,
        pullbacks={"skyY": "orbitX"},
        towers={"zeroX": (), "unitX": ("unitY",), "skyX": ("skyY",),
                "orbitX": ("orbY",)})
    assert not report.passed
    assert report.pullback_rows == (("skyY", "orbitX", False),)


def test_non_bijective_site_map_fails():
    ring, up, down, dx, dy = quotient_data()
    squashed = {"origin": "u0", "orbit": "u0", "generic": "ugen"}
    report = induced_spc_map(
        squashed, dx, dy, pullbacks={},
        towers={"zeroX": (), "unitX": ("unitY",), "skyX": ("skyY",),
                "orbitX": ("skyY",)})
    assert not report.surjective
    assert not report.passed


# -- the affine superline end to end ---------------------------------------------------------


def superline_model():
    """Koszul realizers on the superline feeding real supports into a datum."""
    ring, space = line_space()
    x = ring.var("x")
    one = ring.one()
    alg = SuperAlgebra(ring, 1)
    complexes = {
        "zero": SuperComplex(alg, 0, ((0, 0),), ()),
        "unit": koszul_complex_super(alg, []),
        "sky[origin]": koszul_complex_super(alg, [x]),
        "sky[one]": koszul_complex_super(alg, [x - one]),
        "sky[minus]": koszul_complex_super(alg, [x + one]),
        "pair[origin,one]": koszul_complex_super(alg, [x * (x - one)]),
        "pair[origin,minus]": koszul_complex_super(alg, [x * (x + one)]),
        "pair[one,minus]": koszul_complex_super(alg, [x * x - one]),
        "allpoints": koszul_complex_super(alg, [x * (x * x - one)]),
    }
    tensors = []
    pairs = [("sky[origin]", "sky[one]"),
             ("pair[origin,one]", "pair[origin,minus]"),
             ("allpoints", "pair[one,minus]")]
    for a, b in pairs:
        label = f"tensor({a}, {b})"
        complexes[label] = tensor_supercomplexes(complexes[a], complexes[b])
        tensors.append((a, b, label))
    sums = []
    label = "sum(sky[origin], sky[one])"
    complexes[label] = direct_sum_supercomplex(
        complexes["sky[origin]"], complexes["sky[one]"])
    sums.append(("sky[origin]", "sky[one]", label))
    shifts = []
    label = "shift(allpoints)"
    complexes[label] = shift_supercomplex(complexes["allpoints"], 1)
    shifts.append(("allpoints", label))
    objects = tuple(
        SupportProfile(name, space.sites_in_closed(supph_super(c)))
        for name, c in complexes.items()
    )
    datum = SupportDatum(space, "unit", "zero", objects,
                         tensors=tuple(tensors), sums=tuple(sums),
                         shifts=tuple(shifts))
    return datum


def test_superline_supports_satisfy_the_axioms():
    report = verify_support_datum(superline_model())
    assert report.passed


def test_superline_spectrum_is_the_line():
    datum = superline_model()
    spc = build_spc(datum)
    report = check_homeomorphism(spc, datum.space)
    assert report.passed


def test_superline_classification():
    report = check_classification(superline_model())
    assert report.passed
    assert len(report.rows) == 9
