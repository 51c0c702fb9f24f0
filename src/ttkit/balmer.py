"""Support data, thick-ideal classification at support level, and the prime spectrum.

Objects live here only through their support profiles and the registered
operation witnesses (sums, shifts, triangles, tensors).  The classification
bijection and the spectrum construction are verified exhaustively over that
registered data; nothing infinite is ever materialized.

Report ordering is stable everywhere: sites in declaration order, objects
in registration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DomainMismatchError, PreconditionError, ValidationError
from .geometry import SiteSpace, image_closed_under_map
from .polyring import Poly, radical_equal


def _ordered(space: SiteSpace, labels: Iterable[str]) -> tuple:
    """Site labels in declaration order."""
    chosen = set(labels)
    return tuple(l for l in space.labels() if l in chosen)


@dataclass(frozen=True)
class SupportProfile:
    """An object id together with the sites where the object is supported."""

    object_id: str
    sites: frozenset

    def validate(self, space: SiteSpace) -> None:
        unknown = self.sites - set(space.labels())
        if unknown:
            raise ValidationError(
                f"object {self.object_id!r} supported at unknown sites {sorted(unknown)}"
            )
        if not space.is_specialization_closed(self.sites):
            raise ValidationError(
                f"support of {self.object_id!r} is not specialization closed"
            )


@dataclass(frozen=True)
class SupportDatum:
    """Site space, registered objects, and the operation witnesses.

    tensors, sums: triples (a, b, result); shifts: pairs (a, shifted);
    triangles: triples (a, b, c) with c the cone.  twisted_units lists
    objects that must be supported everywhere (unit twisted by a
    representation).
    """

    space: SiteSpace
    unit: str
    zero: str
    objects: tuple
    tensors: tuple = ()
    triangles: tuple = ()
    sums: tuple = ()
    shifts: tuple = ()
    twisted_units: tuple = ()

    def labels(self) -> tuple:
        return tuple(p.object_id for p in self.objects)

    def profile(self, object_id: str) -> frozenset:
        for p in self.objects:
            if p.object_id == object_id:
                return p.sites
        raise ValidationError(f"object {object_id!r} is not registered")

    def validate(self) -> None:
        ids = self.labels()
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate object registrations")
        for p in self.objects:
            p.validate(self.space)
        for required in (self.unit, self.zero):
            self.profile(required)
        for name, triples in (("tensor", self.tensors), ("sum", self.sums),
                              ("triangle", self.triangles)):
            for t in triples:
                if len(t) != 3:
                    raise ValidationError(f"{name} witness {t!r} is not a triple")
                for obj in t:
                    self.profile(obj)
        for pair in self.shifts:
            if len(pair) != 2:
                raise ValidationError(f"shift witness {pair!r} is not a pair")
            for obj in pair:
                self.profile(obj)
        for obj in self.twisted_units:
            self.profile(obj)


# -- axiom verification -----------------------------------------------------------------


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    passed: bool
    counterexamples: tuple

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"{self.axiom}: {status}"]
        lines.extend(f"  {c}" for c in self.counterexamples)
        return "\n".join(lines)


@dataclass(frozen=True)
class SupportReport:
    verdicts: tuple

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, axiom: str) -> AxiomVerdict:
        for v in self.verdicts:
            if v.axiom == axiom:
                return v
        raise ValidationError(f"no verdict for {axiom!r}")

    def describe(self) -> str:
        return "\n".join(v.describe() for v in self.verdicts)


def verify_support_datum(datum: SupportDatum) -> SupportReport:
    """Check the five support-data axioms over every registered witness."""
    datum.validate()
    space = datum.space
    all_sites = frozenset(space.labels())
    verdicts = []

    bad = []
    if datum.profile(datum.zero):
        bad.append(f"zero object {datum.zero!r} has nonempty support "
                   f"{_ordered(space, datum.profile(datum.zero))}")
    if datum.profile(datum.unit) != all_sites:
        missing = _ordered(space, all_sites - datum.profile(datum.unit))
        bad.append(f"unit object {datum.unit!r} misses sites {missing}")
    verdicts.append(AxiomVerdict("SD1", not bad, tuple(bad)))

    bad = []
    for a, b, c in datum.sums:
        want = datum.profile(a) | datum.profile(b)
        if datum.profile(c) != want:
            bad.append(f"sum({a!r}, {b!r}) = {c!r}: support "
                       f"{_ordered(space, datum.profile(c))} differs from union "
                       f"{_ordered(space, want)}")
    verdicts.append(AxiomVerdict("SD2", not bad, tuple(bad)))

    bad = []
    for a, shifted in datum.shifts:
        if datum.profile(a) != datum.profile(shifted):
            bad.append(f"shift of {a!r} is {shifted!r}: supports differ")
    verdicts.append(AxiomVerdict("SD3", not bad, tuple(bad)))

    bad = []
    for a, b, c in datum.triangles:
        union = datum.profile(a) | datum.profile(b)
        extra = datum.profile(c) - union
        if extra:
            bad.append(f"triangle ({a!r}, {b!r}, {c!r}): cone support leaks to "
                       f"{_ordered(space, extra)}")
    verdicts.append(AxiomVerdict("SD4", not bad, tuple(bad)))

    bad = []
    for a, b, c in datum.tensors:
        want = datum.profile(a) & datum.profile(b)
        if datum.profile(c) != want:
            bad.append(f"tensor({a!r}, {b!r}) = {c!r}: support "
                       f"{_ordered(space, datum.profile(c))} differs from "
                       f"intersection {_ordered(space, want)}")
    verdicts.append(AxiomVerdict("SD5", not bad, tuple(bad)))

    return SupportReport(tuple(verdicts))


# -- classification -------------------------------------------------------------------------


def realize_subset(datum: SupportDatum, subset: frozenset) -> str:
    """A registered object whose support is exactly the subset."""
    for p in datum.objects:
        if p.sites == subset:
            return p.object_id
    raise PreconditionError(
        "no registered object realizes the closed subset "
        f"{{{', '.join(_ordered(datum.space, subset)) or 'empty'}}}"
    )


def theta(datum: SupportDatum, subset: Iterable[str]) -> tuple:
    """Objects supported inside the subset; the ideal shadow of theta(Y)."""
    subset = frozenset(subset)
    if not datum.space.is_specialization_closed(subset):
        raise PreconditionError("theta needs a specialization-closed subset")
    realize_subset(datum, subset)
    return tuple(p.object_id for p in datum.objects if p.sites <= subset)


def eta(datum: SupportDatum, ideal_shadow: Iterable[str]) -> frozenset:
    """Union of the supports over the shadow."""
    out = frozenset()
    for obj in ideal_shadow:
        out |= datum.profile(obj)
    return out


@dataclass(frozen=True)
class ClassificationRow:
    subset: tuple
    shadow_size: int
    recovered: tuple
    passed: bool


@dataclass(frozen=True)
class ClassificationReport:
    rows: tuple
    shadows_match: bool

    @property
    def passed(self) -> bool:
        return self.shadows_match and all(r.passed for r in self.rows)


def check_classification(datum: SupportDatum) -> ClassificationReport:
    """Exhaustive eta/theta round trips over every specialization-closed subset.

    Raises when some closed subset has no realizing registered object; that
    is the precondition the bijection rests on.
    """
    datum.validate()
    space = datum.space
    rows = []
    shadows = {}
    for subset in space.all_specialization_closed_subsets():
        shadow = theta(datum, subset)
        back = eta(datum, shadow)
        rows.append(ClassificationRow(
            _ordered(space, subset), len(shadow), _ordered(space, back),
            back == subset))
        shadows[subset] = shadow
    match = True
    for subset, shadow in shadows.items():
        if theta(datum, eta(datum, shadow)) != shadow:
            match = False
    return ClassificationReport(tuple(rows), match)


# -- the spectrum ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SpcPrime:
    site_label: str
    members: tuple


@dataclass(frozen=True)
class SpcSpace:
    datum: SupportDatum
    primes: tuple

    def prime_at(self, label: str) -> SpcPrime:
        for p in self.primes:
            if p.site_label == label:
                return p
        raise ValidationError(f"no prime at site {label!r}")

    def validate(self) -> None:
        datum = self.datum
        for p in self.primes:
            members = set(p.members)
            if datum.unit in members:
                raise ValidationError(
                    f"prime at {p.site_label!r} is not proper: it contains the unit")
            if datum.zero not in members:
                raise ValidationError(
                    f"prime at {p.site_label!r} misses the zero object")
            for a, b, c in datum.tensors:
                tensor_in = c in members
                factor_in = a in members or b in members
                if tensor_in != factor_in:
                    raise ValidationError(
                        f"prime at {p.site_label!r} is not prime on "
                        f"tensor({a!r}, {b!r})")
            for obj in datum.twisted_units:
                if obj in members:
                    raise ValidationError(
                        f"twisted unit {obj!r} fell into the prime at "
                        f"{p.site_label!r}")


def build_spc(datum: SupportDatum) -> SpcSpace:
    """One prime per site: the objects not supported there."""
    datum.validate()
    primes = []
    for label in datum.space.labels():
        members = tuple(p.object_id for p in datum.objects if label not in p.sites)
        primes.append(SpcPrime(label, members))
    spc = SpcSpace(datum, tuple(primes))
    spc.validate()
    return spc


@dataclass(frozen=True)
class HomeoReport:
    bijective: bool
    collisions: tuple
    basic_closed_rows: tuple     # (object id, matches: bool)
    order_rows: tuple            # (site a, site b, spc order, space order)
    passed: bool

    def describe(self) -> str:
        lines = [f"bijective: {self.bijective}"]
        lines.extend(f"  collision: {a!r} and {b!r}" for a, b in self.collisions)
        for obj, ok in self.basic_closed_rows:
            lines.append(f"basic closed {obj!r}: {'pass' if ok else 'FAIL'}")
        for a, b, spc_ord, sp_ord in self.order_rows:
            if spc_ord != sp_ord:
                lines.append(f"order mismatch on ({a!r}, {b!r}): "
                             f"spc {spc_ord} vs space {sp_ord}")
        lines.append(f"homeomorphism: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_homeomorphism(spc: SpcSpace, space: SiteSpace) -> HomeoReport:
    """Certify that site -> prime is a homeomorphism onto the spectrum.

    Points: the assignment must be injective (two sites sharing a prime
    means the registered objects cannot separate them).  Topology: basic
    closed sets match the registered supports, and the specialization
    order on primes (reverse inclusion) agrees with the site order.
    """
    if spc.datum.space != space:
        raise DomainMismatchError("spectrum was built over a different site space")
    labels = space.labels()
    collisions = []
    seen = {}
    for label in labels:
        key = frozenset(spc.prime_at(label).members)
        if key in seen:
            collisions.append((seen[key], label))
        else:
            seen[key] = label
    basic_rows = []
    for profile in spc.datum.objects:
        from_primes = frozenset(
            l for l in labels if profile.object_id not in spc.prime_at(l).members)
        basic_rows.append((profile.object_id, from_primes == profile.sites))
    order_rows = []
    spec_map = space.specialization_map()
    for a in labels:
        for b in labels:
            spc_order = set(spc.prime_at(a).members) <= set(spc.prime_at(b).members)
            space_order = a in spec_map[b]
            order_rows.append((a, b, spc_order, space_order))
    bijective = not collisions
    passed = (bijective and all(ok for _, ok in basic_rows)
              and all(x == y for _, _, x, y in order_rows))
    return HomeoReport(bijective, tuple(collisions), tuple(basic_rows),
                       tuple(order_rows), passed)


# -- the induced map on spectra ---------------------------------------------------------------


def induced_site_map(space_x: SiteSpace, space_y: SiteSpace,
                     images: Sequence[Poly]) -> dict:
    """Send each site of X to the Y site cutting out its image.

    images are the invariant generators as polynomials upstairs; each site
    closure maps forward and is matched against Y's sites by radical
    equality.
    """
    out = {}
    for site in space_x.sites:
        img = image_closed_under_map(site.closure(), images, space_y.ring)
        match = None
        for cand in space_y.sites:
            if radical_equal(list(img.generators), list(cand.generators)):
                match = cand.label
                break
        if match is None:
            raise PreconditionError(
                f"image of site {site.label!r} is not a declared site downstairs")
        out[site.label] = match
    return out


@dataclass(frozen=True)
class InducedMapReport:
    site_map: tuple              # (x label, y label) in declaration order
    pullback_rows: tuple         # (object downstairs, pullback upstairs, ok)
    surjective: bool
    injective: bool
    closed_rows: tuple           # (object upstairs, image sites, union sites, ok)
    passed: bool

    def describe(self) -> str:
        lines = [f"{x} -> {y}" for x, y in self.site_map]
        for b, a, ok in self.pullback_rows:
            lines.append(f"pullback {b!r} ~> {a!r}: {'pass' if ok else 'FAIL'}")
        lines.append(f"bijective: {self.surjective and self.injective}")
        for obj, img, union, ok in self.closed_rows:
            lines.append(f"image of supp {obj!r}: {'pass' if ok else 'FAIL'} "
                         f"({list(img)} vs {list(union)})")
        lines.append(f"induced map: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def induced_spc_map(site_map: Mapping[str, str], datum_x: SupportDatum,
                    datum_y: SupportDatum,
                    pullbacks: Mapping[str, str],
                    towers: Mapping[str, Sequence[str]]) -> InducedMapReport:
    """Certify the spectrum map induced by pulling back along the quotient.

    pullbacks sends a registered object downstairs to its pullback
    upstairs; towers sends each registered object upstairs to the
    downstairs pieces of its filtration, whose support union must equal
    the image of its support (the closedness identity).  Every upstairs
    object must carry tower data.
    """
    datum_x.validate()
    datum_y.validate()
    labels_x = datum_x.space.labels()
    labels_y = datum_y.space.labels()
    for x in labels_x:
        if x not in site_map or site_map[x] not in labels_y:
            raise PreconditionError(f"site map does not cover site {x!r}")

    pullback_rows = []
    for b, a in pullbacks.items():
        want = frozenset(x for x in labels_x if site_map[x] in datum_y.profile(b))
        pullback_rows.append((b, a, datum_x.profile(a) == want))

    image = {site_map[x] for x in labels_x}
    surjective = image == set(labels_y)
    injective = len({site_map[x] for x in labels_x}) == len(labels_x)

    closed_rows = []
    for profile in datum_x.objects:
        if profile.object_id not in towers:
            raise PreconditionError(
                f"object {profile.object_id!r} carries no tower pieces")
        pieces = towers[profile.object_id]
        union = frozenset()
        for piece in pieces:
            union |= datum_y.profile(piece)
        img = frozenset(site_map[x] for x in profile.sites)
        closed_rows.append((profile.object_id, _ordered(datum_y.space, img),
                            _ordered(datum_y.space, union), img == union))

    passed = (surjective and injective
              and all(ok for _, _, ok in pullback_rows)
              and all(ok for _, _, _, ok in closed_rows))
    return InducedMapReport(
        tuple((x, site_map[x]) for x in labels_x),
        tuple(pullback_rows), surjective, injective, tuple(closed_rows), passed)
