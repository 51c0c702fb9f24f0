"""Closed sets, prime sites, and finite site spaces.

A closed set is V(I), stored by ideal generators and always compared up to
radical.  A site is a chosen prime with a label; site spaces are finite,
explicitly declared collections of sites carrying the specialization
order q below p iff I_p lies in rad(I_q).  Sites of kind `declared` carry
their primality as an input assumption (the equivariant examples use
orbit ideals there); the two checkable kinds are validated.  Whatever the
kind, `is_certified_prime` proves primality from the generators in the
cheap cases, which is what lets supports be read off fibre ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm
from typing import Iterable, Optional, Sequence

from .errors import DomainMismatchError, PreconditionError, ValidationError
from .fields import GF
from .memo import MEMO_SIZE, kept
from .polyring import (
    GREVLEX,
    GroebnerBasis,
    Poly,
    PolyRing,
    buchberger,
    eliminate,
    ideal_contains_radical,
    ideal_is_proper,
    ideal_product,
    radical_equal,
    radical_member,
    ring_with_prefix,
)


@dataclass(frozen=True)
class ClosedSet:
    """V(generators) inside Spec of the ring, compared up to radical."""

    ring: PolyRing
    generators: tuple

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.ring != self.ring:
                raise DomainMismatchError("generator from a different ring")

    @staticmethod
    def whole(ring: PolyRing) -> "ClosedSet":
        return ClosedSet(ring, ())

    @staticmethod
    def empty(ring: PolyRing) -> "ClosedSet":
        return ClosedSet(ring, (ring.one(),))

    def is_whole(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def describe(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"V({gens})"


def closed_contains(c: ClosedSet, d: ClosedSet) -> bool:
    """V(I_c) contains V(I_d), i.e. I_c lies in rad(I_d)."""
    if c.ring != d.ring:
        raise DomainMismatchError("closed sets over different rings")
    return ideal_contains_radical(list(c.generators), list(d.generators))


def closed_equal(c: ClosedSet, d: ClosedSet) -> bool:
    return closed_contains(c, d) and closed_contains(d, c)


def closed_union(c: ClosedSet, d: ClosedSet) -> ClosedSet:
    if c.ring != d.ring:
        raise DomainMismatchError("closed sets over different rings")
    if c.is_whole() or d.is_whole():
        return ClosedSet.whole(c.ring)
    return ClosedSet(c.ring, tuple(ideal_product(list(c.generators), list(d.generators))))


def closed_union_all(ring: PolyRing, parts: Iterable[ClosedSet]) -> ClosedSet:
    out = ClosedSet.empty(ring)
    for p in parts:
        out = closed_union(out, p)
    return out


# -- univariate irreducibility certificates ----------------------------------------


def _univariate_profile(p: Poly):
    """Dense coefficients, constant term first, if p uses exactly one variable."""
    used = set()
    for m, _ in p.terms:
        for i, e in enumerate(m):
            if e:
                used.add(i)
    if len(used) != 1:
        return None
    var = used.pop()
    deg = max(m[var] for m, _ in p.terms)
    fld = p.ring.field
    coeffs = [fld.zero()] * (deg + 1)
    for m, c in p.terms:
        coeffs[m[var]] = c
    return coeffs


def _rational_roots_exist(ints) -> bool:
    """Rational root test for integer coefficients, constant term first.  A
    quadratic has one exactly when its discriminant is a square."""
    if len(ints) == 3:
        disc = ints[1] ** 2 - 4 * ints[0] * ints[2]
        return disc >= 0 and isqrt(disc) ** 2 == disc
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return True  # zero root
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                if sum(c * r ** i for i, c in enumerate(ints)) == 0:
                    return True
    return False


def _divisors(n: int):
    """The divisors of n >= 1, ascending, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _fp_irreducible(coeffs, p: int) -> bool:
    """Distinct-degree test: f of degree d over F_p is irreducible iff
    gcd(f, x^(p^k) - x) = 1 for every k <= d/2, since x^(p^k) - x is the
    product of the monic irreducibles of degree dividing k.

    f lives in GF(p)[x].  Each x^(p^k) mod f is the p-th power of the last,
    by square-and-multiply through normal forms modulo (f); the gcd is 1
    exactly when (f, x^(p^k) - x) is the unit ideal."""
    ring = PolyRing(GF(p), ("x",))
    f = ring.from_terms(((i,), c % p) for i, c in enumerate(coeffs) if c % p)
    deg = f.total_degree()
    if deg <= 0:
        return False
    mod_f = GroebnerBasis.of([f]).normal_form
    h = x = ring.var("x")
    for _ in range(deg // 2):
        power, e, h = h, p, ring.one()
        while e:  # h = power^p mod f
            if e & 1:
                h = mod_f(h * power)
            power = mod_f(power * power)
            e >>= 1
        if not GroebnerBasis.of([f, h - x]).is_unit_ideal():
            return False
    return True


def check_univariate_irreducible(g: Poly) -> None:
    coeffs = _univariate_profile(g)
    if coeffs is None:
        raise ValidationError(
            "principal-irreducible site generator must involve exactly one variable"
        )
    fld = g.ring.field
    deg = g.total_degree()
    if deg == 1:
        return
    if fld.p == 0:
        if deg > 3:
            raise ValidationError(
                "no irreducibility certificate for rational polynomials of degree > 3"
            )
        scale = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        if deg == 3 and max(abs(ints[0]), abs(ints[3])) > 10 ** 12:  # trial division to 10^6
            raise ValidationError(
                "no irreducibility certificate for rational cubics with coefficients past 10^12"
            )
        if _rational_roots_exist(ints):
            raise ValidationError(f"{g} has a rational root, so it is reducible")
        return
    if not _fp_irreducible(coeffs, fld.p):
        raise ValidationError(f"{g} is reducible over GF({fld.p})")


# -- sites ---------------------------------------------------------------------------


SITE_KINDS = ("rational-point", "principal-irreducible", "declared")

# Specialization maps by site space; a module-level dict, since the benchmark reads its size.
_SPEC_MAP_CACHE: dict = {}


@dataclass(frozen=True)
class PrimeSite:
    label: str
    ring: PolyRing
    generators: tuple
    kind: str = "declared"

    def __post_init__(self) -> None:
        if self.kind not in SITE_KINDS:
            raise ValidationError(f"unknown site kind {self.kind!r}")
        for g in self.generators:
            if g.ring != self.ring:
                raise DomainMismatchError("site generator from a different ring")

    @cached_property
    def certified_basis(self) -> Optional[GroebnerBasis]:
        """The reduced GREVLEX basis of the site's ideal if `is_certified_prime`
        holds, else None; computed once per site object."""
        if not is_certified_prime(self):
            return None
        gens = [g for g in self.generators if not g.is_zero()]
        return GroebnerBasis(self.ring, GREVLEX, tuple(buchberger(gens)))

    def validate(self) -> None:
        if not ideal_is_proper(list(self.generators)):
            raise ValidationError(f"site {self.label!r} carries the unit ideal")
        if self.kind == "rational-point":
            self._validate_rational_point()
        elif self.kind == "principal-irreducible":
            if len(self.generators) != 1:
                raise ValidationError(
                    f"site {self.label!r}: principal-irreducible needs one generator"
                )
            check_univariate_irreducible(self.generators[0])

    def _validate_rational_point(self) -> None:
        seen = set()
        for g in self.generators:
            if g.total_degree() != 1:
                raise ValidationError(f"site {self.label!r}: generator {g} is not linear")
            linear_vars = [
                i for m, _ in g.terms for i, e in enumerate(m) if e == 1 and sum(m) == 1
            ]
            if len(set(linear_vars)) != 1:
                raise ValidationError(
                    f"site {self.label!r}: generator {g} must be of the form var - const"
                )
            seen.add(linear_vars[0])
        if seen != set(range(self.ring.nvars)):
            raise ValidationError(
                f"site {self.label!r}: rational point must pin down every variable"
            )

    def closure(self) -> ClosedSet:
        return ClosedSet(self.ring, self.generators)


def is_certified_prime(site: PrimeSite) -> bool:
    """Whether the site's ideal is prime by a check on its generators.

    Certified are the zero ideal, a proper ideal generated in total degree
    at most 1 (its quotient is a polynomial ring), and a
    `principal-irreducible` site whose generator passes
    `check_univariate_irreducible`.  The kind alone certifies nothing.
    """
    gens = [g for g in site.generators if not g.is_zero()]
    if all(g.total_degree() <= 1 for g in gens):
        return ideal_is_proper(gens)
    if site.kind != "principal-irreducible" or len(gens) != 1:
        return False
    try:
        check_univariate_irreducible(gens[0])
    except ValidationError:
        return False
    return True


def site_in_closed(site: PrimeSite, c: ClosedSet) -> bool:
    """Whether the site's point lies in V(I_c): I_c inside rad(I_site)."""
    if site.ring != c.ring:
        raise DomainMismatchError("site and closed set over different rings")
    return all(radical_member(g, list(site.generators)) for g in c.generators)


def site_specializes(special: PrimeSite, generic: PrimeSite) -> bool:
    """special lies in the closure of generic."""
    return site_in_closed(special, generic.closure())


@dataclass(frozen=True)
class SiteSpace:
    ring: PolyRing
    sites: tuple

    def __post_init__(self) -> None:
        labels = [s.label for s in self.sites]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate site labels")
        for s in self.sites:
            if s.ring != self.ring:
                raise DomainMismatchError("site over a different ring")

    @cached_property
    def _hash(self) -> int:
        return hash((self.ring, self.sites))

    def __hash__(self) -> int:
        # `specialization_map` keys its cache by the space; hashing every
        # site's generators on each lookup would cost more than the lookup
        return self._hash

    def validate(self) -> None:
        for s in self.sites:
            s.validate()
        for i, a in enumerate(self.sites):
            for b in self.sites[i + 1 :]:
                if radical_equal(list(a.generators), list(b.generators)):
                    raise ValidationError(
                        f"sites {a.label!r} and {b.label!r} carry the same ideal"
                    )

    def labels(self) -> tuple:
        return tuple(s.label for s in self.sites)

    def site(self, label: str) -> PrimeSite:
        for s in self.sites:
            if s.label == label:
                return s
        raise ValidationError(f"unknown site {label!r}")

    def specialization_map(self) -> dict:
        """label -> labels of sites in its closure, computed once per space."""
        return kept(_SPEC_MAP_CACHE, self, lambda: {
            g.label: frozenset(s.label for s in self.sites if site_specializes(s, g))
            for g in self.sites
        })

    def closure_of(self, labels: Iterable[str]) -> frozenset:
        spec = self.specialization_map()
        out = set()
        for l in labels:
            self.site(l)
            out |= spec[l]
        return frozenset(out)

    def is_specialization_closed(self, labels: Iterable[str]) -> bool:
        labels = frozenset(labels)
        return self.closure_of(labels) == labels

    def sites_in_closed(self, c: ClosedSet) -> frozenset:
        return frozenset(s.label for s in self.sites if site_in_closed(s, c))

    def all_specialization_closed_subsets(self) -> list:
        """Every specialization-closed subset, smallest first; exhaustive,
        intended for site spaces of at most a dozen sites."""
        labels = self.labels()
        if len(labels) > 14:
            raise PreconditionError("site space too large for exhaustive enumeration")
        out = []
        for mask in range(1 << len(labels)):
            subset = frozenset(l for i, l in enumerate(labels) if mask >> i & 1)
            if self.is_specialization_closed(subset):
                out.append(subset)
        out.sort(key=lambda s: (len(s), tuple(sorted(s))))
        return out


# -- images of closed sets under ring maps ---------------------------------------------


def image_closed_under_map(c: ClosedSet, images: Sequence[Poly], target: PolyRing) -> ClosedSet:
    """Closed image of V(I_c) under the map dual to y_j -> images[j].

    Computed by eliminating the source variables from
    I_c + (y_j - images_j) in the joined ring; the result automatically
    contains the kernel of the presentation, so it is an ideal of closed
    subsets of the presented image variety.  Valid as the honest image for
    finite maps, which is the only way the toolkit uses it.  Each distinct
    (c, images, target) is eliminated once; the tower asks once per piece.
    """
    src = c.ring
    if len(images) != target.nvars:
        raise ValidationError("one image polynomial per target variable required")
    for f in images:
        if f.ring != src:
            raise DomainMismatchError("image polynomials must live in the source ring")
    if set(src.variables) & set(target.variables):
        raise ValidationError("source and target variable names must be disjoint")
    return _image_closed_under_map(c, tuple(images), target)


@lru_cache(maxsize=MEMO_SIZE)
def _image_closed_under_map(c: ClosedSet, images: tuple, target: PolyRing) -> ClosedSet:
    src = c.ring
    big = ring_with_prefix(target, src.variables)  # src vars first, then target vars
    n = src.nvars

    def lift_src(p: Poly) -> Poly:
        return Poly(big, tuple((m + (0,) * target.nvars, coeff) for m, coeff in p.terms))

    gens = [lift_src(g) for g in c.generators]
    for j, f in enumerate(images):
        y = big.var(target.variables[j])
        gens.append(y - lift_src(f))
    out = eliminate(gens, n)
    return ClosedSet(target, tuple(out))
