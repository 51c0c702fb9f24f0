"""Closed sets, prime sites, and finite site spaces.

A closed set is V(I), stored by ideal generators and always compared up to
radical.  A site is a chosen prime with a label; site spaces are finite,
explicitly declared collections of sites carrying the specialization
order q below p iff I_p lies in rad(I_q).  Sites of kind `declared` carry
their primality as an input assumption (the equivariant examples use
orbit ideals there); the two checkable kinds are validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .errors import DomainMismatchError, PreconditionError, ValidationError
from .polyring import (
    Poly,
    PolyRing,
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

    def is_empty(self) -> bool:
        """Whether the defining ideal is the unit ideal."""
        return not ideal_is_proper(list(self.generators))

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
    """(variable index, dense coefficient list) if p uses exactly one variable."""
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
    return var, coeffs


def _rational_roots_exist(coeffs) -> bool:
    """Rational root test for an integer-scaled polynomial."""
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // _gcd(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
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


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _fp_irreducible(coeffs, p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg/2."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] % p == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True

    def poly_mod(num, den):
        num = list(num)
        dd = len(den) - 1
        inv = pow(den[-1], p - 2, p)
        while len(num) - 1 >= dd and any(num):
            shift = len(num) - 1 - dd
            factor = num[-1] * inv % p
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - factor * c) % p
            while num and num[-1] == 0:
                num.pop()
            if not num:
                return []
        return num

    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]
            if not poly_mod(coeffs, den):
                return False
    return True


def check_univariate_irreducible(g: Poly) -> None:
    prof = _univariate_profile(g)
    if prof is None:
        raise ValidationError(
            "principal-irreducible site generator must involve exactly one variable"
        )
    _, coeffs = prof
    fld = g.ring.field
    deg = g.total_degree()
    if deg == 1:
        return
    if fld.p == 0:
        if deg > 3:
            raise ValidationError(
                "no irreducibility certificate for rational polynomials of degree > 3"
            )
        if _rational_roots_exist(coeffs):
            raise ValidationError(f"{g} has a rational root, so it is reducible")
        return
    if not _fp_irreducible([c % fld.p for c in coeffs], fld.p):
        raise ValidationError(f"{g} is reducible over GF({fld.p})")


# -- sites ---------------------------------------------------------------------------


SITE_KINDS = ("rational-point", "principal-irreducible", "declared")

# Specialization maps by site space; past the bound the oldest entry goes first.
_SPEC_MAP_CACHE: dict = {}
_SPEC_MAP_CACHE_MAX = 1024


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
        cached = _SPEC_MAP_CACHE.get(self)
        if cached is not None:
            return cached
        out = {
            g.label: frozenset(s.label for s in self.sites if site_specializes(s, g))
            for g in self.sites
        }
        while len(_SPEC_MAP_CACHE) >= _SPEC_MAP_CACHE_MAX:
            del _SPEC_MAP_CACHE[next(iter(_SPEC_MAP_CACHE))]
        _SPEC_MAP_CACHE[self] = out
        return out

    def specializations(self, label: str) -> frozenset:
        """Labels of sites in the closure of the given site."""
        self.site(label)
        return self.specialization_map()[label]

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
    finite maps, which is the only way the toolkit uses it.
    """
    src = c.ring
    if len(images) != target.nvars:
        raise ValidationError("one image polynomial per target variable required")
    for f in images:
        if f.ring != src:
            raise DomainMismatchError("image polynomials must live in the source ring")
    if set(src.variables) & set(target.variables):
        raise ValidationError("source and target variable names must be disjoint")
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
