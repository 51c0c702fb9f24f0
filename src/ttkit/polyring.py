"""Multivariate polynomials over exact fields, monomial orders, Groebner bases.

Monomials are exponent tuples.  A `Poly` stores its terms sorted strictly
descending under graded reverse lexicographic order; that is only a storage
convention, every Groebner computation takes an explicit `MonomialOrder`.
A product by a monomial keeps the storage order, so it is built unsorted.
Division and Buchberger's algorithm run in the module engine of `polymod`,
with an ideal as a rank-1 module.  Buchberger uses the two classical pair
criteria (coprime leading terms and the chain criterion) and returns the
reduced monic basis, so equal inputs give the identical basis.

The text grammar for polynomials: variables are identifiers, `^` marks
powers, `*` is optional between factors, rational coefficients are written
`a/b`.  Rings serialize as `Q[x,y]` or `Fp:7[x,y]`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add
from typing import Sequence

from .errors import DomainMismatchError, ValidationError
from .fields import Field

Monomial = tuple

# -- monomial helpers --------------------------------------------------------


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_deg(a: Monomial) -> int:
    return sum(a)


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def _neg_grevlex_key(m: Monomial):
    return (-sum(m), m[::-1])


def _storage_terms(acc: dict) -> tuple:
    """The nonzero terms of {monomial: coeff} in `Poly` storage order."""
    keep = [m for m, c in acc.items() if c != 0]
    keep.sort(key=_neg_grevlex_key)
    return tuple((m, acc[m]) for m in keep)


def _merge_terms(a: tuple, b: tuple, p: int) -> tuple:
    """The terms of a sum, merged in one pass from the summands' terms, both
    in storage order; monomials whose coefficients cancel are dropped."""
    if not a or not b:
        return a or b
    out = []
    i = j = 0
    (ma, ca), (mb, cb) = a[0], b[0]
    ka, kb = _neg_grevlex_key(ma), _neg_grevlex_key(mb)
    while True:
        if ka < kb:
            out.append((ma, ca))
            i += 1
            if i == len(a):
                break
            ma, ca = a[i]
            ka = _neg_grevlex_key(ma)
        elif kb < ka:
            out.append((mb, cb))
            j += 1
            if j == len(b):
                break
            mb, cb = b[j]
            kb = _neg_grevlex_key(mb)
        else:
            c = (ca + cb) % p if p else ca + cb
            if c != 0:
                out.append((ma, c))
            i += 1
            j += 1
            if i == len(a) or j == len(b):
                break
            (ma, ca), (mb, cb) = a[i], b[j]
            ka, kb = _neg_grevlex_key(ma), _neg_grevlex_key(mb)
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


@dataclass(frozen=True)
class MonomialOrder:
    """lex, grevlex, or a block elimination order.

    `block` compares the first `block_size` exponents by grevlex, then the
    rest by grevlex, so it eliminates the leading block of variables.
    """

    kind: str = "grevlex"
    block_size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("lex", "grevlex", "block"):
            raise ValidationError(f"unknown monomial order {self.kind!r}")
        if self.kind == "block" and self.block_size <= 0:
            raise ValidationError("block order needs a positive block size")

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        if self.kind == "grevlex":
            return _grevlex_key(m)
        k = self.block_size
        return (_grevlex_key(m[:k]), _grevlex_key(m[k:]))

    def neg_key(self, m: Monomial):
        """A key that sorts ascending exactly as `key` sorts descending, so
        a min-heap on it pops the largest monomial first."""
        if self.kind == "lex":
            return tuple(-e for e in m)
        if self.kind == "grevlex":
            return _neg_grevlex_key(m)
        k = self.block_size
        return (_neg_grevlex_key(m[:k]), _neg_grevlex_key(m[k:]))


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(block_size: int) -> MonomialOrder:
    return MonomialOrder("block", block_size)


# -- ring and polynomials -----------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class PolyRing:
    field: Field
    variables: tuple

    def __post_init__(self) -> None:
        seen = set()
        for v in self.variables:
            if not _NAME_RE.match(v):
                raise ValidationError(f"bad variable name {v!r}")
            if v in seen:
                raise ValidationError(f"duplicate variable {v!r}")
            seen.add(v)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def describe(self) -> str:
        return f"{self.field.describe()}[{','.join(self.variables)}]"

    @staticmethod
    def parse(text: str) -> "PolyRing":
        m = re.match(r"^\s*([^\[\]]+)\[([^\[\]]*)\]\s*$", text)
        if not m:
            raise ValidationError(f"bad ring descriptor {text!r}")
        field = Field.parse(m.group(1))
        names = tuple(v.strip() for v in m.group(2).split(",") if v.strip())
        return PolyRing(field, names)

    def zero(self) -> "Poly":
        return Poly(self, ())

    def one(self) -> "Poly":
        return self.const(self.field.one())

    def const(self, c) -> "Poly":
        self.field.check(c)
        if self.field.is_zero(c):
            return Poly(self, ())
        return Poly(self, (((0,) * self.nvars, c),))

    def from_int(self, n: int) -> "Poly":
        return self.const(self.field.from_int(n))

    def var(self, name: str) -> "Poly":
        i = self.variables.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, ((expo, self.field.one()),))

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, expo: Monomial, coeff=None) -> "Poly":
        c = self.field.one() if coeff is None else coeff
        if self.field.is_zero(c):
            return self.zero()
        return Poly(self, ((tuple(expo), c),))

    def from_terms(self, terms) -> "Poly":
        acc: dict = {}
        f = self.field
        for mono, c in terms:
            mono = tuple(mono)
            if len(mono) != self.nvars:
                raise ValidationError("monomial width does not match ring")
            prev = acc.get(mono)
            acc[mono] = f.add(prev, c) if prev is not None else c
        return Poly(self, _storage_terms(acc))

    def parse_poly(self, text: str) -> "Poly":
        return _parse_poly(self, text)


@dataclass(frozen=True)
class Poly:
    """Polynomial with terms sorted strictly descending by grevlex."""

    ring: PolyRing
    terms: tuple

    def _match(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise DomainMismatchError("polynomials from different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        # degree of 0 reported as -1 so callers can branch on it
        if not self.terms:
            return -1
        return max(mono_deg(m) for m, _ in self.terms)

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m, _ in self.terms)

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        self._match(other)
        return Poly(self.ring, _merge_terms(self.terms, other.terms, self.ring.field.p))

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return Poly(self.ring, tuple((m, f.neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._match(other)
        p = self.ring.field.p
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a monomial shift keeps the storage order, and no term cancels
            ((mb, cb),) = b
            if p == 0:
                shifted = tuple((tuple(map(add, m, mb)), c * cb) for m, c in a)
            else:
                shifted = tuple((tuple(map(add, m, mb)), c * cb % p) for m, c in a)
            return Poly(self.ring, shifted)
        acc: dict = {}
        for m1, c1 in a:
            for m2, c2 in b:
                m = tuple(map(add, m1, m2))
                prev = acc.get(m)
                acc[m] = c1 * c2 if prev is None else prev + c1 * c2
        if p:
            acc = {m: c % p for m, c in acc.items()}
        return Poly(self.ring, _storage_terms(acc))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        f = self.ring.field
        f.check(c)
        if f.is_zero(c):
            return self.ring.zero()
        return Poly(self.ring, tuple((m, f.mul(c, a)) for m, a in self.terms))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValidationError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Evaluate at variable images, which live in the images' ring."""
        if len(images) != self.ring.nvars:
            raise ValidationError("substitution needs one image per variable")
        target = images[0].ring if images else self.ring
        for im in images:
            if im.ring != target:
                raise DomainMismatchError("substitution images from different rings")
        if target.field != self.ring.field:
            raise DomainMismatchError("substitution across different fields")
        out = target.zero()
        for m, c in self.terms:
            part = target.const(c)
            for e, im in zip(m, images):
                if e:
                    part = part * (im ** e)
            out = out + part
        return out

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)})"


# -- printing and parsing ------------------------------------------------------


def poly_to_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    f = p.ring.field
    chunks = []
    for idx, (m, c) in enumerate(p.terms):
        factors = []
        for name, e in zip(p.ring.variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if f.p == 0:
            negative = c < 0
            mag = -c if negative else c
        else:
            negative = False
            mag = c
        mag_str = f.scalar_repr(mag)
        if factors and mag_str == "1":
            body = "*".join(factors)
        elif factors:
            body = mag_str + "*" + "*".join(factors)
        else:
            body = mag_str
        if idx == 0:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^\*\+\-]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValidationError(f"cannot tokenize polynomial at: {text[pos:pos+20]!r}")
        if m.group("num"):
            out.append(("num", m.group("num")))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def _parse_poly(ring: PolyRing, text: str) -> Poly:
    tokens = _tokenize(text)
    if not tokens:
        raise ValidationError("empty polynomial text")
    f = ring.field
    terms = []
    i = 0
    n = len(tokens)

    def parse_term(i: int, sign: int):
        coeff = f.from_int(sign)
        expo = [0] * ring.nvars
        saw_factor = False
        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val == "*":
                if not saw_factor:
                    raise ValidationError("unexpected '*'")
                i += 1
                kind, val = tokens[i] if i < n else (None, None)
                if kind not in ("num", "name"):
                    raise ValidationError("dangling '*'")
                continue
            if kind == "num":
                if "/" in val:
                    a, b = val.split("/")
                    try:
                        q = f.from_fraction(int(a), int(b))
                    except ZeroDivisionError:
                        raise ValidationError(
                            f"coefficient {val} has a zero denominator in {f.describe()}"
                        ) from None
                    coeff = f.mul(coeff, q)
                else:
                    coeff = f.mul(coeff, f.from_int(int(val)))
                i += 1
                saw_factor = True
            elif kind == "name":
                if val not in ring.variables:
                    raise ValidationError(f"unknown variable {val!r} in {ring.describe()}")
                idx = ring.variables.index(val)
                e = 1
                if i + 1 < n and tokens[i + 1] == ("op", "^"):
                    if i + 2 >= n or tokens[i + 2][0] != "num" or "/" in tokens[i + 2][1]:
                        raise ValidationError("exponent must be an integer")
                    e = int(tokens[i + 2][1])
                    i += 2
                expo[idx] += e
                i += 1
                saw_factor = True
            else:
                break
        if not saw_factor:
            raise ValidationError("empty term in polynomial text")
        return i, (tuple(expo), coeff)

    sign = 1
    kind, val = tokens[0]
    if kind == "op" and val in "+-":
        sign = -1 if val == "-" else 1
        i = 1
    while True:
        i, term = parse_term(i, sign)
        terms.append(term)
        if i == n:
            break
        kind, val = tokens[i]
        if kind != "op" or val not in "+-":
            raise ValidationError(f"expected '+' or '-' at token {i}")
        sign = -1 if val == "-" else 1
        i += 1
        if i == n:
            raise ValidationError("trailing sign in polynomial text")
    return ring.from_terms(terms)


# -- division and Groebner bases ------------------------------------------------


def normal_form(f: Poly, basis: "GroebnerBasis") -> Poly:
    """The remainder of f on division by the basis polynomials, the first
    whose lead divides winning.  It divides by the reducers that the basis
    prepared on its first normal form, so further calls prepare nothing.
    `GroebnerBasis.normal_form` and `contains` go through here."""
    if f.ring != basis.ring:
        raise DomainMismatchError("polynomial from a different ring than the basis")
    if f.is_zero():
        return f
    red = basis._reducers
    if not red.reducers:
        return f
    return red.normal_form((f,))[0]


# No caller in the package: kept public so that the per-layer metric
# `polyring.s_poly.calls` of the benchmark has a function to wrap.
def s_poly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    ring = f.ring
    (fm, fc), (gm, gc) = (max(h.terms, key=lambda t: order.key(t[0])) for h in (f, g))
    l = mono_lcm(fm, gm)
    a = ring.monomial(mono_div(l, fm), ring.field.inv(fc))
    b = ring.monomial(mono_div(l, gm), ring.field.inv(gc))
    return a * f - b * g


def buchberger(gens: Sequence[Poly], order: MonomialOrder = GREVLEX) -> list:
    """Reduced monic Groebner basis of the ideal generated by gens.

    The ideal runs through the module engine, `polymod.module_groebner`, as
    a rank-1 module.  Pair selection: smallest lcm under the order (normal
    strategy).  Pairs are discarded by the coprime criterion and by the
    chain criterion when a third leading term divides the lcm and both side
    pairs are done.
    """
    from .polymod import ModuleOrder, module_groebner

    return [v[0] for v in module_groebner([(g,) for g in gens], ModuleOrder(order))]


@dataclass(frozen=True)
class GroebnerBasis:
    """The polynomials `polys` of `ring`, a Groebner basis under `order`.

    Normal forms divide by the nonzero polys, each prepared once, on the
    first normal form, as a monic reducer of the module engine, exactly as
    `polymod.vector_divmod` prepares a divisor.  The prepared reducers are
    not a field: equal bases stay equal, hash equal and print alike whether
    or not they have prepared them.  A basis built directly, as the cached
    site bases of `supermod` are, prepares them the same way.
    """

    ring: PolyRing
    order: MonomialOrder
    polys: tuple

    @cached_property
    def _reducers(self):
        from .polymod import _Reducers

        return _Reducers(self.order, self.ring, vectors=[(g,) for g in self.polys if g.terms])

    @staticmethod
    def of(gens: Sequence[Poly], order: MonomialOrder = GREVLEX) -> "GroebnerBasis":
        gens = list(gens)
        if not gens:
            raise ValidationError("need at least one generator (possibly zero)")
        ring = gens[0].ring
        return GroebnerBasis(ring, order, tuple(buchberger(gens, order)))

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f, self)

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant() and not self.polys[0].is_zero()

# -- ring extension and elimination ---------------------------------------------


def ring_with_prefix(ring: PolyRing, names: Sequence[str]) -> PolyRing:
    return PolyRing(ring.field, tuple(names) + ring.variables)


def lift_to_prefix(p: Poly, big: PolyRing, k: int) -> Poly:
    """View p inside a ring with k extra leading variables."""
    pad = (0,) * k
    return Poly(big, tuple((pad + m, c) for m, c in p.terms))


def eliminate(gens: Sequence[Poly], k: int) -> list:
    """Generators of (ideal) intersected with the subring dropping the first
    k variables, returned in the smaller ring."""
    if not gens:
        return []
    big = gens[0].ring
    small = PolyRing(big.field, big.variables[k:])
    return [Poly(small, tuple((m[k:], c) for m, c in g.terms))
            for g in buchberger(list(gens), block_order(k))
            if not any(any(m[:k]) for m, _ in g.terms)]


# -- ideal-level operations ------------------------------------------------------


def radical_member(f: Poly, gens: Sequence[Poly]) -> bool:
    """Whether f lies in the radical of (gens), by the extra-variable trick:
    f in rad(I) iff 1 in I + (1 - t f) in the extended ring.  Each
    (f, gens) is decided once; a repeated question is answered from a
    bounded memo, keyed by the polys and so by their ring."""
    gens = tuple(gens)
    for g in gens:
        if g.ring != f.ring:
            raise DomainMismatchError("generator from a different ring than the polynomial")
    return _radical_member(f, gens)


@lru_cache(maxsize=1024)
def _radical_member(f: Poly, gens: tuple) -> bool:
    if f.is_zero():
        return True
    ring = f.ring
    name = "_t"
    while name in ring.variables:
        name += "_"
    big = ring_with_prefix(ring, (name,))
    t = big.var(name)
    lifted = [lift_to_prefix(g, big, 1) for g in gens]
    lifted.append(big.one() - t * lift_to_prefix(f, big, 1))
    gb = buchberger(lifted, GREVLEX)
    return len(gb) == 1 and gb[0].is_constant()


def ideal_contains_radical(small: Sequence[Poly], big: Sequence[Poly]) -> bool:
    """rad(small) <= rad(big): every generator of small is in rad(big)."""
    return all(radical_member(g, big) for g in small)


def radical_equal(a: Sequence[Poly], b: Sequence[Poly]) -> bool:
    return ideal_contains_radical(a, b) and ideal_contains_radical(b, a)


def ideal_intersection(a: Sequence[Poly], b: Sequence[Poly]) -> list:
    """The reduced grevlex basis of (a) cap (b), descending by lead: the
    second entries of the members of the POT basis of the module
    <(f, f), (g, 0) : f in a, g in b> whose first entry vanishes, as
    position 0 dominates (Greuel and Pfister, A Singular Introduction to
    Commutative Algebra, `intersect`)."""
    from .polymod import module_groebner

    gens = [(f, f) for f in a] + [(g, g.ring.zero()) for g in b]
    return [v[1] for v in module_groebner(gens) if v[0].is_zero()]


def ideal_product(a: Sequence[Poly], b: Sequence[Poly]) -> list:
    return [f * g for f in a for g in b]


def ideal_is_proper(gens: Sequence[Poly]) -> bool:
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return True
    return not GroebnerBasis.of(gens).is_unit_ideal()
