"""Split supercommutative algebras and perfect complexes of free modules over them.

An algebra here is A tensor an exterior algebra on d odd generators.  A
free module over it is given by its shape (even, odd): that many copies of
the algebra, the odd ones parity-shifted.  Over A it splits into an even
and an odd component, free on the pairs (copy, word) whose copy parity
plus word length has that parity; free_slot numbers them.  A map of free
modules is a matrix over the whole algebra, and free_columns expands it
into its two component matrices over A.

Basis order is graded lexicographic in the odd indices: shorter products
first, ties broken by index tuples.

Complexes are perfect: free terms given by their shapes and differentials
given by matrices (SuperComplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .errors import DomainMismatchError, ValidationError
from .geometry import ClosedSet, SiteSpace, closed_union_all, site_in_closed
from .polyring import GroebnerBasis, Poly, PolyRing
from .polymod import (
    _PAST_LIMIT,
    ModuleMap,
    PresentedComplex,
    PresentedModule,
    annihilator,
    cohomology,
)


# -- exterior basis combinatorics ---------------------------------------------------


def all_subsets(d: int) -> list:
    out = [()]
    for j in range(d):
        out = out + [s + (j,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


@cache
def parity_basis(d: int, parity: int) -> tuple:
    """The words of this parity in basis order, built once per (d, parity)."""
    return tuple(s for s in all_subsets(d) if len(s) % 2 == parity)


def wedge(s: tuple, t: tuple):
    """theta_s theta_t as (sign, union); sign 0 encodes a repeated factor."""
    if set(s) & set(t):
        return 0, ()
    inversions = sum(1 for a in s for b in t if a > b)
    return (-1) ** inversions, tuple(sorted(s + t))


@dataclass(frozen=True)
class SuperAlgebra:
    """A tensor Lambda(theta_0 .. theta_{d-1}) with A a polynomial ring."""

    base: PolyRing
    odd_rank: int

    def __post_init__(self) -> None:
        if self.odd_rank < 0:
            raise ValidationError("odd rank must be nonnegative")

    def basis(self, parity: int) -> tuple:
        return parity_basis(self.odd_rank, parity % 2)

    def describe(self) -> str:
        names = ", ".join(f"t{j}" for j in range(self.odd_rank))
        return f"{self.base.describe()} (x) Lambda({names})"


# -- free-module coordinates -----------------------------------------------------------


def _copies(shape: tuple) -> list:
    """(copy, parity) for every copy of the free module of the shape."""
    return [(u, 0 if u < shape[0] else 1) for u in range(shape[0] + shape[1])]


def free_slot(alg: SuperAlgebra, shape: tuple, copy: int, subset: tuple):
    """(parity, index) of theta_subset e_copy inside the free module of the shape.

    Copies are numbered with the even ones first; component p of copy u is
    spanned by the words of parity p + parity(u).
    """
    a, b = shape
    copy_parity = 0 if copy < a else 1
    parity = (copy_parity + len(subset)) % 2
    index = 0
    for u in range(copy):
        index += len(alg.basis((parity + (0 if u < a else 1)) % 2))
    words = alg.basis((parity + copy_parity) % 2)
    return parity, index + words.index(tuple(subset))


def free_component_rank(alg: SuperAlgebra, shape: tuple, parity: int) -> int:
    a, b = shape
    return a * len(alg.basis(parity)) + b * len(alg.basis((parity + 1) % 2))


def free_columns(alg: SuperAlgebra, src_shape: tuple, tgt_shape: tuple,
                 matrix: dict) -> tuple:
    """(even columns, odd columns) over A of the map with this matrix.

    The column of theta_word e_u is theta_word times the image of e_u:
    entry word s of target copy w lands on theta_(word s) e_w with the sign
    of the wedge product.
    """
    ring = alg.base
    by_source: dict = {}
    for (w, u), elem in matrix.items():
        by_source.setdefault(u, []).append((w, elem))
    heights = [free_component_rank(alg, tgt_shape, parity) for parity in (0, 1)]
    parts = ([], [])
    for u, pu in _copies(src_shape):
        for parity in (0, 1):
            for word in alg.basis(parity + pu):
                col = [ring.zero()] * heights[parity]
                for w, elem in by_source.get(u, ()):
                    for s, coeff in elem:
                        sign, combined = wedge(word, s)
                        if sign != 0:
                            idx = free_slot(alg, tgt_shape, w, combined)[1]
                            col[idx] = col[idx] + (coeff if sign > 0 else -coeff)
                parts[parity].append(tuple(col))
    return tuple(parts[0]), tuple(parts[1])


# -- complexes ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperComplex:
    """Bounded complex of free A (x) Lambda-modules with even differentials.

    shapes[k] = (even, odd) counts the copies of the algebra, the odd ones
    parity-shifted, in the term of degree start + k; copies are numbered
    with the even ones first.  matrices[k] is the differential out of that
    degree: it maps (target copy, source copy) to the entry, a tuple of
    (word, Poly) pairs, and d e_u = sum_w entry(w, u) e_w.  Entries are
    normalised on construction: words of parity |u| + |w| only, in basis
    order, with no zero coefficients and no empty entries; a negative
    copy count, a copy outside the shapes or a word outside the exterior
    basis is rejected.  free_columns expands a matrix into its component
    matrices over A, and validate() checks d^2 = 0 on those.
    """

    algebra: SuperAlgebra
    start: int
    shapes: tuple
    matrices: tuple

    def __post_init__(self) -> None:
        if len(self.matrices) != len(self.shapes) - 1:
            raise ValidationError("need one differential between consecutive terms")
        for k, shape in enumerate(self.shapes):
            if len(shape) != 2 or min(shape) < 0:
                raise ValidationError(f"shape {shape} in slot {k} is not a pair of "
                                      f"copy counts")
        object.__setattr__(self, "matrices", tuple(
            _normal_matrix(self.algebra, self.shapes[k], self.shapes[k + 1], m)
            for k, m in enumerate(self.matrices)))

    def degrees(self) -> range:
        return range(self.start, self.start + len(self.shapes))

    def validate(self) -> None:
        maps = [component_complex(self, parity).maps for parity in (0, 1)]
        for k in range(len(self.matrices) - 1):
            if not all(m[k + 1].compose(m[k]).is_zero_map() for m in maps):
                raise ValidationError(f"d^2 is nonzero starting in slot {k}")


def _normal_matrix(alg: SuperAlgebra, src_shape: tuple, tgt_shape: tuple,
                   matrix: dict) -> dict:
    """The matrix with zero coefficients and empty entries dropped and words
    in basis order; an entry off the shapes, or with a word that is not in
    the exterior basis or has the wrong parity, is rejected."""
    out = {}
    for (w, u), elem in matrix.items():
        if not (0 <= w < sum(tgt_shape) and 0 <= u < sum(src_shape)):
            raise ValidationError(f"entry ({w}, {u}) lies outside the shapes "
                                  f"{src_shape} -> {tgt_shape}")
        for word, _ in elem:
            if word not in alg.basis(len(word)):
                raise ValidationError(f"entry ({w}, {u}) has the word {word}, which "
                                      f"is not in the exterior basis")
        want = ((0 if u < src_shape[0] else 1) + (0 if w < tgt_shape[0] else 1)) % 2
        if any(len(word) % 2 != want for word, _ in elem):
            raise ValidationError(f"entry ({w}, {u}) mixes parities in the free map")
        entry = tuple(sorted(((word, c) for word, c in elem if not c.is_zero()),
                             key=lambda t: (len(t[0]), t[0])))
        if entry:
            out[(w, u)] = entry
    return out


def scalar_matrix(shape: tuple, f: Poly) -> dict:
    """Multiplication by an even base element on the free module of the shape."""
    return {(u, u): (((), f),) for u in range(shape[0] + shape[1])}


def koszul_complex_super(alg: SuperAlgebra, elements: Sequence[Poly]) -> SuperComplex:
    """Tensor of the two-term complexes R -f-> R; realizes V(elements)."""
    if not elements:
        return SuperComplex(alg, 0, ((1, 0),), ())
    out = None
    for f in elements:
        step = SuperComplex(alg, 0, ((1, 0), (1, 0)), (scalar_matrix((1, 0), f),))
        out = step if out is None else tensor_supercomplexes(out, step)
    return out


def component_complex(c: SuperComplex, parity: int) -> PresentedComplex:
    ring = c.algebra.base
    mods = tuple(PresentedModule.free(ring, free_component_rank(c.algebra, s, parity))
                 for s in c.shapes)
    maps = tuple(
        ModuleMap(mods[k], mods[k + 1],
                  free_columns(c.algebra, c.shapes[k], c.shapes[k + 1], m)[parity % 2])
        for k, m in enumerate(c.matrices))
    return PresentedComplex(ring, c.start, mods, maps)


def shift_supercomplex(c: SuperComplex, k: int = 1) -> SuperComplex:
    """c[k]: degree n picks up the old degree n + k; odd k flips the signs."""
    matrices = c.matrices
    if k % 2 != 0:
        matrices = tuple({key: tuple((word, -coeff) for word, coeff in elem)
                          for key, elem in m.items()} for m in matrices)
    return SuperComplex(c.algebra, c.start - k, c.shapes, matrices)


def _shape(c: SuperComplex, n: int) -> tuple:
    return c.shapes[n - c.start] if n in c.degrees() else (0, 0)


def _matrix(c: SuperComplex, n: int) -> dict:
    k = n - c.start
    return c.matrices[k] if 0 <= k < len(c.matrices) else {}


def _free_complex(alg: SuperAlgebra, start: int, degrees, matrices) -> SuperComplex:
    """Perfect complex from copy lists and the matrices of its differentials.

    degrees[k] lists (key, parity) for the copies of the term in degree
    start + k; matrices[k] maps (target key, source key) to the entry of the
    differential out of that degree.  Copies are numbered stably with the
    even ones first.
    """
    numbers, shapes = [], []
    for copies in degrees:
        order = ([key for key, p in copies if p == 0]
                 + [key for key, p in copies if p == 1])
        numbers.append({key: n for n, key in enumerate(order)})
        even = sum(1 for _, p in copies if p == 0)
        shapes.append((even, len(copies) - even))
    renumbered = tuple({(numbers[k + 1][w], numbers[k][u]): elem
                        for (w, u), elem in matrix.items()}
                       for k, matrix in enumerate(matrices))
    return SuperComplex(alg, start, tuple(shapes), renumbered)


def direct_sum_supercomplex(a: SuperComplex, b: SuperComplex) -> SuperComplex:
    """Termwise sum; the differential is block diagonal."""
    if a.algebra != b.algebra:
        raise DomainMismatchError("summands over different superalgebras")
    lo = min(a.start, b.start)
    hi = max(a.start + len(a.shapes), b.start + len(b.shapes))
    degrees, matrices = [], []
    for n in range(lo, hi):
        degrees.append([((tag, u), p) for tag, c in (("a", a), ("b", b))
                        for u, p in _copies(_shape(c, n))])
    for n in range(lo, hi - 1):
        matrices.append({((tag, w), (tag, u)): elem
                         for tag, c in (("a", a), ("b", b))
                         for (w, u), elem in _matrix(c, n).items()})
    return _free_complex(a.algebra, lo, degrees, matrices)


def tensor_supercomplexes(c: SuperComplex, d: SuperComplex) -> SuperComplex:
    """Total complex of the termwise tensor, as a graded Kronecker product.

    Copy (u, v) of C_i (x) D_j has parity |u| + |v|, where |u| is the
    parity of the copy.  With d e_u = sum_w a_wu e_w in C and
    d e_v = sum_x sum_s c_s theta_s e_x in D (a_wu over A (x) Lambda, c_s
    over A), the differential is

        d(e_u (x) e_v) = sum_w a_wu (e_w (x) e_v)
            + (-1)^i sum_x sum_s (-1)^(|s| |u|) c_s theta_s (e_u (x) e_x),

    the factor (-1)^(|s| |u|) moving theta_s past e_u.
    """
    if c.algebra != d.algebra:
        raise DomainMismatchError("tensor over different superalgebras")
    lo = c.start + d.start
    hi = (c.start + len(c.shapes) - 1) + (d.start + len(d.shapes) - 1)
    degrees, matrices = [], []
    for n in range(lo, hi + 1):
        degrees.append([((i, u, v), (pu + pv) % 2)
                        for i in c.degrees() if n - i in d.degrees()
                        for u, pu in _copies(_shape(c, i))
                        for v, pv in _copies(_shape(d, n - i))])
    for n in range(lo, hi):
        matrix = {}
        for i in c.degrees():
            j = n - i
            if j not in d.degrees():
                continue
            for (w, u), elem in _matrix(c, i).items():
                for v, _ in _copies(_shape(d, j)):
                    matrix[((i + 1, w, v), (i, u, v))] = elem
            for (x, v), elem in _matrix(d, j).items():
                for u, pu in _copies(_shape(c, i)):
                    matrix[((i, u, x), (i, u, v))] = tuple(
                        (s, coeff if (i + len(s) * pu) % 2 == 0 else -coeff)
                        for s, coeff in elem)
        matrices.append(matrix)
    return _free_complex(c.algebra, lo, degrees, matrices)


def cone_supercomplex(src: SuperComplex, tgt: SuperComplex,
                      chain_maps: Sequence[dict]) -> SuperComplex:
    """Mapping cone of a termwise chain map; degree n holds src_{n+1} + tgt_n.

    chain_maps[k] is the matrix of the chain map on the source term of
    degree src.start + k.  The differential is the block matrix
    [[-d_src, 0], [f, d_tgt]].
    """
    if src.algebra != tgt.algebra:
        raise DomainMismatchError("cone over different superalgebras")
    if len(chain_maps) != len(src.shapes):
        raise ValidationError("one chain map per source term required")
    shifted = [n - 1 for n in src.degrees()]
    lo = min([tgt.start] + shifted)
    hi = max([tgt.start + len(tgt.shapes) - 1] + shifted)
    degrees, matrices = [], []
    for n in range(lo, hi + 1):
        degrees.append([(("s", u), p) for u, p in _copies(_shape(src, n + 1))]
                       + [(("t", u), p) for u, p in _copies(_shape(tgt, n))])
    for n in range(lo, hi):
        matrix = {(("s", w), ("s", u)): tuple((word, -coeff) for word, coeff in elem)
                  for (w, u), elem in _matrix(src, n + 1).items()}
        matrix.update({(("t", w), ("t", u)): elem
                       for (w, u), elem in _matrix(tgt, n).items()})
        if n + 1 in src.degrees():
            matrix.update({(("t", w), ("s", u)): elem
                           for (w, u), elem in chain_maps[n + 1 - src.start].items()})
        matrices.append(matrix)
    return _free_complex(src.algebra, lo, degrees, matrices)


# -- supports ----------------------------------------------------------------------------


def supph_super(c: SuperComplex) -> ClosedSet:
    """Union over degrees and parities of the cohomology supports."""
    ring = c.algebra.base
    parts = []
    for parity in (0, 1):
        pc = component_complex(c, parity)
        for i in pc.degrees():
            h = cohomology(pc, i)
            parts.append(ClosedSet(ring, tuple(annihilator(h))))
    return closed_union_all(ring, parts)


def _fibre_rank(columns, basis: GroebnerBasis) -> int:
    """Rank over Frac(A/p), p the ideal of the grevlex basis, of the matrix
    with these columns.

    Fraction-free elimination on normal forms modulo p: A/p is a domain, so
    scaling a row by a nonzero pivot keeps its span over the fraction field.
    The pivot of least degree is made monic first, which keeps a constant
    pivot from growing the other rows at all.  The elimination runs in the
    packed terms of the basis's reducers (`polymod._Reducers`): an entry is
    its remainder from `divide`, ascending [(key, c)] with the lead first
    and empty for zero, and at position 0 a key k has degree -(k >> low).
    Each nonzero entry is packed and reduced once; pivot * e - a * f adds
    keys, sums raw products, reduces each sum once through `Field.from_sum`
    and is divided again; with no reducers (the zero ideal) the terms are
    sorted, not divided.  Zeros and units cost nothing: a zero entry is its
    own normal form, a lead coefficient of 1 needs no scaling, and
    pivot * e - a * f is zero where e and f are.  Each skipped step would
    return its input unchanged, so the rank is exact.  A product past
    MAX_EXPONENT raises ValidationError, as `_Reducers.s_vector` does.
    """
    red = basis._reducers
    pk, field = red.pk, basis.ring.field
    low, guard, from_sum = pk.low.bit_length(), pk.guard, field.from_sum
    divide = red.divide if red.reducers else lambda work: (sorted(work.items()), 1)

    def difference(pivot, e, minus_a, f) -> list:
        acc: dict = {}
        for x, y in ((pivot, e), (minus_a, f)):
            for kx, cx in x:
                for ky, cy in y:
                    k = kx + ky
                    acc[k] = acc.get(k, 0) + cx * cy
        work = {k: s for k, s in zip(acc, map(from_sum, acc.values())) if s}
        if any(k & guard for k in work):
            raise ValidationError(_PAST_LIMIT)
        return divide(work)[0] if work else []

    rows = [row for row in ([e.terms and divide(pk.pack((e,)))[0] for e in col]
                            for col in columns) if any(row)]
    rank = 0
    while rows:
        _, _, i, j = min((-(e[0][0] >> low), len(e), i, j)
                         for i, row in enumerate(rows) for j, e in enumerate(row) if e)
        pivot_row = rows.pop(i)
        lead = pivot_row[j][0][1]
        if lead != 1:
            inv, mul = field.inv(lead), field.mul
            pivot_row = [[(k, mul(c, inv)) for k, c in e] for e in pivot_row]
        pivot = pivot_row[j]
        rest = []
        for row in rows:
            if row[j]:
                minus_a = [(k, -c) for k, c in row[j]]
                row = [e if not (e or f) else difference(pivot, e, minus_a, f)
                       for e, f in zip(row, pivot_row)]
            if any(row):
                rest.append(row)
        rows = rest
        rank += 1
    return rank


def _fibre_is_exact(c: SuperComplex, matrices: list, which: list,
                    basis: GroebnerBasis) -> bool:
    """Whether rank C_i = rank d_i + rank d_(i-1) over Frac(A/p) for every
    parity and degree i.

    matrices lists the distinct component matrices of the differentials and
    which[k][parity] is the index of the one of d_k.  A matrix is ranked
    only when a degree check first needs it, at most once however many
    parities and degrees share it, and the first failed check ends the call.
    """
    ranks: dict = {}
    for parity in (0, 1):
        in_rank = 0
        for k, shape in enumerate(c.shapes):
            out_rank = 0
            if k < len(which):
                m = which[k][parity]
                if m not in ranks:
                    ranks[m] = _fibre_rank(matrices[m], basis)
                out_rank = ranks[m]
            if free_component_rank(c.algebra, shape, parity) != out_rank + in_rank:
                return False
            in_rank = out_rank
    return True


def supph_sites(c: SuperComplex, space: SiteSpace) -> frozenset:
    """Labels of the sites of the space that lie in supph_super(c).

    A bounded complex of free A-modules is exact at a prime p iff its fibre
    C (x) k(p) is exact (Buchsbaum-Eisenbud, J. Algebra 25, 1973).  So at a
    certified prime site, membership means some parity and degree i with
    rank C_i - rank d_i - rank d_(i-1) nonzero over Frac(A/p).  Every other
    site falls back on site_in_closed with supph_super(c), computed at most
    once.  `_fibre_rank` eliminates on the packed terms of the reducers of
    `site.certified_basis` and builds no `Poly`.

    The component matrices are numbered once per complex, equal ones
    sharing a number, so each distinct matrix is ranked at most once per
    site.  Equal matrices are common: a differential without odd entries
    often has equal even and odd components, since theta_w times an even
    image keeps its coefficients, and equal maps recur in other degrees.
    """
    if space.ring != c.algebra.base:
        raise DomainMismatchError("site space and complex over different rings")
    number: dict = {}
    which = [tuple(number.setdefault(cols, len(number))
                   for cols in free_columns(c.algebra, c.shapes[k], c.shapes[k + 1], m))
             for k, m in enumerate(c.matrices)]
    matrices = list(number)
    supp = None
    out = set()
    for site in space.sites:
        basis = site.certified_basis
        if basis is None:
            if supp is None:
                supp = supph_super(c)
            inside = site_in_closed(site, supp)
        else:
            inside = not _fibre_is_exact(c, matrices, which, basis)
        if inside:
            out.add(site.label)
    return frozenset(out)


# -- the odd-generator filtration ---------------------------------------------------------


@dataclass(frozen=True)
class JLayer:
    """The subquotient J^i M / J^(i+1) M of the odd-ideal filtration, by parity."""

    quotient_even: PresentedModule
    quotient_odd: PresentedModule


def j_filtration(alg: SuperAlgebra, shape: tuple) -> tuple:
    """Layers of M, JM, J^2 M, ... for the free module M of the shape.

    J is the two-sided ideal of the odd generators.  On the (copy, word)
    basis over A, J^0 M is spanned by the copies and J^(i+1) M by the
    nonzero products theta_t theta_word e_copy of the words of J^i M, so
    each layer is free on the words of J^i M outside J^(i+1) M; the
    filtration clears after odd_rank + 1 steps.
    """
    stage = {(u, pu, ()) for u, pu in _copies(shape)}
    layers = []
    while stage:
        nxt = set()
        for u, pu, word in stage:
            for t in range(alg.odd_rank):
                sign, union = wedge((t,), word)
                if sign != 0:
                    nxt.add((u, pu, union))
        ranks = [0, 0]
        for _, pu, word in stage - nxt:
            ranks[(pu + len(word)) % 2] += 1
        layers.append(JLayer(PresentedModule.free(alg.base, ranks[0]),
                             PresentedModule.free(alg.base, ranks[1])))
        stage = nxt
    return tuple(layers)
