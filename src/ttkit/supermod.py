"""Split supercommutative algebras and their module pairs.

An algebra here is A tensor an exterior algebra on d odd generators, and a
module is a pair of presented A-modules with multiplication maps for every
nonzero exterior-basis element.  Validation checks the multiplication
against the exterior products on all basis pairs, which is exactly the
commuting-diagram datum that reconstructs the one-object picture.

Basis order is graded lexicographic in the odd indices: shorter products
first, ties broken by index tuples.  The empty product always acts as the
identity and is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainMismatchError, ValidationError
from .geometry import ClosedSet, closed_union_all
from .polyring import Poly, PolyRing
from .polymod import (
    ModuleMap,
    PresentedComplex,
    PresentedModule,
    annihilator,
    cohomology,
    direct_sum,
    submodule_lift,
    submodule_presentation,
    unit_vector,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)


# -- exterior basis combinatorics ---------------------------------------------------


def all_subsets(d: int) -> list:
    out = [()]
    for j in range(d):
        out = out + [s + (j,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def parity_basis(d: int, parity: int) -> list:
    return [s for s in all_subsets(d) if len(s) % 2 == parity]


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

    def basis(self, parity: int) -> list:
        return parity_basis(self.odd_rank, parity % 2)

    def nonempty_subsets(self) -> list:
        return [s for s in all_subsets(self.odd_rank) if s]

    def describe(self) -> str:
        names = ", ".join(f"t{j}" for j in range(self.odd_rank))
        return f"{self.base.describe()} (x) Lambda({names})"


# -- supermodules --------------------------------------------------------------------


@dataclass(frozen=True)
class SuperModule:
    """Pair of presented modules with one action map per exterior generator word.

    actions holds ((parity, subset, columns), ...) for every nonempty
    subset, both parities; column j is the image of generator j of the
    source component, a vector over the component of parity
    (parity + len(subset)) mod 2.
    """

    algebra: SuperAlgebra
    even: PresentedModule
    odd: PresentedModule
    actions: tuple

    def component(self, i: int) -> PresentedModule:
        return self.even if i % 2 == 0 else self.odd

    def action_columns(self, i: int, subset: tuple) -> tuple:
        if not subset:
            mod = self.component(i)
            return tuple(unit_vector(mod.ring, mod.rank, j) for j in range(mod.rank))
        for p, s, cols in self.actions:
            if p == i % 2 and s == tuple(subset):
                return cols
        raise ValidationError(f"no action stored for parity {i} and word {subset}")

    def action_map(self, i: int, subset: tuple) -> ModuleMap:
        tgt = self.component(i + len(subset))
        return ModuleMap(self.component(i), tgt, self.action_columns(i, subset))

    def apply_word(self, i: int, subset: tuple, v: Sequence[Poly]) -> tuple:
        cols = self.action_columns(i, subset)
        tgt = self.component(i + len(subset))
        out = zero_vector(tgt.ring, tgt.rank)
        for j, entry in enumerate(v):
            if not entry.is_zero():
                out = vec_add(out, vec_scale(entry, cols[j]))
        return out

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def validate(self) -> None:
        alg = self.algebra
        ring = alg.base
        if self.even.ring != ring or self.odd.ring != ring:
            raise DomainMismatchError("components must live over the base ring")
        wanted = {(i, s) for i in (0, 1) for s in alg.nonempty_subsets()}
        stored = {(p, s) for p, s, _ in self.actions}
        if stored != wanted:
            raise ValidationError("action table does not match the exterior basis")
        for p, s, cols in self.actions:
            src, tgt = self.component(p), self.component(p + len(s))
            if len(cols) != src.rank or any(len(c) != tgt.rank for c in cols):
                raise ValidationError(f"action ({p}, {s}) has the wrong shape")
            self.action_map(p, s).check_well_defined()
        for s in alg.nonempty_subsets():
            for t in alg.nonempty_subsets():
                sign, union = wedge(s, t)
                for i in (0, 1):
                    mid = (i + len(t)) % 2
                    tgt = self.component(i + len(t) + len(s))
                    for j in range(self.component(i).rank):
                        step = self.apply_word(mid, s, self.action_columns(i, t)[j])
                        if sign == 0:
                            if not tgt.contains_in_relations(step):
                                raise ValidationError(
                                    f"repeated factor {s} * {t} does not act as zero"
                                )
                            continue
                        want = self.action_columns(i, union)[j]
                        if sign < 0:
                            want = tuple(-q for q in want)
                        if not tgt.contains_in_relations(vec_sub(step, want)):
                            raise ValidationError(
                                f"multiplication disagrees with the exterior "
                                f"product on {s} * {t} at parity {i}"
                            )


def assemble_actions(alg: SuperAlgebra, even: PresentedModule, odd: PresentedModule,
                     theta: Sequence) -> tuple:
    """Full action table from single-generator actions.

    theta[j] = (columns on the even part, columns on the odd part).  Longer
    words compose with the smallest index applied last, which matches the
    sorted-word convention with no extra sign.
    """
    comps = (even, odd)

    def word_columns(i: int, subset: tuple) -> tuple:
        src = comps[i % 2]
        tgt = comps[(i + len(subset)) % 2]
        if not subset:
            return tuple(unit_vector(src.ring, src.rank, j) for j in range(src.rank))
        head, rest = subset[0], subset[1:]
        inner = word_columns(i, rest)
        head_cols = theta[head][(i + len(rest)) % 2]
        out = []
        for j in range(src.rank):
            acc = zero_vector(src.ring, tgt.rank)
            for k, entry in enumerate(inner[j]):
                if not entry.is_zero():
                    acc = vec_add(acc, vec_scale(entry, head_cols[k]))
            out.append(acc)
        return tuple(out)

    table = []
    for i in (0, 1):
        for s in alg.nonempty_subsets():
            table.append((i, s, word_columns(i, s)))
    return tuple(table)


def zero_supermodule(alg: SuperAlgebra) -> SuperModule:
    z = PresentedModule.zero(alg.base)
    actions = tuple((i, s, ()) for i in (0, 1) for s in alg.nonempty_subsets())
    return SuperModule(alg, z, z, actions)


def ring_supermodule(alg: SuperAlgebra) -> SuperModule:
    """The algebra over itself: components indexed by the exterior basis."""
    ring = alg.base
    ev, od = alg.basis(0), alg.basis(1)
    comps = (PresentedModule.free(ring, len(ev)), PresentedModule.free(ring, len(od)))
    bases = (ev, od)
    actions = []
    for i in (0, 1):
        for s in alg.nonempty_subsets():
            tgt_basis = bases[(i + len(s)) % 2]
            tindex = {b: k for k, b in enumerate(tgt_basis)}
            cols = []
            for b in bases[i]:
                sign, union = wedge(s, b)
                col = zero_vector(ring, len(tgt_basis))
                if sign != 0:
                    unit = ring.one() if sign > 0 else -ring.one()
                    col = tuple(unit if k == tindex[union] else ring.zero()
                                for k in range(len(tgt_basis)))
                cols.append(col)
            actions.append((i, s, tuple(cols)))
    return SuperModule(alg, comps[0], comps[1], tuple(actions))


def parity_change(m: SuperModule) -> SuperModule:
    """Swap the components; action maps are relabeled with no extra sign."""
    actions = tuple((1 - p, s, cols) for p, s, cols in m.actions)
    actions = tuple(sorted(actions, key=lambda e: (e[0], len(e[1]), e[1])))
    return SuperModule(m.algebra, m.odd, m.even, actions)


def direct_sum_super(a: SuperModule, b: SuperModule) -> SuperModule:
    if a.algebra != b.algebra:
        raise DomainMismatchError("summands over different superalgebras")
    ring = a.algebra.base
    even = direct_sum(a.even, b.even)
    odd = direct_sum(a.odd, b.odd)
    comps = {0: (a.even, b.even, even), 1: (a.odd, b.odd, odd)}
    actions = []
    for i in (0, 1):
        for s in a.algebra.nonempty_subsets():
            t = (i + len(s)) % 2
            ta, tb, _ = comps[t]
            cols = []
            for col in a.action_columns(i, s):
                cols.append(tuple(col) + zero_vector(ring, tb.rank))
            for col in b.action_columns(i, s):
                cols.append(zero_vector(ring, ta.rank) + tuple(col))
            actions.append((i, s, tuple(cols)))
    return SuperModule(a.algebra, even, odd, tuple(actions))


def free_supermodule(alg: SuperAlgebra, even_rank: int, odd_rank: int) -> SuperModule:
    """R^(even_rank | odd_rank): copies of the algebra, some parity-shifted."""
    out = None
    for _ in range(even_rank):
        piece = ring_supermodule(alg)
        out = piece if out is None else direct_sum_super(out, piece)
    for _ in range(odd_rank):
        piece = parity_change(ring_supermodule(alg))
        out = piece if out is None else direct_sum_super(out, piece)
    return out if out is not None else zero_supermodule(alg)


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


def free_supermap(alg: SuperAlgebra, src_shape: tuple, tgt_shape: tuple,
                  entries) -> SuperMap:
    """Map of free supermodules from a matrix over the whole algebra.

    entries[(w, u)] is the coefficient of target copy w in the image of
    source copy u, a sequence of (word, Poly) pairs whose parities must
    all equal parity(u) + parity(w).
    """
    ring = alg.base
    src = free_supermodule(alg, *src_shape)
    tgt = free_supermodule(alg, *tgt_shape)
    sa, sb = src_shape
    for (w, u), elem in entries.items():
        want = ((0 if u < sa else 1) + (0 if w < tgt_shape[0] else 1)) % 2
        for word, _ in elem:
            if len(word) % 2 != want:
                raise ValidationError(
                    f"entry ({w}, {u}) mixes parities in the free map")
    parts = []
    for parity in (0, 1):
        cols = []
        for u in range(sa + sb):
            copy_parity = 0 if u < sa else 1
            for word in alg.basis((parity + copy_parity) % 2):
                col = [ring.zero()] * free_component_rank(alg, tgt_shape, parity)
                for (w, uu), elem in entries.items():
                    if uu != u:
                        continue
                    for s, coeff in elem:
                        sign, combined = wedge(word, s)
                        if sign == 0 or coeff.is_zero():
                            continue
                        p2, idx = free_slot(alg, tgt_shape, w, combined)
                        if p2 != parity:
                            raise ValidationError("free map is not even")
                        scaled = coeff if sign > 0 else -coeff
                        col[idx] = col[idx] + scaled
                cols.append(tuple(col))
        parts.append(ModuleMap(src.component(parity), tgt.component(parity),
                               tuple(cols)))
    return SuperMap(src, tgt, parts[0], parts[1])


def free_entries(f: SuperMap, src_shape: tuple, tgt_shape: tuple) -> dict:
    """The matrix of a map of free supermodules; inverse of free_supermap.

    The image of source copy u is read off the column of its generator
    theta_() e_u and split by target copy and word.
    """
    alg = f.source.algebra
    for parity, part in ((0, f.even), (1, f.odd)):
        if (part.source.rank != free_component_rank(alg, src_shape, parity)
                or part.target.rank != free_component_rank(alg, tgt_shape, parity)):
            raise ValidationError("map does not match the given free shapes")
    entries = {}
    for u in range(sum(src_shape)):
        parity, idx = free_slot(alg, src_shape, u, ())
        col = (f.even if parity == 0 else f.odd).columns[idx]
        for w, pw in _copies(tgt_shape):
            elem = []
            for word in alg.basis(parity + pw):
                coeff = col[free_slot(alg, tgt_shape, w, word)[1]]
                if not coeff.is_zero():
                    elem.append((word, coeff))
            if elem:
                entries[(w, u)] = tuple(elem)
    return entries


def scalar_supermap(alg: SuperAlgebra, shape: tuple, f: Poly) -> SuperMap:
    """Multiplication by an even base element on the free module of the shape."""
    copies = shape[0] + shape[1]
    entries = {(u, u): (((), f),) for u in range(copies)}
    return free_supermap(alg, shape, shape, entries)


def koszul_complex_super(alg: SuperAlgebra, elements: Sequence[Poly]) -> SuperComplex:
    """Tensor of the two-term complexes R -f-> R; realizes V(elements)."""
    if not elements:
        return single_supercomplex(ring_supermodule(alg), 0, (1, 0))
    out = None
    for f in elements:
        f_map = scalar_supermap(alg, (1, 0), f)
        step = SuperComplex(alg, 0, (f_map.source, f_map.target), (f_map,),
                            ((1, 0), (1, 0)))
        out = step if out is None else tensor_supercomplexes(out, step)
    return out


# -- maps of supermodules --------------------------------------------------------------


@dataclass(frozen=True)
class SuperMap:
    """Even map of supermodules: a pair of component maps commuting with scalars."""

    source: SuperModule
    target: SuperModule
    even: ModuleMap
    odd: ModuleMap

    def validate(self) -> None:
        if self.source.algebra != self.target.algebra:
            raise DomainMismatchError("map between different superalgebras")
        self.even.check_well_defined()
        self.odd.check_well_defined()
        parts = (self.even, self.odd)
        for i in (0, 1):
            src = self.source.component(i)
            for s in self.source.algebra.nonempty_subsets():
                t = (i + len(s)) % 2
                tgt = self.target.component(t)
                for j in range(src.rank):
                    via_map = self.target.apply_word(
                        i, s, parts[i].columns[j]
                    )
                    via_action = parts[t].apply_vector(
                        self.source.action_columns(i, s)[j]
                    )
                    if not tgt.contains_in_relations(vec_sub(via_map, via_action)):
                        raise ValidationError(
                            f"map does not commute with theta word {s} at parity {i}"
                        )

    def compose(self, first: "SuperMap") -> "SuperMap":
        return SuperMap(first.source, self.target,
                        self.even.compose(first.even), self.odd.compose(first.odd))

    def is_zero_map(self) -> bool:
        return self.even.is_zero_map() and self.odd.is_zero_map()


# -- complexes ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperComplex:
    """Bounded complex of supermodules with even differentials.

    free_shapes, when present, marks the complex as perfect: entry k is the
    (even, odd) rank over the whole algebra of the term in degree start + k,
    and a term of shape (a, b) is free_supermodule(algebra, a, b) as a
    value.  Sums, tensors and cones read and build differentials as
    matrices over that layout, and reject complexes without it.
    """

    algebra: SuperAlgebra
    start: int
    terms: tuple
    maps: tuple
    free_shapes: Optional[tuple] = None

    def __post_init__(self) -> None:
        if len(self.maps) != max(len(self.terms) - 1, 0):
            raise ValidationError("need one differential between consecutive terms")
        if self.free_shapes is not None and len(self.free_shapes) != len(self.terms):
            raise ValidationError("one free shape per term required")

    def degrees(self) -> range:
        return range(self.start, self.start + len(self.terms))

    def map_from(self, i: int) -> Optional[SuperMap]:
        k = i - self.start
        if 0 <= k < len(self.maps):
            return self.maps[k]
        return None

    def is_perfect(self) -> bool:
        return self.free_shapes is not None

    def validate(self) -> None:
        for t in self.terms:
            if t.algebra != self.algebra:
                raise DomainMismatchError("term over a different superalgebra")
        for k, f in enumerate(self.maps):
            if f.source != self.terms[k] or f.target != self.terms[k + 1]:
                raise ValidationError(f"differential {k} does not match its terms")
            f.validate()
        for k in range(len(self.maps) - 1):
            if not self.maps[k + 1].compose(self.maps[k]).is_zero_map():
                raise ValidationError(f"d^2 is nonzero starting in slot {k}")


def single_supercomplex(m: SuperModule, degree: int = 0,
                        free_shape: Optional[tuple] = None) -> SuperComplex:
    shapes = (free_shape,) if free_shape is not None else None
    return SuperComplex(m.algebra, degree, (m,), (), shapes)


def component_complex(c: SuperComplex, parity: int) -> PresentedComplex:
    ring = c.algebra.base
    mods = tuple(t.component(parity) for t in c.terms)
    maps = tuple((f.even if parity % 2 == 0 else f.odd) for f in c.maps)
    if not mods:
        mods = (PresentedModule.zero(ring),)
        maps = ()
    return PresentedComplex(ring, c.start, mods, maps)


def shift_supercomplex(c: SuperComplex, k: int = 1) -> SuperComplex:
    """c[k]: degree n picks up the old degree n + k; odd k flips the signs."""
    if k % 2 == 0:
        maps = c.maps
    else:
        maps = tuple(
            SuperMap(f.source, f.target,
                     ModuleMap(f.even.source, f.even.target,
                               tuple(tuple(-e for e in col) for col in f.even.columns)),
                     ModuleMap(f.odd.source, f.odd.target,
                               tuple(tuple(-e for e in col) for col in f.odd.columns)))
            for f in c.maps
        )
    return SuperComplex(c.algebra, c.start - k, c.terms, maps, c.free_shapes)


def _shape(c: SuperComplex, n: int) -> tuple:
    return c.free_shapes[n - c.start] if n in c.degrees() else (0, 0)


def _require_free(op: str, *complexes: SuperComplex) -> None:
    for c in complexes:
        if c.free_shapes is None:
            raise ValidationError(f"{op} needs complexes with free shapes")


def _free_complex(alg: SuperAlgebra, start: int, degrees, matrices) -> SuperComplex:
    """Perfect complex from copy lists and the matrices of its differentials.

    degrees[k] lists (key, parity) for the copies of the term in degree
    start + k; matrices[k] maps (target key, source key) to the entry of the
    differential out of that degree, a sequence of (word, Poly) pairs.
    Copies are numbered stably with the even ones first, which is the
    layout of free_supermodule.
    """
    numbers, shapes = [], []
    for copies in degrees:
        order = ([key for key, p in copies if p == 0]
                 + [key for key, p in copies if p == 1])
        numbers.append({key: n for n, key in enumerate(order)})
        even = sum(1 for _, p in copies if p == 0)
        shapes.append((even, len(copies) - even))
    maps = []
    for k, matrix in enumerate(matrices):
        entries = {(numbers[k + 1][w], numbers[k][u]): elem
                   for (w, u), elem in matrix.items()}
        maps.append(free_supermap(alg, shapes[k], shapes[k + 1], entries))
    terms = tuple(free_supermodule(alg, *shape) for shape in shapes)
    return SuperComplex(alg, start, terms, tuple(maps), tuple(shapes))


def _differential_entries(c: SuperComplex, n: int) -> dict:
    f = c.map_from(n)
    return {} if f is None else free_entries(f, _shape(c, n), _shape(c, n + 1))


def direct_sum_supercomplex(a: SuperComplex, b: SuperComplex) -> SuperComplex:
    """Termwise sum; the differential is block diagonal."""
    if a.algebra != b.algebra:
        raise DomainMismatchError("summands over different superalgebras")
    _require_free("direct sum", a, b)
    lo = min(a.start, b.start)
    hi = max(a.start + len(a.terms), b.start + len(b.terms))
    degrees, matrices = [], []
    for n in range(lo, hi):
        degrees.append([((tag, u), p) for tag, c in (("a", a), ("b", b))
                        for u, p in _copies(_shape(c, n))])
    for n in range(lo, hi - 1):
        matrices.append({((tag, w), (tag, u)): elem
                         for tag, c in (("a", a), ("b", b))
                         for (w, u), elem in _differential_entries(c, n).items()})
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
    _require_free("tensor", c, d)
    lo = c.start + d.start
    hi = (c.start + len(c.terms) - 1) + (d.start + len(d.terms) - 1)
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
            for (w, u), elem in _differential_entries(c, i).items():
                for v, _ in _copies(_shape(d, j)):
                    matrix[((i + 1, w, v), (i, u, v))] = elem
            for (x, v), elem in _differential_entries(d, j).items():
                for u, pu in _copies(_shape(c, i)):
                    matrix[((i, u, x), (i, u, v))] = tuple(
                        (s, coeff if (i + len(s) * pu) % 2 == 0 else -coeff)
                        for s, coeff in elem)
        matrices.append(matrix)
    return _free_complex(c.algebra, lo, degrees, matrices)


def cone_supercomplex(src: SuperComplex, tgt: SuperComplex,
                      chain_maps: Sequence[SuperMap]) -> SuperComplex:
    """Mapping cone of a termwise chain map; degree n holds src_{n+1} + tgt_n.

    The differential is the block matrix [[-d_src, 0], [f, d_tgt]].
    """
    if src.algebra != tgt.algebra:
        raise DomainMismatchError("cone over different superalgebras")
    if len(chain_maps) != len(src.terms):
        raise ValidationError("one chain map per source term required")
    _require_free("cone", src, tgt)
    shifted = [n - 1 for n in src.degrees()]
    lo = min([tgt.start] + shifted)
    hi = max([tgt.start + len(tgt.terms) - 1] + shifted)
    degrees, matrices = [], []
    for n in range(lo, hi + 1):
        degrees.append([(("s", u), p) for u, p in _copies(_shape(src, n + 1))]
                       + [(("t", u), p) for u, p in _copies(_shape(tgt, n))])
    for n in range(lo, hi):
        matrix = {(("s", w), ("s", u)): tuple((word, -coeff) for word, coeff in elem)
                  for (w, u), elem in _differential_entries(src, n + 1).items()}
        matrix.update({(("t", w), ("t", u)): elem
                       for (w, u), elem in _differential_entries(tgt, n).items()})
        if n + 1 in src.degrees():
            f = chain_maps[n + 1 - src.start]
            chain = free_entries(f, _shape(src, n + 1), _shape(tgt, n + 1))
            matrix.update({(("t", w), ("s", u)): elem
                           for (w, u), elem in chain.items()})
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


# -- the odd-generator filtration ---------------------------------------------------------


@dataclass(frozen=True)
class JLayer:
    """One step J^i M of the odd-ideal filtration with its subquotient."""

    stage: SuperModule
    gens_even: tuple
    gens_odd: tuple
    quotient_even: PresentedModule
    quotient_odd: PresentedModule


def _prune_generators(vectors, ambient: PresentedModule) -> list:
    kept = []
    for v in vectors:
        if ambient.contains_in_relations(v):
            continue
        if kept and submodule_lift(v, kept, ambient) is not None:
            continue
        kept.append(tuple(v))
    return kept


def _stage_supermodule(m: SuperModule, gens_even, gens_odd) -> SuperModule:
    alg = m.algebra
    sub0, _ = submodule_presentation(list(gens_even), m.even)
    sub1, _ = submodule_presentation(list(gens_odd), m.odd)
    gens = (gens_even, gens_odd)
    subs = (sub0, sub1)
    theta = []
    for t in range(alg.odd_rank):
        per_parity = []
        for i in (0, 1):
            cols = []
            for v in gens[i]:
                w = m.apply_word(i, (t,), v)
                lifted = submodule_lift(w, list(gens[1 - i]), m.component(1 - i))
                if lifted is None:
                    raise ValidationError("odd action leaves the filtration stage")
                cols.append(tuple(lifted))
            per_parity.append(tuple(cols))
        theta.append((per_parity[0], per_parity[1]))
    actions = assemble_actions(alg, sub0, sub1, theta)
    return SuperModule(alg, sub0, sub1, actions)


def j_filtration(m: SuperModule) -> tuple:
    """Stages M, JM, J^2 M, ... with subquotients, until the ideal clears.

    J is the two-sided ideal of the odd generators; the filtration must
    vanish after at most odd_rank + 1 steps, anything longer is rejected.
    """
    alg = m.algebra
    gens_even = _prune_generators(
        [unit_vector(alg.base, m.even.rank, j) for j in range(m.even.rank)], m.even)
    gens_odd = _prune_generators(
        [unit_vector(alg.base, m.odd.rank, j) for j in range(m.odd.rank)], m.odd)
    layers = []
    step = 0
    while gens_even or gens_odd:
        if step > alg.odd_rank:
            raise ValidationError("odd ideal powers do not terminate")
        next_even = _prune_generators(
            [m.apply_word(1, (t,), v) for v in gens_odd for t in range(alg.odd_rank)],
            m.even)
        next_odd = _prune_generators(
            [m.apply_word(0, (t,), v) for v in gens_even for t in range(alg.odd_rank)],
            m.odd)
        stage = _stage_supermodule(m, tuple(gens_even), tuple(gens_odd))
        extra_even = []
        for w in next_even:
            lifted = submodule_lift(w, list(gens_even), m.even)
            if lifted is None:
                raise ValidationError("next stage does not embed in the current one")
            extra_even.append(tuple(lifted))
        extra_odd = []
        for w in next_odd:
            lifted = submodule_lift(w, list(gens_odd), m.odd)
            if lifted is None:
                raise ValidationError("next stage does not embed in the current one")
            extra_odd.append(tuple(lifted))
        layers.append(JLayer(
            stage, tuple(gens_even), tuple(gens_odd),
            PresentedModule(alg.base, stage.even.rank,
                            stage.even.relations + tuple(extra_even)),
            PresentedModule(alg.base, stage.odd.rank,
                            stage.odd.relations + tuple(extra_odd)),
        ))
        gens_even, gens_odd = next_even, next_odd
        step += 1
    return tuple(layers)
