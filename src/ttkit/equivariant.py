"""Group actions on polynomial rings and equivariant module theory.

Actions are linear on variables, so everything stays graded and each
degree is finite linear algebra.  The invariant ring is presented on
generators found degreewise up to the Noether bound |G| and certified
against the Molien series; modules of invariants come in three flavors
(trivial twist, graded, finite length over the base field), all of which
return a presentation over the invariant presentation ring together with
generator lifts so the counit map downstream stays constructive.

The tower peels supports one declared invariant component at a time: a
component with trivial pointwise stabilizer goes through the reduction
triangle, and a fixed component is consumed through its I-adic filtration
whose layers are killed by the component ideal, making the stabilizer act
linearly so isotypic decomposition applies.  Strict support decrease is
rechecked at every stage and failure is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations as _permutations
from typing import Optional, Sequence

from .errors import DomainMismatchError, PreconditionError, TruncationError, ValidationError
from .fields import Echelon, Field, Matrix, kernel_basis, rref, solve
from .geometry import ClosedSet, closed_contains, image_closed_under_map
from .grouprep import (
    CharacterTable,
    FiniteGroup,
    check_order_invertible,
    cyclic_group,
    homomorphism_failure,
)
from .memo import MEMO_SIZE
from .polyring import GroebnerBasis, Poly, PolyRing, radical_equal
from .polymod import (
    ModuleMap,
    PresentedComplex,
    PresentedModule,
    annihilator,
    cohomology_with_lifts,
    direct_sum,
    graded_dim,
    graded_standard_pairs,
    map_cokernel,
    map_is_isomorphism,
    map_kernel,
    module_is_graded,
    module_tensor,
    monomials_of_degree,
    multiplication_matrix,
    standard_pairs,
    submodule_lift,
    submodule_presentation,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vector_in_standard_coords,
    weighted_exponents,
    zero_vector,
)


# -- ring actions -----------------------------------------------------------------


@dataclass(frozen=True)
class RingAction:
    group: FiniteGroup
    ring: PolyRing
    matrices: tuple  # one invertible Matrix per element; g(x_j) = sum_i M[i,j] x_i

    def validate(self) -> None:
        g, fld, n = self.group, self.ring.field, self.ring.nvars
        check_order_invertible(fld, g.order)
        if len(self.matrices) != g.order:
            raise ValidationError("one substitution matrix per group element required")
        for m in self.matrices:
            if m.rows != n or m.cols != n or m.field != fld:
                raise ValidationError("substitution matrix of wrong shape or field")
        if not self.matrices[g.identity].equals(Matrix.identity(fld, n)):
            raise ValidationError("identity element must substitute trivially")
        bad = homomorphism_failure(g, self.matrices)
        if bad is not None:
            raise ValidationError(
                f"substitutions are not a homomorphism at ({g.names[bad[0]]}, {g.names[bad[1]]})"
            )

    def variable_images(self, a: int) -> tuple:
        """The linear forms g(x_j) of element a, one per variable."""
        _check_element(self.group, a)
        return self._images[a]

    @cached_property
    def _images(self) -> tuple:
        """`variable_images` of every element, built once, in index order."""
        ring, fld = self.ring, self.ring.field
        out = []
        for m in self.matrices:
            forms = []
            for j in range(ring.nvars):
                form = ring.zero()
                for i in range(ring.nvars):
                    c = m.at(i, j)
                    if not fld.is_zero(c):
                        form = form + ring.const(c) * ring.var(ring.variables[i])
                forms.append(form)
            out.append(tuple(forms))
        return tuple(out)

    def apply(self, a: int, p: Poly) -> Poly:
        if p.ring != self.ring:
            raise DomainMismatchError("polynomial from a different ring")
        images = self.variable_images(a)
        if a == self.group.identity:
            return p
        return p.substitute(images)


def _check_element(group: FiniteGroup, a: int) -> None:
    if not 0 <= a < group.order:
        raise ValidationError(f"group element index {a} is outside range({group.order})")


def trivial_action(ring: PolyRing) -> RingAction:
    g = cyclic_group(1)
    return RingAction(g, ring, (Matrix.identity(ring.field, ring.nvars),))


def fixed_locus(act: RingAction, a: int) -> ClosedSet:
    """V of the twists a(x_i) - x_i: the points that element a fixes.

    It is also the fixed locus of the cyclic subgroup a generates: for a
    linear action a^k(x) - x = (M^(k-1) + ... + I)(Mx - x), so the twists of
    every power of a lie in the ideal of the twists of a.
    """
    _check_element(act.group, a)
    return ClosedSet(act.ring, tuple(_twists(act, a)))


def _twists(act: RingAction, a: int) -> list:
    """The nonzero twists a(x) - x, one for each variable that a moves."""
    return [t for t in (act.apply(a, x) - x for x in act.ring.gens()) if not t.is_zero()]


def pointwise_stabilizer(act: RingAction, c: ClosedSet) -> tuple:
    """Elements whose fixed locus contains the closed set."""
    out = []
    for a in range(act.group.order):
        if a == act.group.identity:
            out.append(a)
            continue
        xg = fixed_locus(act, a)
        if closed_contains(xg, c):
            out.append(a)
    return tuple(sorted(out))


# -- Molien series and invariant generators ----------------------------------------


def _det_poly(m: Matrix, tring: PolyRing) -> Poly:
    """det(I - t m) via the permutation expansion; fine for small matrices."""
    fld = m.field
    n = m.rows
    t = tring.var("t")
    out = tring.zero()
    for sigma in _permutations(range(n)):
        sign = _perm_sign(sigma)
        term = tring.one()
        for i in range(n):
            entry = tring.from_int(1 if sigma[i] == i else 0) - t * tring.const(m.at(sigma[i], i))
            term = term * entry
        out = out + (term if sign > 0 else -term)
    return out


def _perm_sign(sigma) -> int:
    sign = 1
    seen = set()
    for i in range(len(sigma)):
        if i in seen:
            continue
        ln = 0
        j = i
        while j not in seen:
            seen.add(j)
            j = sigma[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def _series_coeffs(p: Poly, upto: int) -> list:
    fld = p.ring.field
    out = [fld.zero()] * (upto + 1)
    for m, c in p.terms:
        if m[0] <= upto:
            out[m[0]] = c
    return out


def _series_inverse(c: list, fld: Field, upto: int) -> list:
    if c[0] != fld.one():
        raise ValidationError("series inversion needs constant term 1")
    b = [fld.zero()] * (upto + 1)
    b[0] = fld.one()
    for k in range(1, upto + 1):
        s = fld.zero()
        for j in range(1, k + 1):
            if j < len(c):
                s = fld.add(s, fld.mul(c[j], b[k - j]))
        b[k] = fld.neg(s)
    return b


def molien_dimensions(act: RingAction, upto: int) -> list:
    """Coefficients of (1/|G|) sum_g 1/det(1 - t g) as field scalars.

    Over the rationals these are the invariant dimensions themselves; over
    F_p they are those dimensions mod p, so a comparison is conclusive
    only while the dimensions stay below p.
    """
    fld = act.ring.field
    tring = PolyRing(fld, ("t",))
    total = [fld.zero()] * (upto + 1)
    for m in act.matrices:
        det = _det_poly(m, tring)
        inv = _series_inverse(_series_coeffs(det, upto), fld, upto)
        total = [fld.add(a, b) for a, b in zip(total, inv)]
    scale = fld.inv(fld.from_int(act.group.order))
    return [fld.mul(scale, a) for a in total]


def molien_check(pres: InvariantRingPresentation, upto: int) -> tuple:
    """The dimensions of k[y]/K in degrees 0..upto, each y_i weighted by the
    degree of its generator, and whether they equal the Molien coefficients."""
    ring_mod = PresentedModule(pres.ring, 1, tuple((r,) for r in pres.relations))
    dims = [int(graded_dim(ring_mod, (0,), d, var_weights=list(pres.degrees)))
            for d in range(upto + 1)]
    return dims, dims == [int(m) for m in molien_dimensions(pres.action, upto)]


def reynolds_poly(act: RingAction, p: Poly) -> Poly:
    fld = act.ring.field
    acc = act.ring.zero()
    for a in range(act.group.order):
        acc = acc + act.apply(a, p)
    return acc.scale(fld.inv(fld.from_int(act.group.order)))


def invariant_space_basis(act: RingAction, d: int) -> list:
    """Canonical basis of the degree-d invariants, via the Reynolds image."""
    monos = monomials_of_degree(act.ring, d)
    if not monos:
        return []
    fld = act.ring.field
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for m in monos:
        img = reynolds_poly(act, act.ring.monomial(m))
        row = [fld.zero()] * len(monos)
        for mono, c in img.terms:
            row[index[mono]] = c
        rows.append(row)
    red, pivots = rref(Matrix.from_rows(fld, rows))
    out = []
    for r_idx in range(len(pivots)):
        p = act.ring.zero()
        for i, m in enumerate(monos):
            c = red.at(r_idx, i)
            if not fld.is_zero(c):
                p = p + act.ring.const(c) * act.ring.monomial(m)
        out.append(p)
    return out


@dataclass(frozen=True)
class InvariantRingPresentation:
    """A^G presented as k[y_1..y_m]/K via y_i -> f_i."""

    action: RingAction
    ring: PolyRing  # the presentation ring k[y]
    generators: tuple  # f_i in the ambient ring, G-fixed
    relations: tuple  # K, generators in the presentation ring

    @property
    def degrees(self) -> tuple:
        return tuple(f.total_degree() for f in self.generators)

    def to_ambient(self, p: Poly) -> Poly:
        """Evaluate a presentation-ring polynomial at the invariant generators."""
        if p.ring != self.ring:
            raise DomainMismatchError("polynomial not over the presentation ring")
        return p.substitute(list(self.generators))

    def to_ambient_vector(self, v: Sequence[Poly]) -> tuple:
        return tuple(self.to_ambient(p) for p in v)


def _subalgebra_slice(gens: Sequence[Poly], degrees: Sequence[int], d: int,
                      ring: PolyRing) -> list:
    """Products of the generators spanning the degree-d slice of k[gens]."""
    out = []
    for alpha in weighted_exponents(list(degrees), d):
        p = ring.one()
        for g, e in zip(gens, alpha):
            if e:
                p = p * g ** e
        out.append(p)
    return out


def invariant_generators(act: RingAction) -> InvariantRingPresentation:
    """Algebra generators of the invariant ring, Molien-certified, as the
    variables u0, u1, ... of the presentation ring.

    Searches degree by degree up to |G| (the classical bound away from the
    modular case), keeping only invariants independent of products of the
    generators already chosen, then checks dimensions against the Molien
    series through degree 2|G| and fails hard on any mismatch.  The
    relations are the closed image of the whole space under the generators.
    """
    act.validate()
    ring, fld = act.ring, act.ring.field
    order = act.group.order
    gens: list = []
    for d in range(1, order + 1):
        fixed = invariant_space_basis(act, d)
        if not fixed:
            continue
        covered = _subalgebra_slice(gens, [g.total_degree() for g in gens], d, ring)
        echelon = Echelon(fld, (p.terms for p in covered if p.total_degree() == d))
        gens += [p for p in fixed if echelon.add(p.terms)]

    molien = molien_dimensions(act, 2 * order)
    degs = [g.total_degree() for g in gens]
    for d in range(0, 2 * order + 1):
        have = len(Echelon(fld, (p.terms for p in _subalgebra_slice(gens, degs, d, ring))).pivots)
        if fld.from_int(have) != molien[d]:
            raise ValidationError(
                f"invariant generators fail the Molien check at degree {d}"
            )

    for g in gens:
        if reynolds_poly(act, g) != g:
            raise ValidationError("chosen generator is not an invariant")

    yring = PolyRing(fld, tuple(f"u{i}" for i in range(len(gens))))
    if set(yring.variables) & set(ring.variables):
        raise ValidationError("presentation variable prefix clashes with the ring")
    rels = image_closed_under_map(ClosedSet.whole(ring), gens, yring).generators
    return InvariantRingPresentation(act, yring, tuple(gens), rels)


# -- equivariant modules --------------------------------------------------------------


@dataclass(frozen=True)
class EquivariantModule:
    """Finitely presented module with a semilinear action given on generators.

    rho[g] is a tuple of columns; column j lists the coefficients of the
    image of generator j.  Semilinearity fixes everything else:
    rho_g(a m) = g(a) rho_g(m).
    """

    action: RingAction
    module: PresentedModule
    rho: tuple

    def validate(self) -> None:
        """Check the module once per object; a failing check raises on
        every call, since nothing is kept for it.

        It runs where a module enters: a character twist, and the
        invariants, isotypic, reduction, tower and complex computations.
        Modules built here from checked parts are not checked again when
        built; the tests check those constructions."""
        self._valid

    @cached_property
    def _valid(self) -> bool:
        act, mod = self.action, self.module
        if mod.ring != act.ring:
            raise DomainMismatchError("module and action over different rings")
        g = act.group
        if len(self.rho) != g.order:
            raise ValidationError("one action matrix per group element required")
        for cols in self.rho:
            if len(cols) != mod.rank or any(len(c) != mod.rank for c in cols):
                raise ValidationError("action matrix of wrong shape")
        if not self.acts_trivially(g.identity):
            raise ValidationError("identity does not act as the identity")
        for a in g.generators:
            for rel in mod.relations:
                img = self.apply(a, rel)
                if not mod.contains_in_relations(img):
                    raise ValidationError(
                        f"action of {g.names[a]} does not preserve the relations"
                    )
        for a in g.generators:
            for b in range(g.order):
                ab = g.table[a][b]
                for j in range(mod.rank):
                    # rho_a applied to rho_b(e_j), versus rho_{ab}(e_j)
                    composed = self.apply(a, self.rho[b][j])
                    diff = vec_sub(composed, self.rho[ab][j])
                    if not mod.contains_in_relations(diff):
                        raise ValidationError(
                            f"cocycle fails at ({g.names[a]}, {g.names[b]}) on generator {j}"
                        )
        return True

    def acts_trivially(self, a: int) -> bool:
        """Whether rho[a] is the identity modulo the relations."""
        mod = self.module
        return all(
            mod.contains_in_relations(vec_sub(self.rho[a][j], unit_vector(mod.ring, mod.rank, j)))
            for j in range(mod.rank)
        )

    def apply(self, a: int, v: Sequence[Poly]) -> tuple:
        """Semilinear action on a module vector."""
        act, mod = self.action, self.module
        _check_element(act.group, a)
        out = zero_vector(mod.ring, mod.rank)
        for j, entry in enumerate(v):
            if entry.is_zero():
                continue
            out = vec_add(out, vec_scale(act.apply(a, entry), self.rho[a][j]))
        return out

    def is_zero(self) -> bool:
        return self.module.is_zero()


def identity_rho(act: RingAction, rank: int) -> tuple:
    cols = tuple(unit_vector(act.ring, rank, j) for j in range(rank))
    return tuple(cols for _ in range(act.group.order))


def ring_as_equivariant(act: RingAction) -> EquivariantModule:
    return EquivariantModule(act, PresentedModule.free(act.ring, 1), identity_rho(act, 1))


def cyclic_equivariant(act: RingAction, ideal_gens: Sequence[Poly]) -> EquivariantModule:
    """A/I with the action inherited from the ring; I must be G-stable."""
    if ideal_gens:
        gb = GroebnerBasis.of(list(ideal_gens))
        for a in act.group.generators:
            for f in ideal_gens:
                if not gb.contains(act.apply(a, f)):
                    raise ValidationError("ideal is not stable under the action")
    mod = PresentedModule.cyclic(act.ring, list(ideal_gens))
    return EquivariantModule(act, mod, identity_rho(act, mod.rank))


def twist_by_character(em: EquivariantModule, values: Sequence) -> EquivariantModule:
    """Scale the action of each group element by a degree-one character."""
    fld = em.action.ring.field
    rho = []
    for a in range(em.action.group.order):
        c = values[a]
        fld.check(c)
        cols = tuple(tuple(p.scale(c) for p in col) for col in em.rho[a])
        rho.append(cols)
    out = EquivariantModule(em.action, em.module, tuple(rho))
    out.validate()
    return out


def direct_sum_equivariant(a: EquivariantModule, b: EquivariantModule) -> EquivariantModule:
    if a.action != b.action:
        raise DomainMismatchError("summands carry different actions")
    mod = direct_sum(a.module, b.module)
    ring = mod.ring
    ra, rb = a.module.rank, b.module.rank
    rho = []
    for g in range(a.action.group.order):
        cols = []
        for j in range(ra):
            cols.append(tuple(a.rho[g][j]) + zero_vector(ring, rb))
        for j in range(rb):
            cols.append(zero_vector(ring, ra) + tuple(b.rho[g][j]))
        rho.append(tuple(cols))
    return EquivariantModule(a.action, mod, tuple(rho))


def restrict_to_trivial_group(em: EquivariantModule) -> EquivariantModule:
    """Forget the action: the same module over the one-element group."""
    act = trivial_action(em.action.ring)
    return EquivariantModule(act, em.module, identity_rho(act, em.module.rank))


@dataclass(frozen=True)
class EquivariantComplex:
    action: RingAction
    complex: PresentedComplex
    rhos: tuple  # per term, aligned with complex.modules

    def validate(self) -> None:
        self.complex.validate()
        if len(self.rhos) != len(self.complex.modules):
            raise ValidationError("one action per complex term required")
        terms = [
            EquivariantModule(self.action, m, r)
            for m, r in zip(self.complex.modules, self.rhos)
        ]
        for t in terms:
            t.validate()
        for idx in range(len(terms) - 1):
            d = self.complex.maps[idx]
            src, tgt = terms[idx], terms[idx + 1]
            for a in self.action.group.generators:
                for j in range(src.module.rank):
                    left = d.apply_vector(src.rho[a][j])  # d(rho_a e_j)
                    right = tgt.apply(a, d.columns[j])  # rho_a(d e_j)
                    if not tgt.module.contains_in_relations(vec_sub(left, right)):
                        raise ValidationError(
                            f"differential is not equivariant at term {idx}"
                        )

    def term(self, i: int) -> EquivariantModule:
        idx = i - self.complex.start
        return EquivariantModule(self.action, self.complex.modules[idx], self.rhos[idx])


def equivariant_cohomology(ec: EquivariantComplex, i: int) -> EquivariantModule:
    """H^i with the induced action, via lifting cocycle generators."""
    h, lifts = cohomology_with_lifts(ec.complex, i)
    act = ec.action
    if h.rank == 0:
        return EquivariantModule(act, h, identity_rho(act, 0))
    term = ec.term(i)
    prev = ec.complex.map_at(i - 1)
    boundary = prev.columns if prev is not None else ()
    # the ambient that `cohomology_with_lifts` presents in: term mod boundaries
    ambient = PresentedModule(ec.complex.ring, term.module.rank, boundary + term.module.relations)
    return _induced_action(term, h, lifts, ambient)


def _induced_action(em: EquivariantModule, sub: PresentedModule, gens: list,
                    ambient: PresentedModule) -> EquivariantModule:
    """The action of em on `sub`, the span of gens in `ambient`; refused
    when some element moves a generator out of the span."""
    act = em.action
    rho = []
    for a in range(act.group.order):
        cols = []
        for v in gens:
            sol = submodule_lift(em.apply(a, v), gens, ambient)
            if sol is None:
                raise ValidationError(
                    f"action of {act.group.names[a]} does not preserve the submodule"
                )
            cols.append(tuple(sol))
        rho.append(tuple(cols))
    return EquivariantModule(act, sub, tuple(rho))


def complex_to_module(ec: EquivariantComplex) -> EquivariantModule:
    """Direct sum of all cohomologies; the support carrier of the complex."""
    ec.validate()
    total: Optional[EquivariantModule] = None
    for i in ec.complex.degrees():
        h = equivariant_cohomology(ec, i)
        if h.module.rank == 0:
            continue
        total = h if total is None else direct_sum_equivariant(total, h)
    if total is None:
        act = ec.action
        return EquivariantModule(act, PresentedModule.zero(act.ring), identity_rho(act, 0))
    return total


# -- supports -------------------------------------------------------------------------


def module_support(mod: PresentedModule) -> ClosedSet:
    ann = annihilator(mod)
    return ClosedSet(mod.ring, tuple(ann))


# -- pullback and invariants ------------------------------------------------------------


def pullback(n: PresentedModule, pres: InvariantRingPresentation) -> EquivariantModule:
    """A tensor_{A^G} N with the action g tensor id."""
    if n.ring != pres.ring:
        raise DomainMismatchError("module is not over the presentation ring")
    act = pres.action
    rels = []
    for rel in n.relations:
        v = pres.to_ambient_vector(rel)
        if not vec_is_zero(v):
            rels.append(v)
    mod = PresentedModule(act.ring, n.rank, tuple(rels))
    return EquivariantModule(act, mod, identity_rho(act, n.rank))


@dataclass(frozen=True)
class InvariantsModule:
    """Presentation of M^G over the invariant presentation ring.

    lifts[j] is the vector in M realizing generator j; degrees[j] is its
    internal degree when the computation was graded, else None.
    """

    module: PresentedModule
    lifts: tuple
    degrees: tuple


def _rho_is_graded(em: EquivariantModule, shifts: Sequence[int]) -> bool:
    from .polymod import poly_weighted_degree

    for cols in em.rho:
        for j, col in enumerate(cols):
            for i, p in enumerate(col):
                if p.is_zero():
                    continue
                d = poly_weighted_degree(p, None)
                if d is None or d != shifts[j] - shifts[i]:
                    return False
    return True


def invariants_module(
    em: EquivariantModule,
    pres: InvariantRingPresentation,
    shifts: Optional[Sequence[int]] = None,
    degree_bound: Optional[int] = None,
) -> InvariantsModule:
    """M^G presented over k[y]; graded and finite-length paths.

    Graded inputs run degree by degree with a stabilization window and a
    final dimension certification; finite-length inputs use the standard
    monomial basis and multiplication matrices.  Anything else raises a
    truncation error rather than guessing.
    """
    em.validate()
    mod = em.module
    if mod.rank == 0:
        return InvariantsModule(PresentedModule.zero(pres.ring), (), ())

    shifts = tuple(shifts) if shifts is not None else (0,) * mod.rank

    if _trivial_shortcut_applies(em, pres):
        return _invariants_by_renaming(em, pres, shifts)

    if module_is_graded(mod, shifts) and _rho_is_graded(em, shifts):
        return _invariants_graded(em, pres, shifts, degree_bound)

    pairs = standard_pairs(mod)
    if pairs is not None:
        return _invariants_finite(em, pres, pairs)

    raise TruncationError(
        "module is neither graded nor finite length; no certified bound applies"
    )


def _trivial_shortcut_applies(em: EquivariantModule, pres: InvariantRingPresentation) -> bool:
    act = em.action
    if tuple(pres.generators) != act.ring.gens():
        return False
    idm = Matrix.identity(act.ring.field, act.ring.nvars)
    return all(act.matrices[a].equals(idm) and em.acts_trivially(a)
               for a in act.group.generators)


def _invariants_by_renaming(em, pres, shifts) -> InvariantsModule:
    mod = em.module
    yring = pres.ring

    def rename(p: Poly) -> Poly:
        return Poly(yring, p.terms)

    rels = tuple(tuple(rename(p) for p in rel) for rel in mod.relations)
    out = PresentedModule(yring, mod.rank, rels)
    lifts = tuple(unit_vector(mod.ring, mod.rank, j) for j in range(mod.rank))
    return InvariantsModule(out, lifts, shifts)


def _fixed_vectors(em: EquivariantModule, pairs) -> list:
    """Coordinates, over the standard pairs, of a basis of the fixed vectors
    in their span: the kernel of the stacked rho_s - I over the generators."""
    mod = em.module
    ring, fld, n = mod.ring, mod.ring.field, len(pairs)
    rows = []
    for a in em.action.group.generators:
        cols = [vector_in_standard_coords(mod, pairs, em.apply(
            a, vec_scale(ring.monomial(m), unit_vector(ring, mod.rank, j)))) for j, m in pairs]
        rows += [[fld.sub(cols[c][r], fld.one() if c == r else fld.zero()) for c in range(n)]
                 for r in range(n)]
    ker = kernel_basis(Matrix(fld, len(rows), n, tuple(x for row in rows for x in row)))
    return [[ker.at(i, j) for i in range(n)] for j in range(ker.cols)]


def _from_standard_coords(mod: PresentedModule, pairs, coords) -> tuple:
    """The vector of A^rank with these coordinates over the standard pairs."""
    ring, fld = mod.ring, mod.ring.field
    out = [ring.zero()] * mod.rank
    for (j, m), c in zip(pairs, coords):
        if not fld.is_zero(c):
            out[j] = out[j] + ring.monomial(m).scale(c)
    return tuple(out)


def _invariants_graded(em, pres, shifts, degree_bound) -> InvariantsModule:
    act, mod = em.action, em.module
    ring, fld = mod.ring, mod.ring.field
    fdegs = list(pres.degrees)
    window = max(fdegs) if fdegs else 1
    order = max(act.group.order, 1)
    bound = degree_bound if degree_bound is not None else 2 * order + max(shifts) + window

    gens: list = []  # entries (degree, lift vector over A)
    standard: dict = {}  # degree -> its standard pairs, reused by the relation loop
    fixed_dims: dict = {}
    sub_slices: dict = {}

    def subalgebra_slice(e: int) -> list:
        if e not in sub_slices:
            sub_slices[e] = _subalgebra_slice(pres.generators, fdegs, e, ring)
        return sub_slices[e]

    for d in range(0, bound + 1):
        pairs = standard[d] = graded_standard_pairs(mod, shifts, d)
        fixed_vecs = _fixed_vectors(em, pairs)
        fixed_dims[d] = len(fixed_vecs)
        if not fixed_vecs:
            continue

        echelon = Echelon(fld, (
            enumerate(vector_in_standard_coords(mod, pairs, tuple(mult * p for p in lift)))
            for gd, lift in gens for mult in subalgebra_slice(d - gd)))
        for cand in fixed_vecs:
            if echelon.add(enumerate(cand)):
                gens.append((d, _from_standard_coords(mod, pairs, cand)))

    if any(gd > bound - window for gd, _ in gens):
        raise TruncationError(
            "invariants kept producing generators near the degree bound; raise it"
        )

    yring = pres.ring
    gen_degs = [gd for gd, _ in gens]
    relations: list = []
    for d in range(0, bound + 1):
        pairs = standard[d]
        # (gen index, y-monomial, its image in A), the images in slice order
        unknowns = [(gi, alpha, mult) for gi, (gd, _) in enumerate(gens)
                    for alpha, mult in zip(weighted_exponents(fdegs, d - gd),
                                           subalgebra_slice(d - gd))]
        if not unknowns:
            continue
        if pairs:
            cols = [vector_in_standard_coords(mod, pairs, tuple(mult * p for p in gens[gi][1]))
                    for gi, _, mult in unknowns]
            mat_rows = [[cols[u][r] for u in range(len(unknowns))] for r in range(len(pairs))]
            ker = kernel_basis(Matrix.from_rows(fld, mat_rows))
            syz_cols = [[ker.at(i, j) for i in range(len(unknowns))] for j in range(ker.cols)]
        else:
            syz_cols = [
                [fld.one() if i == j else fld.zero() for i in range(len(unknowns))]
                for j in range(len(unknowns))
            ]
        partial = PresentedModule(yring, len(gens), tuple(relations))
        for s in syz_cols:
            rel = [yring.zero()] * len(gens)
            for (gi, alpha, _), c in zip(unknowns, s):
                if fld.is_zero(c):
                    continue
                mono = yring.monomial(tuple(alpha))
                rel[gi] = rel[gi] + mono.scale(c)
            if vec_is_zero(rel) or partial.contains_in_relations(rel):
                continue
            relations.append(tuple(rel))
            partial = PresentedModule(yring, len(gens), tuple(relations))

    out = PresentedModule(yring, len(gens), tuple(relations))
    for d in range(0, bound + 1):
        have = graded_dim(out, gen_degs, d, var_weights=fdegs)
        if have != fixed_dims.get(d, 0):
            raise TruncationError(
                f"invariants presentation misses the fixed-space dimension at degree {d}"
            )
    return InvariantsModule(out, tuple(l for _, l in gens), tuple(gen_degs))


def _invariants_finite(em, pres, pairs) -> InvariantsModule:
    mod = em.module
    fld = mod.ring.field
    s0 = len(pairs)
    fixed = _fixed_vectors(em, pairs)
    s = len(fixed)
    yring = pres.ring
    if s == 0:
        return InvariantsModule(PresentedModule.zero(yring), (), ())

    vmat = Matrix.from_rows(fld, [[fixed[j][i] for j in range(s)] for i in range(s0)])
    mults = [multiplication_matrix(mod, pairs, f) for f in pres.generators]
    fmats = []
    for mm in mults:
        cols = []
        for j in range(s):
            image = mm.mul(Matrix.from_rows(fld, [[c] for c in fixed[j]]))
            sol = solve(vmat, image)
            if sol is None:
                raise ValidationError("invariant multiplication left the fixed space")
            cols.append([sol.at(i, 0) for i in range(s)])
        fmats.append(Matrix.from_rows(fld, [[cols[j][i] for j in range(s)] for i in range(s)]))

    relations = []
    for i, fm in enumerate(fmats):
        y = yring.var(yring.variables[i]) if yring.nvars else None
        for j in range(s):
            rel = [yring.zero()] * s
            rel[j] = y
            for l in range(s):
                c = fm.at(l, j)
                if not fld.is_zero(c):
                    rel[l] = rel[l] - yring.const(c)
            relations.append(tuple(rel))
    out = PresentedModule(yring, s, tuple(relations))
    lifts = tuple(_from_standard_coords(mod, pairs, f) for f in fixed)
    return InvariantsModule(out, lifts, (None,) * s)


# -- isotypic decomposition -------------------------------------------------------------


@dataclass(frozen=True)
class IsotypicPiece:
    name: str
    module: PresentedModule
    lift_columns: tuple  # generators inside W* (x) M, index (a, j) -> a * rankM + j


def isotypic_decompose_module(em: EquivariantModule, table: CharacterTable) -> list:
    """Split M into canonical pieces under its group acting linearly.

    The group's variable twists must die in the relations, which is what
    the filtration layers provide; a group that fixes the ring variables
    has no twists at all.  Pieces are indexed by the character table of
    the module's group.  Each is the part of W* (x) M fixed by the group's
    generators, cut out as the kernel of the stacked a - 1 over them; the
    trivial group has none and keeps the whole tensor module.  The
    evaluation map out of the assembled sum is checked to be an
    isomorphism before anything is returned.
    """
    em.validate()
    table.validate()
    act, mod = em.action, em.module
    if table.group is not act.group and table.group.table != act.group.table:
        raise DomainMismatchError("character table is for a different group")
    ring, fld = mod.ring, mod.ring.field
    if table.field != fld:
        raise DomainMismatchError("character table over the wrong field")

    for a in act.group.generators:
        if not all(mod.contains_in_relations(vec_scale(t, unit_vector(ring, mod.rank, j)))
                   for j in range(mod.rank) for t in _twists(act, a)):
            raise PreconditionError(
                "variable twists do not vanish on the module; "
                "the group action is not linear here"
            )

    pieces = []
    for name in table.names:
        dim = table.degrees[table.irrep_index(name)]
        big = module_tensor(PresentedModule.free(ring, dim), mod)
        # the equivariance preconditions above make the semilinear action
        # A-linear modulo relations, so generator images define module maps,
        # and what the generators fix the whole group fixes
        units = [unit_vector(ring, big.rank, idx) for idx in range(big.rank)]
        target, cols = PresentedModule.zero(ring), [()] * big.rank
        for a in act.group.generators:
            target = direct_sum(target, big)
            cols = [col + vec_sub(_semilinear_tensor_apply(em, table, name, a, e), e)
                    for col, e in zip(cols, units)]
        piece_mod, piece_gens = map_kernel(ModuleMap(big, target, tuple(cols)))
        pieces.append(IsotypicPiece(name, piece_mod, tuple(piece_gens)))

    _check_evaluation_iso(em, table, pieces)
    return pieces


def _semilinear_tensor_apply(em: EquivariantModule, table, name, a, v):
    """Action of a on W* (x) M, index (b, k) -> b * rank + k."""
    act, mod = em.action, em.module
    ring, fld = mod.ring, mod.ring.field
    forms = table.forms_for(name)
    dim = table.degrees[table.irrep_index(name)]
    hinv = table.group.inverse(a)
    wmat = forms[hinv]
    out = [ring.zero()] * (dim * mod.rank)
    for b in range(dim):
        for k in range(mod.rank):
            p = v[b * mod.rank + k]
            if p.is_zero():
                continue
            gp = act.apply(a, p)
            mcol = em.rho[a][k]
            for c in range(dim):
                # hom-space action a.F = rho_a F rho_W(a)^{-1}; on coordinates
                # the W-side contributes entry (b, c) of rho_W(a^{-1})
                coeff = wmat.at(b, c)
                if fld.is_zero(coeff):
                    continue
                for i in range(mod.rank):
                    q = mcol[i]
                    if q.is_zero():
                        continue
                    out[c * mod.rank + i] = out[c * mod.rank + i] + (gp * q).scale(coeff)
    return tuple(out)


def _check_evaluation_iso(em, table, pieces) -> None:
    """Refuse pieces whose evaluation map into M is not an isomorphism."""
    mod = em.module
    src, cols = PresentedModule.zero(mod.ring), []
    for name, piece in zip(table.names, pieces):
        dim = table.degrees[table.irrep_index(name)]
        block = module_tensor(PresentedModule.free(mod.ring, dim), piece.module)
        src = direct_sum(src, block)  # generator (b, k) of a block at b * piece.rank + k
        cols += [piece.lift_columns[k][b * mod.rank:(b + 1) * mod.rank]
                 for b in range(dim) for k in range(piece.module.rank)]
    if not map_is_isomorphism(ModuleMap(src, mod, tuple(cols))):
        raise ValidationError("isotypic pieces do not reassemble the module")


# -- support reduction ------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionStep:
    """One pass of the counit triangle: piece downstairs, residual upstairs."""

    piece: InvariantsModule
    counit: ModuleMap
    kernel: EquivariantModule
    cokernel: EquivariantModule
    residual: EquivariantModule
    support_before: ClosedSet
    support_after: ClosedSet


def support_reduction(
    em: EquivariantModule,
    pres: InvariantRingPresentation,
    degree_bound: Optional[int] = None,
) -> ReductionStep:
    """Split off the invariants of a module the group moves honestly.

    The counit evaluates the pulled-back invariants inside the module; its
    kernel and cokernel carry induced actions and together form the
    residual.  The residual support must shrink strictly, and a module
    concentrated inside some element's fixed locus is refused up front.
    Generator weights are all 0.  Equal stages are decided once per
    process: a repeated (module, presentation, degree bound) is answered
    from a bounded memo, and a refused one raises again.
    """
    return _support_reduction(em, pres, degree_bound)


@lru_cache(maxsize=MEMO_SIZE)
def _support_reduction(em: EquivariantModule, pres: InvariantRingPresentation,
                       degree_bound: Optional[int]) -> ReductionStep:
    em.validate()
    act = em.action
    if em.module.is_zero():
        raise PreconditionError("nothing to reduce: the module is zero")
    supp = module_support(em.module)
    for a in range(act.group.order):
        if a == act.group.identity:
            continue
        xg = fixed_locus(act, a)
        if closed_contains(xg, supp):
            raise PreconditionError(
                f"support lies inside the fixed locus of {act.group.names[a]}; "
                "peel that stratum with the filtration instead"
            )

    inv = invariants_module(em, pres, degree_bound=degree_bound)
    source = pullback(inv.module, pres)
    eta = ModuleMap(source.module, em.module, tuple(inv.lifts))
    eta.check_well_defined()

    kmod, kgens = map_kernel(eta)
    kernel_em = _induced_action(source, kmod, list(kgens), source.module)

    cokernel_em = EquivariantModule(act, map_cokernel(eta), em.rho)

    residual = direct_sum_equivariant(kernel_em, cokernel_em)
    supp_after = module_support(residual.module)
    if not closed_contains(supp, supp_after):
        raise ValidationError("residual support escaped the original support")
    if closed_contains(supp_after, supp):
        raise ValidationError("reduction failed to shrink the support strictly")
    return ReductionStep(inv, eta, kernel_em, cokernel_em, residual, supp, supp_after)


# -- the tower --------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerPiece:
    label: str  # component label, layer and character for fixed stages
    invariants: InvariantsModule
    support: ClosedSet  # over the presentation ring


@dataclass(frozen=True)
class TowerStage:
    component: str
    stabilizer: tuple
    kind: str  # "free" or "fixed"
    pieces: tuple
    support_before: ClosedSet
    support_after: ClosedSet

    def support_checks(self, pres: InvariantRingPresentation) -> tuple:
        """Whether the support drops strictly, and whether every piece lies
        inside the image of the support before the stage."""
        drop = (closed_contains(self.support_before, self.support_after)
                and not closed_contains(self.support_after, self.support_before))
        image = image_closed_under_map(self.support_before, list(pres.generators),
                                       pres.ring)
        return drop, all(closed_contains(image, p.support) for p in self.pieces)


@dataclass(frozen=True)
class TowerResult:
    stages: tuple

    def piece_labels(self) -> list:
        return [p.label for s in self.stages for p in s.pieces]


def _piece_support_downstairs(b: InvariantsModule, pres: InvariantRingPresentation,
                              upstairs: ClosedSet) -> ClosedSet:
    supp = ClosedSet(pres.ring, tuple(annihilator(b.module)))
    image = image_closed_under_map(upstairs, list(pres.generators), pres.ring)
    if not closed_contains(image, supp):
        raise ValidationError(
            "piece support downstairs escaped the image of the support upstairs"
        )
    return supp


def _filtration_cap(act: RingAction) -> int:
    return max(6, 2 * act.group.order + act.ring.nvars)


@lru_cache(maxsize=MEMO_SIZE)
def _fixed_stage(em: EquivariantModule, pres: InvariantRingPresentation,
                 label: str, component: ClosedSet, table: CharacterTable):
    """Consume a fully fixed component through its ideal-power filtration."""
    act, mod = em.action, em.module
    ring = act.ring
    ideal = [g for g in component.generators if not g.is_zero()]
    gb = GroebnerBasis.of(ideal)
    for a in act.group.generators:
        if not all(gb.contains(t) for t in _twists(act, a)):
            raise PreconditionError(
                f"twist by {act.group.names[a]} misses the component ideal; "
                "declare the component by its radical"
            )
        for t in ideal:
            if not gb.contains(act.apply(a, t)):
                raise PreconditionError("component ideal is not stable under the action")

    def next_gens(gens):
        out = []
        for t in ideal:
            for v in gens:
                w = tuple(t * p for p in v)
                if mod.contains_in_relations(w):
                    continue
                if out and submodule_lift(w, out, mod) is not None:
                    continue
                out.append(w)
        return out

    gens_j = [unit_vector(ring, mod.rank, j) for j in range(mod.rank)]
    stage_j = em
    stages = [(list(gens_j), stage_j)]
    n_steps = None
    for j in range(1, _filtration_cap(act) + 1):
        gens_j = next_gens(gens_j)
        if not gens_j:
            n_steps = j
            stages.append(([], EquivariantModule(act, PresentedModule.zero(ring),
                                                 identity_rho(act, 0))))
            break
        stage_j = _induced_action(em, submodule_presentation(gens_j, mod)[0], gens_j, mod)
        stages.append((list(gens_j), stage_j))
        if not closed_contains(module_support(stage_j.module), component):
            n_steps = j
            break
    if n_steps is None:
        raise TruncationError(
            "ideal powers never cleared the component; declare a larger component first"
        )

    pieces = []
    for j in range(n_steps):
        layer_gens, layer_stage = stages[j]
        extra = []
        for t in ideal:
            for v in layer_gens:
                w = tuple(t * p for p in v)
                sol = submodule_lift(w, layer_gens, mod)
                if sol is None:
                    raise ValidationError("ideal multiple escaped the filtration stage")
                extra.append(tuple(sol))
        layer_mod = PresentedModule(
            ring, layer_stage.module.rank, layer_stage.module.relations + tuple(extra)
        )
        layer = EquivariantModule(act, layer_mod, layer_stage.rho)
        if layer.module.is_zero():
            continue
        for piece in isotypic_decompose_module(layer, table):
            if piece.module.is_zero():
                continue
            wrapped = restrict_to_trivial_group(
                EquivariantModule(act, piece.module, identity_rho(act, piece.module.rank))
            )
            b = invariants_module(wrapped, pres)
            supp_piece = module_support(piece.module)
            supp_b = _piece_support_downstairs(b, pres, supp_piece)
            pieces.append(TowerPiece(f"{label}/layer{j}/{piece.name}", b, supp_b))

    next_em = stages[n_steps][1]
    return tuple(pieces), next_em


def tower(
    em,
    pres: InvariantRingPresentation,
    components: Sequence,
    table: Optional[CharacterTable] = None,
    degree_bound: Optional[int] = None,
) -> TowerResult:
    """Peel the module along declared invariant components until it dies.

    components is an ordered list of (label, closed set) pairs; the first
    one inside the current support is consumed.  Trivial stabilizer means
    a counit reduction, full stabilizer means the ideal-power filtration
    with isotypic splitting; anything in between is refused.  Support must
    drop strictly at every stage.  Both kinds of stage are decided once per
    process: an equal stage, in this tower or another, is answered from a
    bounded memo.
    """
    if isinstance(em, EquivariantComplex):
        em = complex_to_module(em)
    em.validate()
    act = em.action
    for label, c in components:
        if c.ring != act.ring:
            raise DomainMismatchError(f"component {label} lives in the wrong ring")
        for a in act.group.generators:
            moved = [act.apply(a, g) for g in c.generators]
            if not radical_equal(list(moved), list(c.generators)):
                raise PreconditionError(f"component {label} is not invariant")

    stages = []
    current = em
    guard = len(list(components)) + act.ring.nvars + 3
    for _ in range(guard):
        if current.module.is_zero():
            return TowerResult(tuple(stages))
        supp = module_support(current.module)
        chosen = None
        for label, c in components:
            if closed_contains(supp, c):
                chosen = (label, c)
                break
        if chosen is None:
            raise PreconditionError(
                "no declared component lies inside the support; declare one for "
                f"V({', '.join(str(g) for g in supp.generators) or '0'})"
            )
        label, c = chosen
        stab = pointwise_stabilizer(act, c)
        if len(stab) == 1:
            step = support_reduction(current, pres, degree_bound)
            supp_b = _piece_support_downstairs(step.piece, pres, supp)
            stages.append(TowerStage(
                label, stab, "free",
                (TowerPiece(f"{label}/invariants", step.piece, supp_b),),
                supp, step.support_after,
            ))
            current = step.residual
        elif len(stab) == act.group.order:
            if table is None:
                raise PreconditionError("fixed components need a character table")
            pieces, nxt = _fixed_stage(current, pres, label, c, table)
            supp_after = module_support(nxt.module)
            if not closed_contains(supp, supp_after):
                raise ValidationError("fixed stage support escaped; implementation bug")
            if closed_contains(supp_after, supp):
                raise ValidationError("fixed stage failed to shrink the support")
            stages.append(TowerStage(label, stab, "fixed", pieces, supp, supp_after))
            current = nxt
        else:
            raise PreconditionError(
                f"component {label} has a proper nontrivial stabilizer; "
                "split the scenario instead"
            )
    raise TruncationError("tower failed to terminate within the stage guard")


# -- projection formula -----------------------------------------------------------------


def check_projection_formula(
    n: PresentedModule,
    n_shifts: Sequence[int],
    em: EquivariantModule,
    em_shifts: Sequence[int],
    pres: InvariantRingPresentation,
    upto: int,
) -> list:
    """Degreewise dimension comparison of (pi^* N) (x) F against N (x) pi_* F.

    Pushforward here is restriction of scalars, so both sides are honest
    graded vector spaces and the comparison needs no tolerance.  Returns
    (degree, left, right, equal) rows.
    """
    if n.ring != pres.ring:
        raise DomainMismatchError("coefficient module is not over the presentation ring")
    up = pullback(n, pres)
    lhs_mod = module_tensor(up.module, em.module)
    lhs_shifts = [
        n_shifts[i] + em_shifts[j]
        for i in range(up.module.rank)
        for j in range(em.module.rank)
    ]
    if not module_is_graded(lhs_mod, lhs_shifts):
        raise ValidationError("upstairs tensor is not graded with the given shifts")

    push = invariants_module(restrict_to_trivial_group(em), pres, em_shifts)
    if any(d is None for d in push.degrees):
        raise ValidationError("pushforward came back ungraded; use a graded module")
    rhs_mod = module_tensor(n, push.module)
    rhs_shifts = [
        n_shifts[i] + push.degrees[j]
        for i in range(n.rank)
        for j in range(push.module.rank)
    ]
    fdegs = list(pres.degrees)
    if not module_is_graded(rhs_mod, rhs_shifts, var_weights=fdegs):
        raise ValidationError("downstairs tensor is not graded with the given shifts")

    rows = []
    for d in range(upto + 1):
        left = graded_dim(lhs_mod, lhs_shifts, d)
        right = graded_dim(rhs_mod, rhs_shifts, d, var_weights=fdegs)
        rows.append((d, left, right, left == right))
    return rows
