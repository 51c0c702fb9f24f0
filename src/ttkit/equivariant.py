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
from itertools import permutations as _permutations
from typing import Optional, Sequence

from .errors import DomainMismatchError, PreconditionError, TruncationError, ValidationError
from .fields import Field, Matrix, kernel_basis, rank as matrix_rank, solve
from .geometry import ClosedSet, closed_contains, image_closed_under_map
from .grouprep import CharacterTable, FiniteGroup, cyclic_group
from .polyring import GroebnerBasis, Poly, PolyRing, eliminate, radical_equal, ring_with_prefix
from .polymod import (
    ModuleMap,
    PresentedComplex,
    PresentedModule,
    annihilator,
    cohomology_with_lifts,
    direct_sum,
    graded_dim,
    graded_piece,
    map_cokernel,
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
    vector_to_pair_coeffs,
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
        if fld.p > 0 and g.order % fld.p == 0:
            raise DomainMismatchError(
                f"characteristic {fld.p} divides the group order {g.order}"
            )
        if len(self.matrices) != g.order:
            raise ValidationError("one substitution matrix per group element required")
        for m in self.matrices:
            if m.rows != n or m.cols != n or m.field != fld:
                raise ValidationError("substitution matrix of wrong shape or field")
        if not self.matrices[g.identity].equals(Matrix.identity(fld, n)):
            raise ValidationError("identity element must substitute trivially")
        for a in range(g.order):
            for b in range(g.order):
                if not self.matrices[a].mul(self.matrices[b]).equals(
                    self.matrices[g.table[a][b]]
                ):
                    raise ValidationError(
                        f"substitutions are not a homomorphism at ({g.names[a]}, {g.names[b]})"
                    )

    def variable_images(self, a: int) -> list:
        m = self.matrices[a]
        out = []
        for j in range(self.ring.nvars):
            form = self.ring.zero()
            for i in range(self.ring.nvars):
                c = m.at(i, j)
                if not self.ring.field.is_zero(c):
                    form = form + self.ring.const(c) * self.ring.var(self.ring.variables[i])
            out.append(form)
        return out

    def apply(self, a: int, p: Poly) -> Poly:
        if p.ring != self.ring:
            raise DomainMismatchError("polynomial from a different ring")
        if a == self.group.identity:
            return p
        return p.substitute(self.variable_images(a))

    def apply_vector(self, a: int, v: Sequence[Poly]) -> tuple:
        return tuple(self.apply(a, p) for p in v)


def trivial_action(ring: PolyRing) -> RingAction:
    g = cyclic_group(1, names=("e",))
    act = RingAction(g, ring, (Matrix.identity(ring.field, ring.nvars),))
    act.validate()
    return act


def fixed_locus(act: RingAction, h_indices: Sequence[int]) -> ClosedSet:
    """V of the twists g(x_i) - x_i over the subgroup elements."""
    _check_subgroup(act.group, h_indices)
    gens = []
    for a in h_indices:
        if a == act.group.identity:
            continue
        for j, x in enumerate(act.ring.gens()):
            t = act.apply(a, x) - x
            if not t.is_zero():
                gens.append(t)
    return ClosedSet(act.ring, tuple(gens))


def _closure_of_element(group: FiniteGroup, a: int) -> tuple:
    seen = [group.identity]
    cur = a
    while cur != group.identity:
        seen.append(cur)
        cur = group.table[cur][a]
    return tuple(sorted(seen))


def _check_subgroup(group: FiniteGroup, h_indices: Sequence[int]) -> None:
    h = set(h_indices)
    if group.identity not in h:
        raise ValidationError("subgroup must contain the identity")
    for a in h:
        if not (0 <= a < group.order):
            raise ValidationError("subgroup index out of range")
        for b in h:
            if group.table[a][b] not in h:
                raise ValidationError("indices are not closed under multiplication")


def pointwise_stabilizer(act: RingAction, c: ClosedSet) -> tuple:
    """Elements whose fixed locus contains the closed set."""
    out = []
    for a in range(act.group.order):
        if a == act.group.identity:
            out.append(a)
            continue
        xg = fixed_locus(act, _closure_of_element(act.group, a))
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


def reynolds_poly(act: RingAction, p: Poly) -> Poly:
    fld = act.ring.field
    acc = act.ring.zero()
    for a in range(act.group.order):
        acc = acc + act.apply(a, p)
    return acc.scale(fld.inv(fld.from_int(act.group.order)))


def invariant_space_basis(act: RingAction, d: int) -> list:
    """Canonical basis of the degree-d invariants, via the Reynolds image."""
    from .fields import rref

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


def weighted_exponents(weights: Sequence[int], d: int) -> list:
    """Exponent tuples alpha with sum alpha_i * weights_i = d."""
    out = []

    def rec(prefix, remaining, slot):
        if slot == len(weights):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        top = remaining // weights[slot]
        for e in range(top, -1, -1):
            rec(prefix + [e], remaining - e * weights[slot], slot + 1)

    rec([], d, 0)
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
    if d == 0:
        return [ring.one()]
    out = []
    for alpha in weighted_exponents(list(degrees), d):
        p = ring.one()
        for g, e in zip(gens, alpha):
            if e:
                p = p * g ** e
        out.append(p)
    return out


def _span_dim(polys: Sequence[Poly], ring: PolyRing, d: int) -> int:
    monos = monomials_of_degree(ring, d)
    index = {m: i for i, m in enumerate(monos)}
    fld = ring.field
    rows = []
    for p in polys:
        row = [fld.zero()] * len(monos)
        for mono, c in p.terms:
            row[index[mono]] = c
        rows.append(row)
    if not rows:
        return 0
    return matrix_rank(Matrix.from_rows(fld, rows))


def invariant_generators(act: RingAction, prefix: str = "u") -> InvariantRingPresentation:
    """Algebra generators of the invariant ring, Molien-certified.

    Searches degree by degree up to |G| (the classical bound away from the
    modular case), keeping only invariants independent of products of the
    generators already chosen, then checks dimensions against the Molien
    series through degree 2|G| and fails hard on any mismatch.
    """
    act.validate()
    ring, fld, n = act.ring, act.ring.field, act.ring.nvars
    order = act.group.order
    gens: list = []
    for d in range(1, order + 1):
        fixed = invariant_space_basis(act, d)
        if not fixed:
            continue
        covered = _subalgebra_slice(
            [g for g in gens], [g.total_degree() for g in gens], d, ring
        ) if gens else ([ring.one()] if d == 0 else [])
        monos = monomials_of_degree(ring, d)
        index = {m: i for i, m in enumerate(monos)}

        def coeff_row(p):
            row = [fld.zero()] * len(monos)
            for mono, c in p.terms:
                row[index[mono]] = c
            return row

        base_rows = [coeff_row(p) for p in covered if p.total_degree() == d]
        cur_rank = matrix_rank(Matrix.from_rows(fld, base_rows)) if base_rows else 0
        for p in fixed:
            trial = base_rows + [coeff_row(p)]
            r = matrix_rank(Matrix.from_rows(fld, trial))
            if r > cur_rank:
                gens.append(p)
                base_rows = trial
                cur_rank = r

    molien = molien_dimensions(act, 2 * order)
    degs = [g.total_degree() for g in gens]
    for d in range(0, 2 * order + 1):
        slice_polys = _subalgebra_slice(gens, degs, d, ring)
        have = _span_dim(slice_polys, ring, d)
        if fld.from_int(have) != molien[d]:
            raise ValidationError(
                f"invariant generators fail the Molien check at degree {d}"
            )

    for g in gens:
        if reynolds_poly(act, g) != g:
            raise ValidationError("chosen generator is not an invariant")

    yring = PolyRing(fld, tuple(f"{prefix}{i}" for i in range(len(gens))))
    if set(yring.variables) & set(ring.variables):
        raise ValidationError("presentation variable prefix clashes with the ring")
    if gens:
        big = ring_with_prefix(yring, ring.variables)
        pad = (0,) * len(gens)

        def lift_x(p):
            return Poly(big, tuple((m + pad, c) for m, c in p.terms))

        ideal = []
        for i, f in enumerate(gens):
            ideal.append(big.var(yring.variables[i]) - lift_x(f))
        rels = tuple(eliminate(ideal, n))
    else:
        rels = ()
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
        act, mod = self.action, self.module
        if mod.ring != act.ring:
            raise DomainMismatchError("module and action over different rings")
        g = act.group
        if len(self.rho) != g.order:
            raise ValidationError("one action matrix per group element required")
        for cols in self.rho:
            if len(cols) != mod.rank or any(len(c) != mod.rank for c in cols):
                raise ValidationError("action matrix of wrong shape")
        for j in range(mod.rank):
            diff = vec_sub(self.rho[g.identity][j], unit_vector(mod.ring, mod.rank, j))
            if not mod.contains_in_relations(diff):
                raise ValidationError("identity does not act as the identity")
        for a in range(g.order):
            for rel in mod.relations:
                img = self.apply(a, rel)
                if not mod.contains_in_relations(img):
                    raise ValidationError(
                        f"action of {g.names[a]} does not preserve the relations"
                    )
        for a in range(g.order):
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

    def apply(self, a: int, v: Sequence[Poly]) -> tuple:
        """Semilinear action on a module vector."""
        act, mod = self.action, self.module
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
    em = EquivariantModule(act, PresentedModule.free(act.ring, 1), identity_rho(act, 1))
    em.validate()
    return em


def cyclic_equivariant(act: RingAction, ideal_gens: Sequence[Poly]) -> EquivariantModule:
    """A/I with the action inherited from the ring; I must be G-stable."""
    for a in range(act.group.order):
        for f in ideal_gens:
            img = act.apply(a, f)
            gb = GroebnerBasis.of(list(ideal_gens))
            if not gb.contains(img):
                raise ValidationError("ideal is not stable under the action")
    mod = PresentedModule.cyclic(act.ring, list(ideal_gens))
    em = EquivariantModule(act, mod, identity_rho(act, mod.rank))
    em.validate()
    return em


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
    out = EquivariantModule(a.action, mod, tuple(rho))
    out.validate()
    return out


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
            for a in range(self.action.group.order):
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

    @staticmethod
    def single(em: EquivariantModule, degree: int = 0) -> "EquivariantComplex":
        return EquivariantComplex(
            em.action, PresentedComplex.single(em.module, degree), (em.rho,)
        )


def equivariant_cohomology(ec: EquivariantComplex, i: int) -> EquivariantModule:
    """H^i with the induced action, via lifting cocycle generators."""
    h, lifts = cohomology_with_lifts(ec.complex, i)
    act = ec.action
    if h.rank == 0:
        return EquivariantModule(act, h, identity_rho(act, 0))
    idx = i - ec.complex.start
    term = ec.term(i)
    prev = ec.complex.map_at(i - 1)
    boundary = list(prev.columns) if prev is not None else []
    rho = []
    for a in range(act.group.order):
        cols = []
        for z in lifts:
            img = term.apply(a, z)
            sol = submodule_lift(img, list(lifts) + boundary, term.module)
            if sol is None:
                raise ValidationError("action does not preserve cocycles")
            cols.append(tuple(sol[: len(lifts)]))
        rho.append(tuple(cols))
    em = EquivariantModule(act, h, tuple(rho))
    em.validate()
    return em


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
    em = EquivariantModule(act, mod, identity_rho(act, n.rank))
    em.validate()
    return em


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
    n = act.ring.nvars
    idm = Matrix.identity(act.ring.field, n)
    if not all(m.equals(idm) for m in act.matrices):
        return False
    mod = em.module
    for a in range(act.group.order):
        for j in range(mod.rank):
            diff = vec_sub(em.rho[a][j], unit_vector(mod.ring, mod.rank, j))
            if not mod.contains_in_relations(diff):
                return False
    return True


def _invariants_by_renaming(em, pres, shifts) -> InvariantsModule:
    mod = em.module
    yring = pres.ring

    def rename(p: Poly) -> Poly:
        return Poly(yring, p.terms)

    rels = tuple(tuple(rename(p) for p in rel) for rel in mod.relations)
    out = PresentedModule(yring, mod.rank, rels)
    lifts = tuple(unit_vector(mod.ring, mod.rank, j) for j in range(mod.rank))
    return InvariantsModule(out, lifts, shifts)


def _invariants_graded(em, pres, shifts, degree_bound) -> InvariantsModule:
    act, mod = em.action, em.module
    ring, fld = mod.ring, mod.ring.field
    fdegs = list(pres.degrees)
    window = max(fdegs) if fdegs else 1
    order = max(act.group.order, 1)
    bound = degree_bound if degree_bound is not None else 2 * order + max(shifts) + window

    gens: list = []  # entries (degree, lift vector over A)
    fixed_dims: dict = {}
    sub_slices: dict = {}

    def subalgebra_slice(e: int) -> list:
        if e not in sub_slices:
            sub_slices[e] = _subalgebra_slice(pres.generators, fdegs, e, ring)
        return sub_slices[e]

    for d in range(0, bound + 1):
        pairs, free_cols, reduce_vec = graded_piece(mod, list(shifts), d)
        index = {p: i for i, p in enumerate(pairs)}
        dim = len(free_cols)
        if dim == 0:
            fixed_dims[d] = 0
            continue

        def coords_of_vector(v) -> list:
            return reduce_vec(vector_to_pair_coeffs(v, pairs, index))

        nontrivial = [a for a in range(act.group.order) if a != act.group.identity]
        if nontrivial:
            stacked_rows = []
            for a in nontrivial:
                colsm = []
                for c in free_cols:
                    j, m = pairs[c]
                    img = em.apply(a, vec_scale(ring.monomial(m), unit_vector(ring, mod.rank, j)))
                    colsm.append(coords_of_vector(img))
                for r in range(dim):
                    row = [
                        fld.sub(colsm[cc][r], fld.one() if cc == r else fld.zero())
                        for cc in range(dim)
                    ]
                    stacked_rows.append(row)
            ker = kernel_basis(Matrix.from_rows(fld, stacked_rows))
            fixed_vecs = [
                [ker.at(i, j) for i in range(dim)] for j in range(ker.cols)
            ]
        else:
            fixed_vecs = [
                [fld.one() if i == j else fld.zero() for i in range(dim)]
                for j in range(dim)
            ]
        fixed_dims[d] = len(fixed_vecs)
        if not fixed_vecs:
            continue

        covered = []
        for gd, lift in gens:
            for mult in subalgebra_slice(d - gd):
                v = tuple(mult * p for p in lift)
                covered.append(coords_of_vector(v))
        base = [list(r) for r in covered]
        cur = matrix_rank(Matrix.from_rows(fld, base)) if base else 0
        for cand in fixed_vecs:
            trial = base + [list(cand)]
            r = matrix_rank(Matrix.from_rows(fld, trial))
            if r > cur:
                lift = zero_vector(ring, mod.rank)
                for fc, c in zip(free_cols, cand):
                    if fld.is_zero(c):
                        continue
                    j, m = pairs[fc]
                    lift = vec_add(lift, vec_scale(ring.monomial(m).scale(c),
                                                   unit_vector(ring, mod.rank, j)))
                gens.append((d, lift))
                base = trial
                cur = r

    if any(gd > bound - window for gd, _ in gens):
        raise TruncationError(
            "invariants kept producing generators near the degree bound; raise it"
        )

    yring = pres.ring
    gen_degs = [gd for gd, _ in gens]
    relations: list = []
    for d in range(0, bound + 1):
        pairs, free_cols, reduce_vec = graded_piece(mod, list(shifts), d)
        if not pairs:
            syz_cols = []
        index = {p: i for i, p in enumerate(pairs)}
        unknowns = []  # (gen index, y-monomial)
        for gi, (gd, lift) in enumerate(gens):
            for alpha in weighted_exponents(fdegs, d - gd):
                unknowns.append((gi, alpha))
        if not unknowns:
            continue
        cols = []
        for gi, alpha in unknowns:
            mult = ring.one()
            for f, e in zip(pres.generators, alpha):
                if e:
                    mult = mult * f ** e
            v = tuple(mult * p for p in gens[gi][1])
            coords = reduce_vec(vector_to_pair_coeffs(v, pairs, index)) if free_cols else []
            cols.append(coords)
        if free_cols:
            mat_rows = [[cols[u][r] for u in range(len(unknowns))] for r in range(len(free_cols))]
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
            for (gi, alpha), c in zip(unknowns, s):
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
    act, mod = em.action, em.module
    ring, fld = mod.ring, mod.ring.field
    s0 = len(pairs)

    def action_matrix(a: int) -> Matrix:
        cols = []
        for j, m in pairs:
            img = em.apply(a, vec_scale(ring.monomial(m), unit_vector(ring, mod.rank, j)))
            cols.append(vector_in_standard_coords(mod, pairs, img))
        rows = [[cols[c][r] for c in range(s0)] for r in range(s0)]
        return Matrix.from_rows(fld, rows)

    nontrivial = [a for a in range(act.group.order) if a != act.group.identity]
    if nontrivial:
        stacked = None
        for a in nontrivial:
            block = action_matrix(a).sub(Matrix.identity(fld, s0))
            stacked = block if stacked is None else stacked.vstack(block)
        ker = kernel_basis(stacked)
        fixed = [[ker.at(i, j) for i in range(s0)] for j in range(ker.cols)]
    else:
        fixed = [[fld.one() if i == j else fld.zero() for i in range(s0)] for j in range(s0)]

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

    lifts = []
    for j in range(s):
        v = zero_vector(ring, mod.rank)
        for (pos, m), c in zip(pairs, fixed[j]):
            if fld.is_zero(c):
                continue
            v = vec_add(v, vec_scale(ring.monomial(m).scale(c), unit_vector(ring, mod.rank, pos)))
        lifts.append(v)
    return InvariantsModule(out, tuple(lifts), (None,) * s)


def restriction_of_scalars(em: EquivariantModule, pres: InvariantRingPresentation,
                           shifts: Optional[Sequence[int]] = None,
                           degree_bound: Optional[int] = None) -> InvariantsModule:
    """The underlying module seen over k[y]; invariants under nobody."""
    return invariants_module(restrict_to_trivial_group(em), pres, shifts, degree_bound)


# -- isotypic decomposition -------------------------------------------------------------


@dataclass(frozen=True)
class IsotypicPiece:
    name: str
    module: PresentedModule
    lift_columns: tuple  # generators inside W* (x) M, index (a, j) -> a * rankM + j


def _embedding_check(h_group: FiniteGroup, g_group: FiniteGroup,
                     h_embed: Sequence[int]) -> None:
    if len(h_embed) != h_group.order:
        raise ValidationError("embedding must list an image for every element")
    if h_embed[h_group.identity] != g_group.identity:
        raise ValidationError("embedding must send identity to identity")
    if len(set(h_embed)) != len(h_embed):
        raise ValidationError("embedding must be injective")
    for a in range(h_group.order):
        for b in range(h_group.order):
            lhs = h_embed[h_group.table[a][b]]
            rhs = g_group.table[h_embed[a]][h_embed[b]]
            if lhs != rhs:
                raise ValidationError("embedding is not a homomorphism")


def isotypic_decompose_module(
    em: EquivariantModule,
    h_group: FiniteGroup,
    h_embed: Sequence[int],
    table: CharacterTable,
    require_trivial_ring_action: bool = True,
) -> list:
    """Split M into canonical pieces under a subgroup acting linearly.

    Strict mode asks the subgroup to fix the ring variables; relaxed mode
    only asks the variable twists to die in the relations, which is what
    the filtration layers provide.  Pieces are indexed by the character
    table; the evaluation map out of the assembled sum is checked to be an
    isomorphism before anything is returned.
    """
    em.validate()
    table.validate()
    if table.group is not h_group:
        if table.group.table != h_group.table:
            raise DomainMismatchError("character table is for a different group")
    _embedding_check(h_group, em.action.group, h_embed)
    act, mod = em.action, em.module
    ring, fld = mod.ring, mod.ring.field
    if table.field != fld:
        raise DomainMismatchError("character table over the wrong field")

    for a in range(h_group.order):
        ga = h_embed[a]
        if require_trivial_ring_action:
            if not act.matrices[ga].equals(Matrix.identity(fld, ring.nvars)):
                raise PreconditionError(
                    "subgroup moves the ring variables; decomposition needs a linear action"
                )
        else:
            for j in range(mod.rank):
                for i, x in enumerate(ring.gens()):
                    twist = act.apply(ga, x) - x
                    if twist.is_zero():
                        continue
                    v = vec_scale(twist, unit_vector(ring, mod.rank, j))
                    if not mod.contains_in_relations(v):
                        raise PreconditionError(
                            "variable twists do not vanish on the module; "
                            "the subgroup action is not linear here"
                        )

    pieces = []
    for name in table.names:
        dim = table.degrees[table.irrep_index(name)]
        big = module_tensor(PresentedModule.free(ring, dim), mod)
        # the equivariance preconditions above make the semilinear action
        # A-linear modulo relations, so generator images define module maps
        diff_blocks = []
        for a in range(h_group.order):
            if a == h_group.identity:
                continue
            cols = []
            for idx in range(big.rank):
                e = unit_vector(ring, big.rank, idx)
                img = _semilinear_tensor_apply(em, h_embed, table, name, a, e)
                cols.append(vec_sub(img, e))
            diff_blocks.append(cols)
        if diff_blocks:
            total_target = big
            for _ in diff_blocks[1:]:
                total_target = direct_sum(total_target, big)
            stacked_cols = []
            for j in range(big.rank):
                col = []
                for cols in diff_blocks:
                    col.extend(cols[j])
                stacked_cols.append(tuple(col))
            stacked = ModuleMap(big, total_target, tuple(stacked_cols))
            piece_mod, piece_gens = map_kernel(stacked)
        else:
            piece_mod, piece_gens = big, tuple(
                unit_vector(ring, big.rank, j) for j in range(big.rank)
            )
        pieces.append(IsotypicPiece(name, piece_mod, tuple(piece_gens)))

    _check_evaluation_iso(em, h_group, h_embed, table, pieces)
    return pieces


def _semilinear_tensor_apply(em: EquivariantModule, h_embed, table, name, a, v):
    """Action of a on W* (x) M, index (b, k) -> b * rank + k."""
    act, mod = em.action, em.module
    ring, fld = mod.ring, mod.ring.field
    forms = table.forms_for(name)
    dim = table.degrees[table.irrep_index(name)]
    hinv = table.group.inverse(a)
    wmat = forms[hinv]
    ga = h_embed[a]
    out = zero_vector(ring, dim * mod.rank)
    for b in range(dim):
        for k in range(mod.rank):
            p = v[b * mod.rank + k]
            if p.is_zero():
                continue
            gp = act.apply(ga, p)
            mcol = em.rho[ga][k]
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
                    idx = c * mod.rank + i
                    addv = vec_scale((gp * q).scale(coeff), unit_vector(ring, dim * mod.rank, idx))
                    out = vec_add(out, addv)
    return out


def _check_evaluation_iso(em, h_group, h_embed, table, pieces) -> None:
    mod = em.module
    ring = mod.ring
    src = None
    cols = []
    for name, piece in zip(table.names, pieces):
        dim = table.degrees[table.irrep_index(name)]
        w_free = PresentedModule.free(ring, dim)
        block = module_tensor(w_free, piece.module)  # index (b, k) -> b * piece.rank + k
        src = block if src is None else direct_sum(src, block)
        for b in range(dim):
            for k in range(piece.module.rank):
                kappa = piece.lift_columns[k]
                col = zero_vector(ring, mod.rank)
                for i in range(mod.rank):
                    col = vec_add(col, vec_scale(kappa[b * mod.rank + i],
                                                 unit_vector(ring, mod.rank, i)))
                cols.append(col)
    if src is None:
        src = PresentedModule.zero(ring)
    ev = ModuleMap(src, mod, tuple(cols))
    from .polymod import map_is_isomorphism

    if not map_is_isomorphism(ev):
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
    em,
    pres: InvariantRingPresentation,
    shifts: Optional[Sequence[int]] = None,
    degree_bound: Optional[int] = None,
) -> ReductionStep:
    """Split off the invariants of a module the group moves honestly.

    The counit evaluates the pulled-back invariants inside the module; its
    kernel and cokernel carry induced actions and together form the
    residual.  The residual support must shrink strictly, and a module
    concentrated inside some element's fixed locus is refused up front.
    """
    if isinstance(em, EquivariantComplex):
        if len(em.complex.modules) != 1:
            raise PreconditionError(
                "reduction works on modules; collapse a longer complex to "
                "its cohomology first"
            )
        em = em.term(em.complex.start)
    em.validate()
    act = em.action
    if em.module.is_zero():
        raise PreconditionError("nothing to reduce: the module is zero")
    supp = module_support(em.module)
    for a in range(act.group.order):
        if a == act.group.identity:
            continue
        xg = fixed_locus(act, _closure_of_element(act.group, a))
        if closed_contains(xg, supp):
            raise PreconditionError(
                f"support lies inside the fixed locus of {act.group.names[a]}; "
                "peel that stratum with the filtration instead"
            )

    inv = invariants_module(em, pres, shifts, degree_bound)
    source = pullback(inv.module, pres)
    eta = ModuleMap(source.module, em.module, tuple(inv.lifts))
    eta.check_well_defined()

    kmod, kgens = map_kernel(eta)
    if kmod.rank:
        rho = []
        for a in range(act.group.order):
            cols = []
            for kg in kgens:
                img = source.apply(a, kg)
                sol = submodule_lift(img, list(kgens), source.module)
                if sol is None:
                    raise ValidationError("counit kernel is not stable under the action")
                cols.append(tuple(sol))
            rho.append(tuple(cols))
        kernel_em = EquivariantModule(act, kmod, tuple(rho))
        kernel_em.validate()
    else:
        kernel_em = EquivariantModule(act, kmod, identity_rho(act, 0))

    cmod = map_cokernel(eta)
    cokernel_em = EquivariantModule(act, cmod, em.rho)
    cokernel_em.validate()

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


def _fixed_stage(em: EquivariantModule, pres: InvariantRingPresentation,
                 label: str, component: ClosedSet, table: CharacterTable):
    """Consume a fully fixed component through its ideal-power filtration."""
    act, mod = em.action, em.module
    ring = act.ring
    ideal = [g for g in component.generators if not g.is_zero()]
    gb = GroebnerBasis.of(ideal)
    for a in range(act.group.order):
        if a == act.group.identity:
            continue
        for x in ring.gens():
            twist = act.apply(a, x) - x
            if not twist.is_zero() and not gb.contains(twist):
                raise PreconditionError(
                    f"twist by {act.group.names[a]} misses the component ideal; "
                    "declare the component by its radical"
                )
        for t in ideal:
            if not gb.contains(act.apply(a, t)):
                raise PreconditionError("component ideal is not stable under the action")

    def presented_stage(gens):
        sub, _ = submodule_presentation(list(gens), mod)
        rho = []
        for a in range(act.group.order):
            cols = []
            for v in gens:
                sol = submodule_lift(em.apply(a, v), list(gens), mod)
                if sol is None:
                    raise ValidationError("filtration stage is not stable under the action")
                cols.append(tuple(sol))
            rho.append(tuple(cols))
        stage = EquivariantModule(act, sub, tuple(rho))
        stage.validate()
        return stage

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
        stage_j = presented_stage(gens_j)
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
        layer.validate()
        if layer.module.is_zero():
            continue
        decomposition = isotypic_decompose_module(
            layer, act.group, list(range(act.group.order)), table,
            require_trivial_ring_action=False,
        )
        for piece in decomposition:
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
    return pieces, next_em


def tower(
    em,
    pres: InvariantRingPresentation,
    components: Sequence,
    table: Optional[CharacterTable] = None,
    shifts: Optional[Sequence[int]] = None,
    degree_bound: Optional[int] = None,
) -> TowerResult:
    """Peel the module along declared invariant components until it dies.

    components is an ordered list of (label, closed set) pairs; the first
    one inside the current support is consumed.  Trivial stabilizer means
    a counit reduction, full stabilizer means the ideal-power filtration
    with isotypic splitting; anything in between is refused.  Support must
    drop strictly at every stage.
    """
    if isinstance(em, EquivariantComplex):
        em = complex_to_module(em)
    em.validate()
    act = em.action
    for label, c in components:
        if c.ring != act.ring:
            raise DomainMismatchError(f"component {label} lives in the wrong ring")
        stab = pointwise_stabilizer(act, c)
        for a in range(act.group.order):
            moved = [act.apply(a, g) for g in c.generators]
            if not radical_equal(list(moved), list(c.generators)):
                raise PreconditionError(f"component {label} is not invariant")
        del stab

    stages = []
    current = em
    cur_shifts = tuple(shifts) if shifts is not None else None
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
            step = support_reduction(current, pres, cur_shifts, degree_bound)
            supp_b = _piece_support_downstairs(step.piece, pres, supp)
            stages.append(TowerStage(
                label, stab, "free",
                (TowerPiece(f"{label}/invariants", step.piece, supp_b),),
                supp, step.support_after,
            ))
            current = step.residual
            cur_shifts = None
        elif len(stab) == act.group.order:
            if table is None:
                raise PreconditionError("fixed components need a character table")
            pieces, nxt = _fixed_stage(current, pres, label, c, table)
            supp_after = module_support(nxt.module)
            if not closed_contains(supp, supp_after):
                raise ValidationError("fixed stage support escaped; implementation bug")
            if closed_contains(supp_after, supp):
                raise ValidationError("fixed stage failed to shrink the support")
            stages.append(TowerStage(label, stab, "fixed", tuple(pieces), supp, supp_after))
            current = nxt
            cur_shifts = None
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

    push = restriction_of_scalars(em, pres, em_shifts)
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
