"""Bundled example data shared by the tests, the verification suite, and
the command line scenarios.

Everything here is deterministic.  The fixed families are literal, and the
random families draw only from ``random.Random(seed)`` with the caller's
seed, so equal seeds give equal corpora in identical registration order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .balmer import SupportDatum, SupportProfile
from .equivariant import (
    EquivariantComplex,
    InvariantRingPresentation,
    RingAction,
    cyclic_equivariant,
    direct_sum_equivariant,
    invariant_generators,
    module_support,
    pullback,
    ring_as_equivariant,
    tower,
    twist_by_character,
)
from .errors import ValidationError
from .fields import GF, QQ, Field, Matrix
from .geometry import ClosedSet, PrimeSite, SiteSpace
from .grouprep import (
    CharacterTable,
    Representation,
    c2_character_table,
    c3_character_table,
    cyclic_group,
    regular_representation,
    representation_from_forms,
    s3_character_table,
)
from .polymod import ModuleMap, PresentedComplex, PresentedModule
from .polyring import Poly, PolyRing
from .supermod import (
    SuperAlgebra,
    SuperComplex,
    cone_supercomplex,
    direct_sum_supercomplex,
    koszul_complex_super,
    scalar_matrix,
    shift_supercomplex,
    supph_sites,
    supph_super,  # unused here; the benchmark's tracer self-test checks this binding
    tensor_supercomplexes,
)


# -- ideal membership cases --------------------------------------------------------------


@dataclass(frozen=True)
class MembershipCase:
    """A small ideal with hand-picked members and nonmembers.

    Members are written down as explicit combinations of the generators,
    so the linear-algebra membership oracle is complete for them at
    oracle_bound.  Nonmembers fail at every bound.
    """

    name: str
    ring: PolyRing
    generators: tuple
    members: tuple
    nonmembers: tuple
    oracle_bound: int


def membership_corpus(fld: Field) -> tuple:
    """Twenty fixed ideals in at most three variables, degree at most four."""
    r1 = PolyRing(fld, ("x",))
    r2 = PolyRing(fld, ("x", "y"))
    r3 = PolyRing(fld, ("x", "y", "z"))
    x1 = r1.var("x")
    x, y = r2.var("x"), r2.var("y")
    X, Y, Z = r3.var("x"), r3.var("y"), r3.var("z")
    one1, one2 = r1.one(), r2.one()

    cases = [
        MembershipCase(
            "principal-line", r1, (x1,),
            (x1 * (x1 + 1), x1 ** 3),
            (one1, x1 + 1),
            4,
        ),
        MembershipCase(
            "two-points", r1, (x1 * x1 - 1,),
            ((x1 * x1 - 1) * (x1 + 2), x1 ** 4 - 1),
            (x1 - 1, x1),
            4,
        ),
        MembershipCase(
            "gcd-pair", r1, (x1 ** 3 - x1, x1 * x1 - 1),
            (x1 * x1 * (x1 * x1 - 1), x1 ** 3 - x1 + x1 * x1 - 1),
            (x1 + 1, x1 * x1 + 1),
            4,
        ),
        MembershipCase(
            "fat-origin", r1, (x1 ** 3,),
            (x1 ** 4, x1 ** 3 * (x1 - 1)),
            (x1 * x1, x1),
            4,
        ),
        MembershipCase(
            "axes", r2, (x * y,),
            (x * x * y, x * y * (x + y) + x * y),
            (x + y, x * x, y),
            4,
        ),
        MembershipCase(
            "circle-chord", r2, (x * x + y * y - 1, x - y),
            (2 * x * x - 1, (x - y) * y),
            (x, x + y - 1, one2),
            4,
        ),
        MembershipCase(
            "sym-pair", r2, (x + y, x * y),
            (x * x, y * y),
            (x, x + 1),
            3,
        ),
        MembershipCase(
            "fat-point-plane", r2, (x * x, x * y, y * y),
            (x ** 3, x * x * y + y ** 3),
            (x, x * y + x),
            4,
        ),
        MembershipCase(
            "complete-intersection", r2, (x * x - y * y, x * y),
            (x ** 3, y ** 3),
            (x * x, y * y, x),
            4,
        ),
        MembershipCase(
            "parabola-line", r2, (y - x * x, y),
            (x * x, y + x ** 4),
            (x, x * x + x),
            5,
        ),
        MembershipCase(
            "node-cubic", r2, (y * y - x ** 3 - x * x,),
            ((y * y - x ** 3 - x * x) * (x + y),),
            (y * y - x ** 3, x + y),
            5,
        ),
        MembershipCase(
            "monomial-stairs", r2, (x ** 3, x * x * y, y * y),
            (x ** 3 * y, x * x * y * y, y ** 3),
            (x * y, x * x, x * y + y * y),
            5,
        ),
        MembershipCase(
            "binomial-torus", r2, (x * x * y - 1,),
            ((x * x * y - 1) * x,),
            (x * x * y, x - 1),
            5,
        ),
        MembershipCase(
            "dense-pair", r2, (x * x + 2 * x * y + 3, x - y + 1),
            ((x - y + 1) * y + x * x + 2 * x * y + 3,),
            (one2, y),
            4,
        ),
        MembershipCase(
            "twisted-cubic", r3, (X * X - Y, X ** 3 - Z),
            (X * Y - Z, Y * Y - X * Z),
            (X, Y, X * Y + Z),
            5,
        ),
        MembershipCase(
            "coordinate-planes", r3, (X * Y * Z,),
            (X * X * Y * Z,),
            (X * Y, Y * Z + 1),
            4,
        ),
        MembershipCase(
            "three-binomials", r3, (X * Y - Z * Z, Y * Z - X * X),
            (2 * X * Y * Z - Z ** 3 - X ** 3,),
            (X, X + Y + Z),
            5,
        ),
        MembershipCase(
            "graph-surface", r3, (Z - X * Y,),
            ((Z - X * Y) * (X + Z),),
            (Z, X * Y),
            4,
        ),
        MembershipCase(
            "unit-ideal", r3, (X, X - 1),
            (r3.one(), X + Y + Z),
            (),
            3,
        ),
        MembershipCase(
            "elim-chain", r3, (X * X + Y, Y * Y + Z),
            (X * X * Y - Z,),
            (X * X, Y, Z),
            4,
        ),
    ]
    return tuple(cases)


def twisted_cubic_expected(fld: Field):
    """The curve (t, t^2, t^3): generators and the reduced basis they settle to.

    The basis was derived by running the three S-polynomial reductions by
    hand under graded reverse lex with x > y > z; all three reduce to zero
    against {x^2 - y, xy - z, y^2 - xz}.
    """
    ring = PolyRing(fld, ("x", "y", "z"))
    x, y, z = ring.gens()
    gens = (x * x - y, x ** 3 - z)
    expected = (x * x - y, x * y - z, y * y - x * z)
    return ring, gens, expected


# -- group actions used by several corpora -----------------------------------------------


def c2_line_action(fld: Field = QQ) -> RingAction:
    """C2 on k[x] by x -> -x."""
    ring = PolyRing(fld, ("x",))
    grp = cyclic_group(2)
    act = RingAction(grp, ring, (Matrix.identity(fld, 1),
                                 Matrix(fld, 1, 1, (fld.from_int(-1),))))
    act.validate()
    return act


def swap_plane_action(fld: Field = QQ) -> RingAction:
    """S2 on k[x, y] exchanging the variables."""
    ring = PolyRing(fld, ("x", "y"))
    grp = cyclic_group(2)
    swap = Matrix.from_rows(fld, [[fld.zero(), fld.one()], [fld.one(), fld.zero()]])
    act = RingAction(grp, ring, (Matrix.identity(fld, 2), swap))
    act.validate()
    return act


def minus_plane_action(fld: Field = QQ) -> RingAction:
    """C2 on k[x, y] by negating both variables."""
    ring = PolyRing(fld, ("x", "y"))
    grp = cyclic_group(2)
    neg = Matrix.from_rows(fld, [[fld.from_int(-1), fld.zero()],
                                 [fld.zero(), fld.from_int(-1)]])
    act = RingAction(grp, ring, (Matrix.identity(fld, 2), neg))
    act.validate()
    return act


def c3_plane_action_f7() -> RingAction:
    """C3 on F_7[x, y] by (x, y) -> (2x, 4y); 2 is a cube root of 1 mod 7."""
    f7 = GF(7)
    ring = PolyRing(f7, ("x", "y"))
    grp = cyclic_group(3)

    def diag(a, b):
        return Matrix.from_rows(f7, [[f7.from_int(a), f7.zero()],
                                     [f7.zero(), f7.from_int(b)]])

    act = RingAction(grp, ring, (Matrix.identity(f7, 2), diag(2, 4), diag(4, 2)))
    act.validate()
    return act


def c3_line_action_f7() -> RingAction:
    """Free C3 on F_7[x] minus the origin: x -> 2x."""
    f7 = GF(7)
    ring = PolyRing(f7, ("x",))
    grp = cyclic_group(3)
    mats = (Matrix.identity(f7, 1),
            Matrix(f7, 1, 1, (f7.from_int(2),)),
            Matrix(f7, 1, 1, (f7.from_int(4),)))
    act = RingAction(grp, ring, mats)
    act.validate()
    return act


# -- invariant ring cases -----------------------------------------------------------------


@dataclass(frozen=True)
class InvariantCase:
    name: str
    act: RingAction
    upto: int  # compare Hilbert dimensions through twice the group order


def invariant_ring_corpus() -> tuple:
    return (
        InvariantCase("c2-line", c2_line_action(QQ), 4),
        InvariantCase("swap-plane", swap_plane_action(QQ), 4),
        InvariantCase("minus-plane", minus_plane_action(QQ), 4),
        InvariantCase("c3-plane-f7", c3_plane_action_f7(), 6),
    )


# -- representation cases -----------------------------------------------------------------


def c2_sign_representation(fld: Field = QQ) -> Representation:
    grp = cyclic_group(2)
    mats = (Matrix.identity(fld, 1), Matrix(fld, 1, 1, (fld.from_int(-1),)))
    return representation_from_forms(grp, fld, mats)


def s3_standard_representation(fld: Field = QQ) -> Representation:
    """The two dimensional reflection action on the root basis e1-e2, e2-e3."""
    table = s3_character_table(fld)
    return representation_from_forms(table.group, fld, table.forms_for("std"))


@dataclass(frozen=True)
class WitnessCase:
    """A representation and a start vector for the fixed-tensor construction."""

    name: str
    rep: Representation
    vector: tuple


def witness_corpus() -> tuple:
    sign = c2_sign_representation(QQ)
    reg2 = regular_representation(cyclic_group(2), QQ)
    std = s3_standard_representation(QQ)
    return (
        WitnessCase("c2-sign", sign, (QQ.one(),)),
        WitnessCase("c2-regular", reg2, (QQ.from_int(1), QQ.from_int(2))),
        WitnessCase("s3-standard", std, (QQ.from_int(1), QQ.from_int(2))),
    )


def monomial_representation(act: RingAction, d: int) -> Representation:
    """The action on degree-d forms, written on the monomial basis."""
    from .polymod import monomials_of_degree

    ring, fld = act.ring, act.ring.field
    monos = monomials_of_degree(ring, d)
    index = {m: i for i, m in enumerate(monos)}
    mats = []
    for a in range(act.group.order):
        cols = []
        for m in monos:
            img = act.apply(a, ring.monomial(m))
            col = [fld.zero()] * len(monos)
            for mono, c in img.terms:
                col[index[mono]] = c
            cols.append(col)
        rows = [[cols[j][i] for j in range(len(monos))] for i in range(len(monos))]
        mats.append(Matrix.from_rows(fld, rows))
    rep = Representation(act.group, fld, len(monos), tuple(mats))
    rep.validate()
    return rep


# -- tower corpus ------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerCase:
    name: str
    obj: object  # EquivariantModule or EquivariantComplex
    components: tuple


@dataclass(frozen=True)
class TowerFamily:
    name: str
    act: RingAction
    pres: InvariantRingPresentation
    table: CharacterTable
    cases: tuple


def _line_tower_family() -> TowerFamily:
    act = c2_line_action(QQ)
    ring = act.ring
    x = ring.var("x")
    pres = invariant_generators(act)
    table = c2_character_table(QQ)
    whole = ClosedSet(ring, ())
    origin = ClosedSet(ring, (x,))
    orbit = ClosedSet(ring, (x * x - 1,))
    comps = (("line", whole), ("origin", origin), ("orbit", orbit))

    structure = ring_as_equivariant(act)
    sign = twist_by_character(structure, (QQ.one(), QQ.from_int(-1)))

    free_mod = PresentedModule.free(ring, 1)
    d = ModuleMap(free_mod, free_mod, ((x,),))
    cx = PresentedComplex(ring, 0, (free_mod, free_mod), (d,))
    two_term = EquivariantComplex(act, cx, (structure.rho, sign.rho))

    cases = (
        TowerCase("structure-sheaf", structure, comps),
        TowerCase("sign-twist", sign, comps),
        TowerCase("fat-origin", cyclic_equivariant(act, [x * x]), comps),
        TowerCase("free-orbit", cyclic_equivariant(act, [x * x - 1]), comps),
        TowerCase("mixed-orbit", cyclic_equivariant(act, [x ** 3 - x]), comps),
        TowerCase("sum-free-sign", direct_sum_equivariant(structure, sign), comps),
        TowerCase("two-term-complex", two_term, comps),
    )
    return TowerFamily("c2-line", act, pres, table, cases)


def _plane_tower_family() -> TowerFamily:
    act = swap_plane_action(QQ)
    ring = act.ring
    x, y = ring.var("x"), ring.var("y")
    pres = invariant_generators(act)
    table = c2_character_table(QQ)
    whole = ClosedSet(ring, ())
    diag = ClosedSet(ring, (x - y,))
    pair = ClosedSet(ring, (x + y - 1, x * y))
    comps = (("plane", whole), ("diag", diag), ("pair", pair))

    structure = ring_as_equivariant(act)
    skew = twist_by_character(structure, (QQ.one(), QQ.from_int(-1)))

    cases = (
        TowerCase("structure-sheaf", structure, comps),
        TowerCase("skew-plane", skew, comps),
        TowerCase("fat-diagonal", cyclic_equivariant(act, [(x - y) * (x - y)]), comps),
        TowerCase("free-pair", cyclic_equivariant(act, [x + y - 1, x * y]), comps),
    )
    return TowerFamily("s2-plane", act, pres, table, cases)


def tower_corpus() -> tuple:
    """Objects over two quotients whose towers exercise both stage kinds."""
    return (_line_tower_family(), _plane_tower_family())


# -- projection formula pairs --------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionCase:
    name: str
    pres: InvariantRingPresentation
    n: PresentedModule
    n_shifts: tuple
    em: EquivariantModule
    em_shifts: tuple
    upto: int


def projection_corpus() -> tuple:
    line = _line_tower_family()
    plane = _plane_tower_family()
    uring = line.pres.ring
    u = uring.var("u0")
    bring = plane.pres.ring
    u0 = bring.var("u0")

    a_line = ring_as_equivariant(line.act)
    sign = twist_by_character(a_line, (QQ.one(), QQ.from_int(-1)))
    fat = cyclic_equivariant(line.act, [line.act.ring.var("x") ** 2])
    a_plane = ring_as_equivariant(plane.act)
    skew = twist_by_character(a_plane, (QQ.one(), QQ.from_int(-1)))

    return (
        ProjectionCase("line-free", line.pres,
                       PresentedModule.free(uring, 1), (0,), a_line, (0,), 10),
        ProjectionCase("line-sky", line.pres,
                       PresentedModule.cyclic(uring, [u]), (0,), sign, (0,), 10),
        ProjectionCase("line-fat", line.pres,
                       PresentedModule.cyclic(uring, [u * u]), (0,), fat, (0,), 10),
        ProjectionCase("line-shifted", line.pres,
                       PresentedModule.free(uring, 1), (0,), sign, (1,), 10),
        ProjectionCase("plane-hyperplane", plane.pres,
                       PresentedModule.cyclic(bring, [u0]), (0,), skew, (0,), 10),
    )


# -- split supercommutative support corpus --------------------------------------------------


@dataclass(frozen=True)
class SuperFamily:
    """A site space together with a support datum of perfect complexes."""

    name: str
    algebra: SuperAlgebra
    space: SiteSpace
    datum: SupportDatum
    complexes: dict  # object id -> SuperComplex


class _DatumRegistry:
    """Accumulates objects and operation witnesses in registration order."""

    def __init__(self, algebra: SuperAlgebra, space: SiteSpace):
        self.algebra = algebra
        self.space = space
        self.complexes: dict = {}
        self.profiles: list = []
        self.tensors: list = []
        self.triangles: list = []
        self.sums: list = []
        self.shifts: list = []
        self.twisted: list = []

    def add(self, cid: str, cx: SuperComplex) -> str:
        if cid in self.complexes:
            raise ValidationError(f"duplicate corpus id {cid!r}")
        self.complexes[cid] = cx
        self.profiles.append(SupportProfile(cid, supph_sites(cx, self.space)))
        return cid

    def add_sum(self, cid: str, a: str, b: str) -> str:
        self.add(cid, direct_sum_supercomplex(self.complexes[a], self.complexes[b]))
        self.sums.append((a, b, cid))
        return cid

    def add_shift(self, cid: str, a: str, k: int) -> str:
        self.add(cid, shift_supercomplex(self.complexes[a], k))
        self.shifts.append((a, cid))
        return cid

    def add_tensor(self, cid: str, a: str, b: str) -> str:
        self.add(cid, tensor_supercomplexes(self.complexes[a], self.complexes[b]))
        self.tensors.append((a, b, cid))
        return cid

    def add_cone(self, cid: str, src: str, tgt: str, chain_maps) -> str:
        self.add(cid, cone_supercomplex(self.complexes[src], self.complexes[tgt],
                                        chain_maps))
        self.triangles.append((src, tgt, cid))
        return cid

    def finish(self, unit: str, zero: str) -> SupportDatum:
        return SupportDatum(
            self.space, unit, zero, tuple(self.profiles),
            tensors=tuple(self.tensors), triangles=tuple(self.triangles),
            sums=tuple(self.sums), shifts=tuple(self.shifts),
            twisted_units=tuple(self.twisted),
        )


def _scalar_cone(alg: SuperAlgebra, f: Poly, g: Poly) -> tuple:
    """The Koszul complex of f, its scalar endomorphism g, and the maps."""
    base = koszul_complex_super(alg, [f])
    maps = tuple(scalar_matrix(shape, g) for shape in base.shapes)
    return base, maps


def _super_family_line(seed: int, count: int) -> SuperFamily:
    ring = PolyRing(QQ, ("x",))
    alg = SuperAlgebra(ring, 1)
    x = ring.var("x")
    forms = (("origin", x), ("one", x - 1), ("minus", x + 1), ("two", x - 2))
    sites = tuple(PrimeSite(lbl, ring, (f,)) for lbl, f in forms)
    space = SiteSpace(ring, sites + (PrimeSite("generic", ring, ()),))
    reg = _DatumRegistry(alg, space)

    reg.add("zero", SuperComplex(alg, 0, ((0, 0),), ()))
    reg.add("unit", koszul_complex_super(alg, []))
    reg.add("unit[flip]", SuperComplex(alg, 0, ((0, 1),), ()))
    reg.twisted.append("unit[flip]")

    # a realizer for every nonempty set of closed points, smallest sets first
    labels = [lbl for lbl, _ in forms]
    by_label = dict(forms)
    for size in range(1, len(labels) + 1):
        for subset in _subsets_of_size(labels, size):
            f = ring.one()
            for lbl in subset:
                f = f * by_label[lbl]
            reg.add("K[" + "+".join(subset) + "]", koszul_complex_super(alg, [f]))

    pool = (x, x - 1, x + 1, x - 2, x * (x - 1), (x + 1) * (x - 2),
            x * x, (x - 1) * (x - 1), x * (x + 1))
    rng = random.Random(f"superline:{seed}")
    _random_objects(reg, alg, pool, rng, count, free_pool=(x, x - 1, x + 1))

    reg.add_tensor("t[origin+one|one+minus]", "K[origin+one]", "K[one+minus]")
    reg.add_tensor("t[origin|one]", "K[origin]", "K[one]")
    reg.add_tensor("t[unit|origin]", "unit", "K[origin]")
    _, maps = _scalar_cone(alg, x, x - 1)
    reg.add_cone("c[origin;one]", "K[origin]", "K[origin]", maps)

    return SuperFamily("superline", alg, space, reg.finish("unit", "zero"), reg.complexes)


def _subsets_of_size(labels, size):
    from itertools import combinations

    return [list(c) for c in combinations(labels, size)]


def _random_objects(reg: _DatumRegistry, alg: SuperAlgebra, pool, rng, count,
                    free_pool) -> None:
    """Seeded random perfect complexes; every id records how it was made.

    Sums, shifts, and cones draw their inputs from the two-term objects
    made so far, which keeps the cohomology computations desk sized.
    """
    small = []
    for i in range(count):
        kind = rng.choice(("koszul", "koszul", "sum", "shift", "cone", "freemap"))
        if not small and kind in ("sum", "shift"):
            kind = "koszul"
        cid = f"rnd{i}[{kind}]"
        if kind == "koszul":
            f = rng.choice(pool)
            if rng.random() < 0.3:
                f = f * rng.choice(pool)
            reg.add(cid, koszul_complex_super(alg, [f]))
            small.append(cid)
        elif kind == "sum":
            reg.add_sum(cid, rng.choice(small), rng.choice(small))
        elif kind == "shift":
            reg.add_shift(cid, rng.choice(small), rng.choice((-1, 1, 2)))
        elif kind == "cone":
            f = rng.choice(pool)
            g = rng.choice(pool)
            _, maps = _scalar_cone(alg, f, g)
            src_id = f"rnd{i}[src]"
            reg.add(src_id, koszul_complex_super(alg, [f]))
            small.append(src_id)
            reg.add_cone(cid, src_id, src_id, maps)
        else:
            reg.add(cid, _random_free_complex(alg, rng, free_pool))
            small.append(cid)


def _random_free_complex(alg: SuperAlgebra, rng, free_pool) -> SuperComplex:
    """A random differential between small free modules; d^2 is vacuous."""
    ring = alg.base
    src_shape = rng.choice(((1, 0), (1, 1)))
    tgt_shape = rng.choice(((1, 0), (1, 1)))
    entries = {}
    for w in range(sum(tgt_shape)):
        for u in range(sum(src_shape)):
            if rng.random() < 0.4:
                continue
            want = ((0 if u < src_shape[0] else 1)
                    + (0 if w < tgt_shape[0] else 1)) % 2
            coeff = ring.from_int(rng.choice((1, 2, -1))) * rng.choice(free_pool)
            word = () if want == 0 else (0,)
            entries[(w, u)] = ((word, coeff),)
    return SuperComplex(alg, 0, (src_shape, tgt_shape), (entries,))


def _super_family_plane(seed: int, count: int) -> SuperFamily:
    ring = PolyRing(QQ, ("x", "y"))
    alg = SuperAlgebra(ring, 2)
    x, y = ring.var("x"), ring.var("y")
    space = SiteSpace(ring, (
        PrimeSite("xline", ring, (x,)),
        PrimeSite("yline", ring, (y,)),
        PrimeSite("origin", ring, (x, y)),
        PrimeSite("point", ring, (x - 1, y - 1)),
        PrimeSite("generic", ring, ()),
    ))
    reg = _DatumRegistry(alg, space)

    reg.add("zero", SuperComplex(alg, 0, ((0, 0),), ()))
    reg.add("unit", koszul_complex_super(alg, []))
    reg.add("unit[flip]", SuperComplex(alg, 0, ((0, 1),), ()))
    reg.twisted.append("unit[flip]")

    reg.add("K[x]", koszul_complex_super(alg, [x]))
    reg.add("K[y]", koszul_complex_super(alg, [y]))
    reg.add("K[xy]", koszul_complex_super(alg, [x * y]))
    reg.add("K[x-1]", koszul_complex_super(alg, [x - 1]))
    reg.add("K[origin]", koszul_complex_super(alg, [x, y]))
    reg.add("K[point]", koszul_complex_super(alg, [x - 1, y - 1]))
    # two-generator ideals and direct sums fill in the remaining
    # specialization closed subsets; sums keep one summand two-term
    reg.add("K[origin+point]", koszul_complex_super(alg, [x - y, x * x - x]))
    reg.add_sum("K[x]+K[point]", "K[x]", "K[point]")
    reg.add_sum("K[y]+K[point]", "K[y]", "K[point]")
    reg.add_sum("K[xy]+K[point]", "K[xy]", "K[point]")

    pool = (x, y, x - 1, y - 1, x - y, x + y - 2, x * y, x * (x - 1), y * (y - 1))
    rng = random.Random(f"superplane:{seed}")
    _random_objects(reg, alg, pool, rng, count, free_pool=(x, y, x - y))

    reg.add_tensor("t[x|y]", "K[x]", "K[y]")
    reg.add_tensor("t[xy|x-1]", "K[xy]", "K[x-1]")
    reg.add_tensor("t[unit|x]", "unit", "K[x]")

    return SuperFamily("superplane", alg, space, reg.finish("unit", "zero"),
                       reg.complexes)


def super_support_corpus(seed: int, count: int = 25) -> tuple:
    """Two support data over one and two odd generators, seeded and perfect."""
    return (_super_family_line(seed, count), _super_family_plane(seed, count))


def superline_spectrum_model() -> SuperFamily:
    """The odd line over k[x]: full realizer set on the three point sites."""
    ring = PolyRing(QQ, ("x",))
    alg = SuperAlgebra(ring, 1)
    x = ring.var("x")
    space = SiteSpace(ring, (
        PrimeSite("origin", ring, (x,)),
        PrimeSite("one", ring, (x - 1,)),
        PrimeSite("minus", ring, (x + 1,)),
        PrimeSite("generic", ring, ()),
    ))
    reg = _DatumRegistry(alg, space)
    reg.add("zero", SuperComplex(alg, 0, ((0, 0),), ()))
    reg.add("unit", koszul_complex_super(alg, []))
    reg.add("unit[flip]", SuperComplex(alg, 0, ((0, 1),), ()))
    reg.twisted.append("unit[flip]")
    reg.add("K[origin]", koszul_complex_super(alg, [x]))
    reg.add("K[one]", koszul_complex_super(alg, [x - 1]))
    reg.add("K[minus]", koszul_complex_super(alg, [x + 1]))
    reg.add("K[origin+one]", koszul_complex_super(alg, [x * (x - 1)]))
    reg.add("K[origin+minus]", koszul_complex_super(alg, [x * (x + 1)]))
    reg.add("K[one+minus]", koszul_complex_super(alg, [(x - 1) * (x + 1)]))
    reg.add("K[all]", koszul_complex_super(alg, [x ** 3 - x]))

    reg.add_tensor("t[origin|one]", "K[origin]", "K[one]")
    reg.add_tensor("t[origin+one|origin+minus]", "K[origin+one]", "K[origin+minus]")
    reg.add_tensor("t[unit|origin]", "unit", "K[origin]")
    reg.add_tensor("t[all|one]", "K[all]", "K[one]")
    reg.add_sum("K[origin]+K[one]", "K[origin]", "K[one]")
    reg.add_shift("K[origin][1]", "K[origin]", 1)
    _, maps = _scalar_cone(alg, x, x - 1)
    reg.add_cone("c[origin;one]", "K[origin]", "K[origin]", maps)

    return SuperFamily("oddline", alg, space, reg.finish("unit", "zero"),
                       reg.complexes)


# -- descent models: equivariant upstairs, quotient downstairs -------------------------------


@dataclass(frozen=True)
class DescentModel:
    """Support data on both sides of a quotient, with towers and pullbacks.

    towers maps an upstairs id to the downstairs ids of its tower pieces;
    pullbacks maps a downstairs id to the upstairs id of its pullback.
    """

    name: str
    act: RingAction
    pres: InvariantRingPresentation
    space_x: SiteSpace
    space_y: SiteSpace
    datum_x: SupportDatum
    datum_y: SupportDatum
    pullbacks: dict
    towers: dict
    expected_site_map: dict
    modules_x: dict
    modules_y: dict


def _profile(space: SiteSpace, mod: PresentedModule) -> frozenset:
    return frozenset(space.sites_in_closed(module_support(mod)))


def _descent_model(name, act, components, table, x_sites, y_sites,
                   x_objects, y_objects, pullback_pairs, expected_site_map):
    """Assemble a descent model by actually running the towers."""
    pres = invariant_generators(act)
    space_x = SiteSpace(act.ring, x_sites)
    space_y = SiteSpace(pres.ring, y_sites)

    modules_x = dict(x_objects)
    modules_y = dict(y_objects)
    pullbacks = {}
    for down_id, up_id in pullback_pairs:
        if up_id is None:
            up_id = f"pull[{down_id}]"
            modules_x[up_id] = pullback(modules_y[down_id], pres)
        pullbacks[down_id] = up_id

    towers = {}
    for xid in list(modules_x):
        em = modules_x[xid]
        result = tower(em, pres, components, table)
        piece_ids = []
        for stage in result.stages:
            for piece in stage.pieces:
                pid = f"{xid}.{piece.label}"
                modules_y[pid] = piece.invariants.module
                piece_ids.append(pid)
        towers[xid] = tuple(piece_ids)

    profiles_x = tuple(
        SupportProfile(xid, _profile(space_x, em.module))
        for xid, em in modules_x.items()
    )
    profiles_y = tuple(
        SupportProfile(yid, _profile(space_y, mod))
        for yid, mod in modules_y.items()
    )
    datum_x = SupportDatum(space_x, "unitX", "zeroX", profiles_x)
    datum_y = SupportDatum(space_y, "unitY", "zeroY", profiles_y)
    return DescentModel(name, act, pres, space_x, space_y, datum_x, datum_y,
                        pullbacks, towers, dict(expected_site_map),
                        modules_x, modules_y)


def c2_descent_model() -> DescentModel:
    """C2 on the line over the rationals; the quotient is again a line."""
    act = c2_line_action(QQ)
    ring = act.ring
    x = ring.var("x")
    pres = invariant_generators(act)
    u = pres.ring.var("u0")
    table = c2_character_table(QQ)

    whole = ClosedSet(ring, ())
    components = (("line", whole),
                  ("origin", ClosedSet(ring, (x,))),
                  ("orbit", ClosedSet(ring, (x * x - 1,))))
    x_sites = (PrimeSite("origin", ring, (x,)),
               PrimeSite("orbit", ring, (x * x - 1,)),
               PrimeSite("generic", ring, ()))
    y_sites = (PrimeSite("y0", pres.ring, (u,)),
               PrimeSite("y1", pres.ring, (u - 1,)),
               PrimeSite("ygen", pres.ring, ()))

    structure = ring_as_equivariant(act)
    sign = twist_by_character(structure, (QQ.one(), QQ.from_int(-1)))
    x_objects = (
        ("zeroX", cyclic_equivariant(act, [ring.one()])),
        ("unitX", structure),
        ("skyX", cyclic_equivariant(act, [x])),
        ("orbX", cyclic_equivariant(act, [x * x - 1])),
        ("bothX", cyclic_equivariant(act, [x ** 3 - x])),
        ("signX", sign),
    )
    y_objects = (
        ("zeroY", PresentedModule.cyclic(pres.ring, [pres.ring.one()])),
        ("unitY", PresentedModule.free(pres.ring, 1)),
        ("skyY", PresentedModule.cyclic(pres.ring, [u])),
        ("orbY", PresentedModule.cyclic(pres.ring, [u - 1])),
        ("bothY", PresentedModule.cyclic(pres.ring, [u * (u - 1)])),
    )
    pullback_pairs = (("zeroY", "zeroX"), ("unitY", "unitX"),
                      ("skyY", None), ("orbY", None), ("bothY", None))
    expected = {"origin": "y0", "orbit": "y1", "generic": "ygen"}
    return _descent_model("c2-line", act, components, table, x_sites, y_sites,
                          x_objects, y_objects, pullback_pairs, expected)


def c3_descent_model() -> DescentModel:
    """Free C3 on the punctured line over F_7; orbits of size three."""
    act = c3_line_action_f7()
    ring = act.ring
    f7 = ring.field
    x = ring.var("x")
    pres = invariant_generators(act)
    u = pres.ring.var("u0")
    table = c3_character_table(f7)

    whole = ClosedSet(ring, ())
    orb1 = x ** 3 - 1
    orb2 = x ** 3 + 1
    components = (("line", whole),
                  ("orb1", ClosedSet(ring, (orb1,))),
                  ("orb2", ClosedSet(ring, (orb2,))))
    x_sites = (PrimeSite("orb1", ring, (orb1,)),
               PrimeSite("orb2", ring, (orb2,)),
               PrimeSite("generic", ring, ()))
    y_sites = (PrimeSite("v1", pres.ring, (u - 1,)),
               PrimeSite("v2", pres.ring, (u + 1,)),
               PrimeSite("ygen", pres.ring, ()))

    x_objects = (
        ("zeroX", cyclic_equivariant(act, [ring.one()])),
        ("unitX", ring_as_equivariant(act)),
        ("m1X", cyclic_equivariant(act, [orb1])),
        ("m2X", cyclic_equivariant(act, [orb2])),
        ("bothX", cyclic_equivariant(act, [x ** 6 - 1])),
    )
    y_objects = (
        ("zeroY", PresentedModule.cyclic(pres.ring, [pres.ring.one()])),
        ("unitY", PresentedModule.free(pres.ring, 1)),
        ("n1Y", PresentedModule.cyclic(pres.ring, [u - 1])),
        ("n2Y", PresentedModule.cyclic(pres.ring, [u + 1])),
        ("bothY", PresentedModule.cyclic(pres.ring, [u * u - 1])),
    )
    pullback_pairs = (("zeroY", "zeroX"), ("unitY", "unitX"),
                      ("n1Y", None), ("n2Y", None), ("bothY", None))
    expected = {"orb1": "v1", "orb2": "v2", "generic": "ygen"}
    return _descent_model("c3-f7", act, components, table, x_sites, y_sites,
                          x_objects, y_objects, pullback_pairs, expected)
