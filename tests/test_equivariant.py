"""Group actions, invariants, isotypic pieces, reduction, and the tower.

Dimension oracles here are independent of the library paths under test:
fixed-space dimensions come from stacking substitution matrices on the
monomial basis, never from the Reynolds/greedy machinery being checked.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit import corpus, equivariant, geometry, polymod, polyring, verify
from ttkit.errors import (
    DomainMismatchError,
    PreconditionError,
    TruncationError,
    ValidationError,
)
from ttkit.fields import GF, QQ, Matrix, kernel_basis
from ttkit.geometry import ClosedSet, closed_equal
from ttkit.grouprep import (
    CharacterTable,
    c2_character_table,
    c3_character_table,
    cyclic_group,
    regular_representation,
    s3_character_table,
    s3_group,
)
from ttkit.polymod import (
    ModuleMap,
    PresentedComplex,
    PresentedModule,
    annihilator,
    graded_dim,
    monomials_of_degree,
    unit_vector,
    vec_sub,
)
from ttkit.polyring import PolyRing, radical_equal
from ttkit.equivariant import (
    EquivariantComplex,
    EquivariantModule,
    RingAction,
    check_projection_formula,
    complex_to_module,
    cyclic_equivariant,
    direct_sum_equivariant,
    equivariant_cohomology,
    fixed_locus,
    identity_rho,
    invariant_generators,
    invariant_space_basis,
    invariants_module,
    isotypic_decompose_module,
    module_support,
    molien_dimensions,
    pointwise_stabilizer,
    pullback,
    restrict_to_trivial_group,
    ring_as_equivariant,
    support_reduction,
    tower,
    trivial_action,
    twist_by_character,
)


# -- fixtures and oracles ---------------------------------------------------------


def line_action():
    """C2 on k[x] by x -> -x."""
    ring = PolyRing(QQ, ("x",))
    grp = cyclic_group(2)
    act = RingAction(grp, ring, (Matrix.identity(QQ, 1),
                                 Matrix(QQ, 1, 1, (QQ.from_int(-1),))))
    act.validate()
    return act


def swap_action():
    """S2 on k[x, y] by exchanging the variables."""
    ring = PolyRing(QQ, ("x", "y"))
    grp = cyclic_group(2)
    swap = Matrix.from_rows(QQ, [[QQ.zero(), QQ.one()], [QQ.one(), QQ.zero()]])
    act = RingAction(grp, ring, (Matrix.identity(QQ, 2), swap))
    act.validate()
    return act


def scaled_line_action():
    """C3 on F_7[x] by x -> 2x; 2 is a primitive cube root of 1 mod 7."""
    f7 = GF(7)
    ring = PolyRing(f7, ("x",))
    grp = cyclic_group(3)
    mats = (Matrix.identity(f7, 1),
            Matrix(f7, 1, 1, (f7.from_int(2),)),
            Matrix(f7, 1, 1, (f7.from_int(4),)))
    act = RingAction(grp, ring, mats)
    act.validate()
    return act


def equivariant_from_matrices(act, mod, mats):
    """Constant action matrices on generators (a representation twist)."""
    rho = tuple(
        tuple(tuple(act.ring.const(m.at(i, j)) for i in range(mod.rank))
              for j in range(mod.rank))
        for m in mats
    )
    em = EquivariantModule(act, mod, rho)
    em.validate()
    return em


def fixed_dim_oracle(act, d):
    """dim of degree-d invariant polynomials by stacked substitution matrices."""
    ring, fld = act.ring, act.ring.field
    monos = monomials_of_degree(ring, d)
    if not monos:
        return 0
    index = {m: i for i, m in enumerate(monos)}
    blocks = []
    for a in range(act.group.order):
        if a == act.group.identity:
            continue
        rows = [[fld.zero()] * len(monos) for _ in monos]
        for j, m in enumerate(monos):
            img = act.apply(a, ring.monomial(m))
            for mono, c in img.terms:
                rows[index[mono]][j] = fld.add(rows[index[mono]][j], c)
        for j in range(len(monos)):
            rows[j][j] = fld.sub(rows[j][j], fld.one())
        blocks.extend(rows)
    if not blocks:
        return len(monos)
    return kernel_basis(Matrix.from_rows(fld, blocks)).cols


def algebra_slice_dim(gens, ring, d):
    """dim of the degree-d span of all products of the given polynomials."""
    from ttkit.fields import rank as matrix_rank

    degs = [g.total_degree() for g in gens]
    products = []

    def rec(i, left, acc):
        if i == len(gens):
            if left == 0:
                products.append(acc)
            return
        power = acc
        e = 0
        while e * degs[i] <= left:
            rec(i + 1, left - e * degs[i], power)
            e += 1
            power = power * gens[i]

    rec(0, d, ring.one())
    monos = monomials_of_degree(ring, d)
    index = {m: i for i, m in enumerate(monos)}
    fld = ring.field
    rows = []
    for p in products:
        row = [fld.zero()] * len(monos)
        for mono, c in p.terms:
            row[index[mono]] = c
        rows.append(row)
    if not rows:
        return 0
    return matrix_rank(Matrix.from_rows(fld, rows))


# -- ring actions -----------------------------------------------------------------


def test_action_validation_catches_broken_homomorphism():
    ring = PolyRing(QQ, ("x",))
    grp = cyclic_group(2)
    bad = RingAction(grp, ring, (Matrix.identity(QQ, 1),
                                 Matrix(QQ, 1, 1, (QQ.from_int(2),))))
    with pytest.raises(ValidationError):
        bad.validate()
    # S3 on the plane with only the matrix of (13) wrong: every product of
    # two generators is still right, and the check must look further
    table = s3_character_table(QQ)
    g = table.group
    k = g.index("(13)")
    assert k not in g.generators
    mats = list(table.forms_for("std"))
    mats[k] = mats[k].scale(QQ.from_int(-1))
    for s in g.generators:
        for t in g.generators:
            assert mats[s].mul(mats[t]).equals(mats[g.table[s][t]])
    bad = RingAction(g, PolyRing(QQ, ("x", "y")), tuple(mats))
    with pytest.raises(ValidationError):
        bad.validate()


def test_action_refuses_modular_characteristic():
    f2 = GF(2)
    ring = PolyRing(f2, ("x",))
    grp = cyclic_group(2)
    act = RingAction(grp, ring, (Matrix.identity(f2, 1), Matrix.identity(f2, 1)))
    with pytest.raises(DomainMismatchError):
        act.validate()


def test_apply_is_a_substitution():
    act = swap_action()
    ring = act.ring
    x, y = ring.var("x"), ring.var("y")
    assert act.apply(1, x**2 * y + x) == y**2 * x + y
    assert act.apply(0, x**2 * y + x) == x**2 * y + x


def test_fixed_locus_of_the_swap_is_the_diagonal():
    act = swap_action()
    x, y = act.ring.var("x"), act.ring.var("y")
    fl = fixed_locus(act, 1)
    assert closed_equal(fl, ClosedSet(act.ring, (x - y,)))


def test_pointwise_stabilizer_on_the_plane():
    act = swap_action()
    x, y = act.ring.var("x"), act.ring.var("y")
    assert pointwise_stabilizer(act, ClosedSet(act.ring, (x - y,))) == (0, 1)
    assert pointwise_stabilizer(act, ClosedSet(act.ring, ())) == (0,)
    # a point on the diagonal is fixed by everything
    pt = ClosedSet(act.ring, (x - act.ring.one(), y - act.ring.one()))
    assert pointwise_stabilizer(act, pt) == (0, 1)


# -- Molien series and invariant generators ----------------------------------------


def test_molien_matches_fixed_space_oracle_on_the_line():
    act = line_action()
    series = molien_dimensions(act, 6)
    assert series == [QQ.from_int(v) for v in (1, 0, 1, 0, 1, 0, 1)]
    for d in range(7):
        assert series[d] == QQ.from_int(fixed_dim_oracle(act, d))


def test_molien_matches_fixed_space_oracle_on_the_plane():
    act = swap_action()
    series = molien_dimensions(act, 6)
    assert series == [QQ.from_int(v) for v in (1, 1, 2, 2, 3, 3, 4)]
    for d in range(7):
        assert series[d] == QQ.from_int(fixed_dim_oracle(act, d))


def test_molien_mod_p_still_counts_small_dimensions():
    act = scaled_line_action()
    f7 = act.ring.field
    series = molien_dimensions(act, 6)
    assert series == [f7.from_int(v) for v in (1, 0, 0, 1, 0, 0, 1)]


def test_invariant_space_basis_is_canonical_and_fixed():
    act = swap_action()
    basis = invariant_space_basis(act, 2)
    assert len(basis) == 2
    for p in basis:
        assert act.apply(1, p) == p


def test_line_invariants_are_generated_by_the_square():
    pres = invariant_generators(line_action())
    x = pres.action.ring.var("x")
    assert pres.generators == (x**2,)
    assert pres.relations == ()
    assert pres.ring.variables == ("u0",)


def test_swap_invariants_span_the_symmetric_functions():
    # the greedy search may pick power sums instead of e2; compare spans
    pres = invariant_generators(swap_action())
    ring = pres.action.ring
    x, y = ring.var("x"), ring.var("y")
    assert len(pres.generators) == 2
    assert pres.relations == ()
    for d in range(7):
        assert algebra_slice_dim(pres.generators, ring, d) == \
            algebra_slice_dim([x + y, x * y], ring, d)


def test_scaled_line_invariants_are_the_cube():
    pres = invariant_generators(scaled_line_action())
    x = pres.action.ring.var("x")
    assert pres.generators == (x**3,)
    assert pres.relations == ()


def test_presentation_substitution_round_trip():
    pres = invariant_generators(swap_action())
    u0, u1 = pres.ring.var("u0"), pres.ring.var("u1")
    img = pres.to_ambient(u0 * u1 + pres.ring.from_int(3))
    assert pres.action.apply(1, img) == img


def fresh_images(act, a):
    """g(x_j) = sum_i M[i, j] x_i, built from the matrix entries."""
    ring, m = act.ring, act.matrices[a]
    units = [tuple(int(i == k) for k in range(ring.nvars)) for i in range(ring.nvars)]
    return [ring.from_terms((units[i], m.at(i, j)) for i in range(ring.nvars)
                            if not ring.field.is_zero(m.at(i, j)))
            for j in range(ring.nvars)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kept_images_match_freshly_built_ones(data):
    make = data.draw(st.sampled_from([line_action, swap_action, scaled_line_action,
                                      s3_plane_action, corpus.c3_plane_action_f7]))
    act = make()
    ring = act.ring
    for a in range(act.group.order):
        assert list(act.variable_images(a)) == fresh_images(act, a)
    a = data.draw(st.integers(0, act.group.order - 1), label="element")
    mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * ring.nvars)
    terms = data.draw(st.lists(st.tuples(mono, st.integers(min_value=-3, max_value=3)),
                               max_size=4), label="terms")
    p = ring.from_terms((m, ring.field.from_int(c)) for m, c in terms)
    assert act.apply(a, p) == p.substitute(fresh_images(act, a))


def test_kept_images_and_validation_leave_equality_hash_and_repr_alone():
    used, fresh = s3_plane_action(), s3_plane_action()
    x = used.ring.var("x")
    used.apply(1, x)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    checked = ring_as_equivariant(used)
    unchecked = EquivariantModule(fresh, checked.module, checked.rho)
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert repr(checked) == repr(unchecked)


def test_element_indices_outside_the_group_are_refused():
    """The C2 line: -1 acted by the last element and 2 raised a bare
    IndexError; the kept image table must not wrap around either."""
    act = corpus.c2_line_action()
    x = act.ring.var("x")
    assert act.apply(1, x) == -x  # the images are kept from here on
    em = ring_as_equivariant(act)
    for a in (-1, 2, -3):
        with pytest.raises(ValidationError, match=f"index {a} "):
            act.apply(a, x)
        with pytest.raises(ValidationError, match=f"index {a} "):
            act.variable_images(a)
        with pytest.raises(ValidationError, match=f"index {a} "):
            em.apply(a, (x,))
        with pytest.raises(ValidationError, match=f"index {a} "):
            em.apply(a, (act.ring.zero(),))


# -- equivariant module validation --------------------------------------------------


def test_cocycle_violation_is_caught():
    act = line_action()
    free = PresentedModule.free(act.ring, 1)
    two = ((act.ring.from_int(2),),)
    bad = EquivariantModule(act, free, (identity_rho(act, 1)[0], two))
    with pytest.raises(ValidationError):
        bad.validate()


def test_validation_runs_once_and_a_failure_raises_every_time(monkeypatch):
    act = line_action()
    x = act.ring.var("x")
    mod = PresentedModule(act.ring, 2, ((x**2, act.ring.zero()),))
    good = EquivariantModule(act, mod, identity_rho(act, 2))
    rho = identity_rho(act, 2)
    two = act.ring.from_int(2)
    bad = EquivariantModule(act, mod, (rho[0], (rho[1][0], (act.ring.zero(), two))))
    decided = []
    contains = PresentedModule.contains_in_relations
    monkeypatch.setattr(PresentedModule, "contains_in_relations",
                        lambda m, v: decided.append(v) or contains(m, v))
    good.validate()
    first = len(decided)
    good.validate()
    assert first > 0 and len(decided) == first
    messages = []
    for _ in range(2):
        with pytest.raises(ValidationError) as err:
            bad.validate()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("cocycle fails at") and messages[0].endswith("generator 1")


def s3_plane_action():
    """S3 on k[x, y] through its standard representation."""
    table = s3_character_table(QQ)
    act = RingAction(table.group, PolyRing(QQ, ("x", "y")), table.forms_for("std"))
    act.validate()
    return act


def cocycle_oracle_accepts(em):
    """Identity, relations and the cocycle condition, checked on every element
    and every pair of elements."""
    g, mod = em.action.group, em.module
    for a in range(g.order):
        for rel in mod.relations:
            if not mod.contains_in_relations(em.apply(a, rel)):
                return False
        for b in range(g.order):
            for j in range(mod.rank):
                diff = vec_sub(em.apply(a, em.rho[b][j]), em.rho[g.table[a][b]][j])
                if not mod.contains_in_relations(diff):
                    return False
    return all(mod.contains_in_relations(
        vec_sub(em.rho[g.identity][j], unit_vector(mod.ring, mod.rank, j)))
        for j in range(mod.rank))


def valid_equivariant_modules():
    line, plane, f7 = line_action(), s3_plane_action(), scaled_line_action()
    x = line.ring.var("x")
    two_copies = PresentedModule(line.ring, 2, ((x**2, line.ring.zero()),))
    swap = regular_representation(line.group, QQ).matrices
    return (
        equivariant_from_matrices(line, PresentedModule.free(line.ring, 2), swap),
        EquivariantModule(line, PresentedModule.cyclic(line.ring, [x]), identity_rho(line, 1)),
        EquivariantModule(line, two_copies, identity_rho(line, 2)),
        equivariant_from_matrices(plane, PresentedModule.free(plane.ring, 2), plane.matrices),
        ring_as_equivariant(plane),
        cyclic_equivariant(f7, [f7.ring.var("x") ** 3 - f7.ring.one()]),
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_module_validation_matches_the_all_pairs_cocycle_oracle(data):
    em = data.draw(st.sampled_from(valid_equivariant_modules()), label="module")
    ring, rank = em.module.ring, em.module.rank
    a = data.draw(st.integers(0, em.action.group.order - 1), label="element")
    j = data.draw(st.integers(0, rank - 1), label="column")
    i = data.draw(st.integers(0, rank - 1), label="row")
    x = ring.var(ring.variables[0])
    bump = data.draw(st.sampled_from([ring.zero(), ring.one(), -ring.one(), x, x**2]))
    rho = [list(list(col) for col in cols) for cols in em.rho]
    rho[a][j][i] = rho[a][j][i] + bump
    bad = EquivariantModule(em.action, em.module,
                            tuple(tuple(tuple(col) for col in cols) for cols in rho))
    if cocycle_oracle_accepts(bad):
        bad.validate()
    else:
        with pytest.raises(ValidationError):
            bad.validate()


def test_unstable_ideal_is_rejected():
    act = line_action()
    x = act.ring.var("x")
    with pytest.raises(ValidationError):
        cyclic_equivariant(act, [x - act.ring.one()])


def test_stable_ideal_produces_a_valid_module():
    act = scaled_line_action()
    x = act.ring.var("x")
    em = cyclic_equivariant(act, [x**3 - act.ring.one()])
    em.validate()
    # every group element moves the annihilator to an ideal with the same radical
    ann = annihilator(em.module)
    for a in range(act.group.order):
        assert radical_equal([act.apply(a, f) for f in ann], ann)


def test_character_twist_keeps_the_cocycle():
    act = line_action()
    em = twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(-1)))
    em.validate()
    with pytest.raises(ValidationError):
        twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(2)))


def test_direct_sum_acts_blockwise():
    act = line_action()
    a = ring_as_equivariant(act)
    b = twist_by_character(a, (QQ.one(), QQ.from_int(-1)))
    s = direct_sum_equivariant(a, b)
    x = act.ring.var("x")
    img = s.apply(1, (x, x))
    assert img == (-x, x)


# -- pullback ----------------------------------------------------------------------


def test_pullback_substitutes_the_generators():
    pres = invariant_generators(line_action())
    yring = pres.ring
    n = PresentedModule.cyclic(yring, [yring.var("u0") - yring.one()])
    up = pullback(n, pres)
    x = pres.action.ring.var("x")
    assert up.module.rank == 1
    assert up.module.relations == ((x**2 - pres.action.ring.one(),),)


def test_pullback_of_free_stays_free():
    pres = invariant_generators(swap_action())
    up = pullback(PresentedModule.free(pres.ring, 2), pres)
    assert up.module.relations == ()
    assert up.module.rank == 2


# -- invariants of modules -----------------------------------------------------------


def test_invariants_of_the_ring_are_free_of_rank_one():
    act = line_action()
    pres = invariant_generators(act)
    inv = invariants_module(ring_as_equivariant(act), pres, shifts=(0,))
    assert inv.module.rank == 1
    assert inv.module.relations == ()
    assert inv.degrees == (0,)
    assert inv.lifts == ((act.ring.one(),),)


def test_invariants_of_ring_plus_skyscraper():
    # frozen: k[u] (+) k[u]/(u) with the lone relation found in degree 2
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    m = direct_sum_equivariant(ring_as_equivariant(act),
                               cyclic_equivariant(act, [x]))
    inv = invariants_module(m, pres, shifts=(0, 0))
    u0 = pres.ring.var("u0")
    assert inv.module.rank == 2
    assert inv.module.relations == ((pres.ring.zero(), u0),)
    assert inv.degrees == (0, 0)
    assert inv.lifts == ((act.ring.one(), act.ring.zero()),
                         (act.ring.zero(), act.ring.one()))


def test_sign_twisted_line_invariants_sit_in_odd_degrees():
    act = line_action()
    pres = invariant_generators(act)
    em = twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(-1)))
    inv = invariants_module(em, pres, shifts=(0,))
    x = act.ring.var("x")
    assert inv.module.rank == 1
    assert inv.module.relations == ()
    assert inv.degrees == (1,)
    assert inv.lifts == ((x,),)
    # graded dims downstairs: one invariant in each odd degree
    for d in range(7):
        want = 1 if d % 2 == 1 else 0
        assert graded_dim(inv.module, list(inv.degrees), d, var_weights=[2]) == want


def test_skew_plane_invariants_are_the_alternating_polynomials():
    act = swap_action()
    pres = invariant_generators(act)
    em = twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(-1)))
    inv = invariants_module(em, pres, shifts=(0,))
    assert inv.module.rank == 1
    assert inv.module.relations == ()
    assert inv.degrees == (1,)
    lift = inv.lifts[0][0]
    assert act.apply(1, lift) == -lift  # a nonzero multiple of x - y


def test_finite_length_orbit_invariants():
    # frozen: the free orbit {1, 2, 4} in F_7 descends to k[u]/(u - 1)
    act = scaled_line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    em = cyclic_equivariant(act, [x**3 - act.ring.one()])
    inv = invariants_module(em, pres)
    u0 = pres.ring.var("u0")
    assert inv.module.rank == 1
    assert inv.module.relations == ((u0 - pres.ring.one(),),)
    assert inv.degrees == (None,)


def test_restriction_of_scalars_of_the_line():
    # k[x] over k[x^2] is free on 1 and x
    act = line_action()
    pres = invariant_generators(act)
    push = invariants_module(restrict_to_trivial_group(ring_as_equivariant(act)), pres)
    assert push.module.rank == 2
    assert push.module.relations == ()
    assert sorted(push.degrees) == [0, 1]


@pytest.mark.parametrize("rels, want", [
    ([("x^2",)], [("u0^2",)]),
    # neither graded nor of finite length: only the shortcut answers, and
    # without it this raises TruncationError
    ([("x - 1", "0")], [("u0 - 1", "0")]),
], ids=["cyclic-x2", "rank2-x-1"])
def test_trivial_group_shortcut_renames_variables(rels, want):
    ring = PolyRing(QQ, ("x",))
    act = trivial_action(ring)
    pres = invariant_generators(act)
    assert pres.generators == (ring.var("x"),)
    rank = len(want[0])
    mod = PresentedModule(ring, rank, tuple(tuple(map(ring.parse_poly, r)) for r in rels))
    inv = invariants_module(EquivariantModule(act, mod, identity_rho(act, rank)), pres,
                            shifts=(0,) * rank)
    assert inv.module.relations == tuple(tuple(map(pres.ring.parse_poly, r)) for r in want)
    assert inv.lifts == tuple(unit_vector(ring, rank, j) for j in range(rank))
    assert inv.degrees == (0,) * rank


def test_ungraded_infinite_module_raises_truncation():
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    # relation x^2 - 1 is inhomogeneous and the staircase misses nothing
    em = cyclic_equivariant(act, [x**2 - act.ring.one()])
    mod = PresentedModule(act.ring, 2,
                          ((x**2 - act.ring.one(), act.ring.zero()),))
    bad = EquivariantModule(act, mod, identity_rho(act, 2))
    with pytest.raises(TruncationError):
        invariants_module(bad, pres, shifts=(0, 0))


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=1, max_value=4), odd=st.booleans())
def test_truncated_line_invariant_dims_match_parity_count(k, odd):
    # A/(x^k) with an optional sign twist; invariants keep one parity class
    act = line_action()
    pres = invariant_generators(act)
    eps = QQ.from_int(-1) if odd else QQ.one()
    em = twist_by_character(cyclic_equivariant(act, [act.ring.var("x") ** k]),
                            (QQ.one(), eps))
    inv = invariants_module(em, pres, shifts=(0,))
    for d in range(6):
        want = 1 if d < k and (d % 2 == 1) == odd else 0
        degs = [g if g is not None else 0 for g in inv.degrees]
        assert graded_dim(inv.module, degs, d, var_weights=[2]) == want


# -- isotypic decomposition -----------------------------------------------------------


def trivial_plane_action(group):
    ring = PolyRing(QQ, ("x",))
    mats = tuple(Matrix.identity(QQ, 1) for _ in range(group.order))
    act = RingAction(group, ring, mats)
    act.validate()
    return act


def test_regular_module_splits_with_known_ranks():
    grp = s3_group()
    act = trivial_plane_action(grp)
    reg = regular_representation(grp, QQ)
    em = equivariant_from_matrices(act, PresentedModule.free(act.ring, 6), reg.matrices)
    table = s3_character_table(QQ)
    pieces = isotypic_decompose_module(em, table)
    assert [(p.name, p.module.rank) for p in pieces] == \
        [("triv", 1), ("sign", 1), ("std", 2)]


def test_cyclic_regular_module_over_f7():
    f7 = GF(7)
    grp = cyclic_group(3)
    ring = PolyRing(f7, ("x",))
    act = RingAction(grp, ring, tuple(Matrix.identity(f7, 1) for _ in range(3)))
    act.validate()
    reg = regular_representation(grp, f7)
    em = equivariant_from_matrices(act, PresentedModule.free(ring, 3), reg.matrices)
    pieces = isotypic_decompose_module(em, c3_character_table(f7))
    assert sorted(p.module.rank for p in pieces) == [1, 1, 1]


def test_sign_module_has_no_trivial_piece():
    act = trivial_plane_action(cyclic_group(2))
    em = twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(-1)))
    pieces = isotypic_decompose_module(em, c2_character_table(QQ))
    by_name = {p.name: p.module.rank for p in pieces}
    assert by_name == {"triv": 0, "sign": 1}


def test_twist_check_refuses_moving_variables():
    act = line_action()
    em = ring_as_equivariant(act)
    with pytest.raises(PreconditionError):
        isotypic_decompose_module(em, c2_character_table(QQ))


def test_relaxed_mode_needs_twists_to_die_in_relations():
    act = line_action()
    em = ring_as_equivariant(act)
    with pytest.raises(PreconditionError):
        isotypic_decompose_module(em, c2_character_table(QQ))
    x = act.ring.var("x")
    killed = cyclic_equivariant(act, [x])
    pieces = isotypic_decompose_module(killed, c2_character_table(QQ))
    by_name = {p.name: p.module.rank for p in pieces}
    assert by_name["triv"] == 1 and by_name["sign"] == 0


def ref_isotypic_pieces(em, table):
    """(name, module, lift columns) of each piece as cut out before the
    kernels read only the generators: a - 1 stacked over every non-identity
    element, and the whole tensor module when there is none."""
    ring, mod = em.module.ring, em.module
    out = []
    for name in table.names:
        dim = table.degrees[table.irrep_index(name)]
        big = polymod.module_tensor(PresentedModule.free(ring, dim), mod)
        units = [unit_vector(ring, big.rank, j) for j in range(big.rank)]
        group = em.action.group
        blocks = [[vec_sub(equivariant._semilinear_tensor_apply(em, table, name, a, e), e)
                   for e in units]
                  for a in range(group.order) if a != group.identity]
        if blocks:
            target = big
            for _ in blocks[1:]:
                target = polymod.direct_sum(target, big)
            cols = tuple(tuple(p for block in blocks for p in block[j]) for j in range(big.rank))
            piece, gens = polymod.map_kernel(ModuleMap(big, target, cols))
        else:
            piece, gens = big, units
        out.append((name, piece, tuple(gens)))
    return out


def isotypic_cases():
    s3 = s3_group()
    s3_act = trivial_plane_action(s3)
    yield "s3-regular-QQ", equivariant_from_matrices(
        s3_act, PresentedModule.free(s3_act.ring, 6), regular_representation(s3, QQ).matrices
    ), s3_character_table(QQ)
    f7, c3 = GF(7), cyclic_group(3)
    ring7 = PolyRing(f7, ("x",))
    c3_act = RingAction(c3, ring7, tuple(Matrix.identity(f7, 1) for _ in range(3)))
    c3_act.validate()
    yield "c3-regular-GF7", equivariant_from_matrices(
        c3_act, PresentedModule.free(ring7, 3), regular_representation(c3, f7).matrices
    ), c3_character_table(f7)
    line = line_action()
    yield "c2-relaxed-A/(x)", cyclic_equivariant(line, [line.ring.var("x")]), \
        c2_character_table(QQ)
    trivial = restrict_to_trivial_group(ring_as_equivariant(line))
    yield "trivial-group", trivial, CharacterTable(
        trivial.action.group, QQ, ("triv",), (1,), ((QQ.one(),),))


@pytest.mark.parametrize("case", list(isotypic_cases()), ids=lambda case: case[0])
def test_generator_kernels_give_the_all_element_pieces(case):
    """The group's generators fix what its elements fix, and each piece is
    the reduced basis of that one submodule's syzygies, so the pieces are
    equal to the all-element ones, not just isomorphic."""
    _, em, table = case
    pieces = isotypic_decompose_module(em, table)
    assert [(p.name, p.module, p.lift_columns) for p in pieces] == \
        ref_isotypic_pieces(em, table)


# -- cohomology of equivariant complexes ----------------------------------------------


def line_koszul_complex(power=2):
    """A --x^power--> A as an equivariant complex; the map is invariant."""
    act = line_action()
    ring = act.ring
    free = PresentedModule.free(ring, 1)
    d = ModuleMap(free, free, ((ring.var("x") ** power,),))
    cx = PresentedComplex(ring, 0, (free, free), (d,))
    rho = ring_as_equivariant(act).rho
    ec = EquivariantComplex(act, cx, (rho, rho))
    ec.validate()
    return ec


def test_equivariant_cohomology_of_the_koszul_line():
    ec = line_koszul_complex()
    x = ec.action.ring.var("x")
    h0 = equivariant_cohomology(ec, 0)
    h1 = equivariant_cohomology(ec, 1)
    assert h0.module.rank == 0
    assert h1.module.rank == 1
    assert h1.module.relations == ((x**2,),)
    total = complex_to_module(ec)
    assert total.module.relations == ((x**2,),)


def test_non_equivariant_differential_is_rejected():
    act = line_action()
    ring = act.ring
    free = PresentedModule.free(ring, 1)
    d = ModuleMap(free, free, ((ring.var("x"),),))  # x is anti-invariant
    cx = PresentedComplex(ring, 0, (free, free), (d,))
    rho = ring_as_equivariant(act).rho
    ec = EquivariantComplex(act, cx, (rho, rho))
    with pytest.raises(ValidationError):
        ec.validate()


def test_sign_twisted_differential_is_equivariant():
    # x: A -> A_sign intertwines the actions even though x moves
    act = line_action()
    ring = act.ring
    free = PresentedModule.free(ring, 1)
    d = ModuleMap(free, free, ((ring.var("x"),),))
    cx = PresentedComplex(ring, 0, (free, free), (d,))
    plain = ring_as_equivariant(act).rho
    sign = twist_by_character(ring_as_equivariant(act),
                              (QQ.one(), QQ.from_int(-1))).rho
    ec = EquivariantComplex(act, cx, (plain, sign))
    ec.validate()
    h1 = equivariant_cohomology(ec, 1)
    assert h1.module.relations == ((ring.var("x"),),)
    assert h1.rho[1][0][0] == -ring.one()


# -- support reduction ------------------------------------------------------------------


def test_counit_is_iso_on_a_free_orbit():
    act = scaled_line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    em = cyclic_equivariant(act, [x**3 - act.ring.one()])
    step = support_reduction(em, pres)
    assert step.residual.module.is_zero()
    assert step.kernel.module.is_zero()
    assert step.cokernel.module.is_zero()
    assert closed_equal(step.support_before, ClosedSet(act.ring, (x**3 - act.ring.one(),)))


def test_reduction_of_mixed_module_leaves_the_fixed_point():
    # frozen: residual is A/(x) carrying the sign action
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    m = direct_sum_equivariant(ring_as_equivariant(act),
                               cyclic_equivariant(act, [x]))
    step = support_reduction(m, pres)
    assert step.cokernel.module.is_zero()
    assert step.kernel.module.rank == 1
    assert step.kernel.module.relations == ((x,),)
    assert step.kernel.rho[1][0][0] == -act.ring.one()
    assert closed_equal(step.support_after, ClosedSet(act.ring, (x,)))


def test_reduction_refuses_a_module_inside_a_fixed_locus():
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    with pytest.raises(PreconditionError):
        support_reduction(cyclic_equivariant(act, [x]), pres)


def test_reduction_refuses_the_zero_module():
    act = line_action()
    pres = invariant_generators(act)
    z = EquivariantModule(act, PresentedModule.zero(act.ring), identity_rho(act, 0))
    with pytest.raises(PreconditionError):
        support_reduction(z, pres)


def test_reduction_counit_lifts_are_the_invariant_generators():
    act = line_action()
    pres = invariant_generators(act)
    em = twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(-1)))
    step = support_reduction(em, pres)
    x = act.ring.var("x")
    assert step.counit.columns == ((x,),)
    # the odd part misses the even functions at the fixed point
    assert step.cokernel.module.relations[-1] == (x,)
    assert closed_equal(step.support_after, ClosedSet(act.ring, (x,)))


# -- the tower --------------------------------------------------------------------------


def line_components(act):
    x = act.ring.var("x")
    return [("eta", ClosedSet(act.ring, ())),
            ("origin", ClosedSet(act.ring, (x,)))]


def test_two_stage_tower_on_the_line():
    # frozen end to end: free stage peels k[u] (+) k[u]/(u), fixed stage
    # finds the sign skyscraper k[u]/(u)
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    m = direct_sum_equivariant(ring_as_equivariant(act),
                               cyclic_equivariant(act, [x]))
    result = tower(m, pres, line_components(act),
                   table=c2_character_table(QQ))
    assert [s.kind for s in result.stages] == ["free", "fixed"]
    assert [s.component for s in result.stages] == ["eta", "origin"]
    assert result.stages[0].stabilizer == (0,)
    assert result.stages[1].stabilizer == (0, 1)

    u0 = pres.ring.var("u0")
    free_piece = result.stages[0].pieces[0]
    assert free_piece.invariants.module.rank == 2
    assert free_piece.invariants.module.relations == ((pres.ring.zero(), u0),)

    fixed_pieces = result.stages[1].pieces
    assert [p.label for p in fixed_pieces] == ["origin/layer0/sign"]
    assert fixed_pieces[0].invariants.module.relations == ((u0,),)
    assert closed_equal(fixed_pieces[0].support, ClosedSet(pres.ring, (u0,)))


def test_tower_accepts_a_complex_and_splits_the_layers():
    # H(A --x^2--> A) = A/(x^2): two filtration layers with opposite signs
    ec = line_koszul_complex(2)
    act = ec.action
    pres = invariant_generators(act)
    result = tower(ec, pres, line_components(act), table=c2_character_table(QQ))
    assert [s.kind for s in result.stages] == ["fixed"]
    labels = [p.label for p in result.stages[0].pieces]
    assert labels == ["origin/layer0/triv", "origin/layer1/sign"]
    u0 = pres.ring.var("u0")
    for p in result.stages[0].pieces:
        assert p.invariants.module.relations == ((u0,),)


def test_skew_plane_tower_lands_on_the_parabola():
    # the diagonal maps to a parabola in the (u0, u1) chart
    act = swap_action()
    pres = invariant_generators(act)
    x, y = act.ring.var("x"), act.ring.var("y")
    em = twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(-1)))
    comps = [("eta", ClosedSet(act.ring, ())),
             ("diag", ClosedSet(act.ring, (x - y,)))]
    result = tower(em, pres, comps, table=c2_character_table(QQ))
    assert [s.kind for s in result.stages] == ["free", "fixed"]
    last = result.stages[1].pieces
    assert [p.label for p in last] == ["diag/layer0/sign"]
    u0, u1 = pres.ring.var("u0"), pres.ring.var("u1")
    image = ClosedSet(pres.ring, (u0**2 - pres.ring.from_int(2) * u1,))
    assert closed_equal(last[0].support, image)


def test_tower_on_free_orbit_is_a_single_stage():
    act = scaled_line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    em = cyclic_equivariant(act, [x**3 - act.ring.one()])
    result = tower(em, pres, [("orbit", ClosedSet(act.ring, (x**3 - act.ring.one(),)))])
    assert len(result.stages) == 1
    assert result.stages[0].kind == "free"
    assert result.piece_labels() == ["orbit/invariants"]


def test_tower_of_zero_module_is_empty():
    act = line_action()
    pres = invariant_generators(act)
    z = EquivariantModule(act, PresentedModule.zero(act.ring), identity_rho(act, 0))
    result = tower(z, pres, line_components(act))
    assert result.stages == ()


def test_tower_requires_a_component_inside_the_support():
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    m = cyclic_equivariant(act, [x])
    away = [("one", ClosedSet(act.ring, (x - act.ring.one(),)))]
    with pytest.raises(PreconditionError):
        tower(m, pres, away, table=c2_character_table(QQ))


def test_tower_rejects_non_invariant_components():
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    m = ring_as_equivariant(act)
    with pytest.raises(PreconditionError):
        tower(m, pres, [("pt", ClosedSet(act.ring, (x - act.ring.one(),)))])


def test_tower_demands_the_radical_component_ideal():
    # V(x^2) is the fixed point but the twist -2x is not inside (x^2)
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    m = cyclic_equivariant(act, [x**2])
    comps = [("fat", ClosedSet(act.ring, (x**2,)))]
    with pytest.raises(PreconditionError, match="radical"):
        tower(m, pres, comps, table=c2_character_table(QQ))


def test_tower_refuses_intermediate_stabilizers():
    # diag(2, 4) has order 4 over F_5; its square fixes the y-axis pointwise
    f5 = GF(5)
    grp = cyclic_group(4)
    ring = PolyRing(f5, ("x", "y"))
    mats = []
    for k in range(4):
        a = f5.from_int(pow(2, k, 5))
        b = f5.from_int(pow(4, k, 5))
        mats.append(Matrix.from_rows(f5, [[a, f5.zero()], [f5.zero(), b]]))
    act = RingAction(grp, ring, tuple(mats))
    act.validate()
    pres = invariant_generators(act)
    x = ring.var("x")
    axis = ClosedSet(ring, (x,))
    assert pointwise_stabilizer(act, axis) == (0, 2)
    em = cyclic_equivariant(act, [x])
    with pytest.raises(PreconditionError, match="stabilizer"):
        tower(em, pres, [("axis", axis)])


def test_fixed_stage_needs_a_character_table():
    ec = line_koszul_complex(2)
    pres = invariant_generators(ec.action)
    with pytest.raises(PreconditionError):
        tower(ec, pres, line_components(ec.action))


# -- the stage memos ---------------------------------------------------------------------

STAGE_MEMOS = (equivariant._support_reduction, equivariant._fixed_stage)


def descent_tower_args(monkeypatch, build):
    """The arguments of every tower that building a descent model runs."""
    seen = []

    def record(*args):
        seen.append(args)
        return tower(*args)

    monkeypatch.setattr(corpus, "tower", record)
    build()
    monkeypatch.undo()
    return seen


def corpus_tower_args(monkeypatch):
    """The arguments of every tower of the tower corpus and of both descent
    models."""
    cases = [(case.obj, fam.pres, case.components, fam.table)
             for fam in corpus.tower_corpus() for case in fam.cases]
    cases += descent_tower_args(monkeypatch, corpus.c2_descent_model)
    return cases + descent_tower_args(monkeypatch, corpus.c3_descent_model)


def test_memoised_towers_match_towers_recomputed_from_cleared_memos(monkeypatch):
    """Every tower of the tower corpus and of both descent models, answered
    from warm stage memos, equals the same tower recomputed with both memos
    cleared first.  Each tower also runs with its components renamed: the
    labels name the pieces, so a renamed stage must not share an entry."""
    cases = corpus_tower_args(monkeypatch)
    cases += [(obj, pres, tuple((f"{label}'", c) for label, c in comps), table)
              for obj, pres, comps, table in cases]
    warm = [tower(*args) for args in cases]
    misses = [memo.cache_info().misses for memo in STAGE_MEMOS]
    assert [tower(*args) for args in cases] == warm
    assert [memo.cache_info().misses for memo in STAGE_MEMOS] == misses
    assert all(memo.cache_info().hits for memo in STAGE_MEMOS)
    for args, want in zip(cases, warm):
        for memo in STAGE_MEMOS:
            memo.cache_clear()
        assert tower(*args) == want


def test_a_refused_stage_raises_again_and_is_not_kept():
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    sky = cyclic_equivariant(act, [x])
    fat = cyclic_equivariant(act, [x**2])
    held = [memo.cache_info().currsize for memo in STAGE_MEMOS]
    for _ in range(2):
        with pytest.raises(PreconditionError, match="fixed locus"):
            support_reduction(sky, pres)
        with pytest.raises(PreconditionError, match="character table"):
            tower(sky, pres, line_components(act))
        with pytest.raises(PreconditionError, match="radical"):
            tower(fat, pres, [("fat", ClosedSet(act.ring, (x**2,)))],
                  table=c2_character_table(QQ))
    assert [memo.cache_info().currsize for memo in STAGE_MEMOS] == held


def test_a_repeated_reduction_is_answered_from_the_memo():
    act = line_action()
    pres = invariant_generators(act)
    x = act.ring.var("x")
    m = direct_sum_equivariant(ring_as_equivariant(act), cyclic_equivariant(act, [x]))
    equivariant._support_reduction.cache_clear()
    first = support_reduction(m, pres)
    assert support_reduction(m, pres) is first
    info = equivariant._support_reduction.cache_info()
    assert (info.hits, info.misses) == (1, 1)


# -- projection formula -----------------------------------------------------------------


def test_projection_formula_on_the_line_with_a_skyscraper():
    act = line_action()
    pres = invariant_generators(act)
    yring = pres.ring
    n = PresentedModule.cyclic(yring, [yring.var("u0")])
    rows = check_projection_formula(n, [0], ring_as_equivariant(act), [0], pres, 6)
    assert [(d, l, r) for d, l, r, ok in rows if not ok] == []
    assert [l for _, l, _, _ in rows] == [1, 1, 0, 0, 0, 0, 0]


def test_projection_formula_with_free_coefficients():
    act = line_action()
    pres = invariant_generators(act)
    n = PresentedModule.free(pres.ring, 1)
    rows = check_projection_formula(n, [0], ring_as_equivariant(act), [0], pres, 6)
    assert all(ok for _, _, _, ok in rows)
    assert [l for _, l, _, _ in rows] == [1, 1, 1, 1, 1, 1, 1]


def test_projection_formula_sees_shifts():
    act = line_action()
    pres = invariant_generators(act)
    em = twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(-1)))
    n = PresentedModule.cyclic(pres.ring, [pres.ring.var("u0") ** 2])
    rows = check_projection_formula(n, [0], em, [0], pres, 8)
    assert all(ok for _, _, _, ok in rows)
    # both sides are A/(x^4) in disguise: classes in degrees 0 through 3
    assert [l for _, l, _, _ in rows] == [1, 1, 1, 1, 0, 0, 0, 0, 0]


def test_projection_formula_wants_matching_rings():
    act = line_action()
    pres = invariant_generators(act)
    n = PresentedModule.free(act.ring, 1)
    with pytest.raises(DomainMismatchError):
        check_projection_formula(n, [0], ring_as_equivariant(act), [0], pres, 3)


# -- odds and ends ----------------------------------------------------------------------


def test_module_support_of_quotient():
    act = line_action()
    x = act.ring.var("x")
    em = cyclic_equivariant(act, [x**2])
    assert closed_equal(module_support(em.module), ClosedSet(act.ring, (x,)))


def test_restrict_to_trivial_group_forgets_the_action():
    act = line_action()
    em = twist_by_character(ring_as_equivariant(act), (QQ.one(), QQ.from_int(-1)))
    plain = restrict_to_trivial_group(em)
    assert plain.action.group.order == 1
    plain.validate()


def test_criterion_5_decides_each_question_once(monkeypatch):
    """Work counts during criterion 5 with empty caches.  Deciding each
    radical question, relation basis, image table and validation once took
    them from 230 Buchberger runs, 1,530 prepared reducers and 96
    validations to the bounds below; per-call work would exceed them."""
    monkeypatch.setattr(polymod, "_REL_GB_CACHE", {})
    monkeypatch.setattr(geometry, "_SPEC_MAP_CACHE", {})
    polyring._radical_member.cache_clear()
    counts = {"buchberger": 0, "prepared": 0, "validated": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(polyring, "buchberger", counting("buchberger", polyring.buchberger))
    monkeypatch.setattr(polymod._Reducers, "add", counting("prepared", polymod._Reducers.add))
    valid = EquivariantModule.__dict__["_valid"]
    monkeypatch.setattr(valid, "func", counting("validated", valid.func))
    assert verify.criterion_5().passed
    assert counts["buchberger"] <= 99
    assert counts["prepared"] <= 813
    assert counts["validated"] <= 60


# -- constructions ---------------------------------------------------------------------
# An object is validated where it enters (an action, a twist, a tower's input).
# What ttkit builds from checked parts is not validated again when built, so
# each construction is built here over drawn or corpus inputs and validated.


# (action, character table): the corpus actions and S3 on the plane
ACTION_FAMILIES = (
    (corpus.c2_line_action(QQ), c2_character_table(QQ)),
    (corpus.swap_plane_action(QQ), c2_character_table(QQ)),
    (corpus.minus_plane_action(QQ), c2_character_table(QQ)),
    (corpus.c3_plane_action_f7(), c3_character_table(GF(7))),
    (corpus.c3_line_action_f7(), c3_character_table(GF(7))),
    (s3_plane_action(), s3_character_table(QQ)),
)


def polys(ring, max_terms=2):
    """Polynomials of up to max_terms terms, exponents at most 2, small
    nonzero coefficients."""
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                     st.sampled_from((1, -1, 2)).map(ring.field.from_int))
    return st.lists(term, min_size=1, max_size=max_terms).map(ring.from_terms)


def orbit(act, f):
    return [act.apply(a, f) for a in range(act.group.order)]


def linear_characters(table):
    return [v for v, d in zip(table.values, table.degrees) if d == 1]


def drawn_parts(data, act, table, max_terms=2):
    """The ring, an orbit quotient and an orbit quotient twisted by a linear
    character, built by the constructions under test from drawn inputs."""
    ring = act.ring
    quotient = cyclic_equivariant(
        act, orbit(act, data.draw(polys(ring, max_terms), label="f")))
    chi = data.draw(st.sampled_from(linear_characters(table)), label="character")
    twisted = twist_by_character(
        cyclic_equivariant(act, orbit(act, data.draw(polys(ring, max_terms), label="g"))),
        chi)
    return ring_as_equivariant(act), quotient, twisted


def drawn_module(data, act, table, max_terms=2):
    """One of the drawn parts, or the direct sum of two."""
    parts = drawn_parts(data, act, table, max_terms)
    summands = data.draw(st.lists(st.sampled_from(range(3)), min_size=1, max_size=2),
                         label="summands")
    return reduce(direct_sum_equivariant, [parts[i] for i in summands])


@given(fld=st.sampled_from((QQ, GF(7), GF(32003))), nvars=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_trivial_actions_are_valid(fld, nvars):
    ring = PolyRing(fld, tuple(f"x{i}" for i in range(nvars)))
    act = trivial_action(ring)
    act.validate()
    ring_as_equivariant(act).validate()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_the_ring_orbit_quotients_and_sums_are_valid(data):
    act, table = data.draw(st.sampled_from(ACTION_FAMILIES), label="family")
    structure, quotient, twisted = drawn_parts(data, act, table)
    for em in (structure, quotient, direct_sum_equivariant(quotient, twisted),
               direct_sum_equivariant(twisted, structure)):
        em.validate()


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_pullbacks_are_valid(data):
    act, _ = data.draw(st.sampled_from(ACTION_FAMILIES), label="family")
    pres = invariant_generators(act)
    rank = data.draw(st.integers(1, 2), label="rank")
    rels = data.draw(st.lists(st.tuples(*[polys(pres.ring)] * rank), max_size=2),
                     label="relations")
    up = pullback(PresentedModule(pres.ring, rank, tuple(rels)), pres)
    up.validate()


def semi_invariant(act, m):
    """(f, chi): f is the monomial m when every element scales it, else the
    product of its orbit, which every element fixes; chi is the character
    for which d = f is equivariant from M to M twisted by chi."""
    fld = act.ring.field
    scales = []
    for a in range(act.group.order):
        img = act.apply(a, m)
        if len(img.terms) != 1 or img.terms[0][0] != m.terms[0][0]:
            f = act.ring.one()
            for p in orbit(act, m):
                f = f * p
            return f, (fld.one(),) * act.group.order
        scales.append(fld.mul(m.terms[0][1], fld.inv(img.terms[0][1])))
    return m, tuple(scales)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_induced_actions_on_cohomology_are_valid(data):
    act, table = data.draw(st.sampled_from(ACTION_FAMILIES), label="family")
    em = drawn_module(data, act, table)
    m = data.draw(polys(act.ring, max_terms=1), label="monomial")
    f, chi = semi_invariant(act, m)
    target = twist_by_character(em, chi)
    rank = em.module.rank
    d = ModuleMap(em.module, target.module,
                  tuple(tuple(f if i == j else act.ring.zero() for i in range(rank))
                        for j in range(rank)))
    cx = PresentedComplex(act.ring, 0, (em.module, target.module), (d,))
    ec = EquivariantComplex(act, cx, (em.rho, target.rho))
    ec.validate()
    for i in (0, 1):
        equivariant_cohomology(ec, i).validate()
    complex_to_module(ec).validate()


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_reduction_steps_of_drawn_modules_are_valid(data):
    act, table = data.draw(st.sampled_from(ACTION_FAMILIES), label="family")
    em = drawn_module(data, act, table, max_terms=1)  # graded, so M^G is found
    try:
        step = support_reduction(em, invariant_generators(act))
    except PreconditionError:
        return  # zero, or inside a fixed locus: a fixed stage peels it instead
    for built in (step.kernel, step.cokernel, step.residual):
        built.validate()


def test_reduction_steps_and_filtration_stages_are_valid(monkeypatch):
    """Every tower of the tower corpus and of both descent models, run with
    cleared stage memos: the kernel, cokernel and residual of each reduction
    step, each filtration layer, and the module each fixed stage leaves."""
    cases = corpus_tower_args(monkeypatch)
    steps, layers, rests = [], [], []

    def reduction(*args):
        steps.append(support_reduction(*args))
        return steps[-1]

    def split(layer, table):
        layers.append(layer)
        return isotypic_decompose_module(layer, table)

    def fixed(*args):
        pieces, rest = stage(*args)
        rests.append(rest)
        return pieces, rest

    stage = equivariant._fixed_stage
    monkeypatch.setattr(equivariant, "support_reduction", reduction)
    monkeypatch.setattr(equivariant, "isotypic_decompose_module", split)
    monkeypatch.setattr(equivariant, "_fixed_stage", fixed)
    for memo in STAGE_MEMOS:
        memo.cache_clear()
    for args in cases:
        tower(*args)
    built = [m for s in steps for m in (s.kernel, s.cokernel, s.residual)] + layers + rests
    for em in built:
        em.validate()
    # each is reached with a nonzero module; the kernels of these steps are
    # all zero, and the drawn reductions above reach nonzero ones
    for kind in ([s.cokernel for s in steps], layers, rests):
        assert any(not em.is_zero() for em in kind)
