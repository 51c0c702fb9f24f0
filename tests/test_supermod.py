"""Split supercommutative modules: pairs, tensor, filtration, cohomology support.

The dimension oracle for the odd-ideal filtration is the binomial count
computed with math.comb, never the filtration code itself.  Supports of
Koszul-type complexes are checked against the ideals they were built from.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit.corpus import _random_free_complex
from ttkit.errors import ValidationError
from ttkit.fields import GF, QQ
from ttkit.geometry import (
    ClosedSet,
    closed_contains,
    closed_equal,
    closed_union,
)
from ttkit.polymod import PresentedModule, graded_dim, zero_vector
from ttkit.polyring import PolyRing
from ttkit.supermod import (
    SuperAlgebra,
    SuperComplex,
    SuperMap,
    SuperModule,
    all_subsets,
    assemble_actions,
    cone_supercomplex,
    component_complex,
    direct_sum_super,
    direct_sum_supercomplex,
    free_component_rank,
    free_entries,
    free_slot,
    free_supermap,
    free_supermodule,
    j_filtration,
    koszul_complex_super,
    parity_change,
    ring_supermodule,
    scalar_supermap,
    shift_supercomplex,
    single_supercomplex,
    supph_super,
    tensor_supercomplexes,
    wedge,
    zero_supermodule,
)


@pytest.fixture
def line():
    ring = PolyRing(QQ, ("x",))
    return ring, SuperAlgebra(ring, 1)


@pytest.fixture
def plane2():
    ring = PolyRing(QQ, ("x", "y"))
    return ring, SuperAlgebra(ring, 2)


def i_rd(alg, n):
    """The even-concentrated module (N, 0) with all odd scalars acting by zero."""
    z = PresentedModule.zero(alg.base)
    actions = []
    for i in (0, 1):
        for s in alg.nonempty_subsets():
            src = n if i == 0 else z
            tgt = n if (i + len(s)) % 2 == 0 else z
            cols = tuple(zero_vector(alg.base, tgt.rank) for _ in range(src.rank))
            actions.append((i, s, cols))
    return SuperModule(alg, n, z, tuple(actions))


# -- exterior combinatorics ----------------------------------------------------------


def test_subsets_are_graded_lex():
    assert all_subsets(2) == [(), (0,), (1,), (0, 1)]
    assert all_subsets(3)[:5] == [(), (0,), (1,), (2,), (0, 1)]


def test_wedge_signs_by_hand():
    assert wedge((0,), (1,)) == (1, (0, 1))
    assert wedge((1,), (0,)) == (-1, (0, 1))
    assert wedge((0,), (0,)) == (0, ())
    assert wedge((0, 1), (2,)) == (1, (0, 1, 2))
    assert wedge((2,), (0, 1)) == (1, (0, 1, 2))
    assert wedge((1,), (0, 2)) == (-1, (0, 1, 2))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_anticommutes_on_singles(data):
    d = data.draw(st.integers(min_value=2, max_value=5))
    i = data.draw(st.integers(min_value=0, max_value=d - 1))
    j = data.draw(st.integers(min_value=0, max_value=d - 1))
    si, sj = wedge((i,), (j,))
    sk, _ = wedge((j,), (i,))
    if i == j:
        assert si == 0 and sk == 0
    else:
        assert si == -sk and sj == tuple(sorted((i, j)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_is_associative(data):
    d = 4
    subs = all_subsets(d)
    a = data.draw(st.sampled_from(subs))
    b = data.draw(st.sampled_from(subs))
    c = data.draw(st.sampled_from(subs))
    s1, u1 = wedge(a, b)
    left = (0, ()) if s1 == 0 else tuple_scale(s1, wedge(u1, c))
    s2, u2 = wedge(b, c)
    right = (0, ()) if s2 == 0 else tuple_scale(s2, wedge(a, u2))
    assert left == right


def tuple_scale(sign, pair):
    s, u = pair
    return (sign * s, u if s != 0 else ())


# -- supermodule structure -----------------------------------------------------------


def test_ring_supermodule_validates_and_has_unit_column(line):
    ring, alg = line
    r = ring_supermodule(alg)
    r.validate()
    assert r.even.rank == 1 and r.odd.rank == 1
    # theta acts as the identity matrix from the even to the odd slot
    assert r.action_columns(0, (0,)) == ((ring.one(),),)
    # and kills the odd slot: theta * theta = 0
    assert r.action_columns(1, (0,)) == ((ring.zero(),),)


def test_parity_change_swaps_and_squares_to_identity(line):
    _, alg = line
    r = ring_supermodule(alg)
    p = parity_change(r)
    p.validate()
    assert p.even == r.odd and p.odd == r.even
    assert parity_change(p) == r


def test_i_rd_has_zero_odd_part_and_zero_actions(line):
    ring, alg = line
    x = ring.var("x")
    n = PresentedModule.cyclic(ring, [x * x])
    m = i_rd(alg, n)
    m.validate()
    assert m.odd.rank == 0
    assert m.even == n
    # the odd generator sends the even generator into the zero component
    assert m.action_columns(0, (0,)) == ((),)


def test_repeated_odd_factor_must_act_as_zero(line):
    ring, alg = line
    free = PresentedModule.free(ring, 1)
    one_col = ((ring.one(),),)
    actions = assemble_actions(alg, free, free, [(one_col, one_col)])
    bad = SuperModule(alg, free, free, actions)
    with pytest.raises(ValidationError, match="repeated factor"):
        bad.validate()


def test_sign_violation_is_caught(plane2):
    ring, alg = plane2
    # theta_0 shifts e0 to e1 and theta_1 shifts e1 to e0, on both
    # parities; each squares to zero but the pair commutes instead of
    # anticommuting, so the exterior-product check must fire
    free = PresentedModule.free(ring, 2)
    zero, one = ring.zero(), ring.one()
    down = ((zero, one), (zero, zero))
    up = ((zero, zero), (one, zero))
    actions = assemble_actions(alg, free, free, [(down, down), (up, up)])
    bad = SuperModule(alg, free, free, actions)
    with pytest.raises(ValidationError, match="disagrees"):
        bad.validate()


def test_direct_sum_super_components_add(line):
    _, alg = line
    r = ring_supermodule(alg)
    s = direct_sum_super(r, parity_change(r))
    s.validate()
    assert s.even.rank == 2 and s.odd.rank == 2


def test_free_supermodule_shapes(plane2):
    _, alg = plane2
    f = free_supermodule(alg, 2, 1)
    f.validate()
    # each copy of the algebra contributes 2 even and 2 odd slots when d=2
    assert f.even.rank == 6 and f.odd.rank == 6
    z = free_supermodule(alg, 0, 0)
    assert z.is_zero()


def test_free_slot_indexing(line):
    _, alg = line
    assert free_slot(alg, (1, 1), 0, ()) == (0, 0)
    assert free_slot(alg, (1, 1), 0, (0,)) == (1, 0)
    assert free_slot(alg, (1, 1), 1, ()) == (1, 1)
    assert free_slot(alg, (1, 1), 1, (0,)) == (0, 1)
    assert free_component_rank(alg, (1, 1), 0) == 2
    assert free_component_rank(alg, (1, 1), 1) == 2


# -- complexes ----------------------------------------------------------------------------


def test_koszul_complex_realizes_its_ideal(line):
    ring, alg = line
    x = ring.var("x")
    k = koszul_complex_super(alg, [x])
    k.validate()
    assert k.is_perfect()
    assert closed_equal(supph_super(k), ClosedSet(ring, (x,)))


def test_koszul_complex_on_two_elements(plane2):
    ring, alg = plane2
    x, y = ring.var("x"), ring.var("y")
    k = koszul_complex_super(alg, [x, y])
    k.validate()
    assert k.free_shapes == ((1, 0), (2, 0), (1, 0))
    assert closed_equal(supph_super(k), ClosedSet(ring, (x, y)))


def test_empty_koszul_complex_is_the_unit(line):
    ring, alg = line
    k = koszul_complex_super(alg, [])
    assert len(k.terms) == 1
    assert supph_super(k).is_whole()


def test_koszul_on_a_unit_is_exact(line):
    ring, alg = line
    k = koszul_complex_super(alg, [ring.one()])
    k.validate()
    assert supph_super(k).is_empty()


def test_supph_is_shift_invariant(plane2):
    ring, alg = plane2
    x, y = ring.var("x"), ring.var("y")
    k = koszul_complex_super(alg, [x * y])
    for shift in (1, 2, -1):
        s = shift_supercomplex(k, shift)
        s.validate()
        assert closed_equal(supph_super(s), supph_super(k))


def test_supph_of_sum_is_union(line):
    ring, alg = line
    x = ring.var("x")
    a = koszul_complex_super(alg, [x])
    b = koszul_complex_super(alg, [x - ring.one()])
    s = direct_sum_supercomplex(a, b)
    s.validate()
    want = closed_union(supph_super(a), supph_super(b))
    assert closed_equal(supph_super(s), want)
    assert s.free_shapes == ((2, 0), (2, 0))


def test_supph_of_tensor_is_intersection(line):
    ring, alg = line
    x = ring.var("x")
    one = ring.one()
    a = koszul_complex_super(alg, [x * (x - one)])
    b = koszul_complex_super(alg, [x * (x + one)])
    t = tensor_supercomplexes(a, b)
    t.validate()
    # common locus of the two hypersurfaces is the origin alone
    assert closed_equal(supph_super(t), ClosedSet(ring, (x,)))


def test_tensor_of_disjoint_supports_is_exact(line):
    ring, alg = line
    x = ring.var("x")
    t = tensor_supercomplexes(
        koszul_complex_super(alg, [x]),
        koszul_complex_super(alg, [x - ring.one()]),
    )
    t.validate()
    assert supph_super(t).is_empty()


def test_cone_of_identity_is_exact(line):
    ring, alg = line
    x = ring.var("x")
    k = koszul_complex_super(alg, [x])
    ident = [scalar_supermap(alg, (1, 0), ring.one()) for _ in k.terms]
    c = cone_supercomplex(k, k, ident)
    c.validate()
    assert supph_super(c).is_empty()


def test_cone_supph_inside_union(line):
    ring, alg = line
    x = ring.var("x")
    k = koszul_complex_super(alg, [x])
    mult = [scalar_supermap(alg, (1, 0), x) for _ in k.terms]
    c = cone_supercomplex(k, k, mult)
    c.validate()
    union = closed_union(supph_super(k), supph_super(k))
    assert closed_contains(union, supph_super(c))


def _odd_entry_complexes(alg, pool, count):
    """Seeded corpus complexes R^(1|1) -> R^(1|1) with both diagonal entries
    and an odd entry, so the support is proper and theta acts nontrivially."""
    out, seed = [], 0
    while len(out) < count:
        cx = _random_free_complex(alg, random.Random(seed), pool)
        seed += 1
        if cx.free_shapes != ((1, 1), (1, 1)):
            continue
        entries = free_entries(cx.maps[0], (1, 1), (1, 1))
        if {(0, 0), (1, 1)} <= set(entries) and {(0, 1), (1, 0)} & set(entries):
            out.append(cx)
    return out


def _theta_1_for_theta_0(cx):
    """The two-term free complex with theta_1 in place of theta_0."""
    shapes = cx.free_shapes
    entries = {key: tuple(((1,) if word == (0,) else word, coeff) for word, coeff in elem)
               for key, elem in free_entries(cx.maps[0], *shapes).items()}
    f = free_supermap(cx.algebra, shapes[0], shapes[1], entries)
    return SuperComplex(cx.algebra, cx.start, (f.source, f.target), (f,), shapes)


@pytest.mark.parametrize("odd_rank", [1, 2])
def test_tensor_koszul_sign_on_odd_entries(odd_rank):
    ring = PolyRing(QQ, ("x", "y")[:odd_rank])
    alg = SuperAlgebra(ring, odd_rank)
    x = ring.var("x")
    if odd_rank == 1:
        pool = (x, x - 1, x + 1)
    else:
        y = ring.var("y")
        pool = (x, y - 1, x - y)
    a, b, c = _odd_entry_complexes(alg, pool, 3)
    # odd copies of a come before the even copies of the Koszul summand
    mixed = direct_sum_supercomplex(a, koszul_complex_super(alg, [x - 1]))
    for left, right in ((a, b), (mixed, c), (c, mixed)):
        if odd_rank == 2:
            # products of odd entries from the two sides then survive in d^2
            right = _theta_1_for_theta_0(right)
        t = tensor_supercomplexes(left, right)
        t.validate()
        want = ClosedSet(ring, supph_super(left).generators + supph_super(right).generators)
        assert closed_equal(supph_super(t), want)


def test_free_operations_reject_complexes_without_free_shapes(line):
    ring, alg = line
    bare = single_supercomplex(zero_supermodule(alg))
    k = koszul_complex_super(alg, [ring.var("x")])
    with pytest.raises(ValidationError, match="tensor"):
        tensor_supercomplexes(k, bare)
    with pytest.raises(ValidationError, match="direct sum"):
        direct_sum_supercomplex(bare, k)
    with pytest.raises(ValidationError, match="cone"):
        cone_supercomplex(k, bare, [scalar_supermap(alg, (1, 0), ring.zero())] * 2)


def test_complex_rejects_nonsquaring_differential(line):
    ring, alg = line
    x = ring.var("x")
    f = scalar_supermap(alg, (1, 0), x)
    g = scalar_supermap(alg, (1, 0), ring.one())
    c = SuperComplex(alg, 0, (f.source, f.target, g.target), (f, g))
    with pytest.raises(ValidationError, match="d\\^2"):
        c.validate()


def test_supermap_must_commute_with_theta(line):
    ring, alg = line
    r = ring_supermodule(alg)
    # even slot scales by x, odd slot by 1: not a map of supermodules
    x = ring.var("x")
    from ttkit.polymod import ModuleMap

    bad = SuperMap(r, r,
                   ModuleMap(r.even, r.even, ((x,),)),
                   ModuleMap(r.odd, r.odd, ((ring.one(),),)))
    with pytest.raises(ValidationError, match="commute"):
        bad.validate()


def test_component_complex_carries_the_right_terms(plane2):
    ring, alg = plane2
    x = ring.var("x")
    k = koszul_complex_super(alg, [x])
    even = component_complex(k, 0)
    odd = component_complex(k, 1)
    assert even.module_at(0).rank == 2 and odd.module_at(0).rank == 2
    assert list(even.degrees()) == [0, 1]


def test_free_supermap_odd_entry(line):
    ring, alg = line
    # send the generator of R to theta times the generator of Pi R
    f = free_supermap(alg, (1, 0), (0, 1), {(0, 0): (((0,), ring.one()),)})
    f.validate()
    assert not f.is_zero_map()
    assert free_entries(f, (1, 0), (0, 1)) == {(0, 0): (((0,), ring.one()),)}


def test_free_supermap_rejects_mixed_parity_entries(line):
    ring, alg = line
    with pytest.raises(ValidationError, match="parit"):
        free_supermap(alg, (1, 0), (1, 0),
                      {(0, 0): (((0,), ring.one()),)}).validate()


# -- the odd-ideal filtration ---------------------------------------------------------------


def test_filtration_of_the_algebra_line(line):
    ring, alg = line
    layers = j_filtration(ring_supermodule(alg))
    assert len(layers) == 2
    # quotients are A then the parity-shifted line
    l0, l1 = layers
    assert graded_dim(l0.quotient_even, (0,) * l0.quotient_even.rank, 0) == 1
    assert graded_dim(l0.quotient_odd, (0,) * l0.quotient_odd.rank, 0) == 0
    assert graded_dim(l1.quotient_even, (0,) * l1.quotient_even.rank, 0) == 0
    assert graded_dim(l1.quotient_odd, (0,) * l1.quotient_odd.rank, 0) == 1


def test_filtration_of_the_algebra_plane(plane2):
    _, alg = plane2
    layers = j_filtration(ring_supermodule(alg))
    dims = [
        graded_dim(l.quotient_even, (0,) * l.quotient_even.rank, 0)
        + graded_dim(l.quotient_odd, (0,) * l.quotient_odd.rank, 0)
        for l in layers
    ]
    assert dims == [math.comb(2, i) for i in range(3)]


def test_filtration_kills_reduced_modules_in_one_step(line):
    ring, alg = line
    x = ring.var("x")
    layers = j_filtration(i_rd(alg, PresentedModule.cyclic(ring, [x])))
    assert len(layers) == 1
    assert layers[0].stage.odd.is_zero()


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_filtration_layer_dims_follow_the_binomials(data):
    d = data.draw(st.integers(min_value=1, max_value=2))
    a = data.draw(st.integers(min_value=0, max_value=2))
    b = data.draw(st.integers(min_value=0, max_value=2 - a))
    if a + b == 0:
        a = 1
    nvars = data.draw(st.integers(min_value=1, max_value=2))
    ring = PolyRing(QQ, ("x", "y")[:nvars])
    alg = SuperAlgebra(ring, d)
    m = free_supermodule(alg, a, b)
    layers = j_filtration(m)
    assert len(layers) == d + 1
    for i, layer in enumerate(layers):
        got = graded_dim(layer.quotient_even,
                         (0,) * layer.quotient_even.rank, 0) + graded_dim(
            layer.quotient_odd, (0,) * layer.quotient_odd.rank, 0)
        assert got == math.comb(d, i) * (a + b)


def test_filtration_stages_are_supermodules(plane2):
    _, alg = plane2
    layers = j_filtration(free_supermodule(alg, 1, 1))
    for layer in layers:
        layer.stage.validate()


# -- field variety ---------------------------------------------------------------------------


def test_everything_over_a_finite_field():
    ring = PolyRing(GF(7), ("x",))
    x = ring.var("x")
    alg = SuperAlgebra(ring, 1)
    r = ring_supermodule(alg)
    r.validate()
    k = koszul_complex_super(alg, [x * x * x - ring.one()])
    k.validate()
    assert closed_equal(supph_super(k),
                        ClosedSet(ring, (x * x * x - ring.one(),)))
