"""Split supercommutative algebras: free modules, complexes, filtration, support.

The dimension oracle for the odd-ideal filtration is the binomial count
computed with math.comb, never the filtration code itself, and the oracle
for the component matrices of a free map is theta-linearity, with the odd
action computed here from wedge and free_slot.  Supports of Koszul-type
complexes are checked against the ideals they were built from.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit import polymod, polyring, supermod
from ttkit.corpus import _random_free_complex, super_support_corpus
from ttkit.errors import ValidationError
from ttkit.fields import GF, QQ
from ttkit.geometry import (
    ClosedSet,
    PrimeSite,
    SiteSpace,
    closed_contains,
    closed_equal,
    closed_union,
)
from ttkit.polymod import graded_dim
from ttkit.polyring import GREVLEX, Poly, PolyRing
from ttkit.supermod import (
    SuperAlgebra,
    SuperComplex,
    all_subsets,
    cone_supercomplex,
    component_complex,
    direct_sum_supercomplex,
    free_columns,
    free_component_rank,
    free_slot,
    j_filtration,
    koszul_complex_super,
    scalar_matrix,
    shift_supercomplex,
    supph_sites,
    supph_super,
    tensor_supercomplexes,
    wedge,
)
from ttkit.verify import DEFAULT_SEED


@pytest.fixture
def line():
    ring = PolyRing(QQ, ("x",))
    return ring, SuperAlgebra(ring, 1)


@pytest.fixture
def plane2():
    ring = PolyRing(QQ, ("x", "y"))
    return ring, SuperAlgebra(ring, 2)


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


def test_free_slot_indexing(line):
    _, alg = line
    assert free_slot(alg, (1, 1), 0, ()) == (0, 0)
    assert free_slot(alg, (1, 1), 0, (0,)) == (1, 0)
    assert free_slot(alg, (1, 1), 1, ()) == (1, 1)
    assert free_slot(alg, (1, 1), 1, (0,)) == (0, 1)
    assert free_component_rank(alg, (1, 1), 0) == 2
    assert free_component_rank(alg, (1, 1), 1) == 2


def _theta(alg, shape, t, parity, column):
    """theta_t times the vector with this column of coordinates in component
    `parity` of the free module of the shape, as a column of the other one."""
    ring = alg.base
    out = [ring.zero()] * free_component_rank(alg, shape, parity + 1)
    for w, pw in supermod._copies(shape):
        for word in alg.basis(parity + pw):
            coeff = column[free_slot(alg, shape, w, word)[1]]
            sign, union = wedge((t,), word)
            if sign != 0 and not coeff.is_zero():
                idx = free_slot(alg, shape, w, union)[1]
                out[idx] = out[idx] + (coeff if sign > 0 else -coeff)
    return tuple(out)


def _shapes():
    return st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda s: sum(s) <= 2)


@given(d=st.integers(1, 3), src_shape=_shapes(), tgt_shape=_shapes(),
       seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_free_columns_are_theta_linear(d, src_shape, tgt_shape, seed):
    # the column of theta_t theta_w e_u is theta_t applied to the column of
    # theta_w e_u, for every source basis element and every t
    ring = PolyRing(QQ, ("x",))
    alg = SuperAlgebra(ring, d)
    x = ring.var("x")
    pool = tuple(ring.from_int(c) * f for c in (1, 2, -1) for f in (ring.one(), x, x + 1))
    rng = random.Random(seed)
    matrix = {}
    for w, pw in supermod._copies(tgt_shape):
        for u, pu in supermod._copies(src_shape):
            matrix[(w, u)] = tuple((s, rng.choice(pool)) for s in alg.basis(pu + pw)
                                   if rng.random() < 0.5)
    cols = free_columns(alg, src_shape, tgt_shape, matrix)
    for u, pu in supermod._copies(src_shape):
        for word in all_subsets(d):
            parity, idx = free_slot(alg, src_shape, u, word)
            for t in range(d):
                got = _theta(alg, tgt_shape, t, parity, cols[parity][idx])
                sign, union = wedge((t,), word)
                if sign == 0:
                    assert all(e.is_zero() for e in got)
                    continue
                p2, idx2 = free_slot(alg, src_shape, u, union)
                want = cols[p2][idx2]
                assert got == (want if sign > 0 else tuple(-e for e in want))


# -- complexes ----------------------------------------------------------------------------


def test_koszul_complex_realizes_its_ideal(line):
    ring, alg = line
    x = ring.var("x")
    k = koszul_complex_super(alg, [x])
    k.validate()
    assert k.shapes == ((1, 0), (1, 0))
    assert closed_equal(supph_super(k), ClosedSet(ring, (x,)))


def test_koszul_complex_on_two_elements(plane2):
    ring, alg = plane2
    x, y = ring.var("x"), ring.var("y")
    k = koszul_complex_super(alg, [x, y])
    k.validate()
    assert k.shapes == ((1, 0), (2, 0), (1, 0))
    assert closed_equal(supph_super(k), ClosedSet(ring, (x, y)))


def test_empty_koszul_complex_is_the_unit(line):
    ring, alg = line
    k = koszul_complex_super(alg, [])
    assert k.shapes == ((1, 0),)
    assert supph_super(k).is_whole()


def test_koszul_on_a_unit_is_exact(line):
    ring, alg = line
    k = koszul_complex_super(alg, [ring.one()])
    k.validate()
    assert closed_equal(supph_super(k), ClosedSet.empty(ring))


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
    assert s.shapes == ((2, 0), (2, 0))


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
    assert closed_equal(supph_super(t), ClosedSet.empty(ring))


def test_cone_of_identity_is_exact(line):
    ring, alg = line
    x = ring.var("x")
    k = koszul_complex_super(alg, [x])
    ident = [scalar_matrix(shape, ring.one()) for shape in k.shapes]
    c = cone_supercomplex(k, k, ident)
    c.validate()
    assert closed_equal(supph_super(c), ClosedSet.empty(ring))


def test_cone_supph_inside_union(line):
    ring, alg = line
    x = ring.var("x")
    k = koszul_complex_super(alg, [x])
    mult = [scalar_matrix(shape, x) for shape in k.shapes]
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
        if cx.shapes != ((1, 1), (1, 1)):
            continue
        entries = cx.matrices[0]
        if {(0, 0), (1, 1)} <= set(entries) and {(0, 1), (1, 0)} & set(entries):
            out.append(cx)
    return out


def _theta_1_for_theta_0(cx):
    """The two-term free complex with theta_1 in place of theta_0."""
    entries = {key: tuple(((1,) if word == (0,) else word, coeff) for word, coeff in elem)
               for key, elem in cx.matrices[0].items()}
    return SuperComplex(cx.algebra, cx.start, cx.shapes, (entries,))


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


def test_complex_rejects_nonsquaring_differential(line):
    ring, alg = line
    x = ring.var("x")
    c = SuperComplex(alg, 0, ((1, 0),) * 3,
                     (scalar_matrix((1, 0), x), scalar_matrix((1, 0), ring.one())))
    with pytest.raises(ValidationError, match="d\\^2"):
        c.validate()


def test_component_complex_carries_the_right_terms(plane2):
    ring, alg = plane2
    x = ring.var("x")
    k = koszul_complex_super(alg, [x])
    even = component_complex(k, 0)
    odd = component_complex(k, 1)
    assert even.module_at(0).rank == 2 and odd.module_at(0).rank == 2
    assert list(even.degrees()) == [0, 1]


def test_free_columns_odd_entry(line):
    ring, alg = line
    # send the generator of R to theta times the generator of Pi R
    matrix = {(0, 0): (((0,), ring.one()),)}
    # e lands on theta e' in the even slot of Pi R, and theta e on theta^2 e' = 0
    even, odd = free_columns(alg, (1, 0), (0, 1), matrix)
    assert even == ((ring.one(),),)
    assert odd == ((ring.zero(),),)
    assert SuperComplex(alg, 0, ((1, 0), (0, 1)), (matrix,)).matrices == (matrix,)


def test_complex_rejects_mixed_parity_entries(line):
    ring, alg = line
    with pytest.raises(ValidationError, match="parit"):
        SuperComplex(alg, 0, ((1, 0), (1, 0)),
                     ({(0, 0): (((), ring.one()), ((0,), ring.one()))},))


@pytest.mark.parametrize("shapes, key, word, match", [
    # a target copy past the shape, with a word of the parity it would have
    (((1, 0), (1, 1)), (5, 0), (0,), "\\(5, 0\\) lies outside the shapes"),
    # a source copy past the shape, which free_columns would never read
    (((1, 1), (1, 0)), (0, 7), (0,), "\\(0, 7\\) lies outside the shapes"),
    # a target copy past the shape, with a word of the other parity
    (((1, 0), (1, 1)), (5, 0), (), "\\(5, 0\\) lies outside the shapes"),
    # a word with an odd index past the odd rank
    (((1, 0), (0, 1)), (0, 0), (3,), "word \\(3,\\)"),
    (((-1, 0), (1, 0)), None, None, "shape \\(-1, 0\\)"),
], ids=["target-copy", "source-copy", "other-parity", "word", "negative-count"])
def test_complex_rejects_entries_outside_its_shapes(line, shapes, key, word, match):
    ring, alg = line
    matrix = {} if key is None else {key: ((word, ring.one()),)}
    with pytest.raises(ValidationError, match=match):
        SuperComplex(alg, 0, shapes, (matrix,))


# -- the odd-ideal filtration ---------------------------------------------------------------


def test_filtration_of_the_algebra_line(line):
    ring, alg = line
    layers = j_filtration(alg, (1, 0))
    assert len(layers) == 2
    # quotients are A then the parity-shifted line
    l0, l1 = layers
    assert graded_dim(l0.quotient_even, (0,) * l0.quotient_even.rank, 0) == 1
    assert graded_dim(l0.quotient_odd, (0,) * l0.quotient_odd.rank, 0) == 0
    assert graded_dim(l1.quotient_even, (0,) * l1.quotient_even.rank, 0) == 0
    assert graded_dim(l1.quotient_odd, (0,) * l1.quotient_odd.rank, 0) == 1


def test_filtration_of_the_algebra_plane(plane2):
    _, alg = plane2
    layers = j_filtration(alg, (1, 0))
    dims = [
        graded_dim(l.quotient_even, (0,) * l.quotient_even.rank, 0)
        + graded_dim(l.quotient_odd, (0,) * l.quotient_odd.rank, 0)
        for l in layers
    ]
    assert dims == [math.comb(2, i) for i in range(3)]


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_filtration_layer_dims_follow_the_binomials(data):
    d = data.draw(st.integers(min_value=1, max_value=3))
    a = data.draw(st.integers(min_value=0, max_value=2))
    b = data.draw(st.integers(min_value=0, max_value=2 - a))
    if a + b == 0:
        a = 1
    nvars = data.draw(st.integers(min_value=1, max_value=2))
    ring = PolyRing(QQ, ("x", "y")[:nvars])
    alg = SuperAlgebra(ring, d)
    layers = j_filtration(alg, (a, b))
    assert len(layers) == d + 1
    totals = [0, 0]
    for i, layer in enumerate(layers):
        even = graded_dim(layer.quotient_even, (0,) * layer.quotient_even.rank, 0)
        odd = graded_dim(layer.quotient_odd, (0,) * layer.quotient_odd.rank, 0)
        # the words of length i times the even copies, and the odd copies
        # shifted, land in the parity of i
        want = (math.comb(d, i) * a, math.comb(d, i) * b)
        assert (even, odd) == (want if i % 2 == 0 else want[::-1])
        totals[0] += even
        totals[1] += odd
    assert totals == [free_component_rank(alg, (a, b), p) for p in (0, 1)]


# -- field variety ---------------------------------------------------------------------------


def test_everything_over_a_finite_field():
    ring = PolyRing(GF(7), ("x",))
    x = ring.var("x")
    alg = SuperAlgebra(ring, 1)
    k = koszul_complex_super(alg, [x * x * x - ring.one()])
    k.validate()
    assert closed_equal(supph_super(k),
                        ClosedSet(ring, (x * x * x - ring.one(),)))


# -- fibre ranks against the cohomology path ---------------------------------------------------


def _line_setting(fld):
    ring = PolyRing(fld, ("x",))
    x = ring.var("x")
    sites = (PrimeSite("origin", ring, (x,)), PrimeSite("one", ring, (x - 1,)),
             PrimeSite("minus", ring, (x + 1,)), PrimeSite("two", ring, (x - 2,)),
             PrimeSite("i", ring, (x * x + 1,), "principal-irreducible"),
             PrimeSite("generic", ring, ()))
    pool = (x, x - 1, x + 1, x - 2, x * x + 1)
    return SuperAlgebra(ring, 1), SiteSpace(ring, sites), pool, (x, x - 1, x + 1)


def _plane_setting(fld):
    ring = PolyRing(fld, ("x", "y"))
    x, y = ring.gens()
    sites = (PrimeSite("xline", ring, (x,)), PrimeSite("yline", ring, (y,)),
             PrimeSite("diagonal", ring, (x - y,)),
             PrimeSite("origin", ring, (x, y)), PrimeSite("point", ring, (x - 1, y - 1)),
             PrimeSite("i", ring, (x * x + 1,), "principal-irreducible"),
             PrimeSite("generic", ring, ()))
    pool = (x, y, x - 1, y - 1, x - y, x * x + 1)
    return SuperAlgebra(ring, 2), SiteSpace(ring, sites), pool, (x, y, x - y)


def _random_perfect_complex(alg, pool, free_pool, rng, depth):
    """A seeded perfect complex: a random free map, a Koszul complex of
    products of pool elements, or a sum, shift, cone or tensor of such."""
    kinds = ("free", "koszul") + (("sum", "shift", "cone", "tensor") if depth else ())
    kind = rng.choice(kinds)
    if kind == "free":
        return _random_free_complex(alg, rng, free_pool)
    if kind == "koszul":
        elements = []
        for _ in range(rng.choice((1, 1, 2))):
            f = rng.choice(pool)
            if rng.random() < 0.4:
                f = f * rng.choice(pool)
            elements.append(f)
        return koszul_complex_super(alg, elements)
    a = _random_perfect_complex(alg, pool, free_pool, rng, depth - 1)
    if kind == "shift":
        return shift_supercomplex(a, rng.choice((-1, 1, 2)))
    if kind == "cone":
        g = rng.choice(pool + (alg.base.one(),))
        maps = [scalar_matrix(shape, g) for shape in a.shapes]
        return cone_supercomplex(a, a, maps)
    b = _random_perfect_complex(alg, pool, free_pool, rng, depth - 1)
    if kind == "sum":
        return direct_sum_supercomplex(a, b)
    return tensor_supercomplexes(a, b)


@pytest.mark.parametrize("fld", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("setting", [_line_setting, _plane_setting],
                         ids=["line", "plane"])
@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=15, deadline=None)
def test_fibre_ranks_match_the_cohomology_support(fld, setting, seed):
    alg, space, pool, free_pool = setting(fld)
    cx = _random_perfect_complex(alg, pool, free_pool, random.Random(seed), 2)
    assert supph_sites(cx, space) == space.sites_in_closed(supph_super(cx))


def test_fibre_ranks_see_odd_entries(line):
    ring, alg = line
    x = ring.var("x")
    space = SiteSpace(ring, (PrimeSite("origin", ring, (x,)),
                             PrimeSite("one", ring, (x - 1,)),
                             PrimeSite("generic", ring, ())))
    for cx in _odd_entry_complexes(alg, (x, x - 1, x + 1), 6):
        assert supph_sites(cx, space) == space.sites_in_closed(supph_super(cx))


def ref_fibre_rank(columns, basis):
    """The elimination that `_fibre_rank` ran before it skipped zeros and
    units: the normal form of every entry and of every difference, and
    every pivot row scaled by the inverse of its lead coefficient."""
    nf = basis.normal_form
    rows = [row for row in ([nf(e) for e in col] for col in columns)
            if any(not e.is_zero() for e in row)]
    rank = 0
    while rows:
        _, _, i, j = min((e.total_degree(), len(e.terms), i, j)
                         for i, row in enumerate(rows)
                         for j, e in enumerate(row) if not e.is_zero())
        pivot_row = rows.pop(i)
        _, lead = max(pivot_row[j].terms, key=lambda t: GREVLEX.key(t[0]))
        inv = pivot_row[j].ring.field.inv(lead)
        pivot_row = [e.scale(inv) for e in pivot_row]
        pivot = pivot_row[j]
        rest = []
        for row in rows:
            a = row[j]
            if not a.is_zero():
                row = [nf(pivot * e - a * f) for e, f in zip(row, pivot_row)]
            if any(not e.is_zero() for e in row):
                rest.append(row)
        rows = rest
        rank += 1
    return rank


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 101])
def test_fibre_ranks_match_the_full_elimination_on_the_corpus(seed, monkeypatch):
    """Every (columns, basis) that the super corpus ranks gets the rank of
    the full elimination."""
    calls = []
    real = supermod._fibre_rank

    def spy(columns, basis):
        calls.append((columns, basis, real(columns, basis)))
        return calls[-1][2]

    monkeypatch.setattr(supermod, "_fibre_rank", spy)
    super_support_corpus(seed)
    assert len(calls) > 500
    assert [rank for _, _, rank in calls] == [ref_fibre_rank(c, b) for c, b, _ in calls]


def _fibre_sites(fld, plane):
    """The ring and its certified prime sites: rational points, the line
    x = 0 in the plane, the principal-irreducible x^2 + 1 and the generic
    site, whose basis has no reducers."""
    ring = PolyRing(fld, ("x", "y") if plane else ("x",))
    x = ring.var("x")
    sites = [PrimeSite("origin", ring, (x,)), PrimeSite("one", ring, (x - 1,)),
             PrimeSite("i", ring, (x * x + 1,), "principal-irreducible"),
             PrimeSite("generic", ring, ())]
    if plane:
        y = ring.var("y")
        sites[:2] = [PrimeSite("xline", ring, (x,)), PrimeSite("origin", ring, (x, y)),
                     PrimeSite("point", ring, (x - 1, y - 1))]
    return ring, sites


@st.composite
def fibre_matrices(draw):
    """A field, the plane or the line, the columns of a matrix over it and
    a multiplier: up to 4 columns of 1-4 entries, each zero or up to 3
    terms of degree at most 2 with coefficients in -3..3, so pivots are
    often not monic."""
    fld = draw(st.sampled_from([QQ, GF(7)]))
    plane = draw(st.booleans())
    ring, _ = _fibre_sites(fld, plane)
    expo = st.integers(min_value=0, max_value=2)
    mono = st.tuples(expo, expo) if plane else st.tuples(expo)
    term = st.tuples(mono, st.integers(min_value=-3, max_value=3))
    entry = st.lists(term, max_size=3).map(
        lambda ts: ring.from_terms((m, fld.from_int(c)) for m, c in ts))
    nrows = draw(st.integers(min_value=1, max_value=4))
    columns = draw(st.lists(st.tuples(*[entry] * nrows), max_size=4))
    return fld, plane, tuple(columns), draw(entry)


@given(fibre_matrices())
@settings(max_examples=60, deadline=None)
def test_packed_fibre_ranks_match_the_full_elimination(case):
    """On every site, the matrix, the matrix with a zero column put first,
    the all-zero matrix of its shape and the matrix with the normal form
    of g times its first column put last get the rank of the full
    elimination on `Poly` normal forms.  That last column lies in the span
    of the first over Frac(A/p) but, off the rational sites, often not
    over A, so its differences must be reduced modulo p again."""
    fld, plane, columns, g = case
    ring, sites = _fibre_sites(fld, plane)
    nrows = len(columns[0]) if columns else 1
    zeros = ((ring.zero(),) * nrows,) * len(columns)
    for site in sites:
        basis = supermod._site_basis(site)
        assert basis is not None
        multiple = tuple(basis.normal_form(g * e) for e in columns[0]) if columns else ()
        rank = supermod._fibre_rank(columns, basis)
        assert rank == ref_fibre_rank(columns, basis)
        assert supermod._fibre_rank(zeros[:1] + columns, basis) == rank
        assert supermod._fibre_rank(zeros, basis) == ref_fibre_rank(zeros, basis) == 0
        if columns:
            assert supermod._fibre_rank(columns + (multiple,), basis) == rank
            assert ref_fibre_rank(columns + (multiple,), basis) == rank


@pytest.mark.parametrize("site", ["yline", "generic"])
def test_an_entry_product_past_the_exponent_limit_raises(site, monkeypatch):
    """Packed keys hold exponents up to MAX_EXPONENT: the elimination step
    2 * x^top * x^top - x^top * x^top raises, and no rank comes back, at a
    site that leaves x^top reduced and at the one with no reducers."""
    ring = PolyRing(QQ, ("x", "y"))
    top = polymod.MAX_EXPONENT
    big, twice = ring.parse_poly(f"x^{top}"), ring.parse_poly(f"2*x^{top}")
    entries = {(0, 0): (((), big),), (0, 1): (((), big),),
               (1, 0): (((), big),), (1, 1): (((), twice),)}
    cx = SuperComplex(SuperAlgebra(ring, 1), 0, ((2, 0), (2, 0)), (entries,))
    gens = {"yline": (ring.var("y"),), "generic": ()}[site]
    space = SiteSpace(ring, (PrimeSite(site, ring, gens),))
    ranks = []
    real = supermod._fibre_rank

    def spy(columns, basis):
        ranks.append(real(columns, basis))
        return ranks[-1]

    monkeypatch.setattr(supermod, "_fibre_rank", spy)
    with pytest.raises(ValidationError, match=str(top)):
        supph_sites(cx, space)
    assert ranks == []


@pytest.fixture
def supph_spy(monkeypatch):
    """Counts the calls of supph_super made through the supermod module."""
    calls = []
    real = supermod.supph_super

    def spy(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(supermod, "supph_super", spy)
    return calls


@pytest.fixture
def rank_spy(monkeypatch):
    """The columns of each matrix ranked through supermod._fibre_rank."""
    calls = []
    real = supermod._fibre_rank

    def spy(columns, basis):
        calls.append(columns)
        return real(columns, basis)

    monkeypatch.setattr(supermod, "_fibre_rank", spy)
    return calls


def test_even_differentials_are_ranked_once_per_site(line, rank_spy):
    ring, alg = line
    x = ring.var("x")
    space = SiteSpace(ring, (PrimeSite("origin", ring, (x,)),
                             PrimeSite("one", ring, (x - 1,)),
                             PrimeSite("i", ring, (x * x + 1,), "principal-irreducible"),
                             PrimeSite("generic", ring, ())))
    k = koszul_complex_super(alg, [x, x - 1])  # exact, so every check needs every rank
    parts = [free_columns(alg, k.shapes[i], k.shapes[i + 1], m)
             for i, m in enumerate(k.matrices)]
    assert all(even == odd for even, odd in parts)
    assert supph_sites(k, space) == space.sites_in_closed(supph_super(k)) == set()
    assert rank_spy == [even for even, _ in parts] * len(space.sites)


def test_odd_entries_rank_both_parities(line, rank_spy):
    ring, alg = line
    x = ring.var("x")
    space = SiteSpace(ring, (PrimeSite("origin", ring, (x,)),
                             PrimeSite("one", ring, (x - 1,)),
                             PrimeSite("minus", ring, (x + 1,)),
                             PrimeSite("generic", ring, ())))
    entries = {(0, 0): (((), x),), (1, 1): (((), x - 1),), (0, 1): (((0,), ring.one()),)}
    cx = SuperComplex(alg, 0, ((1, 1), (1, 1)), (entries,))
    even, odd = free_columns(alg, (1, 1), (1, 1), cx.matrices[0])
    assert even != odd
    assert supph_sites(cx, space) == space.sites_in_closed(supph_super(cx)) == {"origin", "one"}
    # on the support the even check already fails; off it both parities are ranked
    assert rank_spy == [even, even, even, odd, even, odd]


def test_super_corpus_ranks_each_fibre_matrix_once(monkeypatch):
    """Work counts of the default-seed super corpus with empty caches.
    Ranking each distinct component matrix of a complex once per site, and
    only up to the first failed check, took them from 996 fibre ranks and
    4,764 normal forms to 575 and 2,833; ranking each parity apart, or
    ranking every matrix up front, would exceed them.  Taking no normal
    form of a zero entry or of a zero difference then took the normal
    forms to 1,366.  Ranking on packed terms takes no normal form: it
    divides each nonzero entry and each nonzero difference once by the
    site's reducers: 1,275 divisions, the 1,366 normal forms less the 91
    of zero differences.  281 of those were at the generic site, where
    there is no reducer to divide by; dividing nothing there leaves 994."""
    monkeypatch.setattr(supermod, "_SITE_GB_CACHE", {})
    polyring._radical_member.cache_clear()
    counts = {"_fibre_rank": 0, "divide": 0}
    real_rank, real_divide = supermod._fibre_rank, polymod._Reducers.divide
    ranking = []

    def rank(columns, basis):
        counts["_fibre_rank"] += 1
        ranking.append(True)
        try:
            return real_rank(columns, basis)
        finally:
            ranking.pop()

    def divide(self, *args, **kwargs):
        counts["divide"] += bool(ranking)  # the Groebner runs divide too
        return real_divide(self, *args, **kwargs)

    monkeypatch.setattr(supermod, "_fibre_rank", rank)
    monkeypatch.setattr(polymod._Reducers, "divide", divide)
    super_support_corpus(DEFAULT_SEED)
    assert counts["_fibre_rank"] <= 575
    assert 0 < counts["divide"] <= 994


def test_uncertified_sites_fall_back_on_cohomology_once_per_complex(line, supph_spy):
    ring, alg = line
    x = ring.var("x")
    space = SiteSpace(ring, (PrimeSite("origin", ring, (x,)),
                             PrimeSite("i", ring, (x * x + 1,)),  # declared: uncertified
                             PrimeSite("i2", ring, (x * x + 4,)),
                             PrimeSite("generic", ring, ())))
    complexes = [koszul_complex_super(alg, [f])
                 for f in (x, x * x + 1, x * (x * x + 4), ring.one())]
    complexes.append(direct_sum_supercomplex(complexes[1], complexes[2]))
    for cx in complexes:
        want = space.sites_in_closed(supph_super(cx))
        supph_spy.clear()
        assert supph_sites(cx, space) == want
        assert len(supph_spy) == 1


def test_certified_sites_never_build_cohomology(line, supph_spy):
    ring, alg = line
    x = ring.var("x")
    space = SiteSpace(ring, (PrimeSite("origin", ring, (x,)),
                             PrimeSite("i", ring, (x * x + 1,), "principal-irreducible"),
                             PrimeSite("generic", ring, ())))
    k = koszul_complex_super(alg, [x * (x * x + 1)])
    assert supph_sites(k, space) == {"origin", "i"}
    assert supph_sites(shift_supercomplex(k, 1), space) == {"origin", "i"}
    assert supph_sites(koszul_complex_super(alg, []), space) == set(space.labels())
    assert supph_spy == []


def test_site_basis_cache_evicts_oldest_past_its_bound(line, monkeypatch):
    ring, alg = line
    x = ring.var("x")
    monkeypatch.setattr(supermod, "_SITE_GB_CACHE", {})
    monkeypatch.setattr(supermod, "_SITE_GB_CACHE_MAX", 2)
    sites = [PrimeSite(f"p{k}", ring, (x - k,)) for k in range(4)]
    k2 = koszul_complex_super(alg, [x - 2])
    for site in sites:
        assert supph_sites(k2, SiteSpace(ring, (site,))) == (
            {"p2"} if site.label == "p2" else set())
    assert list(supermod._SITE_GB_CACHE) == sites[2:]  # the two oldest are gone


def test_a_site_hashes_its_generators_once(line, monkeypatch):
    ring, _ = line
    x = ring.var("x")
    a = PrimeSite("p", ring, (x - 1,), "rational-point")
    b = PrimeSite("p", ring, (x - 1,), "rational-point")
    assert a is not b and a == b and hash(a) == hash(b)
    monkeypatch.setattr(supermod, "_SITE_GB_CACHE", {})
    hashed = []
    real = Poly.__hash__

    def spy(p):
        hashed.append(p)
        return real(p)

    monkeypatch.setattr(Poly, "__hash__", spy)
    basis = supermod._site_basis(a)
    first = len(hashed)
    for _ in range(3):
        assert supermod._site_basis(a) is basis
        assert supermod._site_basis(b) is basis
    assert len(hashed) == first
    assert list(supermod._SITE_GB_CACHE) == [a]
