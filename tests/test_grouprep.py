"""Groups, characters, projectors, decompositions.

Derived expectations and their oracles:
  - fixed spaces are brute-forced by enumerating all vectors over F_7
  - isotypic ranks come from the character inner product
    m = (1/|G|) sum chi(g^{-1}) trace rho(g), rank = degree * m
  - witness tensors for C2 are small enough to freeze entry by entry, and
    every witness is checked against the sum over all k! orderings of the
    orbit's Kronecker product
  - validation certifies homomorphisms on the group's generators; the
    oracle multiplies all |G|^2 pairs, and the generated subgroup is
    brute-forced by multiplying until nothing new appears
"""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit.equivariant import RingAction
from ttkit.errors import DomainMismatchError, PreconditionError, ValidationError
from ttkit.fields import GF, QQ, Matrix, rank
from ttkit.grouprep import (
    CharacterTable,
    FiniteGroup,
    Representation,
    c2_character_table,
    c3_character_table,
    canonical_decompose,
    cyclic_group,
    find_cube_root,
    homomorphism_failure,
    images_from_generators,
    isotypic_projector,
    perm_cycle_name,
    regular_representation,
    representation_from_forms,
    s3_character_table,
    s3_group,
    _apply_tensor_power,
    _inv_order,
    trivial_summand_witness,
)
from ttkit.polyring import PolyRing


class TestFiniteGroup:
    def test_cyclic_tables(self):
        g = cyclic_group(4)
        assert g.order == 4
        assert g.table[1][3] == 0
        assert g.inverse(1) == 3

    def test_s3_from_permutations(self):
        g = s3_group()
        assert g.order == 6
        assert set(g.names) == {"e", "(12)", "(13)", "(23)", "(123)", "(132)"}
        sizes = sorted(len(c) for c in g.conjugacy_classes())
        assert sizes == [1, 2, 3]

    def test_cycle_names(self):
        assert perm_cycle_name((0, 1, 2)) == "e"
        assert perm_cycle_name((1, 0, 2)) == "(12)"
        assert perm_cycle_name((1, 2, 0)) == "(123)"

    def test_broken_table_rejected(self):
        # a "multiplication" with identity but a non-associative corner
        with pytest.raises(ValidationError):
            FiniteGroup.from_table(
                ["e", "a", "b"],
                [[0, 1, 2], [1, 0, 0], [2, 0, 1]],
            )

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValidationError):
            FiniteGroup.from_permutations([(0, 0, 1)])


class TestCharacterTables:
    def test_bundled_tables_validate(self):
        c2_character_table(QQ)
        c2_character_table(GF(5))
        c3_character_table(GF(7))
        s3_character_table(QQ)
        s3_character_table(GF(7))

    def test_cube_roots(self):
        assert find_cube_root(GF(7)) == 2
        with pytest.raises(ValidationError):
            find_cube_root(QQ)
        with pytest.raises(ValidationError):
            find_cube_root(GF(5))

    def test_non_split_degrees_rejected(self):
        g = cyclic_group(2)
        t = CharacterTable(
            g, QQ, ("a", "b"), (1, 2),
            ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(0))),
        )
        with pytest.raises(ValidationError):
            t.validate()

    def test_orthogonality_enforced(self):
        g = cyclic_group(2)
        one = Fraction(1)
        t = CharacterTable(g, QQ, ("a", "b"), (1, 1), ((one, one), (one, one)))
        with pytest.raises(ValidationError):
            t.validate()

    def test_modular_characteristic_rejected(self):
        g = cyclic_group(2)
        f = GF(2)
        t = CharacterTable(g, f, ("a", "b"), (1, 1),
                           ((f.one(), f.one()), (f.one(), f.one())))
        with pytest.raises(DomainMismatchError):
            t.validate()

    def test_wrong_matrix_forms_rejected(self):
        g = cyclic_group(2)
        one = Fraction(1)
        bad = tuple(Matrix.identity(QQ, 1) for _ in range(2))  # sign needs -1
        t = CharacterTable(g, QQ, ("triv", "sign"), (1, 1),
                           ((one, one), (one, -one)), (None, bad))
        with pytest.raises(ValidationError):
            t.validate()


def c2_swap_rep(fld):
    g = cyclic_group(2)
    return representation_from_forms(
        g, fld,
        [Matrix.identity(fld, 2),
         Matrix.from_rows(fld, [[fld.zero(), fld.one()], [fld.one(), fld.zero()]])],
    )


def c2_sign_rep(fld):
    g = cyclic_group(2)
    return representation_from_forms(
        g, fld,
        [Matrix.identity(fld, 1), Matrix.from_rows(fld, [[fld.neg(fld.one())]])],
    )


def reynolds(rep):
    """Averaging projector onto the fixed subspace: the trivial isotypic projector."""
    fld = rep.field
    acc = Matrix.zero(fld, rep.dim, rep.dim)
    for m in rep.matrices:
        acc = acc.add(m)
    return acc.scale(_inv_order(fld, rep.group.order))


class TestReynolds:
    def test_trivial_rep_identity(self):
        g = cyclic_group(3)
        rep = representation_from_forms(g, QQ, [Matrix.identity(QQ, 2)] * 3)
        assert reynolds(rep).equals(Matrix.identity(QQ, 2))

    def test_sign_rep_zero(self):
        assert reynolds(c2_sign_rep(QQ)).is_zero()

    def test_c3_regular_over_f7_fixed_space(self):
        f = GF(7)
        rep = regular_representation(cyclic_group(3), f)
        p = reynolds(rep)
        assert rank(p) == 1
        # oracle: enumerate all of F_7^3 and keep the vectors fixed by every element
        fixed = [
            v for v in product(range(7), repeat=3)
            if all(rep.apply(a, v) == v for a in range(3))
        ]
        assert sorted(fixed) == sorted((c, c, c) for c in range(7))
        # image of the projector consists of fixed vectors
        for j in range(3):
            col = tuple(p.at(i, j) for i in range(3))
            assert all(rep.apply(a, col) == col for a in range(3))

    def test_idempotent_and_commuting(self):
        rep = c2_swap_rep(QQ)
        p = reynolds(rep)
        assert p.mul(p).equals(p)
        for m in rep.matrices:
            assert m.mul(p).equals(p.mul(m))

    def test_modular_rejected(self):
        g = cyclic_group(2)
        rep = Representation(g, GF(2), 1, tuple(Matrix.identity(GF(2), 1) for _ in range(2)))
        with pytest.raises(DomainMismatchError):
            reynolds(rep)


def char_multiplicity_oracle(rep, table, name):
    """m = (1/|G|) sum_g chi(g^{-1}) trace(rho(g)), computed independently."""
    fld, g = rep.field, rep.group
    k = table.irrep_index(name)
    s = fld.zero()
    for a in range(g.order):
        tr = fld.zero()
        for i in range(rep.dim):
            tr = fld.add(tr, rep.matrices[a].at(i, i))
        s = fld.add(s, fld.mul(table.values[k][g.inverse(a)], tr))
    return fld.mul(s, fld.inv(fld.from_int(g.order)))


class TestIsotypicProjectors:
    def test_trivial_piece_is_reynolds(self):
        rep = c2_swap_rep(QQ)
        t = c2_character_table(QQ)
        assert isotypic_projector(rep, t, "triv").equals(reynolds(rep))

    def test_irreducible_sees_itself(self):
        t = s3_character_table(QQ)
        rep = representation_from_forms(s3_group(), QQ, list(t.forms_for("std")))
        assert isotypic_projector(rep, t, "std").equals(Matrix.identity(QQ, 2))
        assert isotypic_projector(rep, t, "triv").is_zero()
        assert isotypic_projector(rep, t, "sign").is_zero()

    def test_s3_regular_ranks(self):
        t = s3_character_table(QQ)
        rep = regular_representation(s3_group(), QQ)
        expected = {"triv": 1, "sign": 1, "std": 4}
        for name, r in expected.items():
            e = isotypic_projector(rep, t, name)
            assert rank(e) == r
            deg = t.degrees[t.irrep_index(name)]
            assert char_multiplicity_oracle(rep, t, name) == Fraction(r, deg)

    def test_resolution_of_identity(self):
        t = s3_character_table(QQ)
        rep = regular_representation(s3_group(), QQ)
        es = [isotypic_projector(rep, t, n) for n in t.names]
        total = es[0]
        for e in es[1:]:
            total = total.add(e)
        assert total.equals(Matrix.identity(QQ, 6))
        for i, a in enumerate(es):
            assert a.mul(a).equals(a)
            for j, b in enumerate(es):
                if i != j:
                    assert a.mul(b).is_zero()
            for m in rep.matrices:
                assert m.mul(a).equals(a.mul(m))

    def test_unknown_label_rejected(self):
        rep = c2_swap_rep(QQ)
        with pytest.raises(ValidationError):
            isotypic_projector(rep, c2_character_table(QQ), "nope")


class TestCanonicalDecompose:
    def test_zero_rep_empty(self):
        g = cyclic_group(2)
        rep = Representation(g, QQ, 0, tuple(Matrix.identity(QQ, 0) for _ in range(2)))
        assert canonical_decompose(rep, c2_character_table(QQ)) == []

    def test_c2_swap(self):
        rep = c2_swap_rep(QQ)
        pieces = canonical_decompose(rep, c2_character_table(QQ))
        out = {p.name: p.multiplicity for p in pieces}
        assert out == {"triv": 1, "sign": 1}
        # hom images land on the known eigenvectors
        by_name = {p.name: p for p in pieces}
        tcol = by_name["triv"].hom_basis[0]
        assert tcol.at(0, 0) == tcol.at(1, 0) != 0
        scol = by_name["sign"].hom_basis[0]
        assert scol.at(0, 0) == -scol.at(1, 0) != 0

    def test_s3_regular_multiplicities(self):
        rep = regular_representation(s3_group(), QQ)
        pieces = canonical_decompose(rep, s3_character_table(QQ))
        assert {p.name: p.multiplicity for p in pieces} == {"triv": 1, "sign": 1, "std": 2}

    def test_c3_regular_over_f7(self):
        rep = regular_representation(cyclic_group(3), GF(7))
        pieces = canonical_decompose(rep, c3_character_table(GF(7)))
        assert {p.name: p.multiplicity for p in pieces} == {
            "triv": 1, "omega": 1, "omega2": 1,
        }

    def test_trivial_group_keeps_every_unknown_of_the_hom_space(self):
        # The trivial group has no generators, so the Hom-space equations
        # have no rows and every one of the 2 unknowns is free.
        g = cyclic_group(1)
        assert g.generators == ()
        rep = representation_from_forms(g, QQ, [Matrix.identity(QQ, 2)])
        table = CharacterTable(g, QQ, ("triv",), (1,), ((Fraction(1),),))
        table.validate()
        pieces = canonical_decompose(rep, table)
        assert [(p.name, p.multiplicity) for p in pieces] == [("triv", 2)]
        assert [f.entries for f in pieces[0].hom_basis] == [
            (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]

    def test_hom_bases_are_equivariant(self):
        t = s3_character_table(QQ)
        rep = regular_representation(s3_group(), QQ)
        for piece in canonical_decompose(rep, t):
            forms = t.forms_for(piece.name)
            for f in piece.hom_basis:
                for a in range(rep.group.order):
                    assert rep.matrices[a].mul(f).equals(f.mul(forms[a]))

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_multiplicities_intrinsic_under_conjugation(self, a, b, c, d):
        det = a * d - b * c
        if det == 0:
            return
        t = s3_character_table(QQ)
        rep = representation_from_forms(s3_group(), QQ, list(t.forms_for("std")))
        tm = Matrix.from_rows(QQ, [[Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]])
        inv = Matrix.from_rows(
            QQ,
            [[Fraction(d, det), Fraction(-b, det)], [Fraction(-c, det), Fraction(a, det)]],
        )
        conj = representation_from_forms(
            rep.group, QQ, [inv.mul(m).mul(tm) for m in rep.matrices]
        )
        p1 = {p.name: p.multiplicity for p in canonical_decompose(rep, t)}
        p2 = {p.name: p.multiplicity for p in canonical_decompose(conj, t)}
        assert p1 == p2 == {"std": 1}


class TestTrivialSummandWitness:
    def test_trivial_group_returns_vector(self):
        g = cyclic_group(1)
        rep = representation_from_forms(g, QQ, [Matrix.identity(QQ, 2)])
        v = (Fraction(3), Fraction(-1))
        assert trivial_summand_witness(rep, v) == v

    def test_c2_sign_square(self):
        rep = c2_sign_rep(QQ)
        w = trivial_summand_witness(rep, (Fraction(2),))
        # orbit is (2), (-2); the only entry of the symmetrized square is -4
        assert w == (Fraction(-4),)

    def test_c2_regular_basis_vector(self):
        rep = regular_representation(cyclic_group(2), QQ)
        w = trivial_summand_witness(rep, (Fraction(1), Fraction(0)))
        # (e1 tensor e2 + e2 tensor e1) / 2, frozen entrywise
        assert w == (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))
        # independent fixedness check: the swap exchanges both tensor slots
        assert (w[0], w[2], w[1], w[3]) == w

    def test_zero_vector_rejected(self):
        rep = c2_sign_rep(QQ)
        with pytest.raises(PreconditionError):
            trivial_summand_witness(rep, (Fraction(0),))

    def test_small_characteristic_rejected(self):
        f = GF(5)
        rep = regular_representation(s3_group(), f)
        with pytest.raises(DomainMismatchError):
            trivial_summand_witness(rep, (f.one(),) * 6)


def symmetrized_orbit_oracle(rep, v):
    """The witness as a permutation sum: (1/k!) sum over sigma in S_k of the
    Kronecker product of the orbit vectors taken in the order sigma."""
    fld, k = rep.field, rep.group.order
    orbit = [rep.apply(a, v) for a in range(k)]
    total = [fld.zero()] * (rep.dim ** k)
    for sigma in permutations(range(k)):
        term = [fld.one()]
        for j in sigma:
            term = [fld.mul(a, b) for a in term for b in orbit[j]]
        total = [fld.add(a, b) for a, b in zip(total, term)]
    inv = fld.inv(fld.from_int(math.factorial(k)))
    return tuple(fld.mul(inv, c) for c in total)


WITNESS_REPS = (
    ("c2-sign", c2_sign_rep),
    ("c2-regular", lambda f: regular_representation(cyclic_group(2), f)),
    ("c3-regular", lambda f: regular_representation(cyclic_group(3), f)),
    ("c4-regular", lambda f: regular_representation(cyclic_group(4), f)),
    ("s3-standard", lambda f: representation_from_forms(
        s3_group(), f, list(s3_character_table(f).forms_for("std")))),
)


@given(st.sampled_from(WITNESS_REPS), st.sampled_from([QQ, GF(7), GF(11)]), st.data())
@settings(max_examples=40, deadline=None)
def test_witness_matches_the_permutation_sum(case, fld, data):
    _, build = case
    rep = build(fld)
    v = tuple(fld.from_int(c) for c in data.draw(
        st.lists(st.integers(-3, 3), min_size=rep.dim, max_size=rep.dim)))
    if all(fld.is_zero(c) for c in v):
        with pytest.raises(PreconditionError):
            trivial_summand_witness(rep, v)
        return
    w = trivial_summand_witness(rep, v)
    want = symmetrized_orbit_oracle(rep, v)
    assert w == want
    assert [type(c) for c in w] == [type(c) for c in want]


def ref_apply_tensor_power(rep, a, w):
    """The loop that `_apply_tensor_power` replaced: every product and sum
    through `Field.mul` and `Field.add`, entry by entry."""
    fld, n = rep.field, rep.dim
    k = rep.group.order
    cur = list(w)
    m = rep.matrices[a]
    for axis in range(k):
        stride = n ** (k - 1 - axis)
        nxt = [fld.zero()] * len(cur)
        for idx in range(len(cur)):
            if fld.is_zero(cur[idx]):
                continue
            i_axis = (idx // stride) % n
            base = idx - i_axis * stride
            for i2 in range(n):
                c = m.at(i2, i_axis)
                if fld.is_zero(c):
                    continue
                j = base + i2 * stride
                nxt[j] = fld.add(nxt[j], fld.mul(c, cur[idx]))
        cur = nxt
    return tuple(cur)


@pytest.mark.parametrize("case", WITNESS_REPS, ids=[name for name, _ in WITNESS_REPS])
@pytest.mark.parametrize("fld", [QQ, GF(7), GF(11)], ids=repr)
@given(st.data())
@settings(max_examples=8, deadline=None)
def test_tensor_power_action_matches_the_entrywise_loop(case, fld, data):
    _, build = case
    rep = build(fld)
    size = rep.dim ** rep.group.order
    nonzero = (st.fractions(min_value=-3, max_value=3, max_denominator=3) if fld.p == 0
               else st.integers(min_value=1, max_value=fld.p - 1))
    entry = st.one_of(st.just(fld.zero()), st.just(fld.zero()), nonzero)
    for a in range(rep.group.order):
        w = tuple(data.draw(st.lists(entry, min_size=size, max_size=size)))
        got = _apply_tensor_power(rep, a, w)
        assert got == ref_apply_tensor_power(rep, a, w)
        # over QQ an int exactly when integral, otherwise a Fraction, never a bool
        assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
                   if fld.p == 0 else type(c) is int and 0 <= c < fld.p for c in got)


# -- certification on generators ---------------------------------------------------------


def klein_four_group():
    return FiniteGroup.from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)])


def s4_group():
    return FiniteGroup.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])


GROUPS = tuple(cyclic_group(n) for n in range(1, 7)) + (
    s3_group(), klein_four_group(), s4_group())
GROUP_IDS = [f"c{n}" for n in range(1, 7)] + ["s3", "klein4", "s4"]


def generated_oracle(group, elements):
    """The subgroup generated by the elements: multiply until nothing is new."""
    span = {group.identity} | set(elements)
    while True:
        more = {group.table[a][b] for a in span for b in span} - span
        if not more:
            return span
        span |= more


@given(st.sampled_from(GROUPS))
@settings(max_examples=30, deadline=None)
def test_generators_generate_and_none_is_redundant(group):
    gens = group.generators
    assert generated_oracle(group, gens) == set(range(group.order))
    assert group.closure(gens) == tuple(range(group.order))
    for i, s in enumerate(gens):
        assert s not in generated_oracle(group, gens[:i])


def all_pairs_failures(group, mats):
    """Every (a, b) with mats[a] mats[b] != mats[ab]."""
    n = group.order
    return {(a, b) for a in range(n) for b in range(n)
            if not mats[a].mul(mats[b]).equals(mats[group.table[a][b]])}


def c3_diagonal_f7():
    f7 = GF(7)
    diag = [Matrix.from_rows(f7, [[f7.from_int(a), 0], [0, f7.from_int(b)]])
            for a, b in ((1, 1), (2, 4), (4, 2))]
    return representation_from_forms(cyclic_group(3), f7, diag)


VALID_REPS = (
    ("c4-regular", lambda: regular_representation(cyclic_group(4), QQ)),
    ("s3-regular", lambda: regular_representation(s3_group(), QQ)),
    ("klein-regular", lambda: regular_representation(klein_four_group(), QQ)),
    ("s3-standard", lambda: representation_from_forms(
        s3_group(), QQ, s3_character_table(QQ).forms_for("std"))),
    ("c3-f7", c3_diagonal_f7),
    ("c3-regular-f7", lambda: regular_representation(cyclic_group(3), GF(7))),
)


def perturbed_matrices(rep, data):
    """The representation's matrices with one entry of one of them moved."""
    fld, mats = rep.field, list(rep.matrices)
    a = data.draw(st.integers(0, rep.group.order - 1), label="element")
    k = data.draw(st.integers(0, rep.dim * rep.dim - 1), label="entry")
    delta = fld.from_int(data.draw(st.integers(-2, 2), label="delta"))
    entries = list(mats[a].entries)
    entries[k] = fld.add(entries[k], delta)
    mats[a] = Matrix(fld, rep.dim, rep.dim, tuple(entries))
    return tuple(mats)


def oracle_accepts(group, mats):
    dim = mats[0].rows
    return (mats[group.identity].equals(Matrix.identity(mats[0].field, dim))
            and not all_pairs_failures(group, mats))


@given(st.sampled_from(VALID_REPS), st.data())
@settings(max_examples=60, deadline=None)
def test_representation_validation_matches_the_all_pairs_oracle(case, data):
    rep = case[1]()
    g, mats = rep.group, perturbed_matrices(rep, data)
    bad = Representation(g, rep.field, rep.dim, mats)
    if oracle_accepts(g, mats):
        bad.validate()
        assert homomorphism_failure(g, mats) is None
        return
    with pytest.raises(ValidationError):
        bad.validate()
    failure = homomorphism_failure(g, mats)
    if failure is not None:
        assert failure[0] in g.generators
        assert failure in all_pairs_failures(g, mats)


@given(st.sampled_from(VALID_REPS), st.data())
@settings(max_examples=60, deadline=None)
def test_ring_action_validation_matches_the_all_pairs_oracle(case, data):
    rep = case[1]()
    g, mats = rep.group, perturbed_matrices(rep, data)
    ring = PolyRing(rep.field, tuple(f"x{i}" for i in range(rep.dim)))
    act = RingAction(g, ring, mats)
    if oracle_accepts(g, mats):
        act.validate()
        return
    with pytest.raises(ValidationError):
        act.validate()


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_scalar_images_of_generators_are_validated_like_the_oracle(group):
    # a generating set found by the oracle, not by the group
    gens = []
    for a in range(group.order):
        if a not in generated_oracle(group, gens):
            gens.append(a)
    one = Matrix.identity(QQ, 1)
    for values in product((-1, 1, 2), repeat=len(gens)):
        images = [(s, one.scale(QQ.from_int(v))) for s, v in zip(gens, values)]
        mats = images_from_generators(group, images, one)
        rep = Representation(group, QQ, 1, mats)
        if oracle_accepts(group, mats):
            rep.validate()
        else:
            with pytest.raises(ValidationError):
                rep.validate()
