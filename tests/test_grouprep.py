"""Groups, characters, projectors, decompositions.

Derived expectations and their oracles:
  - fixed spaces are brute-forced by enumerating all vectors over F_7
  - isotypic ranks come from the character inner product
    m = (1/|G|) sum chi(g^{-1}) trace rho(g), rank = degree * m
  - witness tensors for C2 are small enough to freeze entry by entry, and
    every witness is checked against the sum over all k! orderings of the
    orbit's Kronecker product
"""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    isotypic_projector,
    perm_cycle_name,
    regular_representation,
    representation_from_forms,
    s3_character_table,
    s3_group,
    _inv_order,
    trivial_summand_witness,
)


class TestFiniteGroup:
    def test_cyclic_tables(self):
        g = cyclic_group(4)
        assert g.order == 4
        assert g.multiply(1, 3) == 0
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
    return fld.div(s, fld.from_int(g.order))


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
        g = cyclic_group(1, names=("e",))
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
