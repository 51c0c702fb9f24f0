from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit.errors import DomainMismatchError, ValidationError
from ttkit.fields import GF, QQ, Field, Matrix, kernel_basis, rank, rref, solve


def mat_q(rows):
    return Matrix.from_rows(QQ, [[Fraction(a) for a in row] for row in rows])


def test_field_descriptor_round_trip():
    assert Field.parse("Q") == QQ
    assert Field.parse("Fp:7") == GF(7)
    assert GF(7).describe() == "Fp:7"
    assert QQ.describe() == "Q"


def test_composite_characteristic_rejected():
    with pytest.raises(ValidationError):
        GF(6)
    with pytest.raises(ValidationError):
        GF(1)


def test_scalar_domain_checks():
    with pytest.raises(DomainMismatchError):
        GF(5).check(Fraction(1, 2))
    with pytest.raises(DomainMismatchError):
        QQ.check(3)  # plain int is not a rational scalar
    with pytest.raises(DomainMismatchError):
        GF(5).check(7)  # out of range residue


@pytest.mark.parametrize(
    "field, bad, message",
    [
        (GF(5), True, "expected residue mod 5, got True"),
        (QQ, 3, "expected rational scalar, got 3"),
        (GF(5), 5, "expected residue mod 5, got 5"),
        (GF(5), -1, "expected residue mod 5, got -1"),
        (GF(5), Fraction(1, 2), "expected residue mod 5, got Fraction(1, 2)"),
    ],
)
def test_matrix_rejects_each_bad_entry_kind(field, bad, message):
    good = field.one()
    for entries in ((bad, good, good, good), (good, good, good, bad)):
        with pytest.raises(DomainMismatchError) as err:
            Matrix(field, 2, 2, entries)
        assert str(err.value) == message


def test_matrix_from_rows_rejects_entries_outside_the_field():
    # from_rows maps plain ints (and so bools) into the field first; what
    # is left to reject is a scalar of the wrong kind.
    with pytest.raises(DomainMismatchError) as err:
        Matrix.from_rows(GF(5), [[1, Fraction(1, 2)], [0, 1]])
    assert str(err.value) == "expected residue mod 5, got Fraction(1, 2)"
    with pytest.raises(DomainMismatchError) as err:
        Matrix.from_rows(QQ, [[Fraction(1), 0.5]])
    assert str(err.value) == "expected rational scalar, got 0.5"
    assert Matrix.from_rows(GF(5), [[True, 7, -1]]).entries == (1, 2, 4)
    assert Matrix.from_rows(QQ, [[3]]).entries == (Fraction(3),)


def test_mixed_field_matrix_ops_rejected():
    a = mat_q([[1]])
    b = Matrix.from_rows(GF(5), [[1]])
    with pytest.raises(DomainMismatchError):
        a.add(b)
    with pytest.raises(DomainMismatchError):
        a.mul(b)


def test_rref_hand_worked_rank_one():
    # Gaussian elimination by hand: [[1,2],[2,4]] -> [[1,2],[0,0]], rank 1.
    m = mat_q([[1, 2], [2, 4]])
    red, pivots = rref(m)
    assert red.equals(mat_q([[1, 2], [0, 0]]))
    assert pivots == (0,)
    assert rank(m) == 1


def test_rref_identity_fixed_point():
    m = Matrix.identity(QQ, 3)
    red, pivots = rref(m)
    assert red.equals(m)
    assert pivots == (0, 1, 2)


def test_kernel_basis_f5_against_enumeration():
    # Oracle: enumerate all of F_5^2 and keep the vectors killed by [[1,1]].
    f = GF(5)
    m = Matrix.from_rows(f, [[1, 1]])
    kb = kernel_basis(m)
    assert kb.cols == 1
    enumerated = [
        (a, b) for a, b in product(range(5), repeat=2) if (a + b) % 5 == 0
    ]
    assert len(enumerated) == 5
    spanned = {tuple((c * kb.at(i, 0)) % 5 for i in range(2)) for c in range(5)}
    assert spanned == set(enumerated)
    assert m.mul(kb).is_zero()


def test_solve_consistent_and_inconsistent():
    m = mat_q([[1, 2], [2, 4]])
    b = mat_q([[1], [2]])
    x = solve(m, b)
    assert x is not None and m.mul(x).equals(b)
    bad = mat_q([[1], [3]])
    assert solve(m, bad) is None


small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def q_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_rats, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
    return Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in rows])


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    red, _ = rref(m)
    red2, _ = rref(red)
    assert red2.equals(red)


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_is_killed_and_complements_rank(m):
    kb = kernel_basis(m)
    assert rank(m) + kb.cols == m.cols
    if kb.cols:
        assert m.mul(kb).is_zero()


@st.composite
def fp_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(min_value=1, max_value=3))
    c = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return p, Matrix.from_rows(GF(p), rows)


@given(fp_matrices())
@settings(max_examples=40, deadline=None)
def test_fp_rank_against_row_span_enumeration(pm):
    # Oracle: the row space of an r x c matrix over F_p has p^rank elements.
    p, m = pm
    vectors = set()
    rows = [m.row(i) for i in range(m.rows)]
    for coeffs in product(range(p), repeat=m.rows):
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(m.cols))
        vectors.add(v)
    assert len(vectors) == p ** rank(m)


# -- sparse pivot-row elimination against the dense reference ----------------------


def dense_rref(m):
    """The dense elimination `rref` replaced: scale and eliminate whole rows."""
    f = m.field
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if not f.is_zero(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, a) for a in rows[r]]
        for i in range(m.rows):
            if i != r and not f.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return tuple(a for row in rows for a in row), tuple(pivots)


@st.composite
def sparse_matrices(draw):
    """Tall, wide and square matrices over QQ or GF(p), mostly zeros, with
    some columns forced to zero."""
    fld = draw(st.sampled_from([QQ, GF(2), GF(7), GF(32003)]))
    r = draw(st.integers(min_value=1, max_value=7))
    c = draw(st.integers(min_value=1, max_value=7))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=c - 1), max_size=c))
    value = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5))
    rows = [
        [0 if j in zero_cols else draw(value) for j in range(c)] for _ in range(r)
    ]
    return Matrix.from_rows(fld, rows)


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_dense_elimination(m):
    red, pivots = rref(m)
    entries, ref_pivots = dense_rref(m)
    assert red.entries == entries
    assert pivots == ref_pivots
    assert [type(a) for a in red.entries] == [type(a) for a in entries]
