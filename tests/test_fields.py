from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:
    sympy = None

from ttkit.errors import DomainMismatchError, ValidationError
from ttkit.fields import GF, QQ, Echelon, Field, Matrix, kernel_basis, rank, rref, solve
from ttkit.polymod import module_groebner
from ttkit.polyring import PolyRing


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
    # an int stands for an integral rational; a bool and a float do not
    QQ.check(3)
    QQ.check(Fraction(3))
    for bad in (True, 0.5):
        with pytest.raises(DomainMismatchError) as err:
            QQ.check(bad)
        assert str(err.value) == f"expected rational scalar, got {bad!r}"
    with pytest.raises(DomainMismatchError):
        GF(5).check(7)  # out of range residue


@pytest.mark.parametrize(
    "field, bad, message",
    [
        (GF(5), True, "expected residue mod 5, got True"),
        (QQ, True, "expected rational scalar, got True"),
        (GF(5), 5, "expected residue mod 5, got 5"),
        (GF(5), -1, "expected residue mod 5, got -1"),
        (GF(5), Fraction(1, 2), "expected residue mod 5, got Fraction(1, 2)"),
        (QQ, 0.5, "expected rational scalar, got 0.5"),
    ],
)
def test_matrix_rejects_each_bad_entry_kind(field, bad, message):
    good = field.one()
    for entries in ((bad, good, good, good), (good, good, good, bad)):
        with pytest.raises(DomainMismatchError) as err:
            Matrix(field, 2, 2, entries)
        assert str(err.value) == message


def test_matrix_from_rows_rejects_entries_outside_the_field():
    # from_rows maps plain ints into the field first; what is left to
    # reject is a scalar of the wrong kind.
    with pytest.raises(DomainMismatchError) as err:
        Matrix.from_rows(GF(5), [[1, Fraction(1, 2)], [0, 1]])
    assert str(err.value) == "expected residue mod 5, got Fraction(1, 2)"
    with pytest.raises(DomainMismatchError) as err:
        Matrix.from_rows(QQ, [[Fraction(1), 0.5]])
    assert str(err.value) == "expected rational scalar, got 0.5"
    assert Matrix.from_rows(GF(5), [[7, -1]]).entries == (2, 4)
    assert Matrix.from_rows(QQ, [[3]]).entries == (Fraction(3),)


@pytest.mark.parametrize(
    "field, rows, message",
    [
        (GF(5), [[True, 7]], "expected residue mod 5, got True"),
        (QQ, [[True]], "expected rational scalar, got True"),
        (QQ, [[Fraction(1), False]], "expected rational scalar, got False"),
    ],
)
def test_matrix_from_rows_passes_bools_to_the_check(field, rows, message):
    # a bool is an int to Python but no scalar of either field, as for
    # the constructor and Field.check
    with pytest.raises(DomainMismatchError) as err:
        Matrix.from_rows(field, rows)
    assert str(err.value) == message


def test_mixed_field_matrix_ops_rejected():
    a = mat_q([[1]])
    b = Matrix.from_rows(GF(5), [[1]])
    with pytest.raises(DomainMismatchError):
        a.add(b)
    with pytest.raises(DomainMismatchError):
        a.mul(b)
    with pytest.raises(DomainMismatchError):
        solve(a, b)


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
    assert_field_typed(red)


# -- the sparse echelon against independent oracles --------------------------------


@st.composite
def row_sequences(draw):
    """A field and rows over it, sparse, some of them combinations of two
    earlier rows, so the rank often stays put."""
    fld = draw(st.sampled_from([QQ, GF(7), GF(32003)]))
    c = draw(st.integers(min_value=1, max_value=6))
    value = st.one_of(st.just(Fraction(0)), small_rats)
    scalar = lambda q: fld.from_fraction(q.numerator, q.denominator)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if len(rows) >= 2 and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = scalar(draw(small_rats)), scalar(draw(small_rats))
            rows.append([fld.add(fld.mul(a, x), fld.mul(b, y)) for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([scalar(draw(value)) for _ in range(c)])
    return fld, rows


@given(row_sequences())
@settings(max_examples=100, deadline=None)
def test_echelon_grows_exactly_when_the_dense_rank_grows(case):
    fld, rows = case

    ranks = [len(dense_rref(Matrix.from_rows(fld, rows[:k]))[1]) for k in range(len(rows) + 1)]
    echelon = Echelon(fld)
    for k, row in enumerate(rows):
        grows = ranks[k + 1] > ranks[k]
        assert (echelon.reduce(enumerate(row)) is not None) == grows
        assert echelon.add(enumerate(row)) == grows
    assert len(echelon.pivots) == ranks[-1]
    for lead, (lc, tail) in echelon.pivots.items():
        coeffs = [lc] + [a for _, a in tail]
        assert all(type(a) is int for a in coeffs) and all(j > lead for j, _ in tail)
        if fld.is_rational:
            assert lc > 0 and gcd(*coeffs) == 1
        else:
            assert lc == 1


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@given(q_matrices(max_dim=6))
@settings(max_examples=60, deadline=None)
def test_rref_matches_sympy_over_qq(m):
    theirs, their_pivots = sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(a.numerator, a.denominator) for a in m.entries]).rref()
    red, pivots = rref(m)
    assert pivots == tuple(their_pivots)
    assert red.entries == tuple(Fraction(int(a.p), int(a.q)) for a in theirs)


@given(sparse_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_reads_the_dense_rref_of_the_augmented_matrix(m, data):
    f = m.field
    column = data.draw(st.lists(st.integers(min_value=-5, max_value=5),
                                min_size=m.rows, max_size=m.rows))
    b = Matrix.from_rows(f, [[a] for a in column])
    aug = Matrix.from_rows(f, [list(m.row(i)) + [column[i]] for i in range(m.rows)])
    entries, pivots = dense_rref(aug)
    x = solve(m, b)
    if m.cols in pivots:
        assert x is None
        return
    want = [f.zero()] * m.cols
    for r, pc in enumerate(pivots):
        want[pc] = entries[r * aug.cols + m.cols]
    assert x.entries == tuple(want)
    assert m.mul(x).equals(b)


# -- the sparse product against the dense triple loop ------------------------------


def dense_mul(a, b):
    """The dense triple loop that the sparse `Matrix.mul` replaced."""
    f = a.field
    out = []
    for i in range(a.rows):
        ri = a.row(i)
        for j in range(b.cols):
            acc = f.zero()
            for k in range(a.cols):
                acc = f.add(acc, f.mul(ri[k], b.at(k, j)))
            out.append(acc)
    return Matrix(f, a.rows, b.cols, tuple(out))


def zero_heavy(draw, f, rows, cols):
    """A rows x cols matrix over f, about two thirds of its entries zero."""
    nonzero = (st.fractions(min_value=-4, max_value=4, max_denominator=3) if f.p == 0
               else st.integers(min_value=1, max_value=f.p - 1))
    entry = st.one_of(st.just(f.zero()), st.just(f.zero()), nonzero)
    return Matrix(f, rows, cols, tuple(draw(entry) for _ in range(rows * cols)))


@st.composite
def products(draw):
    """(a, b) with a r x k and b k x c over one field; any of r, k, c may
    be 0, so r x 0 times 0 x c is drawn too."""
    f = draw(st.sampled_from([QQ, GF(2), GF(7), GF(32003)]))
    r, k, c = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    return zero_heavy(draw, f, r, k), zero_heavy(draw, f, k, c)


def is_canonical(f, a) -> bool:
    """Over QQ an int exactly when the denominator is 1, otherwise a
    Fraction, never a bool; over GF(p) an int in [0, p)."""
    if f.p == 0:
        return type(a) is int or type(a) is Fraction and a.denominator != 1
    return type(a) is int and 0 <= a < f.p


def assert_field_typed(m):
    for a in m.entries:
        assert is_canonical(m.field, a), a


@given(products())
@settings(max_examples=200, deadline=None)
def test_sparse_product_matches_the_dense_triple_loop(case):
    a, b = case
    got, want = a.mul(b), dense_mul(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols) == (a.rows, b.cols)
    assert got.entries == want.entries
    assert_field_typed(got)


def test_sums_become_field_values_once():
    assert type(QQ.from_sum(0)) is int and QQ.from_sum(0) == 0
    assert QQ.from_sum(Fraction(1, 2) - Fraction(1, 2)) == Fraction(0)
    assert type(QQ.from_sum(Fraction(1, 2) + Fraction(1, 2))) is int
    assert QQ.from_sum(Fraction(3, 4)) == Fraction(3, 4)
    assert GF(7).from_sum(6 * 6 + 5 * 3) == 51 % 7
    assert GF(7).from_sum(0) == 0
    zero = Matrix.from_rows(QQ, [[0, 0]]).mul(Matrix.from_rows(QQ, [[1], [2]]))
    assert zero.entries == (Fraction(0),)
    assert_field_typed(Matrix.zero(QQ, 2, 0).mul(Matrix.zero(QQ, 0, 3)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_every_qq_value_is_canonical(data):
    """Over QQ every constructor, inverse, sum, echelon answer and reduced
    module basis gives an int exactly when the denominator is 1, and
    `inv` never a float: `1 / n` on an int would be one."""
    n = data.draw(st.integers(min_value=-12, max_value=12))
    d = data.draw(st.integers(min_value=-4, max_value=4).filter(bool))
    q = data.draw(small_rats)
    values = [QQ.zero(), QQ.one(), QQ.from_int(n), QQ.from_fraction(n, d),
              QQ.from_fraction(n * d, d), QQ.from_sum(q), QQ.from_sum(q + (n - q))]
    values += [QQ.inv(a) for a in (n, d, q, Fraction(1, d)) if a]
    assert all(is_canonical(QQ, a) for a in values), values

    m = data.draw(q_matrices())
    b = Matrix(QQ, m.rows, 1, tuple(data.draw(small_rats) for _ in range(m.rows)))
    for got in (rref(m)[0], kernel_basis(m), solve(m, b)):
        if got is not None:
            assert_field_typed(got)

    ring = PolyRing(QQ, ("x", "y"))
    rank_ = data.draw(st.integers(min_value=1, max_value=2))
    term = st.tuples(st.tuples(*[st.integers(min_value=0, max_value=2)] * 2), small_rats)
    poly = st.lists(term, max_size=3).map(ring.from_terms)
    gens = data.draw(st.lists(st.tuples(*[poly] * rank_), min_size=1, max_size=3))
    for v in module_groebner(gens):
        assert all(is_canonical(QQ, c) for p in v for _, c in p.terms), v
