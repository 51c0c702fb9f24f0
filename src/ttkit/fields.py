"""Exact scalar arithmetic over Q and F_p, and dense matrices over those fields.

Scalars are plain Python values: `fractions.Fraction` over Q, `int` in
[0, p) over F_p.  A `Field` object checks values and does the arithmetic
here; a value of the wrong kind, or matrices over different fields, raise
`DomainMismatchError`.  The hot loops elsewhere write the representation
out inline to save a method call per product (`Fraction` arithmetic when
`p == 0`, else reduction `% p`): `Poly` sums and products in `polyring`,
the division loop and the membership oracle in `polymod`, and the F_p
polynomial arithmetic in `geometry`.  Everything here is immutable and
deterministic:
row reduction picks the first nonzero pivot scanning top to bottom, left
to right, so equal inputs give identical outputs.  Matrices are stored
dense, but row reduction is sparse in the pivot row: each elimination step
touches only the columns where the pivot row is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainMismatchError, ValidationError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """A coefficient field: the rationals (p == 0) or F_p (p prime).

    Values of the field are Fraction (p == 0) or int in [0, p).
    """

    p: int = 0

    def __post_init__(self) -> None:
        if self.p != 0 and not _is_prime(self.p):
            raise ValidationError(f"field characteristic {self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p == 0

    def __repr__(self) -> str:
        return "QQ" if self.p == 0 else f"GF({self.p})"

    def describe(self) -> str:
        """Ring descriptor in the serialization grammar: 'Q' or 'Fp:<p>'."""
        return "Q" if self.p == 0 else f"Fp:{self.p}"

    @staticmethod
    def parse(text: str) -> "Field":
        text = text.strip()
        if text == "Q":
            return Field(0)
        if text.startswith("Fp:"):
            return Field(int(text[3:]))
        raise ValidationError(f"unknown field descriptor {text!r} (expected 'Q' or 'Fp:<p>')")

    # -- scalar construction ------------------------------------------------

    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p == 0 else n % self.p

    def from_fraction(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if self.p == 0:
            return Fraction(num, den)
        return (num % self.p) * self.inv(den % self.p) % self.p

    def check(self, a) -> None:
        if self.p == 0:
            if not isinstance(a, Fraction):
                raise DomainMismatchError(f"expected rational scalar, got {a!r}")
        else:
            if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.p:
                raise DomainMismatchError(f"expected residue mod {self.p}, got {a!r}")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def inv(self, a):
        if self.p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / a
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def scalar_repr(self, a) -> str:
        if self.p == 0:
            if a.denominator == 1:
                return str(a.numerator)
            return f"{a.numerator}/{a.denominator}"
        return str(a)


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over an exact field, row-major entries."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValidationError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValidationError(
                f"matrix shape {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for a in self.entries:
            self.field.check(a)

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValidationError("ragged rows")
            flat.extend(row)
        ent = tuple(field.from_int(a) if isinstance(a, int) else a for a in flat)
        return Matrix(field, r, c, ent)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, (field.zero(),) * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        ent = tuple(o if i == j else z for i in range(n) for j in range(n))
        return Matrix(field, n, n, ent)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def _match(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise DomainMismatchError(f"mixed fields {self.field} and {other.field}")

    def add(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainMismatchError("shape mismatch in matrix addition")
        f = self.field
        ent = tuple(f.add(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(f, self.rows, self.cols, ent)

    def scale(self, c) -> "Matrix":
        f = self.field
        f.check(c)
        return Matrix(f, self.rows, self.cols, tuple(f.mul(c, a) for a in self.entries))

    def mul(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if self.cols != other.rows:
            raise DomainMismatchError("shape mismatch in matrix product")
        f = self.field
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = f.zero()
                for k in range(self.cols):
                    acc = f.add(acc, f.mul(ri[k], other.at(k, j)))
                out.append(acc)
        return Matrix(f, self.rows, other.cols, tuple(out))

    def hstack(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if self.rows != other.rows:
            raise DomainMismatchError("row mismatch in hstack")
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return Matrix(self.field, self.rows, self.cols + other.cols, tuple(ent))

    def is_zero(self) -> bool:
        return all(self.field.is_zero(a) for a in self.entries)

    def equals(self, other: "Matrix") -> bool:
        return (
            self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with the pivot columns.

    Deterministic: for each column left to right, the pivot row is the first
    row (top to bottom, among unused rows) with a nonzero entry.  Every
    column left of the pivot is zero in the unused rows, so each step scales
    and eliminates with the pivot row's nonzero columns only.
    """
    p = m.field.p
    inverse = m.field.inv
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        inv = inverse(prow[c])
        nz = [j for j in range(c, m.cols) if prow[j] != 0]
        for j in nz:
            prow[j] = inv * prow[j] if p == 0 else inv * prow[j] % p
        for i, row in enumerate(rows):
            factor = row[c]
            if i == r or factor == 0:
                continue
            if p == 0:
                for j in nz:
                    row[j] = row[j] - factor * prow[j]
            else:
                for j in nz:
                    row[j] = (row[j] - factor * prow[j]) % p
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    flat = tuple(a for row in rows for a in row)
    return Matrix(m.field, m.rows, m.cols, flat), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Matrix whose columns are a basis of the right kernel of m.

    Satisfies m * kernel_basis(m) == 0 and
    rank(m) + kernel_basis(m).cols == m.cols.  Columns are ordered by the
    free column they normalize (ascending), each with a 1 in that slot.
    """
    f = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    cols = []
    for fc in free:
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r_idx, pc in enumerate(pivots):
            v[pc] = f.neg(red.at(r_idx, fc))
        cols.append(v)
    ent = tuple(cols[j][i] for i in range(m.cols) for j in range(len(cols)))
    return Matrix(f, m.cols, len(cols), ent)


def solve(m: Matrix, b: Matrix):
    """One solution x of m x = b (b a column), or None if inconsistent."""
    if b.cols != 1 or b.rows != m.rows:
        raise DomainMismatchError("right-hand side must be a column of matching height")
    f = m.field
    red, pivots = rref(m.hstack(b))
    if any(p == m.cols for p in pivots):
        return None
    x = [f.zero()] * m.cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = red.at(r_idx, m.cols)
    return Matrix(f, m.cols, 1, tuple(x))

