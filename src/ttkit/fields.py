"""Exact scalar arithmetic over Q and F_p, matrices over those fields, and
the one sparse echelon behind every exact linear-algebra question.

Scalars are plain Python values: over Q an `int` when the denominator is
1 and a `fractions.Fraction` otherwise, over F_p an `int` in [0, p).  Over
Q an integral `Fraction` is still a value (a product such as 2 * 1/2 makes
one), but `zero`, `one`, `from_int`, `from_fraction`, `inv`, `from_sum`,
the rows of `Echelon.reduced` (so `rref`, `solve` and `kernel_basis`) and
the reduced bases of `polymod.module_groebner` return the int.  A `Field`
object checks values and does the arithmetic here; a value of the wrong
kind (a bool or a float included), or matrices over different fields,
raise `DomainMismatchError`.  Sums of products reduce once per entry
through `Field.from_sum`: `Matrix.mul` here, the tensor-power action of
`grouprep` and the fibre ranks of `supermod`.  Still written inline (plain
`+` and `*` when `p == 0`, else `% p`) are `_subtract` here, `Poly.__mul__`
and `_merge_terms` in `polyring`, and `_Reducers.divide` and `s_vector` in
`polymod`.  Everything here is immutable and deterministic, except that an
`Echelon` grows.

Matrices are stored dense and multiplied sparsely, each row of the right
factor read once as its nonzeros.  An `Echelon` eliminates rows: `rank`
counts its pivots, and `rref` reads the unique reduced form off them, as
`solve` does for the augmented rows.  The `polymod` membership oracle and
the invariant searches of `equivariant` build echelons directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Iterable, Optional, Sequence

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

    Values of the field are int or Fraction (p == 0) or int in [0, p).  Over
    QQ the methods here return an int exactly when the value is integral.
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
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n if self.p == 0 else n % self.p

    def from_fraction(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if self.p == 0:
            return num // den if num % den == 0 else Fraction(num, den)
        return (num % self.p) * self.inv(den % self.p) % self.p

    def check(self, a) -> None:
        if self.p == 0:
            if not isinstance(a, (int, Fraction)) or isinstance(a, bool):
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
            return self.from_fraction(a.denominator, a.numerator)
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def from_sum(self, a):
        """A raw sum of products of field values as a field value: reduced
        mod p once, and over QQ an int when its denominator is 1."""
        if self.p:
            return a % self.p
        return a.numerator if a.denominator == 1 else a

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
        ent = tuple(field.from_int(a) if type(a) is int else a for a in flat)
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
        """Row by row over the nonzeros of both factors, one reduction per entry."""
        self._match(other)
        if self.cols != other.rows:
            raise DomainMismatchError("shape mismatch in matrix product")
        f, n = self.field, other.cols
        sparse = [[(j, b) for j, b in enumerate(other.row(k)) if b] for k in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [0] * n
            for a, row in zip(self.row(i), sparse):
                if a:
                    for j, b in row:
                        acc[j] += a * b
            out.extend(map(f.from_sum, acc))
        return Matrix(f, self.rows, n, tuple(out))

    def is_zero(self) -> bool:
        return all(self.field.is_zero(a) for a in self.entries)

    def equals(self, other: "Matrix") -> bool:
        return (
            self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )


class Echelon:
    """A sparse row echelon over a field, grown one row at a time.

    A row comes in as (column, value) pairs with values in the field, zeros
    allowed; columns are any keys that compare with each other, and a row's
    least column with a nonzero value leads.  `pivots` maps each lead
    column to (lc, tail), the row lc * e_lead + sum a * e_j over the (j, a)
    of tail: over QQ a primitive integer vector with lc > 0, its
    denominators cleared once on the way in, over GF(p) a monic one.  Rows
    are only top-reduced, so elimination stays fraction-free: a pivot with
    lc != 1 takes the pseudo-step of `_subtract` (Bareiss, Math. Comp. 22,
    1968).  Equal rows in equal order give equal pivots.
    """

    def __init__(self, field: Field, rows: Iterable = ()) -> None:
        self.field = field
        self.pivots: dict = {}
        for row in rows:
            self.add(row)

    def reduce(self, row) -> Optional[Any]:
        """The lead column of what top-reduction by the pivots leaves of
        row, or None when row lies in their span."""
        return self._top_reduce(self._integral(row))

    def add(self, row) -> bool:
        """Keep row as a pivot if it is independent of the pivots; True iff
        the rank grew."""
        v = self._integral(row)
        lead = self._top_reduce(v)
        if lead is None:
            return False
        self.pivots[lead] = self._normal(v, lead)
        return True

    def reduced(self) -> list:
        """The reduced row echelon form as (lead, {column: value}) in
        ascending lead order, each row 1 at its lead and 0 at every other
        lead; unique, so independent of the order the rows came in.

        Back-substitution, last lead first: a row's later lead columns are
        cleared by the rows already reduced, which are 0 there."""
        p = self.field.p
        done: dict = {}
        for lead in sorted(self.pivots, reverse=True):
            lc, tail = self.pivots[lead]
            v = dict(tail)
            v[lead] = lc
            for k in [j for j in v if j in done]:
                _subtract(v, k, *done[k], p)
            done[lead] = self._normal(v, lead)
        frac = self.field.from_fraction
        out = []
        for lead in sorted(done):
            lc, tail = done[lead]
            row = dict(tail) if lc == 1 else {j: frac(a, lc) for j, a in tail}
            row[lead] = 1
            out.append((lead, row))
        return out

    def _integral(self, row) -> dict:
        """The nonzero entries of row, column -> int: over QQ times the
        lcm of their denominators."""
        v = {j: a for j, a in row if a}
        if self.field.p == 0:
            den = lcm(*(a.denominator for a in v.values()))
            v = {j: a.numerator * (den // a.denominator) for j, a in v.items()}
        return v

    def _top_reduce(self, v: dict):
        """Subtract pivots from v while its lead is a pivot lead.  Returns
        the first lead that is not, or None once v is zero."""
        pivots, p = self.pivots, self.field.p
        while v:
            lead = min(v)
            if lead not in pivots:
                return lead
            _subtract(v, lead, *pivots[lead], p)
        return None

    def _normal(self, v: dict, lead) -> tuple:
        """(lc, tail) of v with lead popped: primitive with lc > 0 over QQ,
        monic over GF(p)."""
        lc = v.pop(lead)
        p = self.field.p
        if p:
            inv = pow(lc, p - 2, p)
            return 1, [(j, a * inv % p) for j, a in v.items()]
        content = gcd(lc, *v.values()) if lc > 0 else -gcd(lc, *v.values())
        return lc // content, [(j, a // content) for j, a in v.items()]


def _subtract(v: dict, col, lc: int, tail, p: int) -> None:
    """Clear column col of the integer vector v with the row (lc, tail).
    When lc != 1 (only over QQ), v is first scaled by lc / gcd(lc, v[col]),
    so v stays integral."""
    c = v.pop(col)
    if lc != 1:
        g = gcd(c, lc)
        c //= g
        if g != lc:
            mult = lc // g
            for i in v:
                v[i] *= mult
    for i, a in tail:
        new = v.get(i, 0) - c * a
        if p:
            new %= p
        if new:
            v[i] = new
        else:
            v.pop(i, None)


def _echelon(m: Matrix) -> Echelon:
    return Echelon(m.field, (enumerate(m.row(i)) for i in range(m.rows)))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with the pivot columns, read off the
    `Echelon` of the rows; zero rows come last."""
    f = m.field
    ent = [f.zero()] * (m.rows * m.cols)
    rows = _echelon(m).reduced()
    for r, (_, row) in enumerate(rows):
        for j, a in row.items():
            ent[r * m.cols + j] = a
    return Matrix(f, m.rows, m.cols, tuple(ent)), tuple(lead for lead, _ in rows)


def rank(m: Matrix) -> int:
    return len(_echelon(m).pivots)


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
    m._match(b)
    if b.cols != 1 or b.rows != m.rows:
        raise DomainMismatchError("right-hand side must be a column of matching height")
    f = m.field
    echelon = Echelon(f, (enumerate(m.row(i) + b.row(i)) for i in range(m.rows)))
    if m.cols in echelon.pivots:
        return None
    x = [f.zero()] * m.cols
    for lead, row in echelon.reduced():
        x[lead] = row.get(m.cols, f.zero())
    return Matrix(f, m.cols, 1, tuple(x))
