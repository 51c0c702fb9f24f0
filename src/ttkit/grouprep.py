"""Finite groups, character tables, representations, and projectors.

Character tables are inputs, validated by orthogonality; nothing here
computes one.  The splitting requirement (sum of squared degrees equals
the group order) is enforced at validation time, and every projector
formula divides by |G|, so the characteristic must not divide the group
order.  Matrix realizations of irreducibles are optional table data;
degree-one irreducibles get theirs from the character values.

Every "for all g" condition on group data (a homomorphism, a cocycle, a
fixed vector, a stable ideal) is certified on `FiniteGroup.generators`
only: the elements that satisfy such a condition are closed under
products and contain the identity, so checking the generators suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional, Sequence

from .errors import DomainMismatchError, PreconditionError, ValidationError
from .fields import Field, Matrix, kernel_basis, rank
from .polyring import PolyRing


@dataclass(frozen=True)
class FiniteGroup:
    names: tuple
    table: tuple  # table[i][j] = index of names[i] * names[j]
    identity: int

    @property
    def order(self) -> int:
        return len(self.names)

    @staticmethod
    def from_table(names: Sequence[str], table: Sequence[Sequence[int]]) -> "FiniteGroup":
        names = tuple(names)
        table = tuple(tuple(row) for row in table)
        n = len(names)
        if len(set(names)) != n or n == 0:
            raise ValidationError("group element labels must be nonempty and distinct")
        if len(table) != n or any(len(r) != n for r in table):
            raise ValidationError("Cayley table shape must match the element count")
        for row in table:
            for v in row:
                if not (0 <= v < n):
                    raise ValidationError("Cayley table entry out of range")
        identity = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("no identity element in the Cayley table")
        g = FiniteGroup(names, table, identity)
        g.validate()
        return g

    @staticmethod
    def from_permutations(gens: Sequence[Sequence[int]]) -> "FiniteGroup":
        """Generate the closure of permutation generators acting on 0..m-1,
        each element named by its cycle notation (`perm_cycle_name`)."""
        if not gens:
            raise ValidationError("at least one permutation generator required")
        m = len(gens[0])
        base = []
        for p in gens:
            p = tuple(p)
            if sorted(p) != list(range(m)):
                raise ValidationError(f"{p} is not a permutation of 0..{m - 1}")
            base.append(p)
        ident = tuple(range(m))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for b in base:
                    c = tuple(a[b[i]] for i in range(m))
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        elems = sorted(seen)
        elems.remove(ident)
        elems.insert(0, ident)
        index = {p: i for i, p in enumerate(elems)}
        table = tuple(
            tuple(index[tuple(a[b[i]] for i in range(m))] for b in elems) for a in elems
        )
        return FiniteGroup.from_table(tuple(perm_cycle_name(p) for p in elems), table)

    def validate(self) -> None:
        n = self.order
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                            raise ValidationError(
                                f"associativity fails at ({self.names[a]}, {self.names[b]}, {self.names[c]})"
                            )
        for a in range(n):
            if not any(self.table[a][b] == self.identity for b in range(n)):
                raise ValidationError(f"{self.names[a]} has no inverse")

    def closure(self, elements: Sequence[int]) -> tuple:
        """The subgroup generated by the elements, as sorted indices."""
        return tuple(sorted(_products(self, [(s, s) for s in elements], self.identity,
                                      lambda s, e: self.table[s][e])))

    @cached_property
    def generators(self) -> tuple:
        """Each element, in index order, that the ones chosen before it do not generate."""
        gens: list = []
        span = {self.identity}
        for a in range(self.order):
            if a not in span:
                gens.append(a)
                span = set(self.closure(gens))
        return tuple(gens)

    def inverse(self, a: int) -> int:
        for b in range(self.order):
            if self.table[a][b] == self.identity:
                return b
        raise ValidationError(f"{self.names[a]} has no inverse")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown group element {name!r}") from None

    def conjugacy_classes(self) -> tuple:
        classes: list = []
        for a in range(self.order):
            if not any(a in cls for cls in classes):
                # the image of h is h a h^-1, built along products of generators
                conj = _products(self, [(s, s) for s in self.generators], a,
                                 lambda s, x: self.table[self.table[s][x]][self.inverse(s)])
                classes.append(tuple(sorted(set(conj.values()))))
        return tuple(classes)


def _products(group: FiniteGroup, pairs, identity, mul) -> dict:
    """{element: image} over the products of the (generator, image) pairs,
    breadth first from the identity: s*e, first reached from e, gets the
    image mul(image of s, image of e)."""
    images = {group.identity: identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for e in frontier:
            for s, m in pairs:
                f = group.table[s][e]
                if f not in images:
                    images[f] = mul(m, images[e])
                    nxt.append(f)
        frontier = nxt
    return images


def images_from_generators(group: FiniteGroup, pairs, identity: Matrix) -> Optional[tuple]:
    """One matrix per element, composed from (generator, matrix) pairs;
    None when the generators do not generate the group."""
    images = _products(group, pairs, identity, lambda m, x: m.mul(x))
    if len(images) != group.order:
        return None
    return tuple(images[a] for a in range(group.order))


def homomorphism_failure(group: FiniteGroup, mats: Sequence[Matrix]) -> Optional[tuple]:
    """The first (generator s, element b) with mats[s] mats[b] != mats[sb], or None.

    With mats[e] = I this certifies a homomorphism.  The elements a with
    mats[a] mats[b] = mats[ab] for every b contain e and every generator,
    and they are closed under products: for two of them, a and a',
    mats[aa'] mats[b] = mats[a] mats[a'] mats[b] = mats[a] mats[a'b] =
    mats[aa'b].  So they are all of the finite group.
    """
    for s in group.generators:
        for b in range(group.order):
            if not mats[s].mul(mats[b]).equals(mats[group.table[s][b]]):
                return s, b
    return None


def perm_cycle_name(p: Sequence[int]) -> str:
    p = tuple(p)
    if p == tuple(range(len(p))):
        return "e"
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        j = p[start]
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        cycles.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles)


def _trace(m: Matrix):
    fld = m.field
    t = fld.zero()
    for i in range(min(m.rows, m.cols)):
        t = fld.add(t, m.at(i, i))
    return t


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    field: Field
    names: tuple
    degrees: tuple
    values: tuple  # values[k][g] = character of irreducible k at element g
    matrix_forms: tuple = ()  # aligned with names; entries None or a tuple of Matrix per element

    def __post_init__(self) -> None:
        if not self.matrix_forms:
            object.__setattr__(self, "matrix_forms", (None,) * len(self.names))

    def validate(self) -> None:
        g, fld, n = self.group, self.field, self.group.order
        if len(set(self.names)) != len(self.names) or not self.names:
            raise ValidationError("irreducible labels must be nonempty and distinct")
        if not (len(self.degrees) == len(self.values) == len(self.matrix_forms) == len(self.names)):
            raise ValidationError("character table columns must align")
        check_order_invertible(fld, n)
        if sum(d * d for d in self.degrees) != n:
            raise ValidationError(
                "squared degrees do not sum to the group order: table is not split"
            )
        classes = g.conjugacy_classes()
        for k, chi in enumerate(self.values):
            if len(chi) != n:
                raise ValidationError(f"character {self.names[k]!r} has wrong length")
            for v in chi:
                fld.check(v)
            if chi[g.identity] != fld.from_int(self.degrees[k]):
                raise ValidationError(
                    f"character {self.names[k]!r} does not take its degree at the identity"
                )
            for cls in classes:
                if len({chi[i] for i in cls}) != 1:
                    raise ValidationError(
                        f"character {self.names[k]!r} is not a class function"
                    )
        for k in range(len(self.names)):
            for l in range(len(self.names)):
                s = fld.zero()
                for a in range(n):
                    s = fld.add(s, fld.mul(self.values[k][a], self.values[l][g.inverse(a)]))
                want = fld.from_int(n) if k == l else fld.zero()
                if s != want:
                    raise ValidationError(
                        f"orthogonality fails for {self.names[k]!r}, {self.names[l]!r}"
                    )
        for k, forms in enumerate(self.matrix_forms):
            if forms is None:
                continue
            self._validate_forms(k, forms)

    def _validate_forms(self, k: int, forms: tuple) -> None:
        g, fld, d = self.group, self.field, self.degrees[k]
        if len(forms) != g.order:
            raise ValidationError(f"matrix form of {self.names[k]!r} has wrong length")
        for m in forms:
            if m.rows != d or m.cols != d or m.field != fld:
                raise ValidationError(
                    f"matrix form of {self.names[k]!r} has wrong shape or field"
                )
        if not forms[g.identity].equals(Matrix.identity(fld, d)):
            raise ValidationError(f"matrix form of {self.names[k]!r}: identity is not I")
        bad = homomorphism_failure(g, forms)
        if bad is not None:
            s, b = bad
            raise ValidationError(
                f"matrix form of {self.names[k]!r} is not a homomorphism "
                f"at ({g.names[s]}, {g.names[b]})"
            )
        for a in range(g.order):
            if _trace(forms[a]) != self.values[k][a]:
                raise ValidationError(
                    f"matrix form of {self.names[k]!r} has wrong trace at {g.names[a]}"
                )

    def irrep_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown irreducible {name!r}") from None

    def forms_for(self, name: str) -> tuple:
        """Matrix realization of an irreducible; degree-one ones are derived
        from the character values."""
        k = self.irrep_index(name)
        if self.matrix_forms[k] is not None:
            return self.matrix_forms[k]
        if self.degrees[k] == 1:
            return tuple(Matrix.from_rows(self.field, [[v]]) for v in self.values[k])
        raise ValidationError(
            f"no matrix realization available for {name!r} (degree {self.degrees[k]})"
        )


@dataclass(frozen=True)
class Representation:
    group: FiniteGroup
    field: Field
    dim: int
    matrices: tuple  # one Matrix per group element

    def validate(self) -> None:
        g, n = self.group, self.group.order
        check_order_invertible(self.field, n)
        if len(self.matrices) != n:
            raise ValidationError("one matrix per group element required")
        for m in self.matrices:
            if m.rows != self.dim or m.cols != self.dim:
                raise ValidationError("representation matrices must be square of the stated dimension")
            if m.field != self.field:
                raise DomainMismatchError("representation matrix over the wrong field")
        if not self.matrices[g.identity].equals(Matrix.identity(self.field, self.dim)):
            raise ValidationError("identity must act as the identity matrix")
        bad = homomorphism_failure(g, self.matrices)
        if bad is not None:
            raise ValidationError(f"not a homomorphism at ({g.names[bad[0]]}, {g.names[bad[1]]})")

    def apply(self, g_index: int, vec: Sequence) -> tuple:
        m = self.matrices[g_index]
        return tuple(
            _dot(self.field, [m.at(i, j) for j in range(self.dim)], vec)
            for i in range(self.dim)
        )


def _dot(fld: Field, row, vec):
    s = fld.zero()
    for a, b in zip(row, vec):
        s = fld.add(s, fld.mul(a, b))
    return s


def check_order_invertible(fld: Field, n: int) -> None:
    """Raise DomainMismatchError when the characteristic of fld divides the
    group order n, where averaging over the group is undefined."""
    if fld.p > 0 and n % fld.p == 0:
        raise DomainMismatchError(f"characteristic {fld.p} divides the group order {n}")


def _inv_order(fld: Field, n: int):
    check_order_invertible(fld, n)
    return fld.inv(fld.from_int(n))


def isotypic_projector(rep: Representation, table: CharacterTable, name: str) -> Matrix:
    if table.group is not rep.group and table.group != rep.group:
        raise DomainMismatchError("character table for a different group")
    if table.field != rep.field:
        raise DomainMismatchError("character table over a different field")
    k = table.irrep_index(name)
    fld, g = rep.field, rep.group
    acc = Matrix.zero(fld, rep.dim, rep.dim)
    for a in range(g.order):
        coeff = table.values[k][g.inverse(a)]
        acc = acc.add(rep.matrices[a].scale(coeff))
    scale = fld.mul(fld.from_int(table.degrees[k]), _inv_order(fld, g.order))
    return acc.scale(scale)


@dataclass(frozen=True)
class IsotypicPiece:
    name: str
    multiplicity: int
    hom_basis: tuple  # each entry a dim x n_lambda Matrix: an equivariant map V_lambda -> V


def canonical_decompose(rep: Representation, table: CharacterTable) -> list:
    """Split V into isotypic pieces with explicit Hom-space bases.

    For each irreducible with a matrix realization, the Hom space is the
    fixed subspace of Hom(V_lambda, V) under g . f = rho(g) f rho_lambda(g)^{-1};
    the evaluation map from the direct sum of V_lambda tensor Hom_lambda
    must hit all of V, and that is checked by rank.
    """
    fld, g = rep.field, rep.group
    pieces = []
    eval_cols = []
    for k, name in enumerate(table.names):
        proj = isotypic_projector(rep, table, name)
        r = rank(proj)
        if r == 0:
            continue
        d = table.degrees[k]
        if r % d != 0:
            raise ValidationError(
                f"isotypic rank {r} for {name!r} is not a multiple of the degree {d}"
            )
        forms = table.forms_for(name)
        hom = _hom_fixed_basis(rep, forms, fld)
        if len(hom) != r // d:
            raise ValidationError(
                f"Hom-space dimension {len(hom)} disagrees with projector rank {r}/{d}"
            )
        pieces.append(IsotypicPiece(name, r // d, tuple(hom)))
        for f in hom:
            for j in range(d):
                eval_cols.append([f.at(i, j) for i in range(rep.dim)])
    if sum(p.multiplicity * table.degrees[table.irrep_index(p.name)] for p in pieces) != rep.dim:
        raise ValidationError("isotypic multiplicities do not account for the dimension")
    if pieces:
        ev = Matrix.from_rows(fld, [[col[i] for col in eval_cols] for i in range(rep.dim)])
        if rank(ev) != rep.dim:
            raise ValidationError("evaluation map of the decomposition is not invertible")
    return pieces


def _hom_fixed_basis(rep: Representation, forms: tuple, fld: Field) -> list:
    """Basis of equivariant maps V_lambda -> V as dim x d matrices."""
    g = rep.group
    d = forms[0].rows
    n = rep.dim * d
    # unknowns F (dim x d): rho(g) F = F rho_lambda(g); flatten row-major
    rows = []
    for a in g.generators:
        ra, la = rep.matrices[a], forms[a]
        for i in range(rep.dim):
            for j in range(d):
                # sum_k ra[i,k] F[k,j] - sum_l F[i,l] la[l,j] = 0
                coeff = [fld.zero()] * n
                for k in range(rep.dim):
                    coeff[k * d + j] = fld.add(coeff[k * d + j], ra.at(i, k))
                for l in range(d):
                    coeff[i * d + l] = fld.sub(coeff[i * d + l], la.at(l, j))
                rows.append(coeff)
    # n unknowns even when rows is empty, as for a group with no generators
    ker = kernel_basis(Matrix(fld, len(rows), n, tuple(x for row in rows for x in row)))
    out = []
    for c in range(ker.cols):
        flat = [ker.at(i, c) for i in range(n)]
        out.append(Matrix.from_rows(fld, [flat[i * d:(i + 1) * d] for i in range(rep.dim)]))
    return out


def trivial_summand_witness(rep: Representation, v: Sequence) -> tuple:
    """Fixed nonzero tensor in the |G|-th tensor power built from v.

    The orbit product of v is formed in the polynomial model of the
    symmetric algebra and must be nonzero; the returned tensor is the full
    symmetrization of the product of the orbit vectors, fixed by every
    group element (checked).
    """
    fld, g, n = rep.field, rep.group, rep.dim
    if len(v) != n:
        raise ValidationError("witness vector has the wrong length")
    for c in v:
        fld.check(c)
    k = g.order
    orbit = [rep.apply(a, v) for a in range(k)]

    ring = PolyRing(fld, tuple(f"t{i}" for i in range(n)))
    prod = ring.one()
    for w in orbit:
        form = ring.zero()
        for i, c in enumerate(w):
            form = form + ring.const(c) * ring.var(f"t{i}")
        prod = prod * form
    if prod.is_zero():
        raise PreconditionError(
            "orbit product vanishes in the symmetric algebra; no witness from this vector"
        )

    if k == 1:
        return tuple(v)
    if fld.p > 0 and fld.p <= k:
        raise DomainMismatchError(
            f"characteristic {fld.p} divides {k}!, symmetrization undefined"
        )
    if n ** k > 5000:
        raise PreconditionError(
            f"tensor power dimension {n}^{k} exceeds the desk-scale bound"
        )

    # At an index tuple with multiset alpha the symmetrization is
    # alpha!/k! [t^alpha] prod: as sigma runs over S_k, each rearrangement
    # of the tuple occurs alpha! times.
    inv = fld.inv(fld.from_int(math.factorial(k)))
    coeffs = dict(prod.terms)
    w = []
    for idx in product(range(n), repeat=k):
        alpha = tuple(idx.count(i) for i in range(n))
        weight = fld.mul(fld.from_int(math.prod(map(math.factorial, alpha))), inv)
        w.append(fld.mul(weight, coeffs.get(alpha, fld.zero())))
    w = tuple(w)
    for a in g.generators:
        if _apply_tensor_power(rep, a, w) != w:
            raise ValidationError("witness is not fixed by the group")
    return w


def _apply_tensor_power(rep: Representation, a: int, w: Sequence) -> tuple:
    """Apply rho(a) on every tensor factor of a vector in V^{tensor k}: per
    axis, nonzero entries times the nonzeros of their column, reduced once."""
    fld, n, k = rep.field, rep.dim, rep.group.order
    m = rep.matrices[a]
    cols = [[(i2, m.at(i2, i)) for i2 in range(n) if m.at(i2, i)] for i in range(n)]
    cur = tuple(w)
    for axis in range(k):
        stride = n ** (k - 1 - axis)
        nxt = [0] * len(cur)
        for idx, x in enumerate(cur):
            if x:
                i_axis = (idx // stride) % n
                base = idx - i_axis * stride
                for i2, c in cols[i_axis]:
                    nxt[base + i2 * stride] += c * x
        cur = tuple(map(fld.from_sum, nxt))
    return cur


# -- bundled small groups, tables, and representations ---------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements e, g, g2, ..., g(n-1), where gi is the i-th power of g."""
    names = ("e",) + tuple(f"g{i}" if i > 1 else "g" for i in range(1, n))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(names, table)


def s3_group() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])


def c2_character_table(fld: Field) -> CharacterTable:
    g = cyclic_group(2)
    t = CharacterTable(
        g,
        fld,
        ("triv", "sign"),
        (1, 1),
        (
            (fld.one(), fld.one()),
            (fld.one(), fld.neg(fld.one())),
        ),
    )
    t.validate()
    return t


def find_cube_root(fld: Field):
    """A primitive cube root of unity, or a validation error."""
    if fld.p == 0:
        raise ValidationError("rationals contain no primitive cube root of unity")
    for a in range(2, fld.p):
        if pow(a, 3, fld.p) == 1:
            return fld.from_int(a)
    raise ValidationError(f"GF({fld.p}) contains no primitive cube root of unity")


def c3_character_table(fld: Field) -> CharacterTable:
    g = cyclic_group(3)
    w = find_cube_root(fld)
    w2 = fld.mul(w, w)
    one = fld.one()
    t = CharacterTable(
        g,
        fld,
        ("triv", "omega", "omega2"),
        (1, 1, 1),
        (
            (one, one, one),
            (one, w, w2),
            (one, w2, w),
        ),
    )
    t.validate()
    return t


def s3_character_table(fld: Field) -> CharacterTable:
    g = s3_group()
    one, zero, neg = fld.one(), fld.zero(), fld.neg
    t, c = g.index("(12)"), g.index("(123)")
    # standard 2-dim action on the root basis e1-e2, e2-e3
    std_forms = images_from_generators(g, [
        (t, Matrix.from_rows(fld, [[neg(one), one], [zero, one]])),
        (c, Matrix.from_rows(fld, [[zero, neg(one)], [one, neg(one)]])),
    ], Matrix.identity(fld, 2))
    sign_forms = images_from_generators(g, [
        (t, Matrix.from_rows(fld, [[neg(one)]])),
        (c, Matrix.identity(fld, 1)),
    ], Matrix.identity(fld, 1))
    table = CharacterTable(
        g,
        fld,
        ("triv", "sign", "std"),
        (1, 1, 2),
        (
            tuple(one for _ in g.names),
            tuple(m.at(0, 0) for m in sign_forms),
            tuple(_trace(m) for m in std_forms),
        ),
        (None, None, std_forms),
    )
    table.validate()
    return table


def regular_representation(group: FiniteGroup, fld: Field) -> Representation:
    """Left translation on the group algebra basis."""
    n = group.order
    mats = []
    for a in range(n):
        rows = [[fld.zero()] * n for _ in range(n)]
        for h in range(n):
            rows[group.table[a][h]][h] = fld.one()
        mats.append(Matrix.from_rows(fld, rows))
    rep = Representation(group, fld, n, tuple(mats))
    rep.validate()
    return rep


def representation_from_forms(group: FiniteGroup, fld: Field, mats: Sequence[Matrix]) -> Representation:
    rep = Representation(group, fld, mats[0].rows, tuple(mats))
    rep.validate()
    return rep
