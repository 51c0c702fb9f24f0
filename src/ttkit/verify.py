"""The bundled verification suite.

Each criterion function runs one self-contained check over the corpus
and returns a CriterionResult whose lines are deterministic for a fixed
seed: no wall-clock values, no machine-dependent ordering.  Budgets are
enforced but reported only as yes/no so reports stay byte-stable.  The
report that lays the results out is built in `cli`, which also lays out
the scenario reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .balmer import (
    build_spc,
    check_classification,
    check_homeomorphism,
    induced_site_map,
    induced_spc_map,
    verify_support_datum,
)
from .corpus import (
    c2_descent_model,
    c3_descent_model,
    invariant_ring_corpus,
    membership_corpus,
    monomial_representation,
    projection_corpus,
    super_support_corpus,
    superline_spectrum_model,
    swap_plane_action,
    tower_corpus,
    twisted_cubic_expected,
    witness_corpus,
)
from .equivariant import (
    check_projection_formula,
    invariant_generators,
    molien_check,
    tower,
)
from .fields import GF, QQ
from .grouprep import (
    _apply_tensor_power,
    c2_character_table,
    canonical_decompose,
    regular_representation,
    s3_character_table,
    s3_group,
    trivial_summand_witness,
)
from .polymod import bounded_membership, graded_dim
from .polyring import GroebnerBasis, PolyRing
from .scenario import _yn
from .supermod import SuperAlgebra, j_filtration


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    lines: tuple

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _result(number: int, title: str, passed: bool, lines) -> CriterionResult:
    return CriterionResult(number, title, bool(passed), tuple(lines))


# -- 1: ideal membership against the linear oracle ---------------------------------------


def criterion_1() -> CriterionResult:
    t0 = time.monotonic()
    lines = []
    ok = True
    for fld, fname in ((QQ, "QQ"), (GF(32003), "GF(32003)")):
        agree = 0
        total = 0
        for case in membership_corpus(fld):
            gb = GroebnerBasis.of(case.generators)
            for m in case.members:
                total += 1
                if gb.contains(m) and bounded_membership(m, case.generators,
                                                         case.oracle_bound):
                    agree += 1
                else:
                    ok = False
                    lines.append(f"  {fname}/{case.name}: member verdict mismatch on {m}")
            for n in case.nonmembers:
                total += 1
                if not gb.contains(n) and not bounded_membership(
                        n, case.generators, case.oracle_bound):
                    agree += 1
                else:
                    ok = False
                    lines.append(f"  {fname}/{case.name}: nonmember verdict mismatch on {n}")
        lines.append(f"{fname}: 20 ideals, {agree}/{total} verdicts agree with the oracle")
        _, gens, expected = twisted_cubic_expected(fld)
        cubic_ok = GroebnerBasis.of(gens).polys == expected
        ok = ok and cubic_ok
        lines.append(f"{fname}: twisted cubic reduced basis matches: {_yn(cubic_ok)}")
    in_budget = time.monotonic() - t0 < 10.0
    ok = ok and in_budget
    lines.append(f"within the 10 s budget: {_yn(in_budget)}")
    return _result(1, "ideal membership agrees with the linear oracle", ok, lines)


# -- 2: invariant rings against the Molien series -----------------------------------------


def criterion_2() -> CriterionResult:
    t0 = time.monotonic()
    lines = []
    ok = True
    for case in invariant_ring_corpus():
        dims, match = molien_check(invariant_generators(case.act), case.upto)
        ok = ok and match
        lines.append(f"{case.name}: degrees 0..{case.upto} dims "
                     f"{dims} match Molien: {_yn(match)}")
    in_budget = time.monotonic() - t0 < 5.0
    ok = ok and in_budget
    lines.append(f"within the 5 s budget: {_yn(in_budget)}")
    return _result(2, "invariant ring dimensions match the Molien series", ok, lines)


# -- 3: canonical decomposition ------------------------------------------------------------


def _swap_isotypic_oracle(d: int) -> dict:
    """Character-weighted Molien coefficients for the swap action on k[x, y].

    det(1 - t*id) = (1-t)^2 and det(1 - t*swap) = 1 - t^2, so the weighted
    series are (1/2)(1/(1-t)^2 +- 1/(1-t^2)); the coefficient of t^d in
    1/(1-t)^2 is d+1 and in 1/(1-t^2) is 1 for even d.  Computed with
    exact fractions, independently of the representation machinery.
    """
    half = Fraction(1, 2)
    sym = Fraction(d + 1)
    alt = Fraction(1 if d % 2 == 0 else 0)
    return {"triv": half * (sym + alt), "sign": half * (sym - alt)}


def criterion_3() -> CriterionResult:
    lines = []
    reg = regular_representation(s3_group(), QQ)
    pieces = canonical_decompose(reg, s3_character_table(QQ))
    mults = tuple(p.multiplicity for p in pieces)
    reg_ok = mults == (1, 1, 2)
    lines.append(f"S3 regular representation multiplicities {mults}: {_yn(reg_ok)}")
    lines.append("evaluation matrices invertible: yes")  # decompose raises otherwise

    act = swap_plane_action(QQ)
    table = c2_character_table(QQ)
    ok = reg_ok
    for d in range(0, 7):
        rep = monomial_representation(act, d)
        got = {p.name: Fraction(p.multiplicity) for p in
               canonical_decompose(rep, table)}
        want = _swap_isotypic_oracle(d)
        match = all(got.get(name, Fraction(0)) == want[name] for name in want)
        ok = ok and match
        lines.append(f"swap plane degree {d}: triv {got.get('triv', 0)}, "
                     f"sign {got.get('sign', 0)} match oracle: {_yn(match)}")
    return _result(3, "canonical decompositions match the character oracle", ok, lines)


# -- 4: fixed tensors from orbit products ---------------------------------------------------


def criterion_4() -> CriterionResult:
    lines = []
    ok = True
    for case in witness_corpus():
        w = trivial_summand_witness(case.rep, case.vector)
        fld = case.rep.field
        nonzero = any(not fld.is_zero(c) for c in w)
        fixed = all(_apply_tensor_power(case.rep, a, w) == tuple(w)
                    for a in range(case.rep.group.order))
        ok = ok and nonzero and fixed
        lines.append(f"{case.name}: tensor length {len(w)}, nonzero: {_yn(nonzero)}, "
                     f"fixed by all {case.rep.group.order} elements: {_yn(fixed)}")
    return _result(4, "trivial summand witnesses are nonzero and fixed", ok, lines)


# -- 5: towers terminate with shrinking supports --------------------------------------------


def criterion_5() -> CriterionResult:
    lines = []
    ok = True
    count = 0
    for fam in tower_corpus():
        for case in fam.cases:
            count += 1
            res = tower(case.obj, fam.pres, case.components, fam.table)
            checks = [st.support_checks(fam.pres) for st in res.stages]
            shrinking = all(drop for drop, _ in checks)
            contained = all(inside for _, inside in checks)
            ok = ok and shrinking and contained
            lines.append(
                f"{fam.name}/{case.name}: {len(res.stages)} stage(s) "
                f"{res.piece_labels()}, strict support drop: {_yn(shrinking)}, "
                f"pieces inside the image: {_yn(contained)}")
    lines.append(f"objects processed: {count}")
    return _result(5, "towers terminate with strictly shrinking supports",
                   ok and count >= 6, lines)


# -- 6: projection formula -------------------------------------------------------------------


def criterion_6() -> CriterionResult:
    lines = []
    ok = True
    for pc in projection_corpus():
        rows = check_projection_formula(pc.n, pc.n_shifts, pc.em, pc.em_shifts,
                                        pc.pres, pc.upto)
        good = all(r[3] for r in rows)
        ok = ok and good
        dims = [r[1] for r in rows]
        lines.append(f"{pc.name}: dims {dims} agree on both sides through "
                     f"degree {pc.upto}: {_yn(good)}")
    return _result(6, "projection formula dimensions agree", ok, lines)


# -- 7: support data axioms on the random corpus ---------------------------------------------


@lru_cache(maxsize=4)
def _cached_super_corpus(seed: int):
    return super_support_corpus(seed)


def criterion_7(seed: int) -> CriterionResult:
    t0 = time.monotonic()
    lines = []
    ok = True
    for fam in _cached_super_corpus(seed):
        report = verify_support_datum(fam.datum)
        randoms = sum(1 for p in fam.datum.objects if p.object_id.startswith("rnd"))
        ok = ok and randoms >= 25
        lines.append(f"{fam.name}: {len(fam.datum.objects)} objects "
                     f"({randoms} seeded random) on {len(fam.space.sites)} sites")
        for v in report.verdicts:
            ok = ok and v.passed
            lines.append(f"  {v.axiom}: {_yn(v.passed)}"
                         + ("" if v.passed else f" {list(v.counterexamples)[:2]}"))
    in_budget = time.monotonic() - t0 < 30.0
    ok = ok and in_budget
    lines.append(f"within the 30 s budget: {_yn(in_budget)}")
    return _result(7, "support data axioms hold on the random corpus", ok, lines)


# -- 8: classification bijection ---------------------------------------------------------------


def _bundled_datums(seed: int):
    line, plane = _cached_super_corpus(seed)
    odd = superline_spectrum_model()
    c2 = c2_descent_model()
    c3 = c3_descent_model()
    return (
        (line.name, line.datum),
        (plane.name, plane.datum),
        (odd.name, odd.datum),
        ("c2-line upstairs", c2.datum_x),
        ("c2-line downstairs", c2.datum_y),
        ("c3-f7 upstairs", c3.datum_x),
        ("c3-f7 downstairs", c3.datum_y),
    )


def criterion_8(seed: int) -> CriterionResult:
    lines = []
    ok = True
    for name, datum in _bundled_datums(seed):
        n_sites = len(datum.space.sites)
        if n_sites > 6:
            continue
        cls = check_classification(datum)
        ok = ok and cls.passed
        lines.append(f"{name}: {n_sites} sites, {len(cls.rows)} closed subsets, "
                     f"both round trips are the identity: {_yn(cls.passed)}")
    return _result(8, "classification bijection is exhaustive", ok, lines)


# -- 9: the odd line spectrum and the J-filtration ---------------------------------------------


def criterion_9() -> CriterionResult:
    lines = []
    model = superline_spectrum_model()
    sd = verify_support_datum(model.datum)
    sd_ok = all(v.passed for v in sd.verdicts)
    spc = build_spc(model.datum)
    homeo = check_homeomorphism(spc, model.space)
    lines.append(f"support data axioms on the odd line: {_yn(sd_ok)}")
    lines.append(f"spectrum has {len(spc.primes)} points; homeomorphism onto the "
                 f"declared site space: {_yn(homeo.passed)}")
    ok = sd_ok and homeo.passed

    from math import comb

    for d in (1, 2):
        alg = SuperAlgebra(PolyRing(QQ, ("x",)), d)
        layers = j_filtration(alg, (1, 0))
        dims = []
        for layer in layers:
            e = graded_dim(layer.quotient_even, (0,) * layer.quotient_even.rank, 0)
            o = graded_dim(layer.quotient_odd, (0,) * layer.quotient_odd.rank, 0)
            dims.append(e + o)
        want = [comb(d, i) for i in range(d + 1)]
        match = dims == want and sum(dims) == 2 ** d
        ok = ok and match
        lines.append(f"J-filtration of the free rank one module, d={d}: layer dims "
                     f"{dims} = binomials {want}, total {sum(dims)}: {_yn(match)}")
    return _result(9, "odd line spectrum is the declared space", ok, lines)


# -- 10: descent models ---------------------------------------------------------------------


def criterion_10() -> CriterionResult:
    lines = []
    ok = True
    for model in (c2_descent_model(), c3_descent_model()):
        sm = induced_site_map(model.space_x, model.space_y,
                              list(model.pres.generators))
        map_ok = sm == model.expected_site_map
        report = induced_spc_map(sm, model.datum_x, model.datum_y,
                                 model.pullbacks, model.towers)
        closed_ok = all(row[3] for row in report.closed_rows)
        ok = ok and map_ok and report.passed and closed_ok
        pairs = ", ".join(f"{a}->{sm[a]}" for a in model.space_x.labels())
        lines.append(f"{model.name}: site map {{{pairs}}} matches orbits: {_yn(map_ok)}")
        lines.append(f"{model.name}: bijective: "
                     f"{_yn(report.surjective and report.injective)}, image of every "
                     f"support is the union of its pieces: {_yn(closed_ok)}")
    return _result(10, "induced spectrum maps are bijective and closed", ok, lines)


# -- the full suite --------------------------------------------------------------------------


DEFAULT_SEED = 20260819


def run_all(seed: int = DEFAULT_SEED) -> tuple:
    """Criteria one through ten; determinism of the report is criterion 11
    and is checked from the outside by rendering this twice."""
    return (
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
        criterion_7(seed),
        criterion_8(seed),
        criterion_9(),
        criterion_10(),
    )
