"""The benchmark's three workloads: inputs, one job, and its output checks.

Each workload is `(make_inputs(seed), run(inputs, checks, digest))`.
`make_inputs` is set-up work and `run` is the timed job.  `run` reaches
ttkit only through module attributes, so wrappers installed after import
(see tracer.py) see every call.  A failed check or an exception inside a
unit is counted in `Checks` and never stops the job.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass

import ttkit.balmer as balmer
import ttkit.cli as cli
import ttkit.corpus as corpus
import ttkit.polymod as polymod
import ttkit.polyring as polyring
import ttkit.verify as verify
from ttkit.fields import GF, QQ


class Checks:
    """Checks attempted and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @contextlib.contextmanager
    def unit(self, name: str):
        """Count an exception escaping the block as one failed check."""
        try:
            yield
        except Exception as e:  # a raising query is a failed output, not a crash
            self.attempted += 1
            self.failures.append(f"{name}: {type(e).__name__}: {e}")


# -- super_support: seeded super corpora, criteria 7 and 8 ----------------------------


def super_inputs(seed: int) -> int:
    return seed


def run_super_support(seed: int, checks: Checks, digest) -> None:
    with checks.unit("super_support_corpus"):
        families = corpus.super_support_corpus(seed)
        for fam in families:
            with checks.unit(fam.name):
                objects = fam.datum.objects
                for p in objects:
                    digest.update(f"{fam.name}|{p.object_id}|"
                                  f"{','.join(sorted(p.sites))}\n".encode())
                randoms = sum(1 for p in objects if p.object_id.startswith("rnd"))
                checks.check(f"{fam.name}: at least 25 seeded random objects",
                             randoms >= 25)
                report = balmer.verify_support_datum(fam.datum)
                for v in report.verdicts:
                    checks.check(f"{fam.name}/{v.axiom}", v.passed)
                cls = balmer.check_classification(fam.datum)
                checks.check(f"{fam.name}: both classification round trips", cls.passed)


# -- groebner_ideals: generated ideals over QQ and GF(32003), criterion 1 ---------------


@dataclass(frozen=True)
class IdealCase:
    """Generators with only degree 2 and 3 terms, so the ideal lies in m^2,
    m = (x, y, z).  That makes every expected verdict certain:

    - a member is an explicit combination, so `bounded_membership` is
      complete for it at `bound`;
    - a nonmember is a member plus a nonzero linear form, outside m^2;
    - `rad_in` squared is a generator of `rad_ideal`, and `rad_out` has
      constant term 1 while `rad_ideal` lies in m.
    """

    name: str
    gens: tuple
    members: tuple
    nonmembers: tuple
    bound: int
    rad_ideal: tuple
    rad_in: object
    rad_out: object


def _monomials(nvars: int, degree: int) -> list:
    return [m for m in itertools.product(range(degree + 1), repeat=nvars)
            if sum(m) == degree]


def _random_poly(ring, rng, degrees, nterms):
    pool = [m for d in degrees for m in _monomials(ring.nvars, d)]
    return ring.from_terms((m, ring.field.from_int(rng.choice((-3, -2, -1, 1, 2, 3))))
                           for m in rng.sample(pool, nterms))


def _ideal_case(name, ring, rng) -> IdealCase:
    gens = tuple(_random_poly(ring, rng, (2, 3), rng.randint(2, 4))
                 for _ in range(rng.choice((3, 4))))
    members, degrees = [], []
    while len(members) < 2:
        terms = [_random_poly(ring, rng, (0, 1), 2) * g for g in gens]
        m = sum(terms, ring.zero())
        if not m.is_zero():
            members.append(m)
            degrees.extend(t.total_degree() for t in terms if not t.is_zero())
    nonmembers = tuple(m + _random_poly(ring, rng, (1,), rng.randint(1, 3))
                       for m in members)
    h = _random_poly(ring, rng, (1,), 2)
    rad_ideal = (h * h, _random_poly(ring, rng, (2, 3), 2))
    return IdealCase(name, gens, tuple(members), nonmembers, max(degrees),
                     rad_ideal, h, h + 1)


def groebner_inputs(seed: int, per_field: int = 100) -> tuple:
    rng = random.Random(seed)
    cases = []
    for fld, tag in ((QQ, "QQ"), (GF(32003), "GF")):
        ring = polyring.PolyRing(fld, ("x", "y", "z"))
        cases.extend(_ideal_case(f"{tag}/{i}", ring, rng) for i in range(per_field))
    return tuple(cases)


def run_groebner_ideals(cases, checks: Checks, digest) -> None:
    gb_of = polyring.GroebnerBasis.of
    for case in cases:
        with checks.unit(case.name):
            gb = gb_of(case.gens)
            digest.update(f"{case.name}: {[str(p) for p in gb.polys]}\n".encode())
            for g in case.gens:
                checks.check(f"{case.name}: generator reduces to zero", gb.contains(g))
            for f, want in [(m, True) for m in case.members] + \
                           [(n, False) for n in case.nonmembers]:
                got = gb.contains(f)
                oracle = polymod.bounded_membership(f, case.gens, case.bound)
                digest.update(f"{got}{oracle}".encode())
                checks.check(f"{case.name}: membership verdict {f}",
                             got == oracle == want)
            checks.check(f"{case.name}: radical member",
                         polyring.radical_member(case.rad_in, case.rad_ideal))
            checks.check(f"{case.name}: radical nonmember",
                         not polyring.radical_member(case.rad_out, case.rad_ideal))
            a, b = case.gens[:1], case.gens[1:2]
            meet = polyring.ideal_intersection(a, b)
            digest.update(f"{[str(p) for p in meet]}\n".encode())
            gb_a, gb_b = gb_of(a), gb_of(b)
            checks.check(f"{case.name}: intersection lies in both ideals",
                         all(gb_a.contains(p) and gb_b.contains(p) for p in meet))
            gb_meet = gb_of(meet or [a[0].ring.zero()])
            checks.check(f"{case.name}: products lie in the intersection",
                         all(gb_meet.contains(p * q) for p in a for q in b))


# -- equivariant_spectra: bundled scenarios and criteria 2-6, 9, 10 ----------------------

# sd5_violation plants a false tensor witness and must fail, naming the pair.
SCENARIO_EXIT = {"c2_line": 0, "superline": 0, "sd5_violation": 1, "empty_ring": 0}
CRITERIA = (2, 3, 4, 5, 6, 9, 10)


def equivariant_inputs(seed: int) -> None:
    return None  # fixed corpora: the seed is not used


def run_equivariant_spectra(_inputs, checks: Checks, digest) -> None:
    for name, want in SCENARIO_EXIT.items():
        with checks.unit(f"ttkit run {name}"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["run", name])
            text = out.getvalue()
            digest.update(text.encode())
            checks.check(f"ttkit run {name}: exit code {want}", code == want)
            if name == "sd5_violation":
                checks.check("sd5_violation names its offending pair",
                             "SD5: NO" in text and "'K[x]', 'K[x-1]'" in text)
    for number in CRITERIA:
        with checks.unit(f"criterion {number}"):
            res = getattr(verify, f"criterion_{number}")()
            digest.update("\n".join(res.lines).encode())
            checks.check(f"criterion {number} passes", res.passed)


WORKLOADS = {
    "super_support": (super_inputs, run_super_support),
    "groebner_ideals": (groebner_inputs, run_groebner_ideals),
    "equivariant_spectra": (equivariant_inputs, run_equivariant_spectra),
}
