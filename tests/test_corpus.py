"""Structural checks on the bundled corpora.

The mathematics of each corpus is exercised by the acceptance suite;
these tests lock the declared shapes (counts, bounds, determinism) that
the suite's criteria quietly rely on.
"""

from ttkit.corpus import (
    c2_descent_model,
    c3_descent_model,
    invariant_ring_corpus,
    membership_corpus,
    projection_corpus,
    super_support_corpus,
    superline_spectrum_model,
    tower_corpus,
    twisted_cubic_expected,
    witness_corpus,
)
from ttkit.fields import GF, QQ
from ttkit.polyring import GroebnerBasis
from ttkit.supermod import (
    component_complex,
    direct_sum_supercomplex,
    free_component_rank,
)


def test_membership_corpus_is_twenty_small_ideals():
    for fld in (QQ, GF(32003)):
        cases = membership_corpus(fld)
        assert len(cases) == 20
        assert len({c.name for c in cases}) == 20
        for c in cases:
            assert c.ring.nvars <= 3
            for g in c.generators:
                assert 0 < g.total_degree() <= 4
            assert c.members or c.nonmembers


def test_membership_members_stay_within_the_oracle_bound():
    # members are explicit combinations, so the bound must cover them
    for c in membership_corpus(QQ):
        for m in c.members:
            assert m.total_degree() <= c.oracle_bound


def test_twisted_cubic_generators_settle_to_the_expected_basis():
    ring, gens, expected = twisted_cubic_expected(QQ)
    assert GroebnerBasis.of(gens).polys == expected


def test_invariant_corpus_compares_through_twice_the_group_order():
    cases = invariant_ring_corpus()
    assert len(cases) == 4
    for c in cases:
        assert c.upto == 2 * c.act.group.order


def test_witness_corpus_tensor_sizes_stay_small():
    cases = witness_corpus()
    assert len(cases) == 3
    for c in cases:
        assert c.rep.dim ** c.rep.group.order <= 5000


def test_tower_corpus_brings_at_least_six_objects_over_both_quotients():
    fams = tower_corpus()
    assert {f.act.ring.nvars for f in fams} == {1, 2}
    assert sum(len(f.cases) for f in fams) >= 6
    for fam in fams:
        for label, comp in (c for case in fam.cases for c in case.components):
            assert comp.ring == fam.act.ring


def test_projection_corpus_is_five_pairs_through_degree_ten():
    cases = projection_corpus()
    assert len(cases) == 5
    assert all(c.upto == 10 for c in cases)
    for c in cases:
        assert c.n.ring == c.pres.ring
        assert len(c.n_shifts) == c.n.rank
        assert len(c.em_shifts) == c.em.module.rank


def test_super_corpus_is_deterministic_for_a_fixed_seed():
    first = super_support_corpus(11, count=6)
    second = super_support_corpus(11, count=6)
    for a, b in zip(first, second):
        assert a.name == b.name
        assert a.datum.labels() == b.datum.labels()
        for pa, pb in zip(a.datum.objects, b.datum.objects):
            assert pa == pb
        assert a.datum.tensors == b.datum.tensors
        assert a.datum.sums == b.datum.sums


def test_super_corpus_objects_are_perfect_and_sites_in_range():
    for fam in super_support_corpus(5, count=6):
        assert 4 <= len(fam.space.sites) <= 6
        complexes = dict(fam.complexes)
        # odd copies of the first summand come before even ones of the second
        complexes["mixed sum"] = direct_sum_supercomplex(
            fam.complexes["unit[flip]"], fam.complexes["K[origin]"])
        for oid, cx in complexes.items():
            # the expansion has the ranks of the free shapes, is theta-linear
            # and squares to zero
            for parity in (0, 1):
                pc = component_complex(cx, parity)
                for n, shape in zip(cx.degrees(), cx.shapes):
                    want = free_component_rank(fam.algebra, shape, parity)
                    assert pc.module_at(n).rank == want, oid
                for f in pc.maps:
                    assert len(f.columns) == f.source.rank, oid
                    assert all(len(col) == f.target.rank for col in f.columns), oid
            cx.validate()


def test_super_site_profiles_are_pinned():
    fams = super_support_corpus(5, count=6) + (superline_spectrum_model(),)
    got = {fam.name: tuple((p.object_id, tuple(sorted(p.sites)))
                           for p in fam.datum.objects) for fam in fams}
    assert got == PINNED_SUPER_PROFILES


def test_superline_model_realizes_every_closed_subset():
    fam = superline_spectrum_model()
    profiles = {p.sites for p in fam.datum.objects}
    for subset in fam.space.all_specialization_closed_subsets():
        assert frozenset(subset) in profiles


def test_descent_models_cover_their_objects_with_towers():
    for model in (c2_descent_model(), c3_descent_model()):
        upstairs = set(model.datum_x.labels())
        assert set(model.towers) == upstairs
        for pieces in model.towers.values():
            for pid in pieces:
                assert pid in set(model.datum_y.labels())
        assert set(model.expected_site_map) == set(model.space_x.labels())
        for down in model.pullbacks:
            assert down in set(model.datum_y.labels())
            assert model.pullbacks[down] in upstairs


def test_built_corpus_objects_and_support_data_are_valid():
    """The corpus builds these from checked parts and leaves validation to
    the checks that read them; here each is validated directly."""
    for fam in tower_corpus():
        for case in fam.cases:
            case.obj.validate()  # a module, or the two-term complex
    for fam in super_support_corpus(5, count=6) + (superline_spectrum_model(),):
        fam.datum.validate()
    for model in (c2_descent_model(), c3_descent_model()):
        model.datum_x.validate()
        model.datum_y.validate()
        for em in model.modules_x.values():
            em.validate()  # pullbacks among them


# Site profiles of super_support_corpus(5, count=6) and the odd line model;
# how the complexes are built may change, these may not.
PINNED_SUPER_PROFILES = {
    'superline': (
        ('zero', ()),
        ('unit', ('generic', 'minus', 'one', 'origin', 'two')),
        ('unit[flip]', ('generic', 'minus', 'one', 'origin', 'two')),
        ('K[origin]', ('origin',)),
        ('K[one]', ('one',)),
        ('K[minus]', ('minus',)),
        ('K[two]', ('two',)),
        ('K[origin+one]', ('one', 'origin')),
        ('K[origin+minus]', ('minus', 'origin')),
        ('K[origin+two]', ('origin', 'two')),
        ('K[one+minus]', ('minus', 'one')),
        ('K[one+two]', ('one', 'two')),
        ('K[minus+two]', ('minus', 'two')),
        ('K[origin+one+minus]', ('minus', 'one', 'origin')),
        ('K[origin+one+two]', ('one', 'origin', 'two')),
        ('K[origin+minus+two]', ('minus', 'origin', 'two')),
        ('K[one+minus+two]', ('minus', 'one', 'two')),
        ('K[origin+one+minus+two]', ('minus', 'one', 'origin', 'two')),
        ('rnd0[koszul]', ('minus', 'two')),
        ('rnd1[sum]', ('minus', 'two')),
        ('rnd2[koszul]', ('minus', 'origin')),
        ('rnd3[koszul]', ('origin', 'two')),
        ('rnd4[sum]', ('minus', 'origin', 'two')),
        ('rnd5[koszul]', ('one', 'origin')),
        ('t[origin+one|one+minus]', ('one',)),
        ('t[origin|one]', ()),
        ('t[unit|origin]', ('origin',)),
        ('c[origin;one]', ()),
    ),
    'superplane': (
        ('zero', ()),
        ('unit', ('generic', 'origin', 'point', 'xline', 'yline')),
        ('unit[flip]', ('generic', 'origin', 'point', 'xline', 'yline')),
        ('K[x]', ('origin', 'xline')),
        ('K[y]', ('origin', 'yline')),
        ('K[xy]', ('origin', 'xline', 'yline')),
        ('K[x-1]', ('point',)),
        ('K[origin]', ('origin',)),
        ('K[point]', ('point',)),
        ('K[origin+point]', ('origin', 'point')),
        ('K[x]+K[point]', ('origin', 'point', 'xline')),
        ('K[y]+K[point]', ('origin', 'point', 'yline')),
        ('K[xy]+K[point]', ('origin', 'point', 'xline', 'yline')),
        ('rnd0[koszul]', ('origin', 'point')),
        ('rnd1[freemap]', ('origin', 'xline')),
        ('rnd2[shift]', ('origin', 'xline')),
        ('rnd3[freemap]', ('generic', 'origin', 'point', 'xline', 'yline')),
        ('rnd4[koszul]', ('origin', 'point')),
        ('rnd5[src]', ('origin', 'xline')),
        ('rnd5[cone]', ()),
        ('t[x|y]', ('origin',)),
        ('t[xy|x-1]', ()),
        ('t[unit|x]', ('origin', 'xline')),
    ),
    'oddline': (
        ('zero', ()),
        ('unit', ('generic', 'minus', 'one', 'origin')),
        ('unit[flip]', ('generic', 'minus', 'one', 'origin')),
        ('K[origin]', ('origin',)),
        ('K[one]', ('one',)),
        ('K[minus]', ('minus',)),
        ('K[origin+one]', ('one', 'origin')),
        ('K[origin+minus]', ('minus', 'origin')),
        ('K[one+minus]', ('minus', 'one')),
        ('K[all]', ('minus', 'one', 'origin')),
        ('t[origin|one]', ()),
        ('t[origin+one|origin+minus]', ('origin',)),
        ('t[unit|origin]', ('origin',)),
        ('t[all|one]', ('one',)),
        ('K[origin]+K[one]', ('one', 'origin')),
        ('K[origin][1]', ('origin',)),
        ('c[origin;one]', ()),
    ),
}
