import random
import sys
from fractions import Fraction

import pytest

from equisyz.polyring import GradedPolynomialRing, Vector, RingMap, buchberger
from equisyz.gradmod import (
    FreeModule, ModuleMap, FPModule, FPMap, NEG_INF, Resolution, minimal_resolution,
    betti_table, dimension, depth, ext_module, biduality,
    cohen_macaulay, syzygy_order, base_change, fp_kernel, fp_cokernel, fp_homology, iso_surrogate_equal,
)
from equisyz.weyl import cyclic_sign_group, symmetric_group_on_sum_zero
from equisyz.equivtop import GKMGraph, gkm_cohomology
from helpers import (
    alternating_hilbert, biduality_fields, dual_module, koszul_syzygy_module, quotient_by_ideal,
    random_homogeneous, random_module, random_module_with_units, random_vector,
    reference_biduality, reference_compose_embedding, reference_matrix_product, reference_minimal_generating_indices,
    reference_minimized, reference_syzygy_order, relation_columns, residue_field_module,
    restrict_scalars, times_qpoly, triangle_graph,
)


@pytest.fixture
def R():
    return GradedPolynomialRing(["x", "y"])


def maximal_ideal_module(R):
    x, y = R.vars()
    return FPModule.from_columns(R, (2, 2), [Vector.from_polys([y, -x])])


def test_module_map_homogeneity_check(R):
    x, _ = R.vars()
    src = FreeModule(R, (2,))
    tgt = FreeModule(R, (0,))
    ModuleMap.from_matrix(src, tgt, [[x]])
    with pytest.raises(ValueError):
        ModuleMap.from_matrix(FreeModule(R, (4,)), tgt, [[x]])


def test_syzygies_of_map(R):
    from equisyz.gradmod import syzygies
    x, y = R.vars()
    mmap = ModuleMap.from_matrix(FreeModule(R, (2, 2)), FreeModule(R, (0,)), [[x, y]])
    smap = syzygies(mmap)
    assert buchberger(smap.columns) == buchberger([Vector.from_polys([y, -x])])
    # composite vanishes
    assert mmap.compose(smap).is_zero()
    # kernel of the zero map F -> 0 is the identity on F
    zmap = ModuleMap.from_matrix(FreeModule(R, (0, 2)), FreeModule(R, ()), [])
    smap = syzygies(zmap)
    assert sorted(smap.source.degrees) == [0, 2]
    assert buchberger(smap.columns) == buchberger(
        [Vector.unit(R, 2, 0), Vector.unit(R, 2, 1)])
    # injective map: no syzygies
    inj = ModuleMap.from_matrix(FreeModule(R, (2,)), FreeModule(R, (0,)), [[x]])
    assert syzygies(inj).source.rank == 0


def test_minimal_resolution_koszul(R):
    k = residue_field_module(R)
    res = minimal_resolution(k)
    assert res.betti() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert res.is_minimal()
    assert res.verify_exact()


def test_minimal_resolution_principal(R):
    x, _ = R.vars()
    m = quotient_by_ideal(R, [x])
    res = minimal_resolution(m)
    assert res.length == 1
    assert res.modules[1].degrees == (2,)


def test_minimal_resolution_free(R):
    assert minimal_resolution(FPModule.free(R, (0, 2))).length == 0


def test_minimization_prunes_redundant_relations(R):
    x, _ = R.vars()
    cols = [Vector.from_polys([x], 1), Vector.from_polys([x * x], 1)]
    m = FPModule.from_columns(R, (0,), cols)
    m0 = m.minimized()
    assert m0.num_rels == 1


def test_minimization_unit_pivot(R):
    one = R.one()
    x, y = R.vars()
    # two generators identified by a unit relation
    cols = [Vector.from_polys([one, -one]), Vector.from_polys([x, R.zero()])]
    m = FPModule.from_columns(R, (0, 0), cols)
    m0 = m.minimized()
    assert m0.num_gens == 1 and m0.num_rels == 1


def test_dimension_examples(R):
    assert dimension(FPModule.free(R, (0,))) == 2
    assert dimension(residue_field_module(R)) == 0
    x, _ = R.vars()
    assert dimension(quotient_by_ideal(R, [x])) == 1
    assert dimension(FPModule.zero(R)) == NEG_INF


def test_depth_examples(R):
    assert depth(FPModule.free(R, (0,))) == 2
    assert depth(residue_field_module(R)) == 0
    assert depth(maximal_ideal_module(R)) == 1
    with pytest.raises(ValueError):
        depth(FPModule.zero(R))


def test_ext_examples(R):
    k = residue_field_module(R)
    e2 = ext_module(k, 2).minimized()
    assert e2.num_gens == 1 and e2.gens_degrees == (-4,)
    assert dimension(e2) == 0
    assert ext_module(k, 0).is_zero() and ext_module(k, 1).is_zero()

    free = FPModule.free(R, (0,))
    e0 = ext_module(free, 0)
    assert e0.num_rels == 0 and e0.gens_degrees == (0,)
    for i in (-1, R.num_vars + 1):
        with pytest.raises(ValueError, match="Ext index out of range"):
            ext_module(free, i)

    x, _ = R.vars()
    rx = quotient_by_ideal(R, [x])
    e1 = ext_module(rx, 1).minimized()
    assert e1.gens_degrees == (-2,)
    assert iso_surrogate_equal(e1, quotient_by_ideal(R, [x], gen_degree=-2))


def test_dual_module_examples(R):
    assert dual_module(FPModule.free(R, (0,))).minimized().gens_degrees == (0,)
    assert dual_module(residue_field_module(R)).is_zero()
    d = dual_module(maximal_ideal_module(R)).minimized()
    assert d.num_rels == 0 and d.gens_degrees == (0,)


def test_biduality_examples(R):
    free = FPModule.free(R, (0,))
    bd = biduality(free)
    assert bd.torsion_free and bd.reflexive

    # R + Q: torsion part is the residue field
    x, y = R.vars()
    m = FPModule.from_columns(R, (0, 0), [
        Vector.from_polys([R.zero(), x]), Vector.from_polys([R.zero(), y])])
    bd = biduality(m)
    assert not bd.torsion_free
    ker = bd.kernel.minimized()
    assert iso_surrogate_equal(ker, residue_field_module(R))
    assert bd.cokernel.is_zero()

    bd = biduality(maximal_ideal_module(R))
    assert bd.torsion_free and not bd.reflexive
    assert iso_surrogate_equal(bd.cokernel.minimized(), residue_field_module(R))


def test_syzygy_order_small(R):
    assert syzygy_order(maximal_ideal_module(R)).order == 1
    assert syzygy_order(residue_field_module(R)).order == 0
    assert syzygy_order(FPModule.free(R, (0, 2))).order == 2
    assert syzygy_order(FPModule.zero(R)).order == 2


def test_syzygy_order_koszul_ladder():
    R3 = GradedPolynomialRing(["x", "y", "z"])
    expected = {1: 1, 2: 2, 3: 3}
    for j, want in expected.items():
        res = syzygy_order(koszul_syzygy_module(R3, j))
        assert res.order == want
        assert res.witness_verified


def test_base_change_examples():
    RG = GradedPolynomialRing(["c"], [4])
    RT = GradedPolynomialRing(["t"], [2])
    t = RT.var(0)
    emb = RingMap(RG, RT, [t * t])
    c = RG.var(0)
    m = base_change(quotient_by_ideal(RG, [c]), emb)
    assert m.hilbert().coefficients(6) == {0: 1, 2: 1}
    free = base_change(FPModule.free(RG, (0, 2)), emb)
    assert free.num_rels == 0 and free.gens_degrees == (0, 2)
    point = base_change(quotient_by_ideal(RG, [c]), emb)
    assert not point.is_zero()


def test_base_change_degree_mismatch():
    RG = GradedPolynomialRing(["c"], [4])
    RT = GradedPolynomialRing(["t"], [2])
    with pytest.raises(ValueError):
        RingMap(RG, RT, [RT.var(0)])


def test_restrict_scalars_examples():
    z2 = cyclic_sign_group()
    RT = z2.ring
    t = RT.var(0)
    down = restrict_scalars(z2, FPModule.free(RT, (0,)))
    assert down.num_rels == 0 and sorted(down.gens_degrees) == [0, 2]

    tors = restrict_scalars(z2, quotient_by_ideal(RT, [t]))
    assert tors.num_gens == 2
    assert tors.hilbert().coefficients(10) == {0: 1}

    assert restrict_scalars(z2, FPModule.zero(RT)).is_zero()


def test_restrict_then_base_change_multiplies_by_poincare():
    for group in (cyclic_sign_group(), symmetric_group_on_sum_zero(3)):
        RT = group.ring
        x = RT.var(0)
        m = quotient_by_ideal(RT, [x ** 2])
        down = restrict_scalars(group, m)
        up = base_change(down, group.embedding())
        pw = group.poincare_polynomial()
        assert up.hilbert() == times_qpoly(m.hilbert(), pw)


def test_auslander_buchsbaum_property():
    rng = random.Random(42)
    R = GradedPolynomialRing(["x", "y"])
    for _ in range(12):
        m = random_module(R, rng)
        if m.minimized().num_gens == 0:
            continue
        res = minimal_resolution(m)
        assert res.length <= 2
        assert depth(m) + res.length == 2


def test_cm_tests_always_agree():
    rng = random.Random(43)
    R = GradedPolynomialRing(["x", "y"])
    for _ in range(10):
        m = random_module(R, rng)
        assert cohen_macaulay(m).tests_agree


def test_syzygy_order_invariant_under_base_change_small():
    rng = random.Random(44)
    z2 = cyclic_sign_group()
    emb = z2.embedding()
    for _ in range(8):
        m = random_module(z2.invariant_ring, rng)
        assert syzygy_order(m).order == syzygy_order(base_change(m, emb)).order


def test_depth_preserved_under_base_change():
    rng = random.Random(45)
    a2 = symmetric_group_on_sum_zero(3)
    emb = a2.embedding()
    for _ in range(6):
        m = random_module(a2.invariant_ring, rng, max_gens=2, max_rels=2)
        if m.minimized().num_gens == 0:
            continue
        assert depth(m) == depth(base_change(m, emb))


def test_fp_kernel_cokernel_homology(R):
    x, y = R.vars()
    free1 = FPModule.free(R, (0,))
    rx = quotient_by_ideal(R, [x])
    proj = FPMap.from_matrix(free1, rx, [[R.one()]])
    ker, incl = fp_kernel(proj)
    assert iso_surrogate_equal(ker.minimized(),
                               FPModule.free(R, (2,)))
    assert fp_cokernel(proj).is_zero()
    # homology of R --x--> R --x--> R/(x^2)... simple chain with composite zero
    shift = FPModule.free(R, (2,))
    mulx = FPMap.from_matrix(shift, free1, [[x]])
    quot = quotient_by_ideal(R, [x])
    tox = FPMap.from_matrix(free1, quot, [[R.one()]])
    h = fp_homology(mulx, tox)
    assert h.is_zero()
    with pytest.raises(ValueError, match="maps are not consecutive"):
        fp_homology(mulx, FPMap.from_matrix(shift, free1, [[x]]))


def test_fp_map_checks_degrees_and_relations(R):
    x, y = R.vars()
    free0 = FPModule.free(R, (0,))
    rx = quotient_by_ideal(R, [x])
    FPMap.from_matrix(free0, rx, [[R.one()]])
    with pytest.raises(ValueError):
        FPMap.from_matrix(free0, rx, [[y]])   # degree 2 where 0 is expected
    with pytest.raises(ValueError):
        FPMap.from_matrix(free0, rx, [[R.one(), R.one()]])   # wrong shape
    with pytest.raises(ValueError):
        FPMap.from_matrix(rx, free0, [[R.one()]])   # sends the relation x to x != 0
    FPMap.from_matrix(rx, quotient_by_ideal(R, [x, y]), [[R.one()]])


def test_fp_map_from_a_free_source_builds_no_relation_basis(R, monkeypatch):
    # a free source has no relations whose images need a membership test,
    # so the target's relation basis is left unbuilt; a source with
    # relations still builds it once
    import equisyz.polyring as polyring
    x, y = R.vars()
    builds = []
    real_init = polyring.SubmoduleGB.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(polyring.SubmoduleGB, "__init__", counted_init)
    rxy = quotient_by_ideal(R, [x, y])
    FPMap.from_matrix(FPModule.free(R, (0, 2)), rxy, [[R.one(), y]])
    assert builds == [] and rxy.pmap._gb is None
    FPMap.from_matrix(quotient_by_ideal(R, [x]), rxy, [[R.one()]])
    assert len(builds) == 1 and rxy.pmap._gb is not None


def test_module_json_roundtrip(R):
    m = maximal_ideal_module(R)
    again = FPModule.from_json(m.to_json())
    assert again.gens_degrees == m.gens_degrees
    assert iso_surrogate_equal(m, again)


def test_betti_table_shifted(R):
    k = residue_field_module(R)
    shifted = k.shifted(3)
    assert betti_table(shifted) == {(0, 3): 1, (1, 5): 2, (2, 7): 1}


def test_ext_concentration_three_variables():
    R3 = GradedPolynomialRing(["x", "y", "z"])
    k = quotient_by_ideal(R3, R3.vars())
    nonzero = [i for i in range(4) if not ext_module(k, i).is_zero()]
    assert nonzero == [3]
    e3 = ext_module(k, 3).minimized()
    assert e3.gens_degrees == (-6,)
    cm = cohen_macaulay(k)
    assert cm.is_cm and cm.dim == 0 and cm.tests_agree


def test_minimal_presentation_and_resolution_are_computed_once(monkeypatch):
    import equisyz.gradmod as gradmod
    R4 = GradedPolynomialRing(["x1", "x2", "x3", "x4"])
    m = residue_field_module(R4)
    assert m.minimized() is m.minimized()
    assert m.minimized().minimized() is m.minimized()
    assert minimal_resolution(m) is minimal_resolution(m.minimized())

    calls = []
    real = gradmod.syzygies

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gradmod, "syzygies", counted)
    minimal_resolution(residue_field_module(R4))
    once = len(calls)
    assert once > 0
    del calls[:]
    k = residue_field_module(R4)
    depth(k)
    betti_table(k)
    for i in range(R4.num_vars + 1):
        ext_module(k, i)
    cohen_macaulay(k)
    assert len(calls) == once


def test_syzygy_order_matches_reference_and_biduality():
    rng = random.Random(48)
    R3 = GradedPolynomialRing(["x", "y", "z"])
    R4 = GradedPolynomialRing(["x1", "x2", "x3", "x4"])
    # the Koszul modules reach exact positions past G1*, which order 3 caps
    modules = ([random_module(R3, rng) for _ in range(16)]
               + [koszul_syzygy_module(R4, j) for j in (2, 3)])
    kinds = set()
    for m in modules:
        got = syzygy_order(m)
        ref = reference_syzygy_order(m)
        assert (got.order, got.kind, got.exactness) == (
            ref.order, ref.kind, ref.exactness)
        bd = biduality(m)
        assert (got.kind == "torsion") == (not bd.torsion_free)
        assert (got.order >= 2) == bd.reflexive
        kinds.add(got.kind)
        # the cached resolution answers as a fresh copy of the presentation
        table = betti_table(m)
        cm = cohen_macaulay(m)
        assert betti_table(FPModule(m.pmap)) == table
        assert cohen_macaulay(FPModule(m.pmap)).ext_nonzero == cm.ext_nonzero
        assert depth(FPModule(m.pmap)) == depth(m) == cm.depth
    assert kinds == {"free", "torsion", "not-reflexive", "dualized-resolution"}


def test_free_biduality_matches_reference_and_builds_no_basis(monkeypatch):
    # a free module is its own double dual: the identity data, with every
    # field equal to the full construction's and no Groebner basis built
    from equisyz.polyring import SubmoduleGB
    rng = random.Random(3030)
    cases = []
    for rank in range(7):
        for _ in range(2):
            nvars = rng.randint(1, 4)
            ring = GradedPolynomialRing(["t%d" % i for i in range(nvars)],
                                        [rng.choice([2, 4]) for _ in range(nvars)])
            cases.append(FPModule.free(ring, [rng.randint(-6, 6) for _ in range(rank)]))
    expected = [biduality_fields(reference_biduality(m)) for m in cases]
    builds = []
    real = SubmoduleGB.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SubmoduleGB, "__init__", counted)
    for m, want in zip(cases, expected):
        bd = biduality(m)
        assert biduality_fields(bd) == want
        assert bd.torsion_free and bd.reflexive
    assert not builds


def test_non_free_biduality_matches_reference():
    # the triangle's kernel has a relation: the general path, unchanged
    module = gkm_cohomology(GKMGraph.from_json(triangle_graph())).module
    assert module.num_rels
    bd = biduality(module)
    assert biduality_fields(bd) == biduality_fields(reference_biduality(module))
    assert bd.torsion_free and bd.reflexive


def test_torsion_biduality_computes_only_the_dual(monkeypatch):
    # M* = 0 for the residue field, so M** = 0: the kernel of M -> M** is
    # all of M and its cokernel is zero, with no Groebner step of their own:
    # one SubmoduleGB, of the dual presentation's columns
    from equisyz.polyring import SubmoduleGB
    R4 = GradedPolynomialRing(["x1", "x2", "x3", "x4"])
    calls = []
    real = SubmoduleGB.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SubmoduleGB, "__init__", counted)
    bd = biduality(residue_field_module(R4))
    assert len(calls) == 1
    assert bd.m_star.is_zero() and bd.m_double.is_zero()
    assert bd.kernel.gens_degrees == (0,) and not bd.torsion_free
    assert bd.cokernel.is_zero()


def test_ext_euler_characteristic_matches_dual_resolution():
    # sum (-1)^i Hilb(Ext^i(M, R)) = sum (-1)^i Hilb(F_i*): Ext^0 is a kernel,
    # Ext^p a cokernel and the Ext^i between them middle homology
    rng = random.Random(51)
    R3 = GradedPolynomialRing(["x", "y", "z"])
    kinds = set()
    for m in [random_module(R3, rng) for _ in range(12)] + [
            residue_field_module(R3)]:
        res = minimal_resolution(m)
        exts = [(i, ext_module(m, i)) for i in range(R3.num_vars + 1)]
        duals = [(i, FPModule.free(R3, f.dual().degrees))
                 for i, f in enumerate(res.modules)]
        assert alternating_hilbert(exts, 40) == alternating_hilbert(duals, 40)
        kinds |= {"kernel" if i == 0 else "cokernel" if i == res.length
                  else "middle" for i in range(res.length + 1)}
    assert kinds == {"kernel", "middle", "cokernel"}


def test_verify_exact_rejects_nonzero_composite_and_inexact_chain(R):
    x, y = R.vars()
    res = minimal_resolution(residue_field_module(R))
    assert res.verify_exact()
    first, last = res.maps
    # (x, y) is not a syzygy of the first map: the composite is nonzero
    not_chain = ModuleMap.from_matrix(last.source, last.target, [[x], [y]])
    assert not first.compose(not_chain).is_zero()
    assert not Resolution(res.modules, [first, not_chain]).verify_exact()
    # x times the Koszul syzygy: a complex whose image misses the kernel
    src = FreeModule(R, tuple(d + 2 for d in last.source.degrees))
    inexact = ModuleMap.from_matrix(src, last.target,
                                    [[x * e for e in row] for row in last.rows()])
    assert first.compose(inexact).is_zero()
    assert not Resolution(res.modules[:-1] + (src,),
                          [first, inexact]).verify_exact()


def test_verify_exact_and_minimal_module_reuse_cached_bases(monkeypatch):
    import equisyz.polyring as polyring
    R4 = GradedPolynomialRing(["x1", "x2", "x3", "x4"])
    m = residue_field_module(R4)
    assert m.minimized() is m
    res = minimal_resolution(m)

    calls = []

    def counting(cls, name):
        real_init = cls.__init__

        def counted_init(self, *args, **kwargs):
            calls.append(name)
            real_init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted_init)

    counting(polyring.SubmoduleGB, "SubmoduleGB")
    counting(polyring.GroebnerBasis, "GroebnerBasis")
    real_buchberger = polyring.buchberger

    def counted_buchberger(vectors):
        calls.append("buchberger")
        return real_buchberger(vectors)

    # polyring is the only submodule that binds buchberger: SubmoduleGB calls
    # it there, and gradmod grows GroebnerBasis objects instead
    assert [name for name, mod in sys.modules.items() if name.startswith("equisyz.")
            and getattr(mod, "buchberger", None) is real_buchberger] == ["equisyz.polyring"]
    monkeypatch.setattr(polyring, "buchberger", counted_buchberger)
    assert res.verify_exact()
    assert calls == []
    # the hooks do count: a fresh module's Hilbert series builds its basis
    residue_field_module(R4).hilbert()
    assert {"SubmoduleGB", "buchberger", "GroebnerBasis"} <= set(calls)


def test_minimal_generating_indices_match_reference_rerun():
    # one GroebnerBasis grown vector by vector keeps the same indices as
    # recomputing the reduced basis after every kept vector: on the
    # relation columns of seeded random modules (and a redundant copy of
    # them) and on the syzygies of every map of their minimal resolutions
    from equisyz.gradmod import minimal_generating_indices
    from equisyz.polyring import syzygy_basis
    R3 = GradedPolynomialRing(["x", "y", "z"])
    x = R3.var(0)
    cases = []
    for seed in range(30):
        m = random_module(R3, random.Random(seed))
        cols = relation_columns(m)
        cases.append((cols, m.gens_degrees))
        if cols:
            cases.append((cols[::-1] + [cols[0].poly_mul(x), cols[-1]], m.gens_degrees))
        for phi in minimal_resolution(m).maps:
            syz = syzygy_basis(R3, phi.target.rank, phi.columns)
            cases.append((syz, phi.source.degrees))
    dropped = 0
    for vectors, degrees in cases:
        kept = minimal_generating_indices(vectors, degrees)
        assert kept == reference_minimal_generating_indices(vectors, degrees)
        dropped += len(kept) < sum(not v.is_zero() for v in vectors)
    assert len(cases) >= 80 and dropped >= 20


def test_cached_gb_is_the_reduced_basis_of_columns_and_syzygies():
    # verify_exact compares gb().syzygies() with the next map's gb().gb:
    # both must be the reduced bases that buchberger returns, in its order;
    # checked on each input presentation and each map of its resolution
    from equisyz.polyring import syzygy_basis
    R3 = GradedPolynomialRing(["x", "y", "z"])
    R4 = GradedPolynomialRing(["x1", "x2", "x3", "x4"])
    modules = ([random_module(R3, random.Random(seed)) for seed in range(30)]
               + [residue_field_module(R4)])
    checked = 0
    for m in modules:
        for phi in (m.pmap,) + minimal_resolution(m).maps:
            cols = phi.columns
            assert phi.gb().gb == buchberger(cols)
            assert phi.gb().syzygies() == buchberger(
                syzygy_basis(phi.ring, phi.target.rank, cols))
            checked += 1
    assert checked >= 60


def _random_constant(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 7))


def _graded_automorphism(ring, degrees, rng):
    """A random invertible degree-0 matrix on the free module with these
    generator degrees: entry (i, j) is homogeneous of degree
    degrees[j] - degrees[i] with rational coefficients, zero when that is
    negative, and each block of equal degrees is a constant matrix
    L * U (L unit lower, U upper triangular with a nonzero diagonal), so
    the matrix is block triangular by degree and invertible."""
    n = len(degrees)
    rows = [[ring.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            d = degrees[j] - degrees[i]
            if d > 0:
                rows[i][j] = random_homogeneous(ring, d, rng, density=0.5,
                                                rational=True)
    for d in set(degrees):
        block = [i for i in range(n) if degrees[i] == d]
        low = [[Fraction(1) if a == b else _random_constant(rng) if b < a else 0
                for b in range(len(block))] for a in range(len(block))]
        up = [[_random_constant(rng) if b >= a else 0
               for b in range(len(block))] for a in range(len(block))]
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                rows[i][j] = ring.constant(sum(low[a][k] * up[k][b]
                                               for k in range(len(block))))
    return rows


def _combine(ring, rank, coeffs, vectors):
    """sum_j coeffs[j] * vectors[j] in R^rank."""
    acc = Vector(ring, rank, {})
    for c, v in zip(coeffs, vectors):
        acc = acc + v.poly_mul(c)
    return acc


def test_invariants_unchanged_by_change_of_generators_and_relations():
    # a module presented by P * phi * Q for graded automorphisms P of the
    # generators and Q of the relations is the same module: its Betti
    # table, Hilbert series, depth and syzygy order cannot change; the
    # rational entries push denominators through the Groebner core
    R3 = GradedPolynomialRing(["x", "y", "z"])
    rng = random.Random(2014)
    modules = ([random_module(R3, random.Random(seed)) for seed in range(12)]
               + [residue_field_module(R3)])
    changed = 0
    presented = [m for m in modules if m.num_rels]
    for m in presented:
        n, cols = m.num_gens, relation_columns(m)
        p = _graded_automorphism(R3, m.gens_degrees, rng)
        p_cols = [Vector.from_polys([row[j] for row in p], n) for j in range(n)]
        p_phi = [_combine(R3, n, c.to_polys(), p_cols) for c in cols]
        q = _graded_automorphism(R3, m.pmap.source.degrees, rng)
        new_cols = [_combine(R3, n, [row[k] for row in q], p_phi)
                    for k in range(len(cols))]
        new = FPModule.from_columns(R3, m.gens_degrees, new_cols)
        assert new.num_rels == m.num_rels
        changed += relation_columns(new) != cols
        assert betti_table(new) == betti_table(m)
        assert new.hilbert() == m.hilbert()
        if betti_table(m):
            assert depth(new) == depth(m)
        a, b = syzygy_order(new), syzygy_order(m)
        assert (a.order, a.kind) == (b.order, b.kind)
    assert changed == len(presented) >= 8


def test_compose_and_minimized_match_dense_references():
    # compose applies the stored columns and minimized pivots on them; the
    # dense row-matrix forms they replaced are the oracles.  Relations in
    # the degree of a generator give unit entries, several per module on
    # many seeds, so the pivot order (smallest row, then smallest column)
    # decides which generators are dropped
    from equisyz.gradmod import _unit_rows
    R3 = GradedPolynomialRing(["x", "y", "z"])
    pruned = several = composed = 0
    for seed in range(60):
        rng = random.Random(seed)
        m = random_module_with_units(R3, rng)
        got, ref = m.minimized(), reference_minimized(m)
        assert (got is m) == (ref is m)
        assert got.gens_degrees == ref.gens_degrees
        assert got.pmap.source.degrees == ref.pmap.source.degrees
        assert relation_columns(got) == relation_columns(ref)
        units = sum(len(_unit_rows(c)) for c in m.pmap.columns)
        pruned += got.num_gens < m.num_gens
        several += units >= 2
        # the presentation after a random map into its relations, with
        # rational entries, and each composite along the resolution
        phi = m.pmap
        degs = [max(phi.source.degrees) + 2 * rng.randint(0, 1)
                for _ in range(rng.randint(1, 3))] if phi.source.rank else []
        psi = ModuleMap(FreeModule(R3, degs), phi.source,
                        [random_vector(R3, phi.source.degrees, d, rng, rational=True)
                         for d in degs])
        res = minimal_resolution(m).maps
        maps = [(phi, psi)] + list(zip(res, res[1:]))
        for a, b in maps:
            assert a.compose(b).rows() == reference_matrix_product(
                R3, a.rows(), b.rows(), b.source.rank)
            composed += 1
    assert pruned >= 30 and several >= 20 and composed >= 60


def test_syzygy_embedding_columns_are_the_bidual_composite():
    # the embedding M -> G0* of the witness complex has as column j the
    # evaluation vector u_j = sum_w q_jw W_w: the composite of M -> M**
    # with the inclusion of M** in G0*, as the reference builds it
    R3 = GradedPolynomialRing(["x", "y", "z"])
    checked = 0
    for seed in range(40):
        m0 = random_module(R3, random.Random(seed)).minimized()
        if m0.num_gens == 0 or m0.num_rels == 0:
            continue
        bd = biduality(m0)
        if not bd.torsion_free:
            continue
        g0 = FPModule.free(R3, [-d for d in bd.m_star.gens_degrees])
        bmap = FPMap(m0, bd.m_double, bd.columns, check=False)
        ref = reference_compose_embedding(m0, bd.W, bmap.rows(), g0)
        embed = syzygy_order(m0).witness_maps[0]
        assert embed.columns == ref.columns
        checked += 1
    assert checked == 9


def test_cohen_macaulay_builds_each_dual_once(monkeypatch):
    # ext_module and depth dualize the maps of one resolution again and
    # again: ModuleMap.dual must transpose each distinct map once.  Only the
    # transposes built inside dual count; _bidual_columns takes others.
    from equisyz import gradmod
    calls, built, inside = [], [], []
    real_dual, real_transpose = gradmod.ModuleMap.dual, gradmod._transpose

    def dual(self):
        calls.append(self)
        inside.append(self)
        try:
            return real_dual(self)
        finally:
            inside.pop()

    def transpose(ring, columns, nrows):
        if inside:
            built.append(inside[-1])
        return real_transpose(ring, columns, nrows)

    monkeypatch.setattr(gradmod.ModuleMap, "dual", dual)
    monkeypatch.setattr(gradmod, "_transpose", transpose)
    R3 = GradedPolynomialRing(["x", "y", "z"])
    modules = [residue_field_module(R3)]
    modules += [random_module(R3, random.Random(seed)) for seed in range(5)]
    repeated = 0
    for m in modules:
        del calls[:], built[:]
        cohen_macaulay(m)
        distinct = {id(f) for f in calls}
        assert sorted(map(id, built)) == sorted(distinct)
        repeated += len(calls) - len(distinct)
    assert repeated > 0


def _ext_oracle_modules():
    """Seeded random modules over Q[x, y, z] and Q[x1..x4], the residue
    fields, free modules and a zero module."""
    R3 = GradedPolynomialRing(["x", "y", "z"])
    R4 = GradedPolynomialRing(["x1", "x2", "x3", "x4"])
    rng = random.Random(2023)
    modules = [random_module(R3, rng) for _ in range(12)]
    modules += [random_module(R4, rng, max_gens=2, max_rels=3) for _ in range(6)]
    for ring in (R3, R4):
        modules += [residue_field_module(ring), FPModule.free(ring, (0, 2)),
                    FPModule.zero(ring)]
    return modules


def test_ext_vanishing_matches_the_presented_ext_modules():
    # _ext_vanishes reads Ext^i(M, R) = 0 off the dual maps' cached bases;
    # ext_module presents Ext^i, and Ext above num_vars vanishes
    from equisyz.gradmod import _ext_vanishes
    seen = set()
    for m in _ext_oracle_modules():
        res = minimal_resolution(m)
        r = m.ring.num_vars
        for i in range(r + 2):
            want = ext_module(m, i).is_zero() if i <= r else True
            assert _ext_vanishes(res, i) == want, (m, i)
            seen.add((i == 0, i == res.length, want))
    # both edge positions are met with Ext vanishing and not vanishing
    assert {(True, False, True), (True, False, False), (False, True, False),
            (True, True, True), (True, True, False)} <= seen


def test_cohen_macaulay_reads_ext_from_the_cached_dual_bases(monkeypatch):
    # with the resolution and the Hilbert series at hand, the Ext test
    # presents no homology and builds at most one SubmoduleGB per map, that
    # of the map's dual (every kernel gradmod finds is a SubmoduleGB)
    from equisyz import gradmod
    from equisyz.polyring import SubmoduleGB
    calls = {"homology": 0, "SubmoduleGB": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gradmod, "homology", counted("homology", gradmod.homology))
    monkeypatch.setattr(SubmoduleGB, "__init__",
                        counted("SubmoduleGB", SubmoduleGB.__init__))
    built = 0
    for m in _ext_oracle_modules():
        res = minimal_resolution(m)
        m.hilbert()
        for name in calls:
            calls[name] = 0
        cm = cohen_macaulay(m)
        assert calls["homology"] == 0
        assert calls["SubmoduleGB"] <= res.length
        built += calls["SubmoduleGB"]
        assert cm.tests_agree
    assert built > 0
