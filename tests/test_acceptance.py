"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is exact (rational arithmetic), and Hilbert series are
compared exactly, as numerators.  Only criterion 3 also compares two
series term by term, through degree 40 (more than twenty even-degree
coefficients of every ring in play), next to the exact Kostant identity.
"""

import random

from equisyz.polyring import GradedPolynomialRing, Vector
from equisyz.gradmod import (
    FPModule, base_change, cohen_macaulay, depth, dimension, ext_module,
    iso_surrogate_equal, syzygy_order,
)
from equisyz.weyl import (
    cyclic_sign_group, symmetric_group_on_sum_zero, signed_permutation_rank2,
)
from equisyz.cartan import CartanComplex, cartan_cohomology
from equisyz.equivtop import (
    GKMGraph, FiltrationDatum, ab_cohomology, cm_filtration_check,
    gkm_cohomology, partial_exactness_vs_syzygy, pairing_perfection,
    verify_ext_duality, syzygy_gap_check,
)
from helpers import (
    base_changed, circle_model, koszul_syzygy_module, load, model_uct,
    point_model, quotient_by_ideal, random_module, residue_field_module, times_qpoly,
)

SERIES_DEGREE = 40
SEED = 20260808


def report(name, ok):
    print("ACCEPTANCE %-38s %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


def test_criterion_1_koszul_ladder():
    R3 = GradedPolynomialRing(["x", "y", "z"])
    ok = True
    for j, want in [(1, 1), (2, 2), (3, 3)]:
        res = syzygy_order(koszul_syzygy_module(R3, j))
        ok = ok and res.order == want and res.witness_verified
    report("1 koszul-ladder-syzygy-orders", ok)


def test_criterion_2_cm_characterization():
    R = GradedPolynomialRing(["x", "y"])
    x, y = R.vars()
    zero = R.zero()
    modules = [
        quotient_by_ideal(R, [x]),
        FPModule.from_columns(R, (0, 0), [Vector.from_polys([zero, x]),
                                          Vector.from_polys([zero, y])]),
        FPModule.free(R, (0, 2)),
        residue_field_module(R),
    ]
    ok = True
    for m in modules:
        cm = cohen_macaulay(m)
        ext_says = cm.is_cm
        depth_says = depth(m) == dimension(m)
        ok = ok and cm.tests_agree and (ext_says == depth_says)
    report("2 cm-ext-vs-depth-dim", ok)


def test_criterion_3_kostant_freeness():
    groups = [(cyclic_sign_group(), 2), (symmetric_group_on_sum_zero(3), 6),
              (signed_permutation_rank2(), 8)]
    ok = True
    for group, order in groups:
        pw = group.poincare_polynomial()
        ok = ok and group.order == order
        ok = ok and sum(pw.values()) == order
        lhs = FPModule.free(group.ring, (0,)).hilbert()
        rhs = times_qpoly(FPModule.free(group.invariant_ring, (0,)).hilbert(), pw)
        ok = ok and {k: v for k, v in lhs.coefficients(SERIES_DEGREE).items()} == \
            {k: v for k, v in rhs.coefficients(SERIES_DEGREE).items()}
        ok = ok and group._kostant_identity()
    report("3 kostant-freeness-molien", ok)


def test_criterion_4_cs_reflexivity_pairing():
    ok = True
    # sphere and product: free kernels of ranks 2 and 4, exact sequences,
    # unit Gram determinants
    for name, rank in [("s2", 2), ("s2xs2", 4)]:
        graph = load(GKMGraph, name)
        datum = load(FiltrationDatum, name + "_filtration")
        k = gkm_cohomology(graph)
        ok = ok and k.module.num_rels == 0 and k.module.num_gens == rank
        hs = ab_cohomology(datum)
        ok = ok and hs[-1].is_zero() and hs[0].is_zero() and hs[1].is_zero()
        rep = pairing_perfection(graph)
        ok = ok and rep.verdict == "pass" and rep.details["perfect"]
        det = graph.ring.parse(rep.details["determinant"])
        ok = ok and set(det.terms) == {graph.ring.zero_exps}
        ok = ok and abs(det.constant_term()) == 1
    # free circle: all three conditions fail together
    fc = load(FiltrationDatum, "free_circle")
    hs = ab_cohomology(fc)
    torsion = syzygy_order(fc.augmentation.source).order == 0
    not_injective = not hs[-1].is_zero()
    pairing_blocked = fc.augmentation.source.minimized().num_rels != 0
    ok = ok and torsion and not_injective and pairing_blocked
    report("4 chang-skjelbred-reflexivity-pairing", ok)


def test_criterion_5_ext_duality():
    ok = True
    for name in ("s2_filtration", "s2xs2_filtration", "free_circle"):
        datum = load(FiltrationDatum, name)
        ok = ok and verify_ext_duality(datum).verdict == "pass"
    report("5 ext-duality-theorem", ok)


def test_criterion_6_partial_exactness():
    expected = [("s2_filtration", 1), ("s2xs2_filtration", 2),
                ("free_circle", 0)]
    ok = True
    for name, want in expected:
        rep = partial_exactness_vs_syzygy(load(FiltrationDatum, name))
        ok = ok and rep.verdict == "pass"
        ok = ok and rep.details["j_exact"] == want == rep.details["j_syzygy"]
    report("6 partial-exactness-vs-syzygy", ok)


def test_criterion_7_restriction_invariance():
    rng = random.Random(SEED)
    ok = True
    trials = 0
    for group, count in [(cyclic_sign_group(), 30),
                         (symmetric_group_on_sum_zero(3), 20)]:
        emb = group.embedding()
        for _ in range(count):
            m = random_module(group.invariant_ring, rng)
            o1 = syzygy_order(m).order
            o2 = syzygy_order(base_change(m, emb)).order
            ok = ok and o1 == o2
            trials += 1
    ok = ok and trials == 50
    # reproducibility: the same seed gives the same modules and verdicts
    rng2 = random.Random(SEED)
    m_first = random_module(cyclic_sign_group().invariant_ring, rng2)
    rng3 = random.Random(SEED)
    m_again = random_module(cyclic_sign_group().invariant_ring, rng3)
    ok = ok and m_first.to_json() == m_again.to_json()
    report("7 syzygy-order-base-change-50-trials", ok)


def test_criterion_8_nonabelian_descent():
    from equisyz.equivtop import descend_invariants
    graph = load(GKMGraph, "s2")
    res = descend_invariants(graph)
    m = res.module.minimized()
    ok = m.num_rels == 0 and sorted(m.gens_degrees) == [0, 2]
    ok = ok and m.ring.degrees == (4,)
    ok = ok and all(c.verdict == "pass" for c in res.checks)
    report("8 su2-sphere-descent", ok)


def test_criterion_9_cartan_model():
    RT = GradedPolynomialRing(["t"])
    t = RT.var(0)
    H = cartan_cohomology(CartanComplex(RT, circle_model()))
    ok = iso_surrogate_equal(H, quotient_by_ideal(RT, [t]))
    Hpt = cartan_cohomology(CartanComplex(RT, point_model()))
    ok = ok and Hpt.num_rels == 0 and Hpt.gens_degrees == (0,)
    for model in (circle_model(), point_model()):
        ok = ok and model_uct(model, RT).passed
    report("9 cartan-model-and-uct", ok)


def test_criterion_10_cm_filtration():
    datum = load(FiltrationDatum, "s2_filtration")
    rep = cm_filtration_check(datum)
    ok = rep.verdict == "pass"
    pieces = {p["position"]: p for p in rep.details["pieces"]}
    ok = ok and pieces[0]["dim"] == 1 and pieces[1]["dim"] == 0
    # the Weyl-symmetric version keeps its verdict under base change
    group = cyclic_sign_group()
    datum_g = load(FiltrationDatum, "su2_g_filtration")
    rep_g = cm_filtration_check(datum_g)
    rep_t = cm_filtration_check(base_changed(datum_g, group.embedding()))
    ok = ok and rep_g.verdict == "pass" == rep_t.verdict
    report("10 cm-filtration-and-base-change", ok)


def test_criterion_11_syzygy_gap_bound():
    ok = True
    for name in ("s2_filtration", "s2xs2_filtration", "free_circle",
                 "su2_g_filtration"):
        rep = syzygy_gap_check(load(FiltrationDatum, name))
        ok = ok and rep.verdict == "pass"
        order = rep.details["order"]
        threshold = rep.details["threshold"]
        if order >= threshold:
            ok = ok and order == rep.details["rank"]
    report("11 syzygy-gap-bound", ok)
