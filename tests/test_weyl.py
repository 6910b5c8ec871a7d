import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

from equisyz import polyring
from equisyz.polyring import GradedPolynomialRing, HilbertSeries, Polynomial, Vector
from equisyz.gradmod import FPModule, base_change, iso_surrogate_equal
from equisyz.equivtop import GKMGraph, _satisfies_congruences, gkm_cohomology
from equisyz.cli import run
from equisyz.weyl import (
    ReflectionGroup, WEquivariantFreeModule, GroupClosureError,
    cyclic_sign_group, symmetric_group_on_sum_zero, signed_permutation_rank2,
    product_group, group_from_json,
)
from helpers import (
    _mat_mul, failures, random_homogeneous, random_vector, reference_act, reference_closure,
    reference_invariants, reference_molien_series, reference_reynolds_tuple,
    relation_columns, restrict_scalars, reynolds, reynolds_tuple, verify_or_raise,
)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "bench"))
import gen  # noqa: E402  (the benchmark's GKM graph generators)


def test_closure_orders():
    assert cyclic_sign_group().order == 2
    assert symmetric_group_on_sum_zero(3).order == 6
    assert symmetric_group_on_sum_zero(4).order == 24
    assert signed_permutation_rank2().order == 8


def test_closure_bound_exceeded():
    ring = GradedPolynomialRing(["x", "y"])
    x, y = ring.vars()
    shear = [[1, 1], [0, 1]]  # infinite order
    with pytest.raises(GroupClosureError):
        ReflectionGroup([shear], [x, y], ring=ring, max_order=100)


def test_singular_generator_rejected():
    ring = GradedPolynomialRing(["x", "y"])
    x, y = ring.vars()
    for gens in ([[[0, 0], [0, 0]]], [[[1, 0], [0, 0]]],
                 [[[0, 1], [1, 0]], [[1, 0], [0, 0]]]):
        with pytest.raises(ValueError, match="must be invertible"):
            ReflectionGroup(gens, [x * x + y * y, x * x * y * y], ring=ring)


def test_cayley_table():
    for group in (cyclic_sign_group(), signed_permutation_rank2(),
                  symmetric_group_on_sum_zero(4)):
        assert group.elements[0] == tuple(
            tuple(int(i == j) for j in range(group.rank)) for i in range(group.rank))
        assert len(set(group.elements)) == group.order
        for g, row in zip(group.generators, group.table):
            assert [group.elements[k] for k in row] == [
                _mat_mul(g, w) for w in group.elements]


def _rational_groups():
    """Rank-2 groups with elements that are not integer matrices: the
    order-4 group of the matrix [[0, -1/2], [2, 0]], and the order-8 group
    it makes with a sign flip; x^2 + 4y^2 and x^2 y^2 are invariant."""
    ring = GradedPolynomialRing(["x", "y"])
    x, y = ring.vars()
    invariants = [x * x + (y * y).scale(4), x * x * y * y]
    turn = [[0, Fraction(-1, 2)], [2, 0]]
    flip = [[1, 0], [0, -1]]
    return [ReflectionGroup([turn], invariants, ring=ring),
            ReflectionGroup([turn, flip], invariants, ring=ring)]


def test_closure_matches_the_fraction_walk():
    # the closure on integer matrices numbers the elements, and fills the
    # table, as the walk on Fraction matrix products does, also where the
    # generators are not integer matrices
    z2 = cyclic_sign_group()
    p3, _ = GKMGraph.from_json(gen.projective_space(3, 0, symmetric=True)).symmetry
    rational = _rational_groups()
    assert [g.order for g in rational] == [4, 8]
    assert [s is None for s in rational[0]._signed] == [False, True, False, True]
    for group in rational + [z2, signed_permutation_rank2(), symmetric_group_on_sum_zero(3),
                             symmetric_group_on_sum_zero(4),
                             product_group(z2, symmetric_group_on_sum_zero(3)), p3]:
        elements, table = reference_closure(group.generators)
        assert group.elements == elements and group.table == table
        assert group._index == {w: k for k, w in enumerate(elements)}
        assert all(type(x) is Fraction for w in group.elements for row in w for x in row)
        for (m, d), w in zip(group._forms, group.elements):
            assert d > 0 and math.gcd(d, *[x for row in m for x in row]) == 1
            assert all(Fraction(x, d) == y for r, s in zip(m, w) for x, y in zip(r, s))


def test_reynolds_tuple_matches_the_fraction_average():
    # summing integer numerators over the group gives the Fraction average,
    # on the zero vector and seeded random vectors, homogeneous or not,
    # integral or rational, not W-stable, and on their (W-stable) images;
    # a nonzero image is born in its integer form
    z2 = cyclic_sign_group()
    a2 = symmetric_group_on_sum_zero(3)
    b2 = signed_permutation_rank2()
    s4 = symmetric_group_on_sum_zero(4)
    z2z2 = product_group(z2, z2)
    modules = [
        WEquivariantFreeModule(z2, ["pt"], [{"pt": "pt"}]),
        _orbit_module(z2, z2.elements[0], _mat_mul),
        _orbit_module(b2, (1, 0), _linear),
        _orbit_module(a2, a2.elements[0], _mat_mul),
        _orbit_module(s4, (1, 0, 0), _linear),
        _orbit_module(z2z2, z2z2.elements[0], _mat_mul),
        _orbit_module(product_group(z2, a2), (1, 1, 0), _linear),
        _kernel_module(gen.projective_space(3, 0, symmetric=True))[0],
    ]
    modules += [_orbit_module(g, g.elements[0], _mat_mul) for g in _rational_groups()]
    rng = random.Random(1717)
    images = 0
    for mod in modules:
        ring, cols = mod.group.ring, (0,) * mod.rank
        vectors = [Vector(ring, mod.rank, {})]
        for _ in range(2):
            rational = rng.random() < 0.5
            v = random_vector(ring, cols, rng.choice([0, 2, 4]), rng, rational=rational)
            w = random_vector(ring, cols, rng.choice([2, 6]), rng, rational=rational)
            vectors += [v, v + w]
        for v in vectors:
            got = reynolds_tuple(mod, v)
            assert got.is_zero() or got._view is None
            assert got == reference_reynolds_tuple(mod, v)
            again = reynolds_tuple(mod, got)
            assert again == got == reference_reynolds_tuple(mod, got)
            images += not got.is_zero()
    assert images >= 3 * len(modules), images


def _is_signed_permutation(matrix):
    n = len(matrix)
    return (all(sum(1 for x in row if x) == 1 for row in matrix)
            and all(sum(1 for i in range(n) if matrix[i][j]) == 1
                    for j in range(n))
            and all(x in (0, 1, -1) for row in matrix for x in row))


def test_action_matches_substitution():
    # the term-by-term action of signed permutations, and the substitution
    # of every other element, against substituting the column forms
    z2 = cyclic_sign_group()
    p3, _ = GKMGraph.from_json(gen.projective_space(3, 0, symmetric=True)).symmetry
    groups = [z2, signed_permutation_rank2(), product_group(z2, z2),
              symmetric_group_on_sum_zero(3), symmetric_group_on_sum_zero(4), p3,
              *_rational_groups()]
    rng = random.Random(61)
    for group in groups:
        signed = [_is_signed_permutation(w) for w in group.elements]
        assert [s is not None for s in group._signed] == signed
        polys = []
        for _ in range(3):
            f = group.ring.zero()
            for d in range(7):
                f = f + random_homogeneous(group.ring, 2 * d, rng, density=0.4)
            polys.append(f)
        for w in group.elements:
            for f in polys:
                image = group.act(w, f)
                assert image == reference_act(group, w, f)
                assert image.is_zero() or image._view is None  # born in integer form
    assert not all(_is_signed_permutation(w)
                   for w in symmetric_group_on_sum_zero(3).elements)
    assert all(_is_signed_permutation(w) for w in p3.elements)


def test_verify_accepts_builtins():
    for group in (cyclic_sign_group(), symmetric_group_on_sum_zero(3),
                  signed_permutation_rank2()):
        checks = group.verify()
        assert {c.verdict for c in checks} == {"pass"}, failures(checks)


def test_verify_rejects_non_invariant():
    ring = GradedPolynomialRing(["t"])
    t = ring.var(0)
    bad = ReflectionGroup([[[-1]]], [t ** 3], ring=ring)
    checks = bad.verify()
    assert checks[0].name == "invariance of candidate 1"
    assert checks[0].theorem == "invariance" and checks[0].verdict == "fail"
    with pytest.raises(ValueError):
        verify_or_raise(bad)


def test_verify_rejects_wrong_order_product():
    # invariant of too-high degree: t^4 for the sign group (product 2 != 2? 4/2=2... use t^6)
    ring = GradedPolynomialRing(["t"])
    t = ring.var(0)
    bad = ReflectionGroup([[[-1]]], [t ** 4], ring=ring)
    checks = bad.verify()
    assert checks[0].passed
    assert "product of half-degrees equals the group order" in failures(checks)


def test_coinvariant_bases():
    z2 = cyclic_sign_group()
    assert z2.coinvariant_basis() == [(0,), (1,)]
    a2 = symmetric_group_on_sum_zero(3)
    assert len(a2.coinvariant_basis()) == 6
    assert a2.poincare_polynomial() == {0: 1, 2: 2, 4: 2, 6: 1}
    b2 = signed_permutation_rank2()
    assert len(b2.coinvariant_basis()) == 8
    trivial = ReflectionGroup([], [], ring=GradedPolynomialRing([], []))
    assert trivial.order == 1
    assert trivial.coinvariant_basis() == [()]


def test_kostant_identity_exact():
    for group in (cyclic_sign_group(), symmetric_group_on_sum_zero(3),
                  signed_permutation_rank2()):
        assert group._kostant_identity()
        assert sum(group.poincare_polynomial().values()) == group.order


def test_molien_matches_invariant_degrees():
    # the exact check agrees with the Molien series expanded through degree
    # 40, and rejects a series that agrees with it through degree 3 (the
    # first invariant degree doubled: t^4 in place of t^2 for the sign group)
    for group in (cyclic_sign_group(), symmetric_group_on_sum_zero(3),
                  signed_permutation_rank2(), symmetric_group_on_sum_zero(4)):
        series = HilbertSeries({0: 1}, group.invariant_degrees)
        assert group.molien_matches(series)
        assert reference_molien_series(group, 40) == {
            k: Fraction(v) for k, v in series.coefficients(40).items()}
        degrees = group.invariant_degrees
        wrong = HilbertSeries({0: 1}, (2 * degrees[0],) + degrees[1:])
        assert not group.molien_matches(wrong)
        assert reference_molien_series(group, 3) == {
            k: Fraction(v) for k, v in wrong.coefficients(3).items()}
    # weighted by the fixed-point counts of the regular representation of
    # the sign group, the series is 1 / (1 - q^2) = (1 + q^2) / (1 - q^4),
    # that of its invariant tuples, a copy of R_T; 2 / (1 - q^4) agrees with
    # it in degree 0 only
    z2 = cyclic_sign_group()
    weighted = reference_molien_series(z2, 40, weights=[2, 0])
    assert weighted == HilbertSeries({0: 1, 2: 1}, (4,)).coefficients(40)
    assert weighted != HilbertSeries({0: 2}, (4,)).coefficients(40)


def _free_invariants(mod):
    """The invariants of the whole free module (the unit vectors, with the
    series of R_T^rank), whose Hilbert series must be the Molien series
    weighted by the fixed-point counts of the permutation action: compared
    through degree 40."""
    ring = mod.group.ring
    inv = mod.invariants([Vector.unit(ring, mod.rank, i) for i in range(mod.rank)],
                         HilbertSeries({0: mod.rank}, ring.degrees))
    fixed = [sum(1 for i, p in enumerate(perm) if i == p) for perm in mod._action_of]
    assert inv.module.hilbert().coefficients(40) == reference_molien_series(
        mod.group, 40, weights=fixed)
    return inv


def test_reynolds_examples():
    z2 = cyclic_sign_group()
    t = z2.ring.var(0)
    assert reynolds(z2, t).is_zero()
    assert reynolds(z2, t * t) == t * t

    a2 = symmetric_group_on_sum_zero(3)
    x = a2.ring.var(0)
    r = reynolds(a2, x * x)
    assert not r.is_zero()
    assert all(a2.act(g, r) == r for g in a2.generators)


def test_reynolds_idempotent_property():
    rng = random.Random(3)
    a2 = symmetric_group_on_sum_zero(3)
    for _ in range(8):
        f = random_homogeneous(a2.ring, rng.choice([2, 4, 6, 8]), rng)
        rf = reynolds(a2, f)
        assert reynolds(a2, rf) == rf
        assert all(a2.act(g, rf) == rf for g in a2.generators)


def test_expand_reconstruction_property():
    # f = sum_b emb(c_b) * x^b over the coinvariant basis B, for seeded
    # inhomogeneous polynomials with rational coefficients, and column by
    # column for rank-3 vectors through expand_vector, whose coordinates are
    # born in integer form; over z2, A2, B2, S_4, z2 x A2 and the rational
    # groups that verify (the order-4 one has 8 coinvariant monomials)
    rng = random.Random(9)
    z2, a2 = cyclic_sign_group(), symmetric_group_on_sum_zero(3)
    groups = [z2, a2, signed_permutation_rank2(), symmetric_group_on_sum_zero(4),
              product_group(z2, a2)] + [g for g in _rational_groups() if not failures(g.verify())]
    assert [g.order for g in groups] == [2, 6, 8, 24, 12, 8]

    def random_poly(ring):
        f = ring.zero()
        for _ in range(rng.randint(1, 3)):
            f = f + random_homogeneous(ring, 2 * rng.randint(0, 4), rng,
                                       density=0.5, rational=True)
        return f

    for group in groups:
        emb, ring = group.embedding(), group.ring
        monomials = [ring.monomial(b) for b in group.coinvariant_basis()]

        def back(coords):
            assert len(coords) == len(monomials)
            return sum((emb(c) * m for c, m in zip(coords, monomials)), ring.zero())

        for _ in range(6):
            f = random_poly(ring)
            expansion = group.expand(f)
            assert all(not c.is_zero() and c._view is None for c in expansion.values())
            assert sum((emb(c) * ring.monomial(b) for b, c in expansion.items()),
                       ring.zero()) == f
            coords = group.expand_vector(f, 1)
            assert coords.is_zero() or coords._view is None
            assert back(coords.to_polys()) == f
        n = len(monomials)
        for _ in range(3):
            polys = [random_poly(ring) if rng.random() < 0.8 else ring.zero()
                     for _ in range(3)]
            coords = group.expand_vector(Vector.from_polys(polys), 3)
            assert coords.rank == 3 * n and (coords.is_zero() or coords._view is None)
            parts = coords.to_polys()
            assert [back(parts[i * n:(i + 1) * n]) for i in range(3)] == polys


def test_expand_coefficients_are_homogeneous():
    a2 = symmetric_group_on_sum_zero(3)
    x, y = a2.ring.vars()
    f = x ** 2 * y ** 2
    for b, c in a2.expand(f).items():
        assert c.homogeneous_degree() == 8 - a2.ring.weighted_degree(b)


def test_module_invariants_sphere_datum():
    z2 = cyclic_sign_group()
    mod = WEquivariantFreeModule(z2, ["N", "S"], [{"N": "S", "S": "N"}])
    inv = _free_invariants(mod)
    m = inv.module.minimized()
    assert m.num_rels == 0 and sorted(m.gens_degrees) == [0, 2]
    # generators are the expected invariant tuples (1,1) and (t,-t)
    ring = z2.ring
    t = ring.var(0)
    gens_gb = __import__("equisyz.polyring", fromlist=["SubmoduleGB"]).SubmoduleGB(
        ring, 2, inv.generators)
    assert gens_gb.contains(Vector.from_polys([ring.one(), ring.one()]))
    assert gens_gb.contains(Vector.from_polys([t, -t]))


def test_module_invariants_fixed_point():
    # one fixed point: the invariant tuples are R_T^W itself, free on 1
    z2 = cyclic_sign_group()
    mod = WEquivariantFreeModule(z2, ["pt"], [{"pt": "pt"}])
    inv = _free_invariants(mod)
    m = inv.module.minimized()
    assert m.num_rels == 0 and m.gens_degrees == (0,)


def test_module_invariants_trivial_group():
    trivial = ReflectionGroup([], [], ring=GradedPolynomialRing([], []))
    mod = WEquivariantFreeModule(trivial, ["a", "b"], [])
    inv = _free_invariants(mod)
    m = inv.module.minimized()
    assert m.num_rels == 0 and len(m.gens_degrees) == 2


def test_module_invariants_regular_representation():
    z2 = cyclic_sign_group()
    mod = WEquivariantFreeModule(z2, ["e", "s"], [{"e": "s", "s": "e"}])
    inv = _free_invariants(mod)
    m = inv.module.minimized()
    # isomorphic to R_T as a module over the invariants: free on degrees 0, 2
    assert m.num_rels == 0 and sorted(m.gens_degrees) == [0, 2]
    down = restrict_scalars(z2, FPModule.free(z2.ring, (0,)))
    assert iso_surrogate_equal(m, down.minimized())


def test_inconsistent_action_rejected():
    a2 = symmetric_group_on_sum_zero(3)
    with pytest.raises(ValueError, match="action is inconsistent with the group law"):
        WEquivariantFreeModule(a2, ["a", "b"],
                               [{"a": "b", "b": "a"}, {"a": "a", "b": "b"}])
    with pytest.raises(ValueError, match="need one permutation per group generator"):
        WEquivariantFreeModule(a2, ["a", "b"], [{"a": "b", "b": "a"}])


def test_sphere_kernel_invariants_base_change_recovers_series():
    # the sphere kernel {(f,g): f = g mod t} is W-stable; extending its
    # invariants back to the torus ring must reproduce its Hilbert series
    z2 = cyclic_sign_group()
    ring = z2.ring
    t = ring.var(0)
    kernel_gens = [Vector.from_polys([ring.one(), ring.one()]),
                   Vector.from_polys([t, ring.zero()])]
    from equisyz.polyring import syzygy_basis
    kernel = FPModule.from_columns(ring, (0, 2),
                                   syzygy_basis(ring, 2, kernel_gens))
    mod = WEquivariantFreeModule(z2, ["N", "S"], [{"N": "S", "S": "N"}])
    inv = mod.invariants(kernel_gens, kernel.hilbert())
    up = base_change(inv.module, z2.embedding())
    assert up.hilbert() == kernel.hilbert()


def test_product_group():
    prod = product_group(cyclic_sign_group(), cyclic_sign_group())
    assert prod.order == 4
    assert not failures(prod.verify())
    assert len(prod.coinvariant_basis()) == 4


def test_group_json_roundtrip():
    obj = {"rank": 1, "generators": [[[-1]]], "invariants": ["t1^2"]}
    g = group_from_json(obj)
    assert g.order == 2 and not failures(g.verify())


def test_reynolds_projector_on_monomial_basis_degree_20():
    # projector identities on every monomial through weighted degree 20
    for group in (cyclic_sign_group(), symmetric_group_on_sum_zero(3)):
        ring = group.ring
        from helpers import monomials_of_degree
        for deg in range(0, 22, 2):
            for exps in monomials_of_degree(ring, deg):
                m = ring.monomial(exps)
                r = reynolds(group, m)
                assert reynolds(group, r) == r
                assert all(group.act(g, r) == r for g in group.generators)


def test_regular_representation_s3():
    a2 = symmetric_group_on_sum_zero(3)
    names = ["w%d" % i for i in range(6)]
    # left multiplication action of the generators on the element list
    index = {w: i for i, w in enumerate(a2.elements)}
    perms = []
    for g in a2.generators:
        perms.append({names[index[w]]: names[index[_mat_mul(g, w)]]
                      for w in a2.elements})
    mod = WEquivariantFreeModule(a2, names, perms)
    inv = _free_invariants(mod)
    m = inv.module.minimized()
    # invariants of the regular representation: R_T as a module over the
    # invariant subring, free with the coinvariant degrees
    assert m.num_rels == 0
    assert sorted(m.gens_degrees) == [0, 2, 2, 4, 4, 6]


def test_symmetric_group_small_ranks_verify():
    s2 = symmetric_group_on_sum_zero(2)
    assert s2.order == 2 and not failures(s2.verify())
    s4 = symmetric_group_on_sum_zero(4)
    assert s4.order == 24 and not failures(s4.verify())
    assert len(s4.coinvariant_basis()) == 24


def test_restrict_scalars_rejects_unfree_datum():
    # wrong invariant degree: the staircase has four monomials but |W| = 2
    ring = GradedPolynomialRing(["t"])
    t = ring.var(0)
    bad = ReflectionGroup([[[-1]]], [t ** 4], ring=ring)
    from equisyz.gradmod import FPModule
    with pytest.raises(ValueError):
        restrict_scalars(bad, FPModule.free(ring, (0,)))


def _orbit_module(group, start, act):
    """Free permutation module on the orbit of start; w moves x to act(w, x)."""
    points, queue = [start], [start]
    while queue:
        x = queue.pop()
        for g in group.generators:
            y = act(g, x)
            if y not in points:
                points.append(y)
                queue.append(y)
    names = ["p%d" % i for i in range(len(points))]
    perms = [{names[i]: names[points.index(act(g, x))]
              for i, x in enumerate(points)} for g in group.generators]
    return WEquivariantFreeModule(group, names, perms)


def _linear(g, x):
    return tuple(sum(g[i][j] * x[j] for j in range(len(x)))
                 for i in range(len(x)))


def _kernel_module(obj):
    """(module, kernel generators, kernel Hilbert series) of a symmetric
    GKM graph's JSON."""
    graph = GKMGraph.from_json(obj)
    group, perms = graph.symmetry
    kernel = gkm_cohomology(graph)
    return (WEquivariantFreeModule(group, graph.vertices, perms),
            kernel.generators, kernel.module.hilbert())


def _union_module(*modules):
    """The direct sum of permutation modules over one group: the disjoint
    union of their index sets."""
    names, perms = [], [{} for _ in modules[0].group.generators]
    for m, mod in enumerate(modules):
        names += ["%d:%s" % (m, n) for n in mod.names]
        for perm, gperm in zip(perms, mod.gen_perms):
            perm.update(("%d:%s" % (m, mod.names[i]), "%d:%s" % (m, mod.names[j]))
                        for i, j in enumerate(gperm))
    return WEquivariantFreeModule(modules[0].group, names, perms)


def test_reynolds_tuple_on_several_orbits():
    # one average at each orbit's first position, spread over the orbit by
    # one element per position, equals the average over the group on
    # permutation modules of three orbits, one of them a fixed point: for
    # A2 with three points and the six of the regular representation, for
    # B2 with two orbits of four points
    a2 = symmetric_group_on_sum_zero(3)
    b2 = signed_permutation_rank2()
    cases = [
        (_union_module(WEquivariantFreeModule(a2, ["pt"], [{"pt": "pt"}] * 2),
                       _orbit_module(a2, (1, 0), _linear),
                       _orbit_module(a2, a2.elements[0], _mat_mul)), [0, 1, 4]),
        (_union_module(_orbit_module(b2, (1, 0), _linear),
                       WEquivariantFreeModule(b2, ["pt"], [{"pt": "pt"}] * 2),
                       _orbit_module(b2, (1, 1), _linear)), [0, 4, 5]),
    ]
    rng = random.Random(2929)
    for mod, reps in cases:
        assert mod._reps == reps
        targets = [r for _, cols in mod._gather for r in cols.values()]
        assert sorted(targets) == sorted(list(range(len(reps))) * mod.group.order)
        spread = [v for _, cols in mod._spread for v in cols.values()]
        assert sorted(spread) == list(range(mod.rank))
        ring, cols = mod.group.ring, (0,) * mod.rank
        for _ in range(3):
            v = random_vector(ring, cols, rng.choice([0, 2, 4]), rng, rational=True)
            got = reynolds_tuple(mod, v)
            assert not got.is_zero() and got._view is None
            assert got == reference_reynolds_tuple(mod, v)
            assert reynolds_tuple(mod, got) == got


def test_group_images_of_kernel_generators_lie_in_the_kernel():
    # the theorem the Hilbert-series stop of descent rests on: the GKM
    # kernel is W-stable, so every group generator, acting by substitution
    # on each component and by its vertex map on the positions, sends each
    # kernel generator to a tuple satisfying the edge congruences
    graphs = [gen.projective_space(3, "0", symmetric=True),
              gen.flag_variety(3, "0", symmetric=True),
              gen.flag_variety(4, "0", symmetric=True)]
    for name in ("flag3.json", "s2.json"):
        with open(os.path.join(HERE, "..", "data", name)) as fh:
            graphs.append(json.load(fh))
    for obj in graphs:
        graph = GKMGraph.from_json(obj)
        group, perms = graph.symmetry
        position = {v: i for i, v in enumerate(graph.vertices)}
        kernel = gkm_cohomology(graph).generators
        for f in kernel:
            assert _satisfies_congruences(graph, f.to_polys())
            for matrix, perm in zip(group.generators, perms):
                image = [None] * len(graph.vertices)
                for v, comp in zip(graph.vertices, f.to_polys()):
                    image[position[perm[v]]] = reference_act(group, matrix, comp)
                assert _satisfies_congruences(graph, image)


def _assert_matches_reference(mod, gens=None, hilbert=None):
    # without gens the whole free module (its unit vectors), without hilbert
    # the series of R_T^rank, which holds any generators
    ring = mod.group.ring
    if gens is None:
        gens = [Vector.unit(ring, mod.rank, i) for i in range(mod.rank)]
    inv = mod.invariants(gens, hilbert or HilbertSeries({0: mod.rank}, ring.degrees))
    ref_gens, ref_module = reference_invariants(mod, gens)
    assert inv.generators == ref_gens
    assert inv.module.gens_degrees == ref_module.gens_degrees
    assert relation_columns(inv.module) == relation_columns(ref_module)


def test_invariants_match_reference_selection():
    # same generators in the same order, and the same presentation, as
    # expanding every Reynolds candidate; the regular representations are
    # cases where the early stop never fires
    z2 = cyclic_sign_group()
    a2 = symmetric_group_on_sum_zero(3)
    b2 = signed_permutation_rank2()
    s4 = symmetric_group_on_sum_zero(4)
    z2z2 = product_group(z2, z2)
    z2a2 = product_group(z2, a2)
    modules = [
        WEquivariantFreeModule(z2, ["pt"], [{"pt": "pt"}]),
        _orbit_module(z2, z2.elements[0], _mat_mul),
        _orbit_module(a2, a2.elements[0], _mat_mul),
        _orbit_module(a2, (1, 0), _linear),
        _orbit_module(b2, b2.elements[0], _mat_mul),
        _orbit_module(b2, (1, 0), _linear),
        _orbit_module(s4, (1, 0, 0), _linear),
        _orbit_module(z2z2, z2z2.elements[0], _mat_mul),
        _orbit_module(z2a2, (1, 1, 0), _linear),
        _union_module(WEquivariantFreeModule(a2, ["pt"], [{"pt": "pt"}] * 2),
                      _orbit_module(a2, (1, 0), _linear)),
    ]
    rng = random.Random(707)
    for mod in modules:
        _assert_matches_reference(mod)
        # seeded random submodules, W-stable or not
        for _ in range(2):
            degree = rng.choice([0, 2, 4])
            gens = [random_vector(mod.group.ring, (0,) * mod.rank, degree, rng)
                    for _ in range(rng.randint(1, 2))]
            _assert_matches_reference(mod, gens)
    graphs = [gen.projective_space(2, "p2", symmetric=True),
              gen.projective_space(3, "p3", symmetric=True)]
    for name in ("flag3.json", "s2.json"):
        with open(os.path.join(HERE, "..", "data", name)) as fh:
            graphs.append(json.load(fh))
    for obj in graphs:
        # as descend_invariants selects, with the kernel's Hilbert series
        # stopping each degree once it is spanned, and without it
        mod, gens, hilbert = _kernel_module(obj)
        _assert_matches_reference(mod, gens)
        _assert_matches_reference(mod, gens, hilbert)
        if mod.group.order < 24:
            # lowest degree first: (1, ..., 1) is spanned before the others
            _assert_matches_reference(mod, gens[::-1])
            _assert_matches_reference(mod, gens[::-1], hilbert)


def test_greedy_selection_grows_one_basis(monkeypatch):
    # minimal_generating_indices and invariants each grow one GroebnerBasis
    # (completed degree by degree, never rebuilt) by one add per candidate
    # they visit; buchberger runs only inside the SubmoduleGB builds that
    # present the result, never for the selection.  A visited candidate
    # gets only its values at the representatives; only the kept ones are
    # spread to full tuples, when the generators are read
    from equisyz import gradmod
    counts = dict.fromkeys(["add", "_at_reps", "_spread_reps", "SubmoduleGB", "buchberger",
                            "buchberger_in_selection", "GroebnerBasis", "grown"], 0)
    active = []

    def counting(owner, name, key):
        orig = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            if key == "buchberger" and "SubmoduleGB" not in active:
                counts["buchberger_in_selection"] += 1
            if key == "GroebnerBasis" and "buchberger" not in active:
                counts["grown"] += 1
            active.append(key)
            try:
                return orig(*args, **kwargs)
            finally:
                active.pop()
        monkeypatch.setattr(owner, name, counted)

    counting(polyring.GroebnerBasis, "add", "add")
    counting(polyring.GroebnerBasis, "__init__", "GroebnerBasis")
    counting(WEquivariantFreeModule, "_at_reps", "_at_reps")
    counting(WEquivariantFreeModule, "_spread_reps", "_spread_reps")
    counting(polyring.SubmoduleGB, "__init__", "SubmoduleGB")
    counting(polyring, "buchberger", "buchberger")

    ring = GradedPolynomialRing(["x", "y", "z"])
    rng = random.Random(4)
    vectors = [random_vector(ring, (0, 2), rng.choice([2, 4]), rng) for _ in range(6)]
    vectors += [Vector(ring, 2, {}), vectors[0].scale(3), vectors[0].poly_mul(ring.var(0))]
    visited = sum(not v.is_zero() for v in vectors)
    kept = gradmod.minimal_generating_indices(vectors, (0, 2))
    assert 0 < len(kept) <= visited - 2
    assert counts["add"] == visited and counts["buchberger"] == 0, counts
    assert counts["GroebnerBasis"] == counts["grown"] == 1, counts

    a2 = symmetric_group_on_sum_zero(3)
    mod = _orbit_module(a2, (1, 0), _linear)
    counts.update(dict.fromkeys(counts, 0))
    inv = _free_invariants(mod)
    assert counts["_spread_reps"] == 0, counts
    assert counts["add"] == counts["_at_reps"] > len(inv.generators), counts
    assert counts["_spread_reps"] == len(inv.generators), counts
    assert counts["buchberger"] > 0 and counts["buchberger_in_selection"] == 0, counts
    assert counts["grown"] == 1, counts


def test_descend_reynolds_and_expand_counts(tmp_path, monkeypatch):
    # deterministic work of gkm --check descend on symmetric P^3 (S_4): the
    # selection expanded every one of 96 candidates (96 Reynolds images,
    # 384 expand calls); with each degree stopped once the kernel's Hilbert
    # series is met only the 4 kept candidates are visited (15 before the
    # stop), as on P^5 (S_6: 6, 175 before the stop).  A visited candidate
    # gets its values at the one orbit representative, expanded over R^W
    # once; none is spread to a full tuple, as the report reads only the
    # module, and the kept coordinates are not expanded again.  The group is numbered once; every
    # element acts as a signed permutation, without substitution, and the
    # averaging hashes no Fraction matrix and returns vectors born in their
    # integer form.  The expansion over R^W reads no Fraction view
    # (_fractions)
    counts = {"_at_reps": 0, "_spread_reps": 0, "expand_vector": 0, "substitute": 0,
              "_closure": 0, "fraction_hash_in_reynolds": 0, "fractions_in_expand": 0}
    modules, born, kept = [], [], []

    def counting(cls, name):
        orig = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    in_expand = []
    orig_expand_vector = ReflectionGroup.expand_vector

    def expand_vector(self, vector, ambient_rank):
        counts["expand_vector"] += 1
        in_expand.append(True)
        try:
            return orig_expand_vector(self, vector, ambient_rank)
        finally:
            in_expand.pop()
    monkeypatch.setattr(ReflectionGroup, "expand_vector", expand_vector)
    orig_fractions = polyring._Element._fractions

    def fractions(self, key):
        if in_expand:
            counts["fractions_in_expand"] += 1
        return orig_fractions(self, key)
    monkeypatch.setattr(polyring._Element, "_fractions", fractions)
    counting(Polynomial, "substitute")
    orig_closure = ReflectionGroup._closure

    def closure(gens, max_order):
        counts["_closure"] += 1
        return orig_closure(gens, max_order)
    monkeypatch.setattr(ReflectionGroup, "_closure", staticmethod(closure))

    in_reynolds = []
    orig_hash = Fraction.__hash__

    def fraction_hash(self):
        if in_reynolds:
            counts["fraction_hash_in_reynolds"] += 1
        return orig_hash(self)
    monkeypatch.setattr(Fraction, "__hash__", fraction_hash)

    def averaging(name):
        orig = getattr(WEquivariantFreeModule, name)

        def counted(self, vector):
            counts[name] += 1
            modules.append(self)
            in_reynolds.append(True)
            try:
                image = orig(self, vector)
            finally:
                in_reynolds.pop()
            born.append(image.is_zero() or image._view is None)
            return image
        monkeypatch.setattr(WEquivariantFreeModule, name, counted)
    averaging("_at_reps")
    averaging("_spread_reps")
    orig_invariants = WEquivariantFreeModule.invariants

    def invariants(self, *args, **kwargs):
        result = orig_invariants(self, *args, **kwargs)
        kept.append(len(result.module.gens_degrees))
        return result
    monkeypatch.setattr(WEquivariantFreeModule, "invariants", invariants)

    path = tmp_path / "p3.json"
    path.write_text(json.dumps(gen.projective_space(3, 0, symmetric=True)))
    code, report = run(["gkm", str(path), "--check", "descend"])
    assert code == 0 and report["status"] == "pass"
    assert kept == [4] and counts["_at_reps"] == 4 and counts["_spread_reps"] == 0, counts
    assert counts["expand_vector"] == 4, counts
    assert counts["fractions_in_expand"] == 0, counts
    group = modules[0].group
    assert (group.order, len(group.generators)) == (24, 3)
    assert modules[0]._reps == [0]
    assert counts["substitute"] == 0, counts
    assert counts["_closure"] >= 1, counts
    assert counts["fraction_hash_in_reynolds"] == 0, counts
    assert len(born) == 4 and all(born), born
    actions = modules[0]._action_of
    assert isinstance(actions, list) and len(actions) == group.order
    counts.update(_at_reps=0, _spread_reps=0)
    path.write_text(json.dumps(gen.projective_space(5, 0, symmetric=True)))
    code, report = run(["gkm", str(path), "--check", "descend"])
    assert code == 0 and report["status"] == "pass"
    assert modules[-1].group.order == 720
    assert kept[-1] == counts["_at_reps"] == 6 and counts["_spread_reps"] == 0, counts


def test_invariant_tuples_are_spread_on_first_read(tmp_path, monkeypatch):
    # gkm --check descend reads only the invariants' module, so it spreads
    # no kept candidate to a full tuple; reading InvariantsResult.generators
    # spreads each kept one once, however often it is read, and gives the
    # reference selection's tuples
    spread = []
    orig = WEquivariantFreeModule._spread_reps

    def counted(self, at_reps):
        spread.append(1)
        return orig(self, at_reps)
    monkeypatch.setattr(WEquivariantFreeModule, "_spread_reps", counted)
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(gen.projective_space(3, 0, symmetric=True)))
    code, report = run(["gkm", str(path), "--check", "descend"])
    assert code == 0 and report["status"] == "pass"
    assert spread == []
    mod, gens, hilbert = _kernel_module(gen.projective_space(3, 0, symmetric=True))
    inv = mod.invariants(gens, hilbert)
    assert spread == []
    first = inv.generators
    assert len(spread) == len(first) == len(inv.module.gens_degrees) == 4
    assert inv.generators is first and len(spread) == 4
    assert first == reference_invariants(mod, gens)[0]


def test_signed_permutation_closure_and_invariant_ideal_basis(monkeypatch):
    # closing a group of signed permutations composes permutations and
    # makes no matrix product; the walk on integer matrices is kept for the
    # other groups.  The invariant ideal's basis keeps only elements led in
    # the ambient column: no syzygy of the invariants, which the full block
    # basis holds (11 on S_4 acting on the four torus coordinates)
    from equisyz import weyl
    products = []
    orig_product = weyl._matrix_product

    def product(g, x):
        products.append(1)
        return orig_product(g, x)
    monkeypatch.setattr(weyl, "_matrix_product", product)
    for n in (3, 5):
        group, _ = GKMGraph.from_json(gen.projective_space(n, 0, symmetric=True)).symmetry
        assert len(products) == 0 and group.order == math.factorial(n + 1)
        elements, table = reference_closure(group.generators)
        assert group.table == table and group.elements == elements
        gb = group._invariant_gb()
        assert gb._syz is None and gb._ext_gb
        assert all(v.lead()[0][0] == 0 for v in gb._ext_gb)
        cols = [Vector.from_polys([p], 1) for p in group.invariants]
        full = polyring.SubmoduleGB(group.ring, 1, cols)
        assert [v.lead()[0][1] for v in gb.gb] == [v.lead()[0][1] for v in full.gb]
        assert gb.gb == full.gb
        if n == 3:
            assert len(full.syzygies()) == 11
    assert symmetric_group_on_sum_zero(3).order == 6 and len(products) == 12
