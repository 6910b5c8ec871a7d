import random

import pytest

from equisyz.polyring import GradedPolynomialRing
from equisyz.gradmod import dimension, iso_surrogate_equal, FPModule
from helpers import (
    circle_model, formal_model, model_uct, point_model, quotient_by_ideal, series_leq,
    times_qpoly,
)
from equisyz.cartan import (
    GStarModule, CartanComplex, cartan_cohomology, dualize_gstar,
    equivariant_homology,
)


@pytest.fixture
def RT():
    return GradedPolynomialRing(["t"])


def two_torus_model():
    # exterior algebra on two degree-1 classes, contractions interior product
    d = [[0] * 4 for _ in range(4)]
    i1 = [[0] * 4 for _ in range(4)]
    i2 = [[0] * 4 for _ in range(4)]
    i1[0][1] = 1
    i1[2][3] = 1
    i2[0][2] = 1
    i2[1][3] = -1
    return GStarModule((0, 1, 1, 2), d, [i1, i2])


def test_relations_are_enforced():
    # iota of the wrong degree
    with pytest.raises(ValueError):
        GStarModule((0, 2), [[0, 0], [0, 0]], [[[0, 1], [0, 0]]])
    # d that does not square to zero needs a 3-chain
    with pytest.raises(ValueError):
        GStarModule((0, 1, 2), [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                    [[[0] * 3 for _ in range(3)]])
    # d iota + iota d != 0
    with pytest.raises(ValueError):
        GStarModule((0, 1), [[0, 0], [1, 0]], [[[0, 1], [0, 0]]])
    # a Cartan complex needs one ring variable per contraction
    with pytest.raises(ValueError, match="ring rank must match the number of contractions"):
        CartanComplex(GradedPolynomialRing(["t1", "t2"]), circle_model())


def test_point_model(RT):
    H = cartan_cohomology(CartanComplex(RT, point_model()))
    assert H.num_rels == 0 and H.gens_degrees == (0,)


def test_circle_model_differential(RT):
    C = CartanComplex(RT, circle_model())
    t = RT.var(0)
    assert C.differential.rows()[0][1] == -t


def test_circle_cohomology_is_torsion(RT):
    H = cartan_cohomology(CartanComplex(RT, circle_model()))
    t = RT.var(0)
    assert iso_surrogate_equal(H, quotient_by_ideal(RT, [t]))
    assert dimension(H) == 0


def test_formal_rank_two_model(RT):
    H = cartan_cohomology(CartanComplex(RT, formal_model((0, 2), 1)))
    assert H.num_rels == 0 and sorted(H.gens_degrees) == [0, 2]


def test_dualize_signs(RT):
    dual = dualize_gstar(circle_model())
    assert dual.degrees == (0, -1)
    # iota(1^) = -theta^ per the pairing sign with |1^| = 0
    assert dual.iotas[0][1][0] == -1


def test_dualize_involution():
    for model in (point_model(), circle_model(), formal_model((0, 2), 1),
                  two_torus_model()):
        dd = dualize_gstar(dualize_gstar(model))
        assert dd.degrees == model.degrees
        assert dd.d == model.d
        assert dd.iotas == model.iotas


def test_dual_satisfies_relations():
    for model in (circle_model(), two_torus_model()):
        dual = dualize_gstar(model)  # constructor re-validates
        assert dual.num_contractions == model.num_contractions


def test_equivariant_homology_circle(RT):
    N = equivariant_homology(circle_model(), RT)
    t = RT.var(0)
    expected = quotient_by_ideal(RT, [t], gen_degree=-1)
    assert iso_surrogate_equal(N, expected)


def test_equivariant_homology_point_and_formal(RT):
    N = equivariant_homology(point_model(), RT)
    assert N.num_rels == 0 and N.gens_degrees == (0,)
    N2 = equivariant_homology(formal_model((0, 2), 1), RT)
    assert N2.num_rels == 0 and sorted(N2.gens_degrees) == [-2, 0]


def test_uct_collapse_examples(RT):
    for model in (point_model(), circle_model(), formal_model((0, 2), 1)):
        rep = model_uct(model, RT)
        assert rep.verdict == "pass", rep
    rep = model_uct(circle_model(), RT)
    assert rep.details["shift"] == 1
    assert (rep.name, rep.theorem) == ("universal-coefficient collapse", "uct-collapse")


def test_uct_collapse_on_non_cm_and_zero_cohomology(RT):
    # a point plus a free circle: H_T = R + R/(t) is not CM, so no claim
    point_plus_circle = GStarModule((0, 0, 1), [[0] * 3] * 3,
                                    [[[0, 0, 0], [0, 0, 1], [0, 0, 0]]])
    rep = model_uct(point_plus_circle, RT)
    assert (rep.verdict, rep.details) == (
        "not applicable", {"shift": None, "reason": "cohomology is not Cohen-Macaulay"})
    # an acyclic pair (d a = b): zero cohomology and homology, shift 0
    rep = model_uct(GStarModule((1, 2), [[0, 0], [1, 0]], [[[0, 0], [0, 0]]]), RT)
    assert (rep.verdict, rep.details) == ("pass", {"shift": 0})


def test_uct_collapse_two_torus():
    RT2 = GradedPolynomialRing(["t1", "t2"])
    rep = model_uct(two_torus_model(), RT2)
    assert rep.passed and rep.details["shift"] == 2


def test_free_torus_cohomology_is_point():
    RT2 = GradedPolynomialRing(["t1", "t2"])
    H = cartan_cohomology(CartanComplex(RT2, two_torus_model()))
    assert H.num_gens == 1 and H.gens_degrees == (0,)
    assert dimension(H) == 0


def test_specialization_recovers_nonequivariant_dims(RT):
    # setting the variables to zero in the twisted complex gives back (A, d)
    for model in (circle_model(), formal_model((0, 2), 1)):
        C = CartanComplex(RT, model)
        mat = C.specialized_at_zero()
        n = model.dim
        assert all(mat[i][j] == model.d[i][j] for i in range(n) for j in range(n))
        assert model.poincare_polynomial() == (
            {0: 1, 1: 1} if model.degrees == (0, 1) else {0: 1, 2: 1})


def test_series_bound_with_equality_iff_free(RT):
    # Hilb(H_G) <= Hilb(R) * Poincare(H(A)), equality exactly in the free case
    free_model = formal_model((0, 2), 1)
    Hf = cartan_cohomology(CartanComplex(RT, free_model))
    bound = times_qpoly(FPModule.free(RT, (0,)).hilbert(),
                        free_model.poincare_polynomial())
    assert Hf.hilbert() == bound

    circ = circle_model()
    Hc = cartan_cohomology(CartanComplex(RT, circ))
    bound_c = times_qpoly(FPModule.free(RT, (0,)).hilbert(),
                          circ.poincare_polynomial())
    assert series_leq(Hc.hilbert(), bound_c, 30)
    assert Hc.hilbert() != bound_c


def test_gstar_json_roundtrip():
    model = circle_model()
    j = model.to_json()
    assert j["iota"][0] == [["0", "0"], ["1", "0"]]  # column-major
    back = GStarModule.from_json(j)
    assert back.degrees == model.degrees
    assert back.d == model.d and back.iotas == model.iotas


def _random_complex(rng, sympy):
    """(degrees, d, dims) for a seeded complex of Q-vector spaces: dims[n]
    cohomology classes in each degree n and acyclic pairs a -> b, put in a
    random basis of each degree and listed in a random order."""
    top = rng.randint(1, 4)
    dims = {n: rng.randint(0, 2) for n in range(top + 1)}
    degrees, pairs = [], []
    for n in range(top + 1):
        degrees += [n] * dims[n]
        for _ in range(rng.randint(0, 2) if n < top else 0):
            pairs.append((len(degrees), len(degrees) + 1))
            degrees += [n, n + 1]
    size = len(degrees)
    d = sympy.zeros(size, size)
    for a, b in pairs:
        d[b, a] = 1
    g = sympy.zeros(size, size)
    for n in set(degrees):
        idx = [i for i, x in enumerate(degrees) if x == n]
        while True:
            block = sympy.Matrix(len(idx), len(idx), lambda i, j: rng.randint(-2, 2))
            if block.det():
                break
        for i, r in enumerate(idx):
            for j, c in enumerate(idx):
                g[r, c] = block[i, j]
    d = g * d * g.inv()
    order = list(range(size))
    rng.shuffle(order)
    return ([degrees[i] for i in order],
            [[d[i, j] for j in order] for i in order],
            {n: h for n, h in dims.items() if h})


def test_cohomology_dims_match_sympy_ranks_on_random_complexes():
    # dim H^n = dim A^n - rank d^n - rank d^(n-1), by sympy's ranks, on
    # seeded complexes with nonzero differentials
    sympy = pytest.importorskip("sympy")
    from fractions import Fraction
    from equisyz.cartan import _cohomology_dims
    rng = random.Random(2609)
    nonzero = 0
    for _ in range(60):
        degrees, d, dims = _random_complex(rng, sympy)
        nonzero += any(x for row in d for x in row)
        mat = sympy.Matrix(d) if degrees else sympy.zeros(0, 0)
        want = {}
        for n in sorted(set(degrees)):
            here = [i for i, x in enumerate(degrees) if x == n]
            rank = [mat.extract([i for i, x in enumerate(degrees) if x == m + 1],
                                [i for i, x in enumerate(degrees) if x == m]).rank()
                    for m in (n, n - 1)]
            if len(here) - sum(rank):
                want[n] = len(here) - sum(rank)
        assert want == dims
        d = [[Fraction(int(x.p), int(x.q)) for x in row] for row in d]
        assert _cohomology_dims(degrees, d) == dims
        assert GStarModule(degrees, d, []).poincare_polynomial() == dims
    assert nonzero >= 40
