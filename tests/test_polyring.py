import math
import random
from fractions import Fraction

import pytest

from equisyz.polyring import (
    DatumError, EXPONENT_LIMIT, ExponentLimitError, GradedPolynomialRing, Polynomial, Vector,
    GroebnerBasis, buchberger, divide, SubmoduleGB, s_vector,
    syzygy_basis, quotient_hilbert_series, span_hilbert_numerator, HilbertSeries, determinant,
)
from helpers import (
    groebner_basis, leading_term, mono_mul, monomials_of_degree, normal_form, quotient_by_ideal,
    random_homogeneous,
    random_module, random_vector, relation_columns,
    reference_blocks, reference_buchberger, reference_divide, reference_det,
    reference_apply, reference_from_terms, reference_kernel_submodule, reference_poly_mul,
    reference_reduce, reference_submodule_split, reference_terms_sum, reference_transpose,
    reference_update_pairs,
    residue_field_module, series_minus,
)


@pytest.fixture
def R():
    return GradedPolynomialRing(["x", "y"])


def test_ring_rejects_bad_variable_names():
    # each of these used to become a ring whose names polynomial text
    # could not always refer to
    for names in ("xy", [1, 2], {"x": 1}, ["x", "2y"], ["x^2"], ["x y"], [""]):
        with pytest.raises(ValueError):
            GradedPolynomialRing(names)
    assert GradedPolynomialRing(("x_1", "_y")).names == ("x_1", "_y")


def test_ring_rejects_bad_degrees():
    with pytest.raises(ValueError):
        GradedPolynomialRing(["x"], [3])
    with pytest.raises(ValueError):
        GradedPolynomialRing(["x", "x"])
    with pytest.raises(ValueError):
        GradedPolynomialRing(["x"], [0])


def test_ring_degrees_must_be_integers():
    # a degree with a fractional part is rejected, not truncated (2.7 once
    # became 2); a number or a string with an integer value is accepted
    for bad in ([2.5], [True], [2.7], [4.9, 2]):
        with pytest.raises(DatumError, match="degrees must be integers"):
            GradedPolynomialRing(["x", "y"][:len(bad)], bad)
    for good, want in (([2], (2,)), ([2.0], (2,)), (["4"], (4,))):
        degrees = GradedPolynomialRing(["x"], good).degrees
        assert degrees == want and all(type(d) is int for d in degrees)


def test_arithmetic_identities(R):
    x, y = R.vars()
    assert (x + y) * (x - y) == x * x - y * y
    f = 3 * x * y - y ** 2
    assert (f * R.zero()).is_zero()
    t1t2 = GradedPolynomialRing(["t1", "t2"])
    a, b = t1t2.vars()
    assert (a * b).homogeneous_degree() == 4


def test_ring_mismatch_raises(R):
    other = GradedPolynomialRing(["z"])
    with pytest.raises(ValueError):
        R.var(0) + other.var(0)


def test_homogeneity_query(R):
    x, y = R.vars()
    assert (x * y).homogeneous_degree() == 4
    assert R.zero().homogeneous_degree() is None
    with pytest.raises(ValueError):
        (x + x * y).homogeneous_degree()


def test_parse_and_format_roundtrip(R):
    for text in ["3/2*x^2*y - y^3", "x", "-x + y", "2", "0", "x^4"]:
        p = R.parse(text)
        assert R.parse(str(p)) == p


def test_from_terms_matches_the_repeated_sum():
    # seeded terms with repeated monomials, cancellations and zero
    # coefficients, against the sum of one monomial at a time
    rng = random.Random(2301)
    ring = GradedPolynomialRing(["x", "y", "z"])
    for trial in range(200):
        pool = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(1, 6))]
        terms = []
        for _ in range(rng.randint(0, 12)):
            e = rng.choice(pool)
            c = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            terms.append((e, c))
            if rng.random() < 0.2:
                terms.append((e, -c))
        got = ring.from_terms(terms)
        assert got == reference_from_terms(ring, terms)
        assert got.terms == reference_from_terms(ring, terms).terms
    assert ring.from_terms([((1, 0, 0), 2), ((1, 0, 0), -2)]).is_zero()
    for bad in ([((1, 0), 1)], [((1, -1, 0), 1)]):
        with pytest.raises(ValueError, match="bad exponent vector"):
            ring.from_terms(bad)
    with pytest.raises(ExponentLimitError, match="exponent 40000 of y"):
        ring.from_terms([((1, 0, 0), 1), ((0, 40000, 0), 1)])
    # a term past the limit raises although a later term cancels it
    with pytest.raises(ExponentLimitError, match="exponent 40000 of y"):
        ring.from_terms([((0, 40000, 0), 1), ((0, 40000, 0), -1)])


def test_parse_builds_the_polynomial_once(monkeypatch):
    from equisyz.polyring import _Element
    calls = []
    real = _Element.__add__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(_Element, "__add__", counted)
    ring = GradedPolynomialRing(["x", "y", "z"])
    p = ring.parse(" + ".join("%d*x^%d*y*z^%d" % (i % 7 + 1, i % 5, i % 3) for i in range(60)))
    assert not calls
    monkeypatch.undo()
    assert len(p.terms) == 15 and p == reference_from_terms(ring, [
        ((i % 5, 1, i % 3), i % 7 + 1) for i in range(60)])


def test_json_roundtrip(R):
    p = R.parse("3/2*x^2*y - y^3")
    assert R.poly_from_json(p.to_json()) == p
    assert R.poly_from_json("3/2*x^2*y - y^3") == p
    desc = R.descriptor()
    assert GradedPolynomialRing.from_descriptor(desc) == R


def test_monomial_order_is_degrevlex(R):
    x, y = R.vars()
    # x > y, x^2 > xy > y^2
    assert leading_term(x + y)[0] == (1, 0)
    assert leading_term(x * y + y * y)[0] == (1, 1)


def test_groebner_hand_example(R):
    x, y = R.vars()
    gb = buchberger([Vector.from_polys([p], 1) for p in (x ** 2, x * y + y ** 2)])
    polys = {str(v.component(0)) for v in gb}
    assert polys == {"x^2", "x*y + y^2", "y^3"}


def test_groebner_trivial_cases(R):
    x, _ = R.vars()
    assert buchberger([]) == []
    gb = buchberger([Vector.from_polys([x], 1)])
    assert len(gb) == 1 and gb[0].component(0) == x


def test_groebner_idempotent_and_deterministic(R):
    x, y = R.vars()
    gens = [Vector.from_polys([p], 1) for p in (x ** 2 - y ** 2, x * y ** 2)]
    gb1 = buchberger(gens)
    gb2 = buchberger(gb1)
    assert gb1 == gb2
    assert buchberger(gens) == gb1


def test_all_s_vectors_reduce_to_zero_module_case():
    # rank-2 module example exercising the position-over-term order
    R = GradedPolynomialRing(["x", "y"])
    x, y = R.vars()
    gens = [
        Vector.from_polys([x, y]),
        Vector.from_polys([y, x]),
        Vector.from_polys([x * y, R.zero()]),
    ]
    gb = buchberger(gens)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            if gb[i].lead()[0][0] == gb[j].lead()[0][0]:
                assert normal_form(s_vector(gb[i], gb[j]), gb).is_zero()


def test_groebner_basis_rejects_inhomogeneous(R):
    x, y = R.vars()
    with pytest.raises(ValueError):
        groebner_basis([x + x * y])
    assert groebner_basis([]) == []
    gb = groebner_basis([x ** 2, x * y + y ** 2])
    assert {str(v.component(0)) for v in gb} == {"x^2", "x*y + y^2", "y^3"}


def test_normal_form_examples(R):
    x, y = R.vars()
    assert normal_form(x ** 2, [x]).is_zero()
    assert normal_form(y ** 3 + x, [x]) == y ** 3
    assert normal_form(x ** 2 * y, [x ** 2 - y ** 2]) == y ** 3


def test_normal_form_idempotent_and_multiplicative(R):
    rng = random.Random(11)
    x, y = R.vars()
    basis_polys = [x ** 2 - y ** 2, x * y ** 2]
    gb = buchberger([Vector.from_polys([p], 1) for p in basis_polys])
    gbp = [v.component(0) for v in gb]
    for _ in range(10):
        f = random_homogeneous(R, rng.choice([2, 4, 6]), rng)
        g = random_homogeneous(R, rng.choice([2, 4]), rng)
        nf = lambda p: normal_form(p, gbp)
        assert nf(nf(f)) == nf(f)
        assert nf(f * g) == nf(nf(f) * nf(g))


def test_division_certificate(R):
    rng = random.Random(5)
    x, y = R.vars()
    divisors = [Vector.from_polys([x ** 2 + y ** 2], 1),
                Vector.from_polys([x * y], 1)]
    for _ in range(10):
        f = random_homogeneous(R, 8, rng)
        quots, rem = divide(Vector.from_polys([f], 1), divisors)
        back = rem.component(0)
        back = back + quots[0] * (x ** 2 + y ** 2) + quots[1] * (x * y)
        assert back == f
        for (col, exps) in rem.data:
            for d in divisors:
                (dc, de), _ = d.lead()
                assert not (dc == col and all(a <= b for a, b in zip(de, exps)))


def test_divide_matches_reference_on_random_modules():
    # rational: coefficients with denominators up to 7, so leads are rarely
    # 1 and often negative, and the integer core must rescale
    for rational in (False, True):
        rng = random.Random(2024)
        ring = GradedPolynomialRing(["x", "y", "z"], [2, 2, 4])
        scales = [Fraction(2, 3), Fraction(-3, 5)] if rational else [2, -3]
        for _ in range(40):
            col_degrees = sorted(rng.choice([0, 2, 4]) for _ in range(rng.randint(1, 3)))
            divisors = []
            for _ in range(rng.randint(1, 5)):
                # few lead columns, so several divisors share one
                g = random_vector(ring, col_degrees, max(col_degrees) + rng.choice([2, 4]),
                                  rng, first_col=rng.randrange(len(col_degrees)),
                                  rational=rational)
                if not g.is_zero():
                    divisors.append(g)
            if not divisors:
                continue
            if rng.random() < 0.3:
                divisors.append(divisors[0].scale(rng.choice(scales)))  # same lead
            if rng.random() < 0.3:
                # a lower-degree tail makes reduction add terms of another
                # degree, so the order across degrees matters
                g = divisors[-1]
                divisors[-1] = g + random_vector(ring, col_degrees,
                                                 g.homogeneous_degree(col_degrees) - 2, rng,
                                                 rational=rational)
            f = random_vector(ring, col_degrees, max(col_degrees) + 8, rng,
                              rational=rational)
            quots, rem = divide(f, divisors)
            ref_quots, ref_rem = reference_divide(f, divisors)
            assert quots == ref_quots and rem == ref_rem
            back = rem
            for q, g in zip(quots, divisors):
                back = back + g.poly_mul(q)
            assert back == f
            leads = [g.lead()[0] for g in divisors]
            for (col, exps) in rem.data:
                assert not any(dc == col and all(a <= b for a, b in zip(de, exps))
                               for dc, de in leads)


def _lead_free_reduce_cases(seed):
    """Seeded (ring, terms, divisors) for _reduce on packed integer forms.

    The divisors have rational coefficients, so leads that are not 1, and
    their leads miss at least one column, which their tails and the
    dividend reach.  Some dividends are a multiple of a divisor plus
    terms of the lead-free columns, so that reducing them subtracts
    lead-free tail terms that the dividend already holds, and some of
    those cancel to zero."""
    rng = random.Random(seed)
    ring = GradedPolynomialRing(["x", "y", "z"], [2, 2, 4])
    cases = []
    while len(cases) < 80:
        width = rng.randint(2, 4)
        col_degrees = sorted(rng.choice([0, 2, 4]) for _ in range(width))
        divisors = []
        for _ in range(rng.randint(1, 4)):
            g = random_vector(ring, col_degrees, max(col_degrees) + rng.choice([2, 4]),
                              rng, first_col=rng.randrange(width), rational=True)
            if not g.is_zero():
                divisors.append(g)
        lead_cols = {g.lead()[0][0] for g in divisors}
        if not divisors or len(lead_cols) == width:
            continue
        degree = max(col_degrees) + 8
        free = random_vector(ring, col_degrees, degree, rng, rational=True)
        free = Vector(ring, width, {k: c for k, c in free.data.items()
                                    if k[0] not in lead_cols})
        if rng.random() < 0.4:
            g = rng.choice(divisors)
            m = random_homogeneous(ring, degree - g.homogeneous_degree(col_degrees), rng)
            f = g.poly_mul(m) + free
        else:
            f = random_vector(ring, col_degrees, degree, rng, rational=True) + free
        if not f.is_zero():
            cases.append((ring, f._form[1][1], [g._form[1] for g in divisors]))
    return cases


def test_reduce_keeps_lead_free_terms_out_of_the_heap_and_matches_reference():
    # _reduce, whose heap holds only terms of columns with a divisor lead,
    # returns the same (scale, rem) as the loop that heaps every term:
    # lead-free terms are scaled with the rest, cancel to zero, join the
    # remainder, and a product past EXPONENT_LIMIT there still raises
    from equisyz.polyring import _index, _reduce
    cancelled = scaled = 0
    for ring, terms, divisors in _lead_free_reduce_cases(1919):
        scale, rem = _reduce(ring, terms, _index(ring, divisors))
        assert (scale, rem) == reference_reduce(ring, terms, divisors)
        cshift = ring._cshift
        lead_cols = {lead >> cshift for lead, _ in divisors}
        free = [k for k in terms if k >> cshift not in lead_cols]
        cancelled += sum(k not in rem for k in free)
        scaled += scale != 1 and any(k >> cshift not in lead_cols for k in rem)
    assert cancelled >= 20 and scaled >= 20, (cancelled, scaled)

    R = GradedPolynomialRing(["x", "y"])
    x, y = R.vars()
    # x*y e0 reduced by 2x e0 + 3y^32767 e1 puts y^32768 in the lead-free e1
    divisor = Vector.from_polys([x.scale(2), (y ** EXPONENT_LIMIT).scale(3)])._form[1]
    terms = Vector.from_polys([x * y, y], 2)._form[1][1]
    for reduce, divisors in ((_reduce, _index(R, [divisor])), (reference_reduce, [divisor])):
        with pytest.raises(ExponentLimitError, match="exponent 32768 of y"):
            reduce(R, terms, divisors)


def _rational_generators(ring, rng):
    """Random generators for the Groebner core: rational coefficients
    (denominators up to 7), so leads that are not 1 and may be negative,
    one to three columns, sometimes a repeated lead and an inhomogeneous
    tail."""
    col_degrees = sorted(rng.choice([0, 2]) for _ in range(rng.randint(1, 3)))
    gens = []
    for _ in range(rng.randint(1, 4)):
        g = random_vector(ring, col_degrees, max(col_degrees) + rng.choice([2, 4]),
                          rng, first_col=rng.randrange(len(col_degrees)),
                          rational=True)
        if not g.is_zero():
            gens.append(g)
    if gens and rng.random() < 0.3:
        gens.append(gens[0].scale(rng.choice([Fraction(-3, 5), 2])))
    if gens and rng.random() < 0.3:
        g = gens[-1]
        gens[-1] = g + random_vector(ring, col_degrees,
                                     g.homogeneous_degree(col_degrees) - 2, rng,
                                     rational=True)
    return gens


def test_buchberger_matches_reference_on_rational_modules():
    rng = random.Random(1965)
    ring = GradedPolynomialRing(["x", "y", "z"])
    tried = 0
    for _ in range(40):
        gens = _rational_generators(ring, rng)
        if gens:
            tried += 1
            assert buchberger(gens) == reference_buchberger(gens)
    assert tried >= 30


def test_groebner_basis_add_and_contains_match_division_by_buchberger():
    # growing one basis answers membership as division by the reduced basis
    # of everything added so far does, and ends at that reduced basis; on
    # the generators of the reference test above, added in their order.
    # Their tails may be inhomogeneous, so the basis gets no column degrees
    # and completes every pair before each test
    rng = random.Random(1988)
    ring = GradedPolynomialRing(["x", "y", "z"])
    members = outsiders = spanned = 0
    for _ in range(40):
        gens = _rational_generators(ring, rng)
        if not gens:
            continue
        rank = gens[0].rank
        basis = GroebnerBasis(ring, None)
        for k, v in enumerate(gens):
            inside = divide(v, buchberger(gens[:k]))[1].is_zero()
            assert basis.add(v) == (not inside)
            spanned += inside
        gb = buchberger(gens)
        basis.complete(None)
        assert basis.reduced(rank) == gb
        for _ in range(3):
            w = random_vector(ring, (0,) * rank, 4, rng, rational=True)
            if rng.random() < 0.5:
                w = Vector(ring, rank, {})
                for g in gens:
                    w = w + g.poly_mul(random_homogeneous(ring, 2, rng))
            inside = divide(w, gb)[1].is_zero()
            assert basis.contains(w) == inside
            members += inside
            outsiders += not inside
    assert members >= 20 and outsiders >= 20 and spanned >= 5


def test_pending_pairs_match_reference_update_and_carry_their_lcm(monkeypatch):
    # after every insertion in buchberger the pending pairs are the ones the
    # reference Gebauer-Moeller update keeps for the same leads and flags,
    # and each pair's stored lcm is the lcm of its leads, exponents and key;
    # its sugar is the larger sugar of the two multiples the S-vector takes
    orig = GroebnerBasis._insert
    sizes = []

    def insert(basis, form, sugar):
        before = set(basis._pairs)
        orig(basis, form, sugar)
        ring, leads, sugars = basis.ring, basis._leads, basis._sugar
        assert sugars[-1] == sugar
        assert set(basis._pairs) == reference_update_pairs(
            basis._single, before, leads, len(leads) - 1, ring)
        for (i, j), (s, key, m) in basis._pairs.items():
            (ci, ei), (cj, ej) = leads[i], leads[j]
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            assert i < j and ci == cj and m == lcm and key == ring._pack(ci, lcm)
            d = ring.weighted_degree
            assert s == max(sugars[i] + d(lcm) - d(ei), sugars[j] + d(lcm) - d(ej))
        sizes.append(len(basis._pairs))

    rng = random.Random(1956)
    ring = GradedPolynomialRing(["x", "y", "z"])
    # seed 10 is left out: reference_buchberger, which takes pairs by key
    # alone, runs on it for minutes (buchberger takes 0.02 s)
    cases = [relation_columns(random_module(ring, random.Random(seed), max_rels=4))
             for seed in range(20) if seed != 10]
    cases += [_rational_generators(ring, rng) for _ in range(10)]
    expected = [reference_buchberger(gens) for gens in cases]
    monkeypatch.setattr(GroebnerBasis, "_insert", insert)
    for gens, gb in zip(cases, expected):
        assert buchberger(gens) == gb
    assert len(sizes) >= 80 and sum(sizes) >= 150, sizes


def test_reduced_reduces_only_tails_a_later_lead_divides(monkeypatch):
    # x - 3y, x + z and x - 2z give the remainders 3y + z and then z: only
    # the first input (a raw input, whose lead is kept) and 3y + z, whose
    # tail z the later, smaller lead z divides, are reduced
    import equisyz.polyring as polyring
    ring = GradedPolynomialRing(["x", "y", "z"])
    x, y, z = ring.vars()
    gens = [Vector.from_polys([p]) for p in (x - y.scale(3), x + z, x - z.scale(2))]
    calls, tests = [], []
    real_reduce, real_later, real_reduced = (
        polyring._reduce, polyring._later_divides, GroebnerBasis.reduced)

    def reduced(self, rank):
        calls.append([])
        return real_reduced(self, rank)

    def counting(*args):
        if calls:
            calls[-1].append(len(args[1]))
        return real_reduce(*args)

    def later(ring, terms, after, p):
        tests.append(real_later(ring, terms, after, p))
        return tests[-1]
    monkeypatch.setattr(GroebnerBasis, "reduced", reduced)
    monkeypatch.setattr(polyring, "_reduce", counting)
    monkeypatch.setattr(polyring, "_later_divides", later)
    gb = buchberger(gens)
    assert gb == [Vector.from_polys([v]) for v in (z, y, x)] == reference_buchberger(gens)
    # one raw input of 2 terms and the remainder 3y + z
    assert calls == [[2, 2]] and tests == [False, True]


def _check_primitive(v):
    c, (lead, terms) = v._form
    assert type(c) is Fraction
    assert all(type(n) is int for n in terms.values())
    assert math.gcd(*terms.values()) == 1 and lead == max(terms) and terms[lead] > 0
    unpack = v.ring._unpack
    assert unpack(lead) == v.lead()[0]
    assert Vector(v.ring, v.rank, {unpack(k): n for k, n in terms.items()}).scale(c) == v


def test_primitive_form_is_canonical():
    # every rational multiple of a vector has the same integer form, whose
    # lead is positive; buchberger returns vectors born with it
    rng = random.Random(77)
    ring = GradedPolynomialRing(["x", "y", "z"])
    for _ in range(10):
        gens = _rational_generators(ring, rng)
        for v in gens:
            _check_primitive(v)
            for q in (Fraction(-3, 4), -1, 5):
                assert v.scale(q)._form[1] == v._form[1]
        for v in buchberger(gens):
            assert v._view is None
            _check_primitive(v)


def _handoff_cases(seed):
    """Seeded (rank, generators, column degrees) draws: random module
    columns, homogeneous for the module's generator degrees, and rational
    generators with negative and non-unit leads."""
    rng = random.Random(seed)
    ring = GradedPolynomialRing(["x", "y", "z"])
    cases = []
    for k in range(6):
        m = random_module(ring, random.Random(seed + k))
        cases.append((m.num_gens, relation_columns(m), m.gens_degrees))
    while len(cases) < 16:
        gens = _rational_generators(ring, rng)
        if gens:
            rank = gens[0].rank
            cases.append((rank, gens, (0, 2, 2)[:rank]))
    return ring, rng, cases


def _degree_or_mixed(v, col_degrees):
    try:
        return v.homogeneous_degree(col_degrees)
    except ValueError:
        return "mixed"


def test_vector_born_from_its_form_matches_its_fraction_terms():
    # a Vector born from the integer form of one built from Fraction terms
    # reads its zero test, lead, degree and form off the packed keys, with
    # no Fraction terms built, and then builds the same terms in order
    from equisyz.polyring import _columns_below
    ring, _, cases = _handoff_cases(1606)
    vectors = [(Vector(ring, 2, {}), (0, 0))]
    for rank, gens, col_degrees in cases:
        for g in gens:
            for v in (g, g.scale(Fraction(-7, 3)), _columns_below(g, 1)):
                vectors.append((Vector(ring, v.rank, v.data), col_degrees))
    homogeneous = 0
    for v, col_degrees in vectors:
        born = Vector._of_form(ring, v.rank, *v._form)
        assert born.is_zero() == v.is_zero()
        if not v.is_zero():
            assert born.lead() == v.lead()
        for degrees in (col_degrees, (0,) * v.rank):
            assert _degree_or_mixed(born, degrees) == _degree_or_mixed(v, degrees)
        homogeneous += _degree_or_mixed(v, col_degrees) not in ("mixed", None)
        assert born._view is None
        assert born._form == v._form
        assert born == v and list(born.data.items()) == list(v.data.items())
        _assert_fractions([born])
    assert len(vectors) >= 90 and homogeneous >= 60, (len(vectors), homogeneous)


def test_submodule_gb_and_kernel_match_the_term_copy_reference():
    # the block vectors are built, SubmoduleGB splits the block basis and,
    # given relations, finds the kernel modulo them, all on integer forms;
    # each equals the term-by-term copies of tests/helpers.py exactly,
    # scale included, with the same leads and forms
    from equisyz.polyring import _blocks
    ring, rng, cases = _handoff_cases(2606)
    syzygies = kernels = 0

    def assert_copies(ours, ref):
        assert [v.lead() for v in ours] == [v.lead() for v in ref]
        assert [v._form for v in ours] == [Vector(ring, v.rank, v.data)._form for v in ref]
        assert ours == ref

    for rank, gens, _ in cases:
        blocks, ref_blocks = _blocks(ring, rank, gens), reference_blocks(ring, rank, gens)
        assert [b._form for b in blocks] == [b._form for b in ref_blocks]
        assert blocks == ref_blocks
        sub = SubmoduleGB(ring, rank, gens)
        for ours, ref in zip((sub.gb, sub.syzygies()),
                             reference_submodule_split(ring, rank, gens)):
            assert_copies(ours, ref)
        syzygies += len(sub.syzygies())
        for cut in (0, rng.randint(1, len(gens)), len(gens)):
            ours = SubmoduleGB(ring, rank, gens[:cut], gens[cut:]).syzygies()
            assert_copies(ours, reference_kernel_submodule(ring, rank, gens[:cut], gens[cut:]))
            kernels += len(ours)
    assert syzygies >= 15 and kernels >= 25, (syzygies, kernels)


def test_block_basis_matches_buchberger_over_q():
    # the reduced block basis of SubmoduleGB, aux columns included, equals
    # reference_buchberger on the Fraction block vectors: Buchberger's
    # algorithm over Q with reference_divide and interreduction against
    # every other element, sharing no reduction code with the core (the
    # term-copy split of reference_submodule_split starts from this basis)
    ring, _, cases = _handoff_cases(2606)
    cases = [(rank, gens) for rank, gens, _ in cases]
    for seed in range(12):
        m = random_module(ring, random.Random(4000 + seed))
        cases.append((m.num_gens, relation_columns(m)))
    aux = 0
    for rank, gens in cases:
        if not gens:
            continue
        ours = SubmoduleGB(ring, rank, gens)._ext_gb
        assert ours == reference_buchberger(reference_blocks(ring, rank, gens))
        aux += sum(col >= rank for v in ours for col, _ in v.data)
    assert len(cases) == 28 and aux >= 2000, aux


def test_gkm_kernel_builds_no_fraction_terms_in_the_core(monkeypatch):
    # gkm --check cs hands the core's integer forms on: inside SubmoduleGB,
    # where both of its kernels are found, no Vector builds Fraction terms
    import os
    from equisyz import cli
    scope, entered, built = [], [], []

    def scoped(owner, name):
        orig = getattr(owner, name)

        def wrapped(*args, **kwargs):
            scope.append(name)
            entered.append(name)
            try:
                return orig(*args, **kwargs)
            finally:
                scope.pop()
        monkeypatch.setattr(owner, name, wrapped)

    scoped(SubmoduleGB, "__init__")
    terms = Vector.__dict__["data"]

    def data(v):
        if scope and v._view is None:
            built.append(scope[-1])
        return terms.__get__(v, Vector)
    monkeypatch.setattr(Vector, "data", property(data, terms.__set__))
    path = os.path.join(os.path.dirname(__file__), "..", "data", "flag3.json")
    code, report = cli.run(["gkm", path, "--check", "cs"])
    assert code == 0 and report["status"] == "pass"
    assert set(entered) == {"__init__"}
    assert not built, "%d Fraction term builds, in %s" % (len(built), sorted(set(built)))


def test_gkm_kernel_builds_no_aux_column_for_a_relation(monkeypatch):
    # under gkm --check cs the relations alpha_e * e_e of the Chang-Skjelbred
    # target enter buchberger as plain vectors: no input whose part in the
    # target's columns is a relation has a term in an aux column
    import json
    import os
    from equisyz import cli, polyring
    from equisyz.equivtop import GKMGraph, chang_skjelbred
    from equisyz.polyring import _columns_below
    path = os.path.join(os.path.dirname(__file__), "..", "data", "flag3.json")
    with open(path) as fh:
        target = chang_skjelbred(GKMGraph.from_json(json.load(fh)))[2].target
    width, relations = target.num_gens, list(target.pmap.columns)
    inputs = []
    real = polyring.buchberger

    def recorded(vectors):
        inputs.extend(vectors)
        return real(vectors)
    monkeypatch.setattr(polyring, "buchberger", recorded)
    code, report = cli.run(["gkm", path, "--check", "cs"])
    assert code == 0 and report["status"] == "pass"
    entered = [v for v in inputs if v.rank >= width and _columns_below(v, width) in relations]
    assert len(entered) >= len(relations) == 9
    assert all(col < width for v in entered for col, _ in v.data)


def _assert_fractions(values):
    for x in values:
        terms = x.terms if isinstance(x, Polynomial) else x.data
        assert all(type(c) is Fraction for c in terms.values()), x


def test_groebner_core_returns_fractions():
    # an int coefficient prints like a Fraction, but 1 / c on it is a float
    rng = random.Random(4)
    ring4 = GradedPolynomialRing(["x1", "x2", "x3", "x4"])
    ring3 = GradedPolynomialRing(["x", "y", "z"])
    cases = [(ring4, 1, relation_columns(residue_field_module(ring4)))]
    for seed in range(6):
        m = random_module(ring3, random.Random(seed))
        cases.append((ring3, m.num_gens, relation_columns(m)))
    for _ in range(6):
        gens = _rational_generators(ring3, rng)
        if gens:
            cases.append((ring3, gens[0].rank, gens))
    for ring, rank, cols in cases:
        if not cols:
            continue
        gb = buchberger(cols)
        _assert_fractions(gb)
        _assert_fractions([s_vector(a, b) for i, a in enumerate(gb) for b in gb[i + 1:]
                           if a.lead()[0][0] == b.lead()[0][0]])
        sub = SubmoduleGB(ring, rank, cols)
        _assert_fractions(sub.gb)
        _assert_fractions(sub.syzygies())
        for _ in range(3):
            f = Vector.from_polys([random_homogeneous(ring, rng.choice([4, 6]), rng,
                                                      rational=True)
                                   for _ in range(rank)], rank)
            quots, rem = divide(f, cols)
            _assert_fractions(quots + [rem])
            _assert_fractions([normal_form(f, gb), normal_form(f, sub.gb)])
            nf, coeffs = sub.reduce_with_certificate(f)
            _assert_fractions([nf] + coeffs)
            if rank == 1:
                polys = [c.component(0) for c in gb]
                _assert_fractions([normal_form(f.component(0), polys)])


def _random_poly(ring, rng, max_deg, density=0.5):
    """Random polynomial, not homogeneous, zero with probability 1 - density."""
    if rng.random() > density:
        return ring.zero()
    return ring.from_terms(((rng.randint(0, max_deg), rng.randint(0, max_deg)),
                            rng.randint(-3, 3)) for _ in range(rng.randint(1, 3)))


def _mat_product(ring, a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ring.zero())
             for j in range(n)] for i in range(n)]


def test_determinant_matches_laplace_on_random_matrices():
    rng = random.Random(1968)
    ring = GradedPolynomialRing(["x", "y"])
    swapped = 0
    for trial in range(150):
        n = rng.randint(0, 6)
        m = [[_random_poly(ring, rng, 2) for _ in range(n)] for _ in range(n)]
        kind = trial % 5
        if kind == 1 and n >= 2:
            # rank-deficient: the last row is a combination of the others
            coeffs = [_random_poly(ring, rng, 1, density=0.8) for _ in range(n - 1)]
            m[-1] = [sum((c * row[j] for c, row in zip(coeffs, m)), ring.zero())
                     for j in range(n)]
        elif kind == 2 and n >= 2:
            m[0][0] = ring.zero()  # zero leading pivot
        elif kind == 3 and n >= 3:
            # rows 0 and 1 start alike, so the pivot after one step is zero
            while m[0][0].is_zero():
                m[0][0] = _random_poly(ring, rng, 2)
            m[1][:2] = m[0][:2]
        elif kind == 4 and n >= 2:
            # rows of an upper-triangular matrix in a shuffled order
            for i in range(n):
                for j in range(i):
                    m[i][j] = ring.zero()
                if m[i][i].is_zero():
                    m[i][i] = ring.one()
            rng.shuffle(m)
        det = determinant(m, ring)
        assert det == reference_det(m, ring)
        if kind in (2, 3, 4) and n >= 2 and not det.is_zero():
            swapped += 1
    assert swapped >= 10


def test_determinant_pivots_on_constants(monkeypatch):
    # anti-triangular with a constant anti-diagonal, polynomials without
    # constant term above it and zeros below (the shape of a Gram matrix
    # of the Poincare pairing), rows shuffled: every column offers a
    # constant pivot, so no elimination step needs a polynomial division.
    # A division by a polynomial pivot reads its quotient off the pivot's
    # block vector (_certificate); the control matrices, with no constant
    # entry at all, must make such divisions.
    from equisyz import polyring
    calls = []
    real = polyring._certificate

    def counting(v, blocks, rank, count):
        calls.append(blocks)
        return real(v, blocks, rank, count)

    monkeypatch.setattr(polyring, "_certificate", counting)
    rng = random.Random(1968)
    ring = GradedPolynomialRing(["x", "y"])
    x, y = ring.vars()
    for n in range(2, 8):
        m = [[ring.constant(rng.choice((-3, -1, 1, 2))) if i + j == n - 1
              else x * _random_poly(ring, rng, 2) + y if i + j < n - 1
              else ring.zero() for j in range(n)] for i in range(n)]
        rng.shuffle(m)
        assert determinant(m, ring) == reference_det(m, ring)
    assert calls == []
    for n in range(3, 6):
        m = [[x * _random_poly(ring, rng, 1) + y * _random_poly(ring, rng, 1)
              for _ in range(n)] for _ in range(n)]
        assert determinant(m, ring) == reference_det(m, ring)
    assert len(calls) > 0


def test_determinant_matches_sympy(monkeypatch):
    # an oracle that shares no code with the packed products: sympy's
    # determinant of seeded matrices with rational entries (one common
    # denominator for the whole matrix), of matrices with no constant entry
    # (divisions by polynomial pivots) and of rank-deficient ones
    sympy = pytest.importorskip("sympy")
    from equisyz import polyring
    divisions = []
    real = polyring._certificate

    def counting(*args):
        divisions.append(args)
        return real(*args)

    monkeypatch.setattr(polyring, "_certificate", counting)
    rng = random.Random(2121)
    ring = GradedPolynomialRing(["x", "y"])
    x, y = sympy.symbols(ring.names)

    def entry(constants):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            if e == (0, 0) and not constants:
                e = (1, 0)
            terms[e] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        return Polynomial(ring, terms)

    def theirs(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * x ** e[0] * y ** e[1]
                    for e, c in p.terms.items()), sympy.Integer(0))

    seen = {"fractions": 0, "zero": 0}
    for trial in range(60):
        kind = trial % 3
        n = rng.randint(1, 4)
        m = [[entry(kind != 1) for _ in range(n)] for _ in range(n)]
        if kind == 2 and n >= 2:
            coeffs = [entry(True) for _ in range(n - 1)]
            m[-1] = [sum((c * row[j] for c, row in zip(coeffs, m)), ring.zero())
                     for j in range(n)]
        det = determinant(m, ring)
        want = sympy.Poly(sympy.Matrix([[theirs(p) for p in row] for row in m])
                          .det(method="berkowitz"), x, y, domain="QQ")
        got = {e: sympy.Rational(c.numerator, c.denominator) for e, c in det.terms.items()}
        assert got == {e: c for e, c in want.as_dict().items() if c}, (trial, m)
        seen["fractions"] += any(c.denominator != 1 for c in det.terms.values())
        seen["zero"] += kind == 2 and n >= 2 and det.is_zero()
    assert seen["fractions"] >= 10 and seen["zero"] >= 10 and len(divisions) > 0


def test_determinant_of_plu_product():
    # det(P L U) = sign(P) * prod(diag U) for L lower unitriangular and U
    # upper triangular: an oracle that needs no second determinant
    rng = random.Random(22)
    ring = GradedPolynomialRing(["x", "y"])
    n = 8
    for _ in range(3):
        low = [[ring.one() if i == j else
                _random_poly(ring, rng, 1, 0.4) if j < i else ring.zero()
                for j in range(n)] for i in range(n)]
        up = [[_random_poly(ring, rng, 1, 0.4) if j > i else ring.zero()
               for j in range(n)] for i in range(n)]
        for i in range(n):
            while up[i][i].is_zero():
                up[i][i] = _random_poly(ring, rng, 1, 1.0)
        perm = list(range(n))
        rng.shuffle(perm)
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        lu = _mat_product(ring, low, up)
        a = [lu[perm[i]] for i in range(n)]
        expected = ring.one()
        for i in range(n):
            expected = expected * up[i][i]
        assert determinant(a, ring) == (expected if sign > 0 else -expected)


def _check_integer_form(p):
    """p's cached integer form (c, (lead, ints)): packed column-0 keys,
    integers of gcd 1, the largest key as lead (the degrevlex lead) with a
    positive coefficient, and c * ints, unpacked, equal to p's Fraction
    terms."""
    ring = p.ring
    c, (lead, ints) = p._form
    if p.is_zero():
        assert (lead, ints) == (None, {})
        return
    assert all(isinstance(k, int) and ring._unpack(k)[0] == 0 for k in ints)
    assert math.gcd(*ints.values()) == 1
    assert lead == max(ints) and ints[lead] > 0
    assert ring._unpack(lead)[1] == leading_term(p)[0]
    assert {ring._unpack(k)[1]: c * n for k, n in ints.items()} == p.terms


def test_products_and_powers_match_sympy():
    # Polynomial products multiply the integer forms: each product must be
    # sympy's, and be born in a form that keeps the invariants, on seeded
    # random rational polynomials in 1-4 variables, zero and constants
    # among them, about half with a negative lead
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1914)
    negative_leads = 0
    for nvars in range(1, 5):
        ring = GradedPolynomialRing(["x%d" % i for i in range(nvars)])
        gens = sympy.symbols(ring.names)

        def rand():
            terms = {}
            for _ in range(rng.choice((0, 1, 1, 2, 3, 4, 6))):
                exps = tuple(rng.randrange(4) for _ in range(nvars))
                if rng.random() < 0.2:
                    exps = ring.zero_exps
                terms[exps] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                                       rng.randint(1, 6))
            return Polynomial(ring, terms)

        def theirs(p):
            return sympy.Poly.from_dict(
                {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
                gens, domain="QQ")

        def same(p, q):
            got = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
            want = {e: c for e, c in q.as_dict().items() if c}
            return got == want

        polys = [rand() for _ in range(12)] + [ring.zero(), ring.constant(Fraction(-7, 3))]
        for f in polys:
            _check_integer_form(f)
            negative_leads += not f.is_zero() and leading_term(f)[1] < 0
            g = rng.choice(polys)
            prod = f * g
            assert prod._view is None  # born in its form, no view built
            _check_integer_form(prod)
            assert same(prod, theirs(f) * theirs(g)), (f, g)
            # sums of products, whose Fraction terms are views; f + f and
            # the scaled pair share a factor of their contents
            for a, b in ((f, g), (f, f), (f.scale(4), g.scale(Fraction(6, 5)))):
                assert same(a + b, theirs(a) + theirs(b)) and same(a - b, theirs(a) - theirs(b))
                _check_integer_form(a - b)
            # one element whatever the route: equal and hash-equal
            for a, b in (((f + g) - g, f), (f.scale(3).scale(Fraction(1, 3)), f),
                         (Polynomial(ring, dict(prod.terms)), prod), (-(-f), f),
                         (f.scale(-1), -f)):
                assert a == b and hash(a) == hash(b), (a, b)
                _check_integer_form(a)
            for z in (f.scale(0), f - f, f + (-f), (f + g) - (g + f)):
                assert z == ring.zero() and hash(z) == hash(ring.zero())
                _check_integer_form(z)
            k = rng.randint(0, 3)
            power = f ** k
            _check_integer_form(power)
            assert same(power, theirs(f) ** k), (f, k)
    assert negative_leads >= 10
    # a Polynomial's form is packed, so its exponents are bounded as in the
    # Groebner core: up to EXPONENT_LIMIT in a product, and past it a raise
    ring = GradedPolynomialRing(["x", "y"])
    x, y = ring.vars()
    p = x ** EXPONENT_LIMIT * y
    assert EXPONENT_LIMIT == 32767 and p.terms == {(32767, 1): 1}
    _check_integer_form(p)
    with pytest.raises(ExponentLimitError, match="of x exceeds the limit 32767"):
        x ** 40000


def test_substitute_matches_sympy(monkeypatch):
    # substitute sums the scaled images of the monomials in one integer
    # accumulator: each result must be sympy's and be born in its form, on
    # seeded random rational polynomials in 1-4 variables (zero, constants
    # and zero images among them), with no element + on the way
    sympy = pytest.importorskip("sympy")
    from equisyz.polyring import _Element
    adds = []
    real = _Element.__add__

    def counted(self, other):
        adds.append(1)
        return real(self, other)

    rng = random.Random(4242)
    target = GradedPolynomialRing(["t0", "t1", "t2"])
    tgens = sympy.symbols(target.names)

    def rand(ring, nterms, top):
        terms = {}
        for _ in range(nterms):
            exps = tuple(rng.randrange(top) for _ in range(ring.num_vars))
            terms[exps] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        return Polynomial(ring, terms)

    def theirs(p, gens):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[g ** e for g, e in zip(gens, exps)])
                    for exps, c in p.terms.items()), sympy.Integer(0))

    nonzero = 0
    for nvars in range(1, 5):
        ring = GradedPolynomialRing(["x%d" % i for i in range(nvars)])
        gens = sympy.symbols(ring.names)
        for _ in range(8):
            f = rand(ring, rng.choice((0, 1, 3, 8, 20)), 4)
            images = [rand(target, rng.choice((0, 1, 2, 3)), 2) for _ in range(nvars)]
            monkeypatch.setattr(_Element, "__add__", counted)
            got = f.substitute(target, images)
            monkeypatch.undo()
            want = sympy.Poly(theirs(f, gens).xreplace(
                {g: theirs(p, tgens) for g, p in zip(gens, images)}), *tgens, domain="QQ")
            assert {e: sympy.Rational(c.numerator, c.denominator)
                    for e, c in got.terms.items()} == {
                        e: c for e, c in want.as_dict().items() if c}, (f, images)
            _check_integer_form(got)
            nonzero += not got.is_zero()
    assert not adds and nonzero >= 16, (len(adds), nonzero)
    # the checks stay: one image per variable, images in the target ring,
    # and the exponent limit of a product
    ring = GradedPolynomialRing(["x", "y"])
    x, y = ring.vars()
    with pytest.raises(ValueError, match="one image per variable"):
        (x * y).substitute(target, [target.var(0)])
    with pytest.raises(ValueError, match="ring mismatch"):
        (x * y).substitute(target, [x, y])
    with pytest.raises(ExponentLimitError):
        (x * x).substitute(target, [target.var(0) ** 20000, target.one()])


def _check_vector_form(v, terms):
    """v equals the Vector built from the Fraction terms, hash-equal, and
    its view is those terms; its form is canonical."""
    built = Vector(v.ring, v.rank, terms)
    assert v == built and hash(v) == hash(built)
    assert v.data == terms
    c, (lead, ints) = v._form
    if v.is_zero():
        assert (c, lead, ints) == (1, None, {})
    else:
        assert math.gcd(*ints.values()) == 1 and lead == max(ints) and ints[lead] > 0


def test_vector_arithmetic_matches_fraction_term_references():
    # the arithmetic Vector shares with Polynomial, stacking and splitting
    # by column, and gradmod's _apply and _transpose work on integer forms:
    # each result must equal plain Fraction-dict arithmetic on the views
    # (tests/helpers.py), on seeded vectors with rational entries
    from equisyz.gradmod import _apply, _transpose
    rng = random.Random(2202)
    ring = GradedPolynomialRing(["x", "y", "z"])
    nonzero = 0
    for _ in range(40):
        rank, trank = rng.randint(1, 3), rng.randint(1, 3)
        cols = [0] * rank
        degree = rng.choice((0, 2, 4))
        v = random_vector(ring, cols, degree, rng, rational=True)
        w = random_vector(ring, cols, degree, rng, rational=True)
        p = random_homogeneous(ring, rng.choice((0, 2, 4)), rng, rational=True)
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        exps = tuple(rng.randrange(3) for _ in range(3))
        _check_vector_form(v + w, reference_terms_sum(v.data, w.data))
        _check_vector_form(v - w, reference_terms_sum(v.data, w.data, -1))
        _check_vector_form(v - v, {})
        _check_vector_form((v + w) - w, dict(v.data))
        _check_vector_form(v.scale(q), {k: q * c for k, c in v.data.items()})
        _check_vector_form(v.scale(0), {})
        _check_vector_form(-v, {k: -c for k, c in v.data.items()})
        _check_vector_form(v.poly_mul(p), reference_poly_mul(v.data, p.terms))
        _check_vector_form(mono_mul(v, exps, q), reference_poly_mul(v.data, {exps: q}))
        polys = v.to_polys()
        assert [f.terms for f in polys] == [
            {e: c for (col, e), c in v.data.items() if col == i} for i in range(rank)]
        assert [v.component(i) for i in range(rank)] == polys
        _check_vector_form(Vector.from_polys(polys), dict(v.data))
        _check_vector_form(Vector.from_polys(polys + [p], rank + 1), {
            **v.data, **{(rank, e): c for e, c in p.terms.items()}})
        columns = [random_vector(ring, [0] * trank, 2 * rng.randint(0, 2), rng,
                                 rational=rng.random() < 0.7) for _ in range(rank)]
        _check_vector_form(_apply(columns, v, trank), reference_apply(columns, v))
        for got, want in zip(_transpose(ring, columns, trank),
                             reference_transpose(columns, trank)):
            _check_vector_form(got, want)
        nonzero += not (v.is_zero() or w.is_zero() or p.is_zero())
    assert nonzero >= 25, nonzero


def test_reduced_gb_matches_sympy_grevlex():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    ring = GradedPolynomialRing(["x", "y", "z"])
    gens = sympy.symbols("x y z")
    for _ in range(20):
        polys = [random_homogeneous(ring, 2 * rng.choice([2, 3]), rng, density=0.5)
                 for _ in range(rng.randint(2, 4))]
        polys = [p for p in polys if not p.is_zero()]
        ours = {frozenset(v.component(0).terms.items()) for v in groebner_basis(polys)}
        exprs = [sympy.sympify(str(p).replace("^", "**")) for p in polys]
        theirs = sympy.groebner(exprs, *gens, order="grevlex", domain="QQ")
        theirs = {frozenset((exps, Fraction(c.p, c.q))
                            for exps, c in sympy.Poly(g, *gens).terms())
                  for g in theirs.exprs}
        assert ours == theirs


def test_exact_divide_matches_sympy_div():
    # _exact_divide reads its quotient off the aux column of divide's block
    # vector: (f*g) / g must give back f, and f*g + r must be refused exactly
    # when sympy's div by g leaves a nonzero remainder
    sympy = pytest.importorskip("sympy")
    from equisyz.polyring import _exact_divide
    rng = random.Random(1968)
    refused = 0
    for names, degrees in ((["x", "y"], [2, 2]), (["x", "y", "z"], [2, 2, 4])):
        ring = GradedPolynomialRing(names, degrees)
        gens = sympy.symbols(names)

        def rand(top):
            # rational and inhomogeneous: every even degree up to top
            out = ring.zero()
            for d in range(0, top + 1, 2):
                out = out + random_homogeneous(ring, d, rng, density=0.5, rational=True)
            return out

        def expr(p):
            return sympy.sympify(str(p).replace("^", "**"))

        for _ in range(15):
            d = rng.choice([2, 4])
            top = random_homogeneous(ring, d, rng, rational=True)
            f, g, r = rand(4), top + rand(d - 2), rand(2)
            if f.is_zero() or top.is_zero():
                continue
            if leading_term(g)[1] == 1:
                g = g.scale(Fraction(-3, 2))
            assert _exact_divide(f * g, g) == (f, True)
            h = f * g + r
            q, rem = sympy.div(expr(h), expr(g), *gens, domain="QQ")
            if rem == 0:
                want = Polynomial(ring, {e: Fraction(int(c.p), int(c.q))
                                         for e, c in sympy.Poly(q, *gens).terms()})
                assert _exact_divide(h, g) == (want, True)
            else:
                assert _exact_divide(h, g) == (None, False)
                refused += 1
    assert refused >= 10


def test_hilbert_series_matches_sympy_standard_monomials():
    # the Hilbert function of Q[x,y,z]/I counts the standard monomials of
    # any Groebner basis of I; here sympy's, degree by degree
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    ring = GradedPolynomialRing(["x", "y", "z"])
    gens = sympy.symbols("x y z")
    nmax = 12
    for _ in range(12):
        polys = [random_homogeneous(ring, 2 * rng.randint(1, 3), rng, density=0.5)
                 for _ in range(rng.randint(1, 4))]
        polys = [p for p in polys if not p.is_zero()]
        ours = quotient_by_ideal(ring, polys).hilbert().coefficients(2 * nmax)
        exprs = [sympy.sympify(str(p).replace("^", "**")) for p in polys]
        gb = sympy.groebner(exprs, *gens, order="grevlex", domain="QQ")
        leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in gb.exprs]
        for d in range(nmax + 1):
            standard = sum(
                1 for a in range(d + 1) for b in range(d + 1 - a)
                if not any(l[0] <= a and l[1] <= b and l[2] <= d - a - b
                           for l in leads))
            assert ours.get(2 * d, 0) == standard, (polys, d)


def test_syzygies_of_koszul_pair(R):
    x, y = R.vars()
    syz = syzygy_basis(R, 1, [Vector.from_polys([x], 1), Vector.from_polys([y], 1)])
    assert buchberger(syz) == buchberger([Vector.from_polys([y, -x])])


def test_syzygies_of_zero_map(R):
    # kernel of the zero map F -> 0 is all of F
    zero_vecs = [Vector(R, 0, {}), Vector(R, 0, {})]
    syz = syzygy_basis(R, 0, zero_vecs)
    assert buchberger(syz) == buchberger([Vector.unit(R, 2, 0), Vector.unit(R, 2, 1)])


def test_injective_map_has_no_syzygies(R):
    x, _ = R.vars()
    assert syzygy_basis(R, 1, [Vector.from_polys([x], 1)]) == []


def test_submodule_gb_lift_and_membership(R):
    x, y = R.vars()
    gens = [Vector.from_polys([x, y]), Vector.from_polys([y ** 2, x ** 2])]
    gb = SubmoduleGB(R, 2, gens)
    target = gens[0].poly_mul(x * y) + gens[1].poly_mul(y ** 2)
    coeffs = gb.lift(target)
    assert coeffs is not None
    rebuilt = Vector(R, 2, {})
    for c, g in zip(coeffs, gens):
        rebuilt = rebuilt + g.poly_mul(c)
    assert rebuilt == target
    assert gb.lift(Vector.from_polys([R.one(), R.zero()])) is None


def test_submodule_gb_certificates_match_reference_division():
    # on random module columns, rational generators and no generators at
    # all: reduce_with_certificate is a division certificate whose remainder
    # is the reference division's by sub.gb, contains is that remainder being
    # zero, and lift is None exactly off the submodule.  Seeds 2014 and
    # 2015 each draw one generator set whose block construction ran away in
    # coefficient size before pairs were taken by sugar degree.
    ring = GradedPolynomialRing(["x", "y", "z"])
    members = outsiders = 0
    for rng_seed in (2014, 2015):
        rng = random.Random(rng_seed)
        cases = [(2, [])]
        for seed in range(8):
            m = random_module(ring, random.Random(seed))
            cases.append((m.num_gens, relation_columns(m)))
        for _ in range(12):
            gens = _rational_generators(ring, rng)
            if gens:
                cases.append((gens[0].rank, gens))
        for rank, gens in cases:
            sub = SubmoduleGB(ring, rank, gens)
            combination = Vector(ring, rank, {})
            for g in gens:
                combination = combination + g.poly_mul(
                    random_homogeneous(ring, rng.choice([0, 2]), rng, rational=True))
            drawn = [random_vector(ring, (0,) * rank, rng.choice([4, 6]), rng, rational=True)
                     for _ in range(2)]
            for v in drawn + [combination, combination + drawn[0]]:
                nf, coeffs = sub.reduce_with_certificate(v)
                assert len(coeffs) == len(gens)
                back = nf
                for q, g in zip(coeffs, gens):
                    back = back + g.poly_mul(q)
                assert back == v
                assert nf == reference_divide(v, sub.gb)[1]
                inside = nf.is_zero()
                assert sub.contains(v) == inside
                assert sub.lift(v) == (coeffs if inside else None)
                if v is combination:
                    assert inside
                members += inside
                outsiders += not inside
    assert members >= 25 and outsiders >= 50, (members, outsiders)


def test_hilbert_series_examples():
    Rt = GradedPolynomialRing(["t"])
    free = quotient_hilbert_series(Rt, (0,), [])
    assert free.coefficients(8) == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}
    t = Rt.var(0)
    gb = buchberger([Vector.from_polys([t], 1)])
    point = quotient_hilbert_series(Rt, (0,), gb)
    assert point.coefficients(8) == {0: 1}

    R = GradedPolynomialRing(["x", "y"])
    x, y = R.vars()
    gb = buchberger([Vector.from_polys([p], 1) for p in (x * x, x * y, y * y)])
    h = quotient_hilbert_series(R, (0,), gb)
    assert h.coefficients(10) == {0: 1, 2: 2}


def test_span_series_match_ranks_of_monomial_multiples():
    # dim_Q of a span in degree d, read off no Groebner basis: the rank (by
    # sympy) of the coefficients of every degree-d monomial multiple of the
    # generators, on seeded random homogeneous submodules of Q[x, y, z]^2;
    # the quotient's series is the free module's less the span's
    sympy = pytest.importorskip("sympy")
    rng = random.Random(32)
    R = GradedPolynomialRing(["x", "y", "z"])
    top = 8
    for _ in range(6):
        col_degrees = (0, rng.choice([0, 2, 4]))
        gens = []
        for _ in range(rng.randint(1, 3)):
            degree = rng.choice([2, 4, 6])
            polys = [random_homogeneous(R, degree - c, rng, density=0.5, rational=True)
                     if degree >= c else R.zero() for c in col_degrees]
            if any(not p.is_zero() for p in polys):
                gens.append((degree, polys))
        vectors = [Vector.from_polys(polys, 2) for _, polys in gens]
        span = HilbertSeries(span_hilbert_numerator(
            R, col_degrees, [v.lead()[0] for v in buchberger(vectors)]), R.degrees)
        quotient = quotient_hilbert_series(R, col_degrees, buchberger(vectors))
        got, rest = span.coefficients(top), quotient.coefficients(top)
        for d in range(0, top + 1, 2):
            places = [(c, m) for c, cd in enumerate(col_degrees)
                      for m in monomials_of_degree(R, d - cd) if d >= cd]
            where = {place: i for i, place in enumerate(places)}
            rows = []
            for degree, polys in gens:
                for m in (monomials_of_degree(R, d - degree) if d >= degree else []):
                    row = [0] * len(places)
                    for c, p in enumerate(polys):
                        for exps, coeff in p.terms.items():
                            shifted = tuple(a + b for a, b in zip(exps, m))
                            row[where[c, shifted]] = sympy.Rational(coeff.numerator,
                                                                    coeff.denominator)
                    rows.append(row)
            rank = sympy.Matrix(rows).rank() if rows else 0
            assert got.get(d, 0) == rank, (col_degrees, gens, d)
            assert rest.get(d, 0) == len(places) - rank, (col_degrees, gens, d)


def test_hilbert_closed_form_20_coefficients():
    R = GradedPolynomialRing(["a", "b", "c"], [2, 4, 6])
    h = quotient_hilbert_series(R, (0,), [])
    got = h.coefficients(40)
    # brute-force staircase count
    expect = {}
    for i in range(0, 21):
        for j in range(0, 11):
            for k in range(0, 7):
                d = 2 * i + 4 * j + 6 * k
                if d <= 40:
                    expect[d] = expect.get(d, 0) + 1
    assert got == expect


def test_hilbert_pole_order():
    R = GradedPolynomialRing(["x", "y"])
    assert quotient_hilbert_series(R, (0,), []).pole_order() == 2
    x, y = R.vars()
    gb = buchberger([Vector.from_polys([x], 1)])
    assert quotient_hilbert_series(R, (0,), gb).pole_order() == 1
    assert HilbertSeries({}, R.degrees).pole_order() is None


def test_negative_degree_series():
    R = GradedPolynomialRing(["t"])
    h = quotient_hilbert_series(R, (-2,), [])
    assert h.coefficients(0) == {-2: 1, 0: 1}


def test_random_module_groebner_s_vectors_reduce_to_zero():
    # direct Buchberger criterion on the output, independent of the pair
    # elimination used while computing it
    rng = random.Random(17)
    R = GradedPolynomialRing(["x", "y"])
    for _ in range(6):
        gens = []
        for _ in range(rng.randint(2, 4)):
            polys = [random_homogeneous(R, rng.choice([2, 4]), rng)
                     for _ in range(2)]
            v = Vector.from_polys(polys, 2)
            if not v.is_zero():
                gens.append(v)
        if not gens:
            continue
        gb = buchberger(gens)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                if gb[i].lead()[0][0] == gb[j].lead()[0][0]:
                    assert normal_form(s_vector(gb[i], gb[j]), gb).is_zero()
        # membership both ways: generators reduce to zero against the basis
        for g in gens:
            assert normal_form(g, gb).is_zero()


def test_hilbert_rank_nullity_for_random_maps():
    # Hilb(source) = Hilb(kernel) + Hilb(image) as graded vector spaces;
    # an independent consistency check of the syzygy computation
    rng = random.Random(23)
    R = GradedPolynomialRing(["x", "y"])
    for _ in range(5):
        cols = []
        for _ in range(rng.randint(1, 3)):
            polys = [random_homogeneous(R, 4, rng), random_homogeneous(R, 4, rng)]
            v = Vector.from_polys(polys, 2)
            if not v.is_zero():
                cols.append(v)
        if not cols:
            continue
        n = len(cols)
        src_deg = (4,) * n
        ker = syzygy_basis(R, 2, cols)
        hk = quotient_hilbert_series(R, src_deg, buchberger(ker))
        free_src = quotient_hilbert_series(R, src_deg, [])
        ker_series = series_minus(free_src, hk)          # Hilb of the kernel submodule
        him = quotient_hilbert_series(R, (0, 0), buchberger(cols))
        free_tgt = quotient_hilbert_series(R, (0, 0), [])
        im_series = series_minus(free_tgt, him)
        lhs = free_src.coefficients(24)
        rhs = {}
        for k, v in ker_series.coefficients(24).items():
            rhs[k] = rhs.get(k, 0) + v
        for k, v in im_series.coefficients(24).items():
            rhs[k] = rhs.get(k, 0) + v
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs


def test_elements_past_the_exponent_limit_raise_when_built():
    # an element is its packed form, so one holding x^40000 is never built
    ring = GradedPolynomialRing(["x", "y"])
    for build in (lambda: ring.parse("x^40000"), lambda: ring.monomial((40000, 0)),
                  lambda: Vector(ring, 2, {(1, (40000, 1)): Fraction(1, 2)})):
        with pytest.raises(ExponentLimitError,
                           match="exponent 40000 of x exceeds the limit 32767"):
            build()


def test_exponent_limit_raises_on_input_and_mid_computation():
    # the Groebner core packs each exponent into a 16-bit field with a guard
    # bit; an exponent past the limit raises instead of wrapping around
    R = GradedPolynomialRing(["x", "y"])
    x, y = R.vars()
    lim = EXPONENT_LIMIT
    assert lim == 32767

    def vec(p):
        return Vector.from_polys([p], 1)

    # on input (a monomial past the limit, as a product would raise first)
    with pytest.raises(ExponentLimitError, match="exponent 40000 of x exceeds the limit 32767"):
        buchberger([vec(R.monomial((40000, 0)))])
    # in a reduction: x^20000*y^20000 - y^20000*(x^20000 - y^20000) = y^40000
    with pytest.raises(ExponentLimitError, match="exponent 40000 of y exceeds the limit 32767"):
        divide(vec(x ** 20000 * y ** 20000), [vec(x ** 20000 - y ** 20000)])
    # in an S-vector: y^20000 (x^20000 - y^20000) - x^20000 y^20000
    with pytest.raises(ExponentLimitError, match="exponent 40000 of y"):
        buchberger([vec(x ** 20000 - y ** 20000), vec(x ** 20000 * y ** 20000)])
    # at the limit everything still works
    quots, rem = divide(vec(x ** lim * y), [vec(x ** (lim - 1) * y - y ** lim)])
    assert quots[0] == x and rem == vec(x * y ** lim)
    assert buchberger([vec(x ** lim), vec(y ** lim)]) == [vec(y ** lim), vec(x ** lim)]


def test_groebner_core_works_on_packed_terms(monkeypatch):
    # deterministic work: the reduction loop and the S-vectors compare,
    # multiply and divide packed ints, and never call the tuple order or the
    # tuple product; pair selection and _s_terms read each pair's stored
    # packed lcm, and pack or unpack no term
    from equisyz import polyring
    depth = []
    core = {"_reduce", "_s_terms", "s_vector"}
    calls = dict.fromkeys(["vector_key", "monomial_key", "_mono_mul", "_pack", "_unpack"], 0)
    entered = dict.fromkeys(sorted(core) + ["complete", "_insert"], 0)

    def inside(owner, name):
        orig = getattr(owner, name)

        def wrapped(*args, **kwargs):
            entered[name] += 1
            depth.append(name)
            try:
                return orig(*args, **kwargs)
            finally:
                depth.pop()
        monkeypatch.setattr(owner, name, wrapped)

    def counted(owner, name, where):
        orig = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if where():
                calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    def in_core():
        return not core.isdisjoint(depth)

    def selecting_or_in_s_terms():
        return bool(depth) and depth[-1] in ("complete", "_s_terms")

    rng = random.Random(3)
    ring = GradedPolynomialRing(["x", "y", "z"])
    cases = [relation_columns(random_module(ring, random.Random(seed)))
             for seed in range(4)]
    cases += [_rational_generators(ring, rng) for _ in range(4)]
    expected = [buchberger(cols) for cols in cases]
    for name in core:
        inside(polyring, name)
    inside(GroebnerBasis, "complete")
    inside(GroebnerBasis, "_insert")
    counted(GradedPolynomialRing, "vector_key", in_core)
    counted(GradedPolynomialRing, "monomial_key", in_core)
    counted(polyring, "_mono_mul", in_core)
    counted(GradedPolynomialRing, "_pack", selecting_or_in_s_terms)
    counted(GradedPolynomialRing, "_unpack", selecting_or_in_s_terms)
    for cols, gb in zip(cases, expected):
        if not cols:
            continue
        fresh = [Vector(ring, v.rank, v.data) for v in cols]
        assert buchberger(fresh) == gb
        f = random_vector(ring, [0] * cols[0].rank, 6, rng, rational=True)
        quots, rem = divide(f, gb + fresh)
        assert rem == divide(f, gb)[1]
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                if gb[i].lead()[0][0] == gb[j].lead()[0][0]:
                    polyring.s_vector(gb[i], gb[j])
    assert min(entered.values()) > 0, entered
    assert not any(calls.values()), calls
