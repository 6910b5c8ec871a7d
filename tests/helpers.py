"""Shared test utilities: the shipped data, random homogeneous polynomials
and modules, and the reference forms the library is tested against."""

import argparse
import heapq
import json
import os
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from equisyz.polyring import (
    GradedPolynomialRing, HilbertSeries, Polynomial, SubmoduleGB, Vector, _exact_divide,
    buchberger, divide, qpoly_add, qpoly_mul, syzygy_basis,
)
from equisyz.gradmod import (
    BidualityResult, FPModule, FPMap, FreeModule, ModuleMap, SyzygyOrderResult,
    minimal_resolution, fp_kernel, fp_cokernel, fp_homology, _dual_data, _bidual_columns,
    _map_between_free_fp, minimal_generating_indices, _degrees_of, base_change,
)
from equisyz.equivtop import DatumError, FiltrationDatum, gkm_cohomology
from equisyz.cartan import (
    CartanComplex, GStarModule, cartan_cohomology, equivariant_homology,
    uct_collapse_check,
)
from equisyz.cli import COMMANDS, MAX_DEGREE_LIMIT

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data")


def load(cls, name):
    """cls.from_json of the shipped data/<name>.json."""
    with open(os.path.join(DATA, name + ".json")) as fh:
        return cls.from_json(json.load(fh))


def is_homogeneous(p):
    """Whether the polynomial p has one weighted degree (0 has none)."""
    try:
        p.homogeneous_degree()
        return True
    except ValueError:
        return False


def quotient_by_ideal(ring, polys, gen_degree=0):
    """R/(polys) as a module on one generator of degree gen_degree."""
    cols = [Vector.from_polys([p], rank=1) for p in polys if not p.is_zero()]
    return FPModule.from_columns(ring, (gen_degree,), cols)


def reynolds(group, poly):
    """The group average of poly, a projector onto the invariants."""
    acc = sum((group._act(k, poly) for k in range(group.order)), group.ring.zero())
    return acc.scale(Fraction(1, group.order))


def leading_term(p):
    """(exps, coefficient) of the largest term of the nonzero polynomial p
    in the ring's monomial order."""
    e = max(p.terms, key=p.ring.monomial_key)
    return e, p.terms[e]


def relation_columns(module):
    """The relation columns of a presented module, as a list of Vectors."""
    return list(module.pmap.columns)


def failures(checks):
    """The names of the CheckReports that failed."""
    return [c.name for c in checks if not c.passed]


def groebner_basis(polys):
    """Reduced Groebner basis of homogeneous polynomials, as rank-1
    vectors; an inhomogeneous generator is a ValueError."""
    for p in polys:
        if not p.is_zero() and not is_homogeneous(p):
            raise ValueError("inhomogeneous generator: %s" % p)
    return buchberger([Vector.from_polys([p], 1) for p in polys])


def normal_form(f, basis):
    """Remainder of f under full division by basis (a Groebner basis)."""
    if isinstance(f, Polynomial):
        v = Vector.from_polys([f], rank=1)
        b = [g if isinstance(g, Vector) else Vector.from_polys([g], rank=1) for g in basis]
        b = [g for g in b if not g.is_zero()]
        if not b:
            return f
        return divide(v, b)[1].component(0)
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return f
    return divide(f, basis)[1]


def dual_module(module):
    """M* = Hom(M, R) as an FPModule."""
    return _dual_data(module)[0]


def point_model():
    """The one-dimensional trivial Cartan model."""
    return GStarModule((0,), [[0]], [[[0]]])


def circle_model():
    """Free circle: basis 1, theta with iota(theta) = 1 and zero differential."""
    return GStarModule((0, 1), [[0, 0], [0, 0]], [[[0, 1], [0, 0]]])


def circle_plus_acyclic_json():
    """CLI JSON of the circle model plus an acyclic pair: a in degree 1,
    b in degree 2, d a = b, every contraction zero on both."""
    model = circle_model()
    d = [[0] * 4 for _ in range(4)]
    d[3][2] = 1
    iota = [[0] * 4 for _ in range(4)]
    iota[0][1] = 1
    return dict(GStarModule(model.degrees + (1, 2), d, [iota]).to_json(), rank=1)


def shuffled_edges(graph, seed, flip=False):
    """A copy of a GKM graph's JSON with its edges in a seeded random order;
    with flip, each edge also swaps its endpoints and negates its weight
    with probability 1/2 (the same space)."""
    rng = random.Random(seed)
    edges = [dict(e) for e in graph["edges"]]
    rng.shuffle(edges)
    if flip:
        for e in edges:
            if rng.random() < 0.5:
                e["v"], e["w"], e["weight"] = e["w"], e["v"], [-x for x in e["weight"]]
    return dict(graph, edges=edges)


def shuffled_vertices(graph, seed):
    """A copy of a GKM graph's JSON with its vertex list in a seeded random
    order (the same space; the order fixes the kernel's aux order)."""
    vertices = list(graph["vertices"])
    random.Random(seed).shuffle(vertices)
    return dict(graph, vertices=vertices)


def model_uct(model, ring):
    """uct_collapse_check on the equivariant cohomology and homology of a
    G*-module over the torus ring."""
    return uct_collapse_check(cartan_cohomology(CartanComplex(ring, model)),
                              equivariant_homology(model, ring))


def formal_model(degrees, rank):
    """All operators zero: the cohomology of a formal space, e.g. spheres."""
    n = len(degrees)
    zero = [[0] * n for _ in range(n)]
    return GStarModule(tuple(degrees), zero, [zero for _ in range(rank)])


def koszul_syzygy_module(ring, j):
    """j-th syzygy module of the residue field, read off the Koszul complex."""
    r = ring.num_vars
    if not 1 <= j <= r:
        raise ValueError("syzygy index out of range")
    subsets = [list(combinations(range(r), k)) for k in range(r + 1)]
    if j == r:
        return FPModule.free(ring, (2 * j,) * len(subsets[j]))
    # relations: the Koszul differential Lambda^{j+1} -> Lambda^j
    rows = {s: i for i, s in enumerate(subsets[j])}
    cols = []
    for s in subsets[j + 1]:
        polys = [ring.zero()] * len(rows)
        for pos, var in enumerate(s):
            polys[rows[s[:pos] + s[pos + 1:]]] = ring.var(var).scale((-1) ** pos)
        cols.append(Vector.from_polys(polys, len(rows)))
    return FPModule.from_columns(ring, (2 * j,) * len(rows), cols)


def residue_field_module(ring):
    """The residue field as a module: R modulo all the variables."""
    return quotient_by_ideal(ring, ring.vars())


def euler_class(graph, v):
    """Signed product of the weights at a vertex (supplied or derived)."""
    e = graph.ring.one()
    for w in graph._weights_at(v):
        e = e * graph.weight_form(w)
    return e


def base_changed(datum, ring_map):
    """A filtration datum with every piece and map extended along a graded
    ring inclusion."""
    mods = [base_change(m, ring_map) for m in datum.modules]
    maps = [FPMap.from_matrix(mods[i], mods[i + 1],
                              [[ring_map(e) for e in row] for row in f.rows()],
                              check=False)
            for i, f in enumerate(datum.maps)]
    aug = None
    if datum.augmentation is not None:
        aug = FPMap.from_matrix(base_change(datum.augmentation.source, ring_map),
                                mods[0], [[ring_map(e) for e in row]
                                          for row in datum.augmentation.rows()],
                                check=False)
    hom = (base_change(datum.homology_module, ring_map)
           if datum.homology_module is not None else None)
    return FiltrationDatum(ring_map.target, mods, maps, augmentation=aug,
                           homology_module=hom,
                           poincare_duality=datum.poincare_duality)


def series_leq(a, b, nmax):
    """Every coefficient of the Hilbert series a through nmax is at most b's."""
    ca, cb = a.coefficients(nmax), b.coefficients(nmax)
    return all(v <= cb.get(k, 0) for k, v in ca.items())


def times_qpoly(series, p):
    """A Hilbert series times a Laurent polynomial {degree: coefficient}."""
    return HilbertSeries(qpoly_mul(series.numerator, p), series.denominator_degrees)


def series_minus(a, b):
    """The difference of two Hilbert series over the same denominator."""
    assert a.denominator_degrees == b.denominator_degrees
    neg = {k: -v for k, v in b.numerator.items()}
    return HilbertSeries(qpoly_add(a.numerator, neg), a.denominator_degrees)


def monomials_of_degree(ring, degree):
    def rec(prefix, rem, i):
        if i == ring.num_vars - 1:
            d = ring.degrees[i]
            if rem >= 0 and rem % d == 0:
                yield prefix + (rem // d,)
            return
        d = ring.degrees[i]
        for e in range(rem // d + 1):
            yield from rec(prefix + (e,), rem - e * d, i + 1)
    return list(rec((), degree, 0))


def random_homogeneous(ring, degree, rng, density=0.7, bound=3, rational=False):
    """Random homogeneous polynomial with coefficients in [-bound, bound],
    each divided by a random denominator in 1..7 when rational."""
    out = {}
    for m in monomials_of_degree(ring, degree):
        if rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                out[m] = Fraction(c, rng.randint(1, 7) if rational else 1)
    return Polynomial(ring, out)


def mono_mul(v, exps, coeff=1):
    """The vector v times the monomial coeff * x^exps."""
    return v.poly_mul(v.ring.monomial(exps, coeff))


def reference_divide(f, divisors):
    """Full division that rescans the dividend for its largest term each step.

    The straightforward form of polyring.divide, kept as the reference it is
    tested against: same reduction rule (the first divisor whose lead
    divides), same quotients and remainder.
    """
    ring = f.ring
    leads = [g.lead() for g in divisors]
    quots = [{} for _ in divisors]
    rem = {}
    p = dict(f.data)
    while p:
        key = max(p, key=ring.vector_key)
        coeff = p[key]
        col, exps = key
        for i, ((gc, ge), glc) in enumerate(leads):
            if gc == col and all(a <= b for a, b in zip(ge, exps)):
                q = tuple(a - b for a, b in zip(exps, ge))
                factor = coeff / glc
                quots[i][q] = quots[i].get(q, Fraction(0)) + factor
                for (c2, e2), v2 in divisors[i].data.items():
                    k2 = (c2, tuple(a + b for a, b in zip(e2, q)))
                    s = p.get(k2, Fraction(0)) - factor * v2
                    if s:
                        p[k2] = s
                    else:
                        p.pop(k2, None)
                break
        else:
            rem[key] = coeff
            del p[key]
    return ([Polynomial(ring, q) for q in quots],
            Vector(ring, f.rank, rem))


def reference_reduce(ring, terms, divisors):
    """(scale, rem) of polyring._reduce by its earlier loop, kept verbatim as
    the reference it is tested against: every pending term enters the heap,
    and a term of a column where no divisor has its lead is popped, in key
    order, into the remainder like any other term that no lead divides."""
    mask, guard, cshift = ring._mask, ring._guard, ring._cshift
    by_col = {}
    for lead, ints in divisors:
        by_col.setdefault(lead >> cshift, []).append(
            (lead, ~lead & mask, ints[lead], ints))
    scale = 1
    rem = {}
    p = dict(terms)
    heap = [-k for k in p]
    heapq.heapify(heap)
    while heap:
        t = -heapq.heappop(heap)
        coeff = p.get(t)
        if coeff is None:
            continue
        fields = ~t & mask | guard
        for lead, lfields, glc, ints in by_col.get(t >> cshift, ()):
            if (fields - lfields) & guard == guard:
                q = t - lead
                g = gcd(coeff, glc)
                a, factor = glc // g, coeff // g
                if a != 1:
                    scale *= a
                    for part in (p, rem):
                        for k in part:
                            part[k] *= a
                for k2, v2 in ints.items():
                    t2 = k2 + q
                    old = p.get(t2)
                    if old is None:
                        if ~t2 & guard:
                            raise ring._limit_error(ring._unpack(t2)[1])
                        p[t2] = -factor * v2
                        heapq.heappush(heap, -t2)
                    else:
                        s = old - factor * v2
                        if s:
                            p[t2] = s
                        else:
                            del p[t2]
                break
        else:
            rem[t] = coeff
            del p[t]
    return scale, rem


def reference_update_pairs(single, pairs, leads, new, ring):
    """Gebauer-Moeller style pair update, restricted to same-column pairs.

    The pair update of polyring.GroebnerBasis._insert in its earlier
    free-function form, kept as the reference it is tested against and
    sharing no code with it: leads[i] is element i's lead (col, exps),
    single[i] says whether the element lies in one column (the product
    criterion applies only to pairs of such elements), and the pending
    pairs after inserting element new are returned as a set.
    """
    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    tnew = leads[new]
    kept = set()
    for (i, j) in pairs:
        lij = lcm(leads[i][1], leads[j][1])
        if (leads[i][0] == tnew[0]
                and divides(tnew[1], lij)
                and lij != lcm(leads[i][1], tnew[1])
                and lij != lcm(leads[j][1], tnew[1])):
            continue  # chain criterion: (i,new) and (j,new) cover (i,j)
        kept.add((i, j))

    cands = [i for i in range(new) if leads[i][0] == tnew[0]]
    buckets = {}
    for i in cands:
        buckets.setdefault(lcm(leads[i][1], tnew[1]), []).append(i)
    minimal = []
    for m in sorted(buckets, key=ring.monomial_key):
        if all(not divides(m2, m) or m2 == m for m2 in minimal):
            minimal.append(m)
    for m in minimal:
        bucket = buckets[m]
        coprime = any(
            lcm(leads[i][1], tnew[1]) == tuple(x + y for x, y in zip(leads[i][1], tnew[1]))
            and single[i] and single[new]
            for i in bucket)
        if coprime:
            continue  # product criterion (effectively the ideal case)
        kept.add((min(bucket), new))
    return kept


def reference_blocks(ring, rank, gens):
    """The block vectors g_i + e_(rank+i), built from Fraction terms."""
    return [Vector(ring, rank + len(gens), {**g.data, (rank + i, ring.zero_exps): Fraction(1)})
            for i, g in enumerate(gens)]


def _copy_columns_below(v, width):
    """v's terms in columns < width, copied one by one into R^width."""
    return Vector(v.ring, width, {(c, e): x for (c, e), x in v.data.items() if c < width})


def reference_submodule_split(ring, rank, gens):
    """(gb, syzygies) of SubmoduleGB by a term-by-term copy of the reduced
    basis of the Fraction block vectors: each element goes to its ambient
    part, or to R^s, columns shifted down by rank, when its lead (and so
    every term) lies in the aux columns."""
    s = len(gens)
    gb, syz = [], []
    for v in buchberger(reference_blocks(ring, rank, gens)):
        if v.lead()[0][0] < rank:
            gb.append(_copy_columns_below(v, rank))
        else:
            syz.append(Vector(ring, s, {(c - rank, e): x for (c, e), x in v.data.items()}))
    return gb, syz


def reference_kernel_submodule(ring, ambient_rank, first_cols, extra_cols):
    """{c : sum c_i first_cols[i] in span(extra_cols)} by term-by-term
    copies, the way gradmod found kernels before SubmoduleGB took
    relations: the nonzero first-block parts of the reference syzygies of
    both lists, every generator with an aux column."""
    gens = list(first_cols) + list(extra_cols)
    if not gens:
        return []
    parts = [_copy_columns_below(v, len(first_cols))
             for v in reference_submodule_split(ring, ambient_rank, gens)[1]]
    return [w for w in parts if not w.is_zero()]


def reference_buchberger(vectors):
    """Reduced Groebner basis by Buchberger's algorithm over Q.

    The form polyring.buchberger had before it kept its basis as primitive
    integer vectors, kept as the reference it is tested against: the same
    pair selection and criteria (reference_update_pairs), on monic vectors,
    with Fraction S-vectors and every reduction by reference_divide.
    """
    vectors = [v.monic() for v in vectors if not v.is_zero()]
    if not vectors:
        return []
    ring = vectors[0].ring

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def quo(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def pair_key(p):
        m = (leads[p[0]][0], lcm(leads[p[0]][1], leads[p[1]][1]))
        return (ring.vector_key(m), p)

    def single(v):
        return len({col for col, _ in v.data}) == 1

    basis = []
    leads = []
    pairs = set()
    for v in vectors:
        basis.append(v)
        leads.append(v.lead()[0])
        pairs = reference_update_pairs([single(b) for b in basis], pairs, leads,
                                       len(basis) - 1, ring)
    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        m = lcm(leads[i][1], leads[j][1])
        s = (mono_mul(basis[i], quo(m, leads[i][1]))
             - mono_mul(basis[j], quo(m, leads[j][1])))
        r = reference_divide(s, basis)[1]
        if r.is_zero():
            continue
        basis.append(r.monic())
        leads.append(r.lead()[0])
        pairs = reference_update_pairs([single(b) for b in basis], pairs, leads,
                                       len(basis) - 1, ring)
    keep = []
    for i, v in enumerate(basis):
        ci, ei = leads[i]
        if not any(j != i and leads[j][0] == ci
                   and all(a <= b for a, b in zip(leads[j][1], ei))
                   and (leads[j][1] != ei or j < i) for j in range(len(basis))):
            keep.append(v)
    out = []
    for i, v in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        out.append(reference_divide(v, others)[1].monic() if others else v)
    out.sort(key=lambda v: ring.vector_key(v.lead()[0]))
    return out


def reference_minimal_generating_indices(vectors, ambient_degrees):
    """Indices of a minimal generating subset of span(vectors).

    The form gradmod.minimal_generating_indices had before it grew one
    GroebnerBasis, kept as the reference it is tested against: greedy in
    increasing degree, a vector is kept unless its normal form under the
    reduced basis of those kept is zero, and the basis is then recomputed
    from scratch by buchberger.
    """
    degs = _degrees_of(vectors, ambient_degrees)
    order = sorted((i for i, d in enumerate(degs) if d is not None),
                   key=lambda i: (degs[i], i))
    kept, gb = [], []
    for i in order:
        v = vectors[i]
        if gb and normal_form(v, gb).is_zero():
            continue
        kept.append(i)
        gb = buchberger(gb + [v])
    return sorted(kept)


def reference_det(matrix, ring):
    """Laplace expansion along the first column.

    The recursive form the determinant had before the fraction-free
    elimination, kept as the reference it is tested against (n! terms).
    """
    n = len(matrix)
    if n == 0:
        return ring.one()
    if n == 1:
        return matrix[0][0]
    acc = ring.zero()
    for i in range(n):
        if matrix[i][0].is_zero():
            continue
        minor = [[matrix[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = matrix[i][0] * reference_det(minor, ring)
        acc = acc - term if i % 2 else acc + term
    return acc


def reference_integrate(graph, klass):
    """Fixed-point localization over the product of all Euler classes.

    The form equivtop.integrate had before it localized over the lcm of the
    Euler classes, kept as the reference it is tested against: each f_v is
    multiplied by every other vertex's Euler class before one exact
    division by their product.  Membership is tested by a Groebner basis of
    the kernel generators, not by integrate's edge congruences.
    """
    ring = graph.ring
    nv = len(graph.vertices)
    if isinstance(klass, (list, tuple)):
        klass = Vector.from_polys(list(klass), nv)
    if not SubmoduleGB(ring, nv, gkm_cohomology(graph).generators).contains(klass):
        raise DatumError("class is not in the kernel of the edge-difference map")
    eulers = [euler_class(graph, v) for v in graph.vertices]
    total_num = ring.zero()
    for i in range(nv):
        f = klass.component(i)
        if f.is_zero():
            continue
        prod = f
        for j in range(nv):
            if j != i:
                prod = prod * eulers[j]
        total_num = total_num + prod
    denom = ring.one()
    for e in eulers:
        denom = denom * e
    if total_num.is_zero():
        return ring.zero()
    quot, ok = _exact_divide(total_num, denom)
    if not ok:
        raise DatumError("localized sum is not a polynomial; "
                         "class or Euler data invalid")
    return quot


def _remainder(f, divisor):
    """The normal form of the polynomial f modulo the principal ideal of
    divisor (reference_divide), with the quotient: (quotient, remainder)."""
    quots, rem = reference_divide(Vector.from_polys([f], 1), [Vector.from_polys([divisor], 1)])
    return quots[0], rem.component(0)


def reference_flow_up_kernel(graph):
    """The GKM kernel's generators by greedy flow-up, one per vertex in
    list order, with no Groebner basis.

    The generator of a vertex v is zero before v and Lambda_v at v, the
    product of the weights of v's edges to earlier vertices.  Each later u
    solves f(u) = f(w) mod alpha_uw over its earlier neighbours w by
    iterated CRT: with g solving the congruences so far modulo their
    product M, and l the next weight, g + M h solves l's as well for
    h = (f(w) - g) / M in R/(l), an exact division of normal forms modulo
    l (which stand in for substituting l = 0).  Then f(u) is the normal
    form of g modulo Lambda_u, the product of all those weights.  Every
    division goes through reference_divide.  When every step is exact the
    generators, scaled monic and in reversed order, are the library's
    reduced kernel basis: it is triangular with leads Lambda_v e_v, and a
    reduced basis is unique.  Raises ValueError at a step that is not
    exact.
    """
    ring, vertices = graph.ring, graph.vertices
    pos = {v: i for i, v in enumerate(vertices)}
    earlier = [[] for _ in vertices]  # (position, weight form) of each earlier neighbour
    for v, w, weight in graph.edges:
        lo, hi = sorted((pos[v], pos[w]))
        earlier[hi].append((lo, graph.weight_form(weight)))
    lambdas = []
    for nbrs in earlier:
        nbrs.sort(key=lambda n: n[0])
        lam = ring.one()
        for _, form in nbrs:
            lam = lam * form
        lambdas.append(lam)
    gens = []
    for i in range(len(vertices)):
        f = [ring.zero()] * len(vertices)
        f[i] = lambdas[i]
        for u in range(i + 1, len(vertices)):
            if all(f[w].is_zero() for w, _ in earlier[u]):
                continue
            g, m = ring.zero(), ring.one()
            for w, form in earlier[u]:
                diff = _remainder(f[w] - g, form)[1]
                if not diff.is_zero():
                    h, rest = _remainder(diff, _remainder(m, form)[1])
                    if not rest.is_zero():
                        raise ValueError("flow-up step at vertex %s is not exact" % vertices[u])
                    g = g + m * h
                m = m * form
            f[u] = _remainder(g, m)[1]
        gens.append(Vector.from_polys(f, len(vertices)))
    return gens


def verify_or_raise(group):
    """group.verify(), raising ValueError when the datum is rejected."""
    checks = group.verify()
    if failures(checks):
        raise ValueError("invariant datum rejected: %s" % failures(checks))
    return checks


def reference_molien_series(group, nmax, weights=None):
    """The Molien series average of c_w / det(1 - q^2 w) over the group,
    truncated through degree nmax: each 1 / det(1 - q^2 w) expanded as a
    power series, term by term in Fractions."""
    from equisyz.weyl import _char_det
    total = {}
    for w, c in zip(group.elements, weights or [1] * group.order):
        p = _char_det(w)
        inv = {0: Fraction(1)}
        for n in range(1, nmax + 1):
            acc = -sum(v * inv.get(n - k, 0) for k, v in p.items() if 0 < k <= n)
            if acc:
                inv[n] = acc
        for k, v in inv.items():
            total[k] = total.get(k, 0) + c * v
    return {k: v / group.order for k, v in total.items() if v}


def restrict_scalars(group, module):
    """Rewrite an R_T module presentation over the invariant ring of group.

    Generators are (module generator) x (coinvariant basis monomial);
    relations are the basis multiples of the original relations, expanded
    through the unique invariant-linear decomposition.  Hilbert series is
    preserved.
    """
    if module.ring != group.ring:
        raise ValueError("module does not live over the torus ring")
    if not group._kostant_identity():
        raise ValueError("datum rejected: coinvariant basis is not free")
    basis = group.coinvariant_basis()
    ring = group.ring
    new_gdeg = [d + ring.weighted_degree(b)
                for d in module.gens_degrees for b in basis]
    cols = [group.expand_vector(rel.poly_mul(ring.monomial(b)), module.num_gens)
            for rel in relation_columns(module) for b in basis]
    return FPModule.from_columns(group.invariant_ring, new_gdeg, cols)


def reference_act(group, matrix, poly):
    """The action of a group matrix by substitution: variable j goes to the
    linear form of column j, however the matrix looks."""
    ring = group.ring
    images = []
    for j in range(group.rank):
        form = ring.zero()
        for i in range(group.rank):
            form = form + ring.var(i).scale(matrix[i][j])
        images.append(form)
    return poly.substitute(ring, images)


def _mat_mul(a, b):
    """Product of two square matrices of rationals, as nested tuples."""
    n = len(a)
    return tuple(tuple(sum([x * b[k][j] for k, x in enumerate(row) if x and b[k][j]],
                           Fraction(0)) for j in range(n)) for row in a)


def reference_closure(gens):
    """(elements, table) of the group the Fraction matrices gens generate,
    by the breadth-first walk ReflectionGroup._closure makes, on Fraction
    matrix products (_mat_mul)."""
    n = len(gens[0]) if gens else 0
    elements = [tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))]
    index = {elements[0]: 0}
    table = [[] for _ in gens]
    for w in elements:
        for g, row in zip(gens, table):
            prod = _mat_mul(g, w)
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
            row.append(index[prod])
    return elements, table


def reynolds_tuple(module, vector):
    """The Reynolds average of a tuple over a WEquivariantFreeModule's
    group, as the library takes it: at the orbit representatives
    (_at_reps), spread over each orbit (_spread_reps)."""
    return module._spread_reps(module._at_reps(vector))


def reference_reynolds_tuple(module, vector):
    """reynolds_tuple in Fraction arithmetic: each element's action on each
    component, by substitution (reference_act), summed term by term in one
    dict and scaled by 1/|W|."""
    acc = {}
    polys = vector.to_polys()
    group = module.group
    for w, perm in zip(group.elements, module._action_of):
        for i, f in enumerate(polys):
            for e, c in reference_act(group, w, f).terms.items():
                acc[perm[i], e] = acc.get((perm[i], e), 0) + c
    return Vector(group.ring, module.rank, acc).scale(Fraction(1, group.order))


def reference_invariants(module, submodule_gens):
    """Generators and module of the invariants, from every candidate.

    The selection WEquivariantFreeModule.invariants made before it tested
    membership over R_T, kept as the reference it is tested against: every
    Reynolds image R(g.b) of a generator g times a coinvariant monomial b is
    expanded over the invariant ring, and minimal_generating_indices picks
    the generators among all of them.  Returns (generators, FPModule).
    """
    group = module.group
    ring = group.ring
    basis = group.coinvariant_basis()
    candidates = []
    for g in submodule_gens:
        for b in basis:
            v = reynolds_tuple(module, g.poly_mul(ring.monomial(b)))
            if not v.is_zero():
                candidates.append(v)
    coords = [group.expand_vector(v, module.rank) for v in candidates]
    amb_degrees = group.invariant_module_layout(module.rank)
    keep = minimal_generating_indices(coords, amb_degrees)
    coords = [coords[i] for i in keep]
    rels = syzygy_basis(group.invariant_ring, module.rank * len(basis), coords)
    return ([candidates[i] for i in keep],
            FPModule.from_columns(group.invariant_ring,
                                  _degrees_of(coords, amb_degrees), rels))


def random_vector(ring, col_degrees, degree, rng, first_col=0, rational=False):
    """Random homogeneous vector of the given degree, zero before first_col."""
    polys = [random_homogeneous(ring, degree - d, rng, rational=rational)
             if i >= first_col and degree >= d else ring.zero()
             for i, d in enumerate(col_degrees)]
    return Vector.from_polys(polys, len(col_degrees))


def random_module(ring, rng, max_gens=3, max_rels=3):
    ngens = rng.randint(1, max_gens)
    gdegs = sorted(rng.choice([0, 0, 2, 4]) for _ in range(ngens))
    nrels = rng.randint(0, max_rels)
    cols = []
    for _ in range(nrels):
        cdeg = max(gdegs) + rng.choice(ring.degrees) * rng.randint(1, 2)
        polys = [random_homogeneous(ring, cdeg - gd, rng) if cdeg >= gd
                 else ring.zero() for gd in gdegs]
        v = Vector.from_polys(polys, ngens)
        if not v.is_zero():
            cols.append(v)
    return FPModule.from_columns(ring, gdegs, cols)


def module_3028():
    """random_module at seed 3028 in Q[x0, x1, x2]: the coefficients of its
    Groebner bases grow large, so module-analyze on it is slow when the
    reduction's arithmetic is."""
    ring = GradedPolynomialRing(["x0", "x1", "x2"])
    return random_module(ring, random.Random(3028), max_gens=3, max_rels=4)


def module_3003():
    """random_module at seed 3003 in Q[x0, x1, x2]: without sugar-degree
    pair selection the coefficients of its first Groebner bases run away,
    and module-analyze on it did not finish in minutes."""
    ring = GradedPolynomialRing(["x0", "x1", "x2"])
    return random_module(ring, random.Random(3003), max_gens=3, max_rels=4)


def alternating_hilbert(pieces, nmax):
    """Coefficients through degree nmax of sum (-1)^i Hilb(M) over the
    (i, M) pairs, zeros dropped."""
    total = {}
    for i, m in pieces:
        for k, v in m.hilbert().coefficients(nmax).items():
            total[k] = total.get(k, 0) + (-1) ** i * v
    return {k: v for k, v in total.items() if v}


def reference_syzygy_order(module):
    """Syzygy order with the double dual computed inline.

    The form gradmod.syzygy_order had before it took its torsion and
    reflexivity verdicts from gradmod.biduality, kept as the reference it
    is tested against: M** is read off the minimal resolution of M*, and
    the embedding M -> G0* is built in each branch.
    """
    ring = module.ring
    r = ring.num_vars
    m0 = module.minimized()
    if m0.num_gens == 0:
        return SyzygyOrderResult(r, "zero")
    if m0.num_rels == 0:
        return SyzygyOrderResult(r, "free")
    mstar, K = _dual_data(m0)
    if mstar.num_gens == 0:
        return SyzygyOrderResult(0, "torsion")
    res = minimal_resolution(mstar)
    if res.modules[0].degrees != tuple(mstar.gens_degrees):
        raise AssertionError("dual presentation was expected to be minimal")
    sigmas = [m.dual() for m in res.maps]          # G_{k-1}* -> G_k*
    p = res.length
    if p == 0:
        mdd_amb = res.modules[0].dual()
        W = mdd_amb.unit_vectors()
        mdd = FPModule.free(ring, mdd_amb.degrees)
    else:
        mdd, W = fp_kernel(_map_between_free_fp(sigmas[0]))
    cols, _ = _bidual_columns(m0, K, W)
    bmap = FPMap(m0, mdd, cols, check=False)
    entries = bmap.rows()
    bker, _ = fp_kernel(bmap)
    if not bker.is_zero():
        return SyzygyOrderResult(0, "torsion")
    if not fp_cokernel(bmap).is_zero():
        g0_free = FPModule.free(ring, res.modules[0].dual().degrees)
        embed = reference_compose_embedding(m0, W, entries, g0_free)
        ok = fp_kernel(embed)[0].is_zero()
        return SyzygyOrderResult(1, "not-reflexive", [embed], [ok])
    # reflexive: count exact positions along 0 -> M -> G0* -> G1* -> ...
    g0_free = FPModule.free(ring, res.modules[0].dual().degrees)
    embed = reference_compose_embedding(m0, W, entries, g0_free)
    exact = [fp_kernel(embed)[0].is_zero()]
    if p > 0:
        h0 = fp_homology(embed, _map_between_free_fp(sigmas[0]))
        exact.append(h0.is_zero())
    count = 0
    for i in range(1, p + 1):
        if i < p:
            h = fp_homology(_map_between_free_fp(sigmas[i - 1]),
                            _map_between_free_fp(sigmas[i]))
        else:
            h = fp_cokernel(_map_between_free_fp(sigmas[p - 1]))
        if h.is_zero():
            count += 1
            exact.append(True)
        else:
            break
    order = min(2 + count, r)
    witness = [embed] + [_map_between_free_fp(s) for s in sigmas[:max(order - 1, 0)]]
    return SyzygyOrderResult(order, "dualized-resolution", witness, exact)


def zero_map(source, target):
    """The zero FPMap between two finitely presented modules."""
    zero = Vector(source.ring, target.num_gens, {})
    return FPMap(source, target, [zero] * source.num_gens, check=False)


def reference_matrix_columns(ring, entries, ncols):
    """The ncols columns of a polynomial matrix, as Vectors."""
    out = []
    for j in range(ncols):
        data = {}
        for i, row in enumerate(entries):
            for e, c in row[j].terms.items():
                data[(i, e)] = c
        out.append(Vector(ring, len(entries), data))
    return out


def reference_matrix_product(ring, a, b, ncols):
    """Product of the polynomial matrices a and b; b has ncols columns.

    The dense product ModuleMap.compose and FPMap.compose made before maps
    were stored as columns, kept as the reference they are tested against.
    """
    out = []
    for row in a:
        new = []
        for j in range(ncols):
            acc = ring.zero()
            for x, brow in zip(row, b):
                y = brow[j]
                if not x.is_zero() and not y.is_zero():
                    acc = acc + x * y
            new.append(acc)
        out.append(new)
    return out


def reference_terms_sum(a, b, scale=1):
    """a + scale * b on plain dicts of Fraction terms, zeros dropped."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def reference_from_terms(ring, terms):
    """ring.from_terms as a repeated sum of monomials, one + per term."""
    return sum((ring.monomial(e, c) for e, c in terms), ring.zero())


def reference_poly_mul(data, terms):
    """The Fraction terms {(col, exps): c} of a vector with terms data times
    the polynomial with terms {exps: c}, term by term."""
    out = {}
    for (col, e), c in data.items():
        for e2, c2 in terms.items():
            k = (col, tuple(x + y for x, y in zip(e, e2)))
            out[k] = out.get(k, 0) + c * c2
    return {k: c for k, c in out.items() if c}


def reference_apply(columns, v):
    """The Fraction terms of sum_j v_j * columns[j], term by term: the loop
    gradmod._apply ran on Fraction terms."""
    out = {}
    for (j, e), c in v.data.items():
        for (i, e2), c2 in columns[j].data.items():
            k = (i, tuple(x + y for x, y in zip(e, e2)))
            out[k] = out.get(k, 0) + c * c2
    return {k: c for k, c in out.items() if c}


def reference_transpose(columns, nrows):
    """The Fraction terms of the nrows columns of the transpose."""
    data = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for (i, e), c in col.data.items():
            data[i][j, e] = c
    return data


def reference_minimized(module):
    """Minimal presentation: prune units (Nakayama) and redundant relations.

    The dense form FPModule.minimized had on the row matrix, kept as the
    reference it is tested against: the pivot is the first unit entry in
    row-major order.
    """
    ring = module.ring
    rows = [list(r) for r in module.pmap.rows()]
    gdeg = list(module.gens_degrees)
    cdeg = list(module.pmap.source.degrees)
    constant = {ring.zero_exps}
    while True:
        # the first unit entry in row-major order, if any
        i, j = next(((i, j) for i, row in enumerate(rows)
                     for j, ent in enumerate(row) if ent.terms.keys() == constant),
                    (None, None))
        if i is None:
            break
        c = rows[i][j].constant_term()
        for jj in range(len(cdeg)):
            if jj == j or rows[i][jj].is_zero():
                continue
            factor = rows[i][jj].scale(1 / c)
            for k in range(len(gdeg)):
                rows[k][jj] = rows[k][jj] - factor * rows[k][j]
        for k in range(len(gdeg)):
            del rows[k][j]
        del cdeg[j]
        del rows[i]
        del gdeg[i]
    tgt = FreeModule(ring, gdeg)
    cols = [v for v in reference_matrix_columns(ring, rows, len(cdeg))
            if not v.is_zero()]
    keep = minimal_generating_indices(cols, tgt.degrees)
    if len(gdeg) == module.num_gens and len(keep) == module.num_rels:
        return module
    cols = [cols[i] for i in keep]
    src = FreeModule(ring, _degrees_of(cols, tgt.degrees))
    return FPModule(ModuleMap(src, tgt, cols))


def reference_biduality(module):
    """The BidualityResult of M -> M** as biduality built it for every
    module, free or not: the evaluation vectors lifted to the generators
    of M**, and the kernel and cokernel of that map presented in full."""
    mstar, K = _dual_data(module)
    mdd, W = _dual_data(mstar)
    cols, us = _bidual_columns(module, K, W)
    bmap = FPMap(module, mdd, cols, check=False)
    return BidualityResult(cols, us, fp_kernel(bmap)[0], fp_cokernel(bmap), mstar, mdd, W)


def biduality_fields(bd):
    """Every field of a BidualityResult, its modules as JSON."""
    return (bd.columns, bd.evaluations, bd.W, [m.to_json() for m in (
        bd.kernel, bd.cokernel, bd.m_star, bd.m_double)])


def triangle_graph():
    """The JSON of a GKM graph in rank 3 whose kernel is not free: three
    vertices joined by edges of independent weights."""
    return {"rank": 3, "vertices": ["a", "b", "c"],
            "edges": [{"v": "a", "w": "b", "weight": [1, 0, 0]},
                      {"v": "b", "w": "c", "weight": [0, 1, 0]},
                      {"v": "a", "w": "c", "weight": [0, 0, 1]}]}


def sum_zero_flag3():
    """The JSON of Fl(3) under the rank-2 torus of SL_3, with the symmetry of
    symmetric_group_on_sum_zero(3): its matrices are not signed
    permutations.  t_1, t_2, t_3 are x1, x2, -(x1 + x2); the vertices are
    the permutations w, joined to w.(i j) by the weight t_w(i) - t_w(j), and
    a transposition s sends w to s.w."""
    from equisyz.weyl import symmetric_group_on_sum_zero
    group = symmetric_group_on_sum_zero(3)
    coords = [(1, 0), (0, 1), (-1, -1)]
    perms = sorted(permutations(range(3)))
    name = {w: "".join(str(x + 1) for x in w) for w in perms}
    edges = []
    for w in perms:
        for i, j in combinations(range(3), 2):
            u = list(w)
            u[i], u[j] = u[j], u[i]
            if tuple(u) > w:
                a, b = coords[w[i]], coords[w[j]]
                edges.append({"v": name[w], "w": name[tuple(u)],
                              "weight": [a[0] - b[0], a[1] - b[1]]})
    maps = []
    for a in range(2):
        s = list(range(3))
        s[a], s[a + 1] = s[a + 1], s[a]
        maps.append({name[w]: name[tuple(s[x] for x in w)] for w in perms})
    return {"rank": 2, "vars": list(group.ring.names),
            "vertices": [name[w] for w in perms], "edges": edges,
            "symmetry": {"group": {
                "rank": 2, "vars": list(group.ring.names),
                "generators": [[[str(x) for x in row] for row in g] for g in group.generators],
                "invariants": [str(p) for p in group.invariants]},
                "vertex_maps": maps}}


def reference_compose_embedding(m0, W, bid_entries, g0_free):
    """M -> G0*: biduality followed by the inclusion of ker(sigma_1).

    The composite syzygy_order built before it read the embedding's columns
    off the evaluation vectors, kept as the reference they are tested
    against.
    """
    polys = [w.to_polys() for w in W]
    incl = [[p[i] for p in polys] for i in range(g0_free.num_gens)]
    ent = reference_matrix_product(m0.ring, incl, bid_entries, m0.num_gens)
    return FPMap.from_matrix(m0, g0_free, ent, check=False)


def random_module_with_units(ring, rng, max_gens=4, max_rels=4):
    """Random module whose relations may have constant entries: a relation
    can sit in the degree of a generator, so minimized has units to prune."""
    ngens = rng.randint(1, max_gens)
    gdegs = sorted(rng.choice([0, 0, 2, 4]) for _ in range(ngens))
    cols = []
    for _ in range(rng.randint(0, max_rels)):
        cdeg = rng.choice(gdegs + [max(gdegs) + 2])
        polys = [random_homogeneous(ring, cdeg - gd, rng) if cdeg >= gd
                 else ring.zero() for gd in gdegs]
        v = Vector.from_polys(polys, ngens)
        if not v.is_zero():
            cols.append(v)
    return FPModule.from_columns(ring, gdegs, cols)


def reference_parser():
    """The argparse parser of every command, as the CLI once built it: the
    oracle for what cli._parse accepts and how it reads argv.  cli._parse
    reads a canonical argv (COMMAND INPUT, then exact long options with
    their values) itself and every other argv with argparse, built from
    its option table; so the oracle checks _read on the first and the
    table on the second."""
    parser = argparse.ArgumentParser(
        prog="equisyz",
        description="Syzygy and equivariant-cohomology analyses over Q.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="path to the JSON input")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--check", default=None,
                       help="comma-separated list of checks to run")
        p.add_argument("--max-degree", type=int, default=20,
                       help="series coefficients printed through twice this degree "
                            "(0..%d)" % MAX_DEGREE_LIMIT)
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized spot checks")
        if name == "integrate":
            p.add_argument("--klass", "--class", dest="klass", default=None,
                           help="JSON list of polynomials, one per vertex")
    return parser
