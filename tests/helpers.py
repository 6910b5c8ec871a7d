"""Shared test utilities: random homogeneous polynomials and modules."""

from fractions import Fraction

from equisyz.polyring import Polynomial, Vector
from equisyz.gradmod import FPModule


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


def random_homogeneous(ring, degree, rng, density=0.7, bound=3):
    out = {}
    for m in monomials_of_degree(ring, degree):
        if rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                out[m] = Fraction(c)
    return Polynomial(ring, out)


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


def random_vector(ring, col_degrees, degree, rng, first_col=0):
    """Random homogeneous vector of the given degree, zero before first_col."""
    polys = [random_homogeneous(ring, degree - d, rng)
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
