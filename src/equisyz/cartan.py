"""Cartan models for finite-dimensional complexes with torus contractions.

A GStarModule is a finite graded complex with a degree +1 differential and
one degree -1 contraction per torus coordinate, all Lie derivatives zero
(the invariant model).  Tensoring with the torus ring and twisting the
differential by the contractions gives a complex of graded free modules
whose cohomology is the equivariant cohomology; running the same
construction on the dual complex gives equivariant homology.  The
nonequivariant cohomology H(A, d) is the Cartan cohomology of (A, d) with
no contractions over the ring Q0 with no variables, i.e. over Q.  Each
G*-relation is one coefficient of D^2, read once when a GStarModule is
built.  The universal-coefficient collapse check returns a CheckReport
that is "not applicable" when H_G(A) is not Cohen-Macaulay.
"""

from fractions import Fraction

from .polyring import GradedPolynomialRing, Vector, _fr, _integers
from .gradmod import (
    CheckReport, FreeModule, ModuleMap, fp_homology, cohen_macaulay, ext_module,
    iso_surrogate_equal, _map_between_free_fp,
)

__all__ = [
    "GStarModule", "CartanComplex", "cartan_cohomology",
    "dualize_gstar", "equivariant_homology", "uct_collapse_check",
]

# the ring with no variables: Q, over which a Cartan model has no contractions
Q0 = GradedPolynomialRing([], ())


def _matrix(rows, n):
    out = [[_fr(x) for x in row] for row in rows]
    if len(out) != n or any(len(r) != n for r in out):
        raise ValueError("operator matrices must be square of the basis size")
    return tuple(tuple(r) for r in out)


class GStarModule:
    """Finite complex with differential and anticommuting contractions.

    Relations enforced on construction, each one coefficient of D^2 for
    D = d - sum x_k iota_k over Q[x_1..x_r]: d^2 = 0 (at 1), iota_k iota_l +
    iota_l iota_k = 0 (at x_k x_l, so each iota squares to zero) and
    d iota_k + iota_k d = 0 (at x_k).  Lie derivatives are identically zero
    in this model.
    """

    def __init__(self, degrees, d, iotas):
        self.degrees = tuple(int(x) for x in degrees)
        n = len(self.degrees)
        self.d = _matrix(d, n)
        self.iotas = [_matrix(m, n) for m in iotas]
        self._validate()

    @property
    def dim(self):
        return len(self.degrees)

    @property
    def num_contractions(self):
        return len(self.iotas)

    def _validate(self):
        n = self.dim
        degs = self.degrees
        for name, mat, shift in ([("d", self.d, 1)]
                                 + [("iota_%d" % (k + 1), m, -1)
                                    for k, m in enumerate(self.iotas)]):
            for i in range(n):
                for j in range(n):
                    if mat[i][j] and degs[i] != degs[j] + shift:
                        raise ValueError("%s has an entry of the wrong degree" % name)
        r = self.num_contractions
        twisted, raised = _twisted_differential(
            GradedPolynomialRing(["x%d" % (k + 1) for k in range(r)], (2,) * r), self)
        square = {e for col in twisted.compose(raised).columns for _, e in col.data}

        def nonzero_at(*ks):    # D^2's coefficient at the product of the x_k
            return tuple(ks.count(m) for m in range(r)) in square

        if nonzero_at():
            raise ValueError("differential does not square to zero")
        for k in range(r):
            for l in range(k, r):
                if nonzero_at(k, l):
                    raise ValueError("contractions %d, %d do not anticommute"
                                     % (k + 1, l + 1))
            if nonzero_at(k):
                raise ValueError("contraction %d does not anticommute with d" % (k + 1))

    def poincare_polynomial(self):
        """Dimensions of the cohomology of (A, d) by degree."""
        return _cohomology_dims(self.degrees, self.d)

    def to_json(self):
        return {
            "degrees": list(self.degrees),
            "d": _cols_json(self.d),
            "iota": [_cols_json(m) for m in self.iotas],
        }

    @classmethod
    def from_json(cls, obj):
        degrees = _integers(obj["degrees"], "degrees")
        n = len(degrees)
        return cls(degrees, _cols_parse(obj["d"], n),
                   [_cols_parse(m, n) for m in obj["iota"]])

    def __repr__(self):
        return "GStarModule(degrees=%s, r=%d)" % (list(self.degrees),
                                                  self.num_contractions)


def _cols_json(mat):
    # column-major serialization
    n = len(mat)
    return [[str(mat[i][j]) for i in range(n)] for j in range(n)]


def _cols_parse(cols, n):
    # column-major, transposed once its shape is checked
    return list(zip(*_matrix(cols, n)))


def _cohomology_dims(degrees, d):
    """{n: dim H^n} of a complex of Q-vector spaces with degree +1 matrix d:
    the Cartan cohomology of (A, d) with no contractions, over Q0 = Q, where
    Buchberger is Gaussian elimination."""
    h = cartan_cohomology(CartanComplex(Q0, GStarModule(degrees, d, []))).hilbert()
    return dict(sorted(h.numerator.items()))


def _twisted_differential(ring, gstar):
    """D = 1(x)d - sum x_k (x) iota_k over ring, a ModuleMap, and D with its
    degrees raised by one, which ends where D starts."""
    n = gstar.dim
    # D's columns: d's entries at 1, -iota_k's at x_k
    ops = [(ring.zero_exps, 1, gstar.d)] + [
        (tuple(int(l == k) for l in range(ring.num_vars)), -1, m)
        for k, m in enumerate(gstar.iotas)]
    source = FreeModule(ring, gstar.degrees)
    target = FreeModule(ring, tuple(d - 1 for d in gstar.degrees))
    differential = ModuleMap(source, target, [
        Vector(ring, n, {(i, e): s * m[i][j] for e, s, m in ops for i in range(n)})
        for j in range(n)])
    return differential, ModuleMap(FreeModule(ring, [x + 1 for x in gstar.degrees]),
                                   source, differential.columns)


class CartanComplex:
    """R_T tensor A with twisted differential D = 1(x)d - sum x_k (x) iota_k."""

    def __init__(self, ring, gstar):
        if ring.num_vars != gstar.num_contractions:
            raise ValueError("ring rank must match the number of contractions")
        self.ring = ring
        self.gstar = gstar
        self.differential, self._raised = _twisted_differential(ring, gstar)

    def specialized_at_zero(self):
        """The matrix of D with all ring variables set to zero (i.e. d)."""
        n, one = self.gstar.dim, self.ring.zero_exps
        cols = self.differential.columns
        return [[cols[j].data.get((i, one), Fraction(0)) for j in range(n)]
                for i in range(n)]


def cartan_cohomology(complex_):
    """ker D / im D, presented as a finitely presented graded module."""
    return fp_homology(_map_between_free_fp(complex_._raised),
                       _map_between_free_fp(complex_.differential))


def dualize_gstar(gstar):
    """Dual complex with negated degrees and the contraction sign rule.

    The pairing signs follow <X phi, a> = -(-1)^{|phi|} <phi, X a> for both
    the differential and the contractions; basis vectors of negative degree
    carry a parity normalization making double dualization restore the
    original matrices exactly.
    """
    degs = gstar.degrees

    def tau(d):
        return 1 if d >= 0 or d % 2 == 0 else -1

    def dual_mat(mat):
        n = len(degs)
        out = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):      # dual basis vector of e_j
            sign = -(-1) ** (degs[j] % 2)
            for k in range(n):
                if mat[j][k]:
                    out[k][j] = Fraction(sign * tau(degs[j]) * tau(degs[k])) * mat[j][k]
        return out

    return GStarModule(tuple(-d for d in degs), dual_mat(gstar.d),
                       [dual_mat(m) for m in gstar.iotas])


def equivariant_homology(gstar, ring):
    """Cohomology of the Cartan complex of the dual model (negative grading)."""
    return cartan_cohomology(CartanComplex(ring, dualize_gstar(gstar)))


def uct_collapse_check(coh, hom):
    """When H_G(A) is Cohen-Macaulay the universal-coefficient spectral
    sequence collapses: equivariant homology of A must match
    Ext^{r-d}(H_G(A), R) with generator degrees raised by r-d (for free
    modules this is the plain dual).  coh and hom are the equivariant
    cohomology and homology of one model (cartan_cohomology,
    equivariant_homology).  Betti tables plus Hilbert series are
    compared; if H_G(A) is not Cohen-Macaulay the check reports
    "not applicable" and makes no claim.  details["shift"] is r-d, 0 for
    zero cohomology and None when not applicable.
    """
    name = "universal-coefficient collapse"
    if coh.is_zero():
        return CheckReport.of(name, hom.is_zero(), {"shift": 0}, "uct-collapse")
    cm = cohen_macaulay(coh)
    if not cm.is_cm:
        return CheckReport.not_applicable(name, "cohomology is not Cohen-Macaulay",
                                          {"shift": None}, "uct-collapse")
    shift = coh.ring.num_vars - cm.dim
    expected = ext_module(coh, shift).shifted(shift)
    return CheckReport.of(name, iso_surrogate_equal(hom, expected),
                          {"shift": shift}, "uct-collapse")
