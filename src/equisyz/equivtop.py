"""GKM graphs, Chang-Skjelbred and Atiyah-Bredon complexes, and the
equivalence theorems relating their exactness to syzygy orders.

A GKM graph encodes fixed points and one-dimensional orbit strata by
vertices and weighted edges; the edge-difference map gives the first two
terms of the Atiyah-Bredon complex, and its kernel plays the role of
equivariant cohomology.  Longer filtrations are supplied as explicit data
(modules plus connecting maps).  The checks implemented here, each giving
CheckReports, "not applicable" with a reason when its data is missing,
and comparing any Hilbert series exactly, as numerators (see gradmod):

* Cohen-Macaulay filtration (piece i is zero or CM of dimension r-i);
* Ext-duality (complex cohomology against Ext of the homology module);
* partial exactness versus syzygy order of the augmentation;
* the syzygy gap bound for Poincare-duality data;
* descent of invariants to the non-abelian ring and syzygy invariance;
* fixed-point integration and the perfection of the Poincare pairing.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .polyring import (
    GradedPolynomialRing, Polynomial, Vector, DatumError, determinant,
    qpoly_add, _block_index, _certificate, _column, _columns, _dot, _exact_divide,
    _integers, _torus_ring,
)
from .gradmod import (
    CheckReport, FPModule, FPMap, fp_kernel, homology,
    cohen_macaulay, ext_module, syzygy_order, biduality, base_change,
    iso_surrogate_equal, _betti_json, _matrix_json, _matrix_from_json,
)
from .weyl import WEquivariantFreeModule, group_from_json

__all__ = [
    "GKMGraph", "FiltrationDatum", "DatumError", "chang_skjelbred",
    "gkm_cohomology", "ab_cohomology", "cm_filtration_check",
    "verify_ext_duality", "partial_exactness_vs_syzygy", "descend_invariants",
    "integrate", "pairing_perfection", "syzygy_gap_check",
    "truncation_additivity_check",
]


class GKMGraph:
    """Moment graph: vertices, edges with primitive integer weights,
    optional per-vertex Euler data and a reflection-group symmetry."""

    def __init__(self, ring, vertices, edges, euler=None, symmetry=None):
        self.ring = ring
        self.rank = ring.num_vars
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise DatumError("vertex names must be distinct")
        self.edges = []
        self._position = index = {v: i for i, v in enumerate(self.vertices)}
        for (v, w, weight) in edges:
            if v not in index or w not in index or v == w:
                raise DatumError("edge endpoints must be distinct known vertices")
            weight = _integers(weight, "weight entries")
            if len(weight) != self.rank or not any(weight):
                raise DatumError("edge weight must be a nonzero vector of length %d"
                                 % self.rank)
            if gcd(*weight) != 1:
                raise DatumError("edge weight must be primitive")
            self.edges.append((str(v), str(w), weight))
        self.euler = None
        if euler is not None:
            if not isinstance(euler, dict):
                raise DatumError("Euler data must map vertices to weight lists")
            self.euler = {}
            for v, vecs in euler.items():
                if str(v) not in index:
                    raise DatumError("Euler data names unknown vertex %s" % v)
                if not isinstance(vecs, (list, tuple)):
                    raise DatumError("Euler data must map vertices to weight lists")
                vecs = [_integers(vec, "weight entries") for vec in vecs]
                if any(len(vec) != self.rank or not any(vec) for vec in vecs):
                    raise DatumError("Euler weights must be nonzero vectors of "
                                     "length %d" % self.rank)
                self.euler[str(v)] = vecs
        self._localization = None
        self._kernel = None
        # symmetry: (ReflectionGroup, [vertex permutation per group generator])
        self.symmetry = symmetry
        self.permutation_module = None if symmetry is None else self._check_symmetry()

    def weight_form(self, weight):
        """The linear form sum(a_i * t_i) of an integer weight (a_1, ..., a_r),
        built in its integer form."""
        ring, zero = self.ring, self.ring.zero_exps
        return Polynomial._of_ints(ring, 1, Fraction(1), {
            ring._pack(0, zero[:i] + (1,) + zero[i + 1:]): a for i, a in enumerate(weight) if a})

    def _check_symmetry(self):
        """The vertices' permutation module, whose construction checks the
        vertex maps (one bijection per group generator, extending to a
        homomorphism); then each group generator must fix every invariant
        (the test of ReflectionGroup.verify) and send each edge weight to
        +- the weight of the image edge, mapped by its signed permutation or
        integer form (ReflectionGroup._weight_image)."""
        group, perms = self.symmetry
        if group.ring != self.ring:
            raise DatumError("symmetry group must act on the graph's ring")
        module = WEquivariantFreeModule(group, self.vertices, perms)

        def unoriented(v, w, a):  # an edge up to orientation and the sign of its weight
            return frozenset((v, w)), max(a, tuple(-x for x in a))
        edge_set = {unoriented(v, w, a) for (v, w, a) in self.edges}
        for gi, (row, perm) in enumerate(zip(group.table, perms)):
            k = row[0]  # the generator itself, its product with the identity
            for i, p in enumerate(group.invariants):
                if group._act(k, p) != p:
                    raise DatumError("symmetry generator %d does not fix invariant %d"
                                     % (gi + 1, i + 1))
            for (v, w, a) in self.edges:
                img = group._weight_image(k, a)
                if img is None or unoriented(perm[v], perm[w], img) not in edge_set:
                    raise DatumError("vertex permutation does not respect the weights")
        return module

    def _weights_at(self, v):
        """Weights whose product is the Euler class at v: the supplied Euler
        data, else the incident edge weights pointing away from v."""
        if self.euler is not None and v in self.euler:
            return self.euler[v]
        vecs = []
        for (a, b, w) in self.edges:
            if a == v:
                vecs.append(w)
            elif b == v:
                vecs.append(tuple(-x for x in w))
        if not vecs:
            raise DatumError("vertex %s has no incident edges and no Euler data" % v)
        return vecs

    def localization(self):
        """(B, d, [W_v for each vertex]) with L / e_v = W_v / d: L the lcm
        of the Euler classes, B the _index of the block vector of its
        column (L), the divisor _localize reduces by, d a positive integer
        and W_v integer terms on packed column-0 keys.

        Each e_v is a scalar times a product of normalized weight forms
        (primitive, first nonzero entry positive); L multiplies every form
        to its largest multiplicity at any vertex.  Computed once per graph.
        """
        if self._localization is None:
            scalars, counts = [], []
            for v in self.vertices:
                scalar, count = Fraction(1), Counter()
                for w in self._weights_at(v):
                    c = gcd(*w)
                    if next(x for x in w if x) < 0:
                        c = -c
                    scalar *= c
                    count[tuple(x // c for x in w)] += 1
                scalars.append(scalar)
                counts.append(count)
            top = Counter()
            for count in counts:
                top |= count

            def product(count):
                p = self.ring.one()
                for w in sorted(count):
                    p = p * self.weight_form(w) ** count[w]
                return p

            # L / e_v = (c_v / scalar_v) * P_v for the integer form c_v * P_v
            forms = [product(top - count)._form for count in counts]
            ratios = [c / scalar for (c, _), scalar in zip(forms, scalars)]
            d = lcm(*[r.denominator for r in ratios])
            self._localization = (_block_index(self.ring, 1, [_column(product(top))]), d, [
                {k: n * int(r * d) for k, n in ints.items()}
                for r, (_, (_, ints)) in zip(ratios, forms)])
        return self._localization

    def to_json(self):
        out = {
            "rank": self.rank,
            "vars": list(self.ring.names),
            "vertices": list(self.vertices),
            "edges": [{"v": v, "w": w, "weight": list(a)} for (v, w, a) in self.edges],
        }
        if self.euler is not None:
            out["euler"] = {v: [list(x) for x in vecs] for v, vecs in self.euler.items()}
        if self.symmetry is not None:
            group, perms = self.symmetry
            out["symmetry"] = {
                "group": {
                    "rank": group.rank,
                    "vars": list(group.ring.names),
                    "generators": [[[str(x) for x in row] for row in g]
                                   for g in group.generators],
                    "invariants": [str(p) for p in group.invariants],
                },
                "vertex_maps": [dict(p) for p in perms],
            }
        return out

    @classmethod
    def from_json(cls, obj):
        rank, edges = obj["rank"], [(e["v"], e["w"], e["weight"]) for e in obj["edges"]]
        ring = _torus_ring(rank, obj.get("vars"), next(
            (len(w) for _, _, w in edges if isinstance(w, list)), None), "edge weight length")
        symmetry = None
        if obj.get("symmetry"):
            sym = obj["symmetry"]
            gobj = dict(sym["group"])
            gobj.setdefault("vars", list(ring.names))
            group = group_from_json(gobj)
            symmetry = (group, [dict(p) for p in sym["vertex_maps"]])
        return cls(ring, obj["vertices"], edges, euler=obj.get("euler"),
                   symmetry=symmetry)


def chang_skjelbred(graph):
    """First two Atiyah-Bredon terms of a GKM graph.

    AB^0 is free on the vertices; AB^1 is the sum over edges of R/(weight)
    with the relative degree shift already absorbed (edge generators sit in
    internal degree 0); the connecting map sends f to f_v - f_w mod the
    edge weight, the first listed vertex carrying the plus sign.  The edge
    generators are sorted, stably, by the positions of their later and then
    their earlier endpoint in the vertex list, so the cost of the kernel
    does not depend on the order or orientation of the listed edges.
    """
    ring, pos = graph.ring, graph._position
    nv = len(graph.vertices)
    ab0 = FPModule.free(ring, (0,) * nv)
    ne, one = len(graph.edges), ring.zero_exps
    rel_cols = []
    delta = [{} for _ in range(nv)]     # column of vertex a: +-e_k for its edges k
    edges = sorted(graph.edges, key=lambda e: sorted((pos[e[0]], pos[e[1]]), reverse=True))
    for k, (v, w, weight) in enumerate(edges):
        # alpha e_k: alpha's keys placed in column k
        rel_cols.append(Vector.unit(ring, ne, k).poly_mul(graph.weight_form(weight)))
        delta[pos[v]][k, one] = Fraction(1)
        delta[pos[w]][k, one] = Fraction(-1)
    ab1 = FPModule.from_columns(ring, (0,) * ne, rel_cols)
    delta0 = FPMap(ab0, ab1, [Vector(ring, ne, d) for d in delta])
    return ab0, ab1, delta0


class KernelResult:
    """Kernel of the edge-difference map with its inclusion vectors."""

    def __init__(self, module, generators):
        self.module = module
        self.generators = generators


def gkm_cohomology(graph):
    """Kernel of the Chang-Skjelbred map: tuples agreeing mod edge weights.

    Computed once per graph.
    """
    if graph._kernel is None:
        graph._kernel = KernelResult(*fp_kernel(chang_skjelbred(graph)[2]))
    return graph._kernel


class FiltrationDatum:
    """Explicit Atiyah-Bredon complex AB^0 -> ... -> AB^r with options.

    Optional pieces: an augmentation (a module with a map into AB^0), the
    homology-side module the Ext-duality theorem refers to, short-exact
    truncation data, and a Poincare-duality flag.  Structural contracts
    (consecutive composites vanish) are enforced on construction.
    """

    # the standing hypotheses of the equivalence theorems, echoed in reports
    assumptions = [
        "finitely many infinitesimal orbit types",
        "finite-dimensional total cohomology",
    ]

    def __init__(self, ring, modules, maps, augmentation=None,
                 homology_module=None, poincare_duality=False,
                 truncations=None):
        self.ring = ring
        self.rank = ring.num_vars
        if len(modules) != self.rank + 1:
            raise DatumError("need modules AB^0..AB^r (r = %d)" % self.rank)
        self.modules = list(modules)
        if len(maps) != self.rank:
            raise DatumError("need maps delta_0..delta_{r-1}")
        self.maps = list(maps)
        for i, m in enumerate(self.maps):
            if m.source is not self.modules[i] or m.target is not self.modules[i + 1]:
                if (m.source.gens_degrees != self.modules[i].gens_degrees
                        or m.target.gens_degrees != self.modules[i + 1].gens_degrees):
                    raise DatumError("map %d does not connect AB^%d to AB^%d"
                                     % (i, i, i + 1))
        for i in range(self.rank - 1):
            if not self.maps[i + 1].compose(self.maps[i]).is_zero_map():
                raise DatumError("delta_%d after delta_%d is nonzero" % (i + 1, i))
        self.augmentation = augmentation
        if augmentation is not None:
            if self.maps and not self.maps[0].compose(augmentation).is_zero_map():
                raise DatumError("delta_0 after the augmentation is nonzero")
        self.homology_module = homology_module
        self.poincare_duality = bool(poincare_duality)
        self.truncations = truncations or []
        self._cohomology = None

    def to_json(self):
        def mod_json(m):
            j = m.to_json()
            del j["ring"]
            return j

        out = {
            "ring": self.ring.descriptor(),
            "modules": [mod_json(m) for m in self.modules],
            "maps": [_matrix_json(f) for f in self.maps],
            "poincare_duality": self.poincare_duality,
        }
        if self.augmentation is not None:
            out["augmentation"] = {
                "module": mod_json(self.augmentation.source),
                "map": _matrix_json(self.augmentation),
            }
        if self.homology_module is not None:
            out["homology_module"] = mod_json(self.homology_module)
        if self.truncations:
            out["truncations"] = [
                {"index": i, "sub": mod_json(a), "quotient": mod_json(b)}
                for (i, a, b) in self.truncations]
        return out

    @classmethod
    def from_json(cls, obj):
        ring = GradedPolynomialRing.from_descriptor(obj["ring"])

        def mod(j):
            return FPModule.from_json(j, ring=ring)

        modules = [mod(j) for j in obj["modules"]]
        mats = obj.get("maps")
        if not isinstance(mats, list):
            raise DatumError("maps must be a list of matrices, got %r" % (mats,))
        if len(mats) >= len(modules):
            raise DatumError("need maps delta_0..delta_{r-1}")
        maps = [FPMap.from_matrix(modules[i], modules[i + 1],
                                  _matrix_from_json(ring, mat, "maps[%d]" % i))
                for i, mat in enumerate(mats)]
        aug = None
        if obj.get("augmentation"):
            h = mod(obj["augmentation"]["module"])
            aug = FPMap.from_matrix(h, modules[0], _matrix_from_json(
                ring, obj["augmentation"].get("map"), "augmentation map"))
        hom = mod(obj["homology_module"]) if obj.get("homology_module") else None
        trunc = [(_integers([t["index"]], "index")[0], mod(t["sub"]), mod(t["quotient"]))
                 for t in obj.get("truncations", [])]
        return cls(ring, modules, maps, augmentation=aug, homology_module=hom,
                   poincare_duality=bool(obj.get("poincare_duality")),
                   truncations=trunc)


def ab_cohomology(datum):
    """Cohomology of the complex at every position, H^{-1} = ker(iota*)
    included when the datum is augmented.  Computed once per datum."""
    if datum._cohomology is None:
        aug = datum.augmentation
        maps = [aug] + datum.maps + [None]
        out = {} if aug is None else {-1: fp_kernel(aug)[0]}
        out.update((i, homology(m, maps[i], maps[i + 1])[0])
                   for i, m in enumerate(datum.modules))
        datum._cohomology = out
    return datum._cohomology


def plain_ab_cohomology(datum):
    """Cohomology of the non-augmented complex (H^0 is the full kernel):
    ab_cohomology's, with H^0 computed again when an augmentation maps in."""
    hs = dict(ab_cohomology(datum))
    if datum.augmentation is not None:
        del hs[-1]
        hs[0] = homology(datum.modules[0], None, (datum.maps + [None])[0])[0]
    return hs


def cm_filtration_check(datum):
    """Each piece must be zero or Cohen-Macaulay of dimension r - i."""
    rows = []
    ok = True
    for i, m in enumerate(datum.modules):
        cm = cohen_macaulay(m)
        if cm.status == "zero":
            rows.append({"position": i, "status": "zero", "ok": True})
            continue
        good = cm.is_cm and cm.dim == datum.rank - i
        ok = ok and good and cm.tests_agree
        rows.append({"position": i, "status": cm.status, "dim": cm.dim,
                     "depth": cm.depth, "expected_dim": datum.rank - i,
                     "ok": good})
    return CheckReport.of("cohen-macaulay-filtration", ok, {"pieces": rows})


def verify_ext_duality(datum):
    """Compare H^j of the complex with Ext^j(homology module, R) for all j."""
    if datum.homology_module is None:
        return CheckReport.not_applicable("ext-duality", "no homology-side module")
    hs = plain_ab_cohomology(datum)
    rows = []
    ok = True
    for j in range(datum.rank + 1):
        ext = ext_module(datum.homology_module, j)
        good = iso_surrogate_equal(hs[j], ext)
        ok = ok and good
        rows.append({"position": j,
                     "complex_betti": _betti_json(hs[j]),
                     "ext_betti": _betti_json(ext),
                     "ok": good})
    return CheckReport.of("ext-duality", ok, {"positions": rows})


def partial_exactness_vs_syzygy(datum):
    """Largest exact initial part of the augmented complex against the
    syzygy order of the augmentation module; the two must agree."""
    name = "partial-exactness-vs-syzygy-order"
    if datum.augmentation is None:
        return CheckReport.not_applicable(name, "no augmentation")
    hs = ab_cohomology(datum)
    r = datum.rank
    j_exact = 0
    for j in range(1, r + 1):
        if all(hs[i].is_zero() for i in range(-1, j - 1)):
            j_exact = j
        else:
            break
    syz = syzygy_order(datum.augmentation.source)
    return CheckReport.of(name, j_exact == syz.order, {
        "j_exact": j_exact,
        "j_syzygy": syz.order,
        "syzygy_kind": syz.kind,
        "witness_verified": syz.witness_verified,
        "homology_vanishing": {str(i): hs[i].is_zero() for i in sorted(hs)},
        "assumptions": datum.assumptions,
    })


def syzygy_gap_check(datum):
    """For Poincare-duality data, order >= r/2 forces freeness (order r)."""
    if datum.augmentation is None:
        return CheckReport.not_applicable("syzygy-gap-bound", "no augmentation")
    if not datum.poincare_duality:
        return CheckReport.not_applicable("syzygy-gap-bound", "no Poincare duality")
    r = datum.rank
    syz = syzygy_order(datum.augmentation.source)
    threshold = (r + 1) // 2
    return CheckReport.of("syzygy-gap-bound", syz.order < threshold or syz.order == r,
                          {"order": syz.order, "threshold": threshold, "rank": r})


def truncation_additivity_check(datum):
    """Short-exact truncations: Hilb(sub) + Hilb(quotient) = Hilb(total)."""
    if datum.homology_module is None or not datum.truncations:
        return CheckReport.not_applicable(
            "homology-truncation-additivity",
            "no homology-side module" if datum.homology_module is None else "no truncations")
    total = datum.homology_module.hilbert().numerator
    rows = [{"index": i,
             "ok": qpoly_add(sub.hilbert().numerator, quot.hilbert().numerator) == total}
            for (i, sub, quot) in datum.truncations]
    return CheckReport.of("homology-truncation-additivity", all(r["ok"] for r in rows),
                          {"truncations": rows})


class DescentResult:
    def __init__(self, module, checks):
        self.module = module  # invariants over the invariant ring, or None
        self.checks = checks

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def descend_invariants(graph):
    """Invariant part of the GKM kernel over the invariant subring.

    Returns the module of Weyl-invariant tuples together with two verdicts,
    which read only the module (no tuple is spread): the syzygy orders over
    both rings agree, and extending scalars back recovers the kernel's
    Hilbert series.  A graph without symmetry data has no module, and both
    verdicts are "not applicable".

    The selection of invariant generators on the graph's permutation
    module stops each degree once the invariants span the kernel there
    (WEquivariantFreeModule.invariants), which is sound because the kernel
    is W-stable.  Construction checks this, with no test at run time:
    _check_symmetry sends each edge weight alpha_e by every group
    generator to +-alpha_{w.e}, with the action of ReflectionGroup on R_T
    (variable j to column j), and the permutation module checks that the
    vertex maps form a homomorphism, so the same holds for every element
    w.  For f in the kernel and an edge e = (u, v),
    alpha_e divides f_v - f_u, so w.alpha_e = +-alpha_{w.e} divides
    w.f_v - w.f_u = (w.f)_{w.v} - (w.f)_{w.u}: w.f lies in the kernel.  A
    candidate wrongly skipped would also fail the base-change Hilbert
    check below.  _check_symmetry also requires every generator to fix
    every invariant, so that the coinvariant basis is a basis of R_T over
    R^W, on which the selection's coordinates rest.
    """
    invariance, base_change_hilbert = "descent-syzygy-invariance", "descent-base-change-hilbert"
    if graph.symmetry is None:
        return DescentResult(None, [CheckReport.not_applicable(name, "no symmetry data")
                                    for name in (invariance, base_change_hilbert)])
    kernel = gkm_cohomology(graph)
    hg = graph.permutation_module.invariants(kernel.generators, kernel.module.hilbert()).module
    ord_g = syzygy_order(hg)
    ord_t = syzygy_order(kernel.module)
    checks = [CheckReport.of(
        invariance, ord_g.order == ord_t.order,
        {"order_invariant_ring": ord_g.order, "order_torus_ring": ord_t.order})]
    back = base_change(hg, graph.symmetry[0].embedding())
    checks.append(CheckReport.of(base_change_hilbert, back.hilbert() == kernel.module.hilbert()))
    return DescentResult(hg, checks)


def _satisfies_congruences(graph, polys):
    """Whether alpha_e divides f_v - f_w on every edge e = (v, w): the
    kernel of the edge-difference map, H_T(X) by Goresky-Kottwitz-MacPherson."""
    at = dict(zip(graph.vertices, polys))
    return all(_exact_divide(at[v] - at[w], graph.weight_form(weight))[1]
               for v, w, weight in graph.edges)


def _localize(graph, content, pairs):
    """Sum over the vertices of f_v / e_v, for f_v * W_v = content * a * b
    given as one pair (a, b) of packed integer terms per vertex (W_v =
    d * L / e_v, localization).  The products are summed into one integer
    accumulator (_dot), scaled once by content / d and divided once by the
    lcm L of the Euler classes, reducing by L's block vector
    (_certificate); raises unless the sum is a polynomial."""
    index, d, _ = graph.localization()
    total = Vector._of_ints(graph.ring, 1, content / d, _dot(graph.ring, pairs))
    if total.is_zero():
        return graph.ring.zero()
    quot, rem = _certificate(total, index, 1, 1)
    if not rem.is_zero():
        raise DatumError("localized sum is not a polynomial; "
                         "class or Euler data invalid")
    return quot[0]


def integrate(graph, klass):
    """Fixed-point localization: sum of f_v over the vertex Euler classes.

    The class must satisfy the edge congruences (lie in the kernel of the
    edge-difference map) and localize to a polynomial; either failure raises.
    """
    if isinstance(klass, (list, tuple)):
        klass = Vector.from_polys(list(klass), len(graph.vertices))
    if not _satisfies_congruences(graph, klass.to_polys()):
        raise DatumError("class is not in the kernel of the edge-difference map")
    c, cols = _columns(klass)
    return _localize(graph, c, zip(cols, graph.localization()[2]))


def pairing_perfection(graph):
    """Gram matrix of the localized pairing on a free kernel basis.

    Perfect iff the determinant is a nonzero scalar; the verdict is
    cross-checked against reflexivity of the kernel module.  The kernel is
    a ring, so every product of basis vectors is localized unchecked: each
    basis vector's packed integer terms (_columns) are multiplied by the
    cofactors W_v once, and entry (i, j) localizes the pairs
    (b_iv * W_v, b_jv).
    """
    kernel = gkm_cohomology(graph)
    if kernel.module.num_rels != 0:
        return CheckReport.not_applicable("poincare-pairing-perfection",
                                          "kernel is not free; use the syzygy test")
    ring, cofactors = graph.ring, graph.localization()[2]
    basis = [_columns(b) for b in kernel.generators]
    weighted = [[_dot(ring, ((f, w),)) for f, w in zip(cols, cofactors)]
                for _, cols in basis]
    n = len(basis)
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = _localize(
                graph, basis[i][0] * basis[j][0], zip(weighted[i], basis[j][1]))
    det = determinant(gram, ring)
    unit = (not det.is_zero()) and set(det.terms) == {ring.zero_exps}
    refl = biduality(kernel.module).reflexive
    return CheckReport.of("poincare-pairing-perfection", unit == refl, {
        "gram": [[str(e) for e in row] for row in gram],
        "determinant": str(det),
        "perfect": unit,
        "kernel_reflexive": refl,
    })
