"""Finitely presented graded modules and their homological invariants.

Modules are cokernels of degree-0 maps between graded free modules.  A
map is stored as its columns, Vectors in the target; a row matrix of
Polynomials is read (from_matrix) or built (rows) only where JSON or a
caller's literal matrix enters or leaves.
Provides syzygies, minimal free resolutions, Betti tables, Hom/Ext,
Krull dimension (Hilbert pole order), depth (Auslander-Buchsbaum),
Cohen-Macaulay tests, biduality/torsion/reflexivity, syzygy order with a
verified witness complex, and base change along graded ring maps.
CheckReport, the result of every check in weyl, cartan, equivtop and the
CLI, is a verdict on one classical statement, written out by its to_json.

Graded isomorphism is approximated throughout by equality of minimal Betti
tables plus Hilbert series, compared exactly: as numerators over the one
denominator prod(1 - q^d) of their ring, with no truncation degree.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

from .polyring import (
    Vector, SubmoduleGB, GroebnerBasis, DatumError,
    quotient_hilbert_series, span_hilbert_numerator, GradedPolynomialRing, _columns,
    _scaled_dot, _integers,
)

NEG_INF = float("-inf")

__all__ = [
    "NEG_INF", "FreeModule", "ModuleMap", "FPModule", "FPMap", "Resolution",
    "minimal_generating_indices", "minimal_resolution", "syzygies",
    "betti_table", "betti_text", "dimension", "depth", "ext_module",
    "biduality", "cohen_macaulay", "syzygy_order", "CheckReport",
    "base_change", "homology", "fp_kernel",
    "fp_cokernel", "fp_homology", "iso_surrogate_equal",
]


class CheckReport:
    """The verdict of one check: "pass", "fail" or "not applicable", on the
    classical statement tagged theorem (the name by default)."""

    def __init__(self, name, verdict, details=None, theorem=None):
        self.name = name
        self.theorem = name if theorem is None else theorem
        self.verdict = verdict
        self.details = details or {}

    @classmethod
    def of(cls, name, ok, details=None, theorem=None):
        """A pass when ok, else a fail."""
        return cls(name, "pass" if ok else "fail", details, theorem)

    @classmethod
    def not_applicable(cls, name, reason, details=None, theorem=None):
        """A "not applicable", with its reason in details["reason"]."""
        return cls(name, "not applicable", dict(details or {}, reason=reason), theorem)

    @property
    def passed(self):
        return self.verdict != "fail"

    def to_json(self):
        return {"name": self.name, "theorem": self.theorem,
                "verdict": self.verdict, "details": self.details}

    def __repr__(self):
        return "CheckReport(%s: %s)" % (self.name, self.verdict)


class FreeModule:
    """Graded free module with a degree for each generator."""

    def __init__(self, ring, degrees):
        self.ring = ring
        self.degrees = tuple(int(d) for d in degrees)

    @property
    def rank(self):
        return len(self.degrees)

    def dual(self):
        return FreeModule(self.ring, tuple(-d for d in self.degrees))

    def unit_vectors(self):
        return [Vector.unit(self.ring, self.rank, i) for i in range(self.rank)]

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.ring == other.ring
                and self.degrees == other.degrees)

    def __repr__(self):
        return "FreeModule(%s)" % (list(self.degrees),)


class ModuleMap:
    """Degree-0 map of graded free modules, stored as its columns.

    columns[j] is the image of source generator j, a Vector in
    R^target.rank whose component i is zero or homogeneous of degree
    source.degrees[j] - target.degrees[i].  from_matrix reads a row matrix
    and rows() builds one, where JSON or a caller's literal matrix enters
    or leaves.  Never mutated after construction, it caches gb(), the
    Groebner data of its columns, which the module it presents, its
    syzygies and verify_exact share (on a dual map: ext_module and the
    kernel into the free target), image_numerator(), the Hilbert
    numerator of its image that the Ext test reads, and dual(), so that
    each transpose and the integer forms of its columns are built once.
    """

    def __init__(self, source, target, columns, check=True):
        if source.ring != target.ring:
            raise ValueError("ring mismatch")
        self.source = source
        self.target = target
        self.columns = tuple(columns)
        if len(self.columns) != source.rank or any(
                c.rank != target.rank for c in self.columns):
            raise ValueError("matrix shape does not match module ranks")
        if check:
            for j, col in enumerate(self.columns):
                want = source.degrees[j]
                try:
                    if col.homogeneous_degree(target.degrees) in (None, want):
                        continue
                except ValueError:
                    pass
                # name the first entry of the column that is off
                for i, ent in enumerate(col.to_polys()):
                    d = want - target.degrees[i]
                    if not ent.is_zero() and ent.homogeneous_degree() != d:
                        raise ValueError("entry (%d,%d) has degree %s, expected %d"
                                         % (i, j, ent.homogeneous_degree(), d))
        self._gb = None
        self._dual = None
        self._image_numerator = None

    @classmethod
    def from_matrix(cls, source, target, rows, check=True):
        """The map whose entry rows[i][j] is the coefficient of target
        generator i in the image of source generator j."""
        if len(rows) != target.rank or any(len(row) != source.rank for row in rows):
            raise ValueError("matrix shape does not match module ranks")
        cols = [Vector(source.ring, target.rank, {
            (i, e): c for i, row in enumerate(rows) for e, c in row[j].terms.items()})
            for j in range(source.rank)]
        return cls(source, target, cols, check=check)

    @property
    def ring(self):
        return self.source.ring

    def rows(self):
        """The row matrix of Polynomials, built on each read."""
        polys = [c.to_polys() for c in self.columns]
        return [[p[i] for p in polys] for i in range(self.target.rank)]

    def gb(self):
        """SubmoduleGB of the columns in R^target.rank, computed once."""
        if self._gb is None:
            self._gb = SubmoduleGB(self.ring, self.target.rank, self.columns)
        return self._gb

    def image_numerator(self):
        """The numerator of the Hilbert series of the image in the target
        (span_hilbert_numerator), computed once: read off the basis of gb()
        when that is built, else off Groebner data of the columns built
        without syzygies, which is not kept."""
        if self._image_numerator is None:
            gb = self._gb or SubmoduleGB(self.ring, self.target.rank, self.columns,
                                         syzygies=False)
            self._image_numerator = span_hilbert_numerator(
                self.ring, self.target.degrees, [v.lead()[0] for v in gb.gb])
        return self._image_numerator

    def is_zero(self):
        return all(c.is_zero() for c in self.columns)

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError("maps not composable")
        return ModuleMap(other.source, self.target, [
            _apply(self.columns, c, self.target.rank) for c in other.columns])

    def dual(self):
        """Hom(-, R): the transpose, between the dual free modules,
        computed once."""
        if self._dual is None:
            self._dual = ModuleMap(self.target.dual(), self.source.dual(),
                                   _transpose(self.ring, self.columns, self.target.rank))
        return self._dual

    def __repr__(self):
        return "ModuleMap(%dx%d)" % (self.target.rank, self.source.rank)


def _apply(columns, v, rank):
    """sum_j v_j * columns[j] in R^rank: the image of v under the map with
    these columns, one integer accumulator (_scaled_dot) over the common
    denominator of the columns it uses."""
    c, parts = _columns(v)
    s, ints = _scaled_dot(v.ring, [(cj, a, part) for (cj, (_, a)), part in zip(
        (col._form for col in columns), parts) if part])
    return Vector._of_ints(v.ring, rank, c * s, ints)


def _transpose(ring, columns, nrows):
    """The nrows columns of the transpose of the matrix with these columns:
    the term of column j in row i moves to column j of vector i, over the
    common denominator of the columns."""
    cshift = ring._cshift
    d = lcm(*[col._form[0].denominator for col in columns])
    data = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        c, (_, ints) = col._form
        s = c.numerator * (d // c.denominator)
        for k, n in ints.items():
            i = -(k >> cshift)
            data[i][k + ((i - j) << cshift)] = s * n
    return [Vector._of_ints(ring, len(columns), Fraction(1, d), t) for t in data]


def _unit_rows(col):
    """The rows where the column has a nonzero constant entry: keys whose
    bits below the column are those of the constant monomial."""
    ring = col.ring
    low = (1 << ring._cshift) - 1
    return [-(k >> ring._cshift) for k in col._form[1][1] if k & low == ring._mask]


def _degrees_of(vectors, ambient_degrees):
    return [v.homogeneous_degree(ambient_degrees) for v in vectors]


def minimal_generating_indices(vectors, ambient_degrees):
    """Indices of a minimal generating subset of span(vectors).

    Greedy in increasing degree; correct for graded submodules by Nakayama.
    One GroebnerBasis of the kept vectors, with the ambient degrees as its
    column degrees, tests each vector of degree d after completing only
    its pairs of degree at most d: truncated there, it decides membership
    in degree d exactly, and no pair above the largest degree is reduced.
    """
    if not vectors:
        return []
    degs = _degrees_of(vectors, ambient_degrees)
    order = sorted((i for i, d in enumerate(degs) if d is not None),
                   key=lambda i: (degs[i], i))
    basis = GroebnerBasis(vectors[0].ring, ambient_degrees)
    return sorted(i for i in order if basis.add(vectors[i]))


class FPModule:
    """Finitely presented graded module: the cokernel of a ModuleMap.

    Never mutated after construction, it caches what is derived from it:
    the Hilbert series, the minimal presentation, the biduality map and,
    on the minimal presentation, the minimal free resolution and the
    syzygy order.  The relations' Groebner basis lives on pmap.  A module
    whose presentation is already minimal is its own minimal
    presentation, so both share all of these.
    """

    def __init__(self, pmap):
        self.pmap = pmap
        self._hilbert = None
        self._minimal = None
        self._resolution = None
        self._biduality = None
        self._syzygy_order = None

    @property
    def ring(self):
        return self.pmap.ring

    @property
    def gens_degrees(self):
        return self.pmap.target.degrees

    @property
    def num_gens(self):
        return self.pmap.target.rank

    @property
    def num_rels(self):
        return self.pmap.source.rank

    @classmethod
    def free(cls, ring, degrees):
        return cls(ModuleMap(FreeModule(ring, ()), FreeModule(ring, degrees), []))

    @classmethod
    def zero(cls, ring):
        return cls.free(ring, ())

    @classmethod
    def from_columns(cls, ring, gens_degrees, columns):
        """Module on the given generators with the columns as relations."""
        tgt = FreeModule(ring, gens_degrees)
        cols = [c for c in columns if not c.is_zero()]
        src = FreeModule(ring, _degrees_of(cols, tgt.degrees))
        return cls(ModuleMap(src, tgt, cols))

    def hilbert(self):
        if self._hilbert is None:
            self._hilbert = quotient_hilbert_series(
                self.ring, self.gens_degrees, self.pmap.gb().gb)
        return self._hilbert

    def is_zero(self):
        return self.minimized().num_gens == 0

    def shifted(self, k):
        """Raise all generator degrees by k."""
        src = FreeModule(self.ring, tuple(d + k for d in self.pmap.source.degrees))
        tgt = FreeModule(self.ring, tuple(d + k for d in self.gens_degrees))
        return FPModule(ModuleMap(src, tgt, self.pmap.columns))

    def minimized(self):
        """Minimal presentation: prune units (Nakayama) and redundant relations.

        A unit entry (i, j) clears row i from the other relations with
        relation j, and then generator i and relation j are dropped; the
        pivot is the unit of the smallest row, then of the smallest column.
        """
        if self._minimal is not None:
            return self._minimal
        ring, n = self.ring, self.num_gens
        cols = dict(enumerate(self.pmap.columns))
        dropped = set()
        while True:
            units = [(i, j) for j, col in cols.items() for i in _unit_rows(col)]
            if not units:
                break
            i, j = min(units)
            pivot = cols.pop(j)
            inverse = 1 / pivot.component(i).constant_term()
            for jj, col in cols.items():
                entry = col.component(i)
                if not entry.is_zero():
                    cols[jj] = col - pivot.poly_mul(entry.scale(inverse))
            dropped.add(i)
        gens = [i for i in range(n) if i not in dropped]
        cols = [v for v in cols.values() if not v.is_zero()]
        if dropped:
            # a nonzero column has an entry in some kept row
            polys = [v.to_polys() for v in cols]
            cols = [Vector.from_polys([p[i] for i in gens]) for p in polys]
        gdeg = [self.gens_degrees[i] for i in gens]
        keep = minimal_generating_indices(cols, gdeg)
        if not dropped and len(keep) == self.num_rels:
            self._minimal = self
            return self
        m0 = FPModule.from_columns(ring, gdeg, [cols[i] for i in keep])
        self._minimal = m0._minimal = m0
        return m0

    def to_json(self):
        return {
            "ring": self.ring.descriptor(),
            "row_degrees": list(self.gens_degrees),
            "col_degrees": list(self.pmap.source.degrees),
            "matrix": _matrix_json(self.pmap),
        }

    @classmethod
    def from_json(cls, obj, ring=None):
        if ring is None:
            ring = GradedPolynomialRing.from_descriptor(obj["ring"])
        tgt = FreeModule(ring, _integers(obj["row_degrees"], "row_degrees"))
        src = FreeModule(ring, _integers(obj["col_degrees"], "col_degrees"))
        return cls(ModuleMap.from_matrix(src, tgt, _matrix_from_json(
            ring, obj.get("matrix"), "matrix")))

    def __repr__(self):
        return "FPModule(gens=%s, rels=%d)" % (list(self.gens_degrees), self.num_rels)


class FPMap:
    """Map of finitely presented modules, given on generators.

    free is the map of the free modules on the generators, and columns are
    its columns.  With check, the shape, ring and degrees are checked on
    free, and the images of the source relations must be relations of the
    target; a free source has none to check, so the target's relation
    basis is built only when the source has relations.
    """

    def __init__(self, source, target, columns, check=True):
        self.source = source
        self.target = target
        self.free = ModuleMap(source.pmap.target, target.pmap.target, columns,
                              check=check)
        self.columns = self.free.columns
        if check and source.num_rels:
            gb = target.pmap.gb()
            if not all(gb.contains(_apply(self.columns, rel, target.num_gens))
                       for rel in source.pmap.columns):
                raise ValueError("matrix does not respect the relations")

    @classmethod
    def from_matrix(cls, source, target, rows, check=True):
        """Read a row matrix on the generators, as ModuleMap.from_matrix."""
        return cls(source, target, ModuleMap.from_matrix(
            source.pmap.target, target.pmap.target, rows, check=False).columns, check)

    @property
    def ring(self):
        return self.source.ring

    def rows(self):
        return self.free.rows()

    def compose(self, other):
        """self after other."""
        return FPMap(other.source, self.target, [
            _apply(self.columns, c, self.target.num_gens) for c in other.columns],
            check=False)

    def is_zero_map(self):
        gb = self.target.pmap.gb()
        return all(gb.contains(col) for col in self.columns)

    def __repr__(self):
        return "FPMap(%dx%d)" % (self.target.num_gens, self.source.num_gens)


def _matrix_json(fmap):
    """The JSON form of a map: its rows of polynomial strings."""
    return [[str(e) for e in row] for row in fmap.rows()]


def _matrix_from_json(ring, mat, field):
    """The rows of Polynomials of the JSON matrix mat, read from field."""
    if not (isinstance(mat, list) and all(isinstance(row, list) for row in mat)):
        raise DatumError("%s must be a list of rows, got %r" % (field, mat))
    return [[ring.poly_from_json(e) for e in row] for row in mat]


def homology(module, f=None, g=None):
    """ker(g)/im(f) at module in M --f--> module --g--> P.

    Returns the minimal module and K, a minimal generating set of ker(g) as
    vectors over module's generators.  f = None means no incoming map (the
    kernel of g), g = None no outgoing map (the cokernel of f).  A map into a
    module without generators has all of module as its kernel: K is then the
    unit vectors, the relations are module's relations and f's columns, and
    no Groebner basis is computed.  Else both kernels are SubmoduleGB
    syzygies modulo relations: K those of g's columns modulo P's relations
    (cached on g.free for a free P), and the relations those of K modulo
    module's relations and f's columns.  With neither (a free module and no
    f), the syzygy basis K is chosen from is a Groebner basis of span(K),
    and when its Hilbert series is that of R(-deg K) the span is free on K
    (_spans_freely): there are no relations, and their basis is not built.
    """
    for end in (f and f.target, g and g.source):
        if (end is not None and end is not module
                and end.gens_degrees != module.gens_degrees):
            raise ValueError("maps are not consecutive")
    ring = module.ring
    # module's relations first: the depth check's chain of quotients M/fM
    # runs 1.5-2x faster on random modules than with f's columns first
    quotient = list(module.pmap.columns) + list(f.columns if f else ())
    if g is None or g.target.num_gens == 0:
        K, rels = module.pmap.target.unit_vectors(), quotient
    else:
        syz = (SubmoduleGB(ring, g.target.num_gens, g.columns, g.target.pmap.columns)
               if g.target.num_rels else g.free.gb()).syzygies()
        K = [syz[i] for i in minimal_generating_indices(syz, module.gens_degrees)]
        if not K or (not quotient and _spans_freely(ring, module.gens_degrees, syz, K)):
            rels = []
        else:
            rels = SubmoduleGB(ring, module.num_gens, K, quotient).syzygies()
    degrees = _degrees_of(K, module.gens_degrees)
    return FPModule.from_columns(ring, degrees, rels).minimized(), K


def _spans_freely(ring, gens_degrees, gb, K):
    """Whether K, homogeneous generators of the span of the Groebner basis
    gb in the free module F on gens_degrees, is a free basis of it.

    R(-deg K) maps onto the span, so it is an isomorphism exactly when the
    two have one Hilbert series: the numerator sum(q^deg k) against the
    span's, read off the leads of gb (span_hilbert_numerator).
    """
    free = Counter(gens_degrees[col] + ring.weighted_degree(exps)
                   for col, exps in (k.lead()[0] for k in K))
    return span_hilbert_numerator(ring, gens_degrees, [v.lead()[0] for v in gb]) == free


def fp_kernel(fpmap):
    """Kernel of an FPMap as (minimal FPModule, generators in source gens)."""
    return homology(fpmap.source, g=fpmap)


def fp_cokernel(fpmap):
    return homology(fpmap.target, f=fpmap)[0]


def fp_homology(f, g):
    """Homology ker(g)/im(f) at the middle of M --f--> N --g--> P."""
    return homology(g.source, f, g)[0]


class Resolution:
    """Chain of free modules F_p -> ... -> F_1 -> F_0 resolving a module."""

    def __init__(self, modules, maps):
        self.modules = tuple(modules)   # shared by every caller of the cache
        self.maps = tuple(maps)

    @property
    def length(self):
        return len(self.maps)

    def betti(self):
        table = {}
        for k, mod in enumerate(self.modules):
            for d in mod.degrees:
                table[(k, d)] = table.get((k, d), 0) + 1
        return table

    def is_minimal(self):
        return not any(_unit_rows(c) for m in self.maps for c in m.columns)

    def verify_exact(self):
        """Composites vanish and ker(phi_k) = im(phi_{k+1}) at every k >= 1,
        compared as the reduced Groebner bases cached by each map's gb()."""
        for a, b in zip(self.maps, self.maps[1:]):
            if not a.compose(b).is_zero():
                return False
        for k, m in enumerate(self.maps):
            nxt = self.maps[k + 1].gb().gb if k + 1 < len(self.maps) else []
            if m.gb().syzygies() != nxt:
                return False
        return True


def syzygies(mmap):
    """Map whose image, minimally generated, is the kernel of the given map
    of free modules."""
    syz = mmap.gb().syzygies()
    keep = minimal_generating_indices(syz, mmap.source.degrees)
    syz = [syz[i] for i in keep]
    src = FreeModule(mmap.ring, _degrees_of(syz, mmap.source.degrees))
    return ModuleMap(src, mmap.source, syz)


def minimal_resolution(module):
    """Minimal free resolution, cached on the minimal presentation."""
    m0 = module.minimized()
    if m0._resolution is not None:
        return m0._resolution
    phi = m0.pmap
    modules = [phi.target]
    maps = []
    while phi.source.rank:
        maps.append(phi)
        modules.append(phi.source)
        phi = syzygies(phi)
        if len(maps) > m0.ring.num_vars:
            raise AssertionError("resolution exceeds the Hilbert syzygy bound")
    m0._resolution = Resolution(modules, maps)
    return m0._resolution


def betti_table(module):
    return minimal_resolution(module).betti()


def _betti_json(module):
    """Betti table as a sorted list of [position, degree, count]."""
    return sorted([[k, d, n] for (k, d), n in betti_table(module).items()])


def betti_text(table):
    """Aligned text grid of a Betti table, degrees down, positions across."""
    if not table:
        return "(zero module)"
    cols = sorted({k for (k, _) in table})
    rows = sorted({d for (_, d) in table})
    width = max(len(str(table.get((k, d), ""))) for k in cols for d in rows)
    width = max(width, max(len(str(k)) for k in cols), 4)
    head = "deg".rjust(6) + "".join(str(k).rjust(width + 1) for k in cols)
    lines = [head]
    for d in rows:
        cells = "".join(str(table.get((k, d), ".")).rjust(width + 1) for k in cols)
        lines.append(str(d).rjust(6) + cells)
    return "\n".join(lines)


def dimension(module):
    """Krull dimension via the pole order of the Hilbert series at q=1."""
    order = module.hilbert().pole_order()
    return NEG_INF if order is None else order


def depth(module):
    """Depth = num_vars - projective dimension (Auslander-Buchsbaum)."""
    res = minimal_resolution(module)
    if res.modules[0].rank == 0:
        raise ValueError("depth is undefined for the zero module")
    return module.ring.num_vars - res.length


class CMResult:
    def __init__(self, status, dim, dep, ext_nonzero, is_cm, tests_agree):
        self.status = status          # "zero" | "cm" | "not_cm"
        self.dim = dim
        self.depth = dep
        self.ext_nonzero = ext_nonzero
        self.is_cm = is_cm
        self.tests_agree = tests_agree

    def __repr__(self):
        return "CMResult(%s, dim=%s)" % (self.status, self.dim)


def cohen_macaulay(module):
    """Ext-concentration test cross-checked against depth = dim.

    Whether Ext^i(M, R) vanishes is read from the Hilbert numerators of
    the images of the dual maps of the minimal resolution (_ext_vanishes):
    im sigma_i lies in ker sigma_{i+1}, so Ext^i = 0 exactly when the two
    have one Hilbert series.  No Ext module is presented and no syzygy is
    computed.
    """
    r = module.ring.num_vars
    if module.is_zero():
        return CMResult("zero", NEG_INF, None, [], False, True)
    d = dimension(module)
    dep = depth(module)
    res = minimal_resolution(module)
    ext_nonzero = [i for i in range(r + 1) if not _ext_vanishes(res, i)]
    via_ext = ext_nonzero == [r - d]
    via_depth = dep == d
    return CMResult("cm" if via_ext else "not_cm", d, dep, ext_nonzero,
                    via_ext, via_ext == via_depth)


def _map_between_free_fp(mmap):
    """mmap as an FPMap of free modules, keeping mmap (and so its cached
    Groebner data) as the map's free part."""
    src = FPModule.free(mmap.ring, mmap.source.degrees)
    tgt = FPModule.free(mmap.ring, mmap.target.degrees)
    fpmap = FPMap(src, tgt, mmap.columns, check=False)
    fpmap.free = mmap
    return fpmap


def _ext_vanishes(res, i):
    """Whether Ext^i vanishes for the module res resolves: ker sigma_{i+1}
    equals im sigma_i on the dual complex, sigma_k = res.maps[k-1].dual()
    from F_{k-1}* to F_k*.

    sigma_{i+1} sigma_i = 0, so im sigma_i lies in ker sigma_{i+1}; both
    are graded with finite-dimensional pieces, so they are equal exactly
    when their Hilbert series are, as in _spans_freely.  The kernel's
    series is that of F_i* less that of im sigma_{i+1} (no map out of F_p*,
    p the length); im sigma_0 is 0.  Each image's numerator is read once
    per dual map (ModuleMap.image_numerator), so no syzygy is computed.
    """
    if i > res.length:
        return True
    # the numerator of ker sigma_{i+1} / im sigma_i
    quotient = Counter(res.modules[i].dual().degrees)
    if i < res.length:
        quotient.subtract(res.maps[i].dual().image_numerator())
    if i:
        quotient.subtract(res.maps[i - 1].dual().image_numerator())
    return not any(quotient.values())


def ext_module(module, i):
    """Ext^i(M, R), presented from the dualized minimal free resolution."""
    r = module.ring.num_vars
    if not 0 <= i <= r:
        raise ValueError("Ext index out of range")
    res = minimal_resolution(module)
    if i > res.length:
        return FPModule.zero(module.ring)
    # sigma_k: F_{k-1}* -> F_k*, with no map into F_0* or out of F_p*
    sigmas = [_map_between_free_fp(m.dual()) for m in res.maps]
    sigmas = [None] + sigmas + [None]
    fi_star = FPModule.free(module.ring, res.modules[i].dual().degrees)
    return homology(fi_star, sigmas[i], sigmas[i + 1])[0]


def _dual_data(module):
    """(M* with minimally chosen generators, their vectors in F0*)."""
    return fp_kernel(_map_between_free_fp(module.pmap.dual()))   # F0* -> F1*


class BidualityResult:
    """Natural map M -> M** with its kernel (torsion) and cokernel."""

    def __init__(self, columns, evaluations, kernel, cokernel, m_star, m_double, W):
        self.columns = columns          # of M -> M**, over the generators W
        self.evaluations = evaluations  # of M -> M** -> G0*: u_j in G0*
        self.kernel = kernel
        self.cokernel = cokernel
        self.m_star = m_star
        self.m_double = m_double
        self.W = W                      # generators of M** as vectors in G0*

    @property
    def torsion_free(self):
        return self.kernel.is_zero()

    @property
    def reflexive(self):
        return self.kernel.is_zero() and self.cokernel.is_zero()


def _bidual_columns(module, K, W):
    """(columns of M -> M**, evaluation vectors u_j), for K the generators
    of M* in F0* and W those of M** in G0*: u_j in G0* evaluates generator
    j of M on K, and its lift u_j = sum_w q_jw W_w is column j."""
    ring = module.ring
    us = _transpose(ring, K, module.num_gens)
    wgb = SubmoduleGB(ring, len(K), W) if W else None
    cols = []
    for u in us:
        coeffs = wgb.lift(u) if wgb else ([] if u.is_zero() else None)
        if coeffs is None:
            raise AssertionError("evaluation vector escapes the double dual")
        cols.append(Vector.from_polys(coeffs) if coeffs else Vector(ring, 0, {}))
    return cols, us


def biduality(module):
    """Kernel and cokernel of the natural map M -> Hom(Hom(M,R),R),
    computed once per module.

    M* and M** are read off _dual_data, which builds no Groebner basis for
    a free module: there M* and M** are free on the dual and the original
    generator degrees, K and W are unit vectors, and the natural map is
    the identity, with zero kernel and cokernel.  Only a module with
    relations lifts its evaluation vectors (_bidual_columns) and presents
    the kernel and cokernel.
    """
    if module._biduality is None:
        mstar, K = _dual_data(module)
        mdd, W = _dual_data(mstar)
        if module.num_rels:
            cols, us = _bidual_columns(module, K, W)
            bmap = FPMap(module, mdd, cols, check=False)
            kernel, cokernel = fp_kernel(bmap)[0], fp_cokernel(bmap)
        else:
            cols = us = module.pmap.target.unit_vectors()
            kernel = cokernel = FPModule.zero(module.ring)
        module._biduality = BidualityResult(cols, us, kernel, cokernel, mstar, mdd, W)
    return module._biduality


class SyzygyOrderResult:
    def __init__(self, order, kind, witness_maps=None, exactness=None):
        self.order = order
        self.kind = kind                  # "zero"|"free"|"torsion"|"not-reflexive"|"dualized-resolution"
        self.witness_maps = witness_maps or []
        self.exactness = exactness or []  # verified homology-vanishing flags

    @property
    def witness_verified(self):
        return all(self.exactness)

    def __repr__(self):
        return "SyzygyOrderResult(order=%d, kind=%s)" % (self.order, self.kind)


def syzygy_order(module):
    """Largest j such that M embeds exactly into a length-j free complex.

    Torsion modules give 0, torsion-free non-reflexive ones 1; for reflexive
    M the dualized minimal resolution of M* is spliced with M = M** and the
    consecutive exact positions are verified: at M and G0* by direct
    homology computation, at G_k* for k >= 1, where the homology is
    Ext^k(M*, R), from the Hilbert numerators of the images of the
    resolution's dual maps (_ext_vanishes: the image lies in the kernel,
    so they are equal when their series are).  Free (and zero) modules
    return num_vars by convention.  Computed once per minimal presentation.
    """
    m0 = module.minimized()
    if m0._syzygy_order is None:
        m0._syzygy_order = _syzygy_order(m0)
    return m0._syzygy_order


def _syzygy_order(m0):
    ring = m0.ring
    r = ring.num_vars
    if m0.num_gens == 0:
        return SyzygyOrderResult(r, "zero")
    if m0.num_rels == 0:
        return SyzygyOrderResult(r, "free")
    bd = biduality(m0)
    if not bd.torsion_free:
        return SyzygyOrderResult(0, "torsion")
    res = minimal_resolution(bd.m_star)
    if res.modules[0].degrees != tuple(bd.m_star.gens_degrees):
        raise AssertionError("dual presentation was expected to be minimal")
    # M -> M** -> G0*: column j is the evaluation vector u_j
    embed = FPMap(m0, FPModule.free(ring, res.modules[0].dual().degrees),
                  bd.evaluations, check=False)
    exact = [fp_kernel(embed)[0].is_zero()]
    if not bd.reflexive:
        return SyzygyOrderResult(1, "not-reflexive", [embed], exact)
    # reflexive: exact positions along 0 -> M -> G0* -> G1* -> ... -> Gp* -> 0;
    # M and G0* are verified, the positions after them counted until one fails
    sigmas = [_map_between_free_fp(m.dual()) for m in res.maps]  # G_{k-1}* -> G_k*
    exact.append(homology(embed.target, embed, sigmas[0] if sigmas else None)[0].is_zero())
    for k in range(1, res.length + 1):
        if not _ext_vanishes(res, k):
            break
        exact.append(True)
    order = min(len(exact), r)
    witness = [embed] + sigmas[:order - 1]
    return SyzygyOrderResult(order, "dualized-resolution", witness, exact)


def base_change(module, ring_map):
    """Extend scalars along a graded ring map; degrees are preserved."""
    if module.ring != ring_map.source:
        raise ValueError("module does not live over the map's source ring")
    tgt_ring = ring_map.target
    src = FreeModule(tgt_ring, module.pmap.source.degrees)
    tgt = FreeModule(tgt_ring, module.pmap.target.degrees)
    cols = [Vector.from_polys([ring_map(p) for p in col.to_polys()])
            for col in module.pmap.columns]
    return FPModule(ModuleMap(src, tgt, cols))


def iso_surrogate_equal(m1, m2):
    """Graded-isomorphism surrogate: minimal Betti tables + Hilbert series."""
    return betti_table(m1) == betti_table(m2) and m1.hilbert() == m2.hilbert()
