"""Finite reflection group actions on the torus polynomial ring.

A group is given by rational matrices acting on the degree-2 variables.
Supplies the closure enumeration, verification of candidate fundamental
invariants (Molien series, order product; one CheckReport per claim),
Kostant's coinvariant basis as Groebner standard monomials, the Reynolds
projector, rewriting of R_T vectors over the invariant subring, and
invariants of equivariant free modules.  The closure numbers the
elements once, with a Cayley table, walking the group on signed
permutations when the generators are signed permutation matrices, else on
integer matrices; actions and their caches are keyed by that index.
Signed permutation matrices act term by term, others by substituting the
variables' images.  The action and the Reynolds average share one
accumulator (_images): the images are summed on integer numerators and
born in the integer form the Groebner core reduces.  The coordinates of
an R_T element over R^W are one Vector over the invariant ring, its
column col * |B| + j the coefficient of the j-th coinvariant monomial in
coordinate col, summed in one integer accumulator (_expand) from the
cached coordinates of monomials.  Invariants of a free module are
selected on these coordinates at one position per orbit, spread on read.
Built-in constructors cover the symmetric groups on up to four letters
(acting on the sum-zero coordinates), the order-8 rank-2 group of signed
permutations, sign flips in rank one, and direct products.
"""

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from .polyring import (
    GradedPolynomialRing, Vector, SubmoduleGB, GroebnerBasis,
    syzygy_basis, HilbertSeries, RingMap, span_hilbert_numerator, qpoly_add, qpoly_mul,
    qpoly_denominator, determinant, DatumError, ExponentLimitError, _fr, _integers,
    _scaled_dot, _torus_ring,
)
from .gradmod import CheckReport, FPModule, _degrees_of

__all__ = [
    "ReflectionGroup", "WEquivariantFreeModule", "GroupClosureError",
    "cyclic_sign_group", "symmetric_group_on_sum_zero", "signed_permutation_rank2",
    "product_group",
]


class GroupClosureError(ValueError):
    pass


def _mat(rows):
    return tuple(tuple(_fr(x) for x in row) for row in rows)


def _integer_matrix(matrix):
    """The integer form (M, d) of a Fraction matrix (see _closure): d is the
    lcm of the denominators, so no prime divides d and all of M."""
    d = math.lcm(*[x.denominator for row in matrix for x in row])
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in matrix), d


def _content_free_matrix(m, d):
    """The integer form of the matrix m / d, for an integer matrix m and d > 0."""
    c = d if d == 1 else math.gcd(d, *[x for row in m for x in row])
    if c == 1:
        return m, d
    return tuple(tuple(x // c for x in row) for row in m), d // c


class ReflectionGroup:
    """Finite matrix group on the rank-r torus ring with chosen invariants."""

    def __init__(self, generators, invariants, ring, max_order=10080):
        gens = [_mat(g) for g in generators]
        rank = len(gens[0]) if gens else 0
        for g in gens:
            if len(g) != rank or any(len(row) != rank for row in g):
                raise ValueError("generators must be square matrices of equal size")
        if ring.num_vars != rank:
            raise ValueError("ring rank does not match the matrices")
        self.ring = ring
        self.rank = rank
        self.generators = gens
        self.table, self._forms, self._signed = self._closure(gens, max_order)
        if any(len(set(row)) != len(row) for row in self.table):
            raise ValueError("group generators must be invertible")
        self._lcm = math.lcm(*[d for _, d in self._forms])
        self.invariants = [ring.parse(p) if isinstance(p, str) else p
                           for p in invariants]
        if any(p.ring != ring for p in self.invariants):
            raise ValueError("invariants must live in the torus ring")
        if len(self.invariants) != rank:
            raise ValueError("need exactly rank-many fundamental invariants")
        self.invariant_degrees = tuple(p.homogeneous_degree() for p in self.invariants)
        if any(d is None or d <= 0 or d % 2 for d in self.invariant_degrees):
            raise ValueError("invariants must be homogeneous of positive even degree")
        self.invariant_ring = GradedPolynomialRing(
            ["p%d" % (i + 1) for i in range(rank)], self.invariant_degrees)
        self._coinvariants = None
        self._inv_gb = None
        self._expand_cache = {}
        self._y_keys = [y._form[1][0] for y in self.invariant_ring.vars()]

    @staticmethod
    def _closure(gens, max_order):
        """The Cayley table (table[gi][k] is the index of gens[gi] times the
        k-th element, the elements numbered in discovery order), the
        integer forms of the elements and, for each element that is a
        signed permutation, its _signed_permutation (else None).

        The integer form of a matrix is (M, d) with the matrix equal to
        M / d, d > 0 and no common factor of d and all entries of M, which
        is unique to the matrix.  When every generator is a signed
        permutation the walk composes signed permutations, and the forms
        are read off them; otherwise it multiplies integer forms.
        """
        n = len(gens[0]) if gens else 0
        int_gens = [_integer_matrix(g) for g in gens]
        images = [_signed_images(m) if d == 1 else None for m, d in int_gens]
        if None not in images:
            table, images = _walk(images, tuple(range(1, n + 1)), _compose_images, max_order)
            forms = [(_images_matrix(im), 1) for im in images]
        else:
            identity = (tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)
            table, forms = _walk(int_gens, identity, _matrix_product, max_order)
            images = [_signed_images(m) if d == 1 else None for m, d in forms]
        return table, forms, [None if im is None else _signed_permutation(im)
                              for im in images]

    @property
    def order(self):
        return len(self._forms)

    @cached_property
    def elements(self):
        """The elements as Fraction matrices, in discovery order; built on
        first use."""
        return [tuple(tuple(Fraction(x, d) for x in row) for row in m) for m, d in self._forms]

    @cached_property
    def _index(self):
        """{Fraction matrix: its index}, built on first use."""
        return {w: k for k, w in enumerate(self.elements)}

    def act(self, matrix, poly):
        """Substitute variable j by the column-j form of the group matrix."""
        return self._act(self._index[matrix], poly)

    def _act(self, k, poly):
        """The action of the k-th element (_images)."""
        return self._images(poly, [(k, {0: 0})], 1)

    def _images(self, element, actions, rank):
        """The sum of w_k . element over (k, cols) in actions, w_k the k-th
        element and cols a dict moving column i of element to column
        cols[i] < rank; the terms of the columns cols leaves out are
        skipped.  Born in integer form, of the element's type.  For
        element = c * F, F its integer form and D the largest degree of a
        term of F, the integer images L^D * w_k . F (_integer_images) of the
        monomials in the moved columns go into one dict, and the sum has
        content c / L^D times the content of that dict."""
        ring = self.ring
        c, (_, ints) = element._form
        by_col = {}
        for key, n in ints.items():
            col, exps = ring._unpack(key)
            by_col.setdefault(col, []).append((exps, n))
        top = max((sum(exps) for terms in by_col.values() for exps, _ in terms), default=0)
        acc = {}
        for k, cols in actions:
            moved = [(dst, by_col[src]) for src, dst in cols.items() if src in by_col]
            images = self._integer_images(
                k, {exps for _, terms in moved for exps, _ in terms}, top)
            for col, terms in moved:
                for exps, n in terms:
                    for e, a in images[exps]:
                        acc[col, e] = acc.get((col, e), 0) + a * n
        packed = {ring._pack(col, e): n for (col, e), n in acc.items() if n}
        return element._of_ints(ring, rank, c / self._lcm ** top, packed)

    def _integer_images(self, k, monomials, top):
        """{exps: [(exps, int)]}, the terms of L^top * (w . x^exps) for each
        exps in monomials, w the k-th element and L the lcm of the
        elements' denominators, for top at least every degree of x^exps: a
        signed monomial when w is a signed permutation, else the product of
        w's integer column forms."""
        m, d = self._forms[k]
        lcm, signed, out = self._lcm, self._signed[k], {}
        for exps in monomials:
            degree = sum(exps)
            scale = (lcm // d) ** degree * lcm ** (top - degree)
            if signed is not None:
                src, negated = signed
                odd = sum(exps[j] for j in negated) & 1
                out[exps] = [(tuple([exps[i] for i in src]), -scale if odd else scale)]
                continue
            image = {self.ring.zero_exps: scale}
            for j, e in enumerate(exps):
                column = [(i, row[j]) for i, row in enumerate(m) if row[j]]
                for _ in range(e):
                    step = {}
                    for t, c in image.items():
                        for i, a in column:
                            t2 = t[:i] + (t[i] + 1,) + t[i + 1:]
                            step[t2] = step.get(t2, 0) + a * c
                    image = step
            out[exps] = list(image.items())
        return out

    def _weight_image(self, k, a):
        """The coefficients of w . sum(a_j x_j), w the k-th element and a
        integers, as a tuple of ints; None when they are not all integers."""
        signed = self._signed[k]
        if signed is not None:
            src, negated = signed
            return tuple(-a[j] if j in negated else a[j] for j in src)
        m, d = self._forms[k]
        image = [sum(map(mul, row, a)) for row in m]
        if any(x % d for x in image):
            return None
        return tuple(x // d for x in image)

    def molien_matches(self, series):
        """Whether the Molien series, the average of 1 / det(1 - q^2 w)
        over the elements w and so the Hilbert series of the invariants,
        equals the HilbertSeries series exactly.  The elements are grouped
        by P = det(1 - q^2 w), n_P the number of them, and
        sum_P n_P / P = |W| * num / prod(1 - q^d) is compared with both
        sides multiplied by prod(1 - q^d) and the product of the P."""
        classes = {}
        for w in self.elements:
            p = tuple(sorted(_char_det(w).items()))
            classes[p] = classes.get(p, 0) + 1
        dets = [dict(p) for p in classes]
        lhs = {}
        for i, n in enumerate(classes.values()):
            term = {0: n}
            for j, p in enumerate(dets):
                if j != i:
                    term = qpoly_mul(term, p)
            lhs = qpoly_add(lhs, term)
        lhs = qpoly_mul(lhs, qpoly_denominator(series.denominator_degrees))
        rhs = {k: self.order * v for k, v in series.numerator.items()}
        for p in dets:
            rhs = qpoly_mul(rhs, p)
        return lhs == rhs

    def verify(self):
        """Check invariance, the order product, the Molien identity and
        Kostant freeness: a list of CheckReports, each with its theorem tag.
        Every check is exact."""
        checks = [("invariance of candidate %d" % (k + 1), "invariance",
                   all(self._act(row[0], p) == p for row in self.table))
                  for k, p in enumerate(self.invariants)]
        half_degrees = math.prod(d // 2 for d in self.invariant_degrees)
        checks.append(("product of half-degrees equals the group order",
                       "invariant-degree-product", half_degrees == self.order))
        checks.append(("Molien series matches the invariant degrees",
                       "molien-series",
                       self.molien_matches(HilbertSeries({0: 1}, self.invariant_degrees))))
        kostant = "kostant-freeness"
        try:
            basis = self.coinvariant_basis()
            checks.append(("coinvariant count equals the group order",
                           kostant, len(basis) == self.order))
            checks.append(("Kostant freeness identity", kostant,
                           self._kostant_identity()))
        except ExponentLimitError:
            raise  # the basis was never computed, so nothing is decided
        except ValueError:
            checks.append(("coinvariant basis is finite and of the right size",
                           kostant, False))
        return [CheckReport.of(name, ok, theorem=tag) for name, tag, ok in checks]

    def _invariant_gb(self):
        """Groebner data of the invariant ideal, without its syzygies:
        coinvariant_basis reads its leads, _expand_monomial its normal forms
        and cofactors."""
        if self._inv_gb is None:
            cols = [Vector.from_polys([p], 1) for p in self.invariants]
            self._inv_gb = SubmoduleGB(self.ring, 1, cols, syzygies=False)
        return self._inv_gb

    def coinvariant_basis(self):
        """Standard monomials modulo the invariant ideal (Kostant basis)."""
        if self._coinvariants is not None:
            return self._coinvariants
        leads = [v.lead()[0][1] for v in self._invariant_gb().gb]
        bounds = []
        for i in range(self.rank):
            pure = [e[i] for e in leads
                    if all(e[j] == 0 for j in range(self.rank) if j != i) and e[i] > 0]
            if not pure:
                raise ValueError(
                    "invariant ideal is not zero-dimensional; datum inconsistent")
            bounds.append(min(pure))
        basis = []
        stack = [()]
        for i in range(self.rank):
            stack = [s + (e,) for s in stack for e in range(bounds[i])]
        for exps in stack:
            if not any(all(l[j] <= exps[j] for j in range(self.rank)) for l in leads):
                basis.append(exps)
        basis.sort(key=lambda e: (self.ring.weighted_degree(e), e))
        if len(basis) != self.order:
            raise ValueError("coinvariant count %d differs from group order %d"
                             % (len(basis), self.order))
        self._coinvariants = basis
        return basis

    def poincare_polynomial(self):
        """Degree generating polynomial of the coinvariant basis."""
        out = {}
        for exps in self.coinvariant_basis():
            d = self.ring.weighted_degree(exps)
            out[d] = out.get(d, 0) + 1
        return out

    def _kostant_identity(self):
        # P_W(q) * prod(1-q^2) == prod(1 - q^(2 d_i)), exactly
        return (qpoly_mul(self.poincare_polynomial(), qpoly_denominator(self.ring.degrees))
                == qpoly_denominator(self.invariant_degrees))

    def embedding(self):
        """Ring map from the invariant ring into R_T."""
        return RingMap(self.invariant_ring, self.ring, self.invariants)

    def expand(self, poly):
        """Write poly as sum of coinvariant basis monomials with invariant
        coefficients: returns {basis exps: Polynomial over the invariant ring},
        without zero coefficients."""
        coords = self.expand_vector(poly, 1).to_polys()
        return {b: c for b, c in zip(self.coinvariant_basis(), coords) if not c.is_zero()}

    def expand_vector(self, vector, ambient_rank):
        """Coordinates of an R_T vector (or Polynomial, for ambient_rank 1)
        in the free invariant-ring module of rank ambient_rank * |B|, B the
        coinvariant basis: column col * |B| + j holds the coefficient of
        the j-th monomial of B in coordinate col.  Built in integer form."""
        return self._expand(ambient_rank, [(vector, self.invariant_ring._mask)])

    def _expand(self, width, elements):
        """The coordinates, in the free invariant-ring module of rank
        width * |B|, of the sum of y^m * f over (f, m) in elements, f an
        R_T element and m the packed column-0 key of an invariant-ring
        monomial y^m.  Each term n * x^k in column col of f = c * F adds
        c * n * y^m * E(x^k), E(x^k) = _expand_monomial(x^k) shifted to
        columns col * |B| + j, in one accumulator (_scaled_dot), as
        gradmod._apply sums a map's image."""
        ring, inv = self.ring, self.invariant_ring
        cshift, size = ring._cshift, len(self.coinvariant_basis())
        used = []
        for f, m in elements:
            c, (_, ints) = f._form
            for key, n in ints.items():
                col = -(key >> cshift)
                ce, (_, e) = self._expand_monomial(key + (col << cshift))._form
                # a product key is in the sum of its factors' columns (_dot)
                used.append((c * ce, e, {m - (col * size << inv._cshift): n}))
        s, ints = _scaled_dot(inv, used)
        return Vector._of_ints(inv, width * size, s, ints)

    def _expand_monomial(self, key):
        """The coordinates E(x^k) of the monomial with packed column-0 key
        key, a Vector of rank |B| computed once: the unit vector of a
        coinvariant monomial, else the sum over x^k = nf + sum h_i p_i
        (reduce_with_certificate) of nf's coordinates and of y_i times
        h_i's, the h_i being of lower degree.  The coordinates are unique,
        so any valid cofactors h_i give them."""
        cache = self._expand_cache
        if not cache:
            basis = self.coinvariant_basis()
            cache.update((self.ring._pack(0, b), Vector.unit(
                self.invariant_ring, len(basis), j)) for j, b in enumerate(basis))
        if key not in cache:
            mono = Vector._of_ints(self.ring, 1, Fraction(1), {key: 1})
            nf, coeffs = self._invariant_gb().reduce_with_certificate(mono)
            cache[key] = self._expand(1, [(nf, self.invariant_ring._mask)]
                                      + list(zip(coeffs, self._y_keys)))
        return cache[key]

    def invariant_module_layout(self, ambient_rank):
        """Degrees of the (ambient coordinate, coinvariant monomial) basis."""
        return [self.ring.weighted_degree(b)
                for b in self.coinvariant_basis()] * ambient_rank


def _walk(gens, identity, product, max_order):
    """(table, elements) of the breadth-first walk from identity, in
    discovery order, table[gi][k] the index of product(gens[gi],
    elements[k]); the elements are hashable and unique to the group
    element."""
    elements, seen, table = [identity], {identity: 0}, [[] for _ in gens]
    for x in elements:  # grows while iterated
        for g, row in zip(gens, table):
            y = product(g, x)
            k = seen.get(y)
            if k is None:
                k = seen[y] = len(elements)
                elements.append(y)
                if len(elements) > max_order:
                    raise GroupClosureError("group closure exceeds the bound %d" % max_order)
            row.append(k)
    return table, elements


def _matrix_product(g, x):
    """The integer form of the product of two matrices given by theirs."""
    (a, da), (b, db) = g, x
    cols = tuple(zip(*b))
    return _content_free_matrix(
        tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a), da * db)


def _signed_images(matrix):
    """The images of a signed permutation matrix, images[j] = +-(i + 1)
    when x_j goes to +-x_i; None for an integer matrix that is not one."""
    images = []
    for col in zip(*matrix):
        rows = [i for i, x in enumerate(col) if x]
        if len(rows) != 1 or abs(col[rows[0]]) != 1:
            return None
        images.append(rows[0] + 1 if col[rows[0]] > 0 else -rows[0] - 1)
    return tuple(images)


def _compose_images(g, x):
    """The images of the product g * x of two signed permutations."""
    return tuple(g[y - 1] if y > 0 else -g[-y - 1] for y in x)


def _images_matrix(images):
    """The integer matrix of a signed permutation given by its images."""
    rows = [[0] * len(images) for _ in images]
    for j, y in enumerate(images):
        rows[abs(y) - 1][j] = 1 if y > 0 else -1
    return tuple(map(tuple, rows))


def _signed_permutation(images):
    """(src, negated) of a signed permutation given by its images: x_j
    goes to +-x_i with src[i] = j, and negated lists the j whose image has
    sign -1."""
    src = [0] * len(images)
    for j, y in enumerate(images):
        src[abs(y) - 1] = j
    return tuple(src), tuple(j for j, y in enumerate(images) if y < 0)


def _char_det(matrix):
    """det(1 - q^2 M) as a q-polynomial {exponent of q: Fraction}."""
    ring = GradedPolynomialRing(["q"], (2,))
    q2 = ring.monomial((2,))
    n = len(matrix)
    ent = [[(ring.one() if i == j else ring.zero()) - q2.scale(matrix[i][j])
            for j in range(n)] for i in range(n)]
    return {e[0]: c for e, c in determinant(ent, ring).terms.items()}


class WEquivariantFreeModule:
    """Free R_T module on a finite index set with a compatible group action.

    Each group generator permutes the index set, and every group element w
    acts on coefficients as it acts on R_T.  Consistency (the permutations
    extending to a homomorphism) is checked while replaying the group
    closure, which also finds the orbits of the index set that _at_reps
    averages over and _spread_reps fills.
    """

    def __init__(self, group, index_names, generator_permutations):
        self.group = group
        self.names = tuple(index_names)
        if len(generator_permutations) != len(group.generators):
            raise DatumError("need one permutation per group generator")
        position = {n: i for i, n in enumerate(self.names)}
        self.gen_perms = []
        for perm in generator_permutations:
            if set(perm) != set(self.names) or set(perm.values()) != set(self.names):
                raise DatumError("permutation must be a bijection of the index set")
            self.gen_perms.append(tuple(position[perm[n]] for n in self.names))
        self._action_of, self._reps, self._gather, self._spread = self._replay_closure()

    def _replay_closure(self):
        """(actions, reps, gather, spread).  actions[k][i] is where element
        k sends position i; two generator words for one element must give
        one permutation (homomorphism).  Each orbit is represented by its
        first position v0, reps[r] the r-th of them.  gather holds, for each
        element w, w's action moving position w^-1 v0 to column r for every
        representative v0 = reps[r]; spread holds, for each element u that
        is the first, in discovery order, to send some v0 to a position v,
        u's action moving column r to each such v."""
        actions = [None] * self.group.order
        actions[0] = tuple(range(self.rank))
        for k in range(self.group.order):
            for gperm, row in zip(self.gen_perms, self.group.table):
                composed = tuple(gperm[p] for p in actions[k])
                if actions[row[k]] is None:
                    actions[row[k]] = composed
                elif actions[row[k]] != composed:
                    raise DatumError("action is inconsistent with the group law")
        reps, spread, found = [], {}, [False] * self.rank
        for v0 in range(self.rank):
            if not found[v0]:
                reps.append(v0)
                for k, perm in enumerate(actions):
                    v = perm[v0]
                    if not found[v]:
                        found[v] = True
                        spread.setdefault(k, {})[len(reps) - 1] = v
        gather = []
        for k, perm in enumerate(actions):
            source = {v: i for i, v in enumerate(perm)}
            gather.append((k, {source[v0]: r for r, v0 in enumerate(reps)}))
        return actions, reps, gather, sorted(spread.items())

    @property
    def rank(self):
        return len(self.names)

    def _at_reps(self, vector):
        """The values of the average Rf at the representatives, column r
        holding (Rf)_{v0} = (1/|W|) sum over w of w.f_{w^-1 v0} for
        v0 = reps[r] (gather): one ReflectionGroup._images sum on integer
        numerators.  An invariant tuple is fixed by these values, as
        (Rf)_{u v0} = u.(Rf)_{v0}, so F -> F|reps is injective and
        R^W-linear on invariant tuples."""
        group = self.group
        return group._images(vector, self._gather, len(self._reps)).scale(
            Fraction(1, group.order))

    def _spread_reps(self, at_reps):
        """The invariant tuple with the given values at the representatives:
        each position v of the orbit of v0 = reps[r] holds u.(column r) for
        one element u with u v0 = v (spread), one _images sum."""
        return self.group._images(at_reps, self._spread, self.rank)

    def invariants(self, submodule_gens, hilbert):
        """Invariant tuples of a submodule as a module over the invariant ring.

        hilbert is the Hilbert series of a W-stable submodule M of R_T^rank
        (coordinates in degree 0) holding every g in submodule_gens (for all
        of R_T^rank: the unit vectors, HilbertSeries({0: rank}, R_T's
        degrees)).  Candidates are the Reynolds images R(g.b), g nonzero and
        homogeneous and b a coinvariant monomial, visited by (degree, pair
        index).  One is kept unless it lies in the R^W-span S of those kept
        (the R_T-span of invariant tuples meets them in S, by the Reynolds
        projector); so the kept ones generate minimally (Nakayama).  All of it
        is decided on representative coordinates: a candidate gets only its
        values at the representatives (_at_reps), expanded over R^W in rank
        #reps * |B| (expand_vector), which is injective and R^W-linear on
        invariant tuples.  So membership in S, tested by a Groebner basis of
        the kept coordinates grown in visit order, and the relations among the
        kept ones (syzygy_basis, in pair order) are those of their
        coordinates.  The kept values are spread to full tuples only when
        InvariantsResult.generators is read.  As M is W-stable, every
        candidate lies in M, and so does S.  Once dim_Q (R_T S)_d = dim_Q M_d,
        every later candidate of degree d lies in S, so it is skipped without
        a Reynolds image (the Hilbert-series stop: Derksen and Kemper,
        Computational Invariant Theory, ch. 3).  R_T is free over R^W on B
        (Chevalley), and R_T (x) S -> R_T^rank is injective, so the series of
        R_T S is P_W Hilb_{R^W}(S), P_W the Poincare polynomial of B.  With
        prod(1 - q^d_i) = P_W (1 - q^2)^r (Kostant; it holds once the
        invariant ideal is zero-dimensional, as coinvariant_basis checks),
        that is the numerator of Hilb_{R^W}(S), read off the leads of the
        coordinates' basis, over R_T's denominator.  Once it equals M's
        series, R_T S = M holds every later candidate, in a full degree.  With
        R_T^rank's series the stop is sound for any generators, W-stable span
        or not.
        """
        group = self.group
        ring, inv = group.ring, group.invariant_ring
        basis = group.coinvariant_basis()
        gens0 = [g for g in submodule_gens if not g.is_zero()]
        pairs = [(g, b) for g in gens0 for b in basis]
        col_degrees = (0,) * self.rank
        gdegs = [g.homogeneous_degree(col_degrees) for g in gens0]
        degrees = [e + d for e in gdegs for d in group.invariant_module_layout(1)]
        top = max(degrees, default=0)
        target = hilbert.coefficients(top)
        nreps = len(self._reps)
        layout = group.invariant_module_layout(nreps)
        at, coords, span, memo = {}, {}, GroebnerBasis(inv), {}

        def full_degrees():
            # where R_T S is all of M: its series has the numerator of Hilb_{R^W}(S)
            have = HilbertSeries(span_hilbert_numerator(inv, layout, span._leads, memo),
                                 ring.degrees).coefficients(top)
            return {d for d in set(degrees) if have.get(d, 0) == target.get(d, 0)}

        full = full_degrees()
        for k in sorted(range(len(pairs)), key=lambda k: (degrees[k], k)):
            if degrees[k] in full:
                continue
            g, b = pairs[k]
            v = self._at_reps(g.poly_mul(ring.monomial(b)))
            c = group.expand_vector(v, nreps)
            if not span.add(c):
                continue
            at[k], coords[k] = v, c
            full = full_degrees()
        kept = sorted(at)
        coords = [coords[k] for k in kept]
        rels = syzygy_basis(inv, nreps * len(basis), coords)
        module = FPModule.from_columns(inv, _degrees_of(coords, layout), rels)
        return InvariantsResult(self, module, [at[k] for k in kept])


class InvariantsResult:
    def __init__(self, owner, module, values):
        self.module = module
        self._owner = owner
        self._values = values  # the generators' values at the representatives

    @cached_property
    def generators(self):
        """The generators as invariant tuples over R_T, spread on first read."""
        return [self._owner._spread_reps(v) for v in self._values]


def cyclic_sign_group():
    """Order-2 group t -> -t in rank one, with invariant t^2."""
    ring = GradedPolynomialRing(["t"], (2,))
    t = ring.var(0)
    return ReflectionGroup([[[-1]]], [t * t], ring=ring)


def symmetric_group_on_sum_zero(n):
    """S_n acting on coordinates x_1..x_{n-1} with x_n = -(x_1+...+x_{n-1}).

    Fundamental invariants are the restricted elementary symmetric
    polynomials e_2, ..., e_n.
    """
    if not 2 <= n <= 4:
        raise ValueError("only symmetric groups on 2..4 letters are built in")
    rank = n - 1
    ring = GradedPolynomialRing(["x%d" % (i + 1) for i in range(rank)], (2,) * rank)
    xs = ring.vars()
    last = ring.zero()
    for v in xs:
        last = last - v
    coords = xs + [last]
    gens = []
    # adjacent transpositions s_i: swap coords i, i+1
    for i in range(n - 1):
        images = list(coords)
        images[i], images[i + 1] = images[i + 1], images[i]
        # matrix columns: image of variable j expressed in the variables
        mat = [[Fraction(0)] * rank for _ in range(rank)]
        for j in range(rank):
            for exps, c in images[j].terms.items():
                var = exps.index(1)
                mat[var][j] = c
        gens.append(mat)
    invariants = []
    for k in range(2, n + 1):
        invariants.append(_elementary_symmetric(ring, coords, k))
    return ReflectionGroup(gens, invariants, ring=ring)


def _elementary_symmetric(ring, polys, k):
    acc = ring.zero()
    for combo in combinations(range(len(polys)), k):
        prod = ring.one()
        for i in combo:
            prod = prod * polys[i]
        acc = acc + prod
    return acc


def signed_permutation_rank2():
    """Order-8 rank-2 group generated by the swap and one sign flip."""
    ring = GradedPolynomialRing(["x", "y"], (2, 2))
    x, y = ring.vars()
    swap = [[0, 1], [1, 0]]
    flip = [[1, 0], [0, -1]]
    return ReflectionGroup([swap, flip], [x * x + y * y, x * x * y * y], ring=ring)


def product_group(g1, g2):
    """Direct product acting blockwise, invariants lifted from the factors."""
    names = [n + "_1" for n in g1.ring.names] + [n + "_2" for n in g2.ring.names]
    ring = GradedPolynomialRing(names, g1.ring.degrees + g2.ring.degrees)
    r1, r2 = g1.rank, g2.rank

    def blow(mat, offset, size):
        full = [[Fraction(1 if i == j else 0) for j in range(r1 + r2)]
                for i in range(r1 + r2)]
        for i in range(size):
            for j in range(size):
                full[offset + i][offset + j] = mat[i][j]
        return full

    gens = [blow(g, 0, r1) for g in g1.generators]
    gens += [blow(g, r1, r2) for g in g2.generators]

    def lift(poly, offset):
        out = ring.zero()
        for exps, c in poly.terms.items():
            full = [0] * (r1 + r2)
            for i, e in enumerate(exps):
                full[offset + i] = e
            out = out + ring.monomial(full, c)
        return out

    invs = [lift(p, 0) for p in g1.invariants] + [lift(p, r1) for p in g2.invariants]
    return ReflectionGroup(gens, invs, ring=ring)


def group_from_json(obj):
    """Group JSON: {"rank": r, "generators": [...], "invariants": [...]}."""
    rank, gens = obj["rank"], obj["generators"]
    ring = _torus_ring(rank, obj.get("vars"), len(gens[0]) if gens else 0, "generator size")
    invs = [ring.parse(s) for s in obj["invariants"]]
    max_order, = _integers([obj.get("max_order", 10080)], "max_order")
    return ReflectionGroup(gens, invs, ring=ring, max_order=max_order)
