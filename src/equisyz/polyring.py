"""Exact graded polynomial arithmetic over Q.

Weighted polynomial rings with positive even variable degrees,
degree-reverse-lexicographic monomial order (position-over-term for free
modules, earlier columns greater), Buchberger's algorithm for submodules of
graded free modules, normal forms, syzygies modulo relations via block
elimination, and Hilbert series from staircase counts.  One Buchberger
state, GroebnerBasis, serves buchberger and greedy minimal generation (add,
contains); each of its pending S-pairs carries its lcm.  Cofactors come
only from aux columns, one per generator whose cofactor is read: divide and
SubmoduleGB reduce by block vectors g_i + e_i (a SubmoduleGB's relations
have none) and read them off the remainder (_certificate).  Nothing here
ever touches a float.

Public terms are (col, exps) tuples and every public coefficient is an
exact Fraction.  Inside the core (_reduce, s_vector, GroebnerBasis) each
term is one int (GradedPolynomialRing._pack): 16-bit exponent fields below
the weighted degree below the column, so terms compare, multiply by a
monomial and divide as ints, and divisibility is a guard-bit test.  An
exponent above EXPONENT_LIMIT (32767) raises ExponentLimitError when an
element is built and in any product; nothing wraps around.

A Polynomial or Vector is its integer form (_Element): a Fraction content
c and primitive packed integer terms, the element being c times them.  The
form is the state; the Fraction terms are a view, kept from the terms an
element was built from or unpacked on first read.  Sums, scalings and
products by a Polynomial work on forms, and the core reduces them by
fraction-free pseudo-division.  A Polynomial's keys are column-0 keys, so
it is the column (p) of R^1 with no repacking (_column), a product key is
the sum of two keys less _mask (_dot), and determinant runs Bareiss on
these forms.  What the core returns is born in its form: the reduced
bases, the block vectors g_i + e_i, the ambient parts and syzygies
SubmoduleGB splits off on packed keys (_columns_below), and the cofactors
read off aux columns.
"""

import heapq
import re
import struct
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg

__all__ = [
    "GradedPolynomialRing", "Polynomial", "Vector", "RingMap", "HilbertSeries",
    "GroebnerBasis", "buchberger", "divide", "s_vector",
    "SubmoduleGB", "syzygy_basis", "quotient_hilbert_series", "span_hilbert_numerator",
    "qpoly_mul", "qpoly_denominator",
    "determinant", "DatumError", "ExponentLimitError",
    "EXPONENT_LIMIT",
]


class DatumError(ValueError):
    """Raised when the input data violates its structural contracts."""


# The Groebner core packs each exponent into a 16-bit field whose top bit
# is a guard, so a product of two admissible monomials never carries into
# the next field and an exponent past the limit shows in the guard bit.
_FIELD = 16
EXPONENT_LIMIT = (1 << (_FIELD - 1)) - 1


class ExponentLimitError(ValueError):
    """Raised when an exponent exceeds EXPONENT_LIMIT, the largest one a
    packed monomial of the Groebner core holds."""


_ONE = Fraction(1)


def _fr(x):
    """Coerce ints, strings like '3/2' and Fractions to Fraction; a bool
    (JSON true or false) is not a number."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (x,)) from None
    raise TypeError("not an exact rational: %r" % (x,))


def _integers(values, what):
    """JSON integer fields as a tuple of ints; each entry is a number or a
    string ("2") with an integer value, anything else (a bool too) a
    DatumError."""
    try:
        qs = [Fraction(x) for x in values if not isinstance(x, bool)]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        qs = None
    if qs is None or len(qs) < len(values) or any(q.denominator != 1 for q in qs):
        raise DatumError("%s must be integers, got %r" % (what, values))
    return tuple(int(q) for q in qs)


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


_TERM_SPLIT = re.compile(r"[+-]?[^+-]+")
_RATIONAL = re.compile(r"^\d+(/\d+)?$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VARPOW = re.compile(r"^(%s)(?:\^(\d+))?$" % _NAME.pattern)


class GradedPolynomialRing:
    """Polynomial ring over Q whose variables carry positive even weights."""

    def __init__(self, names, degrees=None):
        if not (isinstance(names, (list, tuple))
                and all(isinstance(n, str) and _NAME.fullmatch(n) for n in names)):
            raise ValueError("variable names must be a list of names matching "
                             "%s, got %r" % (_NAME.pattern, names))
        names = tuple(names)
        degrees = (2,) * len(names) if degrees is None else _integers(degrees, "degrees")
        if len(degrees) != len(names):
            raise ValueError("need one degree per variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        for d in degrees:
            if d <= 0 or d % 2 != 0:
                raise ValueError("variable degrees must be positive even integers")
        self.names = names
        self.degrees = degrees
        self.num_vars = len(names)
        self.zero_exps = (0,) * self.num_vars
        # layout of a packed term (_pack): the exponent fields fill the low
        # _top bits, the weighted degree sits above them (k >> _top & _wmask)
        # and the column at _cshift, above any weighted degree of a product
        # of two admissible monomials
        self._top = _FIELD * self.num_vars
        self._mask = (1 << self._top) - 1
        self._guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(self.num_vars))
        self._cshift = self._top + (sum(degrees) << _FIELD).bit_length()
        self._wmask = (1 << (self._cshift - self._top)) - 1
        self._fields = struct.Struct("<%dH" % self.num_vars)

    def __eq__(self, other):
        return (isinstance(other, GradedPolynomialRing)
                and self.names == other.names and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        return "GradedPolynomialRing(%s, degrees=%s)" % (list(self.names), list(self.degrees))

    def zero(self):
        return Polynomial._of_form(self, 1, _ONE, (None, {}))

    def one(self):
        return Polynomial._of_form(self, 1, _ONE, (self._mask, {self._mask: 1}))

    def constant(self, c):
        c = _fr(c)
        return Polynomial(self, {self.zero_exps: c} if c else {})

    def var(self, i):
        exps = tuple(1 if j == i else 0 for j in range(self.num_vars))
        return Polynomial(self, {exps: Fraction(1)})

    def vars(self):
        return [self.var(i) for i in range(self.num_vars)]

    def _exponents(self, exps):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.num_vars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector %r" % (exps,))
        return exps

    def monomial(self, exps, coeff=1):
        exps = self._exponents(exps)
        coeff = _fr(coeff)
        return Polynomial(self, {exps: coeff} if coeff else {})

    def from_terms(self, terms):
        """The sum of the terms (exps, coeff), summed in one dict on packed
        keys and built once: repeated monomials combine, cancelled ones
        drop out, and a nonzero term past EXPONENT_LIMIT raises."""
        acc = {}
        for e, c in terms:
            e, c = self._exponents(e), _fr(c)
            if c:
                k = self._pack(0, e)
                acc[k] = acc.get(k, 0) + c
        return Polynomial._of_form(self, 1, *_form_of({k: c for k, c in acc.items() if c}))

    def weighted_degree(self, exps):
        return sum(map(mul, exps, self.degrees))

    def monomial_key(self, exps):
        # degrevlex refined by weighted degree: larger key = larger monomial
        return (self.weighted_degree(exps), tuple(map(neg, reversed(exps))))

    def vector_key(self, col_exps):
        # position over term, earlier columns greater
        col, exps = col_exps
        return (-col,) + self.monomial_key(exps)

    def _pack(self, col, exps):
        """The term (col, exps) packed into one int for the Groebner core.

        K = -col * 2^_cshift + W * 2^_top + (_mask - P), where P holds the
        exponents in _FIELD-bit fields (the last variable's on top) and W is
        the weighted degree.  A larger K is a larger term in the vector_key
        order.  Multiplying by a monomial m adds W(m) * 2^_top - P(m) to K,
        so the quotient of two terms in one column is the difference of
        their keys, and P = ~K & _mask.
        """
        if exps and max(exps) > EXPONENT_LIMIT:
            raise self._limit_error(exps)
        p = int.from_bytes(self._fields.pack(*exps), "little")
        return ((self.weighted_degree(exps) << self._top) + self._mask - p
                - (col << self._cshift))

    def _exps(self, p):
        """The exponent tuple of packed exponent fields p."""
        return self._fields.unpack(p.to_bytes(self._fields.size, "little"))

    def _unpack(self, key):
        """The term (col, exps) of a packed key."""
        return -(key >> self._cshift), self._exps(~key & self._mask)

    def _limit_error(self, exps):
        e, name = max(zip(exps, self.names))
        return ExponentLimitError(
            "exponent %d of %s exceeds the limit %d of the Groebner core"
            % (e, name, EXPONENT_LIMIT))

    def parse(self, text):
        """Parse polynomial text like ``3/2*x^2*y - y^3``."""
        s = str(text).replace(" ", "")
        if s in ("", "0"):
            return self.zero()
        index = {n: i for i, n in enumerate(self.names)}
        terms = []
        for chunk in _TERM_SPLIT.findall(s):
            sign = Fraction(1)
            if chunk[0] == "+":
                chunk = chunk[1:]
            elif chunk[0] == "-":
                sign = Fraction(-1)
                chunk = chunk[1:]
            if not chunk:
                raise ValueError("empty term in %r" % text)
            coeff = sign
            exps = [0] * self.num_vars
            for factor in chunk.split("*"):
                if _RATIONAL.match(factor):
                    coeff *= _fr(factor)
                    continue
                m = _VARPOW.match(factor)
                if not m or m.group(1) not in index:
                    raise ValueError("bad factor %r in %r" % (factor, text))
                exps[index[m.group(1)]] += int(m.group(2) or 1)
            terms.append((tuple(exps), coeff))
        return self.from_terms(terms)

    def poly_from_json(self, obj):
        """Polynomial from text or a list of ``{"coeff": "3/2", "exps": [...]}``."""
        if isinstance(obj, str):
            return self.parse(obj)
        if isinstance(obj, int) and not isinstance(obj, bool):
            return self.constant(obj)
        if isinstance(obj, list):
            return self.from_terms((_integers(t["exps"], "exponents"), _fr(t["coeff"]))
                                   for t in obj)
        raise ValueError("unrecognized polynomial JSON: %r" % (obj,))

    def descriptor(self):
        return {"vars": list(self.names), "degrees": list(self.degrees)}

    @classmethod
    def from_descriptor(cls, obj):
        if not isinstance(obj, dict):
            raise DatumError("ring must be a JSON object, got %r" % (obj,))
        return cls(obj["vars"], obj.get("degrees"))


_RANK_LIMIT = 1 << 12


def _torus_ring(rank, names, size, what):
    """The ring of the JSON "rank" and "vars" (default t1..t<rank>), all of
    degree 2.  Before anything of length rank is built, rank must equal
    size, the length of the input's own data what, or be at most
    _RANK_LIMIT when that data is empty (size None)."""
    rank, = _integers([rank], "rank")
    if size is not None and rank != size:
        raise DatumError("rank %d does not match the %s, %d" % (rank, what, size))
    if size is None and not 0 <= rank <= _RANK_LIMIT:
        raise DatumError("rank %d is outside 0..%d, the ranks allowed when no %s fixes it"
                         % (rank, _RANK_LIMIT, what))
    return GradedPolynomialRing(names or ["t%d" % (i + 1) for i in range(rank)], (2,) * rank)


class _Element:
    """What Polynomial and Vector share: one exact element of R^rank.

    The state is the integer form _form = (c, (lead, ints)), the element
    being c times ints: ints maps packed keys (ring._pack) to integers
    with gcd 1 and a positive lead coefficient, lead is the largest key
    (None for 0) and c is a Fraction (1 for 0).  The form is unique to the
    element, so equality and hashing compare forms.  The constructor
    computes it from the Fraction terms it is given, and raises
    ExponentLimitError past EXPONENT_LIMIT.  A sum works over the common
    denominator of the two contents, a scaling multiplies the content, and
    a product by a Polynomial multiplies the forms (_dot): by Gauss's lemma
    the product of two primitive forms is primitive, and the monomial order
    makes its lead the product of the leads.  The Fraction terms are a
    view, _view: the terms the element was built from, or unpacked on
    first read.
    """

    __slots__ = ("ring", "rank", "_form", "_view")

    @classmethod
    def _of_form(cls, ring, rank, content, form):
        """The element content * ints of R^rank for an integer form
        form = (lead, ints) as the class describes it."""
        out = cls.__new__(cls)
        out.ring, out.rank, out._form, out._view = ring, rank, (content, form), None
        return out

    @classmethod
    def _of_ints(cls, ring, rank, content, ints):
        """The element content * ints of R^rank for integer terms with no
        zero."""
        if not ints:
            return cls._of_form(ring, rank, _ONE, (None, {}))
        g, form = _content_free(ints)
        return cls._of_form(ring, rank, content * g, form)

    def _like(self, content, form):
        return self._of_form(self.ring, self.rank, content, form)

    def _fractions(self, key):
        """The Fraction terms of the form, keyed by key(packed key)."""
        c, (_, ints) = self._form
        p, q = c.numerator, c.denominator
        return {key(k): Fraction(p * n, q) for k, n in ints.items()}

    def is_zero(self):
        return self._form[1][0] is None

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.rank != other.rank:
            raise ValueError("rank mismatch")

    def __add__(self, other):
        self._check(other)
        (c1, (_, a)), (c2, (_, b)) = self._form, other._form
        if not b:
            return self
        if not a:
            return other
        d = lcm(c1.denominator, c2.denominator)
        s1, s2 = c1.numerator * (d // c1.denominator), c2.numerator * (d // c2.denominator)
        out = {k: s1 * n for k, n in a.items()}
        get = out.get
        for k, n in b.items():
            out[k] = get(k, 0) + s2 * n
        return self._of_ints(self.ring, self.rank, Fraction(1, d),
                             {k: n for k, n in out.items() if n})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        c, form = self._form
        return self if form[0] is None else self._like(-c, form)

    def scale(self, c):
        c = _fr(c)
        content, form = self._form
        if not c:
            return self._like(_ONE, (None, {}))
        return self if form[0] is None else self._like(c * content, form)

    def _times(self, poly):
        """self times the Polynomial poly."""
        if self.ring is not poly.ring and self.ring != poly.ring:
            raise ValueError("ring mismatch")
        (c1, (l1, a)), (c2, (l2, b)) = self._form, poly._form
        if l1 is None or l2 is None:
            return self._like(_ONE, (None, {}))
        ring = self.ring
        return self._like(c1 * c2, (l1 + l2 - ring._mask, _dot(ring, ((a, b),))))

    def __eq__(self, other):
        return (type(other) is type(self) and self.rank == other.rank
                and self.ring == other.ring and self._form == other._form)

    def __hash__(self):
        c, (_, ints) = self._form
        return hash((self.ring, self.rank, c, frozenset(ints.items())))

    def _term_degrees(self, col_degrees):
        """The weighted degree of each term plus its column's degree: a
        packed key holds the weighted degree between _top and _cshift."""
        ring = self.ring
        top, cshift, wmask = ring._top, ring._cshift, ring._wmask
        return {(k >> top & wmask) + col_degrees[-(k >> cshift)] for k in self._form[1][1]}


class Polynomial(_Element):
    """Immutable sparse polynomial over Q: the _Element (p) of R^1, keyed
    by packed column-0 keys (ring._pack(0, e)), so its lead is the
    degrevlex lead.  Its view, terms, maps exponent vectors to nonzero
    rationals.
    """

    __slots__ = ()

    def __init__(self, ring, terms):
        view = {e: c for e, c in terms.items() if c}
        pack = ring._pack
        self.ring, self.rank, self._view = ring, 1, view
        self._form = _form_of({pack(0, e): c for e, c in view.items()})

    @property
    def terms(self):
        if self._view is None:
            exps, mask = self.ring._exps, self.ring._mask
            self._view = self._fractions(lambda k: exps(~k & mask))
        return self._view

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._times(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def homogeneous_degree(self):
        """Common weighted degree, None for 0; raises if inhomogeneous."""
        degs = self._term_degrees((0,))
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous: %s" % self)
        return degs.pop() if degs else None

    def constant_term(self):
        c, (_, ints) = self._form
        return c * ints.get(self.ring._mask, 0)

    def substitute(self, target_ring, images):
        """Apply the ring map sending variable i to images[i], summing the
        scaled images of the monomials in one accumulator (_scaled_dot)."""
        if len(images) != self.ring.num_vars:
            raise ValueError("need one image per variable")
        ring, one = self.ring, target_ring._mask
        c, (_, ints) = self._form
        cache, used = {}, []
        for key, n in ints.items():
            m = target_ring.one()
            for i, e in enumerate(ring._exps(~key & ring._mask)):
                if e:
                    if (i, e) not in cache:
                        cache[i, e] = images[i] ** e
                    m = m * cache[i, e]
            cm, (_, terms) = m._form
            used.append((cm, terms, {one: n}))
        s, terms = _scaled_dot(target_ring, used)
        return Polynomial._of_ints(target_ring, 1, c * s, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: self.ring.monomial_key(t[0]),
                       reverse=True)
        pieces = []
        for exps, coeff in items:
            factors = []
            for name, e in zip(self.ring.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            mono = "*".join(factors)
            a = abs(coeff)
            if not mono:
                body = str(a)
            elif a == 1:
                body = mono
            else:
                body = "%s*%s" % (a, mono)
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda t: self.ring.monomial_key(t[0]),
                       reverse=True)
        return [{"coeff": str(c), "exps": list(e)} for e, c in items]


class RingMap:
    """Graded ring homomorphism determined by homogeneous variable images."""

    def __init__(self, source, target, images):
        if len(images) != source.num_vars:
            raise ValueError("need one image per source variable")
        for i, img in enumerate(images):
            if img.ring != target:
                raise ValueError("image %d lives in the wrong ring" % i)
            d = img.homogeneous_degree()
            if d is None or d != source.degrees[i]:
                raise ValueError("image of variable %d has degree %s, expected %d"
                                 % (i, d, source.degrees[i]))
        self.source = source
        self.target = target
        self.images = tuple(images)

    def __call__(self, poly):
        if poly.ring != self.source:
            raise ValueError("ring mismatch")
        return poly.substitute(self.target, self.images)


class Vector(_Element):
    """Element of a free module R^rank: an immutable _Element whose view,
    data, maps terms (col, exps) to nonzero rationals."""

    __slots__ = ()

    def __init__(self, ring, rank, data):
        view = {k: c for k, c in data.items() if c}
        pack = ring._pack
        self.ring, self.rank, self._view = ring, rank, view
        self._form = _form_of({pack(*k): c for k, c in view.items()})

    @property
    def data(self):
        if self._view is None:
            self._view = self._fractions(self.ring._unpack)
        return self._view

    @classmethod
    def from_polys(cls, polys, rank=None):
        """The vector with components polys: each one's keys moved to its
        column, over the common denominator of their contents."""
        ring = polys[0].ring
        cshift = ring._cshift
        d = lcm(*[p._form[0].denominator for p in polys])
        ints = {}
        for i, p in enumerate(polys):
            c, (_, terms) = p._form
            s, shift = c.numerator * (d // c.denominator), i << cshift
            for k, n in terms.items():
                ints[k - shift] = s * n
        return cls._of_ints(ring, len(polys) if rank is None else rank, Fraction(1, d), ints)

    @classmethod
    def unit(cls, ring, rank, col):
        key = ring._mask - (col << ring._cshift)
        return cls._of_form(ring, rank, _ONE, (key, {key: 1}))

    def component(self, i):
        c, (_, ints) = self._form
        cshift = self.ring._cshift
        shift = i << cshift
        return Polynomial._of_ints(self.ring, 1, c, {
            k + shift: n for k, n in ints.items() if k >> cshift == -i})

    def to_polys(self):
        c, cols = _columns(self)
        return [Polynomial._of_ints(self.ring, 1, c, col) for col in cols]

    poly_mul = _Element._times

    def lead(self):
        c, (k, ints) = self._form
        return self.ring._unpack(k), c * ints[k]

    def monic(self):
        return self if self.is_zero() else _monic(self.ring, self.rank, self._form[1])

    def homogeneous_degree(self, col_degrees):
        """Common degree with generator shifts, None for 0; raises if mixed."""
        degs = self._term_degrees(col_degrees)
        if len(degs) > 1:
            raise ValueError("vector is not homogeneous")
        return degs.pop() if degs else None

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.to_polys()) + ")"

    __repr__ = __str__


def _form_of(terms):
    """The integer form (c, (lead, ints)) of rational terms keyed by packed
    ints, none of them 0: one common denominator, then the content."""
    if not terms:
        return _ONE, (None, {})
    den = lcm(*[c.denominator for c in terms.values()])
    g, form = _content_free({k: c.numerator * (den // c.denominator) for k, c in terms.items()})
    return Fraction(g, den), form


def _content_free(terms):
    """(g, (lead, terms / g)) for nonzero integer terms keyed by packed
    ints: lead is the largest key and g the content of the terms, signed
    so that the lead's coefficient is positive."""
    lead = max(terms)
    g = gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    if g != 1:
        terms = {k: c // g for k, c in terms.items()}
    return g, (lead, terms)


def _dot(ring, pairs):
    """The integer terms of sum(a * b for a, b in pairs), for integer terms
    a and b keyed by packed keys (b's mostly column-0 keys); no entry is 0.

    The key of a product of terms is k1 + k2 - ring._mask, in the sum of
    the two columns.  Exponent fields of two admissible keys sum without a
    carry, so every sum is exact; a surviving term with a guard bit unset
    has an exponent past EXPONENT_LIMIT and raises ExponentLimitError, as
    in _reduce.  Checking the survivors suffices for one product: its top
    degree in each variable never cancels.
    """
    acc = {}
    get = acc.get
    mask = ring._mask
    for a, b in pairs:
        items = [(k - mask, c) for k, c in b.items()]
        for k1, c1 in a.items():
            for k2, c2 in items:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    out = {k: n for k, n in acc.items() if n}
    guard = ring._guard
    for k in out:
        if ~k & guard:
            raise ring._limit_error(ring._unpack(k)[1])
    return out


def _scaled_dot(ring, items):
    """(1 / d, the integer terms of d * sum(q * a * b)) over the items
    (q, a, b), q a Fraction and a, b integer terms as _dot takes them:
    one accumulator over the lcm d of the denominators of the q."""
    d = lcm(*[q.denominator for q, _, _ in items])
    pairs = []
    for q, a, b in items:
        s = q.numerator * (d // q.denominator)
        pairs.append((a, {k: s * n for k, n in b.items()}))
    return Fraction(1, d), _dot(ring, pairs)


def _sugar(ring, terms):
    """The largest weighted degree of the packed terms, with no column
    shift: it sits between bits _top and _cshift of a key."""
    top, wmask = ring._top, ring._wmask
    return max(k >> top & wmask for k in terms)


def _monic(ring, rank, form):
    """The monic Vector of an integer form (lead, terms)."""
    return Vector._of_form(ring, rank, Fraction(1, form[1][form[0]]), form)


def _columns_below(v, width):
    """The Vector of R^width holding exactly v's terms in columns < width."""
    c, (lead, terms) = v._form
    bound = (1 - width) << v.ring._cshift
    part = {k: n for k, n in terms.items() if k >= bound}
    if len(part) == len(terms):
        return Vector._of_form(v.ring, width, c, (lead, terms))
    return Vector._of_ints(v.ring, width, c, part)


def s_vector(f, g):
    """S-vector of two vectors whose leads sit in the same column.

    Built from the primitive forms F and G: with m the lcm of the lead
    monomials and d the gcd of the lead coefficients,
    (lc(G)/d) (m/lm(F)) F - (lc(F)/d) (m/lm(G)) G.  Its coefficients are
    integers, and it is a positive multiple of the S-vector of the monic
    forms of f and g.
    """
    ring = f.ring
    pf, pg = f._form[1], g._form[1]
    col, ef = ring._unpack(pf[0])
    cg, eg = ring._unpack(pg[0])
    assert col == cg
    terms = _s_terms(ring, pf, pg, ring._pack(col, _mono_lcm(ef, eg)))
    return Vector._of_ints(ring, f.rank, _ONE, terms)


def _s_terms(ring, f, g, m):
    """The packed terms of s_vector for packed primitive forms f and g
    whose leads have the packed lcm m."""
    (kf, fi), (kg, gi) = f, g
    lf, lg = fi[kf], gi[kg]
    d = gcd(lf, lg)
    a, b = lg // d, lf // d
    mf, mg = m - kf, m - kg
    out = {k + mf: a * v for k, v in fi.items()}
    for k, v in gi.items():
        t = k + mg
        s = out.get(t, 0) - b * v
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    guard = ring._guard
    for t in out:
        if ~t & guard:
            raise ring._limit_error(ring._unpack(t)[1])
    return out


def _index(ring, forms, index=None):
    """The divisor index _reduce reads, built once by the owner of the
    divisors and extended in place when index is given: for each column key
    (lead >> _cshift), the entries (lead, ~lead & _mask, lead coefficient,
    terms) of the packed primitive forms (lead, terms) led there, in list
    order."""
    index = {} if index is None else index
    mask, cshift = ring._mask, ring._cshift
    for lead, ints in forms:
        index.setdefault(lead >> cshift, []).append((lead, ~lead & mask, ints[lead], ints))
    return index


def _reduce(ring, terms, index):
    """Fraction-free full division of packed integer terms by the packed
    primitive forms of the divisors, given by their _index.

    Returns (a, rem): a positive integer a and packed integer terms rem with
    a * terms = sum(q_i * divisors[i]) + rem, where no term of rem is
    divisible by any divisor's lead.  Each term is reduced by the first
    divisor (in list order) whose lead divides it, as by pseudo-division:
    for the term's coefficient c, the divisor's lead coefficient l
    (positive) and g = gcd(c, l), everything pending and the remainder so
    far are multiplied by l/g when that is not 1, and then (c/g) times the
    divisor's monomial multiple is subtracted.  So every choice is that of
    division over Q, and every intermediate result a positive multiple of
    it.  The q_i are not kept; _certificate reads them off aux columns.

    The pending terms sit in the dict p, and those in a column where some
    divisor has its lead also in a heap of negated keys (Monagan-Pearce); a
    cancelled term stays in the heap and is skipped when popped.  Reduction
    only adds terms smaller than the one reduced, so a popped term never
    re-enters.  A term in a column with no divisor lead (an aux column of
    _certificate, say) can never be reduced: it stays in p, scaled with the
    rest, and joins the remainder once the heap is empty.  A lead divides a
    term of its column when the guard-bit subtraction of their exponent
    fields borrows from no guard.  A product with a guard bit set has an
    exponent past EXPONENT_LIMIT; its key equals no admissible key, so
    checking the new terms checks them all.
    """
    mask, guard, cshift = ring._mask, ring._guard, ring._cshift
    scale = 1
    rem = {}
    p = dict(terms)
    heap = [-k for k in p if k >> cshift in index]
    heapq.heapify(heap)
    while heap:
        t = -heapq.heappop(heap)
        coeff = p.get(t)
        if coeff is None:
            continue
        fields = ~t & mask | guard
        for lead, lfields, glc, ints in index[t >> cshift]:
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
                        if t2 >> cshift in index:
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
    rem.update(p)
    return scale, rem


def _blocks(ring, rank, gens):
    """The block vectors g_i + e_(rank+i) in R^(rank+s), s = len(gens).

    Built from integer forms: for g = (p/q) * terms, the block is
    (1/q) * (p * terms + q * e_(rank+i)), whose terms have gcd 1; both are
    negated when p < 0, so that the lead coefficient stays positive.
    """
    width = rank + len(gens)
    out = []
    for i, g in enumerate(gens):
        c, (lead, terms) = g._form
        p, q = c.numerator, c.denominator
        if p < 0:
            p, q = -p, -q
        aux = ring._mask - ((rank + i) << ring._cshift)
        block = {k: p * n for k, n in terms.items()}
        block[aux] = q
        out.append(Vector._of_form(ring, width, Fraction(1, q),
                                   (aux if lead is None else lead, block)))
    return out


def _block_index(ring, rank, gens):
    """The _index of the block vectors of gens (_blocks)."""
    return _index(ring, [b._form[1] for b in _blocks(ring, rank, gens)])


def _certificate(v, index, rank, count):
    """(cofactors, remainder) with v = sum(cofactors[i] * g_i) + remainder,
    for v in R^rank and index the _index of the block vectors
    g_i + e_(rank+i), i < count, or of a Groebner basis of them.

    Every aux column is smaller than every ambient one, so _reduce of the
    packed form of v reduces its ambient part and leaves the cofactors,
    negated, on the aux columns of its remainder; both are rescaled here.
    The remainder and the cofactors are born in their integer forms, the
    cofactors' keys shifted to column 0.
    """
    ring = v.ring
    cshift = ring._cshift
    content, (_, terms) = v._form
    scale, rem = _reduce(ring, terms, index)
    s = content / scale
    nf, quots = {}, [{} for _ in range(count)]
    for k, c in rem.items():
        col = -(k >> cshift)
        if col < rank:
            nf[k] = c
        else:
            quots[col - rank][k + (col << cshift)] = c
    minus, zero = -s, ring.zero()
    return ([Polynomial._of_ints(ring, 1, minus, q) if q else zero for q in quots],
            Vector._of_ints(ring, rank, s, nf))


def divide(f, divisors):
    """Full division: f = sum(q_i * divisors[i]) + remainder.

    No remainder term is divisible by any divisor's lead; each term is
    reduced by the first divisor (in list order) whose lead divides it.
    Returns (quotients as Polynomials, remainder Vector), exact over Q, by
    _certificate on the block vectors of the divisors, whose leads are the
    divisors' leads.
    """
    index = _block_index(f.ring, f.rank, divisors)
    return _certificate(f, index, f.rank, len(divisors))


def _column(p):
    """The Vector (p) of R^1, whose integer form is p's."""
    return Vector._of_form(p.ring, 1, *p._form)


def _columns(v):
    """(c, [terms of each column]) with v == c * the columns: v's integer
    terms split by column, each column's keys shifted to column 0."""
    cshift = v.ring._cshift
    c, (_, ints) = v._form
    cols = [{} for _ in range(v.rank)]
    for k, n in ints.items():
        col = -(k >> cshift)
        cols[col][k + (col << cshift)] = n
    return c, cols


def _exact_divide(f, g):
    """(f / g, True) when g divides f, else (None, False)."""
    q, rem = divide(_column(f), [_column(g)])
    if rem.is_zero():
        return q[0], True
    return None, False


def determinant(matrix, ring):
    """Determinant of a square polynomial matrix, by fraction-free elimination.

    Bareiss (1968) on integer forms: the entries are scaled to packed
    integer terms by one common denominator D, and the determinant of that
    matrix is divided by D^n at the end.  Every entry of the trailing block
    is a minor of the scaled matrix, so the division by the previous pivot
    is exact: an integer division when that pivot is a constant, else read
    off the pivot's block vector (_certificate).  Each column's pivot is
    its first constant in rows k..n-1, else its nonzero entry of lowest
    weighted degree (the degree of its lead key), so the divisions stay
    integer divisions whenever the matrix allows; each row swap flips the
    sign.
    """
    n = len(matrix)
    if n == 0:
        return ring.one()
    forms = [[p._form for p in row] for row in matrix]
    den = lcm(*[c.denominator for row in forms for c, _ in row])
    m = []
    for row in forms:
        m.append([])
        for c, (_, ints) in row:
            scale = c.numerator * (den // c.denominator)
            m[-1].append({k: v * scale for k, v in ints.items()})
    top, wmask, mask = ring._top, ring._wmask, ring._mask
    sign = 1
    prev = {mask: 1}
    for k in range(n - 1):
        rows = [i for i in range(k, n) if m[i][k]]
        if not rows:
            return ring.zero()
        # min keeps the first of equal keys: the first constant, if any
        swap = min(rows, key=lambda i: max(m[i][k]) >> top & wmask)
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        piv, pivot_row = m[k][k], m[k]
        if len(prev) == 1 and mask in prev:
            c, index = prev[mask], None
        else:
            c, index = None, _block_index(ring, 1, [Vector._of_ints(ring, 1, _ONE, prev)])
        for i in range(k + 1, n):
            row = m[i]
            below = {key: -v for key, v in row[k].items()}
            for j in range(k + 1, n):
                # a zero factor leaves its product out (most entries of the
                # pairing check's Gram matrices are zero)
                pairs = [(row[j], piv)] if row[j] else []
                if below and pivot_row[j]:
                    pairs.append((below, pivot_row[j]))
                num = _dot(ring, pairs)
                if num and index is not None:
                    (q,), rem = _certificate(Vector._of_ints(ring, 1, _ONE, num), index, 1, 1)
                    if not rem.is_zero():
                        raise ArithmeticError("Bareiss division is not exact")
                    # a minor of an integer matrix: its content is an integer
                    qc, (_, qi) = q._form
                    num = {key: v * qc.numerator for key, v in qi.items()}
                elif num and c != 1:
                    num = {key: v // c for key, v in num.items()}
                row[j] = num
        prev = piv
    return Polynomial._of_ints(ring, 1, Fraction(sign, den ** n), m[n - 1][n - 1])


class GroebnerBasis:
    """A Groebner basis grown one generator at a time: packed primitive
    forms (lead, terms), their _index, their leads (col, exps),
    single-column flags, sugar degrees and the pending S-pairs, a dict
    from each same-column pair (i, j), i < j, to its sugar and the packed
    key and exponents of its lcm, made once with the pair.  Pairs are
    reduced least sugar, then key, then (i, j), first (Giovini, Mora,
    Niesi, Robbiano and Traverso, ISSAC 1991): an input's sugar is its
    largest weighted term degree, with no column shift, and a pair's
    remainder inherits the pair's.  The first _raw forms went in
    unreduced (buchberger's inputs); every later one is a remainder, fully
    reduced against the forms before it, which reduced reads to skip its
    tail.

    With ambient = a, only the columns below a count: a form led in a
    column at or past a (a syzygy of block vectors, say) is dropped, not
    inserted, and the product criterion reads only the terms below a.  The
    forms' parts below a are then a Groebner basis of the parts below a of
    the span, and no syzygy is made: a pair whose parts below a lie in one
    column with coprime leads reduces to a form with no term there."""

    def __init__(self, ring, ambient=None):
        self.ring = ring
        self._forms, self._leads, self._single, self._sugar, self._pairs = [], [], [], [], {}
        self._index, self._raw = {}, 0
        self._bound = None if ambient is None else (1 - ambient) << ring._cshift

    def _insert(self, form, sugar):
        """Append form with its sugar and update the pending pairs,
        Gebauer-Moeller style, restricted to same-column pairs; the product
        criterion applies only to pairs of elements that each lie in one
        column.  A pair's sugar is the larger of the sugars of its two
        multiples m/lm_i * form_i.  A form led past the ambient columns is
        dropped."""
        ring, leads, single, sugars = self.ring, self._leads, self._single, self._sugar
        bound = self._bound
        if bound is not None and form[0] < bound:
            return
        new = len(leads)
        col, tnew = ring._unpack(form[0])
        lcms = {i: _mono_lcm(e, tnew) for i, (c, e) in enumerate(leads) if c == col}
        self._forms.append(form)
        _index(ring, [form], self._index)
        leads.append((col, tnew))
        terms = form[1] if bound is None else [k for k in form[1] if k >= bound]
        single.append(len({k >> ring._cshift for k in terms}) == 1)
        sugars.append(sugar)
        # chain criterion: (i, new) and (j, new) cover (i, j)
        self._pairs = {p: pair for p, pair in self._pairs.items()
                       if not (p[0] in lcms and _mono_divides(tnew, pair[2])
                               and pair[2] != lcms[p[0]] and pair[2] != lcms[p[1]])}
        buckets = {}
        for i, m in lcms.items():
            buckets.setdefault(m, []).append(i)
        minimal = []
        for m in sorted(buckets, key=ring.monomial_key):
            if not any(_mono_divides(m2, m) for m2 in minimal):
                minimal.append(m)
        degree = ring.weighted_degree
        for m in minimal:
            bucket = buckets[m]
            if single[new] and any(single[i] and m == _mono_mul(leads[i][1], tnew)
                                   for i in bucket):
                continue  # product criterion (effectively the ideal case)
            i = bucket[0]
            s = max(sugars[i] - degree(leads[i][1]), sugar - degree(tnew)) + degree(m)
            self._pairs[i, new] = (s, ring._pack(col, m), m)

    def _complete(self):
        """Reduce the pending pairs, inserting every nonzero remainder."""
        ring, forms = self.ring, self._forms
        while self._pairs:
            sugar, key, i, j = min((sugar, key, i, j)
                                   for (i, j), (sugar, key, _) in self._pairs.items())
            del self._pairs[i, j]
            _, r = _reduce(ring, _s_terms(ring, forms[i], forms[j], key), self._index)
            if r:
                self._insert(_content_free(r)[1], sugar)

    def add(self, v):
        """Insert the content-free remainder of v and complete the new
        pairs; False, changing nothing, when v reduces to zero."""
        _, r = _reduce(self.ring, v._form[1][1], self._index)
        if r:
            self._insert(_content_free(r)[1], _sugar(self.ring, r))
            self._complete()
        return bool(r)

    def contains(self, v):
        """Whether v reduces to zero, i.e. lies in the submodule."""
        return not _reduce(self.ring, v._form[1][1], self._index)[1]

    def reduced(self, rank):
        """The reduced basis, monic Vectors of R^rank sorted by lead.

        The forms are taken in increasing lead order, the first of equal
        leads first.  A form whose lead some kept lead divides is dropped
        (the guard-bit test of _reduce on the kept forms' index); the others
        are reduced against the kept forms before them: a lead divides only
        terms at least as large as itself, so no larger lead can divide a
        term of a tail.  A tail reduction keeps the lead, and the reduced
        basis is unique.

        The first _raw forms are raw inputs (buchberger inserts every input
        before any pair) and are always reduced.  Every later form is a
        remainder, reduced when it was inserted against every form before
        it, so its tail needs _reduce only when a kept form inserted after
        it has a lead that divides one of its terms (_later_divides).
        """
        ring, forms = self.ring, self._forms
        mask, guard, cshift = ring._mask, ring._guard, ring._cshift
        index, later, out = {}, {}, []
        for p in sorted(range(len(forms)), key=lambda p: forms[p][0]):
            form = forms[p]
            fields = ~form[0] & mask | guard
            if any((fields - lfields) & guard == guard
                   for _, lfields, _, _ in index.get(form[0] >> cshift, ())):
                continue
            if p < self._raw or _later_divides(ring, form[1], later, p):
                form = _content_free(_reduce(ring, form[1], index)[1])[1]
            _index(ring, [form], index)
            later.setdefault(form[0] >> cshift, []).append((p, ~form[0] & mask))
            out.append(form)
        return [_monic(ring, rank, form) for form in out]


def _later_divides(ring, terms, later, p):
    """Whether a lead (q, ~lead & _mask) in later, a dict by column key,
    with q > p divides one of the packed terms: the guard-bit test of
    _reduce on the leads inserted after position p."""
    mask, guard, cshift = ring._mask, ring._guard, ring._cshift
    after = {}
    for col in {t >> cshift for t in terms}:
        lfs = [lf for q, lf in later.get(col, ()) if q > p]
        if lfs:
            after[col] = lfs
    if after:
        for t in terms:
            lfs = after.get(t >> cshift)
            if lfs:
                fields = ~t & mask | guard
                for lf in lfs:
                    if (fields - lf) & guard == guard:
                        return True
    return False


def buchberger(vectors, ambient=None):
    """Reduced Groebner basis of the submodule generated by the vectors;
    with ambient, only its elements led below that column (GroebnerBasis).

    Every input is inserted before any pair is reduced; adding them one at
    a time lets coefficients grow on some inputs.
    """
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return []
    ring = vectors[0].ring
    basis = GroebnerBasis(ring, ambient)
    for v in vectors:
        form = v._form[1]
        basis._insert(form, _sugar(ring, form[1]))
    basis._raw = len(basis._forms)
    basis._complete()
    return basis.reduced(vectors[0].rank)


class SubmoduleGB:
    """Groebner data for span(gens) in R^rank modulo span(relations).

    Block construction (Eisenbud, Commutative Algebra, 15.10): the block
    vectors g_i + e_(rank+i) and the relations, with no aux column, go to
    Buchberger in R^(rank+s).  Aux columns are below every ambient one, so
    the ambient parts of the ambient-led elements are gb, the basis of
    span(gens and relations), the aux-only ones the syzygies modulo the
    relations, and reducing (v, 0) gives v's normal form and cofactors
    (_certificate).  The _index of gb (for contains) and of the block
    basis (for _certificate) are built once.

    With syzygies=False the block basis keeps only its ambient-led elements
    (buchberger's ambient): gb and the normal forms are the same, the
    cofactors are valid but not reduced modulo the syzygies, and there are
    no syzygies to return.
    """

    def __init__(self, ring, rank, gens, relations=(), syzygies=True):
        self.ring = ring
        self.rank = rank
        self.gens = list(gens)
        s = len(self.gens)
        blocks = _blocks(ring, rank, self.gens) + [
            Vector._of_form(ring, rank + s, *r._form) for r in relations]
        self._ext_gb = buchberger(blocks) if syzygies else buchberger(blocks, rank)
        self.gb = []
        self._syz = []
        shift = rank << ring._cshift
        for v in self._ext_gb:
            # v is monic, and its lead is the lead of the part kept
            c, (lead, terms) = v._form
            if lead >> ring._cshift > -rank:
                self.gb.append(_columns_below(v, rank))
            else:
                # aux columns only: shift each key down by rank columns
                self._syz.append(Vector._of_form(
                    ring, s, c, (lead + shift, {k + shift: n for k, n in terms.items()})))
        self._index = _index(ring, [g._form[1] for g in self.gb])
        self._ext_index = _index(ring, [v._form[1] for v in self._ext_gb])
        if not syzygies:
            self._syz = None

    contains = GroebnerBasis.contains

    def reduce_with_certificate(self, v):
        """(normal form of v, coefficients q) with v = sum(q_i gens[i]) + nf
        modulo the relations, by the block basis (_certificate)."""
        coeffs, nf = _certificate(v, self._ext_index, self.rank, len(self.gens))
        return nf, coeffs

    def lift(self, v):
        """Coefficients q with v = sum(q_i * gens[i]) modulo the relations,
        or None if v is not a member."""
        nf, coeffs = self.reduce_with_certificate(v)
        return coeffs if nf.is_zero() else None

    def syzygies(self):
        """The reduced basis of {c in R^s : sum c_i gens[i] in span(relations)}."""
        if self._syz is None:
            raise ValueError("Groebner data built without its syzygies")
        return list(self._syz)


def syzygy_basis(ring, rank, gens):
    """Generators of {c in R^s : sum c_i gens[i] = 0}."""
    return SubmoduleGB(ring, rank, gens).syzygies()


# ---------------------------------------------------------------------------
# Hilbert series


def _staircase_numerator(ring, gens, memo):
    """Numerator of Hilb(R/I) over prod(1-q^d_i) for a monomial ideal I.

    memo maps minimal generator tuples to numerators over ring; one memo
    may serve any number of calls over that ring.
    """
    gens = _minimal_monomials(gens)
    if gens in memo:
        return memo[gens]
    if any(all(e == 0 for e in g) for g in gens):
        out = {}
    elif not gens:
        out = {0: 1}
    else:
        occur = [0] * ring.num_vars
        for g in gens:
            for i, e in enumerate(g):
                if e:
                    occur[i] += 1
        best = max(range(ring.num_vars), key=lambda i: occur[i])
        if occur[best] <= 1:
            # pairwise coprime: product formula
            out = qpoly_denominator(ring.weighted_degree(g) for g in gens)
        else:
            pivot = tuple(1 if i == best else 0 for i in range(ring.num_vars))
            plus = [g for g in gens if g[best] == 0] + [pivot]
            colon = [tuple(e - 1 if i == best and e > 0 else e
                           for i, e in enumerate(g)) for g in gens]
            shift = ring.degrees[best]
            out = qpoly_add(_staircase_numerator(ring, plus, memo), {
                k + shift: v for k, v in _staircase_numerator(ring, colon, memo).items()})
    memo[gens] = out
    return out


def _minimal_monomials(gens):
    """The minimal ones among gens, sorted: a divisor sorts before its
    multiples, so each is tested against the minimal ones before it."""
    out = []
    for g in sorted(set(gens)):
        if not any(_mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


def qpoly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def qpoly_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            s = out.get(k, 0) + v1 * v2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def qpoly_denominator(degrees):
    """prod(1 - q^d) over degrees, a HilbertSeries' denominator."""
    out = {0: 1}
    for d in degrees:
        out = qpoly_mul(out, {0: 1, d: -1})
    return out


class HilbertSeries:
    """Laurent numerator over prod(1 - q^d) for the ring's variable degrees."""

    def __init__(self, numerator, denominator_degrees):
        self.numerator = {int(k): int(v) for k, v in numerator.items() if v}
        self.denominator_degrees = tuple(sorted(int(d) for d in denominator_degrees))

    def is_zero(self):
        return not self.numerator

    def coefficients(self, nmax):
        """Dict degree -> coefficient for all degrees <= nmax."""
        if not self.numerator:
            return {}
        lo = min(self.numerator)
        span = nmax - lo
        if span < 0:
            return {}
        dp = [0] * (span + 1)
        dp[0] = 1
        for d in self.denominator_degrees:
            for k in range(d, span + 1):
                dp[k] += dp[k - d]
        out = {}
        for n in range(lo, nmax + 1):
            c = 0
            for m, v in self.numerator.items():
                if 0 <= n - m <= span:
                    c += v * dp[n - m]
            if c:
                out[n] = c
        return out

    def pole_order(self):
        """Order of the pole at q = 1 (the Krull dimension); None if zero."""
        if not self.numerator:
            return None
        lo = min(self.numerator)
        hi = max(self.numerator)
        coeffs = [self.numerator.get(i, 0) for i in range(lo, hi + 1)]
        mult = 0
        while sum(coeffs) == 0:
            acc = 0
            new = []
            for c in coeffs[:-1]:
                acc += c
                new.append(acc)
            coeffs = new if new else [0]
            mult += 1
            if not any(coeffs):
                break
        return len(self.denominator_degrees) - mult

    def __eq__(self, other):
        return (isinstance(other, HilbertSeries)
                and self.numerator == other.numerator
                and self.denominator_degrees == other.denominator_degrees)

    def __str__(self):
        if not self.numerator:
            return "0"
        num = " + ".join("%d*q^%d" % (v, k) if k else str(v)
                         for k, v in sorted(self.numerator.items()))
        den = "*".join("(1-q^%d)" % d for d in self.denominator_degrees)
        return "(%s)/%s" % (num, den) if den else num

    __repr__ = __str__


def span_hilbert_numerator(ring, col_degrees, leads, memo=None):
    """Numerator of Hilb(N) over prod(1-q^d_i), N a submodule of the free
    module F on generators of the given degrees and leads the (col, exps)
    leads of a Groebner basis of N: each column that holds a lead adds
    q^deg times 1 less its staircase's numerator (_staircase_numerator),
    and a column with no lead adds nothing.  memo may serve any number of
    calls over ring."""
    per_col, num, memo = {}, Counter(), {} if memo is None else memo
    for col, exps in leads:
        per_col.setdefault(col, []).append(exps)
    for col, exps in per_col.items():
        shift = col_degrees[col]
        num[shift] += 1
        for k, v in _staircase_numerator(ring, tuple(exps), memo).items():
            num[k + shift] -= v
    return {k: v for k, v in num.items() if v}


def quotient_hilbert_series(ring, col_degrees, gb):
    """Hilbert series of F/span(gb) where F has the given generator degrees:
    F's series less that of the span (span_hilbert_numerator), read off
    the leads of the (Groebner) basis gb."""
    num = Counter(col_degrees)
    num.subtract(span_hilbert_numerator(ring, col_degrees, [v.lead()[0] for v in gb]))
    return HilbertSeries(num, ring.degrees)
