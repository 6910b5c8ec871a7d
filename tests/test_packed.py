"""The packed terms of the Groebner core against the tuple forms they
replace: order, divisibility, round trip and monomial products."""

import pytest

from equisyz.polyring import (
    EXPONENT_LIMIT, GradedPolynomialRing, _mono_divides,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def rings_and_terms(draw):
    """A ring of 1-7 variables with mixed even degrees, two terms in
    columns 0-3 and a monomial; small exponents make ties and divisibility
    common, large ones reach the limit."""
    n = draw(st.integers(1, 7))
    degrees = draw(st.lists(st.sampled_from([2, 4, 6, 8]), min_size=n, max_size=n))
    ring = GradedPolynomialRing(["x%d" % i for i in range(n)], degrees)
    exps = st.one_of(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, EXPONENT_LIMIT), min_size=n, max_size=n),
    ).map(tuple)
    term = st.tuples(st.integers(0, 3), exps)
    return ring, draw(term), draw(term), draw(exps)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(rings_and_terms())
def test_packed_terms_match_tuple_terms(case):
    ring, a, b, m = case
    ka, kb = ring._pack(*a), ring._pack(*b)
    # order: comparing keys is comparing vector_key
    assert (ka < kb) == (ring.vector_key(a) < ring.vector_key(b))
    assert (ka == kb) == (a == b)
    # round trip
    assert ring._unpack(ka) == a and ring._unpack(kb) == b
    # guard-bit divisibility, as _reduce tests a lead against a term
    mask, guard = ring._mask, ring._guard
    if a[0] == b[0]:
        divides = ((~kb & mask | guard) - (~ka & mask)) & guard == guard
        assert divides == _mono_divides(a[1], b[1])
    # a product adds the multiplier's shift W(m) * 2^top - P(m); past the
    # limit a guard bit shows it
    delta = ring._pack(0, m) - ring._pack(0, ring.zero_exps)
    product = tuple(x + y for x, y in zip(a[1], m))
    k = ka + delta
    if max(product) <= EXPONENT_LIMIT:
        assert k == ring._pack(a[0], product) and not ~k & guard
        assert ring._exps(-(k - ka) & mask) == m  # a quotient, as divide reads it
    else:
        assert ~k & guard
