"""Differential tests: the sparse ``TatePoly`` and ``EPoly2`` subclasses of
one integer ring against the dense and sorted-term classes they replaced."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poly_oracle as old
from toric_ih.hypersurface import EPoly2, tate_to_e, torus_class
from toric_ih.stalks import ONE, TatePoly

derandomized = settings(max_examples=300, deadline=None, derandomize=True, database=None)

ints = st.integers(-4, 4)
dense = st.lists(ints, max_size=6)
sparse = st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), ints), max_size=6)
values = [-2, 0, 1, 3, Fraction(-1, 2), Fraction(5, 3)]


def same_tate(new, ref):
    assert type(new) is TatePoly
    assert (new.coeffs, new.degree, repr(new)) == (ref.coeffs, ref.degree, repr(ref))
    assert all(new.coeff(k) == ref.coeff(k) for k in range(-1, ref.degree + 3))


def same_e(new, ref):
    assert type(new) is EPoly2
    assert (new.terms, repr(new)) == (ref.terms, repr(ref))
    assert all(new.coeff(p, q) == ref.coeff(p, q) for p in range(8) for q in range(8))


def ring_pairs(a, b, ra, rb, c, k):
    """The same ring expressions in the new classes and in the oracle."""
    return [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra), (a ** k, ra ** k),
            (a + c, ra + c), (c + a, c + ra), (a - c, ra - c), (c - a, c - ra),
            (a * c, ra * c), (c * a, c * ra)]


def same_comparisons(a, b, ra, rb, c):
    assert (a == b, a == c, a != b, bool(a)) == (ra == rb, ra == c, ra != rb, bool(ra))
    if a == b:
        assert hash(a) == hash(b)
    if a == c:
        assert hash(a) == hash(type(a).one() * c) == hash(c)


@derandomized
@given(dense, dense, ints, st.integers(0, 4))
def test_tate_ring_matches_oracle(xs, ys, c, k):
    a, b, ra, rb = TatePoly(xs), TatePoly(ys), old.TatePoly(xs), old.TatePoly(ys)
    for new, ref in ring_pairs(a, b, ra, rb, c, k):
        same_tate(new, ref)
    same_comparisons(a, b, ra, rb, c)
    for alpha in (0, Fraction(1, 2), 1, Fraction(5, 2), 7, "3/2"):
        same_tate(a.truncate_below(alpha), ra.truncate_below(alpha))
    for d in (None, -1, 0, 1, 2, 3, 4, 6):
        assert a.is_palindromic(d) == ra.is_palindromic(d)
        assert a.is_unimodal_to_middle(d) == ra.is_unimodal_to_middle(d)
    assert [a(x) for x in values] == [ra(x) for x in values]
    same_e(tate_to_e(a), old.tate_to_e(ra))


@derandomized
@given(sparse, sparse, ints, st.integers(0, 3))
def test_e_ring_matches_oracle(xs, ys, c, k):
    a, b, ra, rb = EPoly2(xs), EPoly2(ys), old.EPoly2(xs), old.EPoly2(ys)
    same_e(EPoly2(dict(xs)), old.EPoly2(dict(xs)))
    for new, ref in ring_pairs(a, b, ra, rb, c, k):
        same_e(new, ref)
    same_comparisons(a, b, ra, rb, c)
    assert a.is_uv_symmetric() == ra.is_uv_symmetric()
    assert [a(x, y) for x in values for y in values] == [ra(x, y) for x in values for y in values]


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_constructors_match_oracle(k):
    for c in (-2, 0, 1, 3):
        same_tate(TatePoly.monomial(k, c), old.TatePoly.monomial(k, c))
        same_e(EPoly2.monomial(k, 1, c), old.EPoly2.monomial(k, 1, c))
    same_tate(TatePoly.t() ** k, old.TatePoly.t() ** k)
    same_e(EPoly2.lefschetz() ** k, old.EPoly2.lefschetz() ** k)
    same_e(torus_class(k), old.torus_class(k))
    for cls, ref in ((TatePoly, old.TatePoly), (EPoly2, old.EPoly2)):
        assert (repr(cls.zero()), repr(cls.one())) == (repr(ref.zero()), repr(ref.one()))


def test_constants_hash_as_their_ints():
    # a constant polynomial equals its int, so the two hash alike and share a set slot
    for poly, c in ((ONE, 1), (TatePoly.zero(), 0), (EPoly2.one(), 1),
                    (EPoly2.zero(), 0), (3 * ONE, 3), (-2 * EPoly2.one(), -2)):
        assert poly == c and hash(poly) == hash(c)
        assert len({poly, c}) == 1


def test_the_two_rings_stay_apart():
    assert TatePoly.zero() != EPoly2.zero() and TatePoly.one() != EPoly2.one()
    with pytest.raises(TypeError):
        TatePoly.one() + EPoly2.one()
    with pytest.raises(AttributeError):
        TatePoly.one()._d = {}
