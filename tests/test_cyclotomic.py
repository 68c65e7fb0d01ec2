import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from etarho.cyclotomic import (CyclotomicValue, OrderMismatchError,
                               cyclotomic_polynomial, euler_phi)
import rank_oracle


def zeta(n, k=1):
    return CyclotomicValue.root_of_unity(n, k)


def rat(q):
    return CyclotomicValue.from_rational(Fraction(q))


class TestBasics:
    def test_phi3_reduction(self):
        # hand expansion over Phi_3 = x^2 + x + 1: (z - z^2)^2 = -3
        z = zeta(3)
        assert (z - z * z) ** 2 == rat(-3)

    def test_root_of_unity_identity(self):
        assert zeta(3) * zeta(3, 2) == rat(1)

    def test_root_of_unity_matches_reduced_monomial(self):
        for n in range(1, 61):
            for e in range(-n, 2 * n):
                value, ref = zeta(n, e), rank_oracle.root_of_unity(n, e)
                assert (value.order, value.coefficients) == (ref.order, ref.coefficients)

    def test_absorbing_zero(self):
        assert (rat(1) + zeta(5)) * rat(0) == rat(0)

    def test_orders_one_and_two(self):
        assert euler_phi(1) == euler_phi(2) == 1
        assert zeta(2) == rat(-1)
        assert CyclotomicValue(1, [Fraction(7, 3)]).as_rational() == Fraction(7, 3)

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_canonical_equality_across_orders(self):
        assert zeta(3) == zeta(6, 2)
        assert zeta(2) == zeta(6, 3)
        assert zeta(3) != zeta(6)

    def test_mixed_order_arithmetic_lifts(self):
        v = zeta(3) + zeta(4)
        assert v.order == 12
        assert v - zeta(4) == zeta(3).lift(12)

    def test_cyclo_mul_requires_equal_orders(self):
        assert zeta(3).lift(12) * zeta(4).lift(12) == zeta(12, 7)

    def test_lift_rejects_non_multiple(self):
        with pytest.raises(OrderMismatchError):
            zeta(4).lift(6)


class TestConjugation:
    def test_conj_of_zeta5(self):
        assert zeta(5).conjugate() == zeta(5, 4)

    def test_rationals_fixed(self):
        assert rat(Fraction(7, 3)).conjugate() == rat(Fraction(7, 3))

    def test_purely_imaginary_flip(self):
        v = zeta(3) - zeta(3, 2)
        assert v.conjugate() == -v
        assert v.is_imaginary()
        assert not v.is_real()

    def test_real_detection(self):
        v = zeta(5) + zeta(5, 4)
        assert v.is_real()
        assert not v.is_imaginary()
        assert rat(0).is_imaginary()  # zero counts as purely imaginary


class TestInversion:
    def test_inverse_roundtrip(self):
        v = rat(2) + zeta(7) - zeta(7, 3)
        assert v * v.inverse() == rat(1)

    def test_zero_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            rat(0).inverse()

    def test_division_and_pow(self):
        z = zeta(5)
        assert (rat(1) / z) == z ** -1 == z ** 4


def sympy_inverse(value):
    """The inverse by sympy's ``dup_invert`` against Phi_n over QQ, the way
    the library computed it before it ran its own extended Euclid."""
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.domains import QQ
    from sympy.polys.euclidtools import dup_invert

    # dup_* routines take coefficients highest degree first, leading zeros stripped
    f = dup_strip([QQ(c.numerator, c.denominator) for c in reversed(value.coefficients)])
    phi = [QQ(c) for c in reversed(cyclotomic_polynomial(value.order))]
    inv = dup_invert(f, phi, QQ)
    return tuple(Fraction(int(c.numerator), int(c.denominator)) for c in reversed(inv))


def _dense_value(n):
    """A fixed value with every coefficient nonzero and four denominators."""
    return CyclotomicValue(n, [Fraction((7 * i * i + 3 * i + 5) % 19 - 9 or 1, 1 + i % 4)
                               for i in range(euler_phi(n))])


def assert_inverse_matches_sympy(value):
    inv = value.inverse()
    expected = sympy_inverse(value)
    assert inv.coefficients == expected + (Fraction(0),) * (euler_phi(value.order) - len(expected))
    assert value * inv == CyclotomicValue.one(value.order)


class TestInverseOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=60),
           st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                    min_size=1, max_size=60))
    def test_matches_sympy_up_to_order_60(self, n, coeffs):
        value = CyclotomicValue(n, (coeffs * euler_phi(n))[:euler_phi(n)])
        if not value.is_zero():
            assert_inverse_matches_sympy(value)

    def test_matches_sympy_on_a_dense_value_at_105(self):
        value = _dense_value(105)
        assert all(value.coefficients)
        assert_inverse_matches_sympy(value)

    def test_matches_sympy_on_z_plus_2_at_127(self):
        # one division step: the remainder is the constant Phi_127(-2)
        assert_inverse_matches_sympy(zeta(127) + 2)


class TestEmbedding:
    def test_i(self):
        v = zeta(4).embed(64)
        assert abs(v - 1j) < 1e-15

    def test_half(self):
        v = rat(Fraction(1, 2)).embed(64)
        assert abs(v - 0.5) < 1e-18

    def test_i_sqrt3(self):
        v = (zeta(3) - zeta(3, 2)).embed(64)
        assert abs(v.real) < 1e-18
        assert abs(v.imag - mpmath.sqrt(3)) < 1e-15

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            zeta(3).embed(32)

    def test_embed_multiplicative_on_random_pairs(self):
        rng = random.Random(1)
        with mpmath.workprec(96):  # compare at >= embedding precision
            for _ in range(1000):
                n = rng.randint(1, 24)
                a = _random_value(rng, n)
                b = _random_value(rng, n)
                lhs = (a * b).embed(80)
                rhs = a.embed(80) * b.embed(80)
                scale = max(1.0, abs(rhs))
                assert abs(lhs - rhs) / scale < 2.0 ** -72


def _random_value(rng, n):
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
              for _ in range(euler_phi(n))]
    return CyclotomicValue(n, coeffs)


def _values(max_order=12):
    def build(draw_order, coeffs):
        deg = euler_phi(draw_order)
        cs = (coeffs * deg)[:deg]
        return CyclotomicValue(draw_order, cs)
    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_order),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                 min_size=1, max_size=12),
    )


class TestFieldAxioms:
    @settings(max_examples=120, deadline=None)
    @given(_values(), _values(), _values())
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=120, deadline=None)
    @given(_values())
    def test_inverse_when_nonzero(self, a):
        if not a.is_zero():
            assert a * a.inverse() == CyclotomicValue.one(a.order)

    @settings(max_examples=120, deadline=None)
    @given(_values(), _values())
    def test_conjugation_is_involutive_homomorphism(self, a, b):
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


class TestGaloisAndMinimalPolynomial:
    def test_galois_action(self):
        assert zeta(5).galois(2) == zeta(5, 2)
        assert zeta(5).galois(4) == zeta(5).conjugate()
        with pytest.raises(ValueError):
            zeta(6).galois(2)

    def test_minimal_polynomials(self):
        # zeta_5: the 5th cyclotomic polynomial
        assert zeta(5).minimal_polynomial() == (1, 1, 1, 1, 1)
        # zeta_3 - zeta_3^2 = i sqrt(3): x^2 + 3
        v = zeta(3) - zeta(3, 2)
        assert v.minimal_polynomial() == (3, 0, 1)
        # rationals: x - q
        assert rat(Fraction(2, 3)).minimal_polynomial() == (Fraction(-2, 3), 1)

    def test_min_poly_independent_of_ambient_order(self):
        assert zeta(3).minimal_polynomial() == zeta(6, 2).minimal_polynomial()
        assert zeta(4).minimal_polynomial() == zeta(12, 3).minimal_polynomial()

    def test_hash_respects_cross_order_equality(self):
        assert hash(zeta(3)) == hash(zeta(6, 2))
        assert hash(zeta(4)) == hash(zeta(12, 3))
        assert len({zeta(3), zeta(6, 2)}) == 1
        assert hash(rat(Fraction(1, 2))) == hash(Fraction(1, 2))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=4),
           st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=8),
                    min_size=1, max_size=30))
    def test_hash_survives_lift(self, n, k, coeffs):
        v = CyclotomicValue(n, coeffs)
        assert hash(v) == hash(v.lift(n * k))

    def test_hash_needs_no_minimal_polynomial(self, monkeypatch):
        def refuse(self):
            raise AssertionError("hash built a minimal polynomial")

        monkeypatch.setattr(CyclotomicValue, "minimal_polynomial", refuse)
        for v in (zeta(61) + 2, zeta(12, 5) - rat(Fraction(1, 3)), zeta(7) * zeta(5)):
            assert hash(v) == hash(v.lift(2 * v.order))

    def test_set_membership_across_orders(self):
        values = {zeta(3) + 1, zeta(5), rat(7)}
        assert (zeta(6, 2) + 1) in values
        assert zeta(10, 2) in values
        assert rat(7) in values


@st.composite
def _sparse_values(draw):
    """(n, {i: c}): up to three nonzero rational multiples of powers of zeta_n."""
    n = draw(st.sampled_from([3, 5, 7, 8, 9, 12]))
    terms = draw(st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
        min_size=1, max_size=3))
    return n, terms


class TestMinimalPolynomialOracle:
    @settings(max_examples=25, deadline=None)
    @given(_sparse_values())
    def test_matches_sympy(self, sparse):
        n, terms = sparse
        coeffs = [terms.get(i, 0) for i in range(n)]
        x = sympy.Symbol("x")
        expr = sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.exp(2 * sympy.pi * sympy.I * i / n) for i, c in terms.items())
        expected = sympy.Poly(sympy.minimal_polynomial(expr, x), x).monic().all_coeffs()
        assert CyclotomicValue(n, coeffs).minimal_polynomial() == tuple(
            Fraction(int(c.p), int(c.q)) for c in reversed(expected))


class TestCyclotomicPolynomialOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=300))
    def test_matches_sympy(self, n):
        x = sympy.Symbol("x")
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        phi = cyclotomic_polynomial(n)
        assert phi == tuple(int(c) for c in reversed(expected))
        assert all(type(c) is int for c in phi)
        # x^n - 1 is the product of Phi_d over the divisors d of n
        product = [1]
        for d in sympy.divisors(n):
            factor = cyclotomic_polynomial(d)
            out = [0] * (len(product) + len(factor) - 1)
            for i, a in enumerate(product):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            product = out
        assert product == [-1] + [0] * (n - 1) + [1]


class TestEmbeddingOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([53, 64, 96]), st.sampled_from([1, 3, 5, 8, 12, 15]), st.data())
    def test_matches_direct_sum(self, bits, n, data):
        coeffs = data.draw(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=9),
                                    min_size=1, max_size=n))
        got = CyclotomicValue(n, coeffs).embed(bits)
        with mpmath.workprec(4 * bits):
            expected = sum((mpmath.mpf(c.numerator) / c.denominator
                            * mpmath.expjpi(mpmath.mpf(2 * i) / n)
                            for i, c in enumerate(coeffs)), mpmath.mpc(0))
            error = abs(got - expected)
            assert error <= mpmath.mpf(2) ** (8 - bits) * max(1, sum(abs(c) for c in coeffs))


class TestSerialization:
    def test_json_roundtrip(self):
        v = zeta(5) - rat(Fraction(2, 3))
        data = v.to_json()
        assert data["order"] == 5
        assert data["coefficients"][0] == "-2/3"
        assert CyclotomicValue.from_json(data) == v

    def test_str_forms(self):
        assert str(rat(Fraction(-1, 9))) == "-1/9"
        assert str(zeta(3)) == "z3"
        assert str(zeta(5, 2) * 3) == "3*z5^2"
