"""The exact pairings ``fourier_eta`` and ``pair_phi`` against their
term-by-term oracle, and rational scaling of class functions."""

import random
from fractions import Fraction

import pytest

import pairing_oracle
from etarho.chars import (ClassFunction, FiniteGroup, RhoVector, VirtualRep,
                          fourier_eta, pair_phi)
from etarho.cyclotomic import CyclotomicValue


def _random_value(rng, order):
    """A value of the given order: zero about a fifth of the time, else up
    to order + 1 Fraction coefficients, so some need a reduction."""
    if rng.random() < 0.2:
        return CyclotomicValue.zero(order)
    return CyclotomicValue(order, [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                                   for _ in range(rng.randint(1, order + 1))])


def _random_class_values(rng, group, orders):
    return tuple(_random_value(rng, rng.choice(orders)) for _ in range(group.n_classes()))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _same(value, expected):
    assert value.order == expected.order
    assert value.coefficients == expected.coefficients
    assert value.to_json() == expected.to_json()


def _check_both(group, f_values, rho_values):
    f = ClassFunction(group, f_values)
    rho = RhoVector(group, rho_values)
    _same(pair_phi(f, rho), pairing_oracle.pair_phi(f, rho))
    rep = VirtualRep(group, f)
    _same(fourier_eta(rep, rho), pairing_oracle.fourier_eta(rep, rho))


@pytest.mark.parametrize("seed", range(6))
def test_mixed_orders_match_oracle(seed):
    # orders d | n, order-1 rationals and zeros side by side
    rng = random.Random(1400 + seed)
    for _ in range(15):
        n = rng.randint(1, 30)
        group = FiniteGroup.cyclic(n)
        orders = _divisors(n)
        _check_both(group, _random_class_values(rng, group, orders),
                    _random_class_values(rng, group, orders))


def test_symmetric3_weights_by_class_size():
    # classes of S3 have sizes 1, 3 and 2, so a dropped weight shows
    s3 = FiniteGroup.symmetric(3)
    assert sorted(s3.class_size(c) for c in range(3)) == [1, 2, 3]
    rng = random.Random(1410)
    for _ in range(30):
        _check_both(s3, _random_class_values(rng, s3, [1, 2, 3, 6]),
                    _random_class_values(rng, s3, [1, 3, 4, 12]))


def test_all_rational_vectors_give_order_one():
    rng = random.Random(1411)
    group = FiniteGroup.symmetric(3)
    for _ in range(10):
        f_values = _random_class_values(rng, group, [1])
        rho_values = _random_class_values(rng, group, [1])
        _check_both(group, f_values, rho_values)
        assert pair_phi(ClassFunction(group, f_values),
                        RhoVector(group, rho_values)).order == 1


def test_zero_values_keep_their_order():
    # every term vanishes: the result is zero in Q(zeta_lcm), as the oracle's
    group = FiniteGroup.cyclic(12)
    f_values = tuple(CyclotomicValue.zero(d) for d in (1, 4, 1, 6) * 3)
    rho_values = tuple(CyclotomicValue.root_of_unity(3) if i % 2 else
                       CyclotomicValue.zero(1) for i in range(12))
    _check_both(group, f_values, rho_values)
    value = pair_phi(ClassFunction(group, f_values), RhoVector(group, rho_values))
    assert value.is_zero() and value.order == 12


def test_exact_pairing_makes_no_field_product(monkeypatch):
    rng = random.Random(1412)
    group = FiniteGroup.cyclic(15)
    f = ClassFunction(group, _random_class_values(rng, group, [3, 5, 15]))
    rho = RhoVector(group, _random_class_values(rng, group, [1, 15]))
    s3 = FiniteGroup.symmetric(3)
    rep3 = VirtualRep(s3, ClassFunction(s3, _random_class_values(rng, s3, [1, 3])))
    rho3 = RhoVector(s3, _random_class_values(rng, s3, [1, 6]))
    calls = []
    original = CyclotomicValue.__mul__

    def spy(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(CyclotomicValue, "__mul__", spy)
    monkeypatch.setattr(CyclotomicValue, "__rmul__", spy)
    pair_phi(f, rho)
    fourier_eta(VirtualRep(group, f), rho)
    fourier_eta(rep3, rho3)
    assert calls == []


@pytest.mark.parametrize("c", [0, 1, -3, Fraction(5, 7), Fraction(-2, 9)])
def test_rational_scale_matches_field_product(c, monkeypatch):
    rng = random.Random(1413)
    group = FiniteGroup.cyclic(12)
    f = ClassFunction(group, _random_class_values(rng, group, _divisors(12)))
    expected = ClassFunction(group, tuple(v * CyclotomicValue.from_rational(c)
                                          for v in f.values))
    calls = []
    original = CyclotomicValue.__mul__

    def spy(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(CyclotomicValue, "__mul__", spy)
    scaled = f.scale(c)
    assert calls == []
    for value, want in zip(scaled.values, expected.values):
        _same(value, want)
    _same(VirtualRep(group, f).scale(c).character.values[5], expected.values[5])
