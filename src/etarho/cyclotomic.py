"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored in the power basis 1, zeta, ..., zeta^(phi(n)-1) with
Fraction coefficients, canonically reduced modulo the n-th cyclotomic
polynomial.  Reduction mod Phi_n (rather than mod x^n - 1) makes equality,
realness and rationality decidable by coefficient comparison alone; every
predicate in this module is exact, with no floating tolerance anywhere.

Rationals are plain ``fractions.Fraction`` (already gcd-reduced with a
positive denominator, which is exactly the invariant we need).  Floating
embeddings at a configurable bit precision are provided through mpmath.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import mpmath

from ._ntheory import cyclotomic_polynomial, euler_phi, factor


class OrderMismatchError(ValueError):
    """Raised when two cyclotomic values of incompatible orders are combined
    by an operation that requires equal orders."""


def _reduce_mod_phi(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_n (coefficient list, any degree) mod Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1  # = euler_phi(n), Phi_n is monic
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for k in range(len(phi) - 1):
                work[i - deg + k] -= c * phi[k]
        work.pop()
    while len(work) < deg:
        work.append(Fraction(0))
    return tuple(work)


def _strip(coeffs: list) -> list:
    """Drop trailing zero coefficients (constant term first), in place."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@lru_cache(maxsize=256)
def _zeta_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^e reduced mod Phi_n, for e = 0..n-1, as integer coefficient
    tuples: x^(e+1) = x * x^e, folding x^phi(n) back with the monic Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    power = [1] + [0] * (deg - 1)
    powers = []
    for _ in range(n):
        powers.append(tuple(power))
        top = power[-1]
        power = [0] + power[:-1]
        if top:
            power = [c - top * f for c, f in zip(power, phi)]
    return tuple(powers)


def _numerators(value: "CyclotomicValue", m: int) -> tuple[int, list[tuple[int, int]]]:
    """A value of order d | m as (common denominator, [(position, numerator)])
    in Z[x]/(x^m - 1): coefficient k sits at position k * (m / d)."""
    coeffs = value.coefficients
    den = lcm(*(c.denominator for c in coeffs))
    step = m // value.order
    return den, [(k * step, c.numerator * (den // c.denominator))
                 for k, c in enumerate(coeffs) if c]


@lru_cache(maxsize=256)
def _unit_traces(n: int) -> tuple[Fraction, ...]:
    """Tr(zeta_n^e) / phi(n) for e = 0..n-1.  With g = gcd(n, e), zeta_n^e
    is a primitive (n/g)-th root of unity, whose trace over Q is mu(n/g);
    over Q(zeta_n) that is mu(n/g) phi(n) / phi(n/g)."""
    def mu(d):
        exponents = factor(d).values()
        return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)
    return tuple(Fraction(mu(n // g), euler_phi(n // g))
                 for g in (gcd(n, e) for e in range(n)))


def _normalized_traces(value: "CyclotomicValue") -> tuple[Fraction, Fraction]:
    """Tr(v) / phi(n) and Tr(v^2) / phi(n) for v in Q(zeta_n).

    Lifting v into Q(zeta_m) multiplies each trace by [Q(zeta_m):Q(zeta_n)]
    = phi(m) / phi(n), so both quotients are the same rationals in every
    ambient field: a fingerprint of v that needs no Galois orbit."""
    n = value.order
    traces = _unit_traces(n)
    den, terms = _numerators(value, n)
    square = [0] * n
    for pa, na in terms:
        for pb, nb in terms:
            square[(pa + pb) % n] += na * nb
    first = sum(na * traces[pa] for pa, na in terms) / den
    second = sum(c * traces[e] for e, c in enumerate(square) if c) / (den * den)
    return first, second


def _weighted_dot(weights, left, right) -> "CyclotomicValue":
    """sum_i weights[i] * left[i] * right[i] for exact values and int or
    Fraction weights, reduced mod Phi_m once.

    m is the lcm of every operand's order, zeros included: the order that a
    sum of products taken term by term has, so the result is the same value
    in the same field.  Products of integer numerators add into one integer
    row of Z[x]/(x^m - 1) per denominator product, positions adding mod m;
    the rows meet over their common denominator at the end.  Phi_m divides
    x^m - 1, so folding that sum once mod Phi_m gives the canonical
    coefficients.
    """
    m = lcm(*(v.order for v in left), *(v.order for v in right))
    rows = defaultdict(lambda: [0] * (2 * m - 1))  # positions below m add to below 2m - 1
    for s, a, b in zip(weights, left, right):
        da, a = _numerators(a, m)
        db, b = _numerators(b, m)
        if not (s and a and b):
            continue
        row = rows[s.denominator * da * db]
        for pa, na in a:
            c = s.numerator * na
            for pb, nb in b:
                row[pa + pb] += c * nb
    common = lcm(*rows)
    total = [0] * m
    for d, row in rows.items():
        for i, c in enumerate(row):
            if c:
                total[i % m] += c * (common // d)
    return CyclotomicValue(m, [Fraction(c, common) for c in _reduce_mod_phi(total, m)])


class CyclotomicValue:
    """An exact element of Q(zeta_n).

    Instances are immutable; all operations return fresh values.  Mixed-order
    arithmetic lifts both operands into Q(zeta_lcm) first.
    """

    __slots__ = ("order", "coefficients", "_hash")

    def __init__(self, order: int, coefficients) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        coeffs = [Fraction(c) for c in coefficients]
        deg = euler_phi(order)
        if len(coeffs) > deg:
            reduced = _reduce_mod_phi(coeffs, order)
        else:
            coeffs += [Fraction(0)] * (deg - len(coeffs))
            reduced = tuple(coeffs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", reduced)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("CyclotomicValue is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q, order: int = 1) -> "CyclotomicValue":
        coeffs = [Fraction(q)] + [Fraction(0)] * (euler_phi(order) - 1)
        return cls(order, coeffs)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicValue":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicValue":
        return cls.from_rational(1, order)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "CyclotomicValue":
        """zeta_order ** power, canonically reduced."""
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        return cls(order, _zeta_powers(order)[power % order])

    # -- order management ---------------------------------------------

    def lift(self, order: int) -> "CyclotomicValue":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise OrderMismatchError(
                f"cannot lift order {self.order} into non-multiple order {order}")
        step = order // self.order
        coeffs = [Fraction(0)] * ((len(self.coefficients) - 1) * step + 1)
        for i, c in enumerate(self.coefficients):
            coeffs[i * step] = c
        return CyclotomicValue(order, coeffs)

    @staticmethod
    def common_order(a: "CyclotomicValue", b: "CyclotomicValue"):
        m = lcm(a.order, b.order)
        return a.lift(m), b.lift(m)

    def _coerce(self, other):
        if isinstance(other, CyclotomicValue):
            return CyclotomicValue.common_order(self, other)
        if isinstance(other, (int, Fraction)):
            return self, CyclotomicValue.from_rational(other, self.order)
        return None

    # -- ring / field operations --------------------------------------

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CyclotomicValue(a.order, [x + y for x, y in zip(a.coefficients, b.coefficients)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicValue(self.order, [-c for c in self.coefficients])

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CyclotomicValue(a.order, [x - y for x, y in zip(a.coefficients, b.coefficients)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        prod = [Fraction(0)] * (len(a.coefficients) + len(b.coefficients) - 1)
        for i, x in enumerate(a.coefficients):
            if not x:
                continue
            for j, y in enumerate(b.coefficients):
                if y:
                    prod[i + j] += x * y
        return CyclotomicValue(a.order, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicValue":
        """Multiplicative inverse, by the extended Euclidean algorithm
        against Phi_n over Q (von zur Gathen and Gerhard, *Modern Computer
        Algebra*, ch. 3).

        Only the cofactor s_i of the value f is kept: r_i = s_i f (mod Phi_n)
        for every remainder r_i.  Phi_n is irreducible, so a nonzero f is
        prime to it and the last remainder is a nonzero constant c; then
        f^-1 = s_i / c.  Raises ZeroDivisionError on zero.
        """
        f = _strip(list(self.coefficients))
        if not f:
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(self.order)], f
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            # r0 = q r1 + rem, by long division from the top
            rem, deg, lead = list(r0), len(r1) - 1, r1[-1]
            q = [Fraction(0)] * (len(r0) - deg)
            for i in range(len(q) - 1, -1, -1):
                c = q[i] = rem[i + deg] / lead
                if c:
                    rem[i:i + deg] = [x - c * y for x, y in zip(rem[i:i + deg], r1)]
            s2 = s0 + [Fraction(0)] * (len(q) + len(s1) - 1 - len(s0))
            for i, c in enumerate(q):
                if c:
                    s2[i:i + len(s1)] = [x - c * y for x, y in zip(s2[i:i + len(s1)], s1)]
            r0, r1 = r1, _strip(rem[:deg])
            s0, s1 = s1, _strip(s2)
        c = r1[0]
        return CyclotomicValue(self.order, [x / c for x in s1])

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CyclotomicValue.from_rational(other, self.order) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CyclotomicValue.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, u: int) -> "CyclotomicValue":
        """The field map zeta -> zeta^u; u must be coprime to the order."""
        n = self.order
        if gcd(u, n) != 1:
            raise ValueError(f"{u} is not coprime to the order {n}")
        coeffs = [Fraction(0)] * n
        for i, c in enumerate(self.coefficients):
            coeffs[(i * u) % n] += c
        return CyclotomicValue(n, coeffs)

    def conjugate(self) -> "CyclotomicValue":
        """Complex conjugation, i.e. the field map zeta -> zeta^(-1)."""
        return self.galois(self.order - 1 if self.order > 1 else 1)

    def minimal_polynomial(self) -> tuple[Fraction, ...]:
        """Monic minimal polynomial over Q, constant term first.

        Computed as the product of (x - w) over the distinct Galois
        conjugates w; the result does not depend on the ambient order.
        """
        if self.is_rational():
            return (-self.coefficients[0], Fraction(1))
        n = self.order
        orbit = {}
        for u in range(1, n):
            if gcd(u, n) == 1:
                w = self.galois(u)
                orbit[w.coefficients] = w
        poly = [CyclotomicValue.one(n)]
        for w in orbit.values():
            # (x - w) * p = shift(p) - w * p
            new = [CyclotomicValue.zero(n) for _ in range(len(poly) + 1)]
            for i, c in enumerate(poly):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - w * c
            poly = new
        return tuple(c.as_rational() for c in poly)

    # -- predicates (all exact) ---------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coefficients[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coefficients[0]

    def is_real(self) -> bool:
        return self == self.conjugate()

    def is_imaginary(self) -> bool:
        """Purely imaginary, tested as x + conj(x) = 0 (zero counts)."""
        return (self + self.conjugate()).is_zero()

    def __eq__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.coefficients == b.coefficients

    def __hash__(self):
        # equality reaches across ambient orders (zeta_3 == zeta_6^2), so the
        # hash must too: the normalized traces are order-independent
        h = object.__getattribute__(self, "_hash")
        if h is None:
            if self.is_rational():
                h = hash(self.coefficients[0])
            else:
                h = hash(_normalized_traces(self))
            object.__setattr__(self, "_hash", h)
        return h

    # -- numeric embedding ---------------------------------------------

    def embed(self, precision_bits: int = 64) -> mpmath.mpc:
        """Numeric value under zeta_n -> exp(2 pi i / n) at the given precision."""
        if precision_bits < 53:
            raise ValueError("precision_bits must be >= 53")
        with mpmath.workprec(precision_bits + 16):
            zeta = mpmath.e ** (2j * mpmath.pi / self.order)
            acc = mpmath.mpc(0)
            power = mpmath.mpc(1)
            for c in self.coefficients:
                if c:
                    acc += mpmath.mpf(c.numerator) / c.denominator * power
                power *= zeta
        with mpmath.workprec(precision_bits):
            return +acc

    # -- presentation ---------------------------------------------------

    def __repr__(self):
        return f"CyclotomicValue(order={self.order}, coefficients={list(self.coefficients)})"

    def __str__(self):
        if self.is_rational():
            return str(self.coefficients[0])
        terms = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                terms.append(z if c == 1 else (f"-{z}" if c == -1 else f"{c}*{z}"))
        return " + ".join(terms).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {"order": self.order,
                "coefficients": [str(c) for c in self.coefficients]}

    @classmethod
    def from_json(cls, data: dict) -> "CyclotomicValue":
        return cls(int(data["order"]), [Fraction(c) for c in data["coefficients"]])

