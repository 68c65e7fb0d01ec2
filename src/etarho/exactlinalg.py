"""Exact rank over Q(zeta_n), proven by ranks modulo prime ideals.

Rows may mix orders; everything lives in Q(zeta_N) for the common order N.
Scaling a row by the lcm of its denominators leaves the rank unchanged and
puts every entry a in Z[zeta_N] (``_integral_row``).

Ideals.  For a prime p = 1 (mod N) and a primitive N-th root of unity w mod
p, zeta_N -> w maps Z[zeta_N] onto F_p with kernel the prime ideal
P = (p, zeta_N - w) of norm p; the phi(N) roots w^u, gcd(u, N) = 1, give the
phi(N) distinct ideals above p (``_prime_ideals``, every p above 2^31).  A
vanishing minor maps to zero, so the rank mod P is at most the rank r, and
it is r unless P contains every r x r minor.

Bound.  Let D be a nonzero r x r minor.  Every embedding sigma has
|sigma(a)| <= ||a||_1, the sum of the |coefficients| of a, so Hadamard's
inequality on each conjugate of D gives
|Norm(D)| <= prod_i (sum_j ||a_ij||_1^2)^(phi(N)/2) < 2^bits
(``_norm_bound_bits``).  Distinct ideals P_1..P_m that all contain D divide
(D), so p_1 ... p_m divides Norm(D) and 31 m < bits.  Hence once
31 m >= bits, one of the first m ideals misses D, and the largest rank seen
is r.  Full rank, min(rows, cols), is an upper bound and returns at once;
the bound is worked out only when the first ideal falls short.

This is the modular approach to linear algebra of von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 5.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._ntheory import factor, is_prime
from .cyclotomic import CyclotomicValue, euler_phi


@lru_cache(maxsize=None)
def _prime_and_root(order: int, above: int = 2 ** 31) -> tuple[int, int]:
    """Least prime p = 1 (mod order) above ``above`` and a primitive
    order-th root of unity mod p."""
    p = above // order * order + 1
    while p <= above or not is_prime(p):
        p += order
    g = 2
    while True:
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in factor(order)):
            return p, w
        g += 1


def _prime_ideals(order: int):
    """The ideals (p, zeta_order - w) as pairs (p, w): the primes
    p = 1 (mod order) above 2^31 in increasing order, each with its phi(order)
    primitive roots w."""
    p = 2 ** 31
    while True:
        p, w = _prime_and_root(order, p)
        for u in range(1, order + 1):
            if gcd(u, order) == 1:
                yield p, pow(w, u, p)


def _integral_row(row) -> list[tuple[int, list[tuple[int, int]]]]:
    """The row times the lcm of its denominators, each entry as its order d
    and its nonzero integer coefficients (power of zeta_d, coefficient)."""
    entries, dens = [], set()
    for v in row:
        if isinstance(v, CyclotomicValue):
            d, coeffs = v.order, v.coefficients
        else:
            d, coeffs = 1, (Fraction(v),)
        terms = []
        for i, c in enumerate(coeffs):
            num, den = c.as_integer_ratio()  # one read of each coefficient
            if num:
                terms.append((i, num, den))
                dens.add(den)
        entries.append((d, terms))
    scale = lcm(*dens)
    return [(d, [(i, num * (scale // den)) for i, num, den in terms]) for d, terms in entries]


def _norm_bound_bits(rows, order: int) -> int:
    """bits with |Norm(D)| < 2^bits for every minor D of the integral rows."""
    return euler_phi(order) * sum(
        max(1, sum(sum(abs(c) for _, c in terms) ** 2 for _, terms in row)).bit_length()
        for row in rows) // 2 + 1


class _EchelonModP:
    """Row echelon form modulo the ideal (p, zeta_order - root), built one
    integral row at a time; entry orders must divide ``order``."""

    def __init__(self, order: int, p: int, root: int) -> None:
        self.order, self.p, self.root = order, p, root
        self.powers: dict[int, list[int]] = {}  # order d -> powers of root^(order/d)
        self.pivots: dict[int, list[int]] = {}  # pivot column -> row, 1 there

    def _image(self, entry) -> int:
        d, terms = entry
        powers = self.powers.get(d)
        if powers is None:
            if self.order % d:
                raise ValueError(f"an entry of order {d} is not in Q(zeta_{self.order})")
            z = pow(self.root, self.order // d, self.p)
            powers = self.powers[d] = [pow(z, i, self.p) for i in range(euler_phi(d))]
        return sum([c * powers[i] for i, c in terms]) % self.p

    def add(self, row) -> int:
        """Add one integral row; the rank modulo the ideal so far."""
        return self.add_residues([self._image(entry) for entry in row])

    def add_residues(self, vec: list[int]) -> int:
        """Add one row already mapped into F_p; the rank so far."""
        p = self.p
        for col, pivot in self.pivots.items():
            c = vec[col]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, pivot)]
        col = next((j for j, a in enumerate(vec) if a), None)
        if col is not None:
            inv = pow(vec[col], -1, p)
            self.pivots[col] = [a * inv % p for a in vec]
        return len(self.pivots)


def exact_rank(rows) -> int:
    """Rank of a matrix with CyclotomicValue (or rational) entries, proven
    by its ranks modulo enough prime ideals (see the module docstring)."""
    rows = [_integral_row(row) for row in rows]
    if not rows or not rows[0]:
        return 0
    full = min(len(rows), len(rows[0]))
    order = lcm(*(d for row in rows for d, _ in row))
    best = bits = 0
    for used, ideal in enumerate(_prime_ideals(order), start=1):
        echelon = _EchelonModP(order, *ideal)
        for row in rows:
            if echelon.add(row) == full:
                return full
        best = max(best, len(echelon.pivots))
        bits = bits or _norm_bound_bits(rows, order)
        if 31 * used >= bits:
            return best
