"""Exact rank over Q(zeta_n), proven by ranks modulo prime ideals.

Rows may mix orders; everything lives in Q(zeta_N) for the common order N.
Scaling a row by the lcm of its denominators leaves the rank unchanged and
puts every entry in Z[zeta_N] (``_integral_row``).  ``exact_rank`` then
reduces the rows modulo one prime ideal (p, zeta_N - w) per prime and stops
by the lemma of ``_certified_rank``, with the norm bound of
``_norm_bound_bits``.

This is the modular approach to linear algebra of von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 5.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import lcm

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


def _certified_rank(order: int, rows_mod, cols: int, per_prime: int, bits,
                    skip=lambda p: False) -> int:
    """Rank of a matrix over Q(zeta_order), proven by its ranks modulo
    prime ideals.

    For a prime p = 1 (mod order) and w of order ``order`` mod p, zeta -> w
    maps Z[zeta] onto F_p with kernel the prime ideal (p, zeta - w), of norm
    p.  ``rows_mod(p, w)`` yields the images in F_p of the rows, scaled into
    Z[zeta]; the caller vouches that their rank is the rank modulo each of
    ``per_prime`` distinct ideals above p.  The primes above 2^31 are taken
    in turn (``_prime_and_root``), passing over, uncounted, each p where
    ``skip(p)`` holds, as the map is not defined on the rows there.

    A vanishing minor maps to zero, so a rank modulo an ideal is a lower
    bound for the rank, and ``cols`` and the number of rows are upper
    bounds: reaching either proves the rank.  Otherwise let best be the
    largest rank seen and m the number of ideals used, which are distinct
    as ideals above distinct primes are.  A rank above best
    would give a nonzero (best + 1)-minor D lying in all m ideals; they
    divide (D), and each has norm p > 2^31, so
    2^(31 m) < |Norm(D)| < 2^bits(best + 1).  Once 31 m >= bits(best + 1),
    the rank is best.
    """
    best = used = 0
    p = 2 ** 31
    while True:
        p, w = _prime_and_root(order, p)
        if skip(p):
            continue
        pivots: dict[int, list[int]] = {}  # pivot column -> row, 1 there
        count = 0
        for count, vec in enumerate(rows_mod(p, w), start=1):
            for col, pivot in pivots.items():
                c = vec[col]
                if c:
                    vec = [(a - c * b) % p for a, b in zip(vec, pivot)]
            col = next((j for j, a in enumerate(vec) if a), None)
            if col is not None:
                inv = pow(vec[col], -1, p)
                pivots[col] = [a * inv % p for a in vec]
                if len(pivots) == cols:
                    return cols
        used += per_prime
        best = max(best, len(pivots))
        if best == count or 31 * used >= bits(best + 1):
            return best


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
    """bits with |Norm(D)| < 2^bits for every minor D of the integral rows.

    Every embedding sigma has |sigma(a)| <= ||a||_1, the sum of the
    |coefficients| of a, so Hadamard's inequality on each conjugate of D
    gives |Norm(D)| <= prod_i (sum_j ||a_ij||_1^2)^(phi(N)/2) < 2^bits.
    """
    return euler_phi(order) * sum(
        max(1, sum(sum(abs(c) for _, c in terms) ** 2 for _, terms in row)).bit_length()
        for row in rows) // 2 + 1


def exact_rank(rows) -> int:
    """Rank of a matrix with CyclotomicValue (or rational) entries, proven
    by ``_certified_rank`` with one ideal (p, zeta_N - w) per prime."""
    rows = [_integral_row(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != cols:
            raise ValueError(f"ragged matrix: row {i} has {len(row)} entries, row 0 has {cols}")
    orders = {d for row in rows for d, _ in row}
    order = lcm(*orders)

    def rows_mod(p, w):
        powers = {d: [pow(w, order // d * i, p) for i in range(euler_phi(d))] for d in orders}
        for row in rows:
            yield [sum([c * powers[d][i] for i, c in terms]) % p for d, terms in row]

    bound = cache(lambda: _norm_bound_bits(rows, order))
    return _certified_rank(order, rows_mod, cols, 1, lambda s: bound())
