"""Exact rank computation over Q(zeta_n), certified modulo a prime first.

Rows may mix orders; everything lives in Q(zeta_N) for the common order N.

Certificate.  Let p be the least prime p = 1 (mod N) above 2^31 and w a
primitive N-th root of unity mod p.  Then zeta_N -> w is a ring map from the
values of Q(zeta_N) whose power-basis denominators are prime to p onto F_p:
w is a root of Phi_N mod p, and the power basis spans the ring of integers.
Every minor that vanishes over Q(zeta_N) maps to zero, so the rank of the
image mod p is a lower bound for the true rank.  When it reaches
min(rows, cols), which bounds the rank from above, the rank is proven.  The
elimination mod p works on plain ints.

Fallback.  When the rank mod p falls short, or p divides a denominator, the
rank comes from Gaussian elimination over Q(zeta_N) (``_echelon_rank``).  It
stops at row echelon form: each pivot clears only the rows below it, which
is all a rank needs, and costs one field inverse (the pivot's).  No pivoting
heuristics are needed since the arithmetic is exact.

This is the modular approach to linear algebra of von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 5.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from sympy import isprime, primefactors

from .cyclotomic import CyclotomicValue


@lru_cache(maxsize=None)
def _prime_and_root(order: int) -> tuple[int, int]:
    """Least prime p = 1 (mod order) above 2^31 and a primitive order-th
    root of unity mod p."""
    p = 2 ** 31 // order * order + 1
    while p <= 2 ** 31 or not isprime(p):
        p += order
    g = 2
    while True:
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in primefactors(order)):
            return p, w
        g += 1


class _EchelonModP:
    """Row echelon form mod p, built one row at a time, of rows with entries
    in Q(zeta_order) (orders dividing ``order``) or Q."""

    def __init__(self, order: int) -> None:
        self.order = order
        self.p, self.root = _prime_and_root(order)
        self.powers: dict[int, list[int]] = {}  # order d -> powers of w^(order/d)
        self.pivots: dict[int, list[int]] = {}  # pivot column -> row, 1 there
        self.failed = False

    def _image(self, value) -> int | None:
        if isinstance(value, CyclotomicValue):
            d, coeffs = value.order, value.coefficients
        else:
            d, coeffs = 1, (Fraction(value),)
        if self.order % d:
            return None
        p = self.p
        powers = self.powers.get(d)
        if powers is None:
            z = pow(self.root, self.order // d, p)
            powers = self.powers[d] = [pow(z, i, p) for i in range(len(coeffs))]
        acc = 0
        for c, z in zip(coeffs, powers):
            if c:
                if c.denominator % p == 0:
                    return None
                acc += c.numerator * pow(c.denominator, -1, p) * z
        return acc % p

    def add(self, row) -> int | None:
        """Add one row; the rank mod p so far, or None once an entry has
        failed to map to F_p (no certificate is possible any more)."""
        if self.failed:
            return None
        vec = [self._image(v) for v in row]
        if None in vec:
            self.failed = True
            return None
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


def _lift_matrix(rows):
    order = 1
    lifted = []
    for row in rows:
        conv = [v if isinstance(v, CyclotomicValue) else CyclotomicValue.from_rational(v)
                for v in row]
        lifted.append(conv)
        for v in conv:
            order = lcm(order, v.order)
    return [[v.lift(order) for v in row] for row in lifted]


def _echelon_rank(rows) -> int:
    """Rank by exact Gaussian elimination over Q(zeta_N)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    mat = _lift_matrix(rows)
    n_rows, n_cols = len(mat), len(mat[0])
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if not mat[r][col].is_zero()), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        # entries left of col are zero in every row from pivot_row down
        inv = mat[pivot_row][col].inverse()
        head = [v * inv for v in mat[pivot_row][col:]]
        for r in range(pivot_row + 1, n_rows):
            factor = mat[r][col]
            if not factor.is_zero():
                mat[r][col:] = [a - factor * b for a, b in zip(mat[r][col:], head)]
        pivot_row += 1
    return pivot_row


def exact_rank(rows) -> int:
    """Rank of a matrix with CyclotomicValue (or rational) entries: full rank
    certified mod p, otherwise exact elimination."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    full = min(len(rows), len(rows[0]))
    echelon = _EchelonModP(lcm(*(v.order for row in rows for v in row
                                 if isinstance(v, CyclotomicValue))))
    for row in rows:
        if echelon.add(row) == full:
            return full
    return _echelon_rank(rows)
