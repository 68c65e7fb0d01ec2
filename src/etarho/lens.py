"""Lens-space rho data over cyclic groups: explicit nonvanishing witnesses.

The delocalized table of L(n; a_1..a_k) is computed exactly in Q(zeta_n):

    rho_{g^j} = scale * (1/n) * prod_l 1/(w^(j a_l) - w^(-j a_l)),
    w = zeta_n^((n+1)/2)  (the canonical square root of zeta_n, n odd).

No factor is inverted in the field.  With x = j a_l mod n (nonzero) and
h = (n+1)/2, each factor has the closed form

    1/(w^x - w^-x) = zeta^(h x)/(zeta^x - 1) = (1/n) sum_{k=1}^{n-1} k zeta^((k+h) x),

because (zeta^x - 1) * sum_k k zeta^(k x) = n whenever zeta^x != 1.  These
are the cotangent sums behind lens-space rho invariants (Atiyah, Patodi and
Singer, Spectral asymmetry and Riemannian geometry II, 1975; Donnelly, 1978).

Span ranks need no exact table.  Take a prime p = 1 (mod n) above 2^31 and w
of order n mod p, and map zeta_n -> w: the ideal (p, zeta_n - w) of
``exactlinalg._certified_rank``.  Then w^x - 1 is a unit mod p for
x != 0 (mod n), the factor sum above maps to n w^(h x) (w^x - 1)^-1, and so

    rho_{g^j} -> scale n^-1 prod_l w^(h x_l) (w^(x_l) - 1)^-1  (mod p),

which is the image of the exact entry whenever p divides neither n (p > n)
nor the scale's denominator.  A rank of these F_p rows is therefore a lower
bound for the exact rank, and ``span_rank`` proves the rank with these rows
alone, under as many primes p as a norm bound asks.

One elimination serves all phi(n) prime ideals (p, zeta_n - w^u) above p.
The Galois map sigma_u: zeta -> zeta^u (gcd(u, n) = 1) sends S(x), the
factor sum above, to S(u x), so sigma_u(rho_{g^j}) = rho_{g^(u j)}.  The
pairing column c (rho(g^c) +- rho(g^-c)) goes to column +-u c mod n folded
into 1..(n-1)/2, with a sign for minus; so sigma_u(M) = M Q for a signed
permutation matrix Q, for any list of weights, deduplicated or not.
Reducing M at (p, zeta - w^u) is reducing sigma_u(M) at (p, zeta - w), so
every ideal above p gives the same F_p rank (Atiyah, Patodi and Singer II;
Donnelly).  The same symmetry scales weight tuples: L(n; u a) has the table
of L(n; a) with its classes relabelled.

The overall normalization against published eta tables is deliberately a
configuration knob (``defect_scale``); everything this package asserts about
the tables (parity under inversion, reality, rationality of twists, span
ranks) is independent of it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd

from .chars import (ClassFunction, FiniteGroup, RhoVector, VirtualRep,
                    _parity_sign, fourier_eta, pair_phi)
from .cyclotomic import CyclotomicValue, euler_phi
from .exactlinalg import _certified_rank


def _integer(value, what: str) -> int:
    """``value`` as an int if it is one (``operator.index``), never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _odd_n(n) -> int:
    n = _integer(n, "n")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    return n


def _k_parity(k: int) -> str:
    return "minus" if k % 2 else "plus"  # dim = 2k - 1 = 3 (mod 4) iff k is even


@dataclass(frozen=True)
class LensSpace:
    """L(n; a_1..a_k): n odd >= 3, weights coprime to n; dim = 2k - 1."""

    n: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _odd_n(self.n))
        object.__setattr__(self, "weights", tuple(_integer(a, "weight") for a in self.weights))
        if not self.weights:
            raise ValueError("at least one weight is required")
        for a in self.weights:
            if gcd(a, self.n) != 1:
                raise ValueError(f"weight {a} is not coprime to {self.n}")

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return 2 * self.k - 1

    @property
    def parity(self) -> str:
        """'plus' iff k is even (dim = 3 mod 4: a tau-symmetric real table), else 'minus'."""
        return _k_parity(self.k)

    def __str__(self):
        return f"L({self.n};{','.join(str(a) for a in self.weights)})"


@lru_cache(maxsize=4096)
def _lens_table(n: int, weights: tuple[int, ...], scale: Fraction) -> RhoVector:
    group = FiniteGroup.cyclic(n)
    half = (n + 1) // 2  # w = zeta^half squares to zeta
    values = [CyclotomicValue.zero(n)]
    for j in range(1, n):
        # each factor's 1/n is folded into the leading scalar
        prod = CyclotomicValue.from_rational(Fraction(scale, n ** (len(weights) + 1)), n)
        for a in weights:
            x = j * a % n  # nonzero: a is a unit and 0 < j < n
            coeffs = [0] * n
            for k in range(1, n):
                coeffs[(k + half) * x % n] += k  # indices collide when gcd(x, n) > 1
            prod = prod * CyclotomicValue(n, coeffs)
        values.append(prod)
    return RhoVector(group, tuple(values))


def lens_delocalized_rho(space: LensSpace, defect_scale=Fraction(1)) -> RhoVector:
    """Exact delocalized rho table of a lens space over cyclic:n."""
    return _lens_table(space.n, space.weights, Fraction(defect_scale))


def lens_twisted_rho(space: LensSpace, rep: VirtualRep, defect_scale=Fraction(1)):
    """Representation-twisted rho: the Fourier pairing against the lens table."""
    if len(rep.group) != space.n:
        raise ValueError(f"virtual rep lives on order {len(rep.group)}, lens space on {space.n}")
    return fourier_eta(rep, lens_delocalized_rho(space, defect_scale))


def _canonical_weights(n: int, weights: tuple[int, ...]) -> tuple[int, ...]:
    """Orbit representative under permutations and global unit scaling.

    The least sorted tuple u * weights starts with 1 (u = a_1^-1 puts 1 in
    it), so the minimizing u sends some a_i to 1: only u = a_i^-1 are tried.
    """
    return min(tuple(sorted(u * a % n for a in weights))
               for u in {pow(a, -1, n) for a in weights})


def _weight_tuples(n: int, k: int):
    """``weight_family(n, k)``, one tuple at a time.

    A representative starts with 1, so only the sorted tuples (1, ...) are
    listed.  They come in lex order, so the first member of an orbit to come
    up is its least, which is its canonical representative: a tuple opens a
    new orbit exactly when it is its own representative.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got k={k}")
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    for rest in combinations_with_replacement(units, k - 1):
        tup = (1,) + rest
        if _canonical_weights(n, tup) == tup:
            yield tup


def weight_family(n: int, k: int):
    """Sorted k-tuples of units mod n, deduplicated by symmetry, lex order."""
    return list(_weight_tuples(n, k))


@dataclass(frozen=True)
class NotFound:
    """Search exhausted its budget without a nonvanishing witness (a report)."""

    n: int
    parity: str
    candidates_tried: int

    def __bool__(self):
        return False


def _ks_of_parity(n: int, parity: str, ks):
    """The k in ``ks`` with ``parity`` (lazily), once parity and n are checked."""
    _parity_sign(parity)
    _odd_n(n)
    return (k for k in ks if _k_parity(k) == parity)


def search_nonvanishing(n: int, parity: str, f: ClassFunction, k_range,
                        weight_budget: int, defect_scale=Fraction(1)):
    """First lens space (lex order over deduplicated weights) with Phi(f) != 0.

    Returns (LensSpace, value) on success, NotFound otherwise.
    """
    ks = _ks_of_parity(n, parity, k_range)
    if f.is_zero():
        raise ValueError("f must be a nonzero class function")
    if len(f.group) != n:
        raise ValueError("class function group does not match n")
    if not f.in_class0(parity):
        raise ValueError(f"f is not in Class{'+' if parity == 'plus' else '-'}_0")
    tried = 0
    for k in ks:
        for weights in _weight_tuples(n, k):
            if tried >= weight_budget:
                return NotFound(n, parity, tried)
            tried += 1
            space = LensSpace(n, weights)
            value = pair_phi(f, lens_delocalized_rho(space, defect_scale))
            if not value.is_zero():
                return space, value
    return NotFound(n, parity, tried)


@lru_cache(maxsize=256)
def _fp_factors(n: int, p: int, w: int) -> tuple[int, ...]:
    """w^(h x) (w^x - 1)^-1 mod p for x = 0..n-1, h = (n+1)/2 (x = 0 unused)."""
    h = (n + 1) // 2
    return (0,) + tuple(pow(w, h * x, p) * pow(pow(w, x, p) - 1, -1, p) % p
                        for x in range(1, n))


def _fp_row(n: int, parity: str, weights: tuple[int, ...], scale: Fraction,
            p: int, w: int) -> list[int]:
    """The pairing row of L(n; weights) against the Class+-_0 basis, mapped
    into F_p by zeta_n -> w through the closed form of the module docstring;
    p must divide neither n nor the scale's denominator.

    Column c = 1..(n-1)/2 (the order of ``class_space_basis``) is
    rho(g^c) + rho(g^-c) for plus and rho(g^c) - rho(g^-c) for minus.
    """
    factors = _fp_factors(n, p, w)
    lead = scale.numerator * pow(scale.denominator * n, -1, p) % p
    rho = [0] * n
    for j in range(1, n):
        v = lead
        for a in weights:
            v = v * factors[j * a % n] % p
        rho[j] = v
    sign = _parity_sign(parity)
    return [(rho[c] + sign * rho[n - c]) % p for c in range(1, (n + 1) // 2)]


def _minor_norm_bits(n: int, k: int, num: int, s: int) -> int:
    """bits with |Norm(D)| < 2^bits for every s x s minor D of pairing rows
    scaled by n^(k+1) den(scale), where num = num(scale).

    A scaled entry is num (prod_l S(x_l) +- prod_l S(-x_l)), S(x) the factor
    sum of the module docstring, and
    |sigma_u(S(x))| = n / (2 |sin(pi u x / n)|) <= n^2/4 since
    sin(pi / n) >= 2/n.  So every conjugate of an entry is at most
    B = 2 |num| (n^2/4)^k, Hadamard bounds every conjugate of D by
    (s B^2)^(s/2), and |Norm(D)| <= (s B^2)^(s phi(n)/2) < 2^(L s phi(n)/2)
    once 2^L > s B^2 (phi(n) is even).
    """
    L = (s * (2 * num * n ** (2 * k)) ** 2 // 16 ** k).bit_length()
    return euler_phi(n) * s * L // 2


def span_rank(n: int, parity: str, k: int, weights_list=None,
              defect_scale=Fraction(1)) -> int:
    """Exact rank of the lens tables paired against the Class+-_0 basis.

    Rows are lens spaces from ``weights_list`` (defaults to the full
    deduplicated family, taken lazily), columns the deterministic basis
    functions, (n - 1)/2 of them since n is odd.  Each weight tuple must
    have k entries.

    Rows are built straight in F_p from the closed form of the module
    docstring (``_fp_row``), and ``exactlinalg._certified_rank`` proves the
    rank from them.  Scaled by n^(k+1) den(scale), the exact row has entries
    in Z[zeta_n]; p > 2^31 > n, so a p that divides neither den(scale) nor n
    lets zeta_n -> w map the row to its F_p row, and each used p counts as
    the phi(n) ideals above it by the Galois lemma.  The norm bound is
    ``_minor_norm_bits``.  The first prime takes the family lazily, and
    stops early at the column count.
    """
    if k not in _ks_of_parity(n, parity, [k]):
        raise ValueError(f"k={k} has the wrong parity for '{parity}'")
    if weights_list is None:
        family = _weight_tuples(n, k)
    else:
        family = [LensSpace(n, weights).weights for weights in weights_list]  # validate all
        if any(len(weights) != k for weights in family):
            raise ValueError(f"every weight tuple must have k={k} entries")
    scale = Fraction(defect_scale)
    kept, rest = [], iter(family)

    def rows_mod(p, w):  # the rows kept so far, then the family's rest, kept as drawn
        for weights in kept:
            yield _fp_row(n, parity, weights, scale, p, w)
        for weights in rest:
            kept.append(weights)
            yield _fp_row(n, parity, weights, scale, p, w)

    return _certified_rank(n, rows_mod, (n - 1) // 2, euler_phi(n),
                           lambda s: _minor_norm_bits(n, k, scale.numerator, s),
                           lambda p: scale.denominator % p == 0)
