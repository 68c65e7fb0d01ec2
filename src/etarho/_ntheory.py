"""Integer number theory, standard library only.

etarho needs a few integer calls (factor, Euler phi, Phi_n, a primality
test, the primes in order); importing sympy for them would dominate the
start-up time of every CLI call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Iterator

# Miller-Rabin with the first thirteen primes as bases is correct for every
# n < MR_PROVEN_BOUND (Sorenson and Webster, Math. Comp. 86, 2017); the bound
# itself, 1287836182261 * 2575672364521, is a strong pseudoprime to all
# thirteen.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BOUND = 3317044064679887385961981

_SEGMENT_CAP = 1 << 17  # odd numbers sieved per segment of ``primes``


def factor(n: int) -> dict[int, int]:
    """The prime factorization of n >= 1 as {prime: exponent}, by trial
    division (about sqrt(n) / 3 steps when n is prime)."""
    if n < 1:
        raise ValueError(f"factor needs a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p, step = 5, 2  # 5, 7, 11, 13, ...: the numbers prime to 6
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factor(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, as plain integers.

    For n > 1, Phi_n = prod over d | n of (1 - x^d)^mu(n/d).  Each factor
    is a unit of Z[[x]] (constant term 1), so the product is exact as a
    series cut above degree phi(n): one O(phi(n)) pass per squarefree
    divisor n/d of n."""
    if n == 1:
        return (-1, 1)
    size = euler_phi(n) + 1
    series = [1] + [0] * (size - 1)
    ps = list(factor(n))
    for mask in range(1 << len(ps)):
        d = n
        for j, p in enumerate(ps):
            if mask >> j & 1:
                d //= p
        if bin(mask).count("1") & 1:  # mu(n/d) = -1: divide by 1 - x^d
            for i in range(d, size):
                series[i] += series[i - d]
        else:  # mu(n/d) = +1: multiply by 1 - x^d
            for i in range(size - 1, d - 1, -1):
                series[i] -= series[i - d]
    return tuple(series)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first thirteen prime bases.

    A witness proves n composite at any size.  With no witness, n is prime
    below MR_PROVEN_BOUND; at or above it this raises ValueError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_PROVEN_BOUND:
        raise ValueError(f"{n} passes Miller-Rabin to the bases 2..41, which proves "
                         f"primality only below {MR_PROVEN_BOUND}")
    return True


def primes() -> Iterator[int]:
    """Every prime in increasing order, by a segmented sieve of
    Eratosthenes over the odd numbers.  A second, lazily advanced copy of
    this generator supplies the sieving primes up to the square root of
    each segment's end, so memory stays O(sqrt(N)) plus one segment."""
    yield from (2, 3, 5, 7, 11)
    source = primes()
    next(source)  # 2: the segments hold odd numbers only
    sieving: list[int] = []
    pending = next(source)
    # the segment is lo, lo + 2, ..., lo + 2 (count - 1); the first one ends
    # below 11^2, so its sieving primes come from the copy's head alone
    lo, count = 13, 32
    while True:
        top = lo + 2 * (count - 1)
        while pending * pending <= top:
            sieving.append(pending)
            pending = next(source)
        flags = bytearray(b"\x01") * count
        for p in sieving:
            start = max(p * p, -(-lo // p) * p)
            if not start & 1:
                start += p
            i = (start - lo) >> 1
            flags[i::p] = bytes(len(range(i, count, p)))
        yield from compress(range(lo, top + 1, 2), flags)
        lo = top + 2
        count = min(2 * count, _SEGMENT_CAP)
