"""The stdlib number theory against sympy, which stays the oracle here."""

from itertools import islice

import pytest
import sympy

from etarho import _ntheory
from etarho._ntheory import MR_PROVEN_BOUND, euler_phi, factor, is_prime, primes
from etarho.exactlinalg import _prime_and_root
from etarho.zoo import T_POWER_CAP, _prime_at

# strong pseudoprimes to the first 4, the first 9 and the first 12 prime bases
# (the last was the proven bound of twelve bases; base 41 is its witness)
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]


def chernick_carmichaels(count):
    """(6k + 1)(12k + 1)(18k + 1) with all three factors prime: Carmichael."""
    k = 1
    while count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            count -= 1
            yield factors
        k += 1


class TestIsPrime:
    def test_every_n_below_10_to_5(self):
        assert [n for n in range(10 ** 5) if is_prime(n)] == list(sympy.primerange(0, 10 ** 5))

    def test_negative_numbers_are_not_prime(self):
        assert not any(is_prime(n) for n in range(-50, 0))

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                                   29341, 41041, 46657, 52633, 62745, 63973, 75361,
                                   101101, 115921, 126217, 162401, 172081, 188461])
    def test_small_carmichael_numbers(self, n):
        # Korselt: squarefree, and p - 1 divides n - 1 for every prime p | n
        assert all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in sympy.factorint(n).items())
        assert not is_prime(n)

    def test_large_carmichael_numbers(self):
        for factors in chernick_carmichaels(30):
            n = factors[0] * factors[1] * factors[2]
            assert all((n - 1) % (p - 1) == 0 for p in factors)
            assert not is_prime(n) and not sympy.isprime(n)
            assert all(is_prime(p) for p in factors)

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_old_twelve_base_bound_is_composite(self):
        n = STRONG_PSEUDOPRIMES[-1]
        assert n == 399165290221 * 798330580441 < MR_PROVEN_BOUND
        assert not is_prime(n)

    def test_proven_bound_is_the_thirteen_base_pseudoprime(self):
        assert MR_PROVEN_BOUND == 1287836182261 * 2575672364521
        assert all(is_prime(p) for p in (1287836182261, 2575672364521))
        with pytest.raises(ValueError, match="bases 2..41"):
            is_prime(MR_PROVEN_BOUND)

    def test_below_the_bound_agrees_with_sympy(self):
        near = range(MR_PROVEN_BOUND - 400, MR_PROVEN_BOUND)
        assert [is_prime(n) for n in near] == [sympy.isprime(n) for n in near]

    def test_above_the_bound_a_witness_decides_or_it_raises(self):
        # a witness proves n composite at any size; a prime up here raises
        for n in range(MR_PROVEN_BOUND + 1, MR_PROVEN_BOUND + 400):
            if sympy.isprime(n):
                with pytest.raises(ValueError):
                    is_prime(n)
            else:
                assert not is_prime(n)

    def test_candidates_scanned_by_prime_and_root(self):
        # every q = 1 (mod N) from 2^31 up to the prime picked for N <= 96
        for order in range(1, 97):
            p, _ = _prime_and_root(order)
            scanned = range(2 ** 31 // order * order + 1, p + 1, order)
            assert [q for q in scanned if q > 2 ** 31 and is_prime(q)] == [p]
            assert all(is_prime(q) == sympy.isprime(q) for q in scanned)

    def test_large_primes_and_products(self):
        ps = [sympy.prevprime(2 ** k) for k in (31, 40, 61, 64, 70, 77)]
        assert all(is_prime(p) for p in ps)
        assert not any(is_prime(p * q) for p in ps for q in ps)


class TestFactor:
    def test_factor_and_phi_to_10_to_4(self):
        for n in range(1, 10 ** 4 + 1):
            assert factor(n) == sympy.factorint(n)
            assert euler_phi(n) == sympy.totient(n)

    def test_prime_just_below_the_order_cap(self):
        assert factor(999999999989) == {999999999989: 1}
        assert factor(10 ** 12) == {2: 12, 5: 12}

    @pytest.mark.parametrize("n", [0, -6])
    def test_nonpositive_raises(self, n):
        with pytest.raises(ValueError):
            factor(n)


class TestPrimes:
    def test_first_10_to_5_primes(self):
        first = list(islice(primes(), 10 ** 5))
        assert first == list(sympy.primerange(2, sympy.prime(10 ** 5) + 1))

    def test_segments_join_without_gaps(self, monkeypatch):
        # small capped segments: many boundaries, each new sieving prime too
        monkeypatch.setattr(_ntheory, "_SEGMENT_CAP", 37)
        assert list(islice(primes(), 5000)) == list(sympy.primerange(2, sympy.prime(5000) + 1))

    def test_zoo_prime_index_up_to_the_letter_cap(self):
        # sympy.prime(k) is the k-th entry of primerange; one call per k takes
        # minutes, so most indices read the range and a sample calls prime
        expected = list(sympy.primerange(2, sympy.prime(T_POWER_CAP + 1) + 1))
        assert [_prime_at(i) for i in range(-T_POWER_CAP, T_POWER_CAP + 1)] == [
            expected[abs(i)] for i in range(-T_POWER_CAP, T_POWER_CAP + 1)]
        for i in (0, 1, -2, 97, -1000, 9999, -T_POWER_CAP, T_POWER_CAP):
            assert _prime_at(i) == sympy.prime(abs(i) + 1)
