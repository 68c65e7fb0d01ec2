import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from etarho import exactlinalg
from etarho.cyclotomic import CyclotomicValue, cyclotomic_polynomial
from etarho.exactlinalg import _echelon_rank, _prime_and_root, exact_rank


def random_rational_matrix(rng, n_rows, n_cols, rank, zero_cols):
    """An n_rows x n_cols rational matrix of rank <= ``rank``: every row is a
    combination of ``rank`` random rows, and the ``zero_cols`` columns are 0."""
    basis = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_cols)]
             for _ in range(rank)]
    rows = []
    for _ in range(n_rows):
        coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rank)]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                     for j in range(n_cols)])
    for row in rows:
        for j in zero_cols:
            row[j] = Fraction(0)
    return rows


def random_value(rng, n):
    return CyclotomicValue(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                               for _ in range(n)])


class TestExactRankOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sympy_on_dependent_rational_rows(self, seed):
        rng = random.Random(seed)
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(0, min(n_rows, n_cols))
        zero_cols = rng.sample(range(n_cols), rng.randint(0, n_cols - 1))
        rows = random_rational_matrix(rng, n_rows, n_cols, rank, zero_cols)
        assert exact_rank(rows) == sympy.Matrix(rows).rank()

    def test_zero_and_repeated_rows(self):
        rows = [[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 6], [0, 1, 0]]
        assert exact_rank(rows) == sympy.Matrix(rows).rank() == 2

    @pytest.mark.parametrize("n", [5, 7, 12])
    def test_cyclotomic_combinations_keep_rank(self, n):
        rng = random.Random(n)
        rows = [[random_value(rng, n) for _ in range(4)] for _ in range(3)]
        rows[2][1] = CyclotomicValue.zero(n)
        rank = exact_rank(rows)
        assert rank == 3
        for _ in range(3):
            coeffs = [random_value(rng, n) for _ in rows]
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)),
                             CyclotomicValue.zero(n)) for j in range(4)])
        assert exact_rank(rows) == rank


def sympy_rank(rows):
    """Rank by sympy: ``Matrix.rank`` for rational matrices, and for
    cyclotomic ones ``DomainMatrix.rank`` over QQ<zeta_N>, whose zero test is
    exact (``Matrix.rank`` decides zero on expressions heuristically)."""
    order = lcm(*(v.order for row in rows for v in row if isinstance(v, CyclotomicValue)))
    if order == 1:
        return sympy.Matrix([[v.as_rational() if isinstance(v, CyclotomicValue)
                              else v for v in row] for row in rows]).rank()
    field = QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / order))
    assert field.mod.to_list() == list(reversed(cyclotomic_polynomial(order)))

    def element(v):
        if not isinstance(v, CyclotomicValue):
            v = CyclotomicValue.from_rational(v)
        v = v.lift(order)
        return field.new([QQ(c.numerator, c.denominator) for c in reversed(v.coefficients)])

    return DomainMatrix([[element(v) for v in row] for row in rows],
                        (len(rows), len(rows[0])), field).rank()


@pytest.fixture
def fallbacks(monkeypatch):
    """Records each call exact_rank makes to the exact elimination."""
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return _echelon_rank(rows)

    monkeypatch.setattr(exactlinalg, "_echelon_rank", spy)
    return calls


def dependent_rows(rng, rows, count):
    n = rows[0][0].order
    for _ in range(count):
        coeffs = [random_value(rng, n) for _ in rows]
        yield [sum((c * row[j] for c, row in zip(coeffs, rows)), CyclotomicValue.zero(n))
               for j in range(len(rows[0]))]


class TestModPCertificate:
    @pytest.mark.parametrize("n, shape", [(5, (3, 4)), (7, (4, 4)), (12, (4, 3)), (9, (2, 5))])
    def test_full_rank_is_certified(self, n, shape, fallbacks):
        rng = random.Random(n)
        rows = [[random_value(rng, n) for _ in range(shape[1])] for _ in range(shape[0])]
        rank = exact_rank(rows)
        assert fallbacks == []
        assert rank == min(shape) == _echelon_rank(rows) == sympy_rank(rows)

    @pytest.mark.parametrize("n", [5, 7, 12])
    def test_rank_deficient_falls_back(self, n, fallbacks):
        rng = random.Random(100 + n)
        rows = [[random_value(rng, n) for _ in range(5)] for _ in range(2)]
        rows += list(dependent_rows(rng, rows, 2))
        rank = exact_rank(rows)
        assert fallbacks == [4]
        assert rank == 2 == _echelon_rank(rows) == sympy_rank(rows)

    @pytest.mark.parametrize("dependent", [False, True])
    def test_mixed_orders(self, dependent, fallbacks):
        z3, z4 = CyclotomicValue.root_of_unity(3), CyclotomicValue.root_of_unity(4)
        rows = [[z3, Fraction(1, 2), z4 + 1],
                [z4, z3 * z3, Fraction(-3)]]
        if dependent:
            rows.append([z3 * a + z4 * b for a, b in zip(*rows)])
        else:
            rows.append([Fraction(2), z4 - z3, CyclotomicValue.root_of_unity(6)])
        rank = exact_rank(rows)
        assert fallbacks == ([3] if dependent else [])
        assert rank == (2 if dependent else 3) == _echelon_rank(rows) == sympy_rank(rows)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_denominator_divisible_by_p_falls_back(self, n, fallbacks):
        p, _ = _prime_and_root(n)
        rows = [[CyclotomicValue.root_of_unity(n, i + j) + i * j for j in range(3)]
                for i in range(3)]
        rows[1][2] = CyclotomicValue(n, [Fraction(1, p)])
        rank = exact_rank(rows)
        assert fallbacks == [3]
        assert rank == _echelon_rank(rows) == sympy_rank(rows)

    def test_value_outside_the_field_ends_the_certificate(self):
        echelon = exactlinalg._EchelonModP(5)
        assert echelon.add([CyclotomicValue.root_of_unity(5), 1]) == 1
        assert echelon.add([CyclotomicValue.root_of_unity(3), 1]) is None
        assert echelon.add([1, 0]) is None

    def test_prime_and_root_for_orders_1_to_96(self):
        for order in range(1, 97):
            p, w = _prime_and_root(order)
            assert sympy.isprime(p) and p > 2 ** 31 and (p - 1) % order == 0
            assert not any(sympy.isprime(q) for q in range(p - order, 2 ** 31, -order))
            assert pow(w, order, p) == 1
            assert all(pow(w, order // q, p) != 1 for q in sympy.primefactors(order))
