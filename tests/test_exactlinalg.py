import random
from fractions import Fraction

import pytest
import sympy

from etarho.cyclotomic import CyclotomicValue
from etarho.exactlinalg import exact_rank


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
