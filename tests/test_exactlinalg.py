import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from etarho import exactlinalg
from etarho.cyclotomic import CyclotomicValue, cyclotomic_polynomial, euler_phi
from etarho.exactlinalg import _integral_row, _norm_bound_bits, _prime_and_root, exact_rank
from rank_oracle import _echelon_rank


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

    @pytest.mark.parametrize("rows", [[[0, 1], [1]], [[], [1]], [[1], [0, 1]]])
    def test_ragged_matrix_rejected(self, rows):
        # once an IndexError, a rank of 0 and a rank of 1
        with pytest.raises(ValueError, match="row 1 has"):
            exact_rank(rows)

    def test_no_rows_or_no_columns(self):
        assert exact_rank([]) == exact_rank([[]]) == exact_rank([[], []]) == 0

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
def ideals(monkeypatch):
    """Records the ideal (p, w) of each prime the rank walk draws: exact_rank
    takes the one ideal (p, zeta - w) above each."""
    used = []

    def spy(order, above=2 ** 31):
        used.append(prime_and_root(order, above))
        return used[-1]

    prime_and_root = exactlinalg._prime_and_root
    monkeypatch.setattr(exactlinalg, "_prime_and_root", spy)
    return used


def first_ideals(order, count):
    """The first ``count`` ideals (p, w) of the walk, one per prime."""
    out = [_prime_and_root(order)]
    while len(out) < count:
        out.append(_prime_and_root(order, out[-1][0]))
    return out


def bound_ideals(rows):
    """ceil(bits / 31): the ideals, one per prime, that exact_rank takes on a
    rank-deficient matrix."""
    order = lcm(*(v.order for row in rows for v in row if isinstance(v, CyclotomicValue)))
    return -(-_norm_bound_bits([_integral_row(row) for row in rows], order) // 31)


def dependent_rows(rng, rows, count):
    n = rows[0][0].order
    for _ in range(count):
        coeffs = [random_value(rng, n) for _ in rows]
        yield [sum((c * row[j] for c, row in zip(coeffs, rows)), CyclotomicValue.zero(n))
               for j in range(len(rows[0]))]


class TestModPCertificate:
    @pytest.mark.parametrize("n, shape", [(5, (3, 4)), (7, (4, 4)), (12, (4, 3)), (9, (2, 5))])
    def test_full_rank_is_certified(self, n, shape, ideals):
        rng = random.Random(n)
        rows = [[random_value(rng, n) for _ in range(shape[1])] for _ in range(shape[0])]
        rank = exact_rank(rows)
        assert ideals == [_prime_and_root(n)]
        assert rank == min(shape) == _echelon_rank(rows) == sympy_rank(rows)

    @pytest.mark.parametrize("n", [5, 7, 12])
    def test_rank_deficient_falls_back(self, n, ideals):
        """A rank below min(rows, cols) takes ideals until they pass the bound."""
        rng = random.Random(100 + n)
        rows = [[random_value(rng, n) for _ in range(5)] for _ in range(2)]
        rows += list(dependent_rows(rng, rows, 2))
        rank = exact_rank(rows)
        assert ideals == first_ideals(n, bound_ideals(rows)) and len(ideals) > 1
        assert rank == 2 == _echelon_rank(rows) == sympy_rank(rows)

    @pytest.mark.parametrize("dependent", [False, True])
    def test_mixed_orders(self, dependent, ideals):
        z3, z4 = CyclotomicValue.root_of_unity(3), CyclotomicValue.root_of_unity(4)
        rows = [[z3, Fraction(1, 2), z4 + 1],
                [z4, z3 * z3, Fraction(-3)]]
        if dependent:
            rows.append([z3 * a + z4 * b for a, b in zip(*rows)])
        else:
            rows.append([Fraction(2), z4 - z3, CyclotomicValue.root_of_unity(6)])
        rank = exact_rank(rows)
        assert len(ideals) == (bound_ideals(rows) if dependent else 1)
        assert rank == (2 if dependent else 3) == _echelon_rank(rows) == sympy_rank(rows)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_denominator_divisible_by_p_falls_back(self, n, ideals):
        """A 1/p entry is scaled away with its row, so one ideal still proves
        full rank."""
        p, _ = _prime_and_root(n)
        rows = [[CyclotomicValue.root_of_unity(n, i + j) + i * j for j in range(3)]
                for i in range(3)]
        rows[1][2] = CyclotomicValue(n, [Fraction(1, p)])
        rank = exact_rank(rows)
        assert len(ideals) == 1
        assert rank == 3 == _echelon_rank(rows) == sympy_rank(rows)

    def test_prime_and_root_for_orders_1_to_96(self):
        for order in range(1, 97):
            p, w = _prime_and_root(order)
            assert sympy.isprime(p) and p > 2 ** 31 and (p - 1) % order == 0
            assert not any(sympy.isprime(q) for q in range(p - order, 2 ** 31, -order))
            assert pow(w, order, p) == 1
            assert all(pow(w, order // q, p) != 1 for q in sympy.primefactors(order))

    @pytest.mark.parametrize("order", [1, 2, 5, 12, 31])
    def test_prime_ideals(self, order):
        """The walk's ideals: primes p = 1 (mod order) above 2^31 in
        increasing order, with no such prime skipped, each with a primitive
        root w."""
        ideals = first_ideals(order, 4)
        primes = [p for p, _ in ideals]
        assert primes == sorted(set(primes)) and primes[0] > 2 ** 31
        for p, q in zip(primes, primes[1:]):
            assert not any(sympy.isprime(r) for r in range(p + order, q, order))
        for p, w in ideals:
            assert sympy.isprime(p) and (p - 1) % order == 0
            assert pow(w, order, p) == 1
            assert all(pow(w, order // q, p) != 1 for q in sympy.primefactors(order))


class TestIdealCount:
    """Matrices whose rank one ideal, or the first few, get wrong."""

    def test_entry_p_at_order_1(self, ideals):
        p, _ = _prime_and_root(1)
        assert exact_rank([[1, 0], [0, p]]) == 2
        assert [q for q, _ in ideals] == [p, _prime_and_root(1, p)[0]]

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_entry_p_lies_in_every_ideal_above_p(self, n, ideals):
        # one ideal per prime: the next prime proves the rank
        p, _ = _prime_and_root(n)
        assert exact_rank([[CyclotomicValue.root_of_unity(n), 0], [0, p]]) == 2
        assert ideals == first_ideals(n, 2)

    def test_entry_lies_in_the_first_ideal_only(self, ideals):
        p, w = _prime_and_root(5)
        assert exact_rank([[CyclotomicValue.root_of_unity(5) - w, 0], [0, 1]]) == 2
        assert len(ideals) == 2

    def test_rank_is_the_largest_seen_not_the_last(self, ideals):
        # zeta - w lies in the ideal (p, zeta - w); take the w of the last
        # prime the bound asks for, so that ideal alone sees rank 0
        first = first_ideals(5, 8)
        for k, (_, w) in enumerate(first, start=1):
            rows = [[CyclotomicValue.root_of_unity(5) - w, 0, 0], [0, 0, 0]]
            if k > 1 and bound_ideals(rows) == k:
                break
        assert bound_ideals(rows) == k
        assert exact_rank(rows) == 1
        assert ideals == first[:k]

    def test_deficient_ranks_run_no_field_inverse(self, monkeypatch):
        rng = random.Random(7)
        rows = [[random_value(rng, 7) for _ in range(4)] for _ in range(2)]
        rows += list(dependent_rows(rng, rows, 2))
        rows.append([Fraction(1, 3), CyclotomicValue.root_of_unity(7), 0, 0])
        expected = _echelon_rank(rows)
        calls = []
        monkeypatch.setattr(CyclotomicValue, "inverse", lambda self: calls.append(self))
        assert exact_rank(rows) == expected == 3
        assert calls == []


def integral_values(order):
    return st.lists(st.integers(-20, 20), min_size=1, max_size=euler_phi(order)).map(
        lambda coeffs: CyclotomicValue(order, coeffs))


@st.composite
def integral_matrices(draw):
    order = draw(st.sampled_from([1, 3, 4, 5, 7, 8, 12]))
    size = draw(st.integers(2, 3))
    orders = [d for d in range(1, order + 1) if order % d == 0]
    return [[draw(st.sampled_from(orders).flatmap(integral_values)) for _ in range(size)]
            for _ in range(size)]


def determinant(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(((-1) ** j * rows[0][j] * determinant([row[:j] + row[j + 1:] for row in rows[1:]])
                for j in range(len(rows))), CyclotomicValue.zero())


class TestNormBound:
    @settings(max_examples=40, deadline=None)
    @given(integral_matrices())
    def test_norm_of_determinant_is_below_the_bound(self, rows):
        order = lcm(*(v.order for row in rows for v in row))
        det = determinant(rows).lift(order)
        norm = CyclotomicValue.one(order)
        for u in range(1, order + 1):
            if gcd(u, order) == 1:
                norm = norm * det.galois(u)
        norm = norm.as_rational()
        assert norm.denominator == 1
        bits = _norm_bound_bits([_integral_row(row) for row in rows], order)
        assert abs(norm) < 2 ** bits
