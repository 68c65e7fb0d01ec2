import random
from fractions import Fraction
from itertools import islice
from math import floor, gcd

import mpmath
import pytest
import sympy

from etarho.chars import (FiniteGroup, class_space_basis, is_in_R0, l2_twist,
                          pair_phi, rank_plus, regular_rep, trivial_rep)
from etarho.cyclotomic import CyclotomicValue, euler_phi
from etarho import lens
from etarho import exactlinalg
from etarho.exactlinalg import _prime_and_root, exact_rank
from etarho.lens import (LensSpace, NotFound, lens_delocalized_rho,
                         lens_twisted_rho, search_nonvanishing, span_rank,
                         weight_family)
from etarho.rho import rho2_from_delocalized, ring_from_orders
from rank_oracle import (_echelon_rank, canonical_weights, eager_weight_family,
                         image_mod_p, pairing_rows, rank_mod_p)


def rat(q):
    return CyclotomicValue.from_rational(Fraction(q))


class TestLensSpace:
    def test_dimensions(self):
        assert LensSpace(3, (1, 1)).dim == 3
        assert LensSpace(5, (1,)).dim == 1
        assert LensSpace(7, (1, 2, 3, 4)).dim == 7

    def test_parity_is_the_dimension_class(self):
        for k, parity in [(1, "minus"), (2, "plus"), (3, "minus"), (4, "plus")]:
            space = LensSpace(7, (1,) * k)
            assert space.parity == parity
            assert (space.dim % 4 == 3) == (parity == "plus")

    def test_validation(self):
        with pytest.raises(ValueError):
            LensSpace(4, (1,))  # even
        with pytest.raises(ValueError):
            LensSpace(9, (3,))  # not coprime
        with pytest.raises(ValueError):
            LensSpace(3, ())

    # non-integers are rejected, never truncated ((1.5, 2) used to read as (1, 2))
    @pytest.mark.parametrize("call, message", [
        (lambda: LensSpace(5, (1.5, 2)), "weight must be an integer, got 1.5"),
        (lambda: LensSpace(7.5, (1,)), "n must be an integer, got 7.5"),
        (lambda: span_rank(5, "plus", 2, [(1.9, 2.2)]), "weight must be an integer, got 1.9"),
    ], ids=["weight", "n", "span_rank weights"])
    def test_non_integers_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestDelocalizedTable:
    def test_l3_11_frozen_values(self):
        rho = lens_delocalized_rho(LensSpace(3, (1, 1)))
        assert rho(0).is_zero()
        assert rho(1) == rat(Fraction(-1, 9))
        assert rho(2) == rat(Fraction(-1, 9))

    def test_l3_1_antisymmetric_imaginary(self):
        rho = lens_delocalized_rho(LensSpace(3, (1,)))
        assert rho(1) == -rho(2)
        assert rho(1).is_imaginary()
        assert rho.is_tau_antisymmetric()

    def test_numeric_cross_check_50_digits(self):
        # independent oracle: direct complex evaluation of the defect product
        cases = [(3, (1, 1)), (5, (1, 2)), (7, (1, 1, 2)), (9, (1, 2, 4, 5))]
        with mpmath.workdps(50):
            for n, weights in cases:
                rho = lens_delocalized_rho(LensSpace(n, weights))
                w = mpmath.e ** (2j * mpmath.pi * ((n + 1) // 2) / n)
                for j in range(1, n):
                    direct = mpmath.mpf(1) / n
                    for a in weights:
                        direct /= w ** (j * a) - w ** (-j * a)
                    embedded = rho(j).embed(166)
                    assert abs(embedded - direct) < mpmath.mpf(10) ** -45

    @pytest.mark.parametrize("n, weights", [
        (3, (1, 1)), (5, (1, 2, 3)), (7, (1, 2, 3, 4)), (9, (1, 2)), (9, (1, 4, 7)),
        (15, (1, 2)), (15, (1, 7, 11)), (21, (1, 2, 5, 8)),
    ])
    def test_closed_form_matches_field_inverses(self, n, weights):
        # reference: invert every factor of the defect product in Q(zeta_n);
        # the composite n cover classes g^j with gcd(j, n) > 1
        scale = Fraction(3, 5)
        half = (n + 1) // 2
        rho = lens_delocalized_rho(LensSpace(n, weights), scale)
        for j in range(1, n):
            ref = CyclotomicValue.from_rational(scale / n, n)
            for a in weights:
                ref = ref * (CyclotomicValue.root_of_unity(n, half * j * a)
                             - CyclotomicValue.root_of_unity(n, -half * j * a)).inverse()
            assert rho(j).coefficients == ref.coefficients

    def test_parity_law_all_small_spaces(self):
        for n in (3, 5, 7):
            for k in (1, 2, 3, 4):
                for weights in weight_family(n, k):
                    space = LensSpace(n, weights)
                    rho = lens_delocalized_rho(space)
                    assert space.parity == ("plus" if (2 * k - 1) % 4 == 3 else "minus")
                    if (2 * k - 1) % 4 == 3:
                        assert rho.is_tau_symmetric()
                        assert all(v.is_real() for v in rho.values)
                    else:
                        assert rho.is_tau_antisymmetric()
                        assert all(v.is_imaginary() for v in rho.values)

    def test_defect_scale_is_linear(self):
        base = lens_delocalized_rho(LensSpace(5, (1, 2)))
        scaled = lens_delocalized_rho(LensSpace(5, (1, 2)), Fraction(3, 2))
        assert all(s == v * Fraction(3, 2) for v, s in zip(base.values, scaled.values))


def dedekind_sum(h, k):
    """s(h, k) for coprime h and k >= 1, by reciprocity:
    s(h, k) + s(k, h) = (h/k + k/h + 1/(h k)) / 12 - 1/4, and s(h, 1) = 0."""
    total, sign = Fraction(0), 1
    h %= k
    while k > 1:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


def sawtooth(x):
    return Fraction(0) if x.denominator == 1 else x - floor(x) - Fraction(1, 2)


def lens3_rho2(n, q, scale=1):
    """rho2(L(n; 1, q)) = scale (2 s(q, n) - s(2q, n) - s(hq, n)), h = (n+1)/2:
    the cotangent sums of the table (j -> 2j, csc 2t = cot t - cot 2t) are
    Dedekind sums (Rademacher and Grosswald, Dedekind Sums, 1972)."""
    h = (n + 1) // 2
    return scale * (2 * dedekind_sum(q, n) - dedekind_sum(2 * q, n)
                    - dedekind_sum(h * q, n))


class TestDedekindOracle:
    """rho2 of the 3-dimensional lens spaces from Dedekind sums, a closed form
    independent of the cyclotomic table."""

    def test_reciprocity_matches_the_sawtooth_sum(self):
        for k in range(1, 32):
            for h in range(-k, 2 * k):
                if gcd(h, k) == 1:
                    direct = sum((sawtooth(Fraction(r, k)) * sawtooth(Fraction(h * r, k))
                                  for r in range(1, k)), Fraction(0))
                    assert dedekind_sum(h, k) == direct, (h, k)

    # every q for n <= 15, and a fixed sample above (all 212 spaces with
    # odd n <= 31 agree, but n = 31 costs about 0.3 s a table)
    SPACES = ([(n, q) for n in range(3, 16, 2) for q in range(1, n) if gcd(q, n) == 1]
              + [(21, 2), (21, 8), (21, 20), (25, 3), (25, 12), (25, 24),
                 (31, 2), (31, 12), (31, 30)])

    def test_rho2_matches_the_table(self):
        for n, q in self.SPACES:
            rho = lens_delocalized_rho(LensSpace(n, (1, q)))
            assert rho2_from_delocalized(rho).as_rational() == lens3_rho2(n, q), (n, q)

    def test_scale_is_a_factor(self):
        scale = Fraction(7, 3)
        for n in (3, 5, 7, 9):
            for q in range(1, n):
                if gcd(q, n) == 1:
                    rho = lens_delocalized_rho(LensSpace(n, (1, q)), scale)
                    assert (rho2_from_delocalized(rho).as_rational()
                            == lens3_rho2(n, q, scale)), (n, q)


class TestTwistedRho:
    def test_l2_twist_gives_rho2(self):
        space = LensSpace(3, (1, 1))
        twist = l2_twist(FiniteGroup.cyclic(3))
        value = lens_twisted_rho(space, twist)
        assert value == rat(Fraction(2, 9))
        assert value == rho2_from_delocalized(lens_delocalized_rho(space))

    def test_zero_rep(self):
        space = LensSpace(5, (1, 2))
        zero = trivial_rep(FiniteGroup.cyclic(5)).scale(0)
        assert lens_twisted_rho(space, zero).is_zero()

    def test_regular_rep_kills_table(self):
        # identity slot is 0 and chi_reg vanishes away from 1
        space = LensSpace(7, (1, 2))
        assert lens_twisted_rho(space, regular_rep(FiniteGroup.cyclic(7))).is_zero()

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            lens_twisted_rho(LensSpace(5, (1,)), trivial_rep(FiniteGroup.cyclic(3)))

    def test_fourier_consistency_with_pair_phi(self):
        from etarho.chars import r_plus_test_reps
        for n in (3, 5):
            for rep in r_plus_test_reps(n):
                for weights in weight_family(n, 2):
                    space = LensSpace(n, weights)
                    table = lens_delocalized_rho(space)
                    assert lens_twisted_rho(space, rep) == pair_phi(rep.character, table)

    def test_rationality_for_integer_characters(self):
        for n in (3, 5):
            ring = ring_from_orders([n])
            reg = regular_rep(FiniteGroup.cyclic(n))
            triv = trivial_rep(FiniteGroup.cyclic(n))
            rep = reg - triv.scale(n)  # integer character, chi(1) = 0
            for k in (1, 2, 3):
                for weights in weight_family(n, k):
                    value = lens_twisted_rho(LensSpace(n, weights), rep)
                    assert value.is_rational()
                    assert ring.contains(value.as_rational())


class TestSearch:
    def test_frozen_witness_n3(self):
        basis = class_space_basis(FiniteGroup.cyclic(3), "plus")
        space, value = search_nonvanishing(3, "plus", basis[0], [2], 50)
        assert str(space) == "L(3;1,1)"
        assert value == rat(Fraction(-2, 9))

    def test_minus_parity_n5(self):
        f = class_space_basis(FiniteGroup.cyclic(5), "minus")[0]
        hit = search_nonvanishing(5, "minus", f, [1], 50)
        assert hit
        space, value = hit
        assert space.k == 1
        assert value.is_imaginary() and not value.is_zero()

    def test_zero_function_rejected(self):
        g = FiniteGroup.cyclic(3)
        zero = class_space_basis(g, "plus")[0]
        zero = zero - zero
        with pytest.raises(ValueError):
            search_nonvanishing(3, "plus", zero, [2], 10)

    def test_budget_exhaustion_reports_not_found(self):
        basis = class_space_basis(FiniteGroup.cyclic(7), "plus")
        result = search_nonvanishing(7, "plus", basis[0], [2], 0)
        assert isinstance(result, NotFound)
        assert not result
        assert result.candidates_tried == 0

    def test_wrong_parity_function_rejected(self):
        minus_f = class_space_basis(FiniteGroup.cyclic(5), "minus")[0]
        with pytest.raises(ValueError, match=r"f is not in Class\+_0"):
            search_nonvanishing(5, "plus", minus_f, [2], 10)

    @pytest.mark.parametrize("budget", [0, 5])
    def test_even_n_rejected_whatever_the_budget(self, budget):
        # a budget of 0 once returned NotFound before any lens space was built
        f = class_space_basis(FiniteGroup.cyclic(4), "plus")[0]
        with pytest.raises(ValueError, match="n must be odd and >= 3, got 4"):
            search_nonvanishing(4, "plus", f, [2], budget)


@pytest.mark.parametrize("parity", ["PLUS", ""])
@pytest.mark.parametrize("call", [
    lambda parity: class_space_basis(FiniteGroup.cyclic(5), parity),
    lambda parity: is_in_R0(l2_twist(FiniteGroup.cyclic(5)), parity),
    lambda parity: class_space_basis(FiniteGroup.cyclic(5), "plus")[0].in_class0(parity),
    lambda parity: span_rank(5, parity, 2),
    lambda parity: search_nonvanishing(
        5, parity, class_space_basis(FiniteGroup.cyclic(5), "plus")[0], [2], 10),
], ids=["class_space_basis", "is_in_R0", "in_class0", "span_rank", "search_nonvanishing"])
def test_bad_parity_rejected(call, parity):
    with pytest.raises(ValueError, match="parity must be 'plus' or 'minus'"):
        call(parity)


@pytest.fixture
def no_exact_rows(monkeypatch):
    """Fails at once where span_rank would build exact rows."""
    def refuse(*args):
        raise AssertionError("span_rank built an exact lens table")

    monkeypatch.setattr(lens, "lens_delocalized_rho", refuse)


@pytest.fixture
def primes(monkeypatch):
    """Records each prime p that the rank walk of span_rank draws."""
    used = []

    def spy(order, above=2 ** 31):
        p, w = prime_and_root(order, above)
        used.append(p)
        return p, w

    prime_and_root = exactlinalg._prime_and_root
    monkeypatch.setattr(exactlinalg, "_prime_and_root", spy)
    return used


def bound_ideals(n, k, scale, s):
    """ceil(bits / 31), bits = L s phi(n)/2 with 2^L > s B^2 and
    B = 2 |num(scale)| (n^2/4)^k: the ideals of norm above 2^31 that a rank
    s - 1 short of the rows needs, worked out in Fractions."""
    b = 2 * abs(Fraction(scale).numerator) * Fraction(n * n, 4) ** k
    L = 0
    while 2 ** L <= s * b * b:
        L += 1
    return -(-(L * s * euler_phi(n) // 2) // 31)


def bound_primes(n, k, scale, s):
    """The primes span_rank uses once its rank s - 1 falls short: each one
    stands for the phi(n) ideals above it."""
    return -(-bound_ideals(n, k, scale, s) // euler_phi(n))


def first_primes(n, count):
    """The first ``count`` primes p = 1 (mod n) above 2^31, by sympy."""
    out, p = [], 2 ** 31 // n * n + 1
    while len(out) < count:
        if p > 2 ** 31 and sympy.isprime(p):
            out.append(p)
        p += n
    return out


@pytest.mark.usefixtures("no_exact_rows")
class TestSpanRank:
    def test_n3_k2_single_orbit(self):
        assert span_rank(3, "plus", 2, [(1, 1)]) == 1 == rank_plus(FiniteGroup.cyclic(3))

    def test_n5_matches_rank_plus(self):
        for k in (2, 4):
            assert span_rank(5, "plus", k) == rank_plus(FiniteGroup.cyclic(5)) == 2

    def test_empty_family(self):
        assert span_rank(5, "plus", 2, []) == 0

    def test_matches_brute_force_assembly(self):
        for n in (3, 5, 7):
            basis = class_space_basis(FiniteGroup.cyclic(n), "plus")
            rows = [[pair_phi(f, lens_delocalized_rho(LensSpace(n, w)))
                     for f in basis] for w in weight_family(n, 4)]
            assert span_rank(n, "plus", 4) == exact_rank(rows)

    def test_minus_parity_rank(self):
        # the unit-deduplicated k=1 family is a single space (rank 1); an
        # explicit two-weight family realizes the full minus rank
        assert span_rank(5, "minus", 1) == 1
        assert span_rank(5, "minus", 1, [(1,), (2,)]) == 2

    def test_parity_k_mismatch_rejected(self):
        with pytest.raises(ValueError, match="k=3 has the wrong parity for 'plus'"):
            span_rank(5, "plus", 3)
        with pytest.raises(ValueError, match="k=2 has the wrong parity for 'minus'"):
            span_rank(5, "minus", 2)

    @pytest.mark.parametrize("n, k, weights_list", [(5, 2, [(1,)]), (7, 2, [(1, 2, 3)]),
                                                    (7, 4, [(1, 1, 2, 2), (1, 2)])])
    def test_weight_tuples_of_another_length_rejected(self, n, k, weights_list):
        with pytest.raises(ValueError, match=f"k={k}"):
            span_rank(n, "plus", k, weights_list)

    def test_lens_imports_no_exact_rank_path(self):
        assert not hasattr(lens, "exact_rank") and not hasattr(lens, "class_space_basis")


@pytest.mark.usefixtures("no_exact_rows")
class TestSpanRankEarlyStop:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_exact_elimination(self, n, k, primes):
        rows = pairing_rows(n, "plus", weight_family(n, k))
        rank = span_rank(n, "plus", k)
        assert rank == _echelon_rank(rows)
        # one prime proves full rank; a rank below it takes the bound's primes
        want = 1 if rank == len(rows[0]) else bound_primes(n, k, 1, rank + 1)
        assert primes == first_primes(n, want)

    def test_rank_below_column_count_takes_the_bound_ideals(self, primes):
        rows = pairing_rows(7, "plus", weight_family(7, 2))
        assert span_rank(7, "plus", 2) == _echelon_rank(rows) == 2 < rank_plus(
            FiniteGroup.cyclic(7)) == 3
        # the bound asks for 6 ideals: the phi(7) = 6 above the first prime
        assert bound_ideals(7, 2, 1, 3) == 6
        assert primes == first_primes(7, bound_primes(7, 2, 1, 3)) and len(primes) == 1

    def test_repeated_weights(self, primes):
        weights = [(1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 2, 2), (1, 1, 1, 1), (1, 2, 3, 4),
                   (1, 1, 2, 2), (1, 2, 2, 6)]
        for end, rank in ((2, 1), (4, 2), (len(weights), 3)):
            assert span_rank(7, "plus", 4, weights[:end]) == _echelon_rank(
                pairing_rows(7, "plus", weights[:end])) == rank
        # full rank (3) is reached at the fifth row, so the whole list stops at
        # one prime; the shorter lists fall short of their row count
        first = first_primes(7, 10)
        assert primes == (first[:bound_primes(7, 4, 1, 2)] + first[:bound_primes(7, 4, 1, 3)]
                          + first[:1])

    def test_fewer_independent_rows_than_columns_stop_at_one_prime(self, primes):
        # 3 rows under 6 columns: reaching the row count proves the rank
        weights = weight_family(13, 2)[:3]
        assert span_rank(13, "plus", 2, weights) == 3 == _echelon_rank(
            pairing_rows(13, "plus", weights))
        assert primes == first_primes(13, 1)

    def test_invalid_weights_rejected_after_full_rank(self):
        with pytest.raises(ValueError):
            span_rank(5, "plus", 2, [(1, 1), (1, 2), (1, 1), (5, 1)])

    def test_n13_reaches_rank_plus(self):
        assert span_rank(13, "plus", 4) == rank_plus(FiniteGroup.cyclic(13)) == 6

    def test_deficient_rank_runs_no_field_inverse(self, monkeypatch):
        calls = []
        monkeypatch.setattr(CyclotomicValue, "inverse", lambda self: calls.append(self))
        assert span_rank(7, "plus", 2) == 2
        assert calls == []

    def test_n31_k2_rank_below_rank_plus(self, primes):
        # 16 rows, 15 columns, rank 12: the ideals pass a bound of thousands of
        # bits, 30 of them (phi(31)) for each prime
        assert span_rank(31, "plus", 2) == 12 < rank_plus(FiniteGroup.cyclic(31)) == 15
        want = bound_primes(31, 2, 1, 13)
        assert primes == first_primes(31, want) and want == 8
        assert bound_ideals(31, 2, 1, 13) > 200

    def test_n45_minus_k3_rank_with_its_primes(self, primes):
        assert span_rank(45, "minus", 3) == 21 < 22
        want = bound_primes(45, 3, 1, 22)
        assert primes == first_primes(45, want) and want == 22

    def test_n15_minus_k3_falls_short(self):
        rows = pairing_rows(15, "minus", weight_family(15, 3))
        assert span_rank(15, "minus", 3) == _echelon_rank(rows) == 6 < 7


@pytest.fixture
def fp_calls(monkeypatch):
    """Records each F_p row span_rank builds, and fails past 1000 rows: the
    families at n = 127 would take hours to walk in full."""
    calls = []

    def spy(*args):
        calls.append(args[2])
        assert len(calls) <= 1000, "span_rank built over 1000 F_p rows"
        return fp_row(*args)

    fp_row = lens._fp_row
    monkeypatch.setattr(lens, "_fp_row", spy)
    return calls


class TestFpRows:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("scale", [Fraction(1), Fraction(3, 7), Fraction(-2)])
    def test_row_is_the_image_of_the_exact_row(self, n, k, scale):
        p, w = _prime_and_root(n)
        family = weight_family(n, k)
        weights_list = family[:2] + family[-1:]
        for parity in ("plus", "minus"):
            rows = pairing_rows(n, parity, weights_list, scale)
            for weights, row in zip(weights_list, rows):
                assert lens._fp_row(n, parity, weights, scale, p, w) == [
                    image_mod_p(v, n, p, w) for v in row]

    def test_scale_with_p_in_its_denominator_skips_its_ideals(self, primes, monkeypatch,
                                                             no_exact_rows):
        built = []  # the prime of each F_p row
        fp_row = lens._fp_row
        monkeypatch.setattr(lens, "_fp_row", lambda *args: built.append(args[4]) or fp_row(*args))
        p, q = first_primes(5, 2)
        assert span_rank(5, "plus", 2, defect_scale=Fraction(1, p)) == 2
        # p is drawn, but no row is built under the phi(5) ideals above it
        assert primes == [p, q] and set(built) == {q}
        primes.clear()
        p = first_primes(9, 1)[0]
        rows = pairing_rows(9, "plus", weight_family(9, 2), Fraction(1, p))
        assert span_rank(9, "plus", 2, defect_scale=Fraction(1, p)) == _echelon_rank(rows) == 3
        # ... nor counted: the bound still asks for two primes above p
        used = bound_primes(9, 2, 1, 4)
        assert primes == first_primes(9, 1 + used) and used == 2

    def test_scale_with_p_in_its_numerator_zeroes_its_ideals(self, primes, no_exact_rows):
        p = first_primes(5, 1)[0]
        rows = pairing_rows(5, "plus", weight_family(5, 2), p)
        assert span_rank(5, "plus", 2, defect_scale=p) == _echelon_rank(rows) == 2
        # the phi(5) = 4 ideals above p see rank 0, too few for the bound that
        # |num(scale)| = p sets on a nonzero entry; the next prime proves rank 2
        assert bound_ideals(5, 2, p, 1) > 4
        assert primes == first_primes(5, 2)

    def test_n9_k2_falls_short_on_fp_rows(self, fp_calls, primes, no_exact_rows):
        rows = pairing_rows(9, "plus", weight_family(9, 2))
        assert span_rank(9, "plus", 2) == _echelon_rank(rows) == 3 < 4
        used = bound_primes(9, 2, 1, 4)
        assert primes == first_primes(9, used)
        assert fp_calls == weight_family(9, 2) * used

    @pytest.mark.parametrize("n, parity, k", [(9, "plus", 2), (15, "minus", 3),
                                              (21, "minus", 3)])
    def test_every_ideal_above_p_gives_one_rank(self, n, parity, k):
        # the Galois lemma of the lens module, on rows that are not
        # deduplicated: family members shuffled, repeated and scaled by units
        rng = random.Random(n)
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        family = weight_family(n, k)
        weights_list = []
        for _ in range(2 * len(family)):
            weights = list(rng.choice(family))
            rng.shuffle(weights)
            u = rng.choice(units) if rng.random() < 0.3 else 1
            weights_list.append(tuple(u * a % n for a in weights))
        p, w = _prime_and_root(n)
        ranks = set()
        for u in units:
            root = pow(w, u, p)  # the ideal (p, zeta_n - w^u)
            ranks.add(rank_mod_p([lens._fp_row(n, parity, weights, Fraction(1), p, root)
                                  for weights in weights_list], p))
        assert len(ranks) == 1
        if n < 21:  # short of full rank, so the lemma is not the column count
            assert ranks.pop() < (n - 1) // 2

    @pytest.mark.parametrize("n, k, rank", [(127, 4, 63), (61, 6, 30)])
    def test_full_rank_up_to_the_lens_cap(self, n, k, rank, fp_calls, no_exact_rows):
        assert span_rank(n, "plus", k) == rank == rank_plus(FiniteGroup.cyclic(n))
        # the family is taken lazily: its first rows only, at (127, 4) out of
        # C(129, 4), about 11 M, sorted tuples
        assert fp_calls == list(islice(lens._weight_tuples(n, k), len(fp_calls)))

    def test_minus_pairs_reach_rank_minus(self, no_exact_rows):
        assert span_rank(7, "minus", 3) == 3 and span_rank(9, "minus", 3) == 4


class TestWeightFamily:
    def test_lazy_family_matches_eager(self):
        for n in range(1, 16):
            for k in range(1, 5):
                assert weight_family(n, k) == eager_weight_family(n, k)

    @pytest.mark.parametrize("n, k", [(3, 1), (9, 4), (15, 3), (21, 4), (31, 2), (45, 3),
                                      (105, 3), (127, 2), (63, 4)])
    def test_family_matches_eager_at_larger_n(self, n, k):
        assert weight_family(n, k) == eager_weight_family(n, k)

    def test_canonical_weights_try_every_unit_they_need(self):
        # against the least sorted tuple over all units, on unsorted tuples
        rng = random.Random(21)
        for n in (9, 15, 21, 45, 63, 105):
            units = [a for a in range(1, n) if gcd(a, n) == 1]
            for _ in range(200):
                weights = tuple(rng.choice(units) for _ in range(rng.randint(1, 5)))
                assert lens._canonical_weights(n, weights) == canonical_weights(n, weights)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        # k = 0 would give the weightless "lens space" (), which LensSpace rejects
        parity = "plus" if k % 2 == 0 else "minus"
        f = class_space_basis(FiniteGroup.cyclic(5), parity)[0]
        for call in (lambda: weight_family(5, k), lambda: span_rank(5, parity, k),
                     lambda: search_nonvanishing(5, parity, f, [k, k + 2], 50)):
            with pytest.raises(ValueError, match=f"k={k}"):
                call()

    def test_symmetry_dedup_n3(self):
        # (1,2) ~ (2,4) = (2,1) under the unit 2, so only two k=2 families
        fams = weight_family(3, 2)
        assert fams == [(1, 1), (1, 2)]

    def test_all_coprime(self):
        for w in weight_family(9, 3):
            assert all(a % 3 != 0 for a in w)

    def test_lex_order_deterministic(self):
        assert weight_family(5, 2) == weight_family(5, 2)
        assert weight_family(5, 2)[0] == (1, 1)
