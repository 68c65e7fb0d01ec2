import json
import random
from fractions import Fraction

import mpmath
import pytest

from etarho.chars import (ClassFunction, FiniteGroup, GroupTableError,
                          RhoVector, VirtualRep, class_space_basis,
                          cyclic_irreducible_character, fourier_eta, is_in_R0,
                          l2_twist, pair_phi, r_plus_test_reps, rank_minus,
                          rank_plus, regular_rep, tau_orbits, trivial_rep)
from etarho.cyclotomic import CyclotomicValue
from etarho.exactlinalg import exact_rank
from etarho.verify import _random_virtual_rep
import rank_oracle


def rat(q):
    return CyclotomicValue.from_rational(Fraction(q))


@pytest.fixture(scope="module")
def s3():
    return FiniteGroup.symmetric(3)


class TestFiniteGroup:
    def test_cyclic_classes_are_singletons(self):
        g = FiniteGroup.cyclic(6)
        assert g.n_classes() == 6
        assert all(g.class_size(c) == 1 for c in range(6))

    def test_s3_classes(self, s3):
        sizes = sorted(s3.class_size(c) for c in range(s3.n_classes()))
        assert sizes == [1, 2, 3]
        assert s3.identity_class() == s3.class_of[s3.identity]

    def test_table_loading_roundtrip(self):
        g = FiniteGroup.cyclic(3)
        data = {"elements": list(g.labels), "table": [list(r) for r in g.table]}
        loaded = FiniteGroup.from_json(json.dumps(data))
        assert loaded.classes == g.classes

    def test_bad_tables_rejected(self):
        with pytest.raises(GroupTableError, match="element 1 has no inverse"):
            FiniteGroup(["a", "b"], [[0, 1], [1, 1]])  # b has no inverse
        # not associative either ((0 0) 0 != 0 (0 0)): the identity is checked first
        with pytest.raises(GroupTableError, match="no two-sided identity"):
            FiniteGroup(["a", "b"], [[1, 0], [1, 0]])
        # not associative either: the inverses are checked first, in order
        with pytest.raises(GroupTableError, match="element 2 has no inverse"):
            FiniteGroup(list("abc"), [[0, 1, 2], [1, 0, 0], [2, 1, 1]])
        # non-associative latin square (order 5 loop)
        loop = [[0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0]]
        with pytest.raises(GroupTableError, match="associativity fails"):
            FiniteGroup(list("abcde"), loop)


class TestTauOrbits:
    def test_cyclic4(self):
        orbits = tau_orbits(FiniteGroup.cyclic(4))
        assert orbits == [(0,), (1, 3), (2,)]

    def test_cyclic2_all_self_inverse(self):
        assert tau_orbits(FiniteGroup.cyclic(2)) == [(0,), (1,)]

    def test_s3_three_cycles_fused(self, s3):
        # (123)^-1 = (132) lies in the same class: three orbits, all singletons
        orbits = tau_orbits(s3)
        assert len(orbits) == 3
        assert all(len(o) == 1 for o in orbits)

    def test_involution_and_orbit_sizes(self):
        for n in (3, 5, 8, 12):
            g = FiniteGroup.cyclic(n)
            for ci in range(g.n_classes()):
                assert g.inverse_class[g.inverse_class[ci]] == ci
            assert all(len(o) in (1, 2) for o in tau_orbits(g))


class TestBasesAndRanks:
    def test_cyclic5(self):
        g = FiniteGroup.cyclic(5)
        assert len(class_space_basis(g, "plus")) == 2
        assert len(class_space_basis(g, "minus")) == 2
        assert rank_plus(g) == 2 and rank_minus(g) == 2

    def test_cyclic2_minus_empty(self):
        g = FiniteGroup.cyclic(2)
        assert class_space_basis(g, "minus") == []
        assert rank_plus(g) == 1 and rank_minus(g) == 0

    def test_s3(self, s3):
        assert rank_plus(s3) == 2 and rank_minus(s3) == 0

    def test_include_identity_flag(self):
        g = FiniteGroup.cyclic(5)
        assert rank_plus(g, include_identity=True) == rank_plus(g) + 1

    def test_basis_membership_and_parity(self):
        for n in (4, 5, 7, 9):
            g = FiniteGroup.cyclic(n)
            for f in class_space_basis(g, "plus"):
                assert f.in_class0("plus")
            for f in class_space_basis(g, "minus"):
                assert f.in_class0("minus")

    def test_dimension_count_vs_classes(self):
        # dim Class+_0 + dim Class-_0 = #classes - 1, via exact rank
        for group in (FiniteGroup.cyclic(6), FiniteGroup.cyclic(9),
                      FiniteGroup.symmetric(3)):
            plus = class_space_basis(group, "plus")
            minus = class_space_basis(group, "minus")
            rows = [list(f.values) for f in plus + minus]
            assert exact_rank(rows) == len(plus) + len(minus)
            assert len(plus) + len(minus) == group.n_classes() - 1


class TestR0Membership:
    def test_twist_is_plus(self):
        for n in (2, 3, 5, 8):
            twist = l2_twist(FiniteGroup.cyclic(n))
            assert is_in_R0(twist, "plus")
            assert twist.virtual_dimension.is_zero()

    def test_zero_rep_both_parities(self):
        g = FiniteGroup.cyclic(4)
        zero = trivial_rep(g).scale(0)
        assert is_in_R0(zero, "plus") and is_in_R0(zero, "minus")

    def test_trivial_rep_neither(self):
        g = FiniteGroup.cyclic(4)
        assert not is_in_R0(trivial_rep(g), "plus")
        assert not is_in_R0(trivial_rep(g), "minus")


class TestPairings:
    def test_trivial_character_sums_rho(self):
        g = FiniteGroup.cyclic(4)
        rho = RhoVector(g, tuple(rat(k + 1) for k in range(4)))
        assert fourier_eta(trivial_rep(g), rho) == rat(10)

    def test_regular_rep_picks_identity_slot(self):
        # chi_reg is n at 1 and 0 elsewhere, so eta_reg = n * rho_1
        n = 5
        g = FiniteGroup.cyclic(n)
        rho = RhoVector(g, (rat(3),) + tuple(rat(Fraction(k, 7)) for k in range(1, n)))
        assert fourier_eta(regular_rep(g), rho) == rat(15)

    def test_twist_expansion_cyclic3(self):
        g = FiniteGroup.cyclic(3)
        rho = RhoVector(g, (rat(11), rat(5), rat(Fraction(7, 2))))
        assert fourier_eta(l2_twist(g), rho) == -(rat(5) + rat(Fraction(7, 2)))

    def test_pair_phi_zero_function(self):
        g = FiniteGroup.cyclic(5)
        rho = RhoVector(g, tuple(rat(k) for k in range(5)))
        zero = ClassFunction(g, tuple(rat(0) for _ in range(5)))
        assert pair_phi(zero, rho) == rat(0)

    def test_pair_phi_kappa_on_cyclic5(self):
        g = FiniteGroup.cyclic(5)
        rho = RhoVector(g, tuple(rat(10 + k) for k in range(5)))
        kappa = class_space_basis(g, "plus")[0]  # supported on {1, 4}
        assert pair_phi(kappa, rho) == rat(11) + rat(14)
        sign = class_space_basis(g, "minus")[0]  # +1 at 1, -1 at 4
        assert pair_phi(sign, rho) == rat(11) - rat(14)

    def test_fourier_equals_pair_of_theta(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 12)
            g = FiniteGroup.cyclic(n)
            rep = VirtualRep(g, _random_character(g, rng, n))
            rho = RhoVector(g, tuple(
                CyclotomicValue(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                    for _ in range(1)])
                for _ in range(n)))
            assert fourier_eta(rep, rho) == pair_phi(rep.character, rho)

    def test_opposite_parities_annihilate(self):
        # symmetric rep character against antisymmetric rho: exact zero
        n = 7
        g = FiniteGroup.cyclic(n)
        rep = r_plus_test_reps(n)[2]
        assert is_in_R0(rep, "plus")
        # build an antisymmetric vector explicitly: v_j = -v_{n-j}
        vec = [rat(0)] * n
        for j in range(1, (n + 1) // 2):
            v = CyclotomicValue(n, [Fraction(j), Fraction(1)])
            vec[j] = v
            vec[n - j] = -v
        rho = RhoVector(g, tuple(vec))
        assert rho.is_tau_antisymmetric()
        assert fourier_eta(rep, rho).is_zero()

    def test_group_mismatch_rejected(self):
        g4, g5 = FiniteGroup.cyclic(4), FiniteGroup.cyclic(5)
        rho5 = RhoVector(g5, tuple(rat(0) for _ in range(5)))
        with pytest.raises(ValueError):
            fourier_eta(trivial_rep(g4), rho5)

    def test_bilinearity(self):
        rng = random.Random(29)
        n = 6
        g = FiniteGroup.cyclic(n)
        phi = VirtualRep(g, _random_character(g, rng, n))
        psi = VirtualRep(g, _random_character(g, rng, n))
        rho_a = RhoVector(g, tuple(rat(Fraction(rng.randint(-5, 5), 3))
                                   for _ in range(n)))
        rho_b = RhoVector(g, tuple(rat(Fraction(rng.randint(-5, 5), 2))
                                   for _ in range(n)))
        combo = phi.scale(3) + psi.scale(Fraction(-1, 2))
        lhs = fourier_eta(combo, rho_a)
        rhs = fourier_eta(phi, rho_a) * 3 + fourier_eta(psi, rho_a) * Fraction(-1, 2)
        assert lhs == rhs
        summed = RhoVector(g, tuple(a + b for a, b in zip(rho_a.values, rho_b.values)))
        assert fourier_eta(phi, summed) == fourier_eta(phi, rho_a) + fourier_eta(phi, rho_b)


def _random_character(group, rng, n):
    char = cyclic_irreducible_character(n, 0).scale(rng.randint(-2, 2))
    for j in range(1, n):
        c = rng.randint(-2, 2)
        if c:
            char = char + cyclic_irreducible_character(n, j).scale(c)
    return char


class TestUnitaryConsistency:
    def test_true_characters_pass(self):
        for n in (3, 8):
            for j in range(n):
                rep = VirtualRep(FiniteGroup.cyclic(n),
                                 cyclic_irreducible_character(n, j))
                assert rep.is_unitary_consistent()
        assert l2_twist(FiniteGroup.cyclic(5)).is_unitary_consistent()

    def test_non_character_fails(self):
        g = FiniteGroup.cyclic(4)
        # i at g, i at g^-1: conj(i) = -i so the check must fire
        vals = (rat(0), CyclotomicValue.root_of_unity(4),
                rat(0), CyclotomicValue.root_of_unity(4))
        assert not VirtualRep(g, ClassFunction(g, vals)).is_unitary_consistent()


class TestThetaInjectivity:
    def test_rank_of_test_reps_matches_rank_plus(self):
        for n in (2, 3, 5, 8, 12):
            mat = [list(rep.character.values) for rep in r_plus_test_reps(n)]
            assert exact_rank(mat) == rank_plus(FiniteGroup.cyclic(n)) == n // 2

    def test_test_reps_live_in_R_plus_0(self):
        for rep in r_plus_test_reps(9):
            assert is_in_R0(rep, "plus")

    def test_test_reps_match_character_sums(self):
        for n in range(1, 41):
            reps = r_plus_test_reps(n)
            expected = rank_oracle.r_plus_test_reps(n)
            assert [rep.group for rep in reps] == [rep.group for rep in expected]
            for rep, ref in zip(reps, expected):
                assert [(v.order, v.coefficients) for v in rep.character.values] == [
                    (v.order, v.coefficients) for v in ref.character.values]

    def test_verify_virtual_reps_match_character_sums(self):
        # the suite-4 inputs, from integer rows, against the scaled sums
        # taking the same draws from the same generator state
        for seed in range(6):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(10):
                n = rng.randint(1, 24)
                assert ref_rng.randint(1, 24) == n
                rep = _random_virtual_rep(n, rng)
                ref = rank_oracle.random_virtual_rep(n, ref_rng)
                assert rep.group == ref.group
                assert [(v.order, v.coefficients) for v in rep.character.values] == [
                    (v.order, v.coefficients) for v in ref.character.values]
            assert rng.getstate() == ref_rng.getstate()


class TestRhoVectorParity:
    def test_parity_flags_computed(self):
        g = FiniteGroup.cyclic(5)
        sym = RhoVector(g, (rat(0), rat(1), rat(2), rat(2), rat(1)))
        assert sym.is_tau_symmetric() and not sym.is_tau_antisymmetric()
        anti = RhoVector(g, (rat(0), rat(1), rat(2), rat(-2), rat(-1)))
        assert anti.is_tau_antisymmetric() and not anti.is_tau_symmetric()


@pytest.mark.parametrize("kind", [ClassFunction, RhoVector])
@pytest.mark.parametrize("value", [1j, 0.5 + 0j, mpmath.mpc(1, 2), mpmath.mpf(1)])
def test_float_values_are_rejected(kind, value):
    # a class function is exact on every class: floats other than a plain
    # float (converted exactly) are refused by type, with the value named
    g = FiniteGroup.cyclic(3)
    with pytest.raises(ValueError, match=r"is not exact: a class function takes rationals"):
        kind(g, (rat(0), value, rat(1)))
