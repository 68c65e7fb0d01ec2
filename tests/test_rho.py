import random
from fractions import Fraction

import pytest

from etarho.chars import FiniteGroup, RhoVector
from etarho.cyclotomic import CyclotomicValue
from etarho.rho import (InclusionError, SubgroupInclusion, ZooRhoTable,
                        induce_rho, rho2_from_delocalized, ring_from_orders)
from etarho.zoo import Lamplighter


def rat(q):
    return CyclotomicValue.from_rational(Fraction(q))


def random_rho(group, rng):
    return RhoVector(group, tuple(
        rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(group.n_classes())))


class TestInclusionValidation:
    def test_non_homomorphism_rejected(self):
        with pytest.raises(InclusionError):
            SubgroupInclusion(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), (0, 1))

    def test_non_injective_rejected(self):
        with pytest.raises(InclusionError):
            SubgroupInclusion(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), (0, 0))

    def test_valid_inclusion(self):
        inc = SubgroupInclusion.cyclic_into_cyclic(3, 9, 3)
        assert inc.mapping == (0, 3, 6)


class TestInduction:
    def test_z2_into_z4(self):
        inc = SubgroupInclusion.cyclic_into_cyclic(2, 4, 2)
        rho = RhoVector(FiniteGroup.cyclic(2), (rat(5), rat(7)))
        out = induce_rho(inc, rho)
        assert list(out.values) == [rat(5), rat(0), rat(7), rat(0)]

    def test_identity_inclusion_is_noop(self):
        g = FiniteGroup.cyclic(6)
        inc = SubgroupInclusion.cyclic_into_cyclic(6, 6, 1)
        rho = random_rho(g, random.Random(3))
        assert list(induce_rho(inc, rho).values) == list(rho.values)

    def test_z3_into_s3(self):
        s3 = FiniteGroup.symmetric(3)
        c3 = FiniteGroup.cyclic(3)
        c = next(g for g in range(len(s3)) if s3.element_order(g) == 3)
        inc = SubgroupInclusion(c3, s3, (s3.identity, c, s3.mul(c, c)))
        rho = RhoVector(c3, (rat(2), rat(3), rat(11)))
        out = induce_rho(inc, rho)
        cycle_class = s3.class_of[c]
        swap = next(g for g in range(len(s3)) if s3.element_order(g) == 2)
        assert out(cycle_class) == rat(14)  # rho_1 + rho_2
        assert out(s3.class_of[swap]).is_zero()
        assert out(s3.identity_class()) == rat(2)

    def test_identity_slot_preserved(self):
        rng = random.Random(9)
        inc = SubgroupInclusion.cyclic_into_cyclic(4, 8, 2)
        rho = random_rho(FiniteGroup.cyclic(4), rng)
        out = induce_rho(inc, rho)
        assert out.identity_value() == rho.identity_value()

    def test_functoriality_chain(self):
        rng = random.Random(11)
        i1 = SubgroupInclusion.cyclic_into_cyclic(2, 4, 2)
        i2 = SubgroupInclusion.cyclic_into_cyclic(4, 8, 2)
        composed = i1.compose(i2)
        for _ in range(25):
            rho = random_rho(FiniteGroup.cyclic(2), rng)
            via_two = induce_rho(i2, induce_rho(i1, rho))
            via_one = induce_rho(composed, rho)
            assert list(via_two.values) == list(via_one.values)

    def test_linearity(self):
        rng = random.Random(13)
        inc = SubgroupInclusion.cyclic_into_cyclic(3, 6, 2)
        a = random_rho(FiniteGroup.cyclic(3), rng)
        b = random_rho(FiniteGroup.cyclic(3), rng)
        summed = RhoVector(a.group, tuple(x + y for x, y in zip(a.values, b.values)))
        lhs = induce_rho(inc, summed)
        ra, rb = induce_rho(inc, a), induce_rho(inc, b)
        assert list(lhs.values) == [x + y for x, y in zip(ra.values, rb.values)]

    def test_class_sum_conserved(self):
        # every subgroup class lands in exactly one target class, so the
        # plain sum of class values is carried through induction unchanged
        rng = random.Random(17)
        s3 = FiniteGroup.symmetric(3)
        c3 = FiniteGroup.cyclic(3)
        c = next(g for g in range(len(s3)) if s3.element_order(g) == 3)
        cases = [
            SubgroupInclusion.cyclic_into_cyclic(2, 4, 2),
            SubgroupInclusion.cyclic_into_cyclic(3, 9, 6),
            SubgroupInclusion(c3, s3, (s3.identity, c, s3.mul(c, c))),
        ]
        for inc in cases:
            rho = random_rho(inc.sub, rng)
            out = induce_rho(inc, rho)
            total_in = sum(rho.values, rat(0))
            total_out = sum(out.values, rat(0))
            assert total_in == total_out

    def test_induce_into_lamplighter(self):
        # Z/2 onto the lamp at position 0
        lamp_group = Lamplighter(2)
        c2 = FiniteGroup.cyclic(2)
        inc = SubgroupInclusion(c2, lamp_group,
                                (lamp_group.identity, lamp_group.lamp(0, 1)))
        rho = RhoVector(c2, (rat(4), rat(Fraction(1, 3))))
        out = induce_rho(inc, rho)
        assert isinstance(out, ZooRhoTable)
        assert out.identity_value == rat(4)
        key = lamp_group.class_key(lamp_group.lamp(5, 1))  # translate of lamp_0
        assert out.value(key) == rat(Fraction(1, 3))


class TestRho2:
    def test_supported_on_identity(self):
        g = FiniteGroup.cyclic(4)
        rho = RhoVector(g, (rat(5), rat(0), rat(0), rat(0)))
        assert rho2_from_delocalized(rho).is_zero()

    def test_lens_value(self):
        g = FiniteGroup.cyclic(3)
        rho = RhoVector(g, (rat(0), rat(Fraction(-1, 9)), rat(Fraction(-1, 9))))
        assert rho2_from_delocalized(rho) == rat(Fraction(2, 9))


class TestRings:
    def test_prime_support(self):
        assert ring_from_orders([3, 5]).prime_support == frozenset({3, 5})
        assert ring_from_orders([12]).prime_support == frozenset({2, 3})

    def test_infinite_orders_contribute_nothing(self):
        ring = ring_from_orders([float("inf")])
        assert ring.prime_support == frozenset()
        assert str(ring) == "Z"

    def test_invert_two_variant(self):
        assert ring_from_orders([3], invert_two=True).prime_support == {2, 3}

    def test_membership(self):
        ring = ring_from_orders([3, 5])
        assert ring.contains(Fraction(7, 15))
        assert not ring.contains(Fraction(1, 2))
        assert ring.contains(14)
        assert ring_from_orders([]).contains(-3)

    def test_closure_under_ring_operations(self):
        rng = random.Random(23)
        ring = ring_from_orders([6, 35])

        def member():
            num = rng.randint(-50, 50)
            den = (2 ** rng.randint(0, 3)) * (3 ** rng.randint(0, 2)) \
                * (5 ** rng.randint(0, 2)) * (7 ** rng.randint(0, 2))
            return Fraction(num, den)

        for _ in range(1000):
            a, b = member(), member()
            assert ring.contains(a + b)
            assert ring.contains(a * b)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            ring_from_orders([0])
