"""Structural rho calculus: induction along inclusions and denominator rings.

Induction implements the preimage-decomposition formula: the induced value
on a target class <g> is the sum of the source values over all source
classes contained in j^-1(<g>); target classes without preimage get 0, and
the identity slot (the L2 term) is carried through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._ntheory import factor, is_prime
from .chars import FiniteGroup, RhoVector
from .cyclotomic import CyclotomicValue


class InclusionError(ValueError):
    """The supplied element map is not an injective homomorphism."""


@dataclass(frozen=True)
class SubgroupInclusion:
    """Injective homomorphism from a finite group into a finite or zoo group.

    ``mapping`` sends each element index of ``sub`` to a target element:
    an index for FiniteGroup targets, a normal form for zoo targets.
    """

    sub: FiniteGroup
    target: object
    mapping: tuple

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != len(self.sub):
            raise InclusionError("mapping must cover every element of the subgroup")
        if len(set(self.mapping)) != len(self.mapping):
            raise InclusionError("mapping is not injective")
        t_mul = self.target.mul
        for a in range(len(self.sub)):
            for b in range(len(self.sub)):
                if t_mul(self.mapping[a], self.mapping[b]) != self.mapping[self.sub.mul(a, b)]:
                    raise InclusionError(f"map is not a homomorphism at ({a},{b})")

    @classmethod
    def cyclic_into_cyclic(cls, n: int, m: int, image_of_generator: int) -> "SubgroupInclusion":
        sub = FiniteGroup.cyclic(n)
        target = FiniteGroup.cyclic(m)
        mapping = tuple((image_of_generator * k) % m for k in range(n))
        return cls(sub, target, mapping)

    def compose(self, outer: "SubgroupInclusion") -> "SubgroupInclusion":
        """outer o self, defined when self.target == outer.sub (finite)."""
        if not isinstance(self.target, FiniteGroup) or self.target != outer.sub:
            raise InclusionError("composition requires matching finite middle group")
        return SubgroupInclusion(self.sub, outer.target,
                                 tuple(outer.mapping[i] for i in self.mapping))


@dataclass(frozen=True)
class ZooRhoTable:
    """Induced rho data over a zoo group, keyed by canonical conjugacy keys."""

    group: object
    values: dict
    identity_value: object

    def value(self, key):
        return self.values.get(key, CyclotomicValue.zero())


def induce_rho(inclusion: SubgroupInclusion, rho: RhoVector):
    """Push rho data along an inclusion by preimage decomposition of classes."""
    if rho.group != inclusion.sub:
        raise ValueError("rho vector is not defined over the inclusion's subgroup")
    sub, target = inclusion.sub, inclusion.target
    if isinstance(target, FiniteGroup):
        out = [CyclotomicValue.zero() for _ in range(target.n_classes())]
        for ci in range(sub.n_classes()):
            image = inclusion.mapping[sub.class_rep(ci)]
            ti = target.class_of[image]
            out[ti] = out[ti] + rho(ci)
        return RhoVector(target, tuple(out))
    # zoo target: identify classes by the variant's canonical torsion keys
    values: dict = {}
    identity_value = None
    for ci in range(sub.n_classes()):
        image = inclusion.mapping[sub.class_rep(ci)]
        key = target.class_key(image)
        if image == target.identity:
            identity_value = rho(ci)
        values[key] = values.get(key, CyclotomicValue.zero()) + rho(ci)
    return ZooRhoTable(target, values, identity_value)


def rho2_from_delocalized(rho: RhoVector):
    """The L2 rho value expressed through delocalized data: -sum over h != 1."""
    group = rho.group
    total = CyclotomicValue.zero()
    for ci in range(group.n_classes()):
        if ci == group.identity_class():
            continue
        total = total + rho(ci) * group.class_size(ci)
    return -total


@dataclass(frozen=True)
class DenominatorRing:
    """Z[1/N]: the subring of Q where only the given primes may divide denominators."""

    prime_support: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "prime_support", frozenset(int(p) for p in self.prime_support))
        for p in self.prime_support:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    def contains(self, q) -> bool:
        q = Fraction(q)
        den = q.denominator
        for p in self.prime_support:
            while den % p == 0:
                den //= p
        return den == 1

    def __str__(self):
        if not self.prime_support:
            return "Z"
        primes = sorted(self.prime_support)
        n = 1
        for p in primes:
            n *= p
        return f"Z[1/{n}]"


INFINITY = float("inf")
# trial division factors an order o in about sqrt(o) / 3 steps: at most
# 333,334 at the cap
ORDER_CAP = 10 ** 12


def ring_from_orders(orders, invert_two: bool = False) -> DenominatorRing:
    """Smallest subring of Q containing Z and 1/o for each finite order o.

    Infinite orders contribute nothing ((+inf)^-1 := 0).  ``invert_two``
    additionally adjoins 1/2 (the signature-operator variant).
    """
    finite = [o for o in orders if o != INFINITY and o is not None]
    for o in finite:
        if int(o) != o or o < 1:
            raise ValueError(f"orders must be positive integers or infinity, got {o}")
        if o > ORDER_CAP:
            raise ValueError(f"order {o} is above the cap of {ORDER_CAP}")
    primes: set[int] = {2} if invert_two else set()
    for o in finite:
        primes.update(factor(int(o)))
    return DenominatorRing(frozenset(primes))
