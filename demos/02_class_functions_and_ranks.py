#!/usr/bin/env python3
"""Conjugacy classes, the inversion involution, and class-function spaces.

For a finite group the classes carry an involution tau: <h> -> <h^-1>.
Counting its orbits gives the ranks of the two distinguished spaces of
class functions vanishing at the identity:

  plus  : f(h) = f(h^-1)   (basis: characteristic functions of <g> u <g^-1>)
  minus : f(h) = -f(h^-1)  (basis: +-1 functions on non-self-paired orbits)

The Fourier pairing identifies virtual characters with functionals on
per-class rho data.
"""

from fractions import Fraction

from etarho import (FiniteGroup, RhoVector, class_space_basis, fourier_eta,
                    pair_phi, rank_minus, rank_plus, tau_orbits)
from etarho.chars import l2_twist

for descriptor in (FiniteGroup.cyclic(4), FiniteGroup.cyclic(5),
                   FiniteGroup.symmetric(3)):
    print(f"== {descriptor.name} ==")
    print("  classes      :", [tuple(descriptor.labels[g] for g in c)
                               for c in descriptor.classes])
    print("  tau orbits   :", tau_orbits(descriptor))
    print("  rank_plus    :", rank_plus(descriptor))
    print("  rank_minus   :", rank_minus(descriptor))
    print()

print("== the two bases on cyclic:5 ==")
g5 = FiniteGroup.cyclic(5)
for parity in ("plus", "minus"):
    for f in class_space_basis(g5, parity):
        print(f"  {parity:5s} basis function:", [str(v) for v in f.values])

print()
print("== Fourier pairing vs the class-function pairing ==")
rho = RhoVector(g5, tuple(Fraction(k * k + 1, 3) for k in range(5)))
twist = l2_twist(g5)
print("  chi of -triv + (1/5) regular:", [str(v) for v in twist.character.values])
print("  fourier_eta(twist, rho)        =", fourier_eta(twist, rho))
print("  pair_phi(twist.character, rho) =", pair_phi(twist.character, rho))
print("  (equal exactly: the character map turns one pairing into the other)")
