#!/usr/bin/env python3
"""Lens-space rho tables: explicit nonzero per-class invariants over Z/n.

L(n; a_1..a_k) has dimension 2k-1.  Its delocalized table lives in
Q(zeta_n) and obeys an exact parity law under class inversion:

  dim = 3 mod 4 (k even)  ->  symmetric table with real values
  dim = 1 mod 4 (k odd)   ->  antisymmetric table with imaginary values

``LensSpace.parity`` names the class: "plus" for the first, "minus" for
the second.

Pairing tables against class functions produces the nonvanishing
witnesses, span ranks, and the rationality behaviour of integer twists.
"""

from etarho import (FiniteGroup, LensSpace, class_space_basis,
                    lens_delocalized_rho, lens_twisted_rho,
                    rank_plus, ring_from_orders,
                    search_nonvanishing, span_rank)
from etarho.chars import l2_twist
from etarho.rho import rho2_from_delocalized

print("== the smallest interesting table: L(3;1,1) ==")
space = LensSpace(3, (1, 1))
rho = lens_delocalized_rho(space)
for j, value in enumerate(rho.values):
    print(f"  rho(g^{j}) = {value}")
print("  rho_(2) via the delocalized identity:", rho2_from_delocalized(rho))
print("  equal to the -triv + (1/3) regular twist:",
      lens_twisted_rho(space, l2_twist(FiniteGroup.cyclic(3))))

print()
print("== parity law in both dimensions mod 4 ==")
for weights in ((1,), (1, 1), (1, 1, 2), (1, 1, 1, 2)):
    sp = LensSpace(5, tuple(w for w in weights))
    table = lens_delocalized_rho(sp)
    plus = sp.parity == "plus"
    kind = "symmetric/real" if plus else "antisymmetric/imaginary"
    holds = table.is_tau_symmetric() if plus else table.is_tau_antisymmetric()
    print(f"  {sp} (dim {sp.dim}): expected {kind:24s} holds: {holds}")

print()
print("== nonvanishing search and span ranks ==")
g7 = FiniteGroup.cyclic(7)
for idx, f in enumerate(class_space_basis(g7, "plus")):
    hit = search_nonvanishing(7, "plus", f, [2, 4], 1000)
    space, value = hit
    print(f"  kappa_{idx}: first witness {space} with pairing {value}")
print("  span rank over dim-7 lens spaces:", span_rank(7, "plus", 4),
      " = rank_plus(cyclic:7) =", rank_plus(g7))
print("  span rank over dim-7 lens spaces at n = 61:", span_rank(61, "plus", 4),
      " = rank_plus(cyclic:61) =", rank_plus(FiniteGroup.cyclic(61)))
print("  span rank over dim-3 lens spaces at n = 31:", span_rank(31, "plus", 2),
      "< rank_plus(cyclic:31) =", rank_plus(FiniteGroup.cyclic(31)))

print()
print("== rationality of integer-character twists ==")
ring = ring_from_orders([7])
twist = l2_twist(g7).scale(7)  # integer character: regular - 7 * trivial
for weights in ((1, 1), (1, 2), (1, 2, 3, 4)):
    value = lens_twisted_rho(LensSpace(7, weights), twist)
    q = value.as_rational()
    print(f"  L(7;{','.join(map(str, weights))}): twist value {q},"
          f" in {ring}: {ring.contains(q)}")
