"""The exact paths that the fast rank code replaced, kept as test oracles:
Gaussian elimination over Q(zeta_N) for ``etarho.exactlinalg.exact_rank``,
exact pairing rows for ``etarho.lens.span_rank``, the eager weight family
over every unit scaling, and the theta rows and random virtual characters
built as sums of characters."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

from sympy import GF
from sympy.polys.matrices import DomainMatrix

from etarho.chars import (ClassFunction, FiniteGroup, VirtualRep, class_space_basis,
                          cyclic_irreducible_character)
from etarho.cyclotomic import CyclotomicValue
from etarho.lens import LensSpace, lens_delocalized_rho
from pairing_oracle import pair_phi


def _lift_matrix(rows):
    order = 1
    lifted = []
    for row in rows:
        conv = [v if isinstance(v, CyclotomicValue) else CyclotomicValue.from_rational(v)
                for v in row]
        lifted.append(conv)
        for v in conv:
            order = lcm(order, v.order)
    return [[v.lift(order) for v in row] for row in lifted]


def _echelon_rank(rows) -> int:
    """Rank by exact Gaussian elimination over Q(zeta_N)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    mat = _lift_matrix(rows)
    n_rows, n_cols = len(mat), len(mat[0])
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if not mat[r][col].is_zero()), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        # entries left of col are zero in every row from pivot_row down
        inv = mat[pivot_row][col].inverse()
        head = [v * inv for v in mat[pivot_row][col:]]
        for r in range(pivot_row + 1, n_rows):
            factor = mat[r][col]
            if not factor.is_zero():
                mat[r][col:] = [a - factor * b for a, b in zip(mat[r][col:], head)]
        pivot_row += 1
    return pivot_row


def pairing_rows(n, parity, weights_list, defect_scale=Fraction(1)):
    """Exact rows: each lens table paired against the Class+-_0 basis, term
    by term (the pairing oracle, not ``etarho.chars.pair_phi``)."""
    basis = class_space_basis(FiniteGroup.cyclic(n), parity)
    return [[pair_phi(f, lens_delocalized_rho(LensSpace(n, w), defect_scale)) for f in basis]
            for w in weights_list]


def image_mod_p(value, n, p, w) -> int:
    """An entry of Q(zeta_n) under zeta_n -> w, read from its Fraction
    coefficients mod p."""
    if not isinstance(value, CyclotomicValue):
        value = CyclotomicValue.from_rational(value)
    step = n // value.order
    return sum(c.numerator * pow(c.denominator, -1, p) * pow(w, i * step, p)
               for i, c in enumerate(value.coefficients)) % p


def rank_mod_p(rows, p) -> int:
    """Rank of integer rows over F_p, by sympy."""
    field = GF(p)
    return DomainMatrix([[field(a) for a in row] for row in rows],
                        (len(rows), len(rows[0])), field).rank()


def canonical_weights(n, weights):
    """Orbit representative under permutations and global unit scaling:
    the least sorted tuple over every unit u mod n."""
    best = None
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        cand = tuple(sorted((u * a) % n for a in weights))
        if best is None or cand < best:
            best = cand
    return best


def eager_weight_family(n, k):
    """The weight family built in full: every sorted k-tuple of units in lex
    order, with a set of the orbit members seen."""
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    seen = set()
    out = []
    for tup in combinations_with_replacement(units, k):
        if tup not in seen:
            seen.update(tuple(sorted(u * a % n for a in tup)) for u in units)
            out.append(canonical_weights(n, tup))
    return out


def root_of_unity(n, e):
    """zeta_n^e, reduced by the constructor from the monomial x^(e mod n)."""
    return CyclotomicValue(n, [Fraction(0)] * (e % n) + [Fraction(1)])


def r_plus_test_reps(n):
    """chi_j + chi_-j - 2 chi_0 for j = 1..n/2, as sums of character values."""
    group = FiniteGroup.cyclic(n)
    reps = []
    for j in range(1, n // 2 + 1):
        vals = tuple(root_of_unity(n, j * h) + root_of_unity(n, -j * h)
                     - root_of_unity(n, 0) - root_of_unity(n, 0) for h in range(n))
        reps.append(VirtualRep(group, ClassFunction(group, vals)))
    return reps


def random_virtual_rep(n, rng):
    """sum_j c_j chi_j on cyclic:n, c_j drawn in [-3, 3] for j = 0..n-1, as a
    sum of scaled irreducible characters."""
    group = FiniteGroup.cyclic(n)
    char = None
    for j in range(n):
        coeff = rng.randint(-3, 3)
        if not coeff:
            continue
        term = cyclic_irreducible_character(n, j).scale(coeff)
        char = term if char is None else char + term
    if char is None:
        char = cyclic_irreducible_character(n, 0).scale(0)
    return VirtualRep(group, char)
