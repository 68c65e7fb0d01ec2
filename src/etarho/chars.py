"""Finite groups with conjugacy-class structure and the class-function calculus.

A :class:`FiniteGroup` is a multiplication table plus derived class data:
conjugacy classes (canonical representative = least element index), the
inversion involution tau on classes, and class sizes.  On top of that live
the spaces of class functions vanishing at the identity with symmetry
(plus) or antisymmetry (minus) under inversion, virtual characters, and the
pairings between characters and rho data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from numbers import Complex, Rational

from .cyclotomic import CyclotomicValue, _weighted_dot, _zeta_powers


def _as_value(v) -> CyclotomicValue:
    if isinstance(v, CyclotomicValue):
        return v
    if isinstance(v, Complex) and not isinstance(v, (Rational, float)):
        raise ValueError(f"{v!r} is not exact: a class function takes rationals "
                         "and cyclotomic values")
    return CyclotomicValue.from_rational(Fraction(v))


class GroupTableError(ValueError):
    """The supplied multiplication table is not a group."""


class FiniteGroup:
    """Finite group given by an explicit multiplication table.

    Elements are indices 0..n-1 into ``labels``.  Conjugacy classes are
    computed eagerly and sorted by least member, so class indices (and all
    derived output) are deterministic.
    """

    __slots__ = ("labels", "table", "identity", "classes", "class_of",
                 "inverse_class", "_inverse", "name")

    def __init__(self, labels, table, name: str = "group", validate: bool = True):
        self.labels = tuple(str(x) for x in labels)
        self.name = name
        n = len(self.labels)
        if validate:
            self._validate(table, n)
        self.table = tuple(tuple(row) for row in table)
        self.identity = self._find_identity(n)
        self._inverse = tuple(self._find_inverse(i, n) for i in range(n))
        if validate:
            self._check_associative(n)
        classes = self._conjugacy_classes(n)
        self.classes = tuple(tuple(sorted(c)) for c in classes)
        class_of = [0] * n
        for ci, cls in enumerate(self.classes):
            for g in cls:
                class_of[g] = ci
        self.class_of = tuple(class_of)
        self.inverse_class = tuple(self.class_of[self._inverse[c[0]]] for c in self.classes)

    # construction helpers

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("cyclic group order must be >= 1")
        labels = [str(i) for i in range(n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(labels, table, name=f"cyclic:{n}", validate=False)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """Symmetric group on n letters; elements sorted lexicographically."""
        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        # composition (p * q)(x) = p(q(x))
        table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
        labels = ["".join(str(x) for x in p) for p in perms]
        return cls(labels, table, name=f"symmetric:{n}", validate=False)

    @classmethod
    def from_json(cls, data) -> "FiniteGroup":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["elements"], data["table"], name=data.get("name", "table"))

    def _validate(self, table, n: int) -> None:
        """Check that ``table`` is n x n with entries in 0..n-1."""
        if (not isinstance(table, (list, tuple)) or len(table) != n
                or any(not isinstance(row, (list, tuple)) or len(row) != n
                       for row in table)):
            raise GroupTableError("table must be n x n")
        for row in table:
            for v in row:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise GroupTableError(f"table entry {v!r} is not an integer")
                if not (0 <= v < n):
                    raise GroupTableError(f"table entry {v} out of range")

    def _check_associative(self, n: int) -> None:
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupTableError(f"associativity fails at ({a},{b},{c})")

    def _find_identity(self, n: int) -> int:
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                return e
        raise GroupTableError("no two-sided identity")

    def _find_inverse(self, i: int, n: int) -> int:
        for j in range(n):
            if self.table[i][j] == self.identity == self.table[j][i]:
                return j
        raise GroupTableError(f"element {i} has no inverse")

    def _conjugacy_classes(self, n: int):
        seen = [False] * n
        classes = []
        for g in range(n):
            if seen[g]:
                continue
            orbit = {self.table[self.table[w][g]][self._inverse[w]] for w in range(n)}
            for x in orbit:
                seen[x] = True
            classes.append(orbit)
        classes.sort(key=min)
        return classes

    # element operations

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def __len__(self):
        return len(self.labels)

    def n_classes(self) -> int:
        return len(self.classes)

    def class_size(self, ci: int) -> int:
        return len(self.classes[ci])

    def class_rep(self, ci: int) -> int:
        return self.classes[ci][0]

    def identity_class(self) -> int:
        return self.class_of[self.identity]

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and self.labels == other.labels and self.table == other.table)

    def __hash__(self):
        return hash((self.labels, self.table))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={len(self)}, classes={self.n_classes()})"


def _parity_sign(parity: str) -> int:
    """+1 for 'plus' (Class^+_0: f(h^-1) = f(h)), -1 for 'minus' (= -f(h))."""
    if parity not in ("plus", "minus"):
        raise ValueError("parity must be 'plus' or 'minus'")
    return 1 if parity == "plus" else -1


def _tau_holds(group: FiniteGroup, values, parity: str) -> bool:
    """values[<h^-1>] = +-values[<h>] on every class, exactly."""
    sign = _parity_sign(parity)
    return all(values[group.inverse_class[ci]] == (v if sign > 0 else -v)
               for ci, v in enumerate(values))


def tau_orbits(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Orbits of conjugacy classes under <h> -> <h^-1>, each sorted, in order."""
    seen = set()
    orbits = []
    for ci in range(group.n_classes()):
        if ci in seen:
            continue
        orbit = tuple(sorted({ci, group.inverse_class[ci]}))
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


@dataclass(frozen=True)
class ClassFunction:
    """Function constant on conjugacy classes: one exact cyclotomic value
    per class.  Rationals convert (a plain float exactly); complex and
    mpmath values are rejected."""

    group: FiniteGroup
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(_as_value(v) for v in self.values))
        if len(self.values) != self.group.n_classes():
            raise ValueError("one value per conjugacy class required")

    def __call__(self, ci: int) -> CyclotomicValue:
        return self.values[ci]

    def at_element(self, g: int) -> CyclotomicValue:
        return self.values[self.group.class_of[g]]

    def in_class0(self, parity: str) -> bool:
        """f in Class^+_0 (parity='plus') or Class^-_0 ('minus'), exactly."""
        return (_tau_holds(self.group, self.values, parity)
                and self.values[self.group.identity_class()].is_zero())

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group,
                             tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group,
                             tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c) -> "ClassFunction":
        if isinstance(c, (int, Fraction)):
            # a rational keeps each value's order and its reduced form
            return ClassFunction(self.group, tuple(
                CyclotomicValue(v.order, [x * c for x in v.coefficients])
                for v in self.values))
        c = _as_value(c)
        return ClassFunction(self.group, tuple(v * c for v in self.values))

    def _check(self, other):
        if self.group != other.group:
            raise ValueError("class functions live on different groups")

    def to_json(self) -> dict:
        return {"group": self.group.name,
                "values": [v.to_json() for v in self.values]}


@dataclass(frozen=True)
class VirtualRep:
    """Virtual unitary representation, known through its character."""

    group: FiniteGroup
    character: ClassFunction

    def __post_init__(self):
        if self.character.group != self.group:
            raise ValueError("character defined on a different group")

    @property
    def virtual_dimension(self):
        return self.character(self.group.identity_class())

    def is_unitary_consistent(self) -> bool:
        """chi(h^-1) = conj(chi(h)) on every class (holds for true characters)."""
        group = self.group
        return all(self.character(group.inverse_class[ci])
                   == self.character(ci).conjugate()
                   for ci in range(group.n_classes()))

    def __add__(self, other):
        return VirtualRep(self.group, self.character + other.character)

    def __sub__(self, other):
        return VirtualRep(self.group, self.character - other.character)

    def scale(self, c) -> "VirtualRep":
        return VirtualRep(self.group, self.character.scale(c))


# character constructors for cyclic groups

def cyclic_irreducible_character(n: int, j: int) -> ClassFunction:
    """chi_j(h) = zeta_n^(j h) on cyclic:n (classes are singletons, in order)."""
    group = FiniteGroup.cyclic(n)
    vals = [CyclotomicValue.root_of_unity(n, (j * h) % n) for h in range(n)]
    return ClassFunction(group, tuple(vals))


def trivial_rep(group: FiniteGroup) -> VirtualRep:
    vals = tuple(CyclotomicValue.one() for _ in range(group.n_classes()))
    return VirtualRep(group, ClassFunction(group, vals))


def regular_rep(group: FiniteGroup) -> VirtualRep:
    vals = [CyclotomicValue.zero() for _ in range(group.n_classes())]
    vals[group.identity_class()] = CyclotomicValue.from_rational(len(group))
    return VirtualRep(group, ClassFunction(group, tuple(vals)))


def l2_twist(group: FiniteGroup) -> VirtualRep:
    """-trivial + (1/|G|) regular: the virtual rep whose eta is the L2 rho term."""
    return regular_rep(group).scale(Fraction(1, len(group))) - trivial_rep(group)


@dataclass(frozen=True)
class RhoVector(ClassFunction):
    """Rho data: the class function h -> rho_<h> (rho_(2) at the identity,
    the delocalized eta invariants elsewhere), exact on every class."""

    def identity_value(self) -> CyclotomicValue:
        return self.values[self.group.identity_class()]

    def is_tau_symmetric(self) -> bool:
        return _tau_holds(self.group, self.values, "plus")

    def is_tau_antisymmetric(self) -> bool:
        return _tau_holds(self.group, self.values, "minus")


def _class0_orbits(group: FiniteGroup, parity: str) -> list[tuple[int, ...]]:
    """The tau-orbits that carry a basis function (see class_space_basis)."""
    sign = _parity_sign(parity)
    e_class = group.identity_class()
    return [o for o in tau_orbits(group)
            if e_class not in o and (sign > 0 or len(o) == 2)]


def class_space_basis(group: FiniteGroup, parity: str) -> list[ClassFunction]:
    """Deterministic basis of Class^+_0 (parity='plus') or Class^-_0 ('minus').

    plus: one characteristic function of <g> u <g^-1> per tau-orbit of
    nontrivial classes.  minus: one (+1 on <g>, -1 on <g^-1>) function per
    orbit with <g> != <g^-1>.
    """
    sign = _parity_sign(parity)
    basis = []
    for orbit in _class0_orbits(group, parity):
        vals = [CyclotomicValue.zero() for _ in range(group.n_classes())]
        for ci, s in zip(orbit, (1, sign)):
            vals[ci] = CyclotomicValue.from_rational(s)
        basis.append(ClassFunction(group, tuple(vals)))
    return basis


def rank_plus(group: FiniteGroup, include_identity: bool = False) -> int:
    """Number of tau-orbits of nontrivial classes (identity optionally counted)."""
    return len(_class0_orbits(group, "plus")) + (1 if include_identity else 0)

def rank_minus(group: FiniteGroup) -> int:
    """Number of tau-orbits with <h> != <h^-1>."""
    return len(_class0_orbits(group, "minus"))


def is_in_R0(rep: VirtualRep, parity: str) -> bool:
    """Exact membership test for R^+_0 / R^-_0."""
    return rep.character.in_class0(parity)


def fourier_eta(rep: VirtualRep, rho: RhoVector) -> CyclotomicValue:
    """eta_phi = sum over elements of chi_phi(h) rho_<h>.

    Taken class by class as |class| * chi(rep) * rho(class); on abelian
    groups this is the plain Fourier pairing.  One ``_weighted_dot`` with
    the class sizes as weights: integer numerators, a single reduction mod
    Phi_m at the end.
    """
    if rep.group != rho.group:
        raise ValueError("representation and rho vector live on different groups")
    group = rep.group
    sizes = [group.class_size(ci) for ci in range(group.n_classes())]
    return _weighted_dot(sizes, rep.character.values, rho.values)


def pair_phi(f: ClassFunction, rho: RhoVector) -> CyclotomicValue:
    """Phi(f)(rho) = sum over classes of rho_<h> f(<h>).

    One ``_weighted_dot`` with unit weights: integer numerators, a single
    reduction mod Phi_m at the end.
    """
    if f.group != rho.group:
        raise ValueError("class function and rho vector live on different groups")
    return _weighted_dot([1] * len(f.values), f.values, rho.values)


def r_plus_test_reps(n: int) -> list[VirtualRep]:
    """Spanning set of R^+_0(cyclic:n) tensor Q: chi_j + chi_-j - 2 chi_0."""
    group = FiniteGroup.cyclic(n)
    powers = _zeta_powers(n)
    reps = []
    for j in range(1, n // 2 + 1):
        vals = []
        for h in range(n):
            # zeta^(jh) + zeta^(-jh) - 2, summed on the integer rows
            coeffs = [a + b for a, b in zip(powers[j * h % n], powers[-j * h % n])]
            coeffs[0] -= 2
            vals.append(CyclotomicValue(n, coeffs))
        reps.append(VirtualRep(group, ClassFunction(group, tuple(vals))))
    return reps
