"""Normal forms, conjugacy balls and growth for the example groups.

Variants
--------
- ``Cyclic(n)``: integers mod n.
- ``Product(A, B)``: direct product, componentwise normal forms.
- ``Lamplighter(n)``: (+_k Z/n) x| Z, elements (lamps, shift) with finitely
  many lamps on; conjugation by the shift translates lamp patterns.
- ``QSemidirect``: Q x| (+_i Z), where the generator of the i-th summand acts
  on Q by multiplication with the |i|-th prime, 0-based: p(0)=2, p(+-1)=3, ...
  Elements are (q, lam) with (q, lam)(q', lam') = (q + m(lam) q', lam + lam'),
  m(lam) = prod p(|i|)^lam_i.
- ``HnnShift``: the HNN extension of QSemidirect along the index shift of the
  subgroup A = +_i Z.  Elements are Britton-reduced words
  g_0 t^e1 g_1 ... t^em g_m; the canonical form keeps g_0..g_{m-1} in the
  rational-kernel transversal {(q, 0)} of A, which makes it unique.
  Products are reduced only at the junction of the two words (Britton's
  lemma; see ``HnnShift.mul``).  The conjugate BFS forms no product: it
  steps by ``HnnShift.conjugators``, closed forms of u -> g u g^-1 that
  change a reduced word only at its two ends (and, for e0, push the
  lambda-part along it), and ``_bfs`` never steps a node back to its
  parent.  Together they took the zoo-bfs benchmark from 88.7 to 165.5
  jobs/s and its p90 job from 45 to 19 ms (medians of 10 alternating
  pairs, 2-vCPU host).

Word metrics use the canonical generating sets below; for QSemidirect the
relevant metric is the one of the ambient 3-generator HNN group (the base
group itself is not finitely generated), so its conjugacy balls are computed
in the ambient group and restricted to base-group values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Optional

from ._ntheory import primes


class ZooError(ValueError):
    pass


class CapExceededError(ZooError):
    """A BFS radius or node budget above the configured desk-scale cap."""


DESK_RADIUS_CAP = 12
# about 1 KB a node: `zoo --group hnn --ball 12` stops at radius 8 near 125 MB RSS
DEFAULT_NODE_BUDGET = 100_000
# HnnShift.t(power) builds one syllable per unit of |power|; e:i^k letters
# compute p(|i|)^k, so |i| and |k| share the cap
T_POWER_CAP = 10_000


def _check_radius(radius: int) -> None:
    if radius > DESK_RADIUS_CAP:
        raise CapExceededError(f"radius {radius} above desk-scale cap {DESK_RADIUS_CAP}")
    if radius < 0:
        raise ZooError("radius must be >= 0")


# --------------------------------------------------------------------------
# QSemidirect element algebra (shared with the HNN extension)
# --------------------------------------------------------------------------

_PRIMES: list[int] = []  # p(0), p(1), ...: read from one sieve as letters need them
_PRIME_SOURCE = primes()


def _prime_at(i: int) -> int:
    """p(0)=2, p(+-1)=3, p(+-2)=5, ...: 0-based over |i|."""
    while len(_PRIMES) <= abs(i):
        _PRIMES.append(next(_PRIME_SOURCE))
    return _PRIMES[abs(i)]


def _lam_add(a: tuple, b: tuple) -> tuple:
    acc = dict(a)
    for i, e in b:
        v = acc.get(i, 0) + e
        if v:
            acc[i] = v
        else:
            acc.pop(i, None)
    return tuple(sorted(acc.items()))


def _lam_neg(a: tuple) -> tuple:
    return tuple((i, -e) for i, e in a)


def _lam_shift(a: tuple, k: int) -> tuple:
    return tuple(sorted((i + k, e) for i, e in a))


@lru_cache(maxsize=None)
def _multiplier(lam: tuple) -> Fraction:
    m = Fraction(1)
    for i, e in lam:
        m *= Fraction(_prime_at(i)) ** e
    return m


_ZERO = Fraction(0)
Q_IDENTITY = (_ZERO, ())


def q_mul(a: tuple, b: tuple) -> tuple:
    (qa, la), (qb, lb) = a, b
    lam = _lam_add(la, lb) if la and lb else la or lb
    if not qb:
        return (qa, lam)
    return (qa + _multiplier(la) * qb if la else qa + qb, lam)


def q_inv(a: tuple) -> tuple:
    return (-a[0] / _multiplier(a[1]), _lam_neg(a[1]))


def q_in_A(a: tuple) -> bool:
    return a[0] == 0


def q_in_kernel(a: tuple) -> bool:
    return not a[1]


def q_alpha(a: tuple, k: int = 1) -> tuple:
    """The shift automorphism of A = +_i Z, extended index map i -> i+k."""
    if not q_in_A(a):
        raise ZooError("alpha is only defined on the subgroup A")
    return (_ZERO, _lam_shift(a[1], k))


def _bfs(start, steps, inverse, radius: int) -> dict:
    """First-reach distance of every node within ``radius`` steps of
    ``start``, where the neighbours of ``x`` are ``step(x)`` for each of
    ``steps``; the dict is in BFS order.  ``steps[inverse[i]]`` undoes
    ``steps[i]``, so a node is not stepped back to the parent it was reached
    from (that node is always seen already).  Stops past DEFAULT_NODE_BUDGET
    nodes."""
    # moves[b]: (inverse index, step) for every step but the b-th; the start has b = -1
    moves = {b: [(inverse[i], step) for i, step in enumerate(steps) if i != b]
             for b in [-1, *inverse]}
    dist = {start: 0}
    frontier = [(start, -1)]
    for r in range(1, radius + 1):
        new = []
        for node, back in frontier:
            for undo, step in moves[back]:
                cand = step(node)
                size = len(dist)
                dist.setdefault(cand, r)
                if len(dist) > size:
                    new.append((cand, undo))
                    if len(dist) > DEFAULT_NODE_BUDGET:
                        raise CapExceededError(
                            f"ball exceeded node budget {DEFAULT_NODE_BUDGET} at radius {r}")
        frontier = new
    return dist


def _inverse_indices(group, gens: list) -> list[int]:
    """i -> the index of gens[i]^-1 in ``gens`` (every generating set here
    is closed under inverses)."""
    return [gens.index(group.inv(g)) for g in gens]


# --------------------------------------------------------------------------
# Reachable conjugation multipliers for rational-kernel elements.
#
# Conjugating a kernel element (q0, 0) by a base-group element (q, lam)
# gives (m(lam) q0, 0), and Britton reduction shows that a conjugator whose
# normal form contains any t letter produces a value with t letters, i.e.
# outside the base group (the inner conjugate (m q0, 0) is never in A, so
# nothing pinches).  Hence the rational-valued conjugates within conjugator
# radius r are exactly {m(lam) q0} with lam ranging over the lambda-parts of
# base-group elements of ambient length <= r.
#
# Killing Q maps the ambient group onto Z wr Z = <lamps e_i, shift s> (the
# generators go to 1, e_0, s); the lambda-parts reachable at radius r are
# exactly the zero-shift lamp configurations c of word length <= r there:
# projection gives <=, and a {e_0, s}-word lifts to an {e0, t}-word whose
# value is (0, lam) itself, giving >=.  That word length is
# ||c||_1 + 2 (L + R), where [-L, R] is the least window holding 0 and the
# support of c: the lighter walks out to both ends and back (W. Parry,
# "Growth series of some wreath products", Trans. AMS 331, 1992).  So each
# level is enumerated directly, window by window.
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _lambda_levels(radius: int) -> tuple:
    """levels[r] = lambda-configs whose minimal Z-wr-Z word length is r."""
    levels = [set() for _ in range(radius + 1)]
    for lo in range(-(radius // 2), 1):
        for hi in range(radius // 2 + lo + 1):
            # (config on [lo, pos], its length so far); a window end other
            # than 0 must hold a lamp, else a smaller window would do
            configs = [((), 2 * (hi - lo))]
            for pos in range(lo, hi + 1):
                least = 1 if pos == lo < 0 or pos == hi > 0 else 0
                configs = [(c + ((pos, v),) if v else c, n + abs(v))
                           for c, n in configs
                           for v in range(n - radius, radius - n + 1) if abs(v) >= least]
            for c, n in configs:
                levels[n].add(c)
    return tuple(frozenset(lv) for lv in levels)


def multiplier_levels(radius: int) -> list[set]:
    """Distinct kernel-conjugation multipliers, bucketed by first-reach radius."""
    _check_radius(radius)
    seen: set = set()
    out = []
    for level in _lambda_levels(radius):
        fresh = {_multiplier(lam) for lam in level} - seen
        seen |= fresh
        out.append(fresh)
    return out


# --------------------------------------------------------------------------
# group variants
# --------------------------------------------------------------------------

class Cyclic:
    """Z/n with generator 1; elements are integers 0..n-1."""

    def __init__(self, n: int):
        if n < 1:
            raise ZooError("cyclic order must be >= 1")
        self.n = n
        self.name = f"cyclic:{n}"
        self.identity = 0

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def inv(self, a: int) -> int:
        return (-a) % self.n

    def generators(self):
        gens = [("g", 1 % self.n)]
        if self.n > 2:
            gens.append(("g^-1", self.n - 1))
        return gens

    def class_key(self, a: int):
        return ("cyclic", a)

    def parse_letter(self, token: str):
        base, power = _split_power(token)
        if base == "g":
            return (power) % self.n
        if base.startswith("g:"):
            return (int(base[2:]) * power) % self.n
        raise ZooError(f"unknown cyclic letter {token!r}")

    def format_element(self, a: int) -> str:
        return f"g^{a}"


class Product:
    """Direct product of two zoo groups; elements are pairs."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.name = f"product({left.name},{right.name})"
        self.identity = (left.identity, right.identity)

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def generators(self):
        gens = [(f"l.{lbl}", (g, self.right.identity)) for lbl, g in self.left.generators()]
        gens += [(f"r.{lbl}", (self.left.identity, g)) for lbl, g in self.right.generators()]
        return gens

    def class_key(self, a):
        return ("product", self.left.class_key(a[0]), self.right.class_key(a[1]))

    def format_element(self, a) -> str:
        return f"({self.left.format_element(a[0])}, {self.right.format_element(a[1])})"


class Lamplighter:
    """(+_k Z/n) x| Z.  Elements ((pos, val), ...) sorted by pos, and a shift."""

    def __init__(self, n: int):
        if n < 2:
            raise ZooError("lamplighter needs n >= 2")
        self.n = n
        self.name = f"lamplighter:{n}"
        self.identity = ((), 0)

    def _merge(self, lamps_a: tuple, lamps_b: tuple, offset: int) -> tuple:
        acc = dict(lamps_a)
        for pos, val in lamps_b:
            p = pos + offset
            v = (acc.get(p, 0) + val) % self.n
            if v:
                acc[p] = v
            else:
                acc.pop(p, None)
        return tuple(sorted(acc.items()))

    def mul(self, a, b):
        return (self._merge(a[0], b[0], a[1]), a[1] + b[1])

    def inv(self, a):
        lamps = tuple(sorted((pos - a[1], (-val) % self.n) for pos, val in a[0]))
        return (lamps, -a[1])

    def lamp(self, pos: int = 0, val: int = 1):
        val %= self.n
        return (((pos, val),) if val else (), 0)

    def shift(self, k: int = 1):
        return ((), k)

    def generators(self):
        gens = [("lamp", self.lamp(0, 1))]
        if self.n > 2:
            gens.append(("lamp^-1", self.lamp(0, self.n - 1)))
        gens += [("shift", self.shift(1)), ("shift^-1", self.shift(-1))]
        return gens

    def class_key(self, a):
        """Canonical key for torsion elements: translate-normalized lamp pattern."""
        if a[1] != 0:
            raise ZooError("conjugacy keys are implemented for kernel elements only")
        if not a[0]:
            return ("lamplighter", "e")
        base = a[0][0][0]
        pattern = tuple((pos - base, val) for pos, val in a[0])
        return ("lamplighter", pattern)

    def parse_letter(self, token: str):
        base, power = _split_power(token)
        if base == "shift" or base == "t":
            return self.shift(power)
        if base.startswith("lamp"):
            parts = base.split(":")
            pos = int(parts[1]) if len(parts) > 1 else 0
            val = int(parts[2]) if len(parts) > 2 else 1
            return self.lamp(pos, (val * power) % self.n)
        raise ZooError(f"unknown lamplighter letter {token!r}")

    def format_element(self, a) -> str:
        lamps = ",".join(f"{pos}:{val}" for pos, val in a[0]) or "-"
        return f"(lamps {lamps} | shift {a[1]})"


class QSemidirect:
    """The base group Q x| (+_i Z); see the module docstring for conventions."""

    def __init__(self):
        self.name = "qsemidirect"
        self.identity = Q_IDENTITY

    def mul(self, a, b):
        return q_mul(a, b)

    def inv(self, a):
        return q_inv(a)

    def rational(self, q):
        return (Fraction(q), ())

    def summand_generator(self, i: int, power: int = 1):
        if max(abs(i), abs(power)) > T_POWER_CAP:
            raise ZooError(f"e letter index {i}, power {power}: above the cap of {T_POWER_CAP}")
        return (Fraction(0), ((i, power),) if power else ())

    def generators(self):
        # canonical alphabet of the ambient 3-generator group, minus t
        return [("q1", self.rational(1)), ("q1^-1", self.rational(-1)),
                ("e0", self.summand_generator(0, 1)), ("e0^-1", self.summand_generator(0, -1))]

    def class_key(self, a):
        if not q_in_kernel(a):
            raise ZooError("conjugacy keys are implemented for kernel elements only")
        q = a[0]
        if q == 0:
            return ("qsemidirect", "e")
        return ("qsemidirect", "q+" if q > 0 else "q-")

    def parse_letter(self, token: str):
        base, power = _split_power(token)
        if base.startswith("q:"):
            return self.rational(Fraction(base[2:]) * power)
        if base.startswith("e:"):
            return self.summand_generator(int(base[2:]), power)
        if base == "e":
            return self.summand_generator(0, power)
        raise ZooError(f"unknown qsemidirect letter {token!r}")

    def format_element(self, a) -> str:
        lam = " ".join(f"e[{i}]^{e}" for i, e in a[1]) or "-"
        return f"(q={a[0]} | {lam})"

    def ambient(self) -> "HnnShift":
        return HnnShift()


def _push_right(sylls: list, eps: list) -> None:
    """In place: move the A-part of each non-final syllable of
    sylls[0] t^eps[0] sylls[1] ... right through the next t."""
    for i, f in enumerate(eps):
        q, lam = sylls[i]
        if lam:
            sylls[i] = (q, ())
            sylls[i + 1] = q_mul(q_alpha((_ZERO, lam), -f), sylls[i + 1])


class HnnShift:
    """HNN extension of QSemidirect by the index shift on A = +_i Z.

    Element = (g0, ((e1, g1), ..., (em, gm))) meaning g0 t^e1 g1 ... t^em gm,
    Britton-reduced, with g0..g_{m-1} in the kernel transversal {(q, 0)}.
    """

    def __init__(self):
        self.base = QSemidirect()
        self.name = "hnn"
        self.identity = (Q_IDENTITY, ())

    def from_base(self, g) -> tuple:
        return (g, ())

    def t(self, power: int = 1) -> tuple:
        if abs(power) > T_POWER_CAP:
            raise ZooError(f"t power {power} above the cap of {T_POWER_CAP}")
        sign = 1 if power > 0 else -1
        return (Q_IDENTITY, ((sign, Q_IDENTITY),) * abs(power))

    def mul(self, u: tuple, v: tuple) -> tuple:
        """The canonical form of u v, reduced only where u and v meet.

        Glue u's last syllable to v's head.  While the t letters on either
        side of the glue are inverse and the glue lies in A, pinch:
        prev t^e glue t^-e next becomes prev alpha^e(glue) next.  Then
        append the rest of v, pushing each non-final A-part right through
        the next t (a t^f = t^f alpha^-f(a)).  No other pinch can appear
        (Britton's lemma): a push multiplies q by m(lam) != 0, so it never
        changes whether a syllable lies in A, and both factors were
        pinch-free.
        """
        head_u, tail_u = u
        tail_v = v[1]
        k, j = len(tail_u), 0  # t letters kept from u; t letters of v pinched
        glue = q_mul(tail_u[-1][1] if k else head_u, v[0])
        while (k and j < len(tail_v) and tail_u[k - 1][0] == -tail_v[j][0]
               and not glue[0]):
            prev = tail_u[k - 2][1] if k > 1 else head_u
            glue = q_mul(q_mul(prev, q_alpha(glue, tail_u[k - 1][0])), tail_v[j][1])
            k, j = k - 1, j + 1
        sylls = [glue] + [g for _, g in tail_v[j:]]
        eps = [e for e, _ in tail_v[j:]]
        _push_right(sylls, eps)
        rest = tuple(zip(eps, sylls[1:]))
        if not k:
            return (sylls[0], rest)
        return (head_u, tail_u[:k - 1] + ((tail_u[k - 1][0], sylls[0]),) + rest)

    def inv(self, u: tuple) -> tuple:
        """One push pass over the reversed, inverted syllables: q_inv keeps
        each syllable in A or out of it, so inverting creates no pinch."""
        head, tail = u
        sylls = [q_inv(g) for g in reversed([head] + [g for _, g in tail])]
        eps = [-e for e, _ in reversed(tail)]
        _push_right(sylls, eps)
        return (sylls[0], tuple(zip(eps, sylls[1:])))

    def generators(self):
        return [("q1", self.from_base((Fraction(1), ()))),
                ("q1^-1", self.from_base((Fraction(-1), ()))),
                ("e0", self.from_base((Fraction(0), ((0, 1),)))),
                ("e0^-1", self.from_base((Fraction(0), ((0, -1),)))),
                ("t", self.t(1)), ("t^-1", self.t(-1))]

    def conjugators(self) -> list:
        """One map u -> g u g^-1 per generator g, in ``generators()`` order.

        Each equals ``mul(g, mul(u, inv(g)))`` but touches only what the
        conjugation changes (Britton's lemma; Lyndon & Schupp IV.2).  With
        u = g0 t^e1 g1 ... t^em gm and gi = (qi, lam_i):
        q1^s moves q0 by s and qm by -s m(lam_m) (both, when m = 0);
        e0^s scales each qi by p(|Si|)^s, Si = -(e1 + ... + ei), and adds
        (Sm, s) and (0, -s) to lam_m; t^s pinches or appends t^-s at the
        right end, then pinches or prepends t^s at the left end.
        """
        return [_conjugator_q(1), _conjugator_q(-1), _conjugator_e(1), _conjugator_e(-1),
                _conjugator_t(1), _conjugator_t(-1)]

    def in_base(self, u: tuple) -> bool:
        return not u[1]

    def kernel_rational(self, u: tuple) -> Optional[Fraction]:
        """The rational q if u = (q, 0) with no t letters, else None."""
        if u[1] or u[0][1]:
            return None
        return u[0][0]

    def class_key(self, u):
        if u == self.identity:
            return ("hnn", "e")
        raise ZooError("only the identity has a torsion conjugacy key here")

    def parse_letter(self, token: str):
        base, power = _split_power(token)
        if base == "t":
            return self.t(power)
        return self.from_base(self.base.parse_letter(token))

    def format_element(self, u) -> str:
        head, tail = u
        parts = []
        if head != Q_IDENTITY or not tail:
            parts.append(self.base.format_element(head))
        for e, g in tail:
            parts.append("t" if e == 1 else "t^-1")
            if g != Q_IDENTITY:
                parts.append(self.base.format_element(g))
        return " ".join(parts)

    def t_exponent_sum(self, u) -> int:
        return sum(e for e, _ in u[1])


def _conjugator_q(s: int):
    """u -> q1^s u q1^-s: the head q gains s, the last q loses s m(lam_m)."""
    def conjugate(u):
        head, tail = u
        if not tail:
            q, lam = head
            return ((q + s - s * _multiplier(lam), lam) if lam else head, ())
        e, (q, lam) = tail[-1]
        last = (e, (q - s * _multiplier(lam) if lam else q - s, lam))
        return ((head[0] + s, ()), tail[:-1] + (last,))
    return conjugate


def _conjugator_e(s: int):
    """u -> e0^s u e0^-s: push (0, s) right through the word, scaling each
    q on the way, and add (0, -s) at the end."""
    def scale(q, i):
        return q * _prime_at(i) if s > 0 else q / _prime_at(i)

    def conjugate(u):
        (q0, lam0), tail = u
        head = (scale(q0, 0), lam0) if q0 else u[0]
        if not tail:
            return (head, ())
        shift = 0
        out = []
        for e, g in tail:
            shift -= e
            out.append((e, (scale(g[0], shift), g[1])) if g[0] else (e, g))
        if shift:
            e, (q, lam) = out[-1]
            out[-1] = (e, (q, _lam_add(lam, ((shift, s), (0, -s)))))
        return (head, tuple(out))
    return conjugate


def _conjugator_t(s: int):
    """u -> t^s u t^-s: pinch or append t^-s at the right end, then pinch
    or prepend t^s at the left end."""
    def conjugate(u):
        head, tail = u
        if tail and tail[-1][0] == s and not tail[-1][1][0]:
            # ... t^f g t^s a t^-s = ... t^f g alpha^s(a), a in A
            lam = _lam_shift(tail[-1][1][1], s)
            if len(tail) == 1:
                return (Q_IDENTITY, ((s, (head[0], lam)),))
            f, (q, _) = tail[-2]
            tail = tail[:-2] + ((f, (q, lam)),)
        else:
            # ... gm t^-s: gm's A-part moves right through the new t^-s
            q, lam = tail[-1][1] if tail else head
            moved = (-s, (_ZERO, _lam_shift(lam, s)) if lam else Q_IDENTITY)
            if tail:
                tail = tail[:-1] + ((tail[-1][0], (q, ())), moved)
            else:
                head, tail = (q, ()), (moved,)
        if tail[0][0] == -s and not head[0]:
            return (tail[0][1], tail[1:])  # the head is 1: t^s 1 t^-s cancels
        return (Q_IDENTITY, ((s, head),) + tail)
    return conjugate


def _split_power(token: str):
    if "^" in token:
        base, _, p = token.rpartition("^")
        return base, int(p)
    return token, 1


def normalize(group, word) -> object:
    """Multiply out a word; ``word`` is an iterable of letters or a string.

    String words are whitespace- or ``*``-separated letter tokens in the
    variant's compact syntax (``q:5/6``, ``e:3^-2``, ``lamp:0``, ``t^-1``...).
    """
    if isinstance(word, str):
        tokens = [tok for tok in word.replace("*", " ").split() if tok]
        letters = [group.parse_letter(tok) for tok in tokens]
    else:
        letters = list(word)
    acc = group.identity
    for letter in letters:
        acc = group.mul(acc, letter)
    return acc


def conjugate_of_one_test(element) -> Optional[bool]:
    """Membership of a QSemidirect kernel element in the class of 1 in Q.

    True iff q > 0; None when the element lies outside the rational kernel
    (the test does not apply there); the identity is its own class (False).
    """
    q, lam = element
    if lam:
        return None
    return q > 0


@dataclass(frozen=True)
class WordBall:
    group_name: str
    generating_set: tuple
    radius: int
    elements: dict  # element -> word length

    def __len__(self):
        return len(self.elements)

    def sizes_by_radius(self) -> list[int]:
        out = [0] * (self.radius + 1)
        for _, length in self.elements.items():
            out[length] += 1
        return list(accumulate(out))


def word_ball(group, radius: int) -> WordBall:
    """Breadth-first ball of the group itself under its canonical generators,
    for radius <= DESK_RADIUS_CAP."""
    _check_radius(radius)
    labels, gens = zip(*group.generators())
    mul = group.mul
    steps = [lambda x, g=g: mul(x, g) for g in gens]
    lengths = _bfs(group.identity, steps, _inverse_indices(group, list(gens)), radius)
    return WordBall(group.name, labels, radius, lengths)


def _conjugate_dist(group, h, radius: int) -> dict:
    """The conjugate-value BFS: each w h w^-1 with |w| <= radius, mapped to
    the least such |w|.  HnnShift steps by its closed-form conjugators,
    other groups by two products."""
    gens = [g for _, g in group.generators()]
    if isinstance(group, HnnShift):
        steps = group.conjugators()
    else:
        mul = group.mul
        steps = [lambda c, g=g, gi=group.inv(g): mul(g, mul(c, gi)) for g in gens]
    return _bfs(h, steps, _inverse_indices(group, gens), radius)


def _class_dist(group, h, radius: int) -> dict:
    """Each conjugate w h w^-1 with |w| <= radius, mapped to the least such
    |w|, in that order (for QSemidirect: see ``class_ball``)."""
    _check_radius(radius)
    if isinstance(group, Cyclic) or h == group.identity:
        return {h: 0}
    if isinstance(group, QSemidirect) and q_in_kernel(h):
        return {(m * h[0], ()): r
                for r, level in enumerate(multiplier_levels(radius)) for m in level}
    if isinstance(group, QSemidirect):
        ambient = group.ambient()
        dist = _conjugate_dist(ambient, ambient.from_base(h), radius)
        return {u[0]: r for u, r in dist.items() if ambient.in_base(u)}
    return _conjugate_dist(group, h, radius)


def class_ball(group, h, radius: int) -> set:
    """{w h w^-1 : |w| <= radius} as a set of normal forms.

    For QSemidirect the word metric is the one of the ambient 3-generator
    HNN group; for its rational-kernel elements the conjugate set is
    computed exactly through the reachable-multiplier reduction above
    (non-kernel base elements fall back to the ambient BFS, restricted to
    values in the base group).
    """
    return set(_class_dist(group, h, radius))  # a dict's keys keep their hashes


def class_ball_rationals(group, q0, radius: int) -> set:
    """The rational-valued part of the conjugacy ball of (q0, 0), exactly.

    Valid for QSemidirect and HnnShift alike: by the Britton argument above,
    every conjugate of a kernel element that lands back in Q comes from a
    base-group conjugator, so both groups give {m * q0} over the reachable
    multipliers.
    """
    _check_radius(radius)
    if not isinstance(group, (QSemidirect, HnnShift)):
        raise ZooError("class_ball_rationals applies to qsemidirect/hnn only")
    q0 = Fraction(q0)
    return {m * q0 for m in set().union(*multiplier_levels(radius))}


def class_ball_counts(group, h, max_radius: int) -> list[int]:
    """Cumulative conjugate counts by radius (one BFS, all radii at once)."""
    dist = _class_dist(group, h, max_radius)  # checks the radius cap first
    counts = [0] * (max_radius + 1)
    for r in dist.values():
        counts[r] += 1
    return list(accumulate(counts))


def class_intersect_integers(group, radius: int) -> list[int]:
    """Integers found in the conjugacy class of 1 in Q, sorted ascending."""
    rationals = class_ball_rationals(group, Fraction(1), radius)
    return sorted(int(q) for q in rationals if q.denominator == 1)


@dataclass(frozen=True)
class GrowthReport:
    kind: str  # polynomial | exponential | inconclusive
    degree_estimate: Optional[float]
    counts: tuple
    window: tuple
    ratios: tuple

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "degree_estimate": self.degree_estimate,
                "counts": list(self.counts),
                "window": list(self.window),
                "ratios": [round(r, 6) for r in self.ratios]}


def _slope(xs: list, ys: list) -> float:
    """Least-squares slope of ys on xs, computed exactly from the floats and
    rounded once, so it does not depend on a BLAS build or its summation
    order."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    return float((n * sxy - sx * sy) / (n * sxx - sx * sx))


def growth_classify(group, h, max_radius: int) -> GrowthReport:
    """Desk-scale growth estimate for the conjugacy class of h.

    Fits both a power law (log count vs log r) and an exponential (count
    ratios) on the outer half of the radii; the verdict is an estimate from
    finite data and is labelled as such, with raw counts always reported.
    """
    if max_radius < 1:
        raise ZooError(f"max_radius must be >= 1, got {max_radius}")
    counts = class_ball_counts(group, h, max_radius)
    lo = max(max_radius // 2, 1)
    window = list(range(lo, max_radius + 1))
    ratios = tuple(counts[r] / counts[r - 1] for r in range(lo, max_radius + 1)
                   if counts[r - 1] > 0)
    log_counts = [math.log(counts[r]) for r in window]
    # exponential: near-convex log-counts with per-step ratio >= 1.5
    # (boundary effects make desk-scale log-counts dip slightly below convex)
    diffs = [b - a for a, b in zip(log_counts, log_counts[1:])]
    convex = len(diffs) < 2 or all(b - a >= -0.05 for a, b in zip(diffs, diffs[1:]))
    if ratios and convex and all(r >= 1.5 for r in ratios):
        return GrowthReport("exponential", None, tuple(counts),
                            (lo, max_radius), ratios)
    # polynomial: log-log slope stable (within 0.25) across the two half-windows
    log_r = [math.log(r) for r in window]
    if len(window) >= 4:
        half = len(window) // 2
        s1 = _slope(log_r[:half + 1], log_counts[:half + 1])
        s2 = _slope(log_r[half:], log_counts[half:])
        if abs(s1 - s2) <= 0.25:
            return GrowthReport("polynomial", _slope(log_r, log_counts), tuple(counts),
                                (lo, max_radius), ratios)
    elif len(set(counts)) == 1:
        return GrowthReport("polynomial", 0.0, tuple(counts), (lo, max_radius), ratios)
    return GrowthReport("inconclusive", None, tuple(counts), (lo, max_radius), ratios)
