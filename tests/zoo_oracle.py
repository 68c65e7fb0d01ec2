"""Reference Britton products for HnnShift: rescan the whole word.

``mul`` and ``inv`` concatenate or invert the syllables and rerun a full
pinch-and-push normalization over the result, the way the library did
before its products were reduced only at the junction.  Slow and plain; the
tests compare the library against it.

``growth_classify`` is the growth fit as the library had it with numpy:
``np.log`` and ``np.polyfit`` in place of ``math.log`` and an exact slope.
"""

from fractions import Fraction

import numpy as np

from etarho.zoo import (Q_IDENTITY, GrowthReport, HnnShift, QSemidirect, _lam_add,
                        _multiplier, class_ball_counts, q_alpha, q_in_A, q_inv)

ZERO = Fraction(0)


def plain_q_mul(a: tuple, b: tuple) -> tuple:
    """(qa + m(la) qb, la + lb) with no shortcut for trivial factors."""
    return (a[0] + _multiplier(a[1]) * b[0], _lam_add(a[1], b[1]))


def normalize_word(head: tuple, tail: list) -> tuple:
    """Britton pinch reduction, then push A-parts right for uniqueness."""
    syll = [head] + [g for _, g in tail]
    eps = [e for e, _ in tail]
    changed = True
    while changed:
        changed = False
        # pinch scan: t^e a t^-e -> alpha^e(a)
        i = 0
        while i < len(eps) - 1:
            if eps[i + 1] == -eps[i] and q_in_A(syll[i + 1]):
                merged = q_alpha(syll[i + 1], eps[i])
                syll[i] = plain_q_mul(plain_q_mul(syll[i], merged), syll[i + 2])
                del syll[i + 1:i + 3]
                del eps[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
        # push the A-component of every non-final syllable to the right
        for i in range(len(eps)):
            q, lam = syll[i]
            if lam:
                syll[i] = (q, ())
                carried = q_alpha((ZERO, lam), -eps[i])
                syll[i + 1] = plain_q_mul(carried, syll[i + 1])
        # pushing can expose identity pinches t^e 1 t^-e
        for i in range(len(eps) - 1):
            if eps[i + 1] == -eps[i] and syll[i + 1] == Q_IDENTITY:
                changed = True
                break
    return (syll[0], tuple(zip(eps, syll[1:])))


class OracleHnn(HnnShift):
    """HnnShift with whole-word products; same elements, same generators."""

    def mul(self, u: tuple, v: tuple) -> tuple:
        head_u, tail_u = u
        head_v, tail_v = v
        if not tail_u:
            return normalize_word(plain_q_mul(head_u, head_v), list(tail_v))
        glue = plain_q_mul(tail_u[-1][1], head_v)
        tail = list(tail_u[:-1]) + [(tail_u[-1][0], glue)] + list(tail_v)
        return normalize_word(head_u, tail)

    def inv(self, u: tuple) -> tuple:
        head, tail = u
        if not tail:
            return (q_inv(head), ())
        gammas = [head] + [g for _, g in tail]
        new_tail = [(-tail[i][0], q_inv(gammas[i])) for i in range(len(tail) - 1, -1, -1)]
        return normalize_word(q_inv(tail[-1][1]), new_tail)


def ball(group, start, step, radius: int) -> dict:
    """First-reach distances within ``radius`` steps, in BFS order."""
    gens = [g for _, g in group.generators()]
    dist = {start: 0}
    frontier = [start]
    for r in range(1, radius + 1):
        new = []
        for node in frontier:
            for g in gens:
                cand = step(node, g)
                if cand not in dist:
                    dist[cand] = r
                    new.append(cand)
        frontier = new
    return dist


def word_ball(group, radius: int) -> dict:
    return ball(group, group.identity, group.mul, radius)


def conjugate(group, g, u):
    """g u g^-1 as two plain products."""
    return group.mul(g, group.mul(u, group.inv(g)))


def class_levels(group, h, radius: int) -> list[set]:
    """Level r holds the conjugates w h w^-1 first reached at |w| = r; for
    QSemidirect, the base-group values of the conjugate BFS in OracleHnn."""
    ambient = OracleHnn() if isinstance(group, QSemidirect) else group
    start = ambient.from_base(h) if ambient is not group else h
    dist = ball(ambient, start, lambda c, g: conjugate(ambient, g, c), radius)
    levels = [set() for _ in range(radius + 1)]
    for c, r in dist.items():
        if ambient is group:
            levels[r].add(c)
        elif ambient.in_base(c):
            levels[r].add(c[0])
    seen: set = set()
    for level in levels:
        level -= seen
        seen |= level
    return levels


def growth_classify(group, h, max_radius: int) -> GrowthReport:
    """The library's growth verdict, fitted by numpy."""
    counts = class_ball_counts(group, h, max_radius)
    lo = max(max_radius // 2, 1)
    window = list(range(lo, max_radius + 1))
    ratios = tuple(counts[r] / counts[r - 1] for r in range(lo, max_radius + 1)
                   if counts[r - 1] > 0)
    log_counts = [np.log(counts[r]) for r in window]
    diffs = np.diff(log_counts)
    convex = bool(len(diffs) < 2 or np.all(np.diff(diffs) >= -0.05))
    if ratios and convex and all(r >= 1.5 for r in ratios):
        return GrowthReport("exponential", None, tuple(counts),
                            (lo, max_radius), ratios)
    log_r = [np.log(r) for r in window]
    if len(window) >= 4:
        half = len(window) // 2
        s1 = np.polyfit(log_r[:half + 1], log_counts[:half + 1], 1)[0]
        s2 = np.polyfit(log_r[half:], log_counts[half:], 1)[0]
        s_all = np.polyfit(log_r, log_counts, 1)[0]
        if abs(s1 - s2) <= 0.25:
            return GrowthReport("polynomial", float(s_all), tuple(counts),
                                (lo, max_radius), ratios)
    elif len(set(counts)) == 1:
        return GrowthReport("polynomial", 0.0, tuple(counts), (lo, max_radius), ratios)
    return GrowthReport("inconclusive", None, tuple(counts), (lo, max_radius), ratios)
