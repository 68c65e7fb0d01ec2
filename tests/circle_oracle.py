"""Reference circle code for the tests: eta terms without memos and partial
sums built term by term from ``closed_form_term``.

This is the code that ``eta_term`` and ``eta_partial`` replaced, kept as the
oracle for their bytes: ``mpf``/``mpc`` objects and ``mpmath.quad`` all the
way down, with the complex kernel.  ``eta_term_reference`` looks up
``t_integrand`` on this module at call time, so a test can patch it together
with ``circle._t_integrand_raw``.
"""

from fractions import Fraction

import mpmath

from etarho.circle import (DEFAULT_CONFIG, EXACT_TERMS_CAP, CircleExact,
                           EtaReport, _quad_with_tolerance,
                           classify_convergence, closed_form_term)


def kernel_mp(x, y, t):
    """The integral kernel of D exp(-t D^2) at (x, y) as an mpc."""
    d = x - y
    return (1j * d / (2 * t * mpmath.sqrt(4 * mpmath.pi * t))
            * mpmath.exp(-(d * d) / (4 * t)))


def t_integrand(x, nn, t, inv_sqrt_pi):
    """The t-integrand of the deck term of translation by n at (x, t)."""
    return inv_sqrt_pi * kernel_mp(x + nn, x, t) / mpmath.sqrt(t)


def eta_term_reference(n, cfg=DEFAULT_CONFIG, audit=False, order="t_then_x"):
    with mpmath.workprec(cfg.precision_bits):
        nn = mpmath.mpf(n)
        inv_sqrt_pi = 1 / mpmath.sqrt(mpmath.pi)

        def t_integrand_at(x, t):
            return t_integrand(x, nn, t, inv_sqrt_pi)

        def t_of_s(s):
            return nn * nn / (4 * s)

        def jacobian(s):
            return nn * nn / (4 * s * s)

        s_split = nn * nn / (4 * mpmath.mpf(cfg.t_split))
        interval = [0, s_split, mpmath.inf]

        if order == "t_then_x":
            if audit:
                def outer(s):
                    t = t_of_s(s)
                    inner, _ = mpmath.quad(lambda x: t_integrand_at(x, t), [0, 1],
                                           error=True)
                    return inner * jacobian(s)
            else:
                def outer(s):
                    t = t_of_s(s)
                    return t_integrand_at(mpmath.mpf("0.5"), t) * jacobian(s)
            val, err = _quad_with_tolerance(outer, interval, cfg,
                                            f"eta_term(n={n})")
        else:
            def t_integral(x):
                f = lambda s: t_integrand_at(x, t_of_s(s)) * jacobian(s)
                v, _ = mpmath.quad(f, interval, error=True)
                return v
            val, err = _quad_with_tolerance(t_integral, [0, 1], cfg,
                                            f"eta_term(n={n}, x outer)")
        return complex(val)


def eta_partial_reference(family, max_terms, cfg=DEFAULT_CONFIG, audit=False):
    elements = []
    for n in family.iter_elements():
        if len(elements) >= max_terms:
            break
        elements.append(n)
    if audit:
        terms = [eta_term_reference(n, cfg, audit=True) for n in elements]
        errors = [abs(t - closed_form_term(n).to_complex())
                  for n, t in zip(elements, terms)]
    else:
        terms = [closed_form_term(n).to_complex() for n in elements]
        errors = [0.0] * len(elements)
    partial = []
    acc = 0j
    for count, term in enumerate(terms, start=1):
        acc += term
        partial.append((count, acc))
    count = len(elements)
    exact = None
    if not audit and count <= EXACT_TERMS_CAP:
        exact = CircleExact(sum((Fraction(1, n) for n in elements), Fraction(0)))
    if count == 0:
        exact = CircleExact(Fraction(0))
    return EtaReport(family, classify_convergence(family), tuple(partial),
                     tuple(errors), exact, count, not audit)
