"""Heat-kernel eta terms on the line covering of the circle.

The operator is D = -i d/dx on R; its kernel D exp(-t D^2) is

    k_t(x, y) = i (x-y) / (2 t sqrt(4 pi t)) * exp(-(x-y)^2 / (4t)),

obtained by differentiating the Gaussian heat kernel (the decaying
exponential is forced; with a growing one no eta term would exist).  The
deck pairing is oriented so that the term of the translation by n > 0 is
+i/(pi n); summing 1/n over a subset of the naturals is then the whole
convergence story, and divergence verdicts are decided by symbolic family
rules, never by the size of floating partial sums.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

import mpmath
from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp import (mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_neg, mpf_pos,
                          mpf_shift, mpf_sqrt, mpf_sum)

from . import _ntheory


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    t_split: float = 1.0
    max_subdivisions: int = 4
    precision_bits: int = 80

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("abs_tol", "rel_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not self.t_split > 0:
            raise ValueError(f"t_split must be positive, got {self.t_split}")
        if not self.max_subdivisions >= 0:
            raise ValueError(f"max_subdivisions must be >= 0, got {self.max_subdivisions}")
        if not self.precision_bits >= 1:
            raise ValueError(f"precision_bits must be >= 1, got {self.precision_bits}")


DEFAULT_CONFIG = QuadratureConfig()
EXACT_TERMS_CAP = 512  # eta_partial sums 1/n exactly up to this many terms
# the factors of CircleExact.to_complex() for pi_power = -1, i_power = 1
_INV_PI = math.pi ** -1
_UNIT_I = 1j ** 1


class QuadratureError(RuntimeError):
    """Quadrature failed to meet tolerances; carries the partial value."""

    def __init__(self, message: str, partial, error_estimate):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


def kernel_value(x: float, y: float, t: float) -> complex:
    """Integral kernel of D exp(-t D^2) on the line at (x, y)."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    d = x - y
    arg = -(d * d) / (4.0 * t)
    if arg < -745.0:  # exp underflows float64
        return 0j
    return 1j * d / (2.0 * t * math.sqrt(4.0 * math.pi * t)) * math.exp(arg)


def _t_integrand_raw(d, neg_d2, t, four_pi, inv_sqrt_pi, prec, rnd):
    """The t-integrand of an eta term on raw mpf tuples, rounded at ``prec``.

    This is inv_sqrt_pi * Im k_t / sqrt(t), with Im k_t = d / (2 t sqrt(4 pi
    t)) * exp(-(d d) / (4 t)) the imaginary part of the line kernel at
    d = x - y.  ``neg_d2`` = -(d d) and ``four_pi`` = 4 pi are rounded at
    ``prec``.  The operations and their order are those of the ``mpf``
    expression, so the result has its bits: 2 t and 4 t are exponent shifts,
    exact because t has at most ``prec`` bits, and the rest round at
    ``prec`` as the ``mpf`` operators and ``mpmath.sqrt``/``exp`` do.
    """
    root = mpf_sqrt(mpf_mul(four_pi, t, prec, rnd), prec, rnd)
    kernel = mpf_mul(mpf_div(d, mpf_mul(mpf_shift(t, 1), root, prec, rnd), prec, rnd),
                     mpf_exp(mpf_div(neg_d2, mpf_shift(t, 2), prec, rnd), prec, rnd),
                     prec, rnd)
    return mpf_div(mpf_mul(inv_sqrt_pi, kernel, prec, rnd), mpf_sqrt(t, prec, rnd),
                   prec, rnd)


def _quad_with_tolerance(f, interval, cfg: QuadratureConfig, what: str):
    """mpmath adaptive quadrature, retried at increasing depth until tolerances hold."""
    last_val, last_err = None, None
    for extra in range(cfg.max_subdivisions + 1):
        val, err = mpmath.quad(f, interval, error=True, maxdegree=6 + extra)
        last_val, last_err = val, err
        bound = max(cfg.abs_tol, cfg.rel_tol * abs(val))
        if err <= bound:
            return val, float(err)
    raise QuadratureError(
        f"{what}: error estimate {mpmath.nstr(last_err, 5)} above tolerance "
        f"after {cfg.max_subdivisions} retries", last_val, last_err)


class _GroupedTanhSinh(TanhSinh):
    """Tanh-sinh rule on one interval for a raw integrand that reads x only
    through ``key(x)``.

    The integrand ``f(x)`` returns a raw mpf tuple.  A step sum of
    ``TanhSinh`` is sum_k w_k f(x_k).  This rule groups the nodes of a step
    by key, keeps one representative x and the exact weight sum W of each
    class (cached per interval, degree, precision and working precision),
    and sums W f(x) over the classes, so f runs once per class.  ``fdot``
    multiplies exactly and rounds once, in ``mpf_sum``, which adds exactly
    unless two terms lie more than 2 * prec bits apart in exponent.  Every
    term of either sum has the exponent of a weight (a node's or a class
    sum) plus that of a value, so when the exponent span of the weights plus
    that of the nonzero values is at most 2 * prec, both sums round the same
    exact number once and agree bit for bit.  The grouped sum is then formed
    on raw tuples as ``TanhSinh.sum_next`` forms it: the previous step times
    2^(degree - 1), an exact shift, plus the ``mpf_sum``, in one ``mpf_add``,
    times 2^-degree.  Otherwise, or if a value is inf or nan, the step sums
    over every node as ``TanhSinh`` does.

    The nodes are those of ``mp._tanh_sinh``, the rule ``quad`` uses by
    default, taken from its cache as ``quad`` would.  ``quad(f)`` is
    ``mpmath.quad(f, [0, 1], method=...)`` with this rule, done without
    ``quad``'s per-call set-up; ``summation`` takes a single interval.
    """

    def __init__(self, ctx, key):
        super().__init__(ctx)
        self._key = key
        self._interval = None
        self._classes = {}  # (a, b, degree, prec, working prec) -> classes
        self._setups = {}  # prec -> (epsilon, max degree) of quad

    def quad(self, f):
        """The raw value of ``mpmath.quad(f, [0, 1], method=lambda ctx: self)``:
        epsilon = eps/8 and ``guess_degree`` at the caller's precision (cached
        per precision), ``summation`` 20 bits up, and ``+v`` back at the
        caller's precision."""
        ctx = self.ctx
        prec, rnd = ctx._prec_rounding
        setup = self._setups.get(prec)
        if setup is None:
            setup = self._setups[prec] = (ctx.eps / 8, self.guess_degree(prec))
        ctx.prec = prec + 20
        try:
            v, _ = self.summation(f, (0, 1), prec, *setup)
        finally:
            ctx.prec = prec
        return mpf_pos(v._mpf_, prec, rnd)

    def summation(self, f, points, prec, epsilon, max_degree, verbose=False):
        # QuadratureRule.summation for one interval, whose total 0 + I is I
        a, b = points
        results, err = [], self.ctx.zero
        for degree in range(1, max_degree + 1):
            nodes = self.get_nodes(a, b, degree, prec, verbose)
            results.append(self.sum_next(f, nodes, degree, prec, results, verbose))
            if degree > 1:
                err = self.estimate_error(results, prec, epsilon)
                if err <= epsilon:
                    break
        return results[-1], err

    def get_nodes(self, a, b, degree, prec, verbose=False):
        self._interval = (a, b)  # summation passes these nodes to sum_next
        return self.ctx._tanh_sinh.get_nodes(a, b, degree, prec, verbose)

    def _group(self, nodes):
        classes = {}  # key -> [representative x, raw exact weight sum]
        for x, w in nodes:
            key = self._key(x)
            cls = classes.get(key)
            if cls is None:
                classes[key] = [x, w._mpf_]
            else:
                cls[1] = mpf_add(cls[1], w._mpf_, 0)
        sums = [w for _, w in classes.values()]
        return ([x for x, _ in classes.values()], sums,
                _exponent_span([w._mpf_ for _, w in nodes] + sums))

    def sum_next(self, f, nodes, degree, prec, previous, verbose=False):
        ctx = self.ctx
        wp, rnd = ctx._prec_rounding
        key = (*self._interval, degree, prec, wp)
        classes = self._classes.get(key)
        if classes is None:
            classes = self._classes[key] = self._group(nodes)
        reps, weights, weight_span = classes
        values = [f(x) for x in reps]
        value_span = _exponent_span(values)
        if value_span is not None and weight_span + value_span <= 2 * wp:
            # TanhSinh: h (previous / (2 h) + fdot), h = 2^-degree
            total = mpf_sum([mpf_mul(w, v) for w, v in zip(weights, values)], wp, rnd)
            if previous:
                total = mpf_add(mpf_shift(previous[-1]._mpf_, degree - 1), total, wp, rnd)
            return ctx.make_mpf(mpf_shift(total, -degree))
        return super().sum_next(lambda x: ctx.make_mpf(f(x)), nodes, degree, prec,
                                previous, verbose)


def _exponent_span(raw):
    """Largest minus smallest exponent of the nonzero raw mpfs in ``raw``
    (0 if there are none), or None if one of them is inf or nan."""
    exps = []
    for _, man, exp, _ in raw:
        if man:
            exps.append(exp)
        elif exp:  # inf or nan
            return None
    return max(exps) - min(exps) if exps else 0


def eta_term(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG, audit: bool = False,
             order: str = "t_then_x") -> complex:
    """Numerical value of the single deck-translation term; approx i/(pi n).

    The t-integral is computed after the substitution s = n^2/(4t), which
    turns the delicate t->0 endpoint into plain exponential decay.  The unit
    x-integral has a constant integrand; by default it is evaluated by a
    midpoint rule (exact here), in audit mode by full quadrature, and
    ``order`` picks which integral is the outer one (Fubini check).

    The kernel is i times a real function, so every integrand here computes
    the imaginary part of the complex integrand ``inv_sqrt_pi * k_t(x + n,
    x) / sqrt(t) * dt/ds`` as a real value, operation for operation.  The
    real part would be 0 at every step; mpc-by-mpf arithmetic is
    componentwise at the same precision and rounding, and |0 + iy| is |y|,
    so the quadratures see the same numbers and the term is
    ``complex(0, value)``, bit for bit.  The integrands run on raw mpf
    tuples at the working precision (``mpmath.libmp``): one raw kernel,
    ``_t_integrand_raw``, looked up when ``eta_term`` is called, computes
    the t-integrand from d, -(d d), t, 4 pi and 1/sqrt(pi); t = n^2/(4 s)
    and dt/ds = n^2/(4 s s) are formed the same way, 4 s as an exact shift.
    4 pi, n^2, d at x = 1/2 and its -(d d) are computed once per working
    precision, and an outer integrand wraps its raw value in an ``mpf``
    only for mpmath's outer quadrature.

    The integrand reads x only through the computed d = (x + n) - x, so
    where x varies (audit and ``x_then_t``) one call memoizes it on the raw
    tuples of (d, t) and the working precision; d and -(d d) are computed
    once per x node and precision, at the integrand's own precision.  Equal
    keys are bitwise-equal inputs to the same floating-point operations, so
    a hit returns the very value a fresh evaluation would.  The audit's
    inner x-quadratures go further: their rule (``_GroupedTanhSinh``)
    groups the nodes of each step by d, once per degree and precision for
    the whole term, sums each class's weights exactly and calls the
    integrand once per class.  The step sum is then the one mpmath forms
    over every node, bit for bit, whenever the exponent spans of the
    weights and of the class values together fit in the 2 * prec bits that
    ``mpf_sum`` adds exactly; where they do not, the step sums over every
    node.  The audit calls that rule directly (``_GroupedTanhSinh.quad``),
    as ``mpmath.quad`` would: 20 guard bits, eps/8 and ``guess_degree``
    cached per precision, and the final ``+v``.  Likewise the inner
    s-quadrature of ``x_then_t`` is a pure function of the integrand
    values, hence of d at the precision the integrand runs at, and is
    memoized on that d.  The memos and the rule live and die with the
    call.  An audit term at n = 45 calls its inner integrand 606 times
    (10,614 with one call per node) and evaluates the kernel at 266
    distinct (d, t, precision).  On failure, ``QuadratureError.partial`` is
    the complex value 0 + i y.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if order not in ("t_then_x", "x_then_t"):
        raise ValueError("order must be 't_then_x' or 'x_then_t'")
    kernel = _t_integrand_raw
    with mpmath.workprec(cfg.precision_bits):
        ctx = mpmath.mp
        nn = mpmath.mpf(n)
        inv_sqrt_pi = (1 / mpmath.sqrt(mpmath.pi))._mpf_
        invariants = {}  # precision -> (4 pi, n^2, d at x = 1/2, its -(d d))
        d_at = {}  # (x, precision) -> (d, -(d d)), d = (x + n) - x
        values = {}  # (d, t, precision) -> integrand value

        def invariant(prec, rnd):
            inv = invariants.get(prec)
            if inv is None:
                half = mpmath.mpf("0.5")
                d_half = ((half + nn) - half)._mpf_
                inv = invariants[prec] = ((4 * mpmath.pi)._mpf_, (nn * nn)._mpf_, d_half,
                                          mpf_neg(mpf_mul(d_half, d_half, prec, rnd)))
            return inv

        def t_and_jacobian(s, prec, rnd):
            n2, s = invariant(prec, rnd)[1], s._mpf_
            four_s = mpf_shift(s, 2)  # s is a node rounded at prec
            return (mpf_div(n2, four_s, prec, rnd),
                    mpf_div(n2, mpf_mul(four_s, s, prec, rnd), prec, rnd))

        def d_of(x):
            prec, rnd = ctx._prec_rounding
            key = (x._mpf_, prec)
            dd = d_at.get(key)
            if dd is None:
                d = ((x + nn) - x)._mpf_
                dd = d_at[key] = (d, mpf_neg(mpf_mul(d, d, prec, rnd)))
            return dd

        def integrand_at(x, t):
            prec, rnd = ctx._prec_rounding
            d, neg_d2 = d_of(x)
            key = (d, t, prec)
            value = values.get(key)
            if value is None:
                value = values[key] = kernel(d, neg_d2, t, invariant(prec, rnd)[0],
                                             inv_sqrt_pi, prec, rnd)
            return value

        # t in (0, t_split) maps to s above this breakpoint; splitting the
        # interval there keeps the two t-regimes in separate panels
        s_split = nn * nn / (4 * mpmath.mpf(cfg.t_split))
        interval = [0, s_split, mpmath.inf]

        if order == "t_then_x":
            if audit:
                rule = _GroupedTanhSinh(ctx, lambda x: d_of(x)[0])

                def outer(s):
                    prec, rnd = ctx._prec_rounding
                    t, jacobian = t_and_jacobian(s, prec, rnd)
                    inner = rule.quad(lambda x: integrand_at(x, t))
                    return ctx.make_mpf(mpf_mul(inner, jacobian, prec, rnd))
            else:
                def outer(s):
                    prec, rnd = ctx._prec_rounding
                    four_pi, _, d_half, neg_d2_half = invariant(prec, rnd)
                    t, jacobian = t_and_jacobian(s, prec, rnd)
                    value = kernel(d_half, neg_d2_half, t, four_pi, inv_sqrt_pi, prec, rnd)
                    return ctx.make_mpf(mpf_mul(value, jacobian, prec, rnd))
            f, points, what = outer, interval, f"eta_term(n={n})"
        else:
            t_integrals = {}

            def t_integral(x):
                # mpmath.quad evaluates its integrand 20 bits above the
                # caller's precision; that is where integrand_at computes d
                with mpmath.extraprec(20):
                    key = d_of(x)[0]
                if key not in t_integrals:
                    def inner(s):
                        prec, rnd = ctx._prec_rounding
                        t, jacobian = t_and_jacobian(s, prec, rnd)
                        return ctx.make_mpf(mpf_mul(integrand_at(x, t), jacobian, prec, rnd))
                    t_integrals[key], _ = mpmath.quad(inner, interval, error=True)
                return t_integrals[key]
            f, points, what = t_integral, [0, 1], f"eta_term(n={n}, x outer)"
        try:
            val, _ = _quad_with_tolerance(f, points, cfg, what)
        except QuadratureError as exc:
            exc.partial = mpmath.mpc(0, exc.partial)  # the complex integrand's partial
            raise
        return complex(0, val)


@dataclass(frozen=True)
class CircleExact:
    """Exact circle value coeff * pi^pi_power * i^i_power."""

    coeff: Fraction
    pi_power: int = -1
    i_power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def to_complex(self) -> complex:
        return (complex(self.coeff) * math.pi ** self.pi_power
                * (1j ** (self.i_power % 4)))

    def scale(self, c) -> "CircleExact":
        return CircleExact(self.coeff * Fraction(c), self.pi_power, self.i_power)

    def __add__(self, other: "CircleExact") -> "CircleExact":
        if (self.pi_power, self.i_power) != (other.pi_power, other.i_power):
            raise ValueError("cannot add circle values with different symbolic parts")
        return CircleExact(self.coeff + other.coeff, self.pi_power, self.i_power)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def to_json(self) -> dict:
        return {"rational_coeff": str(self.coeff),
                "pi_power": self.pi_power, "i_power": self.i_power}

    def __str__(self):
        pi_part = {1: "*pi", 0: "", -1: "/pi"}.get(self.pi_power, f"*pi^{self.pi_power}")
        i_part = {0: "", 1: "*I", 2: "*(-1)", 3: "*(-I)"}[self.i_power % 4]
        return f"{self.coeff}{i_part}{pi_part}"


def closed_form_term(n: int) -> CircleExact:
    """The analytically integrated term: i/(pi n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CircleExact(Fraction(1, n))


class SubsetFamilyError(ValueError):
    pass


def _integer(value, what: str) -> int:
    """``value`` as an int if it is one (``operator.index``), never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise SubsetFamilyError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SubsetFamily:
    """A subset of the positive naturals with a symbolic description.

    ``variant`` is one of finite / arithmetic / geometric / primes / custom.
    Iteration always yields validated, strictly increasing integers >= 1.
    """

    variant: str
    params: tuple = ()
    generator: Optional[Callable[[], Iterator[int]]] = None
    certificate: Optional[str] = None
    certificate_kind: Optional[str] = None  # convergent | divergent | None
    exact_limit: Optional[CircleExact] = None

    @classmethod
    def finite(cls, elements: Iterable[int]) -> "SubsetFamily":
        elems = sorted(set(_integer(x, "finite subset element") for x in elements))
        if any(x < 1 for x in elems):
            raise SubsetFamilyError("finite subset elements must be >= 1")
        return cls("finite", tuple(elems))

    @classmethod
    def arithmetic(cls, a: int, d: int) -> "SubsetFamily":
        a, d = _integer(a, "arithmetic start"), _integer(d, "arithmetic step")
        if a < 1 or d < 1:
            raise SubsetFamilyError("arithmetic progression needs a >= 1, d >= 1")
        return cls("arithmetic", (a, d))

    @classmethod
    def geometric(cls, base: int) -> "SubsetFamily":
        base = _integer(base, "geometric index base")
        if base < 2:
            raise SubsetFamilyError("geometric index base must be >= 2")
        return cls("geometric", (base,))

    @classmethod
    def primes(cls) -> "SubsetFamily":
        return cls("primes")

    @classmethod
    def custom(cls, generator: Callable[[], Iterator[int]],
               certificate: Optional[str] = None,
               certificate_kind: Optional[str] = None,
               exact_limit: Optional[CircleExact] = None) -> "SubsetFamily":
        if certificate_kind not in (None, "convergent", "divergent"):
            raise SubsetFamilyError("certificate_kind must be convergent/divergent/None")
        if (certificate is None) != (certificate_kind is None):
            raise SubsetFamilyError("certificate text and kind go together")
        return cls("custom", (), generator, certificate, certificate_kind, exact_limit)

    def is_finite(self) -> bool:
        return self.variant == "finite"

    def iter_elements(self) -> Iterator[int]:
        if self.variant == "finite":
            yield from self.params
            return
        if self.variant == "arithmetic":
            a, d = self.params
            k = a
            while True:
                yield k
                k += d
        elif self.variant == "geometric":
            base = self.params[0]
            k = 1
            while True:
                yield k
                k *= base
        elif self.variant == "primes":
            yield from _ntheory.primes()
        else:
            prev = 0
            for x in self.generator():
                x = _integer(x, "custom generator element")
                if x < 1 or x <= prev:
                    raise SubsetFamilyError(
                        f"custom generator must yield strictly increasing integers >= 1, got {x}")
                prev = x
                yield x

    def describe(self) -> str:
        if self.variant == "finite":
            return "finite:{" + ",".join(str(x) for x in self.params) + "}"
        if self.variant == "arithmetic":
            return f"ap:{self.params[0]},{self.params[1]}"
        if self.variant == "geometric":
            return f"geo:{self.params[0]}"
        return self.variant


@dataclass(frozen=True)
class Verdict:
    kind: str  # convergent | divergent | unknown
    exact: Optional[CircleExact] = None
    certificate: Optional[str] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.exact is not None:
            out["exact"] = self.exact.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def classify_convergence(family: SubsetFamily) -> Verdict:
    """Symbolic verdict for sum over X of i/(pi n)."""
    if family.variant == "finite":
        total = sum((Fraction(1, x) for x in family.params), Fraction(0))
        return Verdict("convergent", CircleExact(total),
                       "finite sum, evaluated in closed form")
    if family.variant == "arithmetic":
        a, d = family.params
        return Verdict("divergent", None,
                       f"harmonic comparison: sum 1/(a+kd) >= (1/{d}) * tail of the "
                       f"harmonic series (a={a}, d={d})")
    if family.variant == "geometric":
        base = family.params[0]
        return Verdict("convergent", CircleExact(Fraction(base, base - 1)),
                       f"ratio test (ratio 1/{base}); geometric series summed exactly")
    if family.variant == "primes":
        return Verdict("divergent", None,
                       "Euler/Mertens: the sum of reciprocals of the primes diverges")
    if family.certificate_kind == "convergent":
        return Verdict("convergent", family.exact_limit, family.certificate)
    if family.certificate_kind == "divergent":
        return Verdict("divergent", None, family.certificate)
    return Verdict("unknown", None,
                   "no certificate attached; partial sums reported only")


@dataclass(frozen=True)
class EtaReport:
    family: SubsetFamily
    verdict: Verdict
    partial_sums: tuple  # of (terms_used, complex value)
    per_term_errors: tuple
    exact: Optional[CircleExact]
    terms_used: int
    fast_path: bool

    def final_value(self) -> complex:
        return self.partial_sums[-1][1] if self.partial_sums else 0j

    def to_json(self, sample_every: int = 1) -> dict:
        """The report as JSON data, with every ``sample_every``-th partial sum
        and the last one."""
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        # partial_sums[k] is the sum of the first k + 1 terms
        picked = self.partial_sums[sample_every - 1::sample_every]
        if len(self.partial_sums) % sample_every:
            picked += self.partial_sums[-1:]
        sums = [(m, {"re": v.real, "im": v.imag}) for m, v in picked]
        out = {
            "family": self.family.describe(),
            "verdict": self.verdict.to_json(),
            "terms_used": self.terms_used,
            "fast_path": self.fast_path,
            "partial_sums": sums,
            "per_term_errors": list(self.per_term_errors),
        }
        if self.exact is not None:
            out["exact"] = self.exact.to_json()
        return out


def eta_partial(family: SubsetFamily, max_terms: int,
                cfg: QuadratureConfig = DEFAULT_CONFIG, audit: bool = False) -> EtaReport:
    """Partial sums of eta terms over the first max_terms elements of X.

    Finite families may exhaust before max_terms (not an error).  The fast
    path uses the closed form i/(pi n) per term, bit for bit the value of
    ``closed_form_term(n).to_complex()``, and accumulates an exact
    coefficient up to ``EXACT_TERMS_CAP`` terms; audit mode runs full
    quadrature per term and reports the per-term error estimates.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    head, partial, errors = [], [], []  # head: the elements an exact sum may need
    acc = 0j
    count = 0
    for count, n in enumerate(itertools.islice(family.iter_elements(), max_terms), 1):
        if audit:
            term = eta_term(n, cfg, audit=True)
            errors.append(abs(term - closed_form_term(n).to_complex()))
        else:
            term = complex(1 / n) * _INV_PI * _UNIT_I
        acc += term
        partial.append((count, acc))
        if count <= EXACT_TERMS_CAP:
            head.append(n)
    exact = None
    if not audit and count <= EXACT_TERMS_CAP:
        exact = CircleExact(sum((Fraction(1, n) for n in head), Fraction(0)))
    if count == 0:
        exact = CircleExact(Fraction(0))
    return EtaReport(family, classify_convergence(family), tuple(partial),
                     tuple(errors) if audit else (0.0,) * count, exact, count, not audit)


def product_with_ahat(value, ahat):
    """Scale an eta value/verdict/report by the A-hat multiplier of a 4k-factor."""
    ahat = Fraction(ahat)
    if isinstance(value, EtaReport):
        scaled_sums = tuple((m, v * complex(ahat)) for m, v in value.partial_sums)
        return EtaReport(value.family, product_with_ahat(value.verdict, ahat),
                         scaled_sums, value.per_term_errors,
                         value.exact.scale(ahat) if value.exact is not None else None,
                         value.terms_used, value.fast_path)
    if isinstance(value, Verdict):
        if ahat == 0:
            return Verdict("convergent", CircleExact(Fraction(0)),
                           "zero A-hat multiplier kills every term")
        return Verdict(value.kind,
                       value.exact.scale(ahat) if value.exact is not None else None,
                       value.certificate)
    if isinstance(value, CircleExact):
        return value.scale(ahat)
    return complex(value) * complex(ahat)
