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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

import mpmath
from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp import mpf_add

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


def _kernel_mp(x, y, t):
    d = x - y
    return (1j * d / (2 * t * mpmath.sqrt(4 * mpmath.pi * t))
            * mpmath.exp(-(d * d) / (4 * t)))


def _kernel_im_mp(d, t, four_pi):
    """Imaginary part of ``_kernel_mp(x, y, t)`` at d = x - y, operation for
    operation, with ``four_pi`` = 4 * pi at the working precision."""
    return d / (2 * t * mpmath.sqrt(four_pi * t)) * mpmath.exp(-(d * d) / (4 * t))


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
    """Tanh-sinh rule for an integrand that reads x only through ``key(x)``.

    A step sum of ``TanhSinh`` is sum_k w_k f(x_k).  This rule groups the
    nodes of a step by key, keeps one representative x and the exact weight
    sum W of each class (cached per interval, degree, precision and working
    precision), and sums W f(x) over the classes, so f runs once per class.
    ``fdot`` multiplies exactly and rounds once, in ``mpf_sum``, which adds
    exactly unless two terms lie more than 2 * prec bits apart in exponent.
    Every term of either sum has the exponent of a weight (a node's or a
    class sum) plus that of a value, so when the exponent span of the weights
    plus that of the nonzero values is at most 2 * prec, both sums round the
    same exact number once and agree bit for bit.  Otherwise, or if a value
    is not a finite mpf, the step sums over every node as ``TanhSinh`` does.

    The nodes are those of ``mp._tanh_sinh``, the rule ``quad`` uses by
    default, taken from its cache as ``quad`` would; ``guess_degree`` is
    computed once per precision.
    """

    def __init__(self, ctx, key):
        super().__init__(ctx)
        self._key = key
        self._interval = None
        self._classes = {}  # (a, b, degree, prec, working prec) -> classes
        self._degrees = {}  # prec -> guess_degree(prec)

    def guess_degree(self, prec):
        degree = self._degrees.get(prec)
        if degree is None:
            degree = self._degrees[prec] = super().guess_degree(prec)
        return degree

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
        return ([x for x, _ in classes.values()], [self.ctx.make_mpf(w) for w in sums],
                _exponent_span([w._mpf_ for _, w in nodes] + sums))

    def sum_next(self, f, nodes, degree, prec, previous, verbose=False):
        ctx = self.ctx
        key = (*self._interval, degree, prec, ctx.prec)
        classes = self._classes.get(key)
        if classes is None:
            classes = self._classes[key] = self._group(nodes)
        reps, weights, weight_span = classes
        values = [f(x) for x in reps]
        if all(type(value) is ctx.mpf for value in values):
            value_span = _exponent_span([value._mpf_ for value in values])
            if value_span is not None and weight_span + value_span <= 2 * ctx.prec:
                # TanhSinh's step sum over the classes: each (value, weight)
                # pair is a node, and the integrand is the identity
                return super().sum_next(lambda value: value, zip(values, weights),
                                        degree, prec, previous, verbose)
        return super().sum_next(f, nodes, degree, prec, previous, verbose)


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

    The kernel is i times a real function, so every integrand here returns
    the imaginary part of the complex integrand of ``_kernel_mp`` as a real
    mpf (``_kernel_im_mp``), operation for operation.  The real part would
    be 0 at every step; mpc-by-mpf arithmetic is componentwise at the same
    precision and rounding, and |0 + iy| is |y|, so the quadratures see the
    same numbers and the term is ``complex(0, value)``, bit for bit.  4 pi,
    n^2 and d at x = 1/2 are computed once per working precision.

    The integrand reads x only through the computed d = (x + n) - x, so
    where x varies (audit and ``x_then_t``) one call memoizes it on the raw
    mpf tuples of (d, t) and the working precision; d itself is computed
    once per x node and precision.  Equal keys are bitwise-equal inputs to
    the same floating-point operations, so a hit returns the very value a
    fresh evaluation would.  The audit's inner x-quadratures go further:
    their rule (``_GroupedTanhSinh``) groups the nodes of each step by d,
    once per degree and precision for the whole term, sums each class's
    weights exactly and calls the integrand once per class.  The step sum
    is then the one mpmath forms over every node, bit for bit, whenever the
    exponent spans of the weights and of the class values together fit in
    the 2 * prec bits that ``mpf_sum`` adds exactly; where they do not, the
    step sums over every node.  Likewise the inner s-quadrature of
    ``x_then_t`` is a pure function of the integrand values, hence of d at
    the precision the integrand runs at, and is memoized on that d.  The
    memos and the rule live and die with the call.  An audit term at
    n = 45 calls its inner integrand 606 times (10,614 with one call per
    node) and evaluates the kernel at 266 distinct (d, t, precision).
    On failure, ``QuadratureError.partial`` is the complex value 0 + i y.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if order not in ("t_then_x", "x_then_t"):
        raise ValueError("order must be 't_then_x' or 'x_then_t'")
    with mpmath.workprec(cfg.precision_bits):
        nn = mpmath.mpf(n)
        inv_sqrt_pi = 1 / mpmath.sqrt(mpmath.pi)
        invariants = {}  # precision -> (4 pi, n^2, d at x = 1/2)
        d_at = {}  # (x, precision) -> (x + n) - x
        values = {}  # (d, t, precision) -> integrand value

        def invariant(prec):
            inv = invariants.get(prec)
            if inv is None:
                half = mpmath.mpf("0.5")
                inv = invariants[prec] = (4 * mpmath.pi, nn * nn, (half + nn) - half)
            return inv

        def t_and_jacobian(s):
            n2 = invariant(mpmath.mp.prec)[1]
            four_s = 4 * s
            return n2 / four_s, n2 / (four_s * s)

        def t_integrand(d, t, four_pi):
            return inv_sqrt_pi * _kernel_im_mp(d, t, four_pi) / mpmath.sqrt(t)

        def d_of(x):
            key = (x._mpf_, mpmath.mp.prec)
            d = d_at.get(key)
            if d is None:
                d = d_at[key] = (x + nn) - x
            return d

        def t_integrand_memo(x, t):
            prec = mpmath.mp.prec
            d = d_of(x)
            key = (d._mpf_, t._mpf_, prec)
            value = values.get(key)
            if value is None:
                value = values[key] = t_integrand(d, t, invariant(prec)[0])
            return value

        # t in (0, t_split) maps to s above this breakpoint; splitting the
        # interval there keeps the two t-regimes in separate panels
        s_split = nn * nn / (4 * mpmath.mpf(cfg.t_split))
        interval = [0, s_split, mpmath.inf]

        if order == "t_then_x":
            if audit:
                rule = _GroupedTanhSinh(mpmath.mp, lambda x: d_of(x)._mpf_)

                def outer(s):
                    t, jacobian = t_and_jacobian(s)
                    inner, _ = mpmath.quad(lambda x: t_integrand_memo(x, t), [0, 1],
                                           error=True, method=lambda ctx: rule)
                    return inner * jacobian
            else:
                def outer(s):
                    four_pi, _, d_half = invariant(mpmath.mp.prec)
                    t, jacobian = t_and_jacobian(s)
                    return t_integrand(d_half, t, four_pi) * jacobian
            f, points, what = outer, interval, f"eta_term(n={n})"
        else:
            t_integrals = {}

            def t_integral(x):
                # mpmath.quad evaluates its integrand 20 bits above the
                # caller's precision; that is where t_integrand_memo computes d
                with mpmath.extraprec(20):
                    key = d_of(x)._mpf_
                if key not in t_integrals:
                    def inner(s):
                        t, jacobian = t_and_jacobian(s)
                        return t_integrand_memo(x, t) * jacobian
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
        elems = sorted(set(int(x) for x in elements))
        if any(x < 1 for x in elems):
            raise SubsetFamilyError("finite subset elements must be >= 1")
        return cls("finite", tuple(elems))

    @classmethod
    def arithmetic(cls, a: int, d: int) -> "SubsetFamily":
        if a < 1 or d < 1:
            raise SubsetFamilyError("arithmetic progression needs a >= 1, d >= 1")
        return cls("arithmetic", (int(a), int(d)))

    @classmethod
    def geometric(cls, base: int) -> "SubsetFamily":
        if base < 2:
            raise SubsetFamilyError("geometric index base must be >= 2")
        return cls("geometric", (int(base),))

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
                x = int(x)
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
        sums = [(m, {"re": v.real, "im": v.imag})
                for m, v in self.partial_sums
                if m % sample_every == 0 or m == self.terms_used]
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
