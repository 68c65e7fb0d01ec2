import hashlib
import inspect
import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp
from mpmath.calculus.quadrature import TanhSinh

import circle_oracle
from circle_oracle import eta_partial_reference, eta_term_reference
from etarho import circle
from etarho.circle import (EXACT_TERMS_CAP, CircleExact, QuadratureConfig,
                           QuadratureError, SubsetFamily, SubsetFamilyError,
                           classify_convergence, closed_form_term, eta_partial,
                           eta_term, kernel_value, product_with_ahat)
from etarho.cli import main

# frozen via symbolic differentiation of the Gaussian heat kernel:
# kernel(x - y = 1, t = 1/4) = 2 exp(-1) / sqrt(pi) * i
KERNEL_1_QUARTER = 0.415107497420594703340268249441j


class TestKernel:
    def test_diagonal_vanishes(self):
        assert kernel_value(0.7, 0.7, 0.3) == 0

    def test_antisymmetry(self):
        assert kernel_value(1.5, 0.5, 0.25) == -kernel_value(0.5, 1.5, 0.25)

    def test_frozen_oracle_value(self):
        assert abs(kernel_value(1.5, 0.5, 0.25) - KERNEL_1_QUARTER) < 1e-15

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            kernel_value(0.0, 1.0, 0.0)

    def test_underflow_guard(self):
        assert kernel_value(0.0, 1e6, 1e-6) == 0


class TestEtaTerm:
    def test_against_closed_form(self):
        for n in (1, 2, 7, 32):
            target = 1.0 / (math.pi * n)
            value = eta_term(n)
            assert abs(value - 1j * target) / target < 1e-9
            assert abs(value.real) < 1e-12

    def test_audit_mode_and_fubini(self):
        cfg = QuadratureConfig()
        a = eta_term(4, cfg, audit=True, order="t_then_x")
        b = eta_term(4, cfg, audit=True, order="x_then_t")
        assert abs(a - b) < cfg.abs_tol
        assert abs(a - 1j / (4 * math.pi)) < 1e-10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            eta_term(0)
        with pytest.raises(ValueError):
            eta_term(1, order="sideways")

    def test_quadrature_failure_carries_partial(self):
        # 53-bit working precision cannot certify 1e-30, and retries are off
        cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30,
                               max_subdivisions=0, precision_bits=53)
        with pytest.raises(QuadratureError) as info:
            eta_term(1, cfg)
        partial = complex(info.value.partial)
        assert abs(partial - 1j / math.pi) < 1e-6


class TestQuadratureConfig:
    @pytest.mark.parametrize("field, value", [
        ("abs_tol", math.nan), ("abs_tol", math.inf), ("abs_tol", 0.0),
        ("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", -1e-9),
        ("t_split", math.nan), ("t_split", 0.0),
        ("max_subdivisions", -1), ("precision_bits", 0)])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            QuadratureConfig(**{field: value})

    def test_smallest_accepted_values(self):
        cfg = QuadratureConfig(abs_tol=5e-324, max_subdivisions=0, precision_bits=1)
        assert (cfg.abs_tol, cfg.max_subdivisions, cfg.precision_bits) == (5e-324, 0, 1)


def patch_kernels_sensitive_to_d(monkeypatch):
    """Scale the raw t-integrand of eta_term and the complex one of the
    reference by the same factor 1 + 2^56 (d - 64), at the working precision;
    mpc-by-mpf products are componentwise, so both sides round alike."""
    factor = lambda d: 1 + mpmath.ldexp(d - 64, 56)
    raw, reference = circle._t_integrand_raw, circle_oracle.t_integrand

    def raw_scaled(d, neg_d2, t, four_pi, inv_sqrt_pi, prec, rnd):
        value = raw(d, neg_d2, t, four_pi, inv_sqrt_pi, prec, rnd)
        return libmp.mpf_mul(value, factor(mpmath.mp.make_mpf(d))._mpf_, prec, rnd)

    monkeypatch.setattr(circle, "_t_integrand_raw", raw_scaled)
    monkeypatch.setattr(circle_oracle, "t_integrand", lambda x, nn, t, inv_sqrt_pi:
                        reference(x, nn, t, inv_sqrt_pi) * factor((x + nn) - x))


def spy_on_kernel(monkeypatch, record):
    """Patch the raw kernel so that each call passes its arguments to
    ``record`` first."""
    kernel = circle._t_integrand_raw

    def spy(*args):
        record(*args)
        return kernel(*args)

    monkeypatch.setattr(circle, "_t_integrand_raw", spy)


class TestEtaTermMemos:
    """The audit and Fubini quadratures evaluate each distinct argument once
    and still return the bytes of the unmemoized code."""

    # repr of the unmemoized terms, and the number of distinct (d, t,
    # precision) at which they evaluated the kernel (mpmath 1.3)
    PINNED = [(4, {"audit": True}, "0.07957747154594767j", 712),
              (45, {"audit": True}, "0.007073553026306459j", 266),
              (4, {"order": "x_then_t"}, "0.07957747154594767j", 624),
              (45, {"order": "x_then_t"}, "0.007073553026306459j", 280)]

    @pytest.mark.parametrize("n, kwargs, value, distinct", PINNED)
    def test_kernel_once_per_distinct_argument(self, n, kwargs, value, distinct,
                                               monkeypatch):
        calls = []
        spy_on_kernel(monkeypatch, lambda d, neg_d2, t, four_pi, inv_sqrt_pi, prec, rnd:
                      calls.append((d, t, prec)))
        assert repr(eta_term(n, **kwargs)) == value
        assert len(calls) == len(set(calls)) == distinct  # 10,614 calls unmemoized

    @pytest.mark.parametrize("n", [4, 45])
    def test_fubini_runs_two_quadratures(self, n, monkeypatch):
        # every outer x node has d = n at the inner quadrature's precision
        # (at n = 4, not at the outer one), so one inner quadrature serves all
        quad, calls = mpmath.quad, []
        monkeypatch.setattr(mpmath, "quad", lambda *a, **k: calls.append(1) or quad(*a, **k))
        eta_term(n, order="x_then_t")
        assert len(calls) == 2  # 60 unmemoized

    def test_quad_evaluates_twenty_bits_up(self):
        # x_then_t keys its inner quadratures on d computed 20 bits above the
        # outer integrand's precision, where the inner integrand computes it
        seen = set()
        with mpmath.workprec(100):
            mpmath.quad(lambda x: seen.add(mpmath.mp.prec) or x, [0, 1])
        assert seen == {120}

    def test_audit_report_matches_reference(self):
        family = SubsetFamily.finite([45, 64])
        report = eta_partial(family, 2, audit=True)
        expected = eta_partial_reference(family, 2, audit=True)
        assert report == expected
        assert repr(report.partial_sums) == repr(expected.partial_sums)
        assert repr(report.per_term_errors) == repr(expected.per_term_errors)

    def test_memo_exact_under_a_kernel_sensitive_to_d(self, monkeypatch):
        # at n = 64 the audit's computed d is 64 at some x nodes and one ulp
        # below at others; a kernel that magnifies that ulp to a quarter makes
        # a memo keyed on less than (d, t) show in the result.  At 24 working
        # bits (64 inside the inner quadrature) the reference takes about 1 s
        cfg = QuadratureConfig(abs_tol=1.0, rel_tol=1.0, precision_bits=24)
        plain = eta_term(64, cfg, audit=True)
        patch_kernels_sensitive_to_d(monkeypatch)
        expected = eta_term_reference(64, cfg, audit=True)
        assert repr(eta_term(64, cfg, audit=True)) == repr(expected) != repr(plain)


# tolerances every quadrature meets, as in the kernel-sensitive memo test
LOOSE = {"abs_tol": 1.0, "rel_tol": 1.0}
AUDIT, FUBINI = {"audit": True}, {"order": "x_then_t"}
FAST_N = (1, 2, 3, 4, 5, 7, 8, 13, 16, 21, 32, 34, 45, 64, 100, 1000)


class TestEtaTermOracleSweep:
    """eta_term against the complex-kernel reference, by repr, at low working
    precision and at the default 80 bits on the benchmark's inputs.  At 80
    bits a rounding at the wrong internal precision (4 pi at the caller's
    precision, d outside the inner quadrature) vanishes in the returned
    double; at 24 to 53 bits it shows in some of these terms."""

    SWEEP = [pytest.param(bits, kwargs, ns, id=f"{bits}-{mode}")
             for mode, kwargs, cases in [
                 ("fast", {}, [(24, FAST_N), (30, FAST_N), (53, FAST_N),
                               (80, (1, 2, 3, 5, 8, 13, 21, 34))]),
                 ("audit", AUDIT, [(24, (3, 13, 21, 45, 64)), (30, (3, 13, 21, 45, 64)),
                                   (53, (13, 45)), (80, (41, 56))]),
                 ("fubini", FUBINI, [(24, (13, 45)), (30, (13, 45)), (53, (13,)),
                                     (80, (32,))])]
             for bits, ns in cases]

    @pytest.mark.parametrize("bits, kwargs, ns", SWEEP)
    def test_terms_match_reference(self, bits, kwargs, ns):
        cfg = QuadratureConfig(precision_bits=bits, **LOOSE)
        got = [repr(eta_term(n, cfg, **kwargs)) for n in ns]
        assert got == [repr(eta_term_reference(n, cfg, **kwargs)) for n in ns]

    @pytest.mark.parametrize("bits, kwargs", [(24, {}), (24, AUDIT), (24, FUBINI),
                                              (30, {}), (53, {})],
                             ids=["24-fast", "24-audit", "24-fubini", "30-fast", "53-fast"])
    def test_quadrature_error_matches_reference(self, bits, kwargs):
        # the partial is the complex value of the complex integrand
        cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=0,
                               precision_bits=bits)
        failures = []
        for term in (eta_term, eta_term_reference):
            with pytest.raises(QuadratureError) as info:
                term(21, cfg, **kwargs)
            failures.append(info.value)
        got, expected = failures
        assert isinstance(got.partial, mpmath.mpc)
        assert repr(got.partial) == repr(expected.partial)
        assert repr(got.error_estimate) == repr(expected.error_estimate)
        assert str(got) == str(expected)

    @pytest.mark.parametrize("kwargs", [{}, AUDIT, FUBINI], ids=["fast", "audit", "fubini"])
    def test_kernel_gets_four_pi_at_its_working_precision(self, kwargs, monkeypatch):
        wrong = []

        def check(d, neg_d2, t, four_pi, inv_sqrt_pi, prec, rnd):
            if prec != mpmath.mp.prec or four_pi != (4 * mpmath.pi)._mpf_:
                wrong.append(prec)

        spy_on_kernel(monkeypatch, check)
        eta_term(13, QuadratureConfig(precision_bits=24, **LOOSE), **kwargs)
        assert wrong == []

    def test_kernel_gets_minus_d_squared_at_its_working_precision(self, monkeypatch):
        # at n = 64 the audit's inner quadratures compute d one ulp below 64
        # at some nodes, where -(d d) rounded at another precision has other
        # bits (at d = 64 it is exact at every precision)
        ds, wrong = set(), []

        def check(d, neg_d2, t, four_pi, inv_sqrt_pi, prec, rnd):
            ds.add(d)
            if neg_d2 != libmp.mpf_neg(libmp.mpf_mul(d, d, prec, rnd)):
                wrong.append(prec)

        spy_on_kernel(monkeypatch, check)
        eta_term(64, QuadratureConfig(precision_bits=24, **LOOSE), **AUDIT)
        assert wrong == []
        assert len(ds) == 2

    def test_fubini_memo_exact_under_a_kernel_sensitive_to_d(self, monkeypatch):
        # the inner s-quadratures compute d = 64 at every outer x node; at
        # the outer quadrature's precision (44 bits) d is one ulp below 64 at
        # some nodes, which this kernel would magnify
        cfg = QuadratureConfig(precision_bits=24, **LOOSE)
        patch_kernels_sensitive_to_d(monkeypatch)
        expected = eta_term_reference(64, cfg, **FUBINI)
        assert repr(eta_term(64, cfg, **FUBINI)) == repr(expected)


def step_key(x):
    return int(mpmath.floor(7 * x))  # 7 classes on [0, 1), 8 with nodes that round to 1


def step_value(key):
    # a function of the key alone, computed at the working precision
    return mpmath.mpf(2 * key - 5) / 3


def as_mpf(raw_f):
    return lambda x: mpmath.mp.make_mpf(raw_f(x))


def step_sums(rule, f, bits, degrees=6):
    """The step sums of ``rule`` on [0, 1] at degrees 1..degrees, as ``quad``
    forms them at ``bits``: 20 bits up, each reusing the ones before."""
    sums = []
    with mpmath.workprec(bits + 20):
        a, b = mpmath.mpf(0), mpmath.mpf(1)
        for degree in range(1, degrees + 1):
            nodes = rule.get_nodes(a, b, degree, bits)
            sums.append(rule.sum_next(f, nodes, degree, bits, sums))
    return [repr(value) for value in sums]


class TestGroupedRule:
    """The audit's inner rule sums the weights of each class of equal keys
    exactly and evaluates its raw integrand once per class, with the bits of
    mpmath's own tanh-sinh rule; its direct ``quad`` returns what
    ``mpmath.quad`` returns."""

    @pytest.mark.parametrize("bits", [24, 53, 80])
    def test_step_integrand_matches_default_quad(self, bits):
        calls = []

        def f(x):
            calls.append(x)
            return step_value(step_key(x))._mpf_

        with mpmath.workprec(bits):
            expected = mpmath.quad(as_mpf(f), [0, 1], error=True)
            rule = circle._GroupedTanhSinh(mpmath.mp, step_key)
            got = mpmath.quad(f, [0, 1], error=True, method=lambda ctx: rule)
            direct = rule.quad(f)
        assert repr(got) == repr(expected)
        assert direct == expected[0]._mpf_  # rounded back to the caller's bits
        expected = step_sums(mpmath.mp._tanh_sinh, as_mpf(f), bits)  # 351 nodes at 24 bits
        del calls[:]
        assert step_sums(rule, f, bits) == expected
        assert len(calls) <= 6 * 8  # once per class: at most 8 at each degree

    @pytest.mark.parametrize("bits", [24, 53])
    def test_values_far_apart_sum_over_every_node(self, bits):
        # values 2^(-p m), p the working precision: the terms of mirrored keys
        # k and 6 - k cancel, and the rest lie more than 2 p bits apart, where
        # mpf_sum drops terms depending on their order (grouped sums differ)
        def f(x):
            seen.add(x._mpf_)
            key, prec = step_key(x), mpmath.mp.prec
            if key in (3, 7):
                return mpmath.ldexp(1, -3 * prec)._mpf_
            return mpmath.ldexp(1 if key < 3 else -1, -prec * min(key, 6 - key))._mpf_

        seen = set()
        rule = circle._GroupedTanhSinh(mpmath.mp, step_key)
        assert step_sums(rule, f, bits) == step_sums(mpmath.mp._tanh_sinh, as_mpf(f), bits)
        with mpmath.workprec(bits):
            seen = set()
            expected = mpmath.quad(as_mpf(f), [0, 1], error=True)
            every_node = seen
            seen = set()
            got = mpmath.quad(f, [0, 1], error=True, method=lambda ctx: rule)
            assert seen == every_node
            direct = rule.quad(f)
        assert repr(got) == repr(expected)
        assert direct == expected[0]._mpf_

    def test_audit_terms_under_a_kernel_sensitive_to_d_in_both_orders(self,
                                                                       monkeypatch):
        # the classes are those of one term: at n = 64 some x nodes compute
        # d = 64 and others one ulp below, which this kernel magnifies
        cfg = QuadratureConfig(precision_bits=24, **LOOSE)
        patch_kernels_sensitive_to_d(monkeypatch)
        expected = {n: repr(eta_term_reference(n, cfg, **AUDIT)) for n in (45, 64)}
        for ns in [(45, 64), (64, 45)]:
            assert [repr(eta_term(n, cfg, **AUDIT)) for n in ns] == [expected[n]
                                                                    for n in ns]

    def test_integrand_once_per_class(self, monkeypatch):
        # the inner x-quadratures call the rule directly, never mpmath.quad
        quad, calls, degrees = circle._GroupedTanhSinh.quad, [], []
        guess = mpmath.calculus.quadrature.QuadratureRule.guess_degree

        def counting_quad(rule, f):
            calls.append(0)
            return quad(rule, lambda x: calls.append(1) or f(x))

        monkeypatch.setattr(circle._GroupedTanhSinh, "quad", counting_quad)
        monkeypatch.setattr(mpmath.calculus.quadrature.QuadratureRule, "guess_degree",
                            lambda rule, prec: degrees.append(prec) or guess(rule, prec))
        assert repr(eta_term(45, audit=True)) == "0.007073553026306459j"
        assert calls.count(0) == 266  # inner x-quadratures
        assert calls.count(1) == 606  # integrand calls; 10,614 with one per node
        assert len(degrees) == 1  # once per precision, not once per inner quad


class TestCircleExact:
    def test_str_and_complex(self):
        v = closed_form_term(2)
        assert str(v) == "1/2*I/pi"
        assert abs(v.to_complex() - 0.5j / math.pi) < 1e-16

    def test_addition_same_shape_only(self):
        total = closed_form_term(1) + closed_form_term(2) + closed_form_term(3)
        assert total.coeff == Fraction(11, 6)
        with pytest.raises(ValueError):
            closed_form_term(1) + CircleExact(Fraction(1), 0, 0)

    def test_json_triple(self):
        assert closed_form_term(3).to_json() == {
            "rational_coeff": "1/3", "pi_power": -1, "i_power": 1}


class TestSubsetFamilies:
    def test_finite_sorted_validated(self):
        fam = SubsetFamily.finite([3, 1, 2])
        assert list(fam.iter_elements()) == [1, 2, 3]
        with pytest.raises(SubsetFamilyError):
            SubsetFamily.finite([0, 1])

    def test_arithmetic_stream(self):
        fam = SubsetFamily.arithmetic(2, 3)
        it = fam.iter_elements()
        assert [next(it) for _ in range(4)] == [2, 5, 8, 11]

    def test_geometric_stream(self):
        fam = SubsetFamily.geometric(2)
        it = fam.iter_elements()
        assert [next(it) for _ in range(5)] == [1, 2, 4, 8, 16]

    def test_primes_stream(self):
        it = SubsetFamily.primes().iter_elements()
        assert [next(it) for _ in range(6)] == [2, 3, 5, 7, 11, 13]

    def test_custom_must_increase(self):
        fam = SubsetFamily.custom(lambda: iter([1, 1]))
        with pytest.raises(SubsetFamilyError):
            list(fam.iter_elements())

    # non-integers are rejected, never truncated (2.5 used to read as 2)
    def test_finite_rejects_non_integers(self):
        with pytest.raises(SubsetFamilyError, match="must be an integer, got 2.5"):
            SubsetFamily.finite([2.5, 3.9])
        assert SubsetFamily.finite([True, 3]).params == (1, 3)

    def test_arithmetic_rejects_non_integers(self):
        for a, d in [(2.5, 1), (2, 1.0), (Fraction(5, 2), 1)]:
            with pytest.raises(SubsetFamilyError, match="must be an integer"):
                SubsetFamily.arithmetic(a, d)

    def test_geometric_rejects_non_integers(self):
        for base in (2.5, 3.0, "3"):
            with pytest.raises(SubsetFamilyError, match="must be an integer"):
                SubsetFamily.geometric(base)

    def test_custom_rejects_non_integers(self):
        fam = SubsetFamily.custom(lambda: iter([1.9, 2.5, 3.2]))
        with pytest.raises(SubsetFamilyError, match="must be an integer, got 1.9"):
            eta_partial(fam, 3)


class TestClassification:
    def test_naturals_divergent(self):
        assert classify_convergence(SubsetFamily.arithmetic(1, 1)).kind == "divergent"

    def test_finite_closed_form(self):
        verdict = classify_convergence(SubsetFamily.finite([7]))
        assert verdict.kind == "convergent"
        assert verdict.exact.coeff == Fraction(1, 7)

    def test_geometric_accelerated_value(self):
        verdict = classify_convergence(SubsetFamily.geometric(2))
        assert verdict.kind == "convergent"
        assert verdict.exact.coeff == Fraction(2)

    def test_primes_divergent_with_certificate(self):
        verdict = classify_convergence(SubsetFamily.primes())
        assert verdict.kind == "divergent"
        assert "prime" in verdict.certificate

    def test_custom_without_certificate_unknown(self):
        fam = SubsetFamily.custom(lambda: (k * k for k in range(1, 100)))
        assert classify_convergence(fam).kind == "unknown"

    def test_custom_certificate_upgrade(self):
        fam = SubsetFamily.custom(
            lambda: (k * k for k in range(1, 100)),
            certificate="comparison with sum 1/n^2 = pi^2/6",
            certificate_kind="convergent")
        assert classify_convergence(fam).kind == "convergent"


class TestEtaPartial:
    def test_exact_finite_sum(self):
        report = eta_partial(SubsetFamily.finite([1, 2, 3]), 10)
        assert report.exact.coeff == Fraction(11, 6)
        assert report.terms_used == 3  # exhaustion before max_terms is fine
        assert abs(report.final_value() - (11 / 6) * 1j / math.pi) < 1e-15

    def test_monotone_magnitudes(self):
        report = eta_partial(SubsetFamily.arithmetic(1, 1), 50)
        mags = [abs(v) for _, v in report.partial_sums]
        assert mags == sorted(mags)

    def test_divergence_witness_sizes(self):
        report = eta_partial(SubsetFamily.arithmetic(1, 1), 10_000)
        sums = dict(report.partial_sums)
        for m in (100, 1000, 10_000):
            assert sums[m].imag > (0.9 / math.pi) * math.log(m)

    def test_audit_path_errors_reported(self):
        report = eta_partial(SubsetFamily.finite([1, 2]), 5, audit=True)
        assert report.exact is None
        assert not report.fast_path
        assert all(e < 1e-9 for e in report.per_term_errors)
        assert abs(report.final_value() - 1.5j / math.pi) < 1e-9


class TestFastPath:
    @staticmethod
    def fast_term(n):
        # a one-term partial sum is 0j + term, which is the term bit for bit
        return eta_partial(SubsetFamily.finite([n]), 1).partial_sums[0][1]

    def test_terms_match_closed_form(self):
        for n in range(1, 10_001):
            value, expected = self.fast_term(n), closed_form_term(n).to_complex()
            assert value == expected and repr(value) == repr(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10 ** 15))
    def test_large_terms_match_closed_form(self, n):
        value, expected = self.fast_term(n), closed_form_term(n).to_complex()
        assert value == expected and repr(value) == repr(expected)

    @pytest.mark.parametrize("max_terms", [1, EXACT_TERMS_CAP - 1, EXACT_TERMS_CAP,
                                           EXACT_TERMS_CAP + 1, 2000])
    @pytest.mark.parametrize("family", [SubsetFamily.finite(range(3, 1500, 2)),
                                        SubsetFamily.arithmetic(7, 3),
                                        SubsetFamily.geometric(3),
                                        SubsetFamily.primes()],
                             ids=["finite", "ap", "geo", "primes"])
    def test_report_matches_reference(self, family, max_terms):
        report = eta_partial(family, max_terms)
        expected = eta_partial_reference(family, max_terms)
        assert report == expected
        assert repr(report.partial_sums) == repr(expected.partial_sums)
        assert repr(report.per_term_errors) == repr(expected.per_term_errors)
        assert (report.exact is None) == (report.terms_used > EXACT_TERMS_CAP)

    # sha256 of stdout, taken from the code before the memos and the one-pass sums
    CLI_DIGESTS = [
        (["circle", "--subset", "ap:41,3", "--terms", "4", "--audit"],
         "30fca8d1ded3a162f15e982d610f3a31b33da5444450da8123c5eeb69295a183"),
        (["circle", "--subset", "ap:7,3", "--terms", "100000"],
         "3080c358a17488b6e6d345154937947f0cd70e4308570bf63505c2b38c1e8cd9")]

    @pytest.mark.parametrize("argv, digest", CLI_DIGESTS)
    def test_cli_stdout_digest(self, argv, digest, capsys):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestReportJson:
    """to_json picks every s-th partial sum and the last one by slicing, with
    the bytes of the modulo comprehension it replaced."""

    @staticmethod
    def modulo_sampling(report, every):
        return [(m, {"re": v.real, "im": v.imag}) for m, v in report.partial_sums
                if m % every == 0 or m == report.terms_used]

    @pytest.mark.parametrize("terms, every", [(0, 1), (0, 3), (1, 1), (1, 2), (100, 1),
                                              (100, 10), (100, 4), (103, 10), (103, 7),
                                              (103, 103), (103, 200)],
                             ids=lambda v: str(v))
    @pytest.mark.parametrize("ahat", [None, Fraction(-3, 7)], ids=["plain", "ahat"])
    def test_matches_modulo_sampling(self, terms, every, ahat):
        report = eta_partial(SubsetFamily.finite(range(1, terms + 1)), max(terms, 1))
        if ahat is not None:
            report = product_with_ahat(report, ahat)
        assert report.terms_used == terms
        expected = report.to_json()
        expected["partial_sums"] = self.modulo_sampling(report, every)
        got = report.to_json(sample_every=every)
        assert json.dumps(got) == json.dumps(expected)

    def test_rejects_sampling_below_one(self):
        report = eta_partial(SubsetFamily.finite([1, 2]), 2)
        for every in (0, -1):
            with pytest.raises(ValueError, match="sample_every must be >= 1"):
                report.to_json(sample_every=every)


class TestMpmathContract:
    """The private mpmath names that the raw kernels of ``circle`` use, as
    mpmath 1.3 has them.  If an upgrade changes one, this test names it;
    the eta terms would otherwise change bits without notice."""

    SIGNATURES = {
        "summation": "(self, f, points, prec, epsilon, max_degree, verbose=False)",
        "sum_next": "(self, f, nodes, degree, prec, previous, verbose=False)",
        "get_nodes": "(self, a, b, degree, prec, verbose=False)",
        "estimate_error": "(self, results, prec, epsilon)",
        "guess_degree": "(self, prec)",
    }

    def test_private_names(self):
        problems = []
        for name, expected in self.SIGNATURES.items():
            method = getattr(TanhSinh, name, None)
            got = "missing" if method is None else str(inspect.signature(method))
            if got != expected:
                problems.append(f"TanhSinh.{name}: {got}, expected {expected}")
        if not isinstance(getattr(mpmath.mp, "_tanh_sinh", None), TanhSinh):
            problems.append("mp._tanh_sinh is not a TanhSinh rule")
        with mpmath.workprec(77):
            prec_rounding = getattr(mpmath.mp, "_prec_rounding", None)
            if prec_rounding is None or list(prec_rounding) != [77, "n"]:
                problems.append(f"mp._prec_rounding at 77 bits is {prec_rounding!r}, "
                                "expected [77, 'n']")
        mpf_sum = getattr(libmp, "mpf_sum", None)
        expected = "(xs, prec=0, rnd='d', absolute=False)"
        if mpf_sum is None or str(inspect.signature(mpf_sum)) != expected:
            problems.append(f"libmp.mpf_sum is {mpf_sum!r}, expected the signature {expected}")
        else:
            third = libmp.from_rational(1, 3, 80, "n")
            exact = mpf_sum([libmp.fone, third, libmp.mpf_neg(libmp.fone)])
            rounded = mpf_sum([libmp.fone, third], 40, "n")
            if exact != third or rounded != libmp.from_rational(4, 3, 40, "n"):
                problems.append("libmp.mpf_sum does not add exactly and round once")
        assert not problems, ("mpmath's private API changed under circle.py: "
                              + "; ".join(problems))


class TestAhatMultiplier:
    def test_scales_exact_value(self):
        assert product_with_ahat(closed_form_term(1), 2).coeff == Fraction(2)

    def test_zero_kills_everything(self):
        divergent = classify_convergence(SubsetFamily.primes())
        out = product_with_ahat(divergent, 0)
        assert out.kind == "convergent"
        assert out.exact.coeff == 0

    def test_nonzero_preserves_divergence(self):
        divergent = classify_convergence(SubsetFamily.arithmetic(1, 1))
        assert product_with_ahat(divergent, 3).kind == "divergent"

    def test_report_scaling(self):
        report = eta_partial(SubsetFamily.finite([1, 2, 3]), 10)
        scaled = product_with_ahat(report, Fraction(1, 2))
        assert scaled.exact.coeff == Fraction(11, 12)
        assert scaled.partial_sums[-1][1] == report.partial_sums[-1][1] * 0.5

    def test_plain_complex(self):
        assert product_with_ahat(2j, 3) == 6j
