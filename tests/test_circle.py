import math
from fractions import Fraction

import pytest

from etarho.circle import (CircleExact, QuadratureConfig, QuadratureError,
                           SubsetFamily, SubsetFamilyError,
                           classify_convergence, closed_form_term, eta_partial,
                           eta_term, kernel_value, product_with_ahat)

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
