import math
import warnings

import pytest

from nlprobe.errors import CancellationWarning, DegenerateModelError, DomainError
from nlprobe.fock_oracle import qfi_matrix_oracle
from nlprobe.probe import make_probe
from nlprobe.qfi_core import (
    ModelSpec,
    QfiMatrix,
    qfi_cross,
    qfi_lambda,
    qfi_matrix,
    qfi_zeta,
    reparametrize_physical,
    scalar_bound_inverse,
)


class TestModelSpec:
    def test_valid(self):
        m = ModelSpec(lambda_eff=0.5, zeta=3, time=2.0)
        assert m.zeta == 3

    @pytest.mark.parametrize("kw", [
        {"lambda_eff": 1.0, "zeta": 0},
        {"lambda_eff": -1.0, "zeta": 2},
        {"lambda_eff": 1.0, "zeta": 2, "time": 0.0},
        {"lambda_eff": float("inf"), "zeta": 2},
    ])
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            ModelSpec(**kw)


class TestQfiLambda:
    def test_coherent_linear_order_is_four(self):
        for n in (0.0, 1.0, 3.0):
            p = make_probe(n, 0.0)
            assert qfi_lambda(p, ModelSpec(lambda_eff=1.0, zeta=1)) == pytest.approx(4.0, rel=1e-11)

    def test_coherent_quadratic_order(self):
        # 4(16N^2 + 24N + 3 - (4N+1)^2) = 64N + 8
        p = make_probe(3.0, 0.0)
        assert qfi_lambda(p, ModelSpec(lambda_eff=1.0, zeta=2)) == pytest.approx(200.0, rel=1e-11)

    def test_squeezed_vacuum_quadratic_order(self):
        p = make_probe(1.0, 1.0)
        expected = 8.0 * (1.0 + math.sqrt(2.0)) ** 4  # 8 e^{4r}, sinh r = 1
        assert qfi_lambda(p, ModelSpec(lambda_eff=1.0, zeta=2)) == pytest.approx(expected, rel=1e-11)

    def test_independent_of_lambda(self):
        p = make_probe(2.0, 0.3)
        a = qfi_lambda(p, ModelSpec(lambda_eff=0.0, zeta=3))
        b = qfi_lambda(p, ModelSpec(lambda_eff=17.0, zeta=3))
        assert a == b


class TestQfiZeta:
    def test_coherent_order_two_is_constant(self):
        for n in (0.5, 1.0, 3.0):
            for lam in (0.5, 2.0):
                p = make_probe(n, 0.0, 0.0, 0.7)
                got = qfi_zeta(p, ModelSpec(lambda_eff=lam, zeta=2))
                assert got == pytest.approx(16.0 * lam**2, rel=1e-10)

    def test_squeezed_vacuum_closed_form(self):
        for n in (0.5, 2.0, 10.0):
            p = make_probe(n, 1.0)
            lam = 0.7
            expected = 16.0 * lam**2 * (1.0 + 2.0 * n + 2.0 * math.sqrt(n * (1.0 + n)))
            got = qfi_zeta(p, ModelSpec(lambda_eff=lam, zeta=2))
            assert got == pytest.approx(expected, rel=1e-11)

    def test_order_one_vanishes(self):
        p = make_probe(2.0, 0.6, 0.2, 0.4)
        assert qfi_zeta(p, ModelSpec(lambda_eff=3.0, zeta=1)) == 0.0

    def test_exact_lambda_scaling(self):
        p = make_probe(1.5, 0.4)
        base = qfi_zeta(p, ModelSpec(lambda_eff=1.0, zeta=3))
        assert qfi_zeta(p, ModelSpec(lambda_eff=2.0, zeta=3)) == pytest.approx(4.0 * base, rel=1e-14)

    def test_relation_to_coupling_qfi_at_lower_order(self):
        # both elements are built from Var(G_(zeta-1)), so
        # F_zz(zeta) = (lambda zeta)^2 * F_ll(zeta - 1) with the same moment calls
        p = make_probe(2.5, 0.7, 0.3, 0.9)
        for zeta in (2, 3, 4, 5):
            lam = 0.8
            lhs = qfi_zeta(p, ModelSpec(lambda_eff=lam, zeta=zeta))
            rhs = (lam * zeta) ** 2 * qfi_lambda(p, ModelSpec(lambda_eff=lam, zeta=zeta - 1))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQfiCross:
    def test_squeezed_vacuum_vanishes_by_parity(self):
        p = make_probe(2.0, 1.0)
        assert qfi_cross(p, ModelSpec(lambda_eff=1.3, zeta=2)) == pytest.approx(0.0, abs=1e-10)

    def test_vacuum_vanishes(self):
        p = make_probe(0.0, 0.0)
        for zeta in (1, 2, 3):
            assert qfi_cross(p, ModelSpec(lambda_eff=2.0, zeta=zeta)) == pytest.approx(0.0, abs=1e-10)

    def test_coherent_example(self):
        p = make_probe(1.0, 0.0)
        got = qfi_cross(p, ModelSpec(lambda_eff=1.0, zeta=2))
        assert got == pytest.approx(32.0, rel=1e-11)  # 8 (14 - 5*2)

    def test_exact_lambda_scaling(self):
        p = make_probe(1.0, 0.2)
        base = qfi_cross(p, ModelSpec(lambda_eff=1.0, zeta=2))
        assert qfi_cross(p, ModelSpec(lambda_eff=2.0, zeta=2)) == pytest.approx(2.0 * base, rel=1e-14)


class TestQfiMatrix:
    def test_vacuum_order_two(self):
        fm = qfi_matrix(make_probe(0.0, 0.0), ModelSpec(lambda_eff=1.0, zeta=2))
        assert fm.f_ll == pytest.approx(8.0, rel=1e-12)
        assert fm.f_zz == pytest.approx(16.0, rel=1e-12)
        assert fm.f_lz == pytest.approx(0.0, abs=1e-12)
        assert fm.u_lz == 0.0

    def test_zero_coupling_kills_order_information(self):
        fm = qfi_matrix(make_probe(1.0, 0.0), ModelSpec(lambda_eff=0.0, zeta=2))
        assert fm.f_zz == 0.0
        assert fm.f_lz == 0.0

    def test_coherent_assembly_and_psd(self):
        fm = qfi_matrix(make_probe(1.0, 0.0), ModelSpec(lambda_eff=1.0, zeta=2))
        assert (fm.f_ll, fm.f_zz, fm.f_lz) == pytest.approx((72.0, 16.0, 32.0), rel=1e-11)
        assert fm.determinant() == pytest.approx(128.0, rel=1e-10)
        assert fm.is_positive_semidefinite()

    @pytest.mark.parametrize("n,gamma", [(0.1, 0.0), (1.0, 1.0), (3.0, 0.0), (3.0, 1.0)])
    @pytest.mark.parametrize("zeta", [1, 2, 3])
    def test_matches_oracle_on_pure_probes(self, n, gamma, zeta):
        p = make_probe(n, gamma, 0.0, 0.0)
        m = ModelSpec(lambda_eff=0.2, zeta=zeta)
        fm = qfi_matrix(p, m)
        om = qfi_matrix_oracle(p, m)
        for a, b in zip(fm.as_tuple()[:3], om.as_tuple()[:3]):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-8)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known divergence at mixed gamma: the closed-form family and the "
            "Fock state disagree there (see README, 'Moment conventions')"
        ),
    )
    def test_matches_oracle_on_mixed_probe(self):
        p = make_probe(1.0, 0.5)
        m = ModelSpec(lambda_eff=0.2, zeta=2)
        fm = qfi_matrix(p, m)
        om = qfi_matrix_oracle(p, m)
        assert fm.f_ll == pytest.approx(om.f_ll, rel=1e-6)

    def test_mixed_probe_oracle_agreement_with_state_exact_amplitude(self):
        p = make_probe(1.0, 0.5, 0.4, 0.9)
        m = ModelSpec(lambda_eff=0.2, zeta=2)
        fm = qfi_matrix(p, m, beta_sign=-1)
        om = qfi_matrix_oracle(p, m)
        for a, b in zip(fm.as_tuple()[:3], om.as_tuple()[:3]):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-8)


class TestReparametrization:
    def test_identity_time(self):
        fm = QfiMatrix(72.0, 16.0, 32.0, 0.0)
        assert reparametrize_physical(fm, ModelSpec(lambda_eff=1.0, zeta=2, time=1.0)) == fm

    def test_diagonal_congruence(self):
        fm = QfiMatrix(72.0, 16.0, 32.0, 0.0)
        out = reparametrize_physical(fm, ModelSpec(lambda_eff=1.0, zeta=2, time=2.0))
        assert out == QfiMatrix(288.0, 16.0, 64.0, 0.0)
        out10 = reparametrize_physical(QfiMatrix(8.0, 16.0, 0.0, 0.0), ModelSpec(1.0, 2, 10.0))
        assert out10 == QfiMatrix(800.0, 16.0, 0.0, 0.0)


class TestScalarBound:
    def test_coherent_example(self):
        assert scalar_bound_inverse(QfiMatrix(72.0, 16.0, 32.0)) == pytest.approx(128.0 / 88.0, rel=1e-14)

    def test_decoupled_parameters(self):
        assert scalar_bound_inverse(QfiMatrix(8.0, 16.0, 0.0)) == pytest.approx(128.0 / 24.0, rel=1e-14)

    def test_singular_model_gives_zero(self):
        assert scalar_bound_inverse(QfiMatrix(5.0, 0.0, 0.0)) == 0.0

    def test_degenerate_model_raises(self):
        with pytest.raises(DegenerateModelError):
            scalar_bound_inverse(QfiMatrix(0.0, 0.0, 0.0))


class TestExtendedPrecisionRescue:
    def test_cancellation_alarm_and_extended_rescue(self):
        # at N = 1e8 and zeta = 2 the moment differences cancel ~16 digits;
        # the double normal law never forms them, so it raises no alarm and
        # agrees with the 40-digit sums, which land on the leading-order growth
        p = make_probe(1e8, 0.5)
        m = ModelSpec(lambda_eff=1.0, zeta=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CancellationWarning)
            got = qfi_lambda(p, m)
        assert got == pytest.approx(qfi_lambda(p, m, extended=True), rel=1e-12)
        alpha_sq = 0.5e8
        big_e = 1.0 + 2 * 0.5e8 + 2 * math.sqrt(0.5e8 * (1 + 0.5e8))
        leading = 4.0 * 4**2 * alpha_sq * big_e**3  # zeta^2 4^zeta alpha^2 E^3
        assert got == pytest.approx(leading, rel=0.01)

    def test_covariance_alarm(self):
        # Cov(G_2, G_1) = m_3 - m_2 m_1 cancels as many digits as the
        # variances do at N = 1e8; the double path takes it from Q_2 instead
        p = make_probe(1e8, 0.5)
        m = ModelSpec(lambda_eff=1.0, zeta=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CancellationWarning)
            got = qfi_cross(p, m)
            assert got == pytest.approx(qfi_cross(p, m, extended=True), rel=1e-12)
        assert got > 0.0

    def test_no_covariance_alarm_at_order_one(self):
        # G_0 is the identity, so Cov(G_1, G_0) = m_1 - m_1 m_0 is exactly 0 by design
        with warnings.catch_warnings():
            warnings.simplefilter("error", CancellationWarning)
            assert qfi_cross(make_probe(3.0, 0.2), ModelSpec(lambda_eff=1.0, zeta=1)) == 0.0
