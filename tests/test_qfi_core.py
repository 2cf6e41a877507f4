import math
import random
import warnings

import mpmath
import numpy as np
import pytest

import mp_reference
import nlprobe.qfi_core as qfi_core
from nlprobe.errors import OVERFLOW, DegenerateModelError, DomainError, InternalConsistencyError
from nlprobe.fock_oracle import qfi_matrix_oracle
from nlprobe.optimizer import OptTarget, TargetKind, objective, objective_grid
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
        {"lambda_eff": 1.0, "zeta": 2, "time": float("inf")},
        {"lambda_eff": 1.0, "zeta": 2, "time": float("nan")},
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

    def test_three_entries_that_fit_where_the_joint_bound_does_not(self):
        # qfi_matrix asks for these three entries alone
        p, m = make_probe(1e10, 1.0), ModelSpec(1e85, 12)
        fm = qfi_matrix(p, m)
        assert fm.as_tuple() == (2.1214862605485813e+139, 3.321722210324113e+299, 0.0, 0.0)
        assert [v.hex() for v in fm.as_tuple()[:3]] == [f(p, m).hex() for f in (qfi_lambda, qfi_zeta, qfi_cross)]

    def test_joint_bound_near_the_range_where_the_coupling_square_overflows(self):
        # (lambda zeta)^2 = 4e308 overflows while u V = 1.6e308 does not: u V
        # is 0.4 of (lambda zeta)^2, so the bound is 8 / 1.4, not the limit 8
        n, model = 1e307, ModelSpec(1e154, 2)
        target = OptTarget(TargetKind.JOINT_BOUND, model)
        want = mp_reference.objective(0.0, n, target)
        assert want == pytest.approx(8.0 / 1.4, rel=1e-12)
        assert qfi_core._normal_law_kernel(n, 0.0, 0.0, model, entry=3)(0.0) == pytest.approx(want, rel=1e-12)
        (grid,) = qfi_core.normal_law_grid(n, [0.0], 0.0, 0.0, model, entries=(3,))
        assert grid.tolist() == [qfi_core._normal_law_kernel(n, 0.0, 0.0, model, entry=3)(0.0)]

    @pytest.mark.parametrize("lam", [1e150, 1e154])
    def test_joint_bound_raises_where_u_v_overflows(self, lam):
        # at gamma = 0.5, mu^2 passes the double range: the quotient by an
        # infinite u V read 0.0 and now raises the entry overflow
        model = ModelSpec(lam, 2)
        with pytest.raises(OverflowError, match="^QFI entries exceed the double-precision range$"):
            qfi_core._normal_law_kernel(1e307, 0.0, 0.0, model, entry=3)(0.5)
        with pytest.raises(OverflowError, match="^QFI entries exceed the double-precision range$"):
            qfi_core.normal_law_grid(1e307, [0.0, 0.5], 0.0, 0.0, model, entries=(3,))


class TestZeroEntries:
    """An entry with a factor that is exactly 0 is the signed zero of its
    finite product, also where the coupling factor (lambda zeta or its
    square) or its product with scale overflows: f_zz at zeta = 1, where W
    is the zero polynomial, and f_lz where the mean is 0 or at zeta = 1,
    where Q is, also where scale itself overflows. These raised the entry
    overflow, from 0 * inf = nan."""

    # (entry, probe, a coupling whose factor fits, one whose factor overflows, zeta)
    CASES = [
        (qfi_zeta, (1.0, 0.5), 1.0, 1e200, 1),  # (lambda zeta)^2 = inf times W = 0
        (qfi_cross, (1.0, 1.0), 1.0, 1e308, 2),  # lambda zeta = inf times mu = 0
        (qfi_cross, (1.0, 1.0, 0.0, math.pi), 1.0, 1e308, 2),  # ... times mu = -0.0
        (qfi_cross, (1.0, 1.0), 1.0, 5e307, 2),  # scale times lambda zeta = inf times mu = 0
        (qfi_cross, (1.0, 0.5), 1.0, 1e308, 1),  # scale times lambda zeta = inf times Q = 0
    ]

    @pytest.mark.parametrize("entry, probe, fits, overflows, zeta", CASES)
    def test_a_zero_entry_is_the_signed_zero_where_its_coupling_factor_overflows(
            self, entry, probe, fits, overflows, zeta):
        p = make_probe(*probe)
        want = entry(p, ModelSpec(fits, zeta))
        assert want == 0.0
        assert entry(p, ModelSpec(overflows, zeta)).hex() == want.hex()  # the sign of 0 too

    @pytest.mark.parametrize("lam, zeta, gammas", [(1e200, 1, [0.0, 0.25, 0.5, 1.0]), (1e308, 1, [0.0, 0.5, 1.0]),
                                                   (1e308, 2, [1.0])])
    def test_the_grid_gives_the_kernels_zeros(self, lam, zeta, gammas):
        model, phases = ModelSpec(lam, zeta), [0.0, 0.5 * math.pi, math.pi]
        entries = (1, 2) if zeta == 1 else (2,)
        values = qfi_core.normal_law_grid(1.0, np.array(gammas)[:, None, None], np.array(phases)[:, None], phases,
                                          model, entries=entries)
        for k, value in zip(entries, values):
            for (i, j, l), got in np.ndenumerate(value):
                kernel = qfi_core._normal_law_kernel(1.0, phases[j], phases[l], model, entry=k)
                assert got.hex() == kernel(gammas[i]).hex() and got == 0.0

    @pytest.mark.parametrize("zeta", [3, 4, 12])
    @pytest.mark.parametrize("phi", [0.0, math.pi], ids=["mu-zero", "mu-minus-zero"])
    def test_f_lz_is_the_signed_zero_where_scale_overflows(self, zeta, phi):
        # at N = 1e300 and gamma = 1, scale = 4 sigma^2 u^(zeta - 2) is inf times mu = 0:
        # 4 sigma^2 times u overflows at zeta = 3, float ** itself from zeta = 4
        model = ModelSpec(1.0, zeta)
        want = qfi_cross(make_probe(1.0, 1.0, 0.0, phi), model)  # scale fits
        assert want == 0.0 and math.copysign(1.0, want) == math.copysign(1.0, 1.5 - phi)
        assert qfi_cross(make_probe(1e300, 1.0, 0.0, phi), model).hex() == want.hex()
        (grid,) = qfi_core.normal_law_grid(1e300, [1.0], 0.0, phi, model, entries=(2,))
        assert grid.item().hex() == want.hex()

    def test_an_entry_that_is_not_zero_still_overflows(self):
        # the same coupling at zeta = 2, where W = 1 and mu > 0
        with pytest.raises(OverflowError) as info:
            qfi_zeta(make_probe(1.0, 0.5), ModelSpec(1e200, 2))
        assert info.value.args == (OVERFLOW,)
        with pytest.raises(OverflowError) as info:
            qfi_cross(make_probe(1.0, 0.5), ModelSpec(1e308, 2))
        assert info.value.args == (OVERFLOW,)
        # and where scale overflows at mu = 0, every other entry
        for entry in (qfi_lambda, qfi_zeta):
            with pytest.raises(OverflowError) as info:
                entry(make_probe(1e300, 1.0), ModelSpec(1.0, 4))
            assert info.value.args == (OVERFLOW,)


class TestLargeOrders:
    """Each entry reads the floats of its own polynomials. The coefficients of
    G leave the double range at zeta = 85, those of V and Q at 149 and those
    of W at 150: from there every entry that reads one raises the entry
    overflow, and the others fit wherever their values do."""

    @pytest.mark.parametrize("zeta, n", [(100, 1.0), (148, 1e-4)])
    def test_entries_that_read_no_determinant_fit(self, zeta, n):
        p, model = make_probe(n, 0.5, 0.3, 0.2), ModelSpec(1.0, zeta)
        fm = qfi_matrix(p, model)
        for got, want in zip(fm.as_tuple(), mp_reference.qfi_matrix(p, model).as_tuple()[:3]):
            assert got == pytest.approx(want, rel=1e-13)
        (grid,) = qfi_core.normal_law_grid(n, [0.5], 0.3, 0.2, model, entries=(0,))
        assert grid.tolist() == [fm.f_ll]
        for kind in (TargetKind.F_LAMBDA, TargetKind.F_ZETA):
            t = OptTarget(kind, model)
            assert objective(0.5, n, t) == pytest.approx(mp_reference.objective(0.5, n, t), rel=1e-13)
        for entries in ((3,), (0, 3)):  # the joint bound reads G
            with pytest.raises(OverflowError) as info:
                qfi_core.normal_law_grid(n, [0.5], 0.3, 0.2, model, entries=entries)
            assert info.value.args == (OVERFLOW,)

    def test_an_entry_beyond_the_range_raises_the_one_overflow(self):
        p, model = make_probe(1.0, 0.5, 0.3, 0.2), ModelSpec(1.0, 148)
        with pytest.raises(OverflowError):
            mp_reference.qfi_matrix(p, model)
        for entry in (qfi_lambda, qfi_zeta, qfi_cross):
            with pytest.raises(OverflowError) as info:
                entry(p, model)
            assert info.value.args == (OVERFLOW,)

    def test_at_order_149_only_the_order_qfi_reads_coefficients_that_fit(self):
        p, model = make_probe(1e-4, 0.5, 0.3, 0.2), ModelSpec(1.0, 149)
        assert qfi_zeta(p, model) == pytest.approx(mp_reference.probe_qfi(p, model, +1, (1,))[0], rel=1e-13)
        for entry in (qfi_lambda, qfi_cross):
            with pytest.raises(OverflowError) as info:
                entry(p, model)
            assert info.value.args == (OVERFLOW,)

    @pytest.mark.parametrize("seed", range(3))
    def test_entries_match_40_digits_or_both_overflow(self, seed):
        # f_ll and f_zz at random phases; f_lz at zero phases, where the mean's
        # two terms do not cancel (README, "Numerical notes": where they do,
        # f_lz is accurate to about 1e-16 of those terms, not of itself)
        rng = random.Random(seed)
        for _ in range(10):
            zeta, n, gamma = rng.randint(85, 147), 10 ** rng.uniform(-4, 1), rng.random()
            phases = (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
            model = ModelSpec(10 ** rng.uniform(-2, 2), zeta)
            for k, (theta, phi) in ((0, phases), (1, phases), (2, (0.0, 0.0))):
                p = make_probe(n, gamma, theta, phi)
                try:
                    want = mp_reference.probe_qfi(p, model, +1, (k,))[0]
                except OverflowError:
                    with pytest.raises(OverflowError) as info:
                        qfi_core._probe_qfi(p, model, +1, (k,))
                    assert info.value.args == (OVERFLOW,)
                    continue
                assert qfi_core._probe_qfi(p, model, +1, (k,))[0] == pytest.approx(want, rel=1e-13)


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

    @pytest.mark.parametrize(
        "fm", [QfiMatrix(1e300, 16.0, 0.0), QfiMatrix(8.0, 16.0, 1e305), QfiMatrix(8.0, 16.0, 0.0, -1e305)]
    )
    def test_entry_beyond_the_range_is_the_entry_overflow(self, fm):
        with pytest.raises(OverflowError, match="^QFI entries exceed the double-precision range$"):
            reparametrize_physical(fm, ModelSpec(1.0, 2, 1e5))


class TestScalarBound:
    def test_coherent_example(self):
        assert scalar_bound_inverse(QfiMatrix(72.0, 16.0, 32.0)) == pytest.approx(128.0 / 88.0, rel=1e-14)

    def test_decoupled_parameters(self):
        assert scalar_bound_inverse(QfiMatrix(8.0, 16.0, 0.0)) == pytest.approx(128.0 / 24.0, rel=1e-14)

    def test_singular_model_gives_zero(self):
        assert scalar_bound_inverse(QfiMatrix(5.0, 0.0, 0.0)) == 0.0

    def test_determinant_rounded_below_zero_gives_zero(self):
        # f_ll f_zz - f_lz^2 = -2e-12, within PSD_TOL of a singular matrix
        assert scalar_bound_inverse(QfiMatrix(1.0, 1.0, 1.0 + 1e-12)) == 0.0

    def test_negative_determinant_raises(self):
        with pytest.raises(InternalConsistencyError, match="negative determinant"):
            scalar_bound_inverse(QfiMatrix(1.0, 1.0, 2.0))

    def test_degenerate_model_raises(self):
        with pytest.raises(DegenerateModelError):
            scalar_bound_inverse(QfiMatrix(0.0, 0.0, 0.0))


class TestHighEnergyCancellation:
    def test_no_cancellation_alarm_and_40_digit_agreement(self):
        # at N = 1e8 and zeta = 2 the moment differences cancel ~16 digits;
        # the double normal law never forms them, so it raises no alarm and
        # agrees with its polynomials at 40 digits and with the leading-order growth
        p = make_probe(1e8, 0.5)
        m = ModelSpec(lambda_eff=1.0, zeta=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = qfi_lambda(p, m)
        assert got == pytest.approx(mp_reference.probe_qfi(p, m, +1, (0,))[0], rel=1e-12)
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
            warnings.simplefilter("error")
            got = qfi_cross(p, m)
            assert got == pytest.approx(mp_reference.probe_qfi(p, m, +1, (2,))[0], rel=1e-12)
        assert got > 0.0

    def test_no_covariance_alarm_at_order_one(self):
        # G_0 is the identity, so Cov(G_1, G_0) = m_1 - m_1 m_0 is exactly 0 by design
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qfi_cross(make_probe(3.0, 0.2), ModelSpec(lambda_eff=1.0, zeta=1)) == 0.0


class TestPrintedSumReference:
    """The 40-digit QFI polynomials (tests/mp_reference.py) against the
    printed general-phase moment sum, which shares nothing with them but the
    probe."""

    @pytest.mark.parametrize("seed", range(4))
    def test_40_digit_qfi_matrix_matches_the_printed_sum(self, seed):
        # N <= 10 and zeta <= 6, where the 40-digit sums keep their digits
        rng = random.Random(seed)
        for _ in range(50):
            probe = make_probe(10 ** rng.uniform(-3, 1), rng.random(), rng.uniform(0, 2 * math.pi),
                               rng.uniform(0, 2 * math.pi))
            zeta, lam, sign = rng.randint(1, 6), 10 ** rng.uniform(-2, 1), rng.choice((+1, -1))
            with mpmath.workdps(mp_reference.DPS):
                m = mp_reference.printed_moments(probe, range(2 * zeta + 1), beta_sign=sign)
                lz = mpmath.mpf(lam) * zeta
                want = (
                    4 * (m[2 * zeta] - m[zeta] ** 2),
                    4 * lz**2 * (m[2 * zeta - 2] - m[zeta - 1] ** 2),
                    4 * lz * (m[2 * zeta - 1] - m[zeta] * m[zeta - 1]),
                )
            got = mp_reference.qfi_matrix(probe, ModelSpec(lambda_eff=lam, zeta=zeta), beta_sign=sign)
            for g, w in zip(got.as_tuple(), map(float, want)):
                assert abs(g - w) <= 1e-14 * abs(w), (probe, zeta, lam, sign)


class TestPowerStep:
    """normal_law_grid takes u^(zeta-2) with np.float_power and the scalar
    kernel with float **: both must call libm's pow, or the grid and the
    point-by-point kernel part in the last bit. np.power, which is
    vectorised, does not always agree with **."""

    @pytest.mark.parametrize("k", range(-1, 11))  # zeta 1..12
    def test_float_power_is_float_pow_bit_for_bit(self, k):
        rng = np.random.default_rng(k + 1)
        # log-uniform from the smallest subnormal to the largest double, and zero
        u = np.exp(rng.uniform(math.log(5e-324), math.log(1.7976931348623157e308), 100_000))
        u[:16] = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308] + [1e30] * 11

        def pow_or_inf(b):
            try:
                return b**k
            except (OverflowError, ZeroDivisionError):  # where ** raises, the grid gives inf and a bad point
                return math.inf

        with np.errstate(all="ignore"):
            got = np.float_power(u, k)
        want = np.array([pow_or_inf(b) for b in u.tolist()])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestOneAssembly:
    """The scalar kernel, the arrays and the optimizer's objective all take
    their formulas from qfi_core._ENTRIES: a change to one entry's formula
    shows in every one of them."""

    def test_every_path_reads_the_shared_formulas(self, monkeypatch):
        n, gammas, model = 2.0, [0.0, 0.3, 1.0], ModelSpec(lambda_eff=1.5, zeta=3)
        target = OptTarget(TargetKind.JOINT_BOUND, model)
        want = [qfi_core._normal_law_kernel(n, 0.0, 0.0, model, entry=3)(g) + 1.0 for g in gammas]
        reads, formula = qfi_core._ENTRIES[3]
        perturbed = (reads, lambda *args: formula(*args) + 1.0)
        monkeypatch.setattr(qfi_core, "_ENTRIES", qfi_core._ENTRIES[:3] + (perturbed,))
        assert [qfi_core._normal_law_kernel(n, 0.0, 0.0, model, entry=3)(g) for g in gammas] == want
        (grid,) = qfi_core.normal_law_grid(n, gammas, 0.0, 0.0, model, entries=(3,))
        assert grid.tolist() == want
        assert [objective(g, n, target) for g in gammas] == want
        assert objective_grid(gammas, n, target) == want

    def test_a_point_the_arrays_reject_and_the_kernel_accepts_is_an_internal_error(self, monkeypatch):
        # the grid hands its rejected points to the scalar kernel for their error;
        # where numpy's and libm's functions differed in a last bit, a point at the
        # edge of the double range could pass the kernel and fail the arrays
        monkeypatch.setattr(qfi_core, "_normal_law_kernel", lambda *args, **kwargs: lambda gamma: 0.0)
        with pytest.raises(InternalConsistencyError, match="rejected points that the scalar kernel accepts"):
            qfi_core.normal_law_grid(1.0, [0.5, 2.0], 0.0, 0.0, ModelSpec(1.0, 3), entries=(0,))
