import math

import pytest

from nlprobe import moments
from nlprobe.errors import DomainError, InternalConsistencyError
from nlprobe.fock_oracle import converged_moments
from nlprobe.moments import moment_general, moment_real_axis, moment_vector
from nlprobe.probe import make_probe


class TestMomentGeneral:
    def test_vacuum_second_moment(self):
        assert moment_general(make_probe(0.0, 0.0), 2) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [0.5, 1.0, 3.0])
    def test_squeezed_vacuum_second_moment_closed_form(self, n):
        expected = 1.0 + 2.0 * n + 2.0 * math.sqrt(n * (n + 1.0))
        got = moment_general(make_probe(n, 1.0), 2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_coherent_third_moment(self):
        # alpha = 1: mean 2, unit variance: m^3 + 3 m sigma^2 = 14
        assert moment_general(make_probe(1.0, 0.0), 3) == pytest.approx(14.0, rel=1e-12)

    def test_order_zero_is_identity(self):
        for gamma in (0.0, 0.3, 1.0):
            assert moment_general(make_probe(2.0, gamma, 0.9, 0.4), 0) == 1.0

    def test_odd_moments_vanish_for_squeezed_vacuum(self):
        p = make_probe(2.5, 1.0, 0.8)
        for k in (1, 3, 5, 7):
            assert abs(moment_general(p, k)) <= 1e-12

    def test_phase_periodicity(self):
        two_pi = 2.0 * math.pi
        for k in (2, 3, 5):
            a = moment_general(make_probe(1.5, 0.4, 0.7, 1.1), k)
            b = moment_general(make_probe(1.5, 0.4, 0.7 + two_pi, 1.1), k)
            c = moment_general(make_probe(1.5, 0.4, 0.7, 1.1 + two_pi), k)
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(c, rel=1e-12)

    def test_monotone_in_alpha_and_r_on_real_axis(self):
        for k in (1, 2, 4, 5):
            vals_alpha = [moment_real_axis(a, 0.3, k) for a in (0.0, 0.5, 1.0, 2.0)]
            assert vals_alpha == sorted(vals_alpha)
            vals_r = [moment_real_axis(0.7, r, k) for r in (0.0, 0.4, 0.9, 1.5)]
            assert vals_r == sorted(vals_r)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            moment_general(make_probe(1.0, 0.0), -1)

    def test_bad_beta_sign_rejected(self):
        with pytest.raises(DomainError):
            moment_general(make_probe(1.0, 0.0), 2, beta_sign=0)

    def test_residue_check_catches_a_phase_error(self, monkeypatch):
        # flip the phase multiplier of one term of the 40-digit general-phase
        # sum: the terms no longer pair into complex conjugates, and the
        # imaginary residue must be caught
        table = moments._table

        def corrupted(k):
            terms = list(table(k))
            c, ph, s, p = terms[0]
            terms[0] = (c, -ph, s, p)
            return tuple(terms)

        monkeypatch.setattr(moments, "_table", corrupted)
        with pytest.raises(InternalConsistencyError):
            moment_general(make_probe(2.0, 0.4, 0.9, 0.3), 4, extended=True)


class TestRealAxis:
    @pytest.mark.parametrize(
        "alpha,r,k,expected",
        [
            (0.0, 0.0, 4, 3.0),
            (1.0, 0.0, 4, 43.0),
            (0.0, math.asinh(1.0), 2, 3.0 + 2.0 * math.sqrt(2.0)),
        ],
    )
    def test_examples(self, alpha, r, k, expected):
        assert moment_real_axis(alpha, r, k) == pytest.approx(expected, rel=1e-12)

    def test_odd_moment_vanishes_at_alpha_zero(self):
        assert moment_real_axis(0.0, 0.7, 5) == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 0.35, 0.75, 1.0])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_general_formula_at_zero_phases(self, gamma, sign):
        p = make_probe(2.0, gamma)
        for k in range(9):
            a = moment_real_axis(p.alpha_mag, p.r, k, beta_sign=sign)
            b = moment_general(p, k, beta_sign=sign)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_rejects_negative_arguments(self):
        with pytest.raises(DomainError):
            moment_real_axis(-0.1, 0.0, 2)
        with pytest.raises(DomainError):
            moment_real_axis(0.1, -0.2, 2)


class TestOracleEquivalence:
    """Brute-force cross-checks of both Bogoliubov amplitude conventions."""

    PHASES = [0.0, math.pi / 3, math.pi]

    def test_pure_probes_default_convention(self):
        # coherent and squeezed-vacuum probes: the conventions coincide and
        # both must match the Fock construction
        for n in (0.1, 1.0, 3.0):
            for gamma in (0.0, 1.0):
                for theta in self.PHASES:
                    for phi in self.PHASES:
                        p = make_probe(n, gamma, theta, phi)
                        oracle = converged_moments(p, 12)
                        for k in range(13):
                            rel = abs(moment_general(p, k) - oracle[k]) / max(1.0, abs(oracle[k]))
                            assert rel <= 1e-8, (n, gamma, theta, phi, k)

    def test_mixed_probes_state_exact_convention(self):
        # beta_sign=-1 reproduces D(alpha)S(xi)|0> at every squeezing fraction
        for n in (0.1, 1.0, 3.0):
            for gamma in (0.3, 0.5, 0.7):
                for theta, phi in [(0.0, 0.0), (math.pi / 3, math.pi / 3), (math.pi, math.pi / 3)]:
                    p = make_probe(n, gamma, theta, phi)
                    oracle = converged_moments(p, 12)
                    for k in range(13):
                        got = moment_general(p, k, beta_sign=-1)
                        rel = abs(got - oracle[k]) / max(1.0, abs(oracle[k]))
                        assert rel <= 1e-8, (n, gamma, theta, phi, k)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known divergence: the default closed-form family (beta = mu*alpha "
            "+ nu*conj(alpha), the amplitude every tabulated bound constant in "
            "this package derives from) does not describe the Fock state "
            "D(alpha)S(xi)|0> once displacement and squeezing mix; the "
            "state-exact amplitude flips the nu term's sign. See README, "
            "'Moment conventions'."
        ),
    )
    def test_mixed_probes_default_convention(self):
        p = make_probe(1.0, 0.5)
        oracle = converged_moments(p, 6)
        for k in range(7):
            rel = abs(moment_general(p, k) - oracle[k]) / max(1.0, abs(oracle[k]))
            assert rel <= 1e-8


class TestMomentVector:
    def test_zeroth_entry_is_one(self):
        mv = moment_vector(make_probe(1.2, 0.6, 0.3, 0.1), 6)
        assert mv[0] == 1.0
        assert mv.k_max == 6
        assert len(mv.values) == 7

    def test_entries_match_scalar_calls(self):
        p = make_probe(0.8, 0.4)
        mv = moment_vector(p, 5)
        for k in range(6):
            assert mv[k] == moment_general(p, k)


class TestExtendedPrecision:
    def test_extended_agrees_with_double_in_safe_range(self):
        p = make_probe(2.0, 0.5, 0.4, 0.9)
        for k in (1, 4, 9):
            a = moment_general(p, k)
            b = moment_general(p, k, extended=True)
            assert b == pytest.approx(a, rel=1e-12)

    def test_extended_real_axis(self):
        a = moment_real_axis(1.5, 0.8, 6)
        b = moment_real_axis(1.5, 0.8, 6, extended=True)
        assert b == pytest.approx(a, rel=1e-12)
