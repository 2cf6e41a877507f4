import math

import pytest

from nlprobe.errors import DomainError
from nlprobe.probe import bogoliubov_view, make_probe


class TestMakeProbe:
    def test_vacuum(self):
        p = make_probe(0.0, 0.5)
        assert p.alpha == 0
        assert p.r == 0.0

    def test_squeezed_vacuum(self):
        p = make_probe(3.0, 1.0)
        assert math.sinh(p.r) ** 2 == pytest.approx(3.0, rel=1e-14)
        assert p.alpha_mag == 0.0

    def test_coherent(self):
        p = make_probe(2.0, 0.0)
        assert abs(p.alpha) ** 2 == pytest.approx(2.0, rel=1e-14)
        assert p.r == 0.0

    @pytest.mark.parametrize("n,g", [(-1.0, 0.5), (1.0, -0.1), (1.0, 1.1), (float("nan"), 0.5)])
    def test_rejects_bad_parameters(self, n, g):
        with pytest.raises(DomainError):
            make_probe(n, g)

    @pytest.mark.parametrize("theta, phi", [(math.inf, 0.0), (-math.inf, 1.0), (math.nan, 0.0), (0.5, math.nan), (0.0, math.inf)])
    def test_rejects_non_finite_phases(self, theta, phi):
        with pytest.raises(DomainError, match="phases must be finite"):
            make_probe(1.0, 0.5, theta, phi)

    @pytest.mark.parametrize("n", [0.0, 0.3, 1.0, 7.5, 123.0])
    @pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_energy_round_trip(self, n, g):
        p = make_probe(n, g, 0.4, 1.1)
        energy = abs(p.alpha) ** 2 + math.sinh(p.r) ** 2
        assert energy == pytest.approx(n, rel=1e-12, abs=1e-12)


class TestBogoliubovView:
    def test_vacuum(self):
        v = bogoliubov_view(make_probe(0.0, 0.0))
        assert (v.mu, v.nu, v.beta, v.eta, v.psi) == (1.0, 0.0, 0.0, 1.0, 0.0)

    def test_squeezed_vacuum_n3(self):
        v = bogoliubov_view(make_probe(3.0, 1.0))
        assert v.mu == pytest.approx(2.0, rel=1e-14)  # cosh(asinh(sqrt 3)) = 2
        assert v.nu == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert v.beta == 0
        assert v.eta == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-14)

    def test_coherent_n4(self):
        v = bogoliubov_view(make_probe(4.0, 0.0))
        assert v.mu == 1.0
        assert v.nu == 0.0
        assert v.beta == pytest.approx(2.0)
        assert v.eta == 1.0
        assert v.psi == 0.0

    @pytest.mark.parametrize("n,g,theta", [(1.0, 0.3, 0.7), (5.0, 0.8, 2.1), (0.2, 1.0, -1.0)])
    def test_hyperbolic_identity(self, n, g, theta):
        v = bogoliubov_view(make_probe(n, g, theta, 0.3))
        assert v.mu**2 - abs(v.nu) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_zero_phase_reduction(self):
        p = make_probe(2.0, 0.5)
        v = bogoliubov_view(p)
        assert v.beta.imag == 0.0
        assert v.beta.real == pytest.approx(p.alpha_mag * math.exp(p.r), rel=1e-14)
        assert v.eta == pytest.approx(math.exp(p.r), rel=1e-14)
        assert v.psi == 0.0

    def test_endpoint_continuity(self):
        # gamma -> 0 and gamma -> 1 limits join the special cases smoothly
        for n in (0.5, 4.0):
            near0 = bogoliubov_view(make_probe(n, 1e-14))
            coh = bogoliubov_view(make_probe(n, 0.0))
            assert near0.beta == pytest.approx(coh.beta, rel=1e-6)
            assert near0.eta == pytest.approx(coh.eta, rel=1e-6)
            near1 = bogoliubov_view(make_probe(n, 1.0 - 1e-14))
            sq = bogoliubov_view(make_probe(n, 1.0))
            assert abs(near1.beta - sq.beta) < 1e-6
            assert near1.eta == pytest.approx(sq.eta, rel=1e-6)
