import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from nlprobe import fock_oracle
from nlprobe.errors import CutoffError, DomainError
from nlprobe.fock_oracle import (
    DIM_CAP,
    _k_eigh,
    _x_apply,
    _x_eigh,
    annihilation,
    build_state,
    converged_moments,
    default_dim,
    evolution_unitarity_defect,
    expectation_moment,
    expectation_moments,
    qfi_matrix_oracle,
    quadrature,
    sld_operator,
    zeta_derivative_diagnostic,
)
from nlprobe.probe import make_probe
from nlprobe.qfi_core import ModelSpec


class TestOperators:
    def test_annihilation_superdiagonal(self):
        a = annihilation(5).entries
        expected = np.zeros((5, 5), dtype=complex)
        for n in range(1, 5):
            expected[n - 1, n] = math.sqrt(n)
        assert np.array_equal(a, expected)

    @pytest.mark.parametrize("dim", [1, 2, 64])
    def test_operators_are_complex128(self, dim):
        assert annihilation(dim).entries.dtype == np.complex128
        assert quadrature(dim).entries.dtype == np.complex128

    @pytest.mark.parametrize("dim", [0, -1])
    def test_empty_cutoff_rejected(self, dim):
        with pytest.raises(DomainError, match="cutoff must be >= 1"):
            annihilation(dim)
        with pytest.raises(DomainError, match="cutoff must be >= 1"):
            quadrature(dim)
        # build_state raised IndexError (dim 0) or numpy's ValueError (dim -1)
        with pytest.raises(DomainError, match="cutoff must be >= 1"):
            build_state(make_probe(1.0, 0.5), dim)

    def test_quadrature_hermitian_exactly(self):
        x = quadrature(64).entries
        assert np.array_equal(x, x.conj().T)

    @pytest.mark.parametrize("dim", [1, 2, 64, 127])
    def test_stencil_is_the_textbook_formula_bit_for_bit(self, dim):
        # (X v)_n = sqrt(n) v_(n-1) + sqrt(n+1) v_(n+1)
        rng = np.random.default_rng(dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        expected = np.zeros(dim, dtype=complex)
        for n in range(dim):
            if n >= 1:
                expected[n] += math.sqrt(n) * v[n - 1]
            if n + 1 < dim:
                expected[n] += math.sqrt(n + 1) * v[n + 1]
        got = _x_apply(v)
        assert got.dtype == np.complex128
        assert all(g == e for g, e in zip(got.tolist(), expected.tolist()))


class TestBuildState:
    def test_vacuum(self):
        s = build_state(make_probe(0.0, 0.0), 16)
        assert s.amplitudes[0] == pytest.approx(1.0)
        assert np.max(np.abs(s.amplitudes[1:])) == 0.0

    def test_squeezed_vacuum_even_support(self):
        s = build_state(make_probe(1.0, 1.0), 128)
        odd = np.abs(s.amplitudes[1::2])
        assert np.max(odd) < 1e-12

    def test_coherent_poisson_weights(self):
        s = build_state(make_probe(1.0, 0.0), 32)
        probs = np.abs(s.amplitudes) ** 2
        for n in range(8):
            assert probs[n] == pytest.approx(math.exp(-1.0) / math.factorial(n), rel=1e-9)

    def test_cutoff_too_small_raises_with_suggestion(self):
        with pytest.raises(CutoffError) as info:
            build_state(make_probe(30.0, 0.7), 32)
        assert info.value.suggested_dim == 64

    def test_norm_is_one(self):
        s = build_state(make_probe(2.0, 0.5, 1.0, 0.3), 128)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "n,gamma,theta,phi,dim",
        [
            (2.0, 0.0, 0.0, 1.1, 64),  # coherent
            (6.0, 0.0, 0.0, -7.5, 128),
            (1.0, 1.0, 0.9, 0.0, 128),  # squeezed vacuum
            (2.0, 1.0, 9.0, 0.0, 256),
            (3.0, 0.5, 2.0, -1.0, 256),  # mixed
            (4.0, 0.4, 13.0, 8.0, 512),
        ],
    )
    def test_matches_dense_exponentials_of_truncated_generators(self, n, gamma, theta, phi, dim):
        from scipy.linalg import expm

        probe = make_probe(n, gamma, theta, phi)
        a = annihilation(dim).entries
        ad = a.conj().T
        xi, alpha = probe.xi, probe.alpha
        squeezed = expm(0.5 * (xi * ad @ ad - np.conj(xi) * a @ a))[:, 0]
        expected = expm(alpha * ad - np.conj(alpha) * a) @ squeezed
        got = build_state(probe, dim).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("n,phi", [(1.0, 0.4), (0.3, -9.0), (0.7, 20.0)])
    def test_coherent_textbook_amplitudes(self, n, phi):
        # e^(-|alpha|^2/2) alpha^k / sqrt(k!) by the recurrence c_k = c_(k-1) alpha / sqrt(k)
        dim = 256
        alpha = math.sqrt(n) * cmath.exp(1j * phi)
        expected = np.empty(dim, dtype=complex)
        expected[0] = math.exp(-n / 2)
        for k in range(1, dim):
            expected[k] = expected[k - 1] * alpha / math.sqrt(k)
        got = build_state(make_probe(n, 0.0, 0.0, phi), dim).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("n,theta", [(1.0, 0.4), (0.3, 8.0), (1.0, -3.0)])
    def test_squeezed_vacuum_textbook_amplitudes(self, n, theta):
        # S(xi) = exp((xi a^dag^2 - xi* a^2)/2) gives
        # <2m|S|0> = (e^(i theta) tanh r)^m sqrt((2m)!) / (2^m m!) / sqrt(cosh r);
        # at cutoff 128 truncation alone moves N = 1 by 4e-11
        dim = 256
        r = math.asinh(math.sqrt(n))
        t = math.tanh(r)
        expected = np.zeros(dim, dtype=complex)
        for m in range(dim // 2):
            expected[2 * m] = (
                t**m * cmath.exp(1j * theta * m) * math.sqrt(math.comb(2 * m, m)) / 2**m / math.sqrt(math.cosh(r))
            )
        got = build_state(make_probe(n, 1.0, theta, 0.0), dim).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "n,gamma,dim",
        [(30.0, 0.0, 64), (1.0, 1.0, 64), (12.0, 1.0, 128), (60.0, 0.5, 256)],
    )
    def test_heavy_tail_raises_with_doubled_cutoff(self, n, gamma, dim):
        with pytest.raises(CutoffError) as info:
            build_state(make_probe(n, gamma, 0.7, 2.1), dim)
        assert info.value.suggested_dim == 2 * dim


class TestMoments:
    def test_vacuum_moments_double_factorial(self):
        s = build_state(make_probe(0.0, 0.0), 32)
        assert expectation_moment(s, 2) == pytest.approx(1.0, rel=1e-12)
        assert expectation_moment(s, 6) == pytest.approx(15.0, rel=1e-12)

    def test_coherent_second_moment(self):
        s = build_state(make_probe(1.0, 0.0), 64)
        assert expectation_moment(s, 2) == pytest.approx(5.0, rel=1e-10)

    def test_batch_matches_scalar(self):
        s = build_state(make_probe(1.5, 0.6), 128)
        batch = expectation_moments(s, 6)
        for k in range(7):
            assert batch[k] == expectation_moment(s, k)

    def test_converged_moments_stability(self):
        p = make_probe(3.0, 0.5, math.pi / 3, math.pi / 3)
        m = converged_moments(p, 12)
        m_hi = expectation_moments(build_state(p, 1024), 12)
        assert np.max(np.abs(m - m_hi) / np.maximum(1.0, np.abs(m_hi))) < 1e-9

    @pytest.mark.parametrize("k_max", [-1, -2])
    def test_negative_order_rejected(self, k_max):
        # IndexError or numpy's ValueError before
        s = build_state(make_probe(1.0, 0.5), 64)
        for call in (
            lambda: expectation_moment(s, k_max),
            lambda: expectation_moments(s, k_max),
            lambda: converged_moments(make_probe(1.0, 0.5), k_max),
            lambda: converged_moments(make_probe(1e6, 0.5), k_max),  # no cutoff below DIM_CAP
        ):
            with pytest.raises(DomainError, match="moment order must be >= 0"):
                call()

    def test_default_dim_power_of_two_floor(self):
        d = default_dim(make_probe(0.1, 0.5))
        assert d == 64
        d2 = default_dim(make_probe(3.0, 0.5), zeta=12)
        assert d2 >= 128 and (d2 & (d2 - 1)) == 0


class TestQfiOracle:
    def test_vacuum_linear_order(self):
        fm = qfi_matrix_oracle(make_probe(0.0, 0.0), ModelSpec(lambda_eff=0.3, zeta=1))
        assert fm.f_ll == pytest.approx(4.0, rel=1e-9)
        assert fm.f_zz == pytest.approx(0.0, abs=1e-9)

    def test_coherent_quadratic_order(self):
        fm = qfi_matrix_oracle(make_probe(1.0, 0.0), ModelSpec(lambda_eff=1.0, zeta=2))
        assert fm.f_ll == pytest.approx(72.0, rel=1e-9)
        assert fm.f_zz == pytest.approx(16.0, rel=1e-9)
        assert fm.f_lz == pytest.approx(32.0, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("zeta", [1, 2, 3])
    def test_uhlmann_vanishes(self, gamma, zeta):
        fm = qfi_matrix_oracle(make_probe(1.0, gamma, 0.4, 0.8), ModelSpec(lambda_eff=0.2, zeta=zeta))
        assert abs(fm.u_lz) <= 1e-10

    def test_start_that_does_not_build_is_skipped(self, monkeypatch):
        # the doubling skips cutoffs whose state fails the tail-mass bound
        p, m = make_probe(12.0, 1.0, 0.3, 0.0), ModelSpec(lambda_eff=0.1, zeta=2)
        first = 32
        with pytest.raises(CutoffError):
            build_state(p, first)
        while True:
            first *= 2
            try:
                build_state(p, first)
                break
            except CutoffError:
                pass

        def oracle_from(start):
            monkeypatch.setattr(fock_oracle, "default_dim", lambda *args, **kwargs: start)
            return qfi_matrix_oracle(p, m)

        assert oracle_from(32) == oracle_from(first)

    def test_unitarity_on_guarded_block(self):
        defect = evolution_unitarity_defect(ModelSpec(lambda_eff=0.1, zeta=2), 256)
        assert defect <= 1e-9


def _unreachable(*args):
    raise AssertionError(f"built at {args[1:]}")


class TestCutoffCap:
    # N = 1e6 has a default cutoff above DIM_CAP, so no cutoff is tried; both
    # said "... did not stabilize below dim=4096" before they raised at the start
    def test_moments(self, monkeypatch):
        monkeypatch.setattr(fock_oracle, "build_state", _unreachable)
        with pytest.raises(CutoffError, match=r"^moments for k_max=4: start cutoff 8388608 is above DIM_CAP=4096$") as info:
            converged_moments(make_probe(1e6, 0.5), 4)
        assert info.value.suggested_dim == 2 * DIM_CAP

    def test_qfi(self, monkeypatch):
        monkeypatch.setattr(fock_oracle, "_derivative_vectors", _unreachable)
        with pytest.raises(CutoffError, match=r"^oracle QFI: start cutoff 8388608 is above DIM_CAP=4096$") as info:
            qfi_matrix_oracle(make_probe(1e6, 0.5), ModelSpec(lambda_eff=1.0, zeta=2))
        assert info.value.suggested_dim == 2 * DIM_CAP


class TestIndependence:
    def test_imports_nothing_of_the_closed_forms(self):
        # the oracle checks the closed forms only if it shares no code with them
        tree = ast.parse(Path(fock_oracle.__file__).read_text())
        package = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not [a.name for a in node.names if a.name.split(".")[0] == "nlprobe"]
            elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("nlprobe")):
                module = (node.module or "").removeprefix("nlprobe").lstrip(".")
                package.setdefault(module, set()).update(a.name for a in node.names)
        assert set(package) == {"errors", "probe", "qfi_core"}
        assert package["probe"] == {"ProbeSpec"}
        assert package["qfi_core"] == {"ModelSpec", "QfiMatrix"}


class TestSpectralCaches:
    def test_quadrature_decomposition_at_large_cutoff(self):
        dim = 1024
        evals, vecs = _x_eigh(dim)
        x = quadrature(dim).entries
        rebuilt = (vecs * evals) @ vecs.T
        assert np.max(np.abs(rebuilt - x)) <= 1e-12 * np.max(np.abs(evals))
        assert evolution_unitarity_defect(ModelSpec(lambda_eff=0.1, zeta=2), dim) <= 1e-12

    @pytest.mark.parametrize("dim", [64, 127, 1024])
    def test_squeezing_generator_decomposition_on_even_states(self, dim):
        a = annihilation(dim).entries
        k = (0.5 * (a @ a + a.conj().T @ a.conj().T)).real
        evals, vecs = _k_eigh(dim)
        rebuilt = (vecs * evals) @ vecs.T
        assert np.max(np.abs(rebuilt - k[0::2, 0::2])) <= 1e-12 * np.max(np.abs(evals))
        # K never couples even and odd states
        assert np.max(np.abs(k[0::2, 1::2])) == 0.0


class TestSld:
    def test_traceless_against_state(self):
        p = make_probe(0.0, 0.0)
        m = ModelSpec(lambda_eff=1e-12, zeta=1)
        sld = sld_operator(p, m)
        psi = build_state(p, sld.dim).amplitudes
        # Tr[rho L] = d/d(lambda) Tr[rho] = 0 for any pure model
        val = np.real(np.vdot(psi, sld.entries @ psi))
        assert abs(val) < 1e-9

    @pytest.mark.parametrize(
        "n,gamma,zeta",
        [(1.0, 0.0, 2), (1.0, 1.0, 2), (1.0, 0.0, 3), (1.0, 1.0, 3)],
    )
    def test_trace_consistency_with_qfi(self, n, gamma, zeta):
        from scipy.linalg import expm

        p = make_probe(n, gamma)
        m = ModelSpec(lambda_eff=0.1, zeta=zeta)
        sld = sld_operator(p, m)
        x = quadrature(sld.dim).entries
        u = expm(-1j * m.lambda_eff * np.linalg.matrix_power(x, zeta))
        psi = u @ build_state(p, sld.dim).amplitudes
        tr = np.real(np.vdot(psi, sld.entries @ (sld.entries @ psi)))
        f_ll = qfi_matrix_oracle(p, m).f_ll
        assert tr == pytest.approx(f_ll, rel=1e-6)

    def test_squeezed_vacuum_closed_form(self):
        # 4(3 e^{4r} - e^{4r}) = 8 e^{4r} with sinh r = 1
        p = make_probe(1.0, 1.0)
        m = ModelSpec(lambda_eff=0.1, zeta=2)
        expected = 8.0 * (1.0 + math.sqrt(2.0)) ** 4
        assert qfi_matrix_oracle(p, m).f_ll == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "n,gamma,theta,phi,zeta,lam",
        [
            (1.0, 0.0, 0.0, 0.4, 1, 0.3),  # coherent
            (1.0, 1.0, 0.9, 0.0, 2, 0.1),  # squeezed vacuum
            (12.0, 1.0, 0.3, 0.0, 1, 0.1),  # default cutoff too small: doubles
            (2.0, 0.5, 0.7, 1.3, 3, 0.05),  # mixed, general phases
            (0.5, 0.3, -1.0, 2.0, 4, 0.02),
        ],
    )
    def test_matches_dense_commutator(self, n, gamma, theta, phi, zeta, lam):
        # -2i U [G, rho_0] U^dag with dense G = X^zeta and U from the eigenbasis of X
        p, m = make_probe(n, gamma, theta, phi), ModelSpec(lambda_eff=lam, zeta=zeta)
        dim = default_dim(p, zeta=2 * zeta, lam=lam)
        while True:
            try:
                psi0 = build_state(p, dim).amplitudes
                break
            except CutoffError:
                dim *= 2
        gz = np.linalg.matrix_power(quadrature(dim).entries, zeta)
        rho0 = np.outer(psi0, psi0.conj())
        evals, vecs = _x_eigh(dim)
        u = (vecs * np.exp(-1j * lam * evals**zeta)) @ vecs.T
        expected = -2j * (u @ (gz @ rho0 - rho0 @ gz) @ u.conj().T)
        sld = sld_operator(p, m)
        assert sld.dim == dim
        assert np.max(np.abs(sld.entries - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_doubles_from_the_default_and_stops_at_the_cap(self, monkeypatch):
        # the state fits from 256 on; every cutoff up to DIM_CAP is tried, and none above it
        probe, model = make_probe(1.0, 0.5), ModelSpec(lambda_eff=0.1, zeta=2)
        real, tried = fock_oracle._derivative_vectors, []

        def fits_from(first):
            def derivative_vectors(p, m, dim):
                tried.append(dim)
                if dim < first:
                    raise CutoffError(f"too small at dim={dim}", suggested_dim=2 * dim)
                return real(p, m, dim)

            return derivative_vectors

        with monkeypatch.context() as patch:
            patch.setattr(fock_oracle, "_derivative_vectors", fits_from(256))
            assert sld_operator(probe, model).dim == 256
            assert tried == [64, 128, 256]
            tried.clear()
            patch.setattr(fock_oracle, "_derivative_vectors", fits_from(2 * DIM_CAP))
            with pytest.raises(CutoffError, match=r"^SLD needs a cutoff of at least 8192, above DIM_CAP=4096$") as exc:
                sld_operator(probe, model)
        assert tried == [64, 128, 256, 512, 1024, 2048, 4096]
        assert exc.value.suggested_dim == 8192

    def test_hermitian(self):
        sld = sld_operator(make_probe(1.0, 0.5), ModelSpec(lambda_eff=0.1, zeta=2))
        assert np.max(np.abs(sld.entries - sld.entries.conj().T)) <= 1e-9

    def test_default_cutoff_above_the_cap_raises_before_any_state(self, monkeypatch):
        # default_dim is 8192 here: a 512 MB eigenvector matrix and a 1 GB SLD
        probe, model = make_probe(600.0, 0.5), ModelSpec(0.1, 2)
        assert default_dim(probe, zeta=4, lam=0.1) == 8192 > DIM_CAP

        def unreachable(*args):
            raise AssertionError(f"_derivative_vectors{args[2:]} called")

        with monkeypatch.context() as patch:
            patch.setattr(fock_oracle, "_derivative_vectors", unreachable)
            with pytest.raises(CutoffError, match="above DIM_CAP=4096") as exc:
                sld_operator(probe, model)
        assert exc.value.suggested_dim == 8192
        # the selftest's SLD keeps its cutoff
        assert sld_operator(make_probe(1.0, 0.5), ModelSpec(lambda_eff=0.1, zeta=2)).dim == 64


class TestZetaDerivativeDiagnostic:
    def test_default_cutoff_above_the_cap_raises_before_any_build(self, monkeypatch):
        # default_dim is 8192 here: _x_eigh(8192) alone is a 512 MB eigenvector matrix
        probe, model = make_probe(600.0, 0.5), ModelSpec(0.1, 2)
        assert default_dim(probe, zeta=4, lam=0.1) == 8192 > DIM_CAP

        def unreachable(*args):
            raise AssertionError(f"built at {args}")

        with monkeypatch.context() as patch:
            patch.setattr(fock_oracle, "_x_eigh", unreachable)
            patch.setattr(fock_oracle, "build_state", unreachable)
            with pytest.raises(CutoffError, match="above DIM_CAP=4096") as exc:
                zeta_derivative_diagnostic(probe, model)
        assert exc.value.suggested_dim == 8192

    def test_reports_disagreement_without_asserting(self):
        d = zeta_derivative_diagnostic(make_probe(1.0, 0.5), ModelSpec(lambda_eff=0.1, zeta=2))
        assert set(d) == {"f_zz_power_rule", "f_zz_spectral_log", "relative_difference"}
        assert d["f_zz_power_rule"] > 0
        # the two derivative readings genuinely differ; we only record by how much
        assert d["relative_difference"] >= 0

    @pytest.mark.parametrize(
        "probe, model",
        [
            (make_probe(1.0, 0.5), ModelSpec(lambda_eff=0.1, zeta=2)),
            (make_probe(2.0, 0.3, 0.4, 1.1), ModelSpec(lambda_eff=0.05, zeta=3)),
            (make_probe(0.5, 1.0), ModelSpec(lambda_eff=0.2, zeta=2)),
        ],
    )
    def test_spectral_log_matches_dense_exponential_of_generator(self, probe, model):
        # reference: exp(-i lam G) psi0 with the dense generator G = V diag(X^zeta) V^T
        from scipy.linalg import expm

        dim, step = default_dim(probe, zeta=2 * model.zeta, lam=model.lambda_eff), 1e-5
        evals, vecs = _x_eigh(dim)
        psi0 = build_state(probe, dim).amplitudes

        def psi_of(zeta_val):
            gen = (vecs * np.power(evals.astype(complex), zeta_val)) @ vecs.T
            return expm(-1j * model.lambda_eff * gen) @ psi0

        d_zeta = (psi_of(model.zeta + step) - psi_of(model.zeta - step)) / (2.0 * step)
        psi = psi_of(model.zeta)
        psi = psi / np.linalg.norm(psi)
        overlap = np.vdot(d_zeta, psi)
        expected = 4.0 * float(np.real(np.vdot(d_zeta, d_zeta) - overlap * overlap.conjugate()))
        got = zeta_derivative_diagnostic(probe, model)["f_zz_spectral_log"]  # at default_dim
        assert got == pytest.approx(expected, rel=1e-9)


class TestDeterminism:
    def test_repeated_calls_agree_bit_for_bit_and_keep_the_global_rng(self):
        # the oracle is deterministic and must leave numpy's global generator as it found it
        probe = make_probe(1.5, 0.45, 2.0, 1.0)
        before = np.random.get_state()
        runs = [converged_moments(probe, 8) for _ in range(3)]
        after = np.random.get_state()
        assert all(np.array_equal(runs[0], run) for run in runs[1:])
        assert before[0] == after[0] and np.array_equal(before[1], after[1]) and before[2:] == after[2:]
