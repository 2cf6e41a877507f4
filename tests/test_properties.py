"""Properties of the moment sums and the QFI assembly over random inputs."""

import contextlib
import io
import sys
import warnings

import mpmath
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nlprobe.cli import main  # noqa: E402
from nlprobe.errors import CancellationWarning  # noqa: E402
from nlprobe.moments import general_moments  # noqa: E402
from nlprobe.optimizer import OptTarget, TargetKind, objective  # noqa: E402
from nlprobe.probe import make_probe  # noqa: E402
from nlprobe.qfi_core import (  # noqa: E402
    ModelSpec,
    normal_law_grid,
    normal_law_qfi,
    qfi_lambda,
    qfi_matrix,
    qfi_zeta,
    scalar_bound_inverse,
)

seeded = settings(derandomize=True, deadline=None, max_examples=30, database=None)

gammas = st.floats(0.0, 1.0)
phases = st.floats(0.0, 6.3)
lambdas = st.floats(0.01, 10.0)
signs = st.sampled_from([+1, -1])
energies = st.floats(-4.0, 6.0).map(lambda e: 10.0**e)
targets = st.sampled_from(["f_lambda", "f_zeta", "joint"])


@seeded
@given(st.floats(1e-3, 10.0), gammas, st.integers(1, 8), lambdas, st.sampled_from(["f_lambda", "f_zeta"]))
def test_row_sums_match_general_phase_sum_on_the_real_axis(n, gamma, zeta, lam, kind):
    model = ModelSpec(lambda_eff=lam, zeta=zeta)
    fast = objective(gamma, n, OptTarget(TargetKind(kind), model))
    element = qfi_lambda if kind == "f_lambda" else qfi_zeta
    assert fast == pytest.approx(element(make_probe(n, gamma), model), rel=1e-12)


@seeded
@given(st.floats(0.0, 1e3), gammas, phases, phases, st.integers(1, 6), lambdas, signs)
def test_extended_qfi_matrix_is_positive_semidefinite(n, gamma, theta, phi, zeta, lam, sign):
    probe = make_probe(n, gamma, theta, phi)
    fm = qfi_matrix(probe, ModelSpec(lambda_eff=lam, zeta=zeta), beta_sign=sign, extended=True)
    assert fm.is_positive_semidefinite()


@seeded
@given(st.floats(0.0, 10.0), gammas, phases, phases, st.integers(1, 6), lambdas, signs)
def test_joint_bound_lies_between_zero_and_the_smaller_diagonal(n, gamma, theta, phi, zeta, lam, sign):
    fm = qfi_matrix(make_probe(n, gamma, theta, phi), ModelSpec(lambda_eff=lam, zeta=zeta), beta_sign=sign)
    bound = scalar_bound_inverse(fm)
    assert 0.0 <= bound <= min(fm.f_ll, fm.f_zz) * (1 + 1e-12)


@seeded
@given(st.floats(0.0, 10.0), gammas, st.integers(1, 6), st.sampled_from(["f_lambda", "f_zeta"]), st.booleans())
def test_scan_phase_prints_the_qfi_elements(n, gamma, zeta, target, extended):
    # double precision prints the normal-law elements, extended mode the
    # 40-digit moment sums
    argv = ["scan-phase", "--n", repr(n), "--gamma", repr(gamma), "--zeta", str(zeta),
            "--target", target, "--grid", "3"] + (["--extended"] if extended else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    element = qfi_lambda if target == "f_lambda" else qfi_zeta
    model = ModelSpec(lambda_eff=1.0, zeta=zeta)
    rows = [line.split(",") for line in out.getvalue().splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 9
    for theta, phi, value in rows:
        probe = make_probe(n, gamma, float(theta), float(phi))
        if extended:
            assert float(value) == element(probe, model, extended=True)
        else:
            assert float(value) == normal_law_qfi(probe, model)[0 if target == "f_lambda" else 1]


def _reference_moments(gamma, n, zeta, theta, phi, sign=+1, magnitude=False):
    """Moments M_0..M_(2 zeta) of the quadrature's normal law at 80 digits.

    mu = 2 eta Re(beta e^(i psi)) and sigma^2 = eta^2 from the Bogoliubov
    definitions (beta = mu_b alpha + sign nu conj(alpha), eta = |mu_b + nu|,
    psi = Arg(mu_b + conj(nu))), moments by M_k = mu M_(k-1) + (k-1) sigma^2 M_(k-2).
    With magnitude=True the mean is 2 eta |beta|, the size of the terms the
    moments are made of. Use the result inside mpmath.workdps(80).
    """
    g, n = mpmath.mpf(gamma), mpmath.mpf(n)
    r = mpmath.asinh(mpmath.sqrt(g * n))
    alpha = mpmath.sqrt((1 - g) * n) * mpmath.expj(mpmath.mpf(phi))
    mu_b, nu = mpmath.cosh(r), mpmath.expj(mpmath.mpf(theta)) * mpmath.sinh(r)
    eta = abs(mu_b + nu)
    beta = mu_b * alpha + sign * nu * mpmath.conj(alpha)
    mean = 2 * eta * (abs(beta) if magnitude else mpmath.re(beta * mpmath.expj(mpmath.arg(mu_b + mpmath.conj(nu)))))
    m = [mpmath.mpf(1), mean]
    for k in range(2, 2 * zeta + 1):
        m.append(mean * m[k - 1] + (k - 1) * eta**2 * m[k - 2])
    return m


def _reference_entries(gamma, n, zeta, lam, theta, phi, sign=+1, magnitude=False):
    """(f_ll, f_zz, f_lz) at 80 digits from _reference_moments."""
    with mpmath.workdps(80):
        m = _reference_moments(gamma, n, zeta, theta, phi, sign, magnitude)
        lz = mpmath.mpf(lam) * zeta  # an mpf: a float lambda zeta would round (lambda zeta)^2 differently
        return (
            4 * (m[2 * zeta] - m[zeta] ** 2),
            4 * lz**2 * (m[2 * zeta - 2] - m[zeta - 1] ** 2),
            4 * lz * (m[2 * zeta - 1] - m[zeta] * m[zeta - 1]),
        )


def _reference_objective(kind, gamma, n, zeta, lam, theta, phi, magnitude=False):
    """The objective at 80 digits from the normal law of the quadrature."""
    f_ll, f_zz, f_lz = _reference_entries(gamma, n, zeta, lam, theta, phi, magnitude=magnitude)
    if kind == "f_lambda":
        return f_ll
    if kind == "f_zeta":
        return f_zz
    with mpmath.workdps(80):
        return (f_ll * f_zz - f_lz**2) / (f_ll + f_zz)


def _check_against_reference(kind, gamma, n, zeta, lam, theta, phi):
    want = _reference_objective(kind, gamma, n, zeta, lam, theta, phi)
    target = OptTarget(TargetKind(kind), ModelSpec(lambda_eff=lam, zeta=zeta))
    if want > sys.float_info.max:
        with pytest.raises(OverflowError):
            objective(gamma, n, target, theta, phi)
        return
    got = objective(gamma, n, target, theta, phi)
    # the only rounding that does not scale with the result is in the mean,
    # whose terms are bounded by 2 eta |beta|: allow 1e-12 of the objective
    # on that magnitude law, which on the real axis is the objective itself
    scale = _reference_objective(kind, gamma, n, zeta, lam, theta, phi, magnitude=True)
    assert abs(got - want) <= 1e-12 * scale


@settings(seeded, max_examples=300)
@given(targets, gammas, energies, st.integers(1, 12), lambdas)
@example("joint", 0.0, 1e6, 12, 1.0)
@example("joint", 1.0, 1e6, 12, 1.0)
@example("f_lambda", 0.0, 1e-4, 1, 0.01)
@example("f_zeta", 1.0, 1e-4, 12, 10.0)
def test_objective_matches_80_digit_normal_law_on_the_real_axis(kind, gamma, n, zeta, lam):
    _check_against_reference(kind, gamma, n, zeta, lam, 0.0, 0.0)


@settings(seeded, max_examples=300)
@given(targets, gammas, energies, st.integers(1, 12), lambdas, phases, phases)
@example("joint", 0.0, 1e6, 12, 1.0, 3.0, 1.5)
@example("joint", 1.0, 1e6, 12, 1.0, 3.0, 1.5)
def test_objective_matches_80_digit_normal_law_at_any_phase(kind, gamma, n, zeta, lam, theta, phi):
    _check_against_reference(kind, gamma, n, zeta, lam, theta, phi)


@settings(seeded, max_examples=200)
@given(
    st.integers(1, 12),
    lambdas,
    energies,
    st.lists(gammas, min_size=1, max_size=4).map(lambda gs: [0.0, 1.0] + gs),
    st.lists(phases, min_size=1, max_size=3).map(lambda ts: [0.0] + ts),
    st.lists(phases, min_size=1, max_size=3).map(lambda ps: [0.0] + ps),
)
def test_grid_kernel_equals_the_point_evaluation(zeta, lam, n, gamma_list, theta_list, phi_list):
    model = ModelSpec(lambda_eff=lam, zeta=zeta)
    axes = (np.reshape(gamma_list, (-1, 1, 1)), np.reshape(theta_list, (-1, 1)), phi_list)
    points = [(g, t, p) for g in gamma_list for t in theta_list for p in phi_list]
    try:
        want = [normal_law_qfi(make_probe(n, *point), model) for point in points]
    except OverflowError as exc:  # the grid raises what the first failing point raises
        with pytest.raises(OverflowError) as info:
            normal_law_grid(n, *axes, model)
        assert str(info.value) == str(exc)
        return
    grid = normal_law_grid(n, *axes, model)
    assert all(entry.shape == (len(gamma_list), len(theta_list), len(phi_list)) for entry in grid)
    got = list(zip(*(entry.ravel().tolist() for entry in grid)))
    assert got == want


@settings(seeded, max_examples=40)
@given(st.floats(-4.0, 3.0).map(lambda e: 10.0**e), gammas, st.integers(1, 12), st.sampled_from(["f_lambda", "f_zeta"]))
@example(2.0, 0.5, 6, "f_lambda")
@example(0.0, 1.0, 2, "f_zeta")
def test_scan_phase_matches_the_80_digit_normal_law(n, gamma, zeta, target):
    argv = ["scan-phase", "--n", repr(n), "--gamma", repr(gamma), "--zeta", str(zeta),
            "--target", target, "--grid", "5"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 25
    for theta, phi, value in rows:
        want = _reference_objective(target, gamma, n, zeta, 1.0, float(theta), float(phi))
        assert abs(float(value) - want) <= 1e-12 * abs(want)


@settings(seeded, max_examples=200)
@given(gammas, energies, phases, phases, st.integers(1, 12), lambdas, signs)
@example(0.7, 1e3, 3.141592653589793, 1.5707963267948966, 12, 1.0, +1)
@example(0.8, 1e6, 0.0, 0.0, 3, 1.0, -1)
def test_double_qfi_matrix_and_moments_match_the_80_digit_normal_law(gamma, n, theta, phi, zeta, lam, sign):
    # both families, with the magnitude-law tolerance of the objective tests
    probe, model = make_probe(n, gamma, theta, phi), ModelSpec(lambda_eff=lam, zeta=zeta)
    want = _reference_entries(gamma, n, zeta, lam, theta, phi, sign)
    scale = _reference_entries(gamma, n, zeta, lam, theta, phi, sign, magnitude=True)
    got = qfi_matrix(probe, model, beta_sign=sign)
    for g, w, s in zip(got.as_tuple(), want, scale):
        assert abs(g - w) <= 1e-12 * s
    moments = general_moments(probe, range(2 * zeta + 1), beta_sign=sign)
    with mpmath.workdps(80):
        want_m = _reference_moments(gamma, n, zeta, theta, phi, sign)
        scale_m = _reference_moments(gamma, n, zeta, theta, phi, sign, magnitude=True)
    for k in range(2 * zeta + 1):
        assert abs(moments[k] - want_m[k]) <= 1e-12 * scale_m[k]


@seeded
@given(st.floats(0.0, 10.0), gammas, phases, phases, st.integers(1, 6), lambdas, signs)
def test_qfi_matrix_raises_no_cancellation_alarm_at_low_energy(n, gamma, theta, phi, zeta, lam, sign):
    with warnings.catch_warnings():
        warnings.simplefilter("error", CancellationWarning)
        qfi_matrix(make_probe(n, gamma, theta, phi), ModelSpec(lambda_eff=lam, zeta=zeta), beta_sign=sign)
