"""Properties of the moment sums and the QFI assembly over random inputs."""

import contextlib
import io
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest

import mp_reference

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nlprobe.cli import main  # noqa: E402
from nlprobe.moments import _normal_law, general_moments  # noqa: E402
from nlprobe.optimizer import _ENTRY, OptTarget, TargetKind, objective  # noqa: E402
from nlprobe.probe import make_probe  # noqa: E402
from nlprobe.qfi_core import (  # noqa: E402
    OVERFLOW,
    ModelSpec,
    _normal_law_kernel,
    _normal_law_table,
    normal_law_grid,
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
# half of them where some entry or u^(zeta-2) overflows at the larger orders
energies_to_overflow = st.one_of(energies, st.floats(6.0, 300.0).map(lambda e: 10.0**e))
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
def test_40_digit_qfi_matrix_is_positive_semidefinite(n, gamma, theta, phi, zeta, lam, sign):
    probe = make_probe(n, gamma, theta, phi)
    fm = mp_reference.qfi_matrix(probe, ModelSpec(lambda_eff=lam, zeta=zeta), beta_sign=sign)
    assert fm.is_positive_semidefinite()


@seeded
@given(st.floats(0.0, 10.0), gammas, phases, phases, st.integers(1, 6), lambdas, signs)
def test_joint_bound_lies_between_zero_and_the_smaller_diagonal(n, gamma, theta, phi, zeta, lam, sign):
    fm = qfi_matrix(make_probe(n, gamma, theta, phi), ModelSpec(lambda_eff=lam, zeta=zeta), beta_sign=sign)
    bound = scalar_bound_inverse(fm)
    assert 0.0 <= bound <= min(fm.f_ll, fm.f_zz) * (1 + 1e-12)


@seeded
@given(st.floats(0.0, 10.0), gammas, st.integers(1, 6), st.sampled_from(["f_lambda", "f_zeta"]))
def test_scan_phase_prints_the_qfi_elements(n, gamma, zeta, target):
    # the normal-law elements, which the same polynomials evaluated at 40
    # digits confirm
    argv = ["scan-phase", "--n", repr(n), "--gamma", repr(gamma), "--zeta", str(zeta),
            "--target", target, "--grid", "3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    k = 0 if target == "f_lambda" else 1
    model = ModelSpec(lambda_eff=1.0, zeta=zeta)
    rows = [line.split(",") for line in out.getvalue().splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 9
    for theta, phi, value in rows:
        probe = make_probe(n, gamma, float(theta), float(phi))
        assert float(value) == _normal_law_kernel(n, float(theta), float(phi), model, entry=k)(gamma)
        assert float(value) == pytest.approx(mp_reference.probe_qfi(probe, model, +1, (k,))[0], rel=1e-13, abs=0)


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
    # the kernel of optimizer.objective, which fixes the phases at 0
    want = _reference_objective(kind, gamma, n, zeta, lam, theta, phi)
    kernel = _normal_law_kernel(n, theta, phi, ModelSpec(lambda_eff=lam, zeta=zeta), entry=_ENTRY[TargetKind(kind)])
    if want > sys.float_info.max:
        with pytest.raises(OverflowError):
            kernel(gamma)
        return
    got = kernel(gamma)
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
    energies_to_overflow,
    st.lists(gammas, min_size=1, max_size=4).map(lambda gs: [0.0, 1.0] + gs),
    st.lists(phases, min_size=1, max_size=3).map(lambda ts: [0.0] + ts),
    st.lists(phases, min_size=1, max_size=3).map(lambda ps: [0.0] + ps),
)
@example(12, 1.0, 1e300, [0.0, 1.0], [0.0], [0.0])  # u^(zeta-2) overflows at gamma = 0
@example(1, 1.0, 1e300, [1.0, 0.0], [0.0], [0.0])  # u^(-1); f_zz and f_lz are 0
@example(6, 1.0, 1e30, [1.0, 0.0, 0.5], [0.0, 3.0], [0.0, 1.5])  # every entry fits at gamma 1 and 0, none at 0.5
@example(3, 1e200, 1.0, [0.0, 1.0], [0.0], [0.0])  # (lambda zeta)^2 overflows: f_zz does not fit
@example(2, 1e154, 1e307, [0.0, 0.5], [0.0], [0.0])  # u V near an overflowing (lambda zeta)^2, then past the range
def test_grid_kernel_equals_the_point_evaluation(zeta, lam, n, gamma_list, theta_list, phi_list):
    # every entry of the grid is the one-entry scalar kernel at each point,
    # on both sides of x = 1 (gamma = 1 has mean 0, gamma = 0 at N > 1/4 has
    # x > 1): the same formulas (_ENTRIES) on numpy's normal law and Horner
    # sums; where a point does not fit, the grid raises the error that a
    # loop over the points and entries in C order meets first
    model, entries = ModelSpec(lambda_eff=lam, zeta=zeta), (0, 1, 2, 3)
    axes = (np.reshape(gamma_list, (-1, 1, 1)), np.reshape(theta_list, (-1, 1)), phi_list)
    points = [(g, t, p) for g in gamma_list for t in theta_list for p in phi_list]
    try:
        want = [tuple(_normal_law_kernel(n, t, p, model, entry=k)(g) for k in entries) for g, t, p in points]
    except ArithmeticError as exc:
        with pytest.raises(type(exc)) as info:
            normal_law_grid(n, *axes, model, entries=entries)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    grid = normal_law_grid(n, *axes, model, entries=entries)
    assert all(entry.shape == (len(gamma_list), len(theta_list), len(phi_list)) for entry in grid)
    got = list(zip(*(entry.ravel().tolist() for entry in grid)))
    assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in want]


def _entries_by_formula(n, gamma, theta, phi, model, sign):
    """The four entries from the formulas of qfi_core._ENTRIES on floats,
    outside the scalar kernel (mp_reference.assemble over the double
    coefficient table); inf where u^(zeta-2) overflows float **, as the
    kernel takes it."""
    mean, var = _normal_law(n, gamma, theta, phi, sign)
    args = (mean, var, model.lambda_eff * model.zeta, model.zeta, _normal_law_table(model.zeta))
    try:
        return mp_reference.assemble(*args, range(4))
    except OverflowError:
        return [math.inf] * 4


@settings(seeded, max_examples=300)
@given(
    st.integers(1, 12),
    st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    energies_to_overflow,
    st.lists(gammas, min_size=1, max_size=4).map(lambda gs: [0.0, 1.0] + gs),
    phases,
    phases,
    signs,
    st.integers(0, 3),
)
@example(12, 1.0, 1e6, [0.0, 0.5, 1.0], 0.0, 0.0, +1, 3)
@example(1, 0.01, 1e-4, [0.0, 1.0], 3.0, 1.5, -1, 1)
@example(12, 1.0, 1e300, [0.0, 1.0], 0.0, 0.0, -1, 0)  # u^(zeta-2) overflows at gamma = 0
@example(2, 19.048891397772485, 2.0, [0.3, 0.5], 0.0, 0.0, +1, 1)  # (lambda zeta) ** 2 is not lz * lz here
@example(12, 1e85, 1e10, [0.0, 1.0], 0.0, 0.0, +1, 3)  # (lambda zeta)^2 once overflowed the bound's numerator
@example(3, 0.0, 2.0, [0.0, 1.0, 0.3], 0.7, 0.2, +1, 3)  # lambda = 0: the bound is 0, with no division by lz2
@example(1, 1e200, 1.0, [0.0, 1.0], 0.0, 0.0, +1, 3)  # (lambda zeta)^2 overflows: 0 at zeta = 1, not 0 / 0
@example(3, 1e200, 1.0, [0.0, 1.0, 0.4], 0.3, 0.8, +1, 3)  # ... and the bound takes its limit
@example(12, 1e200, 1e10, [0.0, 1.0], 0.0, 0.0, -1, 3)
@example(2, 1e154, 1e307, [0.0, 0.5], 0.0, 0.0, +1, 3)  # u V near an overflowing (lambda zeta)^2, then past the range
def test_selected_entry_equals_the_full_kernel_bit_for_bit(zeta, lam, n, gamma_list, theta, phi, sign, k):
    # the one-entry scalar kernel is entry k of the shared formulas
    # (_ENTRIES) evaluated for all four entries at once, in both families,
    # and where that entry does not fit it raises OVERFLOW; the grid's
    # table of one entry is that of all four and of (0, 1, 3)
    model = ModelSpec(lambda_eff=lam, zeta=zeta)
    kernel = _normal_law_kernel(n, theta, phi, model, sign, entry=k)
    full = [_entries_by_formula(n, g, theta, phi, model, sign) for g in gamma_list]
    for g, want in zip(gamma_list, full):
        if math.isfinite(want[k]):
            assert kernel(g).hex() == want[k].hex()
        else:
            with pytest.raises(OverflowError, match=f"^{re.escape(OVERFLOW)}$"):
                kernel(g)
    if not all(math.isfinite(v) for v in full[0]):
        return
    full_40 = mp_reference.kernel(n, gamma_list[0], theta, phi, model, sign)
    assert mp_reference.kernel(n, gamma_list[0], theta, phi, model, sign, entries=(k,)) == [full_40[k]]
    if sign > 0 and all(math.isfinite(v) for want in full for v in want):  # the table holds the default family
        full_grid = normal_law_grid(n, gamma_list, theta, phi, model, entries=(0, 1, 2, 3))
        (table,) = normal_law_grid(np.array([[n]]), gamma_list, theta, phi, model, entries=(k,))
        assert table.shape == (1, len(gamma_list))
        assert table.ravel().tolist() == full_grid[k].tolist() == [want[k] for want in full]
        if k != 2:
            assert table.ravel().tolist() == normal_law_grid(n, gamma_list, theta, phi, model, entries=(0, 1, 3))[(0, 1, None, 2)[k]].tolist()


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
    # both families, in double precision and at 40 digits, with the
    # magnitude-law tolerance of the objective tests
    probe, model = make_probe(n, gamma, theta, phi), ModelSpec(lambda_eff=lam, zeta=zeta)
    want = _reference_entries(gamma, n, zeta, lam, theta, phi, sign)
    scale = _reference_entries(gamma, n, zeta, lam, theta, phi, sign, magnitude=True)
    for got in (qfi_matrix(probe, model, beta_sign=sign), mp_reference.qfi_matrix(probe, model, beta_sign=sign)):
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
        warnings.simplefilter("error")
        qfi_matrix(make_probe(n, gamma, theta, phi), ModelSpec(lambda_eff=lam, zeta=zeta), beta_sign=sign)


def _check_entries_relative(points, zeta, lam=1.0):
    """f_ll, f_zz and f_lz of the scalar kernel and of normal_law_grid at
    each (N, gamma, theta, phi) of points within 1e-12 of the 80-digit
    normal law, relative to each entry itself."""
    model = ModelSpec(lambda_eff=lam, zeta=zeta)
    grid = normal_law_grid(*(np.array(axis) for axis in zip(*points)), model, entries=(0, 1, 2))
    for i, (n, gamma, theta, phi) in enumerate(points):
        want = _reference_entries(gamma, n, zeta, lam, theta, phi)
        kernel = [_normal_law_kernel(n, theta, phi, model, entry=k)(gamma) for k in range(3)]
        for got in (kernel, [entry[i] for entry in grid]):
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (n, gamma, theta, phi, zeta)


@pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-3, -1e-3])
def test_entries_keep_their_digits_where_the_mean_is_small(delta):
    # near phi = theta/2 + pi/2 the default family's mean is small next to
    # its terms, and E multiplied the rounding of theta/2 - phi: f_lz was off
    # by up to 256 %, f_ll and f_zz by up to 7e-9 at N <= 1e7
    points = [
        (n, gamma, theta, 0.5 * theta + math.pi / 2 + delta)
        for n in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7)
        for gamma in (0.3, 0.7715140665366023)
        for theta in (0.2621530019113677, 1.3, 2.9, 4.4)
    ]
    for zeta in (2, 3, 5, 8, 12):
        _check_entries_relative(points, zeta)


def test_entries_keep_their_digits_at_the_small_mean_probe():
    # f_lz was 110 % off here
    _check_entries_relative([(14567509.29699417, 0.7715140665366023, 0.2621530019113677, 1.7018728277505804)], 12)
