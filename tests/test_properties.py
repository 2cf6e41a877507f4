"""Properties of the moment sums and the QFI assembly over random inputs."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nlprobe.cli import main  # noqa: E402
from nlprobe.optimizer import OptTarget, TargetKind, objective  # noqa: E402
from nlprobe.probe import make_probe  # noqa: E402
from nlprobe.qfi_core import ModelSpec, qfi_lambda, qfi_matrix, qfi_zeta, scalar_bound_inverse  # noqa: E402

seeded = settings(derandomize=True, deadline=None, max_examples=30, database=None)

gammas = st.floats(0.0, 1.0)
phases = st.floats(0.0, 6.3)
lambdas = st.floats(0.01, 10.0)
signs = st.sampled_from([+1, -1])


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
        assert float(value) == element(probe, model, extended=extended)
