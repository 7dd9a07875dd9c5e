import numpy as np
import pytest

from rfbs import gradsuite, ops
from rfbs.errors import NumericsError, ShapeError

from conftest import rand_f64


def test_op_level_suite_passes():
    for report in gradsuite.op_checks():
        assert report.passed, (
            f"{report.op}: max rel error {report.max_rel_error:.3e} "
            f"> {report.tolerance:.1e}"
        )
        assert report.tolerance == 1e-6


def test_negative_control_fails():
    report = gradsuite.corrupted_conv_check()
    assert not report.passed
    assert report.max_rel_error > 1e-2


def test_network_check_passes():
    from rfbs import model

    report = gradsuite.network_check()
    assert report.passed, f"network max rel error {report.max_rel_error:.3e}"
    assert report.tolerance == 1e-5
    # every parameter tensor contributed coordinates
    n_params = len(model.init_params(model.build_rfbsnet_desk(), seed=0))
    assert len(report.per_input) == n_params


def test_network_check_passes_at_full_scale():
    # `rfbs gradcheck --scale full`: 24 coordinates per tensor, 625 in all
    report = gradsuite.network_check(coords_per_tensor=24)
    assert report.passed, f"network max rel error {report.max_rel_error:.3e}"
    assert report.coords_checked == 625


def test_grad_check_requires_f64():
    x = np.zeros((1, 1, 2, 2), np.float32)

    def f(x_):
        return x_

    def vjp(x_, up):
        return (up,)

    with pytest.raises(ShapeError):
        ops.grad_check("identity", f, vjp, [x], ["x"])


def test_grad_check_refuses_non_finite_forward():
    x = rand_f64((1, 1, 2, 2), seed=63)
    with pytest.raises(NumericsError, match="non-finite forward output"):
        ops.grad_check("nan", lambda x_: x_ * np.nan, lambda x_, up: (up,), [x], ["x"])


def test_grad_check_refuses_non_finite_gradient():
    x = rand_f64((1, 1, 2, 2), seed=64)
    with pytest.raises(NumericsError, match="non-finite gradient for x"):
        ops.grad_check("nan", lambda x_: x_, lambda x_, up: (up * np.nan,), [x], ["x"])


def test_grad_check_report_fields():
    x = rand_f64((1, 2, 4, 4), seed=61)

    def vjp(x_, up):
        return (ops.relu_vjp(x_, up),)

    report = ops.grad_check("relu", ops.relu, vjp, [x], ["x"], tol=1e-6)
    assert report.passed == (report.max_rel_error <= report.tolerance)
    assert set(report.per_input) == {"x"}
    assert report.coords_checked == x.size


def test_sampled_coordinates():
    x = rand_f64((1, 2, 6, 6), seed=62)

    def vjp(x_, up):
        return (ops.relu_vjp(x_, up),)

    report = ops.grad_check("relu", ops.relu, vjp, [x], ["x"], max_coords=10)
    assert report.coords_checked == 10
