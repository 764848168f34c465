import numpy as np
import pytest

from ddkseg import nn


def test_first_step_is_signed_lr():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.3, -7.0])}
    state = nn.init_adam(params, lr=0.01)
    nn.adam_step(params, grads, state)
    # Bias-corrected first step moves each coordinate by ~lr against the
    # gradient sign.
    np.testing.assert_allclose(params["w"], [1.0 - 0.01, -2.0 + 0.01], atol=0.01 * 1e-6)
    assert state.step_count == 1


def test_zero_gradient_leaves_params_and_decays_moments():
    params = {"w": np.array([0.5])}
    state = nn.init_adam(params, lr=0.1)
    for _ in range(3):
        nn.adam_step(params, {"w": np.array([0.0])}, state)
    np.testing.assert_array_equal(params["w"], [0.5])
    np.testing.assert_array_equal(state.m["w"], [0.0])
    assert state.step_count == 3
    # once a moment is nonzero, a zero-gradient step decays it by beta1
    nn.adam_step(params, {"w": np.array([2.0])}, state)
    m_before = state.m["w"].copy()
    nn.adam_step(params, {"w": np.array([0.0])}, state)
    assert abs(state.m["w"][0]) == pytest.approx(0.9 * abs(m_before[0]))


def test_quadratic_convergence():
    # 200 steps on f(w) = (w - 3)^2 from w = 0 with lr 0.1.
    params = {"w": np.array([0.0])}
    state = nn.init_adam(params, lr=0.1)
    for _ in range(200):
        grads = {"w": 2.0 * (params["w"] - 3.0)}
        nn.adam_step(params, grads, state)
    assert abs(params["w"][0] - 3.0) < 0.1
    assert state.step_count == 200


def test_nonfinite_gradient_aborts():
    params = {"w": np.array([0.0])}
    state = nn.init_adam(params, lr=0.1)
    with pytest.raises(ValueError, match="non-finite gradient for 'w'"):
        nn.adam_step(params, {"w": np.array([np.nan])}, state)


def test_missing_gradient_aborts():
    params = {"w": np.array([0.0]), "b": np.array([0.0])}
    state = nn.init_adam(params, lr=0.1)
    with pytest.raises(ValueError, match=r"gradients missing for parameters: \['b'\]"):
        nn.adam_step(params, {"w": np.array([1.0])}, state)


def test_second_moment_nonnegative(rng):
    params = {"w": rng.standard_normal(10)}
    state = nn.init_adam(params, lr=0.01)
    for _ in range(20):
        nn.adam_step(params, {"w": rng.standard_normal(10)}, state)
        assert (state.v["w"] >= 0).all()
