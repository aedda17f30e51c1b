import dataclasses
import warnings

import numpy as np
import pytest

from wavefield_anc import pinn
from wavefield_anc.acoustics import TonalSource, ToneComponent, propagate_tonal
from wavefield_anc.errors import DivergenceDetected
from wavefield_anc.pinn import (
    AdamState,
    MlpParams,
    NormSpec,
    TrainConfig,
    adam_step,
    glorot_init,
    load_params,
    loss_and_grads,
    make_collocation_positions,
    mlp_forward,
    mlp_second_derivs,
    pde_residual,
    pinn_predict,
    save_params,
    train_pinn,
)
from wavefield_anc.scenario import MIC_RADIUS, default_scenario

QUICK_TRAIN = TrainConfig(epochs=2000, restarts=1)


def random_params(seed, n=8):
    return glorot_init(seed, n)


def test_glorot_biases_zero_and_deterministic():
    a = glorot_init(3, 16)
    b = glorot_init(3, 16)
    assert np.all(a.b1 == 0.0) and a.b2 == 0.0
    assert np.array_equal(a.to_vector(), b.to_vector())


def test_glorot_std():
    draws = np.concatenate([glorot_init(s, 16).W1.ravel() for s in range(2000)])
    assert abs(draws.std() - np.sqrt(2.0 / 20.0)) < 0.01


def test_vector_round_trip():
    p = random_params(0)
    q = MlpParams.from_vector(p.to_vector(), p.hidden)
    assert np.array_equal(p.to_vector(), q.to_vector())


def test_forward_independent_reimplementation():
    p = random_params(1)
    u = np.array([0.1, 0.05, -0.05, 0.0])
    expected = 0.0
    for k in range(p.hidden):
        z = p.b1[k]
        for i in range(4):
            z += p.W1[k, i] * u[i]
        expected += p.W2[k] * np.tanh(z)
    expected += p.b2
    assert mlp_forward(p, u) == pytest.approx(expected, abs=1e-14)


def test_forward_constant_network():
    p = MlpParams(np.ones((4, 4)), np.zeros(4), np.zeros(4), 1.7)
    assert mlp_forward(p, np.array([1.0, 2.0, 3.0, 4.0])) == 1.7


def test_second_derivs_zero_at_hyperplane():
    # single unit, input on its hyperplane: tanh''(0) = 0
    p = MlpParams(np.array([[1.0, 0.0, 0.0, 0.0]]), np.zeros(1), np.ones(1), 0.0)
    d2 = mlp_second_derivs(p, np.array([0.0, 0.3, 0.4, 0.5]))
    assert np.allclose(d2, 0.0, atol=1e-15)


def test_second_derivs_match_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        p = random_params(trial)
        u = rng.normal(scale=0.5, size=4)
        d2 = mlp_second_derivs(p, u)
        h = 1e-4
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (mlp_forward(p, u + e) - 2 * mlp_forward(p, u) + mlp_forward(p, u - e)) / h**2
            denom = max(abs(fd), abs(d2[i]), 1e-6)
            worst = max(worst, abs(fd - d2[i]) / denom)
    assert worst < 1e-6


def test_second_derivs_linear_in_output_layer():
    p = random_params(2)
    doubled = MlpParams(p.W1, p.b1, 2.0 * p.W2, p.b2)
    u = np.array([0.1, -0.1, 0.05, 0.0])
    assert np.allclose(mlp_second_derivs(doubled, u), 2.0 * mlp_second_derivs(p, u), atol=1e-15)


def test_pde_residual_constant_network():
    p = MlpParams(np.ones((3, 4)), np.ones(3), np.zeros(3), 5.0)
    assert pde_residual(p, np.array([0.1, 0.2, 0.3, 0.4]), 2.0) == 0.0


def test_pde_residual_matches_second_derivs():
    p = random_params(4)
    u = np.array([0.05, 0.1, -0.08, 0.02])
    d2 = mlp_second_derivs(p, u)
    c_eff = 3.0
    expected = c_eff**2 * d2[1:].sum() - d2[0]
    assert pde_residual(p, u, c_eff) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        pde_residual(p, u, 0.0)


def test_grads_zero_at_fit_point():
    p = random_params(5)
    u = np.array([[0.1, 0.0, 0.0, 0.0]])
    target = np.array([mlp_forward(p, u[0])])
    _, _, grads = loss_and_grads(p, u, target, u, 0.0, 1.0)
    assert np.max(np.abs(grads.to_vector())) < 1e-14


def test_gradients_match_finite_differences():
    # the keystone oracle: exact grads vs central differences of the full loss
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(20):
        p = random_params(100 + trial, n=6)
        U = rng.normal(scale=0.5, size=(5, 4))
        tgt = rng.normal(size=5)
        C = rng.normal(scale=0.5, size=(4, 4))
        lam, c_eff = 0.7, 2.0
        _, _, grads = loss_and_grads(p, U, tgt, C, lam, c_eff)
        g = grads.to_vector()
        vec0 = p.to_vector()
        h = 1e-5
        for i in range(vec0.size):
            for sgn in (1.0, -1.0):
                v = vec0.copy()
                v[i] += sgn * h
                ld, lp, _ = loss_and_grads(MlpParams.from_vector(v, 6), U, tgt, C, lam, c_eff)
                if sgn > 0:
                    hi = ld + lam * lp
                else:
                    lo = ld + lam * lp
            fd = (hi - lo) / (2 * h)
            worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8))
    assert worst < 1e-4


def test_loss_mean_semantics():
    p = random_params(6)
    rng = np.random.default_rng(6)
    U = rng.normal(size=(3, 4))
    tgt = rng.normal(size=3)
    C = rng.normal(size=(2, 4))
    ld1, lp1, g1 = loss_and_grads(p, U, tgt, C, 0.3, 1.5)
    ld2, lp2, g2 = loss_and_grads(
        p, np.tile(U, (2, 1)), np.tile(tgt, 2), np.tile(C, (2, 1)), 0.3, 1.5
    )
    assert ld1 == pytest.approx(ld2, rel=1e-12)
    assert lp1 == pytest.approx(lp2, rel=1e-12)
    assert np.allclose(g1.to_vector(), g2.to_vector(), atol=1e-14)


def test_adam_zero_grad_is_fixed_point():
    p = random_params(7)
    zero = MlpParams(np.zeros_like(p.W1), np.zeros_like(p.b1), np.zeros_like(p.W2), 0.0)
    st = AdamState.zeros(p)
    q, _ = adam_step(p, zero, st, 1e-2)
    assert np.array_equal(p.to_vector(), q.to_vector())


def test_adam_first_step_magnitude():
    p = random_params(8)
    rng = np.random.default_rng(8)
    g = MlpParams.from_vector(rng.normal(size=p.to_vector().size), p.hidden)
    st = AdamState.zeros(p)
    lr = 1e-3
    q, _ = adam_step(p, g, st, lr)
    step = q.to_vector() - p.to_vector()
    gv = g.to_vector()
    assert np.all(np.sign(step[gv != 0]) == -np.sign(gv[gv != 0]))
    assert np.all(np.abs(step) <= lr + 1e-15)
    assert np.all(np.abs(step[np.abs(gv) > 1e-3]) > 0.9 * lr)


def test_adam_scalar_convergence():
    p = MlpParams(np.zeros((1, 4)), np.zeros(1), np.zeros(1), 0.0)
    st = AdamState.zeros(p)
    for _ in range(200):
        g = MlpParams(np.zeros((1, 4)), np.zeros(1), np.zeros(1), 2.0 * (p.b2 - 3.0))
        p, st = adam_step(p, g, st, 0.1)
    assert abs(p.b2 - 3.0) < 0.1


def test_norm_spec_maps_duration_to_range():
    norm = NormSpec(0.01)
    assert norm.to_tau(0.0) == pytest.approx(-0.15)
    assert norm.to_tau(0.01) == pytest.approx(0.15)
    assert norm.c_eff(343.0) == pytest.approx(343.0 / 30.0)


def test_fundamental_period():
    sc = default_scenario(0)
    assert sc.period_samples == 240  # gcd(300,400,500)=100 Hz at 24 kHz

    def period(*freqs):
        comps = tuple(ToneComponent(f) for f in freqs)
        src = TonalSource(sc.primary_source.position, comps)
        return dataclasses.replace(sc, primary_source=src).period_samples

    assert period(375.0) == 64
    assert period(250.0, 350.0, 450.0) == 480
    assert period(10.0) == 2400  # the whole scenario
    assert period(720.0) == 100  # 3 cycles; one is 33.3 samples


def test_collocation_positions():
    sc = default_scenario(0)
    pts = make_collocation_positions(sc, 100, seed=0)
    assert pts.shape == (100, 3)
    assert np.array_equal(pts[:8], sc.monitoring_positions)
    assert np.all(np.linalg.norm(pts, axis=1) <= MIC_RADIUS + 1e-12)


def test_train_zero_epochs(scenario, mic_signals):
    cfg = dataclasses.replace(QUICK_TRAIN, epochs=0)
    params, report = train_pinn(scenario, mic_signals, cfg)
    assert report.history == []
    assert params.hidden == pinn.HIDDEN


def test_train_deterministic(scenario, mic_signals):
    p1, _ = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    p2, _ = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    assert np.array_equal(p1.to_vector(), p2.to_vector())


def bad_init_except(monkeypatch, keep, bad=np.nan):
    """Makes glorot_init give output weights ``bad`` (default NaN) to every seed not in ``keep``."""
    real = pinn.glorot_init

    def init(seed, N=16):
        params = real(seed, N)
        if seed not in keep:
            params.W2[:] = bad
        return params

    monkeypatch.setattr(pinn, "glorot_init", init)


def test_each_restart_trains_as_its_seed_alone(scenario, mic_signals, monkeypatch):
    cfg = TrainConfig(epochs=250, restarts=3, seed=5)
    alone = [
        train_pinn(scenario, mic_signals, dataclasses.replace(cfg, restarts=1, seed=5 + r))
        for r in range(3)
    ]
    # the winner of a clean stack, then each restart made the winner by diverging the others
    clean = train_pinn(scenario, mic_signals, cfg)
    runs = [(clean[1].best_restart, clean)]
    for r in range(3):
        with monkeypatch.context() as m:
            bad_init_except(m, keep={5 + r})
            runs.append((r, train_pinn(scenario, mic_signals, cfg)))
    for r, (params, report) in runs:
        ref_params, ref_report = alone[r]
        assert report.best_restart == r
        assert np.array_equal(params.to_vector(), ref_params.to_vector())
        assert report.final_data_loss == ref_report.final_data_loss
        assert report.initial_data_loss == ref_report.initial_data_loss
        assert report.history == ref_report.history and len(report.history) == 3


@pytest.mark.parametrize("bad", [np.nan, 1e300])  # 1e300: the loss overflows to inf
def test_diverged_restart_is_dropped(scenario, mic_signals, monkeypatch, bad):
    cfg = TrainConfig(epochs=150, restarts=3, seed=2)
    bad_init_except(monkeypatch, keep={2, 4}, bad=bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the diverging slice raises no floating-point warning
        params, report = train_pinn(scenario, mic_signals, cfg)
    assert report.diverged_restarts == [(1, 0)]
    assert report.restart_scores[1] is None
    assert all(np.isfinite(report.restart_scores[r]) for r in (0, 2))
    assert report.best_restart in (0, 2)
    assert np.all(np.isfinite(params.to_vector()))


def test_all_restarts_diverged_raises(scenario, mic_signals, monkeypatch):
    bad_init_except(monkeypatch, keep=set())
    with pytest.raises(DivergenceDetected):
        train_pinn(scenario, mic_signals, TrainConfig(epochs=150, restarts=3))


def test_train_reduces_loss(scenario, mic_signals):
    _, report = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    assert report.final_data_loss < report.initial_data_loss
    assert report.norm.duration == pytest.approx(0.01)


def test_pde_constraint_removal_cannot_hurt_fit(scenario, mic_signals):
    cfg_off = dataclasses.replace(QUICK_TRAIN, pde_weight=0.0, pde_weight_end=0.0)
    _, rep_off = train_pinn(scenario, mic_signals, cfg_off)
    _, rep_on = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    assert rep_off.final_data_loss <= rep_on.final_data_loss * 1.05


def test_train_is_amplitude_invariant(scenario, mic_signals):
    scaled = 7.0 * mic_signals
    p1, r1 = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    p2, r2 = train_pinn(scenario, scaled, QUICK_TRAIN)
    # normalized training makes the fit scale-equivariant
    assert np.allclose(7.0 * p1.W2, p2.W2, rtol=1e-9)
    assert r1.final_data_loss == pytest.approx(r2.final_data_loss, rel=1e-9)


def test_predict_shapes_and_constant_network():
    p = MlpParams(np.zeros((2, 4)), np.zeros(2), np.zeros(2), 3.3)
    out = pinn_predict(p, NormSpec(0.01), [[0, 0.1, 0], [0.2, 0, 0.1]], 24_000.0, 240)
    assert out.shape == (2, 240)
    assert np.all(out == 3.3)


def test_predict_consistent_with_report(scenario, mic_signals):
    params, report = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    period = scenario.period_samples
    preds = pinn_predict(
        params, report.norm, scenario.monitoring_positions, scenario.sample_rate, period
    )
    num = np.sum((preds - mic_signals[:, :period]) ** 2)
    den = np.sum(mic_signals[:, :period] ** 2)
    # the normalized final data loss equals the physical NMSE by construction
    # (up to the one optimizer step taken after the last loss evaluation)
    assert num / den == pytest.approx(report.final_data_loss, rel=1e-3)


@pytest.mark.parametrize("num_samples", [1, 239, 240, 241, 1000])
def test_predict_tiles_one_period(num_samples):
    p = random_params(13)
    norm = NormSpec(0.01)  # 240 samples at 24 kHz
    points = np.array([[0.0, 0.1, 0.0], [0.2, 0.0, 0.1]])
    one_period = pinn_predict(p, norm, points, 24_000.0, 240)
    out = pinn_predict(p, norm, points, 24_000.0, num_samples)
    assert np.array_equal(out, np.tile(one_period, 5)[:, :num_samples])


def test_save_load_round_trip(tmp_path):
    p = random_params(12)
    norm = NormSpec(0.01)
    path = tmp_path / "model.txt"
    save_params(p, norm, path)
    q, norm2 = load_params(path)
    assert np.array_equal(p.to_vector(), q.to_vector())
    assert norm2 == norm


def test_bad_train_config():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(restarts=0)
