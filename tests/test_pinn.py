import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavefield_anc import pinn
from wavefield_anc.acoustics import TonalSource, ToneComponent, propagate_tonal
from wavefield_anc.anc import repeat_period
from wavefield_anc.oracles import adam_figures
from wavefield_anc.pinn import (
    DivergenceDetected,
    TrainConfig,
    adam_step,
    glorot_init,
    load_params,
    loss_and_grads,
    make_collocation_positions,
    mlp_forward,
    pde_residual,
    pinn_predict,
    save_params,
    time_axis,
    train_pinn,
    unpack,
)
from wavefield_anc.scenario import default_scenario

QUICK_TRAIN = TrainConfig(epochs=2000, restarts=1)


def random_params(seed, n=8):
    return glorot_init(seed, n)


def pack(W1, b1, W2, b2):
    """The (6N + 1,) parameters of the network with these weights."""
    return np.concatenate([np.ravel(W1), b1, W2, [b2]])


def test_glorot_biases_zero_and_deterministic():
    a = glorot_init(3, 16)
    _, b1, _, b2 = unpack(a)
    assert a.shape == (97,) and np.all(b1 == 0.0) and b2 == 0.0
    assert np.array_equal(a, glorot_init(3, 16))


def test_glorot_std():
    draws = np.concatenate([unpack(glorot_init(s, 16))[0].ravel() for s in range(2000)])
    assert abs(draws.std() - np.sqrt(2.0 / 20.0)) < 0.01


def test_unpack_gives_views_in_model_file_order():
    p = np.arange(49.0)  # N = 8
    W1, b1, W2, b2 = unpack(p)
    assert np.array_equal(W1, np.arange(32.0).reshape(8, 4))  # row-major
    assert np.array_equal(b1, np.arange(32.0, 40.0)) and np.array_equal(W2, np.arange(40.0, 48.0))
    assert b2 == 48.0


def test_vector_round_trip():
    p = random_params(0)
    q = pack(*unpack(p))
    assert np.array_equal(p, q) and not np.shares_memory(p, q)


def test_fields_are_views_of_one_vector():
    p = np.arange(49.0)  # N = 8
    W1, b1, W2, b2 = unpack(p)
    W1[0, 1], b1[2], W2[1], b2[...] = -1.0, -2.0, -3.0, -4.0
    assert (p[1], p[34], p[41], p[48]) == (-1.0, -2.0, -3.0, -4.0)  # writes reach the array
    assert b2.shape == () and np.shares_memory(b2, p)  # one network's b2: a 0-d view
    stack = np.stack([random_params(s) for s in range(3)])
    W1, b1, W2, b2 = unpack(stack)
    assert W1.shape == (3, 8, 4) and b1.shape == W2.shape == (3, 8) and b2.shape == (3,)
    W1[1, 0, 0] = -7.0
    assert stack[1, 0] == -7.0  # network r of a stack is its row
    assert np.array_equal(unpack(stack[1])[0], W1[1])


@pytest.mark.parametrize("size", [0, 1, 6, 48, 50])
def test_unpack_rejects_a_length_not_6n_plus_1(size):
    with pytest.raises(ValueError, match=f"{size} parameters are not 6N \\+ 1"):
        unpack(np.zeros(size))


def test_save_params_writes_the_documented_lines(tmp_path):
    W1 = np.arange(1.0, 9.0).reshape(2, 4)
    p = pack(W1, np.array([0.5, -0.5]), np.array([0.25, 1.0 / 3.0]), -2.0)
    save_params(p, 240, 24_000.0, tmp_path / "model.txt")
    w1_rows = ["1", "2", "3", "4", "5", "6", "7", "8"]  # row-major
    b1, w2, b2 = ["0.5", "-0.5"], ["0.25", "0.33333333333333331"], ["-2"]
    time_map = ["0.01", "0.14999999999999999"]  # duration, time half-range
    lines = (tmp_path / "model.txt").read_text().splitlines()
    assert lines == ["2", *w1_rows, *b1, *w2, *b2, *time_map]


def test_forward_independent_reimplementation():
    p = random_params(1)
    W1, b1, W2, b2 = unpack(p)
    u = np.array([0.1, 0.05, -0.05, 0.0])
    expected = 0.0
    for k in range(8):
        z = b1[k]
        for i in range(4):
            z += W1[k, i] * u[i]
        expected += W2[k] * np.tanh(z)
    expected += b2
    assert mlp_forward(p, u[None]) == pytest.approx([expected], abs=1e-14)


def test_forward_constant_network():
    p = pack(np.ones((4, 4)), np.zeros(4), np.zeros(4), 1.7)
    assert np.array_equal(mlp_forward(p, np.array([[1.0, 2.0, 3.0, 4.0]])), [1.7])


@pytest.mark.parametrize("batch", [1, 5, 300])
def test_forward_on_a_stack_is_each_network_on_its_own(batch):
    stack = np.stack([glorot_init(0), glorot_init(1), glorot_init(2)])
    x = np.random.default_rng(batch).normal(scale=0.3, size=(len(stack), batch, 4))
    shared, own = mlp_forward(stack, x[0]), mlp_forward(stack, x)
    assert shared.shape == own.shape == (len(stack), batch)
    for r, params in enumerate(stack):
        assert np.array_equal(shared[r], mlp_forward(params, x[0]))
        assert np.array_equal(own[r], mlp_forward(params, x[r]))


def test_pde_residual_zero_at_hyperplane():
    # single unit, input on its hyperplane: tanh''(0) = 0
    p = pack(np.array([[1.0, 0.0, 0.0, 0.0]]), np.zeros(1), np.ones(1), 0.0)
    assert np.all(np.abs(pde_residual(p, np.array([[0.0, 0.3, 0.4, 0.5]]), 2.0)) < 1e-15)


def test_pde_residual_linear_in_output_layer():
    p = random_params(2)
    doubled = p.copy()
    unpack(doubled)[2][:] *= 2.0
    u = np.array([[0.1, -0.1, 0.05, 0.0], [0.02, 0.3, -0.2, 0.1]])
    assert np.allclose(pde_residual(doubled, u, 3.0), 2.0 * pde_residual(p, u, 3.0), atol=1e-15)


def test_pde_residual_constant_network():
    p = pack(np.ones((3, 4)), np.ones(3), np.zeros(3), 5.0)
    assert np.array_equal(pde_residual(p, np.array([[0.1, 0.2, 0.3, 0.4]]), 2.0), [0.0])


@pytest.mark.parametrize("c_eff", [0.0, -1.0])
def test_pde_residual_rejects_nonpositive_c_eff(c_eff):
    with pytest.raises(ValueError):
        pde_residual(random_params(4), np.array([[0.05, 0.1, -0.08, 0.02]]), c_eff)


def test_grads_zero_at_fit_point():
    p = random_params(5)
    u = np.array([[0.1, 0.0, 0.0, 0.0]])
    target = mlp_forward(p, u)
    _, _, grads = loss_and_grads(p, u, target, u, 0.0, 1.0)
    assert np.max(np.abs(grads)) < 1e-14


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
    assert np.allclose(g1, g2, atol=1e-14)


def test_adam_zero_grad_is_fixed_point():
    p = random_params(7)
    q = adam_step(p.copy(), np.zeros_like(p), np.zeros((2, p.size)), 1, 1e-2)
    assert np.array_equal(p, q)


def test_adam_first_step_magnitude():
    p = random_params(8)
    rng = np.random.default_rng(8)
    gv = rng.normal(size=p.size)
    lr = 1e-3
    q = adam_step(p.copy(), gv, np.zeros((2, p.size)), 1, lr)
    step = q - p
    assert np.all(np.sign(step[gv != 0]) == -np.sign(gv[gv != 0]))
    assert np.all(np.abs(step) <= lr + 1e-15)
    assert np.all(np.abs(step[np.abs(gv) > 1e-3]) > 0.9 * lr)


def test_adam_scalar_convergence():
    assert adam_figures()["adam_scalar_err"] < 0.1


@pytest.mark.parametrize("restarts", [1, 3])
def test_stacked_adam_step_is_each_network_alone(restarts):
    rng = np.random.default_rng(restarts)
    nets = [random_params(30 + r) for r in range(restarts)]
    stack = np.stack(nets)  # a copy: each of nets steps alone
    moments = np.zeros((2, *stack.shape))
    alone = [(p, np.zeros((2, p.size))) for p in nets]
    b1, b2, lr = pinn.ADAM_BETA1, pinn.ADAM_BETA2, 1e-2
    for t in range(1, 6):
        g = rng.normal(size=stack.shape) * rng.choice([1e-6, 1.0, 1e3])
        # the update as its formula, on the whole vector
        m = b1 * moments[0] + (1.0 - b1) * g
        v = b2 * moments[1] + (1.0 - b2) * g**2
        m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
        expected = stack - lr * m_hat / (np.sqrt(v_hat) + pinn.ADAM_EPS)
        assert adam_step(stack, g, moments, t, lr) is stack
        assert np.array_equal(stack, expected)
        assert np.array_equal(moments[0], m) and np.array_equal(moments[1], v)
        for r, (p, p_moments) in enumerate(alone):
            adam_step(p, g[r], p_moments, t, lr)
            assert np.array_equal(stack[r], p)
            assert np.array_equal(moments[:, r], p_moments)


def test_time_axis_maps_one_period_onto_the_half_range():
    tau, scale = time_axis(240, 24_000.0)  # 0.01 s
    assert scale == pytest.approx(30.0)  # c_eff = c / 30 in (tau, meters) coordinates
    assert tau[0] == -0.15 and tau[-1] == pytest.approx(0.15 - 0.3 / 240)
    # the arithmetic every model file was trained and evaluated under, bit for bit
    assert np.array_equal(tau, np.arange(240) / 24_000.0 * scale - pinn.TIME_HALF_RANGE)


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
    pts = make_collocation_positions(sc, seed=0)
    assert pts.shape == (100, 3)  # 8 mics, 92 ball points
    assert np.array_equal(pts[:8], sc.monitoring_positions)
    assert np.all(np.linalg.norm(pts, axis=1) <= sc.mic_radius + 1e-12)


def test_collocation_and_scoring_points_fill_the_mics_ball(monkeypatch):
    """Mics on a 0.4 m sphere: the wave equation is enforced, and the restarts scored, on
    points drawn from the 0.4 m ball, not from the nominal 0.26 m one."""
    sc = default_scenario(0)
    sc = dataclasses.replace(sc, monitoring_positions=sc.monitoring_positions * 0.4 / sc.mic_radius)
    assert sc.mic_radius == pytest.approx(0.4)
    pts = make_collocation_positions(sc, seed=0)
    assert 0.3 < np.linalg.norm(pts, axis=1).max() <= sc.mic_radius
    radii, real = [], pinn.ball_points

    def recording(radius, *args, **kwargs):
        radii.append(radius)
        return real(radius, *args, **kwargs)

    monkeypatch.setattr(pinn, "ball_points", recording)
    mics = propagate_tonal(sc.primary_source, sc.monitoring_positions, sc.sample_rate,
                           sc.speed_of_sound)
    train_pinn(sc, mics, TrainConfig(epochs=1, restarts=2))
    assert radii == [sc.mic_radius] * 3  # two restarts' collocation points, the scoring points


def test_train_zero_epochs(scenario, mic_signals):
    cfg = dataclasses.replace(QUICK_TRAIN, epochs=0)
    params, report = train_pinn(scenario, mic_signals, cfg)
    assert report.history == []
    assert params.shape == (6 * pinn.HIDDEN + 1,)


def test_train_zero_epochs_reports_the_untrained_fit(scenario, mic_signals):
    """With no epoch run, the loss reported and scored is the initial network's, not 0."""
    one = TrainConfig(epochs=1, restarts=1)
    _, untrained = train_pinn(scenario, mic_signals, dataclasses.replace(one, epochs=0))
    _, first = train_pinn(scenario, mic_signals, one)
    assert untrained.final_data_loss == first.history[0][1] > 0.0


def test_train_is_independent_of_the_signal_layout():
    """The target RMS sums in one fixed order, so the same mic values give the same model
    from a row-major and a column-major array."""
    sc = default_scenario(1)
    tones = tuple(dataclasses.replace(t, frequency=f) for f, t in
                  zip((250.0, 350.0, 450.0), sc.primary_source.components))
    sc = dataclasses.replace(sc, primary_source=TonalSource(sc.primary_source.position, tones))
    fs, c = sc.sample_rate, sc.speed_of_sound
    mics = propagate_tonal(sc.primary_source, sc.monitoring_positions, fs, c)
    assert mics.flags.c_contiguous
    cfg = TrainConfig(epochs=5, restarts=1)
    row_major, _ = train_pinn(sc, mics, cfg)
    column_major, _ = train_pinn(sc, np.asfortranarray(mics), cfg)
    assert np.array_equal(row_major, column_major)


def test_train_deterministic(scenario, mic_signals):
    p1, _ = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    p2, _ = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    assert np.array_equal(p1, p2)


def bad_init_except(monkeypatch, keep, bad=np.nan):
    """Makes glorot_init give output weights ``bad`` (default NaN) to every seed not in ``keep``."""
    real = pinn.glorot_init

    def init(seed, N=16):
        params = real(seed, N)
        if seed not in keep:
            unpack(params)[2][:] = bad
        return params

    monkeypatch.setattr(pinn, "glorot_init", init)


def test_trained_params_do_not_alias_the_stack(scenario, mic_signals, monkeypatch):
    """The output-layer rescale after training writes into a copy of the winner's row."""
    steps, real = [], pinn.adam_step

    def recording(*args):
        params = real(*args)
        steps.append((params, params.copy()))
        return params

    monkeypatch.setattr(pinn, "adam_step", recording)
    params, _ = train_pinn(scenario, 7.0 * mic_signals, TrainConfig(epochs=20, restarts=2))
    stack, snapshot = steps[-1]
    assert np.array_equal(stack, snapshot)
    assert not np.shares_memory(params, stack)


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
        assert np.array_equal(params, ref_params)
        assert report.final_data_loss == ref_report.final_data_loss
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
    assert np.all(np.isfinite(params))


def test_all_restarts_diverged_raises(scenario, mic_signals, monkeypatch):
    bad_init_except(monkeypatch, keep=set())
    with pytest.raises(DivergenceDetected):
        train_pinn(scenario, mic_signals, TrainConfig(epochs=150, restarts=3))


def test_train_reduces_loss(scenario, mic_signals):
    _, report = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    assert report.final_data_loss < report.history[0][1]


def test_pde_constraint_removal_cannot_hurt_fit(scenario, mic_signals, monkeypatch):
    _, rep_on = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    monkeypatch.setattr(pinn, "PDE_WEIGHT", 0.0)
    monkeypatch.setattr(pinn, "PDE_WEIGHT_END", 0.0)
    _, rep_off = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    assert rep_off.final_data_loss <= rep_on.final_data_loss * 1.05


def test_train_is_amplitude_invariant(scenario, mic_signals):
    scaled = 7.0 * mic_signals
    p1, r1 = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    p2, r2 = train_pinn(scenario, scaled, QUICK_TRAIN)
    # normalized training makes the fit scale-equivariant
    assert np.allclose(7.0 * unpack(p1)[2], unpack(p2)[2], rtol=1e-9)
    assert r1.final_data_loss == pytest.approx(r2.final_data_loss, rel=1e-9)


def test_predict_shapes_and_constant_network():
    p = pack(np.zeros((2, 4)), np.zeros(2), np.zeros(2), 3.3)
    out = pinn_predict(p, [[0, 0.1, 0], [0.2, 0, 0.1]], 240, 24_000.0)
    assert out.shape == (2, 240)
    assert np.all(out == 3.3)


def test_predict_consistent_with_report(scenario, mic_signals):
    params, report = train_pinn(scenario, mic_signals, QUICK_TRAIN)
    period = scenario.period_samples
    preds = pinn_predict(params, scenario.monitoring_positions, period, scenario.sample_rate)
    num = np.sum((preds - mic_signals) ** 2)
    den = np.sum(mic_signals**2)
    # the normalized final data loss equals the physical NMSE by construction
    # (up to the one optimizer step taken after the last loss evaluation)
    assert num / den == pytest.approx(report.final_data_loss, rel=1e-3)


@pytest.mark.parametrize("count", [1, 239, 240, 241, 1000])
def test_predict_tiles_one_period(count):
    """anc.repeat_period unrolls one period as the FxLMS loop unrolls the PINN's estimate
    and the reference: sample n is column n mod P, for (R, P) and (P,) signals alike. The
    reference waveform's period is the tone formula, bit for bit."""
    tones = (ToneComponent(300.0, 2.0, 0.5), ToneComponent(400.0, 1.0, 1.5))
    fs, points = 24_000.0, np.array([[0.0, 0.1, 0.0], [0.2, 0.0, 0.1]])
    x = TonalSource((1.0, 2.0, 3.0), tones).waveform(fs)
    t = np.arange(240) / fs
    assert np.array_equal(x, 2.0 * np.sin(2 * np.pi * 300.0 * t + 0.5)
                          + 1.0 * np.sin(2 * np.pi * 400.0 * t + 1.5))  # bitwise
    estimate = pinn_predict(random_params(13), points, 240, fs)
    for one_period in (x, estimate):
        out = repeat_period(one_period, count)
        assert out.shape == (*one_period.shape[:-1], count)
        assert np.array_equal(out, np.tile(one_period, 5)[..., :count])


@pytest.mark.parametrize("shape", [(7, 240), (8, 239), (8, 241), (8, 2400), (8 * 240,)])
def test_train_rejects_signals_not_one_period_per_mic(scenario, shape):
    with pytest.raises(ValueError, match=r"need one period per monitoring microphone, got \("):
        train_pinn(scenario, np.zeros(shape), TrainConfig(epochs=1, restarts=1))


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    period=st.one_of(st.integers(1, 600), st.integers(pinn.PREDICT_BLOCK_ROWS + 1, 9_000)),
    count_pick=st.integers(0, 4),
)
@example(seed=2, period=3, count_pick=3)  # 8 193 inputs: 8 192 + 1
def _predict_is_one_whole_grid_pass(seed, period, count_pick):
    """Called by test_predict_blocks_are_one_whole_grid_pass, on one BLAS thread."""
    rng = np.random.default_rng(seed)
    params = glorot_init(seed % 1000, pinn.HIDDEN)
    W1, b1, _, _ = unpack(params)
    W1[:, 0] *= pinn.TIME_SCALE
    b1[...] = rng.normal(size=pinn.HIDDEN)
    step = max(1, pinn.PREDICT_BLOCK_ROWS // period)  # whole points' grids that fit in a block
    counts = [c for c in (1, step - 1, step, step + 1, 400) if 1 <= c <= 240_000 // period]
    count = counts[count_pick % len(counts)]
    points = rng.uniform(-0.5, 0.5, (count, 3))
    tau, _ = time_axis(period, 24_000.0)
    grid = np.column_stack([np.tile(tau, count), np.repeat(points, period, axis=0)])
    whole = mlp_forward(params, grid).reshape(count, period)
    assert np.array_equal(pinn_predict(params, points, period, 24_000.0), whole)


def test_predict_blocks_are_one_whole_grid_pass(tmp_path):
    """pinn_predict gives, bit for bit, one mlp_forward over the whole (point, time) grid:
    point counts around a block's worth and 400, and a period longer than a block. The check
    runs in a child process on one BLAS thread, because there the whole-grid reference is one
    fixed sum per row: on two, OpenBLAS 0.3.31 splits the output product of a pass of about
    29 000 rows or more between the threads, and a split at a row that is not a multiple of 4
    moves the reference's own last bits. pinn_predict's blocks are smaller than that."""
    paths = [str(Path(pinn.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")])}
    env.update(dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1"))
    code = "import test_pinn; test_pinn._predict_is_one_whole_grid_pass()"
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_predict_memory_is_one_block():
    """The sweep's grid, 400 points x 240 samples: the peak allocation is the result and one
    block's arrays, not the whole grid's (16 MB when it was one pass)."""
    params = glorot_init(0, pinn.HIDDEN)
    points = np.random.default_rng(0).uniform(-0.4, 0.4, (400, 3))
    tracemalloc.start()
    try:
        out = pinn_predict(params, points, 240, 24_000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (P, T) result, then per block a (rows, HIDDEN) hidden array and (rows, 4) inputs;
    # the factor 2 covers the inputs of the points a block straddles and its output rows
    rows = pinn.PREDICT_BLOCK_ROWS
    assert peak < out.nbytes + 2 * rows * (pinn.HIDDEN + 4) * 8


def test_save_load_round_trip(tmp_path):
    p = random_params(12)
    path = tmp_path / "model.txt"
    save_params(p, 240, 24_000.0, path)
    assert np.array_equal(load_params(path, 240, 24_000.0), p)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:-1], "51 lines for N = 8; a model has 6N \\+ 4, N >= 1"),
        (lambda lines: [*lines, "0"], "53 lines for N = 8; a model has 6N \\+ 4, N >= 1"),
        (lambda lines: ["0", *lines[50:]], "3 lines for N = 0; a model has 6N \\+ 4, N >= 1"),
        (lambda lines: [], "0 lines for N = 0"),
        (lambda lines: ["8.0", *lines[1:]], "invalid literal for int"),
        (lambda lines: [*lines[:-2], "0.02", lines[-1]], "a period of 0.02 s, not 240 / 24000.0 s"),
        (lambda lines: [*lines[:-1], "0.5"], "time half-range 0.5, not 0.15"),
        (lambda lines: [*lines[:6], "nan", *lines[7:]], "line 7 is not finite"),
    ],
    ids=[
        "truncated",
        "overlong",
        "no-units",
        "empty",
        "not-an-integer",
        "duration",
        "half-range",
        "non-finite",
    ],
)
def test_load_params_rejects_a_malformed_file_naming_it(tmp_path, edit, message):
    """A model file that is cut short, runs long, holds a non-finite weight, or holds
    another time map than the period it is loaded for raises ValueError naming the file,
    not IndexError or nothing."""
    path = tmp_path / "model.txt"
    save_params(random_params(12), 240, 24_000.0, path)
    path.write_text("".join(f"{line}\n" for line in edit(path.read_text().splitlines())))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
        load_params(path, 240, 24_000.0)
    if message.startswith("a period"):  # the file's own period still loads it
        assert load_params(path, 480, 24_000.0).shape == (49,)


def test_bad_train_config():
    with pytest.raises(ValueError, match="epochs must be non-negative, got -1"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="restarts must be at least 1, got 0"):
        TrainConfig(restarts=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        TrainConfig(seed=-1)
