"""Experiment 2 by linearity: the straddle band, the all-ones response from
one frame, windows gathered in one call with a part, one first part per gap
duration, and the whole-stimulus reference the decomposed sweep must
reproduce."""

import math
from dataclasses import replace

import numpy as np
import pytest

from motionlift import experiments
from motionlift import io as vio
from motionlift.experiments import (
    Experiment1Config,
    Experiment2Config,
    all_ones_response,
    exp1_sample_points,
    gap_energy,
    load_or_estimate_kernel,
    run_experiment2,
    stacked_times,
    straddle_band,
)
from motionlift.gabor import (
    GaborBank,
    LiftedActivity,
    ManifoldGrid,
    energy_filter,
    scales_from_frequency,
    sigmoid,
    threshold_activity,
)
from motionlift.kernels import (
    KernelGrid,
    SdeSpec,
    contour_lattice,
    estimate_kernel,
    trajectory_lattice,
)
from motionlift.population import activity_steady, facilitate, facilitation_difference
from motionlift.stimuli import dashed_circle, occluded_trajectory

# perfbench's seconds-long trajectory configuration: two sweep points, both
# bridged by a 6-frame kernel
TINY = Experiment2Config(size=21, n_frames=12, n_theta=4, n_v=3, kernel_halfwidth=4,
                         kernel_n_ds=6, n_paths=8192,
                         sweep=((2, math.pi / 6.0), (4, math.pi / 4.0)))


def _grid(cfg):
    return ManifoldGrid(cfg.n_theta, cfg.n_v, cfg.v_m)


def _bank(cfg):
    return GaborBank(_grid(cfg), cfg.p_modulus)


def _thresholded(cfg, delta_t, delta_theta):
    """thr of the whole, the first part and the second part."""
    bank = _bank(cfg)
    s3, s1, s2, _ = occluded_trajectory(cfg.stimulus_spec(delta_t, delta_theta))
    return [threshold_activity(energy_filter(s, bank), cfg.mu, cfg.beta)
            for s in (s3, s1, s2)]


@pytest.mark.parametrize("delta_t, delta_theta", TINY.sweep)
def test_every_part_floors_at_the_sigmoid_of_zero(delta_t, delta_theta):
    c0 = sigmoid(0.0, TINY.mu, TINY.beta)
    parts = _thresholded(TINY, delta_t, delta_theta)
    assert [float(thr.values.min()) for thr in parts] == [c0] * 3


@pytest.mark.parametrize("delta_t", [0, 2, 4, 6])
def test_the_whole_is_the_sum_of_its_parts_outside_the_straddle_band(delta_t):
    c0 = sigmoid(0.0, TINY.mu, TINY.beta)
    t3, t1, t2 = (thr.values - c0 for thr in _thresholded(TINY, delta_t, 0.5))
    residual = np.abs(t3 - t1 - t2).max(axis=(0, 1, 3, 4))
    rt = _bank(TINY).rt
    sspec = TINY.stimulus_spec(delta_t, 0.5)
    lo, hi = straddle_band(sspec.t1, sspec.t2, rt, TINY.n_frames)
    band = np.arange(TINY.n_frames)[lo:hi]
    assert len(band) == max(0, 2 * rt - delta_t)
    assert np.all(np.delete(residual, band) <= 1e-13)
    assert np.all(residual[band] > 1e-13)  # every band frame is needed


def _random_trajectory_kernel(n_ds):
    lat = trajectory_lattice(3, n_ds, ManifoldGrid(4, 3, 1.0))
    vals = np.random.default_rng(3).uniform(0, 1, lat.shape)
    return KernelGrid(lat.axes, lat.origin, lat.spacing, vals / vals.sum(),
                      SdeSpec("trajectory", 0.1, 0.1, 0.1, 1.0, 1, 0))


@pytest.mark.parametrize("n_frames", [12, 7, 6, 4])
def test_all_ones_response_from_one_frame_matches_the_full_gather(n_frames):
    # the kernel reaches 6 frames, so 6 and 4 frames never see every offset
    kernel = _random_trajectory_kernel(6)
    grid = ManifoldGrid(4, 3, 1.0)
    ones = np.ones((9, 9, n_frames, 4, 3))
    want = facilitate(LiftedActivity(grid, ones, "facilitation", np.arange(n_frames)),
                      kernel).values
    one_frame = np.zeros((9, 9, 7, 4, 3))
    one_frame[:, :, 0] = 1.0
    g = facilitate(LiftedActivity(grid, one_frame, "facilitation", np.arange(7)), kernel).values
    got = all_ones_response(g, n_frames)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n_window", [1, 4])
def test_a_window_stacked_past_the_movie_is_gathered_as_if_alone(n_window):
    # every frame of both is live, the movie's last frame too
    n_ds, n_frames = 3, 5
    kernel = _random_trajectory_kernel(n_ds)
    grid = ManifoldGrid(4, 3, 1.0)
    rng = np.random.default_rng(n_window)
    movie = rng.uniform(0, 1, (9, 9, n_frames, 4, 3))
    window = rng.uniform(0, 1, (9, 9, n_window, 4, 3))
    times = stacked_times(n_frames, n_window, n_ds)
    both = facilitate(LiftedActivity(grid, np.concatenate([movie, window], axis=2),
                                     "facilitation", times), kernel).values
    for got, part in ((both[:, :, :n_frames], movie), (both[:, :, n_frames:], window)):
        want = facilitate(LiftedActivity(grid, part, "facilitation",
                                         np.arange(part.shape[2])), kernel).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_first_part_does_not_depend_on_the_turn():
    s1s = [occluded_trajectory(TINY.stimulus_spec(4, dth))[1].data for dth in (0.0, 0.5, 2.0)]
    assert all(np.array_equal(s1s[0], s1) for s1 in s1s[1:])


def _reference_table(cfg, kernel):
    """The gap table from the whole and both parts, each lifted and gathered
    in full, with P(1) from a full-length all-ones movie."""
    bank = _bank(cfg)
    grid = bank.grid
    shape = (cfg.size, cfg.size, cfg.n_frames, cfg.n_theta, cfg.n_v)
    p_ones = facilitate(LiftedActivity(grid, np.ones(shape), "facilitation",
                                       np.arange(cfg.n_frames)), kernel).values
    baseline = sigmoid(0.0, cfg.mu, cfg.beta)
    table = []
    for delta_t, delta_theta in cfg.sweep:
        sspec = cfg.stimulus_spec(delta_t, delta_theta)
        steady = []
        for stim in occluded_trajectory(sspec)[:3]:
            raw = energy_filter(stim, bank)
            thr = threshold_activity(raw, cfg.mu, cfg.beta)
            c0 = float(thr.values.min())
            pattern = facilitate(thr.with_values(thr.values - c0, "facilitation"), kernel)
            total = pattern.with_values(pattern.values + c0 * p_ones, "facilitation")
            steady.append(activity_steady(raw, total, cfg.c_f, cfg.mu, cfg.beta))
        f_fac = facilitation_difference(*steady)
        table.append(gap_energy(f_fac, sspec.t1, sspec.t2, cfg.gap_margin, baseline))
    return table


def test_decomposed_gap_table_matches_the_whole_stimulus_reference(tmp_path):
    # Delta t = 0 holds the widest straddle band, 6 frames
    cfg = replace(TINY, sweep=(*TINY.sweep, (0, 0.3)))
    cache = tmp_path / "kernels"
    table = run_experiment2(cfg, tmp_path / "run", kernel_cache=cache)
    _, spec, lattice = cfg.model()
    kernel = load_or_estimate_kernel(cache, spec, lattice)
    want = _reference_table(cfg, kernel)
    scale = max(abs(row["energy"]) for row in want)
    for row, ref in zip(table, want):
        assert row["window"] == ref["window"]
        for key in ("energy", "energy_positive", "peak"):
            assert abs(row[key] - ref[key]) <= 1e-12 * scale, key


def test_a_repeated_gap_duration_gathers_its_first_part_once(tmp_path, monkeypatch):
    calls = []

    def recording(activity, *args, **kwargs):
        out = facilitate(activity, *args, **kwargs)
        live = np.nonzero(np.abs(activity.values).sum(axis=(0, 1, 3, 4)))[0]
        calls.append((activity.s_frames[live], out, out.values.copy()))
        return out

    monkeypatch.setattr(experiments, "facilitate", recording)
    cfg = replace(TINY, sweep=((2, 0.5), (4, 0.5), (2, 1.0)))
    table = run_experiment2(cfg, tmp_path / "run")
    assert [(row["delta_t"], row["delta_theta"]) for row in table] == list(cfg.sweep)
    # one first part per delta_t, the first with the all-ones frame, and one
    # call per point for its second part with its band
    assert len(calls) == 2 + 3
    # only a first part is live from the movie's first frame on
    firsts = [out.values.shape[2] for times, out, _ in calls if times[0] == 0]
    assert firsts == [cfg.n_frames + cfg.kernel_n_ds + 1, cfg.n_frames]
    assert all(np.array_equal(out.values, kept) for _, out, kept in calls)


def test_background_points_keep_off_the_filter_band_of_a_wider_filter():
    # at |p| = pi/4 sigma_x is 2.5 px, twice the default's: the band the
    # filter attenuates at the image edges is 3 sigma_x wide
    cfg = Experiment1Config(size=64, n_frames=8, radius=20.0, p_modulus=math.pi / 4)
    grid = ManifoldGrid(cfg.n_theta, cfg.n_v, cfg.v_m)
    _, truth = dashed_circle(cfg.stimulus_spec())
    _, bg = exp1_sample_points(cfg, truth, grid)
    lo = math.ceil(3 * scales_from_frequency(cfg.p_modulus, cfg.v_m)[0]) + 2
    assert lo == 10
    for x, y, _, _ in bg:
        assert lo <= min(x, y) and max(x, y) <= cfg.size - 1 - lo


def test_a_kernel_cached_under_the_key_of_the_unmirrored_estimator_is_not_reused(tmp_path):
    # before the walks deposited their mirror images, the cache key hashed
    # the spec and the lattice alone
    spec = SdeSpec("contour", 0.5, 0.3, 0.05, 2.0, 4096, seed=5)
    lattice = contour_lattice(3, ManifoldGrid(8, 3, 1.0))
    key = vio.config_hash({"sde": spec.to_dict(), "axes": list(lattice.axes),
                           "shape": list(lattice.shape), "origin": list(lattice.origin),
                           "spacing": list(lattice.spacing)})
    stale = np.full(lattice.shape, 1.0 / np.prod(lattice.shape))
    vio.write_kernel(tmp_path / f"contour_{key}.knl",
                     KernelGrid(lattice.axes, lattice.origin, lattice.spacing, stale, spec))
    got = load_or_estimate_kernel(tmp_path, spec, lattice)
    assert experiments.kernel_cache_path(tmp_path, spec, lattice).exists()
    assert len(list(tmp_path.glob("*.knl"))) == 2
    # the cache stores float32
    assert np.allclose(got.values, estimate_kernel(spec, lattice).values, rtol=1e-6, atol=0)
