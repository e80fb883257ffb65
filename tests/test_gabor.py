"""Filter bank construction, energy lifting, thresholding, argmax fibers."""

import math
import tracemalloc

import numpy as np
import pytest

from motionlift.gabor import (
    _SIG_CHUNK,
    GaborBank,
    LiftedActivity,
    ManifoldGrid,
    StimulusVolume,
    _dense_filters,
    energy_filter,
    energy_filter_direct,
    scales_from_frequency,
    sigmoid,
    sigmoid_in_place,
    threshold_activity,
)
from motionlift.stimuli import plane_wave, translating_bar

P_HALF = math.pi / 2
MID = (8,)  # the frame the small-grid tests lift


class TestScales:
    def test_experiment_values(self):
        sx, st = scales_from_frequency(P_HALF, 1.0)
        assert sx == pytest.approx(1.25)
        assert st == pytest.approx(1.0)

    def test_spatial_scale_inverse_in_frequency(self):
        sx, _ = scales_from_frequency(math.pi, 1.0)
        assert sx == pytest.approx(0.625)

    def test_temporal_scale_inverse_in_peak_velocity(self):
        _, st1 = scales_from_frequency(P_HALF, 1.0)
        _, st2 = scales_from_frequency(P_HALF, 2.0)
        assert st2 == pytest.approx(st1 / 2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scales_from_frequency(-1.0, 1.0)
        with pytest.raises(ValueError):
            scales_from_frequency(1.0, 0.0)


class TestSigmoid:
    def test_half_at_threshold(self):
        assert sigmoid(0.5, 10.0, 0.5) == pytest.approx(0.5)

    def test_experiment_value(self):
        assert sigmoid(1.0, 10.0, 0.5) == pytest.approx(1.0 / (1.0 + math.exp(-5.0)))

    def test_monotone(self):
        taus = np.linspace(-2, 2, 41)
        out = sigmoid(taus, 10.0, 0.5)
        assert (np.diff(out) > 0).all()

    def test_extreme_arguments_stay_in_unit_interval(self):
        # saturated outputs are clamped to the open interval at float
        # resolution so downstream range validation holds
        assert 0.0 < sigmoid(-1e3, 20.0, 0.7) < 1.0
        assert 0.0 < sigmoid(1e3, 20.0, 0.7) < 1.0
        assert sigmoid(1e3, 20.0, 0.7) == pytest.approx(1.0)

    @pytest.mark.parametrize("mu, beta", [(10.0, 0.5), (20.0, 0.7), (40.0, 0.0)])
    def test_same_bits_as_the_masked_formula(self, mu, beta):
        def masked(tau):
            # the formula with one exp per sign of z, each on its own entries
            tau = np.asarray(tau, dtype=np.float64)
            out = np.empty_like(tau)
            z = mu * (tau - beta)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

        rng = np.random.default_rng(4)
        edges = [beta, -0.0, 0.0, beta + 1e-17, 5e-324, 1e300, -1e300, np.inf, -np.inf]
        # spans several chunks and ends in a partial one, with edges in both
        taus = np.concatenate([edges, rng.normal(beta, 3.0 / mu, 2 * _SIG_CHUNK),
                               rng.uniform(-100.0, 100.0, 1000), edges])
        assert taus.size > _SIG_CHUNK and taus.size % _SIG_CHUNK
        assert np.array_equal(sigmoid(taus, mu, beta), masked(taus))
        assert sigmoid(beta + 0.1, mu, beta) == float(masked(beta + 0.1))
        assert isinstance(sigmoid(beta, mu, beta), float)

    @pytest.mark.parametrize("view", [
        lambda a: a[:, ::2],      # strided: every other column
        lambda a: a.T,            # Fortran-ordered
        lambda a: a[::-1, 1:-1],  # reversed rows, cut columns
    ])
    def test_in_place_on_any_layout(self, view):
        # a non-contiguous tau is written in place, entry for entry, and
        # the entries outside the view are left alone
        rng = np.random.default_rng(5)
        base = rng.normal(0.5, 0.3, (_SIG_CHUNK // 100, 301))
        want = base.copy()
        view(want)[...] = sigmoid(view(base).copy(), 10.0, 0.5)
        tau = view(base)
        assert sigmoid_in_place(tau, 10.0, 0.5) is tau
        assert np.array_equal(base, want)


@pytest.fixture(scope="module")
def small_grid():
    return ManifoldGrid(8, 5, 1.0)


@pytest.fixture(scope="module")
def bank(small_grid):
    return GaborBank(small_grid, P_HALF)


def _meshgrid_filters(grid, p_modulus):
    """The bank built as dense arrays, one filter at a time."""
    bank = GaborBank(grid, p_modulus)
    ax = np.arange(-bank.rx, bank.rx + 1, dtype=float)
    at = np.arange(-bank.rt, bank.rt + 1, dtype=float)
    X1, X2, T = np.meshgrid(ax, ax, at, indexing="ij")
    envelope = np.exp(-(X1 * X1 + X2 * X2) / bank.sigma_x**2 - T * T / bank.sigma_t**2)
    out = np.empty((grid.n_theta, grid.n_v, ax.size, ax.size, at.size), dtype=np.complex128)
    a_sum = envelope.sum()
    for i, theta in enumerate(grid.thetas):
        p1 = p_modulus * math.cos(theta)
        p2 = p_modulus * math.sin(theta)
        for j, v in enumerate(grid.vs):
            wave = np.exp(1j * (p1 * X1 + p2 * X2 - p_modulus * v * T))
            b_sum = (wave * envelope).sum()
            e2_sum = (np.conj(wave) ** 2 * envelope).sum()
            mat = np.array([[a_sum, b_sum], [np.conj(b_sum), a_sum]])
            ca, cb = np.linalg.solve(mat, np.array([np.conj(b_sum), e2_sum]))
            w = np.conj(wave) * envelope - ca * envelope - cb * wave * envelope
            out[i, j] = w * 4.0 / np.abs((w * wave).sum())
    return out


class TestGaborBank:
    @pytest.mark.parametrize("n_theta, n_v, v_m, p", [
        (8, 5, 1.0, P_HALF), (6, 3, 1.0, 1.0), (16, 9, 2.0, P_HALF), (4, 1, 1.0, 2.5),
    ])
    def test_factored_filters_match_dense_construction(self, n_theta, n_v, v_m, p):
        grid = ManifoldGrid(n_theta, n_v, v_m)
        ref = _meshgrid_filters(grid, p)
        filters = _dense_filters(GaborBank(grid, p))
        assert filters.shape == ref.shape
        assert np.abs(filters - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_the_bank_builds_no_dense_filters(self):
        # the lift reads the separable factors only; the dense filters of
        # 16 x 9 fibers at |p| = 0.3, which only the direct sum reads, take
        # 104 MB
        tracemalloc.start()
        try:
            GaborBank(ManifoldGrid(16, 9), 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_nyquist_frequency_rejected(self, small_grid):
        with pytest.raises(ValueError, match="Nyquist"):
            GaborBank(small_grid, math.pi)


class TestEnergyFilter:
    def test_constant_stimulus_zero_interior(self, bank):
        stim = StimulusVolume(np.full((24, 24, 16), 0.63))
        act = energy_filter(stim, bank, MID)
        rx = bank.rx
        assert act.values[rx:-rx, rx:-rx].max() <= 1e-18

    def test_luminance_offset_invariance(self, bank):
        rng = np.random.default_rng(3)
        base = rng.uniform(0, 0.5, (24, 24, 16))
        a1 = energy_filter(StimulusVolume(base), bank, MID)
        a2 = energy_filter(StimulusVolume(base + 0.4), bank, MID)
        rx = bank.rx
        assert np.abs(a1.values[rx:-rx, rx:-rx] - a2.values[rx:-rx, rx:-rx]).max() < 1e-10

    def test_matched_plane_wave_unit_energy(self, small_grid, bank):
        theta = small_grid.thetas[2]
        stim, _ = plane_wave((24, 24, 16), P_HALF, theta, 0.5)
        act = energy_filter(stim, bank, MID)
        rx = bank.rx
        resp = act.values[rx:-rx, rx:-rx, 0, 2, 3]  # v = +0.5 bin
        assert resp.min() > 0.95 and resp.max() < 1.05

    def test_orthogonal_orientation_suppressed(self, small_grid, bank):
        theta = small_grid.thetas[2]
        stim, _ = plane_wave((24, 24, 16), P_HALF, theta, 0.5)
        act = energy_filter(stim, bank, MID)
        rx = bank.rx
        orth = act.values[rx:-rx, rx:-rx, 0, (2 + 2) % 8, 3]
        assert orth.max() < 0.1

    def test_flip_pair_symmetry(self, small_grid, bank):
        # energy cannot distinguish (theta, v) from (theta+pi, -v): the
        # lift computes one fiber of each pair and copies it to the other
        stim, _ = plane_wave((24, 24, 16), P_HALF, small_grid.thetas[1], 0.5)
        vals = energy_filter(stim, bank, MID).values
        # partner[..., i, j] is the fiber (i - 4, n_v - 1 - j)
        partner = np.roll(vals[..., ::-1], 4, axis=3)
        assert np.array_equal(vals, partner)
        assert vals[:, :, 0, 1, 3].max() > 0.5

    def test_fft_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        bank = GaborBank(ManifoldGrid(6, 3, 1.0), P_HALF)
        stim = StimulusVolume(rng.uniform(0, 1, (12, 12, 10)))
        fast = energy_filter(stim, bank, (5,))
        slow = energy_filter_direct(stim, bank, (5,))
        assert np.abs(fast.values - slow.values).max() < 1e-10
        # bright edge cells and end frames sit where a too-short FFT period
        # would wrap filter responses into the kept window; 3 pixels along y
        # and 3 frames are fewer than the filter's 7-sample support
        data = rng.uniform(0, 0.2, (12, 3, 3))
        data[[0, -1], :, :] = 1.0
        data[:, [0, -1], :] = 1.0
        data[:, :, [0, -1]] = 1.0
        edges = StimulusVolume(data)
        bank = GaborBank(ManifoldGrid(6, 3, 1.0), P_HALF)
        fast = energy_filter(edges, bank)
        slow = energy_filter_direct(edges, bank)
        assert np.abs(fast.values - slow.values).max() < 1e-10
        # the temporal inverse is evaluated only at the kept frames: they may
        # be non-adjacent, unsorted, repeated or an end frame, on a
        # non-square grid
        stim = StimulusVolume(rng.uniform(0, 1, (12, 9, 10)))
        bank = GaborBank(ManifoldGrid(6, 3, 1.0), P_HALF)
        for frames in ((6, 1, 6), (9,), (0, 9), (3, 2)):
            fast = energy_filter(stim, bank, frames)
            slow = energy_filter_direct(stim, bank, frames)
            assert fast.s_frames.tolist() == list(frames)
            assert np.abs(fast.values - slow.values).max() < 1e-10

    def test_blank_reach_frames_are_exact_zeros(self):
        # frames 2-5 and 17-19 hold the movie; a kept frame whose +-rt
        # frames are all blank (here 11, in the 11-frame blank run, and the
        # end frame 23) has energy exactly 0, and the other kept frames
        # still match the direct sum
        rng = np.random.default_rng(9)
        data = np.zeros((12, 9, 24))
        data[:, :, 2:6] = rng.uniform(0, 1, (12, 9, 4))
        data[:, :, 17:20] = rng.uniform(0, 1, (12, 9, 3))
        stim = StimulusVolume(data)
        frames = (11, 3, 23, 11, 0, 18, 7)
        bank = GaborBank(ManifoldGrid(6, 3, 1.0), P_HALF)
        rt = bank.rt
        assert 6 <= 11 - rt and 11 + rt <= 16 and 20 <= 23 - rt  # 11 and 23 are blank-reach
        fast = energy_filter(stim, bank, frames)
        slow = energy_filter_direct(stim, bank, frames)
        assert np.abs(fast.values - slow.values).max() < 1e-10
        blank = [k for k, s in enumerate(frames) if s in (11, 23)]
        assert not fast.values[:, :, blank].any()
        assert not slow.values[:, :, blank].any()
        assert all(fast.values[:, :, k].any() for k in range(len(frames)) if k not in blank)
        # an all-blank movie lifts to all zeros
        empty = energy_filter(StimulusVolume(np.zeros((12, 9, 24))), bank, frames)
        assert empty.values.shape == fast.values.shape
        assert not empty.values.any()

    def test_rotation_covariance_exact_quarter_turn(self):
        # with four orientation bins one bin is a quarter turn, which acts
        # on the pixel grid exactly: the lifted response must permute its
        # theta axis under np.rot90 of the movie, with no resampling error
        n = 32
        bank = GaborBank(ManifoldGrid(4, 3, 1.0), P_HALF)
        rng = np.random.default_rng(12)
        base = rng.uniform(0, 1, (n, n, 12))
        smooth = np.zeros_like(base)
        for t_ in range(12):  # mild smoothing keeps energies well inside (0,1)
            f = base[:, :, t_]
            smooth[:, :, t_] = (f + np.roll(f, 1, 0) + np.roll(f, 1, 1)
                                + np.roll(f, 1, (0, 1))) / 4.0
        act = energy_filter(StimulusVolume(smooth), bank, (6,))
        rot = np.rot90(smooth, k=1, axes=(0, 1)).copy()
        act_rot = energy_filter(StimulusVolume(rot), bank, (6,))
        # q -> R q with R the quarter turn taking +x to +y: theta bin i -> i+1
        expected = np.rot90(np.roll(act.values, 1, axis=3), k=1, axes=(0, 1))
        rel = np.linalg.norm(act_rot.values - expected) / np.linalg.norm(expected)
        assert rel < 1e-10

    def test_rotation_covariance_one_bin_analytic(self):
        # rotating a drifting wave by one 45-degree bin (re-rendered
        # analytically, no resampling) advances the argmax theta bin by one
        n = 40
        grid = ManifoldGrid(8, 3, 1.0)
        bank = GaborBank(grid, P_HALF)
        r0, _ = plane_wave((n, n, 12), P_HALF, grid.thetas[1], 0.4)
        r1, _ = plane_wave((n, n, 12), P_HALF, grid.thetas[2], 0.4)
        a0 = energy_filter(r0, bank, (6,))
        a1 = energy_filter(r1, bank, (6,))
        m0 = a0.values[8:-8, 8:-8, 0].mean(axis=(0, 1))
        m1 = a1.values[8:-8, 8:-8, 0].mean(axis=(0, 1))
        assert np.abs(np.roll(m0, 1, axis=0) - m1).max() < 0.02

    @pytest.mark.parametrize("lift", [energy_filter, energy_filter_direct])
    @pytest.mark.parametrize("frames", [(), [], (0, 16), (-1,), (3, 99)],
                             ids=["empty", "empty-list", "end", "negative", "far"])
    def test_empty_or_outside_frames_rejected(self, bank, lift, frames):
        stim = StimulusVolume(np.zeros((24, 24, 16)))
        match = "at least one frame" if len(frames) == 0 else "outside the stimulus's frames 0..15"
        with pytest.raises(ValueError, match=match):
            lift(stim, bank, frames)


class TestThreshold:
    def test_elementwise_sigmoid(self, bank):
        stim, _ = plane_wave((24, 24, 16), P_HALF, 0.0, 0.5)
        act = energy_filter(stim, bank, MID)
        thr = threshold_activity(act, 10.0, 0.5)
        assert thr.kind == "thresholded"
        assert np.allclose(thr.values, sigmoid(act.values, 10.0, 0.5))
        assert 0.0 < thr.values.min() and thr.values.max() < 1.0

    def test_requires_raw(self, bank):
        stim, _ = plane_wave((24, 24, 16), P_HALF, 0.0, 0.5)
        act = energy_filter(stim, bank, MID)
        thr = threshold_activity(act, 10.0, 0.5)
        with pytest.raises(ValueError):
            threshold_activity(thr, 10.0, 0.5)


class TestLiftSurface:
    """The argmax fiber of the lifted energy at each (q1, q2, s); ties go to
    the first fiber in theta-major order."""

    def test_plane_wave_constant_fiber(self, bank):
        stim, _ = plane_wave((24, 24, 16), P_HALF, bank.grid.thetas[2], 0.5)
        rx = bank.rx
        vals = energy_filter(stim, bank, MID).values[rx:-rx, rx:-rx, 0]
        vals = vals.reshape(vals.shape[:2] + (-1,))
        i_theta, i_v = np.divmod(vals.argmax(axis=-1)[vals.max(axis=-1) > 0.5], 5)
        assert i_theta.size > 0
        flip_ok = ((i_theta == 2) & (i_v == 3)) | ((i_theta == 6) & (i_v == 1))
        assert flip_ok.all()

    def test_bar_recovery_rate(self):
        # translating bars: argmax fiber within one bin (flip-equivalent
        # representations allowed) at >= 95% of interior active locations
        grid = ManifoldGrid(8, 5, 1.0)
        bank8 = GaborBank(grid, P_HALF)
        total = hits = 0
        for i_theta in (0, 2, 3, 5, 7):
            for v in (-0.75, -0.25, 0.0, 0.5, 1.0):
                stim, _ = translating_bar((40, 40, 16), grid.thetas[i_theta], v, 2.0)
                vals = energy_filter(stim, bank8, MID).values[8:32, 8:32, 0].reshape(24, 24, -1)
                got_theta, got_v = np.divmod(vals.argmax(axis=-1)[vals.max(axis=-1) > 0.25],
                                             grid.n_v)
                j_v = int(round((v + 1.0) / grid.d_v))
                d_dir = np.minimum((got_theta - i_theta) % 8, (i_theta - got_theta) % 8)
                ok_dir = (d_dir <= 1) & (np.abs(got_v - j_v) <= 1)
                d_flip = np.minimum((got_theta - i_theta - 4) % 8, (i_theta + 4 - got_theta) % 8)
                j_vf = (grid.n_v - 1) - j_v
                ok_flip = (d_flip <= 1) & (np.abs(got_v - j_vf) <= 1)
                total += got_theta.size
                hits += int(np.count_nonzero(ok_dir | ok_flip))
        assert total > 500
        assert hits / total >= 0.95


class TestActivityValidation:
    @pytest.mark.parametrize("n_theta", [5, 7, 15])
    def test_an_odd_orientation_count_is_refused(self, n_theta):
        # the lift and the gather compute one fiber of each pair (theta, v),
        # (theta + pi, -v), so theta + pi must be a bin
        with pytest.raises(ValueError, match=f"n_theta must be even .*, got {n_theta}"):
            ManifoldGrid(n_theta, 3, 1.0)
        grid = ManifoldGrid(n_theta + 1, 5, 1.0)
        half = grid.n_theta // 2
        assert np.allclose(grid.thetas[half:], grid.thetas[:half] + math.pi)
        assert np.array_equal(grid.vs[::-1], -grid.vs)

    def test_kind_checked(self, small_grid):
        with pytest.raises(ValueError):
            LiftedActivity(small_grid, -np.ones((2, 2, 1, 8, 5)), "raw",
                           np.array([0]))

    def test_sigmoid_range_checked(self, small_grid):
        with pytest.raises(ValueError):
            LiftedActivity(small_grid, np.zeros((2, 2, 1, 8, 5)), "thresholded",
                           np.array([0]))
