"""Filter bank construction, energy lifting, thresholding, argmax fibers."""

import math

import numpy as np
import pytest

from motionlift.gabor import (
    _SIG_CHUNK,
    GaborBank,
    LiftedActivity,
    ManifoldGrid,
    StimulusVolume,
    energy_filter,
    energy_filter_direct,
    lift_surface,
    scales_from_frequency,
    sigmoid,
    sigmoid_in_place,
    threshold_activity,
)
from motionlift.stimuli import plane_wave, translating_bar

P_HALF = math.pi / 2


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
    return ManifoldGrid(24, 24, 8, 5, 1.0, s_slices=(8,))


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
        grid = ManifoldGrid(8, 8, n_theta, n_v, v_m)
        ref = _meshgrid_filters(grid, p)
        filters = GaborBank(grid, p).filters
        assert filters.shape == ref.shape
        assert np.abs(filters - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_nyquist_frequency_rejected(self, small_grid):
        with pytest.raises(ValueError, match="Nyquist"):
            GaborBank(small_grid, math.pi)


class TestEnergyFilter:
    def test_bank_must_match_frequency_and_fibers(self, small_grid, bank):
        # a bank built for another |p| or another v_m lifts with its own
        stim, _ = translating_bar((24, 24, 16), 0.0, 0.5, 2.0)
        with pytest.raises(ValueError, match="built for"):
            energy_filter(stim, small_grid, 1.0, bank=bank)
        slow = ManifoldGrid(24, 24, 8, 5, 0.5, s_slices=(8,))
        with pytest.raises(ValueError, match="fiber"):
            energy_filter(stim, slow, P_HALF, bank=bank)
        coarse = ManifoldGrid(24, 24, 4, 5, 1.0, s_slices=(8,))
        with pytest.raises(ValueError, match="fiber"):
            energy_filter(stim, coarse, P_HALF, bank=bank)

    def test_constant_stimulus_zero_interior(self, small_grid, bank):
        stim = StimulusVolume(np.full((24, 24, 16), 0.63))
        act = energy_filter(stim, small_grid, P_HALF, bank=bank)
        rx = bank.rx
        assert act.values[rx:-rx, rx:-rx].max() <= 1e-18

    def test_luminance_offset_invariance(self, small_grid, bank):
        rng = np.random.default_rng(3)
        base = rng.uniform(0, 0.5, (24, 24, 16))
        a1 = energy_filter(StimulusVolume(base), small_grid, P_HALF, bank=bank)
        a2 = energy_filter(StimulusVolume(base + 0.4), small_grid, P_HALF, bank=bank)
        rx = bank.rx
        assert np.abs(a1.values[rx:-rx, rx:-rx] - a2.values[rx:-rx, rx:-rx]).max() < 1e-10

    def test_matched_plane_wave_unit_energy(self, small_grid, bank):
        theta = small_grid.thetas[2]
        stim, _ = plane_wave((24, 24, 16), P_HALF, theta, 0.5)
        act = energy_filter(stim, small_grid, P_HALF, bank=bank)
        rx = bank.rx
        resp = act.values[rx:-rx, rx:-rx, 0, 2, 3]  # v = +0.5 bin
        assert resp.min() > 0.95 and resp.max() < 1.05

    def test_orthogonal_orientation_suppressed(self, small_grid, bank):
        theta = small_grid.thetas[2]
        stim, _ = plane_wave((24, 24, 16), P_HALF, theta, 0.5)
        act = energy_filter(stim, small_grid, P_HALF, bank=bank)
        rx = bank.rx
        orth = act.values[rx:-rx, rx:-rx, 0, (2 + 2) % 8, 3]
        assert orth.max() < 0.1

    def test_flip_pair_symmetry(self, small_grid, bank):
        # energy cannot distinguish (theta, v) from (theta+pi, -v): the
        # lift computes one fiber of each pair and copies it to the other
        stim, _ = plane_wave((24, 24, 16), P_HALF, small_grid.thetas[1], 0.5)
        vals = energy_filter(stim, small_grid, P_HALF, bank=bank).values
        # partner[..., i, j] is the fiber (i - 4, n_v - 1 - j)
        partner = np.roll(vals[..., ::-1], 4, axis=3)
        assert np.array_equal(vals, partner)
        assert vals[:, :, 0, 1, 3].max() > 0.5

    def test_fft_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        grid = ManifoldGrid(12, 12, 6, 3, 1.0, s_slices=(5,))
        stim = StimulusVolume(rng.uniform(0, 1, (12, 12, 10)))
        fast = energy_filter(stim, grid, P_HALF)
        slow = energy_filter_direct(stim, grid, P_HALF)
        assert np.abs(fast.values - slow.values).max() < 1e-10
        # bright edge cells and end frames sit where a too-short FFT period
        # would wrap filter responses into the kept window; 3 pixels along y
        # and 3 frames are fewer than the filter's 7-sample support
        data = rng.uniform(0, 0.2, (12, 3, 3))
        data[[0, -1], :, :] = 1.0
        data[:, [0, -1], :] = 1.0
        data[:, :, [0, -1]] = 1.0
        edges = StimulusVolume(data)
        grid = ManifoldGrid(12, 3, 6, 3, 1.0)
        fast = energy_filter(edges, grid, P_HALF)
        slow = energy_filter_direct(edges, grid, P_HALF)
        assert np.abs(fast.values - slow.values).max() < 1e-10
        # the temporal inverse is evaluated only at the kept frames: they may
        # be non-adjacent, unsorted, repeated or an end frame, on a
        # non-square grid
        stim = StimulusVolume(rng.uniform(0, 1, (12, 9, 10)))
        for frames in ((6, 1, 6), (9,), (0, 9), (3, 2)):
            grid = ManifoldGrid(12, 9, 6, 3, 1.0, s_slices=frames)
            fast = energy_filter(stim, grid, P_HALF)
            slow = energy_filter_direct(stim, grid, P_HALF)
            assert fast.s_frames.tolist() == list(frames)
            assert np.abs(fast.values - slow.values).max() < 1e-10
        # an odd n_theta has no (theta + pi, -v) partners: every fiber is lifted
        grid = ManifoldGrid(12, 9, 5, 3, 1.0, s_slices=(4, 6))
        fast = energy_filter(stim, grid, P_HALF)
        slow = energy_filter_direct(stim, grid, P_HALF)
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
        grid = ManifoldGrid(12, 9, 6, 3, 1.0, s_slices=frames)
        rt = GaborBank(grid, P_HALF).rt
        assert 6 <= 11 - rt and 11 + rt <= 16 and 20 <= 23 - rt  # 11 and 23 are blank-reach
        fast = energy_filter(stim, grid, P_HALF)
        slow = energy_filter_direct(stim, grid, P_HALF)
        assert np.abs(fast.values - slow.values).max() < 1e-10
        blank = [k for k, s in enumerate(frames) if s in (11, 23)]
        assert not fast.values[:, :, blank].any()
        assert not slow.values[:, :, blank].any()
        assert all(fast.values[:, :, k].any() for k in range(len(frames)) if k not in blank)
        # an all-blank movie lifts to all zeros
        empty = energy_filter(StimulusVolume(np.zeros((12, 9, 24))), grid, P_HALF)
        assert empty.values.shape == fast.values.shape
        assert not empty.values.any()

    def test_rotation_covariance_exact_quarter_turn(self):
        # with four orientation bins one bin is a quarter turn, which acts
        # on the pixel grid exactly: the lifted response must permute its
        # theta axis under np.rot90 of the movie, with no resampling error
        n = 32
        grid = ManifoldGrid(n, n, 4, 3, 1.0, s_slices=(6,))
        rng = np.random.default_rng(12)
        base = rng.uniform(0, 1, (n, n, 12))
        smooth = np.zeros_like(base)
        for t_ in range(12):  # mild smoothing keeps energies well inside (0,1)
            f = base[:, :, t_]
            smooth[:, :, t_] = (f + np.roll(f, 1, 0) + np.roll(f, 1, 1)
                                + np.roll(f, 1, (0, 1))) / 4.0
        act = energy_filter(StimulusVolume(smooth), grid, P_HALF)
        rot = np.rot90(smooth, k=1, axes=(0, 1)).copy()
        act_rot = energy_filter(StimulusVolume(rot), grid, P_HALF)
        # q -> R q with R the quarter turn taking +x to +y: theta bin i -> i+1
        expected = np.rot90(np.roll(act.values, 1, axis=3), k=1, axes=(0, 1))
        rel = np.linalg.norm(act_rot.values - expected) / np.linalg.norm(expected)
        assert rel < 1e-10

    def test_rotation_covariance_one_bin_analytic(self):
        # rotating a drifting wave by one 45-degree bin (re-rendered
        # analytically, no resampling) advances the argmax theta bin by one
        n = 40
        grid = ManifoldGrid(n, n, 8, 3, 1.0, s_slices=(6,))
        r0, _ = plane_wave((n, n, 12), P_HALF, grid.thetas[1], 0.4)
        r1, _ = plane_wave((n, n, 12), P_HALF, grid.thetas[2], 0.4)
        a0 = energy_filter(r0, grid, P_HALF)
        a1 = energy_filter(r1, grid, P_HALF)
        m0 = a0.values[8:-8, 8:-8, 0].mean(axis=(0, 1))
        m1 = a1.values[8:-8, 8:-8, 0].mean(axis=(0, 1))
        assert np.abs(np.roll(m0, 1, axis=0) - m1).max() < 0.02

    def test_empty_s_slices_rejected(self):
        with pytest.raises(ValueError, match="s_slices"):
            ManifoldGrid(8, 8, 4, 3, 1.0, s_slices=())

    def test_grid_mismatch_rejected(self, small_grid):
        stim = StimulusVolume(np.zeros((10, 10, 4)))
        with pytest.raises(ValueError):
            energy_filter(stim, small_grid, P_HALF)


def _rotate_volume(data, angle):
    """Bilinear rotation of each frame about the image center."""
    n1, n2, nt = data.shape
    c1, c2 = (n1 - 1) / 2.0, (n2 - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(n2), np.arange(n1), indexing="xy")
    x = xx.T - c1
    y = yy.T - c2
    ca, sa = math.cos(-angle), math.sin(-angle)
    sx = ca * x - sa * y + c1
    sy = sa * x + ca * y + c2
    x0 = np.clip(np.floor(sx).astype(int), 0, n1 - 2)
    y0 = np.clip(np.floor(sy).astype(int), 0, n2 - 2)
    fx = np.clip(sx - x0, 0, 1)
    fy = np.clip(sy - y0, 0, 1)
    out = np.empty_like(data)
    for t in range(nt):
        f = data[:, :, t]
        out[:, :, t] = (
            f[x0, y0] * (1 - fx) * (1 - fy)
            + f[x0 + 1, y0] * fx * (1 - fy)
            + f[x0, y0 + 1] * (1 - fx) * fy
            + f[x0 + 1, y0 + 1] * fx * fy
        )
    inside = (sx >= 0) & (sx <= n1 - 1) & (sy >= 0) & (sy <= n2 - 1)
    out *= inside[:, :, None]
    return out


class TestThreshold:
    def test_elementwise_sigmoid(self, small_grid, bank):
        stim, _ = plane_wave((24, 24, 16), P_HALF, 0.0, 0.5)
        act = energy_filter(stim, small_grid, P_HALF, bank=bank)
        thr = threshold_activity(act, 10.0, 0.5)
        assert thr.kind == "thresholded"
        assert np.allclose(thr.values, sigmoid(act.values, 10.0, 0.5))
        assert 0.0 < thr.values.min() and thr.values.max() < 1.0

    def test_requires_raw(self, small_grid, bank):
        stim, _ = plane_wave((24, 24, 16), P_HALF, 0.0, 0.5)
        act = energy_filter(stim, small_grid, P_HALF, bank=bank)
        thr = threshold_activity(act, 10.0, 0.5)
        with pytest.raises(ValueError):
            threshold_activity(thr, 10.0, 0.5)


class TestLiftSurface:
    def test_plane_wave_constant_fiber(self, small_grid, bank):
        stim, _ = plane_wave((24, 24, 16), P_HALF, small_grid.thetas[2], 0.5)
        act = energy_filter(stim, small_grid, P_HALF, bank=bank)
        surf = lift_surface(act, floor=0.5)
        rx = bank.rx
        inner = surf[(surf["ix"] >= rx) & (surf["ix"] < 24 - rx)
                     & (surf["iy"] >= rx) & (surf["iy"] < 24 - rx)]
        assert len(inner) > 0
        flip_ok = ((inner["i_theta"] == 2) & (inner["i_v"] == 3)) | (
            (inner["i_theta"] == 6) & (inner["i_v"] == 1))
        assert flip_ok.all()

    def test_below_floor_empty(self, small_grid, bank):
        # a uniform field responds only where zero padding cuts the
        # support, i.e. inside the boundary band
        stim = StimulusVolume(np.full((24, 24, 16), 0.2))
        act = energy_filter(stim, small_grid, P_HALF, bank=bank)
        surf = lift_surface(act, floor=1e-3)
        rx = bank.rx
        interior = surf[(surf["ix"] >= rx) & (surf["ix"] < 24 - rx)
                        & (surf["iy"] >= rx) & (surf["iy"] < 24 - rx)]
        assert len(interior) == 0

    def test_bar_recovery_rate(self):
        # translating bars: argmax fiber within one bin (flip-equivalent
        # representations allowed) at >= 95% of interior active locations
        grid_proto = ManifoldGrid(40, 40, 8, 5, 1.0, s_slices=(8,))
        bank8 = GaborBank(grid_proto, P_HALF)
        total = hits = 0
        for i_theta in (0, 2, 3, 5, 7):
            for v in (-0.75, -0.25, 0.0, 0.5, 1.0):
                theta = grid_proto.thetas[i_theta]
                stim, _ = translating_bar((40, 40, 16), theta, v, 2.0)
                act = energy_filter(stim, grid_proto, P_HALF, bank=bank8)
                surf = lift_surface(act, floor=0.25)
                j_v = int(round((v + 1.0) / grid_proto.d_v))
                for row in surf:
                    if not (8 <= row["ix"] < 32 and 8 <= row["iy"] < 32):
                        continue
                    total += 1
                    d_dir = min((row["i_theta"] - i_theta) % 8,
                                (i_theta - row["i_theta"]) % 8)
                    ok_dir = d_dir <= 1 and abs(row["i_v"] - j_v) <= 1
                    d_flip = min((row["i_theta"] - i_theta - 4) % 8,
                                 (i_theta + 4 - row["i_theta"]) % 8)
                    j_vf = (grid_proto.n_v - 1) - j_v
                    ok_flip = d_flip <= 1 and abs(row["i_v"] - j_vf) <= 1
                    hits += int(ok_dir or ok_flip)
        assert total > 500
        assert hits / total >= 0.95


class TestActivityValidation:
    def test_kind_checked(self, small_grid):
        with pytest.raises(ValueError):
            LiftedActivity(small_grid, -np.ones((2, 2, 1, 8, 5)), "raw",
                           np.array([0]))

    def test_sigmoid_range_checked(self, small_grid):
        with pytest.raises(ValueError):
            LiftedActivity(small_grid, np.zeros((2, 2, 1, 8, 5)), "thresholded",
                           np.array([0]))
