"""Facilitation gathers and steady activity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motionlift import population
from motionlift.gabor import LiftedActivity, ManifoldGrid, sigmoid
from motionlift.kernels import (
    KernelGrid,
    KernelLattice,
    SdeSpec,
    contour_lattice,
    estimate_kernel,
    kernel_lookup,
    trajectory_lattice,
)
from motionlift.population import (
    FacilitationConfig,
    FacilitationPlan,
    activity_steady,
    facilitate,
    facilitate_reference,
    facilitation_difference,
    truncated_kernel_values,
)


def synthetic_kernel(lat, seed=5, mode="contour"):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 1, lat.shape)
    vals /= vals.sum()
    spec = SdeSpec(mode, 0.1, 0.1, 0.1, 1.0, 1, 0)
    return KernelGrid(lat.axes, lat.origin, lat.spacing, vals, spec)


def record_blocks(mp):
    """Record every block of stencil spectra built while ``mp`` is active, as
    (input orientations, bytes)."""
    blocks = []
    spectra = FacilitationPlan._spectra

    def recorded(plan, d, phis, thetas):
        out = spectra(plan, d, phis, thetas)
        blocks.append((len(thetas), out.nbytes))
        return out

    mp.setattr(FacilitationPlan, "_spectra", recorded)
    return blocks


def fast_in_blocks(act, kernel):
    """facilitate() at the default spectra budget, then at one so small that
    every offset's spectra are built in several blocks of input orientations."""
    fast = [facilitate(act, kernel)]
    with pytest.MonkeyPatch.context() as mp:
        blocks = record_blocks(mp)
        mp.setattr(population, "_BLOCK_BYTES", 1)
        fast.append(facilitate(act, kernel))
    assert max(n for n, _ in blocks) < act.grid.n_theta
    return fast


@pytest.fixture(scope="module")
def small4():
    grid = ManifoldGrid(7, 7, 6, 3, 1.0)
    kernel = synthetic_kernel(contour_lattice(3, 6, 3, 1.0))
    return grid, kernel


@pytest.fixture(scope="module")
def small5():
    grid = ManifoldGrid(7, 7, 6, 3, 1.0)
    kernel = synthetic_kernel(trajectory_lattice(3, 3, 6, 3, 1.0), mode="trajectory")
    return grid, kernel


class TestGatherContract:
    def test_4d_fast_matches_reference(self, small4):
        _, kernel = small4
        rng = np.random.default_rng(1)
        # the stencil is 13 cells wide: sides 3 and 5 put the FFT periods at
        # their floor of one stencil side, 7 fills it exactly, 12 exceeds it
        for side in (7, 3, 5, 12):
            grid = ManifoldGrid(side, side, 6, 3, 1.0)
            act = LiftedActivity(grid, rng.uniform(0, 1, (side, side, 2, 6, 3)),
                                 "facilitation", np.array([0, 1]))
            ref = facilitate_reference(act, kernel)
            for fast in fast_in_blocks(act, kernel):
                assert np.abs(fast.values - ref.values).max() < 1e-10, side

    def test_5d_fast_matches_reference(self, small5):
        grid, kernel = small5
        rng = np.random.default_rng(2)
        # n_v = 5 has half-cell shears, so two fractional classes phi share
        # each input orientation's block of spectra
        grid5 = ManifoldGrid(7, 7, 6, 5, 1.0)
        kernel5 = synthetic_kernel(trajectory_lattice(3, 3, 6, 5, 1.0), mode="trajectory")
        for grid, kernel in ((grid, kernel), (grid5, kernel5)):
            act = LiftedActivity(grid, rng.uniform(0, 1, (7, 7, 5, 6, grid.n_v)),
                                 "facilitation", np.arange(5))
            ref = facilitate_reference(act, kernel)
            for fast in fast_in_blocks(act, kernel):
                assert np.abs(fast.values - ref.values).max() < 1e-10, grid.n_v

    def test_spectra_are_held_one_block_at_a_time(self):
        # the single offset's spectra take 80 MiB on this grid; built and
        # freed in blocks of input orientations, no two blocks are held at once
        grid = ManifoldGrid(40, 40, 16, 9, 1.0)
        kernel = synthetic_kernel(contour_lattice(4, 16, 9, 1.0))
        act = LiftedActivity(grid, np.random.default_rng(12).uniform(0, 1, (40, 40, 1, 16, 9)),
                             "facilitation", np.array([0]))
        with pytest.MonkeyPatch.context() as mp:
            blocks = record_blocks(mp)
            tracemalloc.start()
            try:
                facilitate(act, kernel)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        sizes = [b for _, b in blocks]
        assert len(sizes) > 1
        assert peak < sum(sizes), (peak / 2**20, sum(sizes) / 2**20)
        assert peak < 2 * max(sizes), (peak / 2**20, max(sizes) / 2**20)

    def test_blocks_are_no_smaller_than_the_output_spectra(self, small5):
        # each block costs one pass over the output spectra: with 40 frames
        # they outweigh an offset's whole spectra, so each of the 3 offsets
        # is built in one block even at a 1-byte budget
        grid, kernel = small5
        act = LiftedActivity(grid, np.ones((7, 7, 40, 6, 3)), "facilitation", np.arange(40))
        with pytest.MonkeyPatch.context() as mp:
            blocks = record_blocks(mp)
            mp.setattr(population, "_BLOCK_BYTES", 1)
            facilitate(act, kernel)
        assert [n for n, _ in blocks] == [6, 6, 6]

    @pytest.mark.parametrize("axis", ["q1", "q2", "theta", "v"])
    def test_off_centre_kernel_axes_rejected(self, axis):
        # the plan puts dtheta = 0 at bin 0 and the other zero offsets at the
        # middle bin; a kernel shifted by one bin along v or q1 missed the
        # explicit gather by 0.097 and 0.033 (reference maxima 0.28, 0.25)
        grid = ManifoldGrid(7, 7, 6, 3, 1.0)
        lat = contour_lattice(3, 6, 3, 1.0)
        a = lat.axes.index(axis)
        origin = tuple(o + (lat.spacing[a] if i == a else 0.0)
                       for i, o in enumerate(lat.origin))
        kernel = synthetic_kernel(KernelLattice(lat.axes, lat.shape, origin, lat.spacing))
        act = LiftedActivity(grid, np.random.default_rng(1).uniform(0, 1, (7, 7, 1, 6, 3)),
                             "facilitation", np.array([0]))
        with pytest.raises(ValueError, match=axis):
            facilitate(act, kernel)
        with pytest.raises(ValueError, match=axis):
            facilitate_reference(act, kernel)

    def test_non_square_kernel_rejected(self):
        # the plan's stencil is square: a centred 7x9 kernel missed the
        # explicit gather by 0.037 (reference max 0.23)
        grid = ManifoldGrid(7, 7, 7, 3, 1.0)
        lat = contour_lattice(3, 7, 3, 1.0)
        lat = KernelLattice(lat.axes, (7, 9) + lat.shape[2:], (-3.0, -4.0) + lat.origin[2:],
                            lat.spacing)
        act = LiftedActivity(grid, np.random.default_rng(1).uniform(0, 1, (7, 7, 1, 7, 3)),
                             "facilitation", np.array([0]))
        with pytest.raises(ValueError, match="same length"):
            facilitate(act, synthetic_kernel(lat))

    @pytest.mark.parametrize("frames", [[0, 2, 4], [0, 10, 20]])
    def test_5d_gather_pairs_frames_by_time(self, small5, frames):
        # offsets join frames by their times, not by their array positions:
        # with frame times 0, 2, 4 only ds = 2 couples them, and 10 frames
        # apart lies beyond the kernel's 3-frame reach
        grid, kernel = small5
        act = LiftedActivity(grid, np.random.default_rng(8).uniform(0, 1, (7, 7, 3, 6, 3)),
                             "facilitation", np.array(frames))
        fast = facilitate(act, kernel)
        ref = facilitate_reference(act, kernel)
        assert np.abs(fast.values - ref.values).max() < 1e-10

    @pytest.mark.parametrize("kernel_ds", [2.0])
    def test_trajectory_kernel_needs_unit_frame_spacing(self, kernel_ds):
        # the plan's offsets are ds = 1..n_ds whole frames, so a kernel whose
        # ds bins lie 2 frames apart would be applied at the wrong time lags
        grid = ManifoldGrid(7, 7, 6, 3, 1.0)
        lat = trajectory_lattice(3, 3, 6, 3, 1.0)
        spacing = lat.spacing[:2] + (kernel_ds,) + lat.spacing[3:]
        kernel = synthetic_kernel(KernelLattice(lat.axes, lat.shape, lat.origin, spacing),
                                  mode="trajectory")
        act = LiftedActivity(grid, np.random.default_rng(2).uniform(0, 1, (7, 7, 5, 6, 3)),
                             "facilitation", np.arange(5))
        with pytest.raises(ValueError, match="spacing of 1"):
            facilitate(act, kernel)
        with pytest.raises(ValueError, match="spacing of 1"):
            facilitate_reference(act, kernel)

    def test_fresh_same_shape_kernels_are_each_gathered(self):
        # a kernel built right after the previous one is dropped reuses its
        # id(); every call must still gather through the kernel it was given
        grid = ManifoldGrid(7, 7, 6, 3, 1.0)
        lat = contour_lattice(3, 6, 3, 1.0)
        rng = np.random.default_rng(11)
        act = LiftedActivity(grid, rng.uniform(0, 1, (7, 7, 1, 6, 3)),
                             "facilitation", np.array([0]))
        cases = []
        for seed in range(6):
            k = synthetic_kernel(lat, seed=seed)
            cases.append((k.values, k.spec, facilitate_reference(act, k).values))
        k = None
        for seed, (vals, spec, ref) in enumerate(cases):
            k = KernelGrid(lat.axes, lat.origin, lat.spacing, vals, spec)
            assert np.abs(facilitate(act, k).values - ref).max() < 1e-10, seed
            k = None

    @given(n_theta=st.sampled_from([4, 8]), size=st.integers(5, 9),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_4d_quarter_turn_covariance(self, n_theta, size, seed):
        # a quarter turn of the input plane that also advances every
        # orientation by pi/2 is exact on the pixel grid and must carry
        # through the gather unchanged
        grid = ManifoldGrid(size, size, n_theta, 3, 1.0)
        kernel = synthetic_kernel(contour_lattice(3, n_theta, 3, 1.0), seed=seed)
        vals = np.random.default_rng(seed).uniform(0, 1, (size, size, 1, n_theta, 3))
        turn = lambda v: np.roll(np.rot90(v, 1, axes=(0, 1)), n_theta // 4, axis=3)
        mk = lambda v: LiftedActivity(grid, v, "facilitation", np.array([0]))
        p = facilitate(mk(vals), kernel).values
        p_turned = facilitate(mk(turn(vals)), kernel).values
        assert np.abs(p_turned - turn(p)).max() < 1e-12

    def test_linearity(self, small5):
        grid, kernel = small5
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (7, 7, 5, 6, 3))
        b = rng.uniform(0, 1, (7, 7, 5, 6, 3))
        mk = lambda v: LiftedActivity(grid, v, "facilitation", np.arange(5))
        combo = facilitate(mk(2.0 * a + 0.5 * b), kernel)
        parts = 2.0 * facilitate(mk(a), kernel).values + 0.5 * facilitate(mk(b), kernel).values
        assert np.abs(combo.values - parts).max() < 1e-10

    def test_positivity(self, small5):
        grid, kernel = small5
        rng = np.random.default_rng(4)
        act = LiftedActivity(grid, rng.uniform(0, 1, (7, 7, 5, 6, 3)),
                             "facilitation", np.arange(5))
        assert facilitate(act, kernel).values.min() >= 0.0

    def test_spatial_translation_equivariance(self, small4):
        grid, kernel = small4
        rng = np.random.default_rng(5)
        base = np.zeros((7, 7, 1, 6, 3))
        base[1:4, 1:4] = rng.uniform(0, 1, (3, 3, 1, 6, 3))
        shifted = np.roll(base, (2, 1), axis=(0, 1))
        mk = lambda v: LiftedActivity(grid, v, "facilitation", np.array([0]))
        p0 = facilitate(mk(base), kernel).values
        p1 = facilitate(mk(shifted), kernel).values
        # compare away from the zero-padding frontier
        assert np.abs(np.roll(p0, (2, 1), axis=(0, 1))[3:6, 2:5] - p1[3:6, 2:5]).max() < 1e-10

    def test_point_mass_reproduces_kernel(self):
        # a unit point source at the origin element samples the kernel
        # itself on the activity grid
        grid = ManifoldGrid(9, 9, 6, 3, 1.0)
        kernel = synthetic_kernel(contour_lattice(3, 6, 3, 1.0), seed=7)
        vals = np.zeros((9, 9, 1, 6, 3))
        vals[4, 4, 0, 0, 1] = 1.0  # theta = 0 bin, v = 0 bin
        act = LiftedActivity(grid, vals, "facilitation", np.array([0]))
        pattern = facilitate(act, kernel).values
        trunc = KernelGrid(kernel.axes, kernel.origin, kernel.spacing,
                           truncated_kernel_values(kernel), kernel.spec)
        for (dx, dy, it, jv) in ((0, 0, 0, 1), (2, -1, 3, 2), (-3, 3, 5, 0)):
            got = pattern[4 + dx, 4 + dy, 0, it, jv]
            want = kernel_lookup(trunc, [dx, dy, it * grid.d_theta, (jv - 1) * grid.d_v])
            assert got == pytest.approx(want, abs=1e-12)

    def test_point_mass_left_translation(self):
        # translating the input point mass by a group element moves the
        # response peak by the same element
        grid = ManifoldGrid(11, 11, 6, 3, 1.0)
        kernel = synthetic_kernel(contour_lattice(3, 6, 3, 1.0), seed=8)
        # concentrate the kernel so the argmax is crisp
        vals = np.zeros_like(kernel.values)
        vals[4, 5, 1, 2] = 1.0  # offset (+1, +2) rotated, dtheta one bin
        kernel = KernelGrid(kernel.axes, kernel.origin, kernel.spacing, vals,
                            kernel.spec)
        mk = lambda v: LiftedActivity(grid, v, "facilitation", np.array([0]))

        src0 = np.zeros((11, 11, 1, 6, 3))
        src0[5, 5, 0, 0, 1] = 1.0
        p0 = facilitate(mk(src0), kernel).values
        peak0 = np.unravel_index(p0.argmax(), p0.shape)

        src1 = np.zeros((11, 11, 1, 6, 3))
        src1[3, 6, 0, 2, 1] = 1.0  # shifted and rotated by two bins
        p1 = facilitate(mk(src1), kernel).values
        peak1 = np.unravel_index(p1.argmax(), p1.shape)
        # expected: spatial offset rotated by the source's orientation,
        # fiber advanced by the source's bins
        th_src = 2 * grid.d_theta
        off = np.array([peak0[0] - 5, peak0[1] - 5], dtype=float)
        c, s = math.cos(th_src), math.sin(th_src)
        want = np.array([3 + c * off[0] - s * off[1], 6 + s * off[0] + c * off[1]])
        assert abs(peak1[0] - want[0]) <= 1.0
        assert abs(peak1[1] - want[1]) <= 1.0
        assert peak1[3] == (peak0[3] + 2) % 6

    def test_incompatible_grids_rejected(self, small4):
        grid, kernel = small4
        bad = ManifoldGrid(7, 7, 8, 3, 1.0)
        act = LiftedActivity(bad, np.zeros((7, 7, 1, 8, 3)), "facilitation",
                             np.array([0]))
        with pytest.raises(ValueError):
            facilitate(act, kernel)

    def test_trajectory_kernel_reaches_strictly_forward(self, small5):
        grid, kernel = small5
        vals = np.zeros((7, 7, 5, 6, 3))
        vals[3, 3, 2, 0, 1] = 1.0
        act = LiftedActivity(grid, vals, "facilitation", np.arange(5))
        p = facilitate(act, kernel).values
        assert p[:, :, :3].max() == 0.0  # nothing at ds <= 0
        assert p[:, :, 3:].max() > 0.0


class TestSteadyActivity:
    def test_zero_strength_is_pure_feedforward(self, small4):
        grid, kernel = small4
        rng = np.random.default_rng(6)
        raw = LiftedActivity(grid, rng.uniform(0, 1, (7, 7, 1, 6, 3)), "raw",
                             np.array([0]))
        pattern = facilitate(raw.with_values(sigmoid(raw.values, 10, 0.5),
                                             "facilitation"), kernel)
        cfg = FacilitationConfig(0.0, 10.0, 0.5)
        steady = activity_steady(raw, pattern, cfg)
        assert np.allclose(steady.values, sigmoid(raw.values, 10.0, 0.5))

    def test_monotone_in_facilitation(self, small4):
        grid, kernel = small4
        rng = np.random.default_rng(7)
        raw = LiftedActivity(grid, rng.uniform(0, 1, (7, 7, 1, 6, 3)), "raw",
                             np.array([0]))
        p1 = raw.with_values(rng.uniform(0, 0.5, raw.values.shape), "facilitation")
        p2 = p1.with_values(p1.values + 0.1, "facilitation")
        cfg = FacilitationConfig(5.0, 10.0, 0.5)
        s1 = activity_steady(raw, p1, cfg)
        s2 = activity_steady(raw, p2, cfg)
        assert (s2.values >= s1.values).all()
        assert 0.0 < s1.values.min() and s1.values.max() < 1.0

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            FacilitationConfig(-1.0, 10.0, 0.5)


class TestFacilitationDifference:
    def test_elementwise_signed(self, small4):
        grid, _ = small4
        rng = np.random.default_rng(10)
        mk = lambda: LiftedActivity(
            grid, np.clip(rng.uniform(0.01, 0.99, (7, 7, 1, 6, 3)), 1e-6, 1 - 1e-6),
            "total", np.array([0]))
        full, first, second = mk(), mk(), mk()
        diff = facilitation_difference(full, first, second)
        assert np.allclose(diff.values,
                           full.values - first.values - second.values)
        assert diff.kind == "facilitation"

    def test_no_stimulus_baseline(self, small4):
        # with disjoint parts and zero input everywhere, the probe settles
        # at -S(0)
        grid, kernel = small4
        raw = LiftedActivity(grid, np.zeros((7, 7, 1, 6, 3)), "raw", np.array([0]))
        cfg = FacilitationConfig(0.0, 10.0, 0.5)
        pattern = raw.with_values(np.zeros_like(raw.values), "facilitation")
        f0 = activity_steady(raw, pattern, cfg)
        diff = facilitation_difference(f0, f0, f0)
        assert np.allclose(diff.values, -sigmoid(0.0, 10.0, 0.5))

    def test_requires_total_kind(self, small4):
        grid, _ = small4
        raw = LiftedActivity(grid, np.zeros((7, 7, 1, 6, 3)), "raw", np.array([0]))
        with pytest.raises(ValueError):
            facilitation_difference(raw, raw, raw)


class TestRealKernelTranslation:
    def test_contour_point_source_matches_shifted_estimate(self):
        # facilitation of a point source at zeta equals a kernel directly
        # re-estimated from zeta (matched seeds), within MC binning noise
        lat = contour_lattice(5, 8, 5, 1.0)
        spec = SdeSpec("contour", 0.35, 0.2, 0.02, 2.0, 30_000, seed=31)
        kernel = estimate_kernel(spec, lat)
        grid = ManifoldGrid(17, 17, 8, 5, 1.0)
        i_th, j_v = 2, 3
        vals = np.zeros((17, 17, 1, 8, 5))
        vals[8, 8, 0, i_th, j_v] = 1.0
        act = LiftedActivity(grid, vals, "facilitation", np.array([0]))
        pattern = facilitate(act, kernel).values[:, :, 0]

        # direct estimation from the shifted start, binned on the activity
        # grid (same noise stream as the cached kernel)
        import motionlift.kernels as kmod

        theta0 = i_th * grid.d_theta
        v0 = grid.vs[j_v]
        counts = kmod._batch_counts(spec.n_paths)
        children = np.random.SeedSequence(spec.seed).spawn(len(counts))
        hist = np.zeros((17, 17, 8, 5))
        dt = spec.dt_exact
        sk = math.sqrt(2 * dt) * spec.kappa
        sa = math.sqrt(2 * dt) * spec.alpha
        for nb, ch in zip(counts, children):
            rng = np.random.default_rng(ch)
            noise = rng.standard_normal((spec.n_steps, 2, nb))
            q1 = np.full(nb, 8.0)
            q2 = np.full(nb, 8.0)
            th = np.full(nb, theta0)
            v = np.full(nb, v0)
            for k in range(spec.n_steps):
                q1 += -np.sin(th) * dt
                q2 += np.cos(th) * dt
                th += sk * noise[k, 0]
                v += sa * noise[k, 1]
                i1 = np.rint(q1).astype(int)
                i2 = np.rint(q2).astype(int)
                it = np.rint(th / grid.d_theta).astype(int) % 8
                iv = np.rint((v + 1.0) / grid.d_v).astype(int)
                ok = (i1 >= 0) & (i1 < 17) & (i2 >= 0) & (i2 < 17) & (iv >= 0) & (iv < 5)
                np.add.at(hist, (i1[ok], i2[ok], it[ok], iv[ok]), dt)
        direct = hist / hist.sum()
        sampled = pattern / pattern.sum()
        assert np.abs(sampled - direct).sum() < 0.15
