"""Facilitation gathers and steady activity."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import motionlift.kernels as kmod
import motionlift.workers as wmod
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
    FacilitationPlan,
    activity_steady,
    facilitate,
    facilitate_reference,
    facilitation_difference,
    truncated_kernel_values,
)
from motionlift.workers import Workers


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

    def recorded(plan, d, t0, t1, workers):
        out = spectra(plan, d, t0, t1, workers)
        blocks.append((plan.grid.thetas[t0:t1], out.nbytes))
        return out

    mp.setattr(FacilitationPlan, "_spectra", recorded)
    return blocks


def fast_in_blocks(act, kernel, several=True):
    """facilitate() at the default spectra budget, then at a 1-byte one,
    which builds every offset's spectra in several blocks of input
    orientations when they outweigh the output spectra (``several``);
    either way only the plan's built orientations are built."""
    with pytest.MonkeyPatch.context() as mp:
        blocks = record_blocks(mp)
        fast = [facilitate(act, kernel)]
        n_default = len(blocks)
        mp.setattr(population, "_BLOCK_BYTES", 1)
        fast.append(facilitate(act, kernel))
    built = act.grid.thetas[: FacilitationPlan(kernel, act.grid, act.values.shape[:2]).n_built]
    assert {th for ths, _ in blocks for th in ths} == set(built)
    if several:
        assert max(len(ths) for ths, _ in blocks[n_default:]) < len(built)
    return fast


@pytest.fixture(scope="module")
def small4():
    grid = ManifoldGrid(6, 3, 1.0)
    kernel = synthetic_kernel(contour_lattice(3, grid))
    return grid, kernel


@pytest.fixture(scope="module")
def small5():
    grid = ManifoldGrid(6, 3, 1.0)
    kernel = synthetic_kernel(trajectory_lattice(3, 3, grid), mode="trajectory")
    return grid, kernel


class TestGatherContract:
    def test_4d_fast_matches_reference(self, small4):
        grid, kernel = small4
        rng = np.random.default_rng(1)
        # the stencil is 13 cells wide: sides 3 and 5 put the FFT periods at
        # their floor of one stencil side, 7 fills it exactly, 12 exceeds it
        for side in (7, 3, 5, 12):
            act = LiftedActivity(grid, rng.uniform(0, 1, (side, side, 2, grid.n_theta, 3)),
                                 "facilitation", np.array([0, 1]))
            ref = facilitate_reference(act, kernel)
            for fast in fast_in_blocks(act, kernel):
                assert np.abs(fast.values - ref.values).max() < 1e-10, side

    def test_5d_fast_matches_reference(self, small5):
        rng = np.random.default_rng(2)
        # with 5 frames of n_v = 3 the output spectra outweigh the built half
        # of the spectra, so even a 1-byte budget keeps one block per offset.
        # n_v = 5 has half-cell shears, so two fractional classes phi share
        # each input orientation's block of spectra; n_v = 9 has the classes
        # 0, 1/4, 1/2 and 3/4, where the half turn of 1/4 is built from 3/4
        cases = [(small5, 7, 5, False)]
        for side, n_theta, n_v, ns in ((7, 6, 5, 5), (6, 4, 9, 3)):
            grid = ManifoldGrid(n_theta, n_v, 1.0)
            kernel = synthetic_kernel(trajectory_lattice(3, 3, grid), mode="trajectory")
            cases.append(((grid, kernel), side, ns, True))
        for (grid, kernel), side, ns, several in cases:
            shape = (side, side, ns, grid.n_theta, grid.n_v)
            act = LiftedActivity(grid, rng.uniform(0, 1, shape), "facilitation", np.arange(ns))
            ref = facilitate_reference(act, kernel)
            for fast in fast_in_blocks(act, kernel, several):
                assert np.abs(fast.values - ref.values).max() < 1e-10, shape

    @pytest.mark.parametrize("h", [3, 4, 6])
    @pytest.mark.parametrize("rank", [4, 5])
    def test_half_turn_spectra_match_built_ones(self, rank, h):
        # _mix serves every input fiber at theta' >= pi from the spectra built
        # at theta' - pi; what it contracts must be the spectrum _spectra
        # builds at theta' itself.  Velocities 0.05 apart put the classes phi
        # within 0.1 of 0 and 1, and n_theta = 8 turns by pi/4, where the
        # lookups reach furthest into the corners of the stencil window
        n_theta, n_v = 8, 3
        grid = ManifoldGrid(n_theta, n_v, 0.05)
        if rank == 4:
            kernel = synthetic_kernel(contour_lattice(h, grid), seed=h)
        else:
            kernel = synthetic_kernel(trajectory_lattice(h, 2, grid), seed=h, mode="trajectory")
        plan = FacilitationPlan(kernel, grid, (5, 5))
        nf, n_dv = n_theta * n_v, kernel.values.shape[-1]
        nk = plan.pad1 * (plan.pad2 // 2 + 1)
        k1 = np.repeat(np.fft.fftfreq(plan.pad1), plan.pad2 // 2 + 1)
        # one input frame per fiber, each a unit impulse in that fiber alone,
        # so output frame i holds fiber i's phase-shifted spectra
        fhat = np.broadcast_to(np.eye(nf, dtype=complex), (nk, nf, nf)).copy()
        for d, ds in enumerate(plan.ds):
            phis = plan.mixing[d][0]
            live = plan.planes[d][0]
            phat = np.zeros((nk, nf, nf), complex)
            with Workers(1) as workers:
                plan._mix(d, fhat, np.arange(nf), phat, np.arange(nf), workers)
            for i in range(n_theta // 2 * n_v, nf):
                i_t, j_v = divmod(i, n_v)
                shear = grid.vs[j_v] * ds
                phi = np.round(shear - math.floor(shear), 12)
                # the plan has corner tables for its built orientations only
                for p in phis:
                    plan.corners[i_t, p] = population._corner_table(
                        grid.thetas[i_t], p, h, plan.ext)
                with Workers(1) as workers:
                    built = plan._spectra(d, i_t, i_t + 1, workers)
                unit = int(np.flatnonzero(phis == phi)[0]) * len(live)
                want = np.zeros((nk, nf), complex)
                for o in range(nf):
                    dv = o % n_v - j_v + n_dv // 2
                    plane = ((o // n_v - i_t) % n_theta) * n_dv + dv
                    if 0 <= dv < n_dv and plane in live:
                        want[:, o] = built[:, unit + int(np.searchsorted(live, plane))]
                want *= np.exp(-2j * np.pi * k1 * (plan.max_m + math.floor(shear)))[:, None]
                err = np.abs(phat[:, i] - want).max() / np.abs(want).max()
                assert err < 1e-13, (ds, i_t, j_v, err)

    def test_spectra_are_held_one_block_at_a_time(self):
        # the built half (theta' < pi) of the single offset's spectra takes
        # 70 MiB on this grid; built and freed in blocks of input
        # orientations, no two blocks are held at once
        grid = ManifoldGrid(16, 9, 1.0)
        kernel = synthetic_kernel(contour_lattice(4, grid))
        act = LiftedActivity(grid, np.random.default_rng(12).uniform(0, 1, (56, 56, 1, 16, 9)),
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
        # they outweigh an offset's built half of the spectra, so each of the
        # 3 offsets is built in one block of n_theta // 2 orientations even
        # at a 1-byte budget
        grid, kernel = small5
        act = LiftedActivity(grid, np.ones((7, 7, 40, 6, 3)), "facilitation", np.arange(40))
        with pytest.MonkeyPatch.context() as mp:
            blocks = record_blocks(mp)
            mp.setattr(population, "_BLOCK_BYTES", 1)
            facilitate(act, kernel)
        assert [len(ths) for ths, _ in blocks] == [3, 3, 3]

    @pytest.mark.parametrize("axis", ["q1", "q2", "theta", "v"])
    def test_off_centre_kernel_axes_rejected(self, axis):
        # the plan puts dtheta = 0 at bin 0 and the other zero offsets at the
        # middle bin; a kernel shifted by one bin along v or q1 missed the
        # explicit gather by 0.097 and 0.033 (reference maxima 0.28, 0.25).
        # No such kernel can be built, so none is ever gathered
        lat = contour_lattice(3, ManifoldGrid(6, 3, 1.0))
        a = lat.axes.index(axis)
        origin = tuple(o + (lat.spacing[a] if i == a else 0.0)
                       for i, o in enumerate(lat.origin))
        with pytest.raises(ValueError, match=axis):
            synthetic_kernel(KernelLattice(lat.axes, lat.shape, origin, lat.spacing))

    def test_non_square_kernel_rejected(self):
        # the plan's stencil is square: a centred 7x9 kernel missed the
        # explicit gather by 0.037 (reference max 0.23); no such kernel can
        # be built
        lat = contour_lattice(3, ManifoldGrid(8, 3, 1.0))
        lat = KernelLattice(lat.axes, (7, 9) + lat.shape[2:], (-3.0, -4.0) + lat.origin[2:],
                            lat.spacing)
        with pytest.raises(ValueError, match="same length"):
            synthetic_kernel(lat)

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

    def test_runs_more_than_n_ds_apart_are_gathered_as_if_alone(self, small5):
        # two runs of frames whose times lie n_ds + 1 apart share one call
        # (and one spectra build); each run's outputs are its own gather's.
        # At n_ds apart the first run's last frame reaches the second's first
        grid, kernel = small5
        n_ds = kernel.values.shape[2]
        rng = np.random.default_rng(9)
        runs = [rng.uniform(0, 1, (7, 7, ns, 6, 3)) for ns in (3, 2)]
        alone = [facilitate(LiftedActivity(grid, vals, "facilitation", np.arange(vals.shape[2])),
                            kernel).values for vals in runs]
        stacked = np.concatenate(runs, axis=2)
        for gap, apart in ((n_ds + 1, True), (n_ds, False)):
            times = np.array([0, 1, 2, 2 + gap, 3 + gap])
            both = LiftedActivity(grid, stacked, "facilitation", times)
            fast = facilitate(both, kernel).values
            split = (fast[:, :, :3], fast[:, :, 3:])
            same = [np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
                    for got, want in zip(split, alone)]
            assert same == [True, apart], gap
            if apart:
                ref = facilitate_reference(both, kernel).values
                assert np.abs(fast - ref).max() <= 1e-10

    def test_a_frame_holding_a_nan_is_live(self, small5):
        # a NaN is not zero: the frames its frame reaches are NaN, not the
        # all-zero output of a dead frame
        grid, kernel = small5
        vals = np.zeros((7, 7, 3, 6, 3))
        vals[3, 3, 0, 2, 1] = np.nan
        out = facilitate(LiftedActivity(grid, vals, "facilitation", np.arange(3)), kernel).values
        assert np.isnan(out[:, :, 1:]).all()
        assert not out[:, :, 0].any()

    @pytest.mark.parametrize("kernel_ds", [2.0])
    def test_trajectory_kernel_needs_unit_frame_spacing(self, kernel_ds):
        # the plan's offsets are ds = 1..n_ds whole frames, so a kernel whose
        # ds bins lie 2 frames apart would be applied at the wrong time lags;
        # no such kernel can be built, so none is ever gathered
        lat = trajectory_lattice(3, 3, ManifoldGrid(6, 3, 1.0))
        spacing = lat.spacing[:2] + (kernel_ds,) + lat.spacing[3:]
        with pytest.raises(ValueError, match="spacing of 1"):
            synthetic_kernel(KernelLattice(lat.axes, lat.shape, lat.origin, spacing),
                             mode="trajectory")

    def test_fresh_same_shape_kernels_are_each_gathered(self):
        # a kernel built right after the previous one is dropped reuses its
        # id(); every call must still gather through the kernel it was given
        grid = ManifoldGrid(6, 3, 1.0)
        lat = contour_lattice(3, grid)
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
        grid = ManifoldGrid(n_theta, 3, 1.0)
        kernel = synthetic_kernel(contour_lattice(3, grid), seed=seed)
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
        grid = ManifoldGrid(6, 3, 1.0)
        kernel = synthetic_kernel(contour_lattice(3, grid), seed=7)
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
        grid = ManifoldGrid(6, 3, 1.0)
        kernel = synthetic_kernel(contour_lattice(3, grid), seed=8)
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
        bad = ManifoldGrid(8, 3, 1.0)
        act = LiftedActivity(bad, np.zeros((7, 7, 1, 8, 3)), "facilitation",
                             np.array([0]))
        with pytest.raises(ValueError):
            facilitate(act, kernel)

    def test_a_kernel_of_another_velocity_spacing_is_rejected(self, small4):
        # v_m = 2 keeps the kernel's shape but doubles its v spacing
        grid, _ = small4
        kernel = synthetic_kernel(contour_lattice(3, ManifoldGrid(6, 3, 2.0)))
        act = LiftedActivity(grid, np.ones((7, 7, 1, 6, 3)), "facilitation", np.array([0]))
        with pytest.raises(ValueError, match="velocity spacings differ"):
            facilitate(act, kernel)

    def test_repeated_frame_times_are_rejected(self, small5):
        grid, kernel = small5
        act = LiftedActivity(grid, np.ones((7, 7, 3, 6, 3)), "facilitation",
                             np.array([0, 1, 1]))
        with pytest.raises(ValueError, match="must be distinct"):
            FacilitationPlan(kernel, grid, (7, 7)).apply(act)

    def test_plan_rejects_an_activity_it_was_not_built_for(self):
        # a plan's FFT periods are for its dims and its shears for its grid's
        # velocities; v_m = 2 has the same shapes as v_m = 1, so only the
        # check stops a gather sheared by the wrong velocities
        grid = ManifoldGrid(8, 5, 1.0)
        kernel = synthetic_kernel(trajectory_lattice(3, 2, grid), mode="trajectory")
        plan = FacilitationPlan(kernel, grid, (5, 5))
        rng = np.random.default_rng(1)
        for other, n in ((grid, 5), (grid, 30), (ManifoldGrid(8, 5, 2.0), 5)):
            act = LiftedActivity(other, rng.uniform(0, 1, (n, n, 3, 8, 5)), "raw", np.arange(3))
            if (other, n) == (grid, 5):
                assert plan.apply(act).shape == act.values.shape
                continue
            with pytest.raises(ValueError, match="plan is for"):
                plan.apply(act)

    def test_trajectory_kernel_reaches_strictly_forward(self, small5):
        grid, kernel = small5
        vals = np.zeros((7, 7, 5, 6, 3))
        vals[3, 3, 2, 0, 1] = 1.0
        act = LiftedActivity(grid, vals, "facilitation", np.arange(5))
        p = facilitate(act, kernel).values
        assert p[:, :, :3].max() == 0.0  # nothing at ds <= 0
        assert p[:, :, 3:].max() > 0.0


def gathered_with_workers(act, kernel, n_threads):
    """facilitate() at ``n_threads``, and the most workers any phase ran."""
    most = []
    deal = Workers.run

    def recorded(workers, n_items, work):
        most.append(min(workers.n, n_items))
        deal(workers, n_items, work)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Workers, "run", recorded)
        out = facilitate(act, kernel, n_threads).values
    return out, max(most)


class TestThreadedGather:
    @pytest.mark.parametrize("frames", ["consecutive", "zero-frame-between"])
    @pytest.mark.parametrize("budget", ["default", "one-byte-blocks", "one-row-chunks"])
    @pytest.mark.parametrize("rank", [4, 5])
    def test_identical_for_every_worker_count(self, small4, small5, rank, budget, frames):
        # with n_v = 5 the built half of the spectra outweighs the output
        # spectra, so a 1-byte budget builds it in several blocks, and in 5D
        # the mirrored fibers of the class phi = 1/2 are served from the
        # built ones; the n_v = 3 inputs keep the reference check cheap
        grid5 = ManifoldGrid(6, 5, 1.0)
        if rank == 4:
            cases = [small4, (grid5, synthetic_kernel(contour_lattice(3, grid5)))]
        else:
            cases = [small5, (grid5, synthetic_kernel(trajectory_lattice(3, 3, grid5),
                                                      mode="trajectory"))]
        for c, (grid, kernel) in enumerate(cases):
            vals = np.random.default_rng(rank).uniform(0, 1, (7, 7, 5, 6, grid.n_v))
            if frames == "zero-frame-between":
                # live frames 0, 1, 3, 4: neither the input nor the output
                # frames of an offset form one run
                vals[:, :, 2] = 0.0
            act = LiftedActivity(grid, vals, "facilitation", np.arange(5))
            interval = sys.getswitchinterval()
            # switch threads often, so that workers writing shared rows or
            # columns would interleave
            sys.setswitchinterval(1e-6)
            with pytest.MonkeyPatch.context() as mp:
                if budget == "one-byte-blocks":
                    blocks = record_blocks(mp)
                    mp.setattr(population, "_BLOCK_BYTES", 1)
                elif budget == "one-row-chunks":
                    # one plane per FFT batch and one Fourier bin per k-chunk
                    mp.setattr(population, "_CHUNK_BYTES", 1)
                try:
                    one, _ = gathered_with_workers(act, kernel, 1)
                    for n in (2, 3):
                        out, most = gathered_with_workers(act, kernel, n)
                        assert most == n
                        assert np.array_equal(out, one), (grid.n_v, n)
                finally:
                    sys.setswitchinterval(interval)
            if budget == "one-byte-blocks" and grid.n_v == 5:
                n_built = FacilitationPlan(kernel, grid, (7, 7)).n_built
                assert max(len(ths) for ths, _ in blocks) < n_built
            if budget == "default" and c == 0:
                ref = facilitate_reference(act, kernel).values
                assert np.abs(one - ref).max() < 1e-10

    @pytest.mark.parametrize("rank", [4, 5])
    def test_two_workers_hold_no_more_memory(self, rank):
        # each worker's FFT batch and k-chunk take its share of _CHUNK_BYTES,
        # so the peak stays that of one worker
        if rank == 4:
            grid = ManifoldGrid(16, 9, 1.0)
            kernel = synthetic_kernel(contour_lattice(4, grid))
            side, ns = 40, 1
        else:
            grid = ManifoldGrid(8, 5, 1.0)
            kernel = synthetic_kernel(trajectory_lattice(4, 4, grid), mode="trajectory")
            side, ns = 24, 10
        vals = np.random.default_rng(12).uniform(0, 1, (side, side, ns, grid.n_theta, grid.n_v))
        act = LiftedActivity(grid, vals, "facilitation", np.arange(ns))
        peaks = []
        for n in (1, 2):
            tracemalloc.start()
            try:
                facilitate(act, kernel, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], [p / 2**20 for p in peaks]

    @pytest.mark.parametrize("n_threads", [0, -2])
    def test_thread_count_below_one_rejected(self, small5, n_threads, no_worker_pool):
        grid, kernel = small5
        for values in (np.ones((7, 7, 5, 6, 3)), np.zeros((7, 7, 5, 6, 3))):  # zeros: no route
            act = LiftedActivity(grid, values, "facilitation", np.arange(5))
            with pytest.raises(ValueError, match="n_threads"):
                facilitate(act, kernel, n_threads)

    def test_no_worker_outlives_the_call(self, small5, monkeypatch):
        # each call starts its n - 1 threads once, and they serve every phase
        grid, kernel = small5
        act = LiftedActivity(grid, np.ones((7, 7, 5, 6, 3)), "facilitation", np.arange(5))
        before = set(threading.enumerate())
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        phases = []
        deal = Workers.run

        def recorded(workers, n_items, work):
            phases.append(min(workers.n, n_items))
            deal(workers, n_items, work)

        monkeypatch.setattr(Workers, "run", recorded)
        for n in (1, 3):
            started.clear()
            phases.clear()
            facilitate(act, kernel, n)
            assert len(started) == n - 1
            assert len(phases) > 3 and max(phases) == n
            assert not any(thread.is_alive() for thread in started)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("rank", [4, 5])
    def test_identical_without_the_blas_cap(self, small4, small5, rank, monkeypatch):
        grid, kernel = small4 if rank == 4 else small5
        vals = np.random.default_rng(rank).uniform(0, 1, (7, 7, 5, 6, 3))
        act = LiftedActivity(grid, vals, "facilitation", np.arange(5))
        capped = facilitate(act, kernel, 2).values
        monkeypatch.setattr(wmod, "_openblas", lambda: None)
        assert np.array_equal(facilitate(act, kernel, 2).values, capped)
        assert np.array_equal(facilitate(act, kernel, 1).values, capped)


class TestZeroPlanes:
    def test_only_nonzero_planes_are_built(self):
        # a trajectory kernel whose ds = 1 keeps a few (dtheta, dv) planes,
        # whose ds = 2 is below the truncation everywhere and whose ds = 3
        # loses one orientation offset
        grid = ManifoldGrid(6, 3, 1.0)
        kernel = synthetic_kernel(trajectory_lattice(3, 3, grid), mode="trajectory")
        vals = kernel.values
        top = vals.max()
        keep = np.zeros((6, 5), bool)
        keep[[0, 1, 5], 1:4] = True
        vals[:, :, 0][..., ~keep] = 0.0
        vals[:, :, 1] *= 1e-3 * population.TRUNC_REL
        vals[:, :, 2, 3] = 0.0
        vals[3, 3, 2, 0, 2] = top  # the max stays where it was
        trunc = truncated_kernel_values(kernel)
        want = [np.flatnonzero(trunc[:, :, d].reshape(49, -1).any(axis=0)) for d in range(3)]
        assert [len(w) for w in want] == [9, 0, 25]
        plan = FacilitationPlan(kernel, grid, (7, 7))
        for (live, _), w in zip(plan.planes, want):
            assert np.array_equal(live, w)
        built = []
        spectra = FacilitationPlan._spectra

        def recorded(plan, d, t0, t1, workers):
            out = spectra(plan, d, t0, t1, workers)
            built.append((d, t1 - t0, out))
            return out

        act = LiftedActivity(grid, np.random.default_rng(9).uniform(0, 1, (7, 7, 5, 6, 3)),
                             "facilitation", np.arange(5))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FacilitationPlan, "_spectra", recorded)
            outs = [facilitate(act, kernel, n).values for n in (1, 2, 3)]
        assert {d for d, _, _ in built} == {0, 2}
        for d, n_thetas, out in built:
            n_units = n_thetas * len(plan.mixing[d][0])
            assert out.shape[1] == n_units * len(want[d]) + 1
            # every column but the trailing zero row is a built plane's spectrum
            assert np.all(np.abs(out[:, :-1]).max(axis=0) > 0)
            assert not out[:, -1].any()
        assert all(np.array_equal(out, outs[0]) for out in outs[1:])
        ref = facilitate_reference(act, kernel).values
        assert np.abs(outs[0] - ref).max() < 1e-10


class TestSteadyActivity:
    def test_zero_strength_is_pure_feedforward(self, small4):
        grid, kernel = small4
        rng = np.random.default_rng(6)
        raw = LiftedActivity(grid, rng.uniform(0, 1, (7, 7, 1, 6, 3)), "raw",
                             np.array([0]))
        pattern = facilitate(raw.with_values(sigmoid(raw.values, 10, 0.5),
                                             "facilitation"), kernel)
        steady = activity_steady(raw, pattern, 0.0, 10.0, 0.5)
        assert np.allclose(steady.values, sigmoid(raw.values, 10.0, 0.5))

    def test_monotone_in_facilitation(self, small4):
        grid, kernel = small4
        rng = np.random.default_rng(7)
        raw = LiftedActivity(grid, rng.uniform(0, 1, (7, 7, 1, 6, 3)), "raw",
                             np.array([0]))
        p1 = raw.with_values(rng.uniform(0, 0.5, raw.values.shape), "facilitation")
        p2 = p1.with_values(p1.values + 0.1, "facilitation")
        s1 = activity_steady(raw, p1, 5.0, 10.0, 0.5)
        s2 = activity_steady(raw, p2, 5.0, 10.0, 0.5)
        assert (s2.values >= s1.values).all()
        assert 0.0 < s1.values.min() and s1.values.max() < 1.0

    def test_peak_memory_is_about_one_field(self):
        # the drive is formed in the output array and the sigmoid taken in
        # place in chunks (about 1.04 fields here); the masked sigmoid held
        # about five fields at once, the whole-array in-place one about two
        grid = ManifoldGrid(8, 5, 1.0)
        rng = np.random.default_rng(8)
        shape = (32, 32, 24, 8, 5)
        raw = LiftedActivity(grid, rng.uniform(0, 1, shape), "raw", np.arange(24))
        pattern = raw.with_values(rng.uniform(0, 0.1, shape), "facilitation")
        field = raw.values.nbytes
        tracemalloc.start()
        try:
            steady = activity_steady(raw, pattern, 5.0, 10.0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * field, peak / field
        want = sigmoid(raw.values + 5.0 * pattern.values, 10.0, 0.5)
        assert np.array_equal(steady.values, want)

    def test_negative_strength_rejected(self, small4):
        grid, _ = small4
        raw = LiftedActivity(grid, np.zeros((7, 7, 1, 6, 3)), "raw", np.array([0]))
        pattern = raw.with_values(np.zeros_like(raw.values), "facilitation")
        with pytest.raises(ValueError, match="c_f must be >= 0"):
            activity_steady(raw, pattern, -1.0, 10.0, 0.5)


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
        pattern = raw.with_values(np.zeros_like(raw.values), "facilitation")
        f0 = activity_steady(raw, pattern, 0.0, 10.0, 0.5)
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
        grid = ManifoldGrid(8, 5, 1.0)
        lat = contour_lattice(5, grid)
        spec = SdeSpec("contour", 0.35, 0.2, 0.02, 2.0, 30_000, seed=31)
        kernel = estimate_kernel(spec, lat)
        i_th, j_v = 2, 3
        vals = np.zeros((17, 17, 1, 8, 5))
        vals[8, 8, 0, i_th, j_v] = 1.0
        act = LiftedActivity(grid, vals, "facilitation", np.array([0]))
        pattern = facilitate(act, kernel).values[:, :, 0]

        # direct estimation from the shifted start, binned on the activity
        # grid (same noise stream as the cached kernel: each walk with its
        # four (theta, v) noise sign patterns)
        theta0 = i_th * grid.d_theta
        v0 = grid.vs[j_v]
        counts = kmod._batch_counts(spec.n_paths)
        children = np.random.SeedSequence(spec.seed).spawn(len(counts))
        hist = np.zeros((17, 17, 8, 5))
        dt = spec.dt_exact
        sk = math.sqrt(2 * dt) * spec.kappa
        sa = math.sqrt(2 * dt) * spec.alpha
        signs = ((1, 1), (-1, 1), (1, -1), (-1, -1))
        for (nb, ch), sign in itertools.product(zip(counts, children), signs):
            rng = np.random.default_rng(ch)
            noise = rng.standard_normal((spec.n_steps, 2, nb)) * np.array(sign)[:, None]
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
