"""Path simulation, kernel histograms, FP oracle, lookups."""

import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import motionlift.kernels as kmod
from motionlift.geometry import (
    CONTOUR_ORIGIN,
    ContourPoint,
    ManifoldPoint,
    contour_curve,
    trajectory_curve,
)
from motionlift.kernels import (
    KernelGrid,
    KernelLattice,
    SdeSpec,
    Workers,
    contour_lattice,
    estimate_kernel,
    fp_reference,
    kernel_lookup,
    trajectory_lattice,
)


def _per_step_batch_histogram(spec, lattice, nb, child_seed, start_jitter=False):
    """Reference batch: the plain loop, one numpy call per step and per deposit."""
    rng = np.random.default_rng(child_seed)
    dt = spec.dt_exact
    sk = math.sqrt(2.0 * dt) * spec.kappa
    sa = math.sqrt(2.0 * dt) * spec.alpha
    trajectory = spec.mode == "trajectory"
    has_ds = len(lattice.shape) == 5
    if start_jitter:
        # half-cell Gaussian start
        i_t, i_v = (3, 4) if has_ds else (2, 3)
        jit = rng.standard_normal((4, nb)) * 0.5
        q1 = jit[0] * lattice.spacing[0]
        q2 = jit[1] * lattice.spacing[1]
        th = jit[2] * lattice.spacing[i_t]
        v = jit[3] * lattice.spacing[i_v]
    else:
        q1 = np.zeros(nb)
        q2 = np.zeros(nb)
        th = np.zeros(nb)
        v = np.zeros(nb)
    ncells = int(np.prod(lattice.shape))
    hist = np.zeros(ncells, dtype=np.int64)
    sh = lattice.shape
    if has_ds:
        ax_t, ax_v = 3, 4
    else:
        ax_t, ax_v = 2, 3
    n_th = sh[ax_t]
    d_th = lattice.spacing[ax_t]
    o_v = lattice.origin[ax_v]
    d_v = lattice.spacing[ax_v]
    o_q1, o_q2 = lattice.origin[0], lattice.origin[1]
    d_q1, d_q2 = lattice.spacing[0], lattice.spacing[1]
    noise = rng.standard_normal((spec.n_steps, 2, nb))
    for k in range(spec.n_steps):
        # drift at the current state, then fiber noise
        if trajectory:
            q1 += v * np.cos(th) * dt
            q2 += v * np.sin(th) * dt
        else:
            q1 += -np.sin(th) * dt
            q2 += np.cos(th) * dt
        th += sk * noise[k, 0]
        v += sa * noise[k, 1]
        t_now = (k + 1) * dt
        i1 = np.rint((q1 - o_q1) / d_q1).astype(np.int64)
        i2 = np.rint((q2 - o_q2) / d_q2).astype(np.int64)
        it = np.rint(th / d_th).astype(np.int64) % n_th
        iv = np.rint((v - o_v) / d_v).astype(np.int64)
        ok = (
            (i1 >= 0) & (i1 < sh[0]) & (i2 >= 0) & (i2 < sh[1])
            & (iv >= 0) & (iv < sh[ax_v])
        )
        if has_ds:
            i_s = int(math.ceil(t_now - 1e-9)) - 1  # ds bin k covers (k-1, k]
            if 0 <= i_s < sh[2]:
                flat = (((i1 * sh[1] + i2) * sh[2] + i_s) * n_th + it) * sh[ax_v] + iv
                hist += np.bincount(flat[ok], minlength=ncells)
        else:
            flat = ((i1 * sh[1] + i2) * n_th + it) * sh[ax_v] + iv
            hist += np.bincount(flat[ok], minlength=ncells)
    return hist


class TestSpecValidation:
    def test_mode_checked(self):
        with pytest.raises(ValueError):
            SdeSpec("diagonal", 1, 1, 0.1, 1.0, 10, 0)

    def test_horizon_at_least_dt(self):
        with pytest.raises(ValueError):
            SdeSpec("contour", 1, 1, 0.5, 0.1, 10, 0)

    def test_round_trip_dict(self):
        spec = SdeSpec("trajectory", 0.5, 0.25, 0.05, 8.0, 1000, 42,
                       calibration={"kappa_normalized": 2.0})
        assert SdeSpec.from_dict(spec.to_dict()) == spec


class TestLattices:
    def test_contour_lattice_layout(self):
        lat = contour_lattice(10, 16, 9, 1.0)
        assert lat.axes == ("q1", "q2", "theta", "v")
        assert lat.shape == (21, 21, 16, 17)
        assert lat.origin[0] == -10
        assert lat.coords(3)[8] == pytest.approx(0.0)

    def test_trajectory_lattice_ds_axis(self):
        lat = trajectory_lattice(8, 12, 16, 9, 1.0)
        assert lat.axes == ("q1", "q2", "s", "theta", "v")
        assert lat.coords(2)[0] == 1.0
        assert lat.shape[2] == 12


class TestEstimation:
    def test_unit_mass_and_nonnegative(self):
        spec = SdeSpec("contour", 0.5, 0.3, 0.02, 2.0, 20_000, seed=3)
        k = estimate_kernel(spec, contour_lattice(6, 8, 5, 1.0))
        assert k.mass() == pytest.approx(1.0, abs=1e-12)
        assert k.values.min() >= 0.0

    def test_deterministic_across_thread_counts(self):
        # 20k paths are 3 batches: 2 workers split them unevenly, 4 are capped
        spec = SdeSpec("contour", 0.5, 0.3, 0.02, 2.0, 20_000, seed=3)
        lat = contour_lattice(6, 8, 5, 1.0)
        k1 = estimate_kernel(spec, lat)
        k2 = estimate_kernel(spec, lat, n_threads=4)
        assert np.array_equal(k1.values, k2.values)
        assert np.array_equal(k1.values, estimate_kernel(spec, lat, n_threads=2).values)
        traj = SdeSpec("trajectory", 0.4, 0.3, 0.04, 6.0, 20_000, seed=6)
        lat5 = trajectory_lattice(6, 4, 8, 5, 1.0)
        t1 = estimate_kernel(traj, lat5)
        for n in (2, 4):
            assert np.array_equal(t1.values, estimate_kernel(traj, lat5, n_threads=n).values)

    @pytest.mark.parametrize("n_threads", [0, -3])
    def test_thread_count_below_one_rejected(self, n_threads, no_worker_pool):
        spec = SdeSpec("contour", 0.5, 0.3, 0.02, 2.0, 20_000, seed=3)
        with pytest.raises(ValueError, match="n_threads"):
            estimate_kernel(spec, contour_lattice(6, 8, 5, 1.0), n_threads)

    def test_seed_changes_result(self):
        lat = contour_lattice(6, 8, 5, 1.0)
        k1 = estimate_kernel(SdeSpec("contour", 0.5, 0.3, 0.02, 2.0, 5000, seed=3), lat)
        k2 = estimate_kernel(SdeSpec("contour", 0.5, 0.3, 0.02, 2.0, 5000, seed=4), lat)
        assert not np.array_equal(k1.values, k2.values)

    def test_mode_lattice_consistency_enforced(self):
        spec = SdeSpec("contour", 0.5, 0.3, 0.02, 2.0, 100, seed=3)
        with pytest.raises(ValueError):
            estimate_kernel(spec, trajectory_lattice(6, 4, 8, 5, 1.0))
        with pytest.raises(ValueError):
            estimate_kernel(replace(spec, mode="trajectory"), contour_lattice(6, 8, 5, 1.0))

    def test_contour_drift_direction(self):
        # from the origin the drift is +q2; the spatial centroid follows it
        spec = SdeSpec("contour", 0.3, 0.1, 0.02, 3.0, 30_000, seed=5)
        k = estimate_kernel(spec, contour_lattice(8, 8, 5, 1.0))
        q = k.lattice.coords(1)
        com2 = (k.values.sum(axis=(0, 2, 3)) * q).sum()
        com1 = (k.values.sum(axis=(1, 2, 3)) * k.lattice.coords(0)).sum()
        assert com2 > 0.5
        assert abs(com1) < 0.1

    def test_zero_noise_kernel_is_the_binned_curve(self):
        # with kappa = alpha = 0 every path is the straight contour curve;
        # each step deposits dt at the node nearest the curve point (no
        # sample of 0.2 k lands on a half-cell tie)
        spec = SdeSpec("contour", 0.0, 0.0, 0.2, 6.0, 1, seed=1)
        lat = contour_lattice(7, 8, 3, 1.0)
        k = estimate_kernel(spec, lat)
        want = np.zeros(lat.shape)
        for step in range(1, spec.n_steps + 1):
            p = contour_curve(CONTOUR_ORIGIN, 0.0, 0.0, step * spec.dt_exact)
            node = [int(np.rint((x - o) / d)) for x, o, d in
                    zip(p.as_array(), lat.origin, lat.spacing)]
            want[tuple(node)] += 1
        want *= spec.dt_exact
        assert np.array_equal(k.values, want / want.sum())

    def test_zero_noise_trajectory_walk_is_the_binned_curve(self):
        # with kappa = alpha = 0 each jittered path of the batch walker is the
        # straight curve of its mode from its start, heading included; every
        # step counts one passage at the nearest (q1, q2, theta, v) node (and,
        # for a trajectory, the ceiling ds bin), and points off the lattice
        # count nothing
        for spec, lat in (
            (SdeSpec("trajectory", 0.0, 0.0, 0.25, 6.0, 400, seed=2),
             trajectory_lattice(4, 5, 8, 5, 1.0)),
            (SdeSpec("contour", 0.0, 0.0, 0.25, 6.0, 400, seed=2),
             contour_lattice(5, 8, 5, 1.0)),
        ):
            child = np.random.SeedSequence(spec.seed).spawn(1)[0]
            got = kmod._simulate_batch_histogram(spec, lat, spec.n_paths, child,
                                                 start_jitter=True)
            # the walker's first draw is the (q1, q2, theta, v) start jitter
            jit = np.random.default_rng(child).standard_normal((4, spec.n_paths)) * 0.5
            trajectory = spec.mode == "trajectory"
            o, d = lat.origin, lat.spacing
            ax_t, ax_v = (3, 4) if trajectory else (2, 3)
            dt = spec.dt_exact
            counts = np.zeros(lat.shape, dtype=np.int64)
            for q1, q2, th, v in (jit * np.array([d[0], d[1], d[ax_t], d[ax_v]])[:, None]).T:
                for step in range(1, spec.n_steps + 1):
                    if trajectory:
                        p = trajectory_curve(ManifoldPoint(q1, q2, 0.0, th, v), 0.0, 0.0,
                                             step * dt)
                        i_s = (math.ceil(step * dt - 1e-9) - 1,)
                    else:
                        p = contour_curve(ContourPoint(q1, q2, th, v), 0.0, 0.0, step * dt)
                        i_s = ()
                    i1, i2, i_v = (int(np.rint((x - o[a]) / d[a])) for a, x in
                                   ((0, p.q1), (1, p.q2), (ax_v, p.v)))
                    i_t = int(np.rint(p.theta / d[ax_t])) % lat.shape[ax_t]
                    idx = (i1, i2, *i_s, i_t, i_v)
                    if all(0 <= i < n for i, n in zip(idx, lat.shape)):
                        counts[idx] += 1
            # most paths keep at least 20 of their 24 steps on the lattice (a
            # trajectory's 5 ds bins take 20)
            assert counts.sum() > 0.5 * spec.n_paths * 20
            assert got.dtype == np.int64 and np.array_equal(got, counts.ravel())

    def test_fiber_law(self):
        # theta and v after k steps are Gaussian with variances 2 kappa^2 k dt
        # and 2 alpha^2 k dt, and the kernel weighs the steps k = 1..N alike.
        # Binned to the nearest node, the theta marginal's E[cos] gains the
        # factor sin(d/2) / (d/2) of a d-wide cell, and the v variance
        # Sheppard's correction dv^2 / 12.  Paths stay within T = 4 pixels of
        # the origin, so no mass leaves the lattice.  The spatial moments
        # follow from E[cos(theta_t - theta_s)] = exp(-kappa^2 |t - s|): from
        # theta = 0, E[q2] = (1 - exp(-kappa^2 t)) / kappa^2, E[q1] = 0 and
        # E|q|^2 = 2 (t / kappa^2 - (1 - exp(-kappa^2 t)) / kappa^4), plus
        # 2 / 12 for binning q1 and q2 to unit pixels.
        spec = SdeSpec("contour", 0.5, 0.3, 0.05, 4.0, 20000, seed=9)
        lat = contour_lattice(6, 16, 9, 2.0)
        k = estimate_kernel(spec, lat)
        t = spec.dt_exact * np.arange(1, spec.n_steps + 1)
        d_th, d_v = lat.spacing[2], lat.spacing[3]
        p_th = k.values.sum(axis=(0, 1, 3))
        p_v = k.values.sum(axis=(0, 1, 2))
        cos_mean = (p_th * np.cos(lat.coords(2))).sum()
        want = np.exp(-spec.kappa**2 * t).mean() * math.sin(d_th / 2) / (d_th / 2)
        assert cos_mean == pytest.approx(want, rel=0.05)
        v = lat.coords(3)
        v_var = (p_v * v**2).sum() - (p_v * v).sum() ** 2
        assert v_var == pytest.approx((2 * spec.alpha**2 * t).mean() + d_v**2 / 12, rel=0.05)
        k2 = spec.kappa**2
        p_q = k.values.sum(axis=(2, 3))
        q1, q2 = lat.coords(0)[:, None], lat.coords(1)[None, :]
        want_q2 = ((1 - np.exp(-k2 * t)) / k2).mean()
        assert (p_q * q2).sum() == pytest.approx(want_q2, rel=0.05)
        assert abs((p_q * q1).sum()) < 0.05 * want_q2
        want_r2 = (2 * (t / k2 - (1 - np.exp(-k2 * t)) / k2**2)).mean() + 2 / 12
        assert (p_q * (q1**2 + q2**2)).sum() == pytest.approx(want_r2, rel=0.05)

    def test_raw_weight_is_the_weight_landed_on_the_lattice(self):
        # every passage on the lattice weighs dt, of n_paths * T in all
        spec = SdeSpec("contour", 0.5, 0.3, 0.05, 4.0, 20000, seed=9)
        attempted = spec.n_paths * spec.T
        wide = estimate_kernel(spec, contour_lattice(6, 16, 9, 2.0))
        assert wide.raw_weight / attempted == pytest.approx(1.0, abs=1e-12)
        narrow = estimate_kernel(spec, contour_lattice(2, 16, 9, 2.0))
        assert 0.5 < narrow.raw_weight / attempted < 0.95

    def test_trajectory_mass_only_at_positive_ds(self):
        # structural: the ds axis starts at bin 1 and ceiling binning makes
        # mass at ds <= 0 impossible
        spec = SdeSpec("trajectory", 0.4, 0.3, 0.04, 8.0, 20_000, seed=6)
        lat = trajectory_lattice(8, 8, 8, 5, 1.0)
        k = estimate_kernel(spec, lat)
        assert lat.coords(2).min() >= 1.0
        assert k.mass() == pytest.approx(1.0)
        # per-ds mass is flat (every step deposits once, nothing at ds<=0)
        per_ds = k.values.sum(axis=(0, 1, 3, 4))
        assert per_ds.min() > 0.9 / lat.shape[2]

    def test_empty_histogram_raises(self):
        # lattice displaced far from the paths collects nothing
        lat = KernelLattice(("q1", "q2", "theta", "v"), (3, 3, 4, 3),
                            (100.0, 100.0, 0.0, -1.0), (1.0, 1.0, math.pi / 2, 1.0))
        spec = SdeSpec("contour", 0.1, 0.1, 0.1, 1.0, 10, seed=1)
        with pytest.raises(ValueError):
            estimate_kernel(spec, lat)


def _blas_threads():
    """numpy's OpenBLAS thread count; skips the test without that library."""
    blas = kmod._openblas()
    if blas is None:
        pytest.skip("numpy carries no scipy-openblas library")
    return blas[0]()


class TestWorkers:
    def test_every_phase_runs_on_the_same_threads(self):
        seen = {}  # worker index: the threads it ran on
        items = []
        before = set(threading.enumerate())

        def work(w, i):
            seen.setdefault(w, set()).add(threading.get_ident())
            done.append(i)
            time.sleep(0.01)  # so that every worker takes items

        with Workers(3) as workers:
            for n_items in (12, 1, 30):
                done = []
                workers.run(n_items, work)
                items.append(sorted(done))
        assert items == [list(range(n)) for n in (12, 1, 30)]  # each item once
        assert sorted(seen) == [0, 1, 2]
        assert all(len(s) == 1 for s in seen.values())
        assert len(set.union(*seen.values())) == 3
        assert set(threading.enumerate()) == before

    def test_a_held_up_worker_takes_fewer_items(self):
        taken = {0: [], 1: []}

        def work(w, i):
            taken[w].append(i)
            if w == 1:
                time.sleep(0.2)

        with Workers(2) as workers:
            workers.run(20, work)
        assert sorted(taken[0] + taken[1]) == list(range(20))
        assert len(taken[1]) < len(taken[0])

    def test_openblas_held_at_one_thread_and_restored(self):
        count = _blas_threads()
        inside = []
        with Workers(2) as workers:
            workers.run(2, lambda w, i: inside.append(kmod._openblas()[0]()))
        assert inside == [1, 1]
        assert _blas_threads() == count
        with Workers(1) as workers:  # one worker leaves the library alone
            workers.run(1, lambda w, i: inside.append(kmod._openblas()[0]()))
        assert inside[-1] == count

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_worker_error_is_raised_and_every_thread_ends(self, failing):
        count = _blas_threads()
        before = set(threading.enumerate())
        done = []

        def work(w, i):
            if w == failing:
                raise RuntimeError(f"worker {w}")
            time.sleep(0.01)  # so that every worker takes an item
            done.append(i)

        with pytest.raises(RuntimeError, match=f"worker {failing}"):
            with Workers(3) as workers:
                workers.run(30, work)
        # the failing worker stopped at its first item, the others took the rest
        assert len(done) == 29 and len(set(done)) == 29
        assert _blas_threads() == count
        assert set(threading.enumerate()) == before

    def test_a_missing_library_is_a_no_op(self, monkeypatch):
        count = _blas_threads()
        get = kmod._openblas()[0]
        monkeypatch.setattr(kmod, "_openblas", lambda: None)
        inside = []
        with Workers(2) as workers:
            workers.run(2, lambda w, i: inside.append(get()))
        assert inside == [count, count]
        assert get() == count

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_worker_rejected(self, n):
        with pytest.raises(ValueError, match="n_threads"):
            Workers(n)


class TestBatchLoopPinned:
    """The step-block batch loop reproduces the per-step loop bit for bit."""

    def run_both(self, spec, lattice, nb, **kwargs):
        child = np.random.SeedSequence(spec.seed).spawn(1)[0]
        want = _per_step_batch_histogram(spec, lattice, nb, child, **kwargs)
        got = kmod._simulate_batch_histogram(spec, lattice, nb, child, **kwargs)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        return want

    def test_contour(self):
        spec = SdeSpec("contour", 0.5, 0.3, 0.02, 2.0, 1001, seed=3)
        hist = self.run_both(spec, contour_lattice(4, 8, 5, 1.0), 1001)
        assert hist.sum() > 0

    def test_trajectory_steps_past_the_last_ds_bin(self):
        # 150 steps reach ds = 6, the lattice stops at ds = 3
        spec = SdeSpec("trajectory", 0.5, 0.3, 0.04, 6.0, 777, seed=4)
        lat = trajectory_lattice(4, 3, 8, 5, 1.0)
        hist = self.run_both(spec, lat, 777)
        assert 0 < hist.sum() <= 777 * 75  # nothing counted past ds = 3, step 75

    def test_gaussian_start_jitter(self):
        spec = SdeSpec("contour", 0.5, 0.3, 0.05, 1.3, 513, seed=5)
        self.run_both(spec, contour_lattice(4, 8, 5, 1.0), 513, start_jitter=True)

    @pytest.mark.parametrize("block", [1, 7, 25, 64])
    def test_step_count_not_a_multiple_of_the_block(self, block, monkeypatch):
        # 40 steps: a short last block, or one block shorter than STEP_BLOCK
        monkeypatch.setattr(kmod, "STEP_BLOCK", block)
        spec = SdeSpec("trajectory", 0.5, 0.3, 0.05, 2.0, 999, seed=7)
        assert block == 1 or spec.n_steps % block != 0
        lat = contour_lattice(4, 8, 5, 1.0)
        assert self.run_both(spec, lat, 999).sum() > 0


class TestKernelLookup:
    def make_kernel(self):
        rng = np.random.default_rng(8)
        lat = contour_lattice(3, 8, 3, 1.0)
        vals = rng.uniform(0, 1, lat.shape)
        vals /= vals.sum()
        return KernelGrid(lat.axes, lat.origin, lat.spacing, vals,
                          SdeSpec("contour", 0.1, 0.1, 0.1, 1.0, 1, 0))

    def test_exact_at_nodes(self):
        k = self.make_kernel()
        lat = k.lattice
        target = [lat.coords(a)[1] for a in range(4)]
        assert kernel_lookup(k, target) == pytest.approx(k.values[1, 1, 1, 1])

    def test_zero_outside_support(self):
        k = self.make_kernel()
        assert kernel_lookup(k, [10.0, 0.0, 0.0, 0.0]) == 0.0

    def test_theta_wraps(self):
        k = self.make_kernel()
        a = kernel_lookup(k, [0.0, 0.0, 0.1, 0.0])
        b = kernel_lookup(k, [0.0, 0.0, 0.1 + 2 * math.pi, 0.0])
        assert a == pytest.approx(b, abs=1e-12)

    def test_multilinear_between_nodes(self):
        k = self.make_kernel()
        lo = kernel_lookup(k, [0.0, 0.0, 0.0, 0.0])
        hi = kernel_lookup(k, [1.0, 0.0, 0.0, 0.0])
        mid = kernel_lookup(k, [0.5, 0.0, 0.0, 0.0])
        assert mid == pytest.approx(0.5 * (lo + hi))

    def test_vectorized_targets(self):
        k = self.make_kernel()
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
        out = kernel_lookup(k, pts)
        assert out.shape == (2,)


class TestFpReference:
    def test_pure_transport_tracks_the_curve(self):
        # kappa = alpha = 0: the point mass advects along the X1 curve
        lat = contour_lattice(6, 8, 3, 1.0)
        times, stack = fp_reference("contour", 0.0, 0.0, lat, 3.0, [3.0])
        rho = stack[-1]
        assert rho.sum() == pytest.approx(1.0, abs=1e-9)
        q = lat.coords(0)
        com1 = (rho.sum(axis=(1, 2, 3)) * q).sum()
        com2 = (rho.sum(axis=(0, 2, 3)) * q).sum()
        assert abs(com1) < 0.05
        assert com2 == pytest.approx(3.0, abs=0.15)
        # all mass stays in the starting fiber (v axis has 5 relative
        # bins for n_v = 3; the zero offset is index 2)
        assert rho[:, :, 0, 2].sum() == pytest.approx(1.0, abs=1e-9)

    def test_pure_fiber_diffusion_variances(self):
        # at refine=1 the centered-difference chain grows the bin-center
        # second moment at exactly 2 kappa^2 (no grouping correction)
        lat = contour_lattice(4, 16, 9, 1.0)
        kap, alp = 0.35, 0.18
        times, stack = fp_reference("contour", kap, alp, lat, 2.0, [1.0, 2.0],
                                    refine=1)
        thetas = np.angle(np.exp(1j * lat.coords(2)))
        vs = lat.coords(3)
        for rho, t in zip(stack, times):
            m_th = rho.sum(axis=(0, 1, 3))
            m_v = rho.sum(axis=(0, 1, 2))
            var_th = (m_th * thetas**2).sum() / m_th.sum()
            var_v = (m_v * vs**2).sum() / m_v.sum()
            assert var_th == pytest.approx(2 * kap**2 * t, rel=0.02)
            assert var_v == pytest.approx(2 * alp**2 * t, rel=0.02)

    def test_mass_conserved(self):
        lat = contour_lattice(5, 8, 5, 1.0)
        _, stack = fp_reference("contour", 0.4, 0.2, lat, 1.5, [0.75, 1.5])
        for rho in stack:
            assert rho.sum() == pytest.approx(1.0, abs=1e-6)

    def test_cfl_guard(self, monkeypatch):
        monkeypatch.setattr(kmod, "FP_MAX_STEPS", 10)
        lat = contour_lattice(5, 8, 5, 1.0)
        with pytest.raises(ValueError, match="steps > 10"):
            fp_reference("contour", 5.0, 5.0, lat, 50.0, [50.0])

    @pytest.mark.parametrize("mode", kmod.MODES)
    def test_snapshots_do_not_depend_on_memory_layout(self, mode, monkeypatch):
        # every sub-step gives the same values in any memory layout, so the
        # snapshots must not change when each sub-step returns a C-order copy
        lat = contour_lattice(4, 8, 5, 1.0)

        def run():
            return fp_reference(mode, 0.4, 0.3, lat, 1.0, [0.5, 1.0])[1]

        want = run()
        for name in ("_advect_axis", "_diffuse_axis"):
            step = getattr(kmod, name)
            monkeypatch.setattr(kmod, name,
                                lambda *a, step=step, **k: np.ascontiguousarray(step(*a, **k)))
        assert np.array_equal(run(), want)

    @staticmethod
    def moment_errors(mode, halfwidth, v_half):
        """Errors of the density's moments at t = 2 against their closed forms,
        at spacings h = 1, 1/2, 1/4 with 16, 32, 64 theta bins, refine = 1, on
        q1, q2 in [-halfwidth, halfwidth] and v in [-v_half, v_half] at
        spacing 1/2.

        From the origin with theta = v = 0, E[cos(theta_t - theta_s)] =
        exp(-k |t - s|), k = kappa^2.  Contour mode moves at unit speed along
        the heading: E[q2] = (1 - exp(-kt)) / k and E|q|^2 = 2 (t / k -
        (1 - exp(-kt)) / k^2).  Trajectory mode moves at speed v, with
        E[v_s v_u] = 2 alpha^2 min(s, u): E|q|^2 = 4 alpha^2 (t^2 / (2k) - t / k^2
        + (1 - exp(-kt)) / k^3).  Moments are taken at the cell centres.
        """
        kappa, alpha, t = 0.5, 0.3, 2.0
        k = kappa**2
        if mode == "contour":
            want_q2 = (1 - math.exp(-k * t)) / k
            want_r2 = 2 * (t / k - (1 - math.exp(-k * t)) / k**2)
        else:
            want_q2 = 0.0
            want_r2 = 4 * alpha**2 * (t**2 / (2 * k) - t / k**2 + (1 - math.exp(-k * t)) / k**3)
        errors = []
        for h, n_theta in ((1.0, 16), (0.5, 32), (0.25, 64)):
            n = int(2 * halfwidth / h) + 1
            lat = KernelLattice(("q1", "q2", "theta", "v"), (n, n, n_theta, 4 * v_half + 1),
                                (-halfwidth, -halfwidth, 0.0, -v_half),
                                (h, h, 2 * math.pi / n_theta, 0.5))
            _, stack = fp_reference(mode, kappa, alpha, lat, t, [t], refine=1)
            rho = stack[-1]
            p_q = rho.sum(axis=(2, 3))
            q1, q2 = lat.coords(0)[:, None], lat.coords(1)[None, :]
            p_th = rho.sum(axis=(0, 1, 3))
            errors.append(((p_q * q1).sum(), (p_q * q2).sum() - want_q2,
                           (p_q * (q1**2 + q2**2)).sum() - want_r2,
                           (p_th * np.cos(lat.coords(2))).sum() - math.exp(-k * t)))
        return np.array(errors), want_q2, want_r2

    def test_contour_moments_converge_to_the_closed_forms(self):
        # contour paths move at unit speed, so |q| <= t = 2; the 4 px domain
        # leaves room for the upwind smear.  v does not enter the drift: one
        # v bin
        err, want_q2, want_r2 = self.moment_errors("contour", 4, 0)
        e1, e2, er2, ecos = np.abs(err).T
        assert np.all(np.diff(e2) < 0) and np.all(np.diff(er2) < 0)
        assert e2[-1] < 0.02 * want_q2 and er2[-1] < 0.02 * want_r2
        assert e1.max() < 1e-12 and ecos.max() < 1e-3

    def test_trajectory_moments_converge_to_the_closed_forms(self):
        # from v = 0 the rms displacement at t = 2 is 0.65 px: a 2 px domain,
        # v on +-2 (over 3 standard deviations) at spacing 0.5
        err, _, want_r2 = self.moment_errors("trajectory", 2, 2)
        e1, e2, er2, ecos = np.abs(err).T
        assert np.all(np.diff(er2) < 0)
        assert er2[-1] < 0.05 * want_r2
        assert e1.max() < 1e-12 and e2.max() < 1e-12 and ecos.max() < 1e-3


class TestLeftInvarianceSymmetry:
    def test_contour_kernel_from_shifted_start(self):
        # estimates from a shifted, rotated start match origin estimates
        # transported by the contour group law (exact symmetry; matched
        # seeds so only binning noise remains)
        lat = contour_lattice(6, 8, 5, 1.0)
        spec = SdeSpec("contour", 0.4, 0.25, 0.02, 2.0, 40_000, seed=21)
        k0 = estimate_kernel(spec, lat)

        # direct re-estimation from a start displaced by a group element:
        # simulate with the same noise by reusing the spec seed and
        # transporting the deposit lattice through the group action

        theta0 = 2 * math.pi * 2 / 8  # two theta bins
        q0 = np.array([1.0, -2.0])
        v0 = 0.5
        counts = kmod._batch_counts(spec.n_paths)
        children = np.random.SeedSequence(spec.seed).spawn(len(counts))
        hist = np.zeros(int(np.prod(lat.shape)))
        c, s = math.cos(theta0), math.sin(theta0)
        for nb, ch in zip(counts, children):
            rng = np.random.default_rng(ch)
            noise = rng.standard_normal((spec.n_steps, 2, nb))
            dt = spec.dt_exact
            sk = math.sqrt(2 * dt) * spec.kappa
            sa = math.sqrt(2 * dt) * spec.alpha
            q1 = np.full(nb, q0[0])
            q2 = np.full(nb, q0[1])
            th = np.full(nb, theta0)
            v = np.full(nb, v0)
            for k in range(spec.n_steps):
                q1 += -np.sin(th) * dt
                q2 += np.cos(th) * dt
                th += sk * noise[k, 0]
                v += sa * noise[k, 1]
                # relative element through the contour group quotient
                r1 = c * (q1 - q0[0]) + s * (q2 - q0[1])
                r2 = -s * (q1 - q0[0]) + c * (q2 - q0[1])
                i1 = np.rint(r1 - lat.origin[0]).astype(np.int64)
                i2 = np.rint(r2 - lat.origin[1]).astype(np.int64)
                it = np.rint((th - theta0) / lat.spacing[2]).astype(np.int64) % 8
                iv = np.rint((v - v0 - lat.origin[3]) / lat.spacing[3]).astype(np.int64)
                ok = ((i1 >= 0) & (i1 < 13) & (i2 >= 0) & (i2 < 13)
                      & (iv >= 0) & (iv < 9))
                flat = ((i1 * 13 + i2) * 8 + it) * 9 + iv
                hist += np.bincount(flat[ok], minlength=hist.size)
        shifted = (hist / hist.sum()).reshape(lat.shape)
        l1 = np.abs(shifted - k0.values).sum()
        assert l1 < 0.15
