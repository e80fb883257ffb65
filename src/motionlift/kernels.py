"""Stochastic connectivity kernels and their finite-difference oracle.

Two families of random paths are integrated with Euler-Maruyama: contour
mode drifts along the orientation-transverse direction X1, trajectory mode
along the motion generator X5; both diffuse in the fiber variables
(orientation, velocity).  The noise enters as sqrt(2) kappa dW and
sqrt(2) alpha dW so the generator of the process is exactly
drift + kappa^2 d^2/dtheta^2 + alpha^2 d^2/dv^2, matching the Fokker-Planck
operators whose time-integrated fundamental solutions the histograms
estimate.

Estimation is deterministic: paths are organized in fixed-size batches,
each batch draws from its own generator spawned from the seed, and the walker
returns integer passage counts, which are summed exactly, so results are
bit-identical for a given spec regardless of the number of worker threads or
of the order in which the batches finish.  The batches are dealt over the
workers of a ``Workers`` context, the calling thread and n - 1 threads, each
taking the next batch no one has taken and adding its counts into its own
total.

Each batch walks its steps in blocks of ``STEP_BLOCK``: one noise draw per
block into a reused buffer (the random stream is the same as one draw for
all steps), the walks built by in-place row adds (the same sums in the same
order as step by step), then sin/cos, binning and a single integer
``bincount`` over the whole block.  Few, large numpy calls release the GIL
for long stretches, so the workers run in parallel.

The oracle, ``fp_reference``, solves the same two Fokker-Planck operators by
finite differences from the point source every path starts at: limited
upwind transport along the drift, centered diffusion in the fiber
variables.  Tests pin its low moments to the closed forms of the two
processes.
"""

from __future__ import annotations

import ctypes
import functools
import math
import queue
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

BATCH_SIZE = 8192  # fixed: part of the deterministic estimation contract
STEP_BLOCK = 8  # steps walked per numpy call; any value gives the same bits
FP_CFL = 0.4  # Courant number of the explicit steps of ``fp_reference``
FP_MAX_STEPS = 500_000  # ``fp_reference`` refuses a solve that needs more steps
MODES = ("contour", "trajectory")


@dataclass(frozen=True)
class SdeSpec:
    """Drift/diffusion configuration of one kernel estimation run.

    kappa and alpha are the fiber diffusion coefficients of the generator
    (variance of theta after time T is exactly 2 kappa^2 T, same for v with
    alpha); dt and T are in the evolution-parameter units of the chosen
    drift (pixels of arclength for contour mode, frames for trajectory
    mode).  ``calibration`` is free-form metadata recording how kappa and
    alpha were derived when they come from normalized-horizon conventions.
    """

    mode: str
    kappa: float
    alpha: float
    dt: float
    T: float
    n_paths: int
    seed: int
    calibration: dict | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.kappa < 0 or self.alpha < 0:
            raise ValueError("kappa and alpha must be nonnegative")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.T < self.dt:
            raise ValueError("T must be at least dt")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.dt)))

    @property
    def dt_exact(self) -> float:
        # land exactly on T so fiber variances hit 2 kappa^2 T precisely
        return self.T / self.n_steps

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SdeSpec":
        return SdeSpec(
            mode=d["mode"],
            kappa=float(d["kappa"]),
            alpha=float(d["alpha"]),
            dt=float(d["dt"]),
            T=float(d["T"]),
            n_paths=int(d["n_paths"]),
            seed=int(d["seed"]),
            calibration=d.get("calibration"),
        )


@dataclass(frozen=True)
class KernelLattice:
    """Relative-coordinate lattice a kernel histogram lives on."""

    axes: tuple[str, ...]
    shape: tuple[int, ...]
    origin: tuple[float, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.axes) == len(self.shape) == len(self.origin) == len(self.spacing)):
            raise ValueError("lattice axes/shape/origin/spacing lengths differ")
        if min(self.shape) < 1:
            raise ValueError("lattice dims must be positive")
        if min(self.spacing) <= 0:
            raise ValueError("lattice spacing must be positive")

    @property
    def theta_axis(self) -> int:
        return self.axes.index("theta")

    def coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])


def contour_lattice(halfwidth: int, n_theta: int, n_v: int, v_m: float) -> KernelLattice:
    """4D lattice over (dq1, dq2, dtheta, dv) for the contour kernel.

    Spatial bins are unit pixels centered on integer offsets, dtheta covers
    the full circle at the activity grid's resolution, and dv spans
    [-2 v_m, 2 v_m] at the activity grid's velocity spacing so every
    difference of two grid velocities is a bin center.
    """
    if halfwidth < 1:
        raise ValueError("halfwidth must be >= 1")
    d_theta = 2.0 * math.pi / n_theta
    d_v = 2.0 * v_m / (n_v - 1) if n_v > 1 else 1.0
    n_rel_v = 2 * (n_v - 1) + 1
    return KernelLattice(
        axes=("q1", "q2", "theta", "v"),
        shape=(2 * halfwidth + 1, 2 * halfwidth + 1, n_theta, n_rel_v),
        origin=(-halfwidth, -halfwidth, 0.0, -(n_v - 1) * d_v),
        spacing=(1.0, 1.0, d_theta, d_v),
    )


def trajectory_lattice(
    halfwidth: int, n_ds: int, n_theta: int, n_v: int, v_m: float
) -> KernelLattice:
    """5D lattice adding the strictly positive ds axis (bins 1..n_ds frames).

    The drift ds = dt ties the evolution parameter to ds; deposits use
    ceiling binning, ds bin k collecting parameter values in (k-1, k], so no
    mass can ever land at ds <= 0.
    """
    base = contour_lattice(halfwidth, n_theta, n_v, v_m)
    return KernelLattice(
        axes=("q1", "q2", "s", "theta", "v"),
        shape=(base.shape[0], base.shape[1], n_ds, n_theta, n_v * 2 - 1),
        origin=(base.origin[0], base.origin[1], 1.0, 0.0, base.origin[3]),
        spacing=(1.0, 1.0, 1.0, base.spacing[2], base.spacing[3]),
    )


@dataclass
class KernelGrid:
    """Normalized kernel histogram with the spec that produced it."""

    axes: tuple[str, ...]
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    values: np.ndarray
    spec: SdeSpec
    raw_weight: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != len(self.axes):
            raise ValueError("kernel values rank does not match axes")
        if self.values.size and float(self.values.min()) < 0:
            raise ValueError("kernel values must be nonnegative")

    @property
    def lattice(self) -> KernelLattice:
        return KernelLattice(self.axes, self.values.shape, self.origin, self.spacing)

    @property
    def is_trajectory(self) -> bool:
        return "s" in self.axes

    def mass(self) -> float:
        return float(self.values.sum())


def _batch_counts(n_paths: int) -> list[int]:
    n_batches = (n_paths + BATCH_SIZE - 1) // BATCH_SIZE
    return [min(BATCH_SIZE, n_paths - b * BATCH_SIZE) for b in range(n_batches)]


def _simulate_batch_histogram(
    spec: SdeSpec,
    lattice: KernelLattice,
    nb: int,
    child_seed,
    start_jitter: bool = False,
) -> np.ndarray:
    """Run one batch of paths and count each step's passage through the lattice.

    Returns the flat int64 passage counts.  The per-path random stream order
    is (step, channel, path), fixed.  The drift follows the spec's mode;
    whether deposits use a ds axis follows the lattice rank, so
    trajectory-mode paths can also be binned on the 4D per-parameter lattice
    for oracle comparisons.  With ``start_jitter`` each path starts from a
    half-cell Gaussian about the origin instead of at it.

    Steps are walked in blocks of ``STEP_BLOCK``.  Row 0 of each walk holds
    the state before the block and row r + 1 the state after its step r;
    rows are built by in-place row adds, the same sums in the same order as
    a step-by-step update, so the block length never changes a bit.
    """
    rng = np.random.default_rng(child_seed)
    dt = spec.dt_exact
    sk = math.sqrt(2.0 * dt) * spec.kappa
    sa = math.sqrt(2.0 * dt) * spec.alpha
    trajectory = spec.mode == "trajectory"
    has_ds = len(lattice.shape) == 5
    sh = lattice.shape
    ax_t, ax_v = (3, 4) if has_ds else (2, 3)
    n_th, n_v = sh[ax_t], sh[ax_v]
    d_th = lattice.spacing[ax_t]
    o_v, d_v = lattice.origin[ax_v], lattice.spacing[ax_v]
    o_q1, o_q2 = lattice.origin[0], lattice.origin[1]
    d_q1, d_q2 = lattice.spacing[0], lattice.spacing[1]
    block = min(STEP_BLOCK, spec.n_steps)
    q1, q2, th, v = (np.zeros((block + 1, nb)) for _ in range(4))
    if start_jitter:
        jit = rng.standard_normal((4, nb)) * 0.5
        q1[0] = jit[0] * d_q1
        q2[0] = jit[1] * d_q2
        th[0] = jit[2] * d_th
        v[0] = jit[3] * d_v
    noise = np.empty((block, 2, nb))
    # each bounded axis gets a guard bin either side that collects the
    # passages off it (theta wraps); guard bins are cut away at the end.  The
    # ds axis leads, so a step's ds bin is one offset for the whole row.
    gshape = (sh[0] + 2, sh[1] + 2, n_th, n_v + 2)
    gsize = int(np.prod(gshape))
    n_s = sh[2] + 2 if has_ds else 1
    counts = np.zeros(n_s * gsize, dtype=np.int64)
    for k0 in range(0, spec.n_steps, block):
        m = min(block, spec.n_steps - k0)
        z = noise[:m]
        rng.standard_normal(out=z)  # continues the (step, channel, path) stream
        # fiber walks first: the drift of step r is taken at row r
        np.multiply(z[:, 0], sk, out=th[1:m + 1])
        np.multiply(z[:, 1], sa, out=v[1:m + 1])
        for r in range(m):
            th[r + 1] += th[r]
            v[r + 1] += v[r]
        if trajectory:
            np.cos(th[:m], out=q1[1:m + 1])
            np.sin(th[:m], out=q2[1:m + 1])
            q1[1:m + 1] *= v[:m]
            q2[1:m + 1] *= v[:m]
            q1[1:m + 1] *= dt
        else:
            np.sin(th[:m], out=q1[1:m + 1])
            np.cos(th[:m], out=q2[1:m + 1])
            q1[1:m + 1] *= -dt
        q2[1:m + 1] *= dt
        for r in range(m):
            q1[r + 1] += q1[r]
            q2[r + 1] += q2[r]
        i1 = _guarded_bin(q1[1:m + 1], o_q1, d_q1, sh[0])
        i2 = _guarded_bin(q2[1:m + 1], o_q2, d_q2, sh[1])
        iv = _guarded_bin(v[1:m + 1], o_v, d_v, n_v)
        it = np.rint(th[1:m + 1] / d_th).astype(np.int64)
        it -= n_th * (it // n_th)  # it % n_th; the int64 remainder is far slower
        for w in (q1, q2, th, v):
            w[0] = w[m]
        flat = ((i1 * gshape[1] + i2) * n_th + it) * gshape[3] + iv
        if has_ds:
            # ds bin j covers (j-1, j]; steps past the last bin hit a guard bin
            i_s = [math.ceil((k0 + r + 1) * dt - 1e-9) - 1 for r in range(m)]
            flat += (np.clip(i_s, -1, sh[2]) + 1)[:, None] * gsize
        counts += np.bincount(flat.ravel(), minlength=counts.size)
    counts = counts.reshape(n_s, *gshape)[:, 1:-1, 1:-1, :, 1:-1]
    if has_ds:
        counts = np.moveaxis(counts[1:-1], 0, 2)  # to (q1, q2, s, theta, v)
    return counts.ravel()


def _guarded_bin(x: np.ndarray, origin: float, spacing: float, n: int) -> np.ndarray:
    """Nearest-bin index of x on an axis of n bins, plus one for the guard bin.

    Values off the axis land in guard bin 0 (below) or n + 1 (above).
    """
    i = np.rint((x - origin) / spacing).astype(np.int64)
    np.clip(i, -1, n, out=i)
    i += 1
    return i


@functools.cache
def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None when
    numpy carries no such library (another BLAS, or another numpy build)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))  # the copy numpy has already loaded
        try:
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class Workers:
    """The n workers of one call, shared by all of its phases.

    The calling thread is worker 0.  Entering the context starts n - 1
    threads, which serve every ``run`` until the context exits and ends
    them, so none outlives the call.  While n > 1 the context also holds
    numpy's bundled OpenBLAS at one thread, so that a worker's matrix
    product does not start BLAS threads that compete with the other
    workers, and restores the count it found on exit (without that
    library this does nothing).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n_threads must be >= 1, got {n}")
        self.n = n
        self._inboxes: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._blas = None  # (set, count to restore) while the cap holds

    def __enter__(self) -> "Workers":
        if self.n > 1:
            blas = _openblas()
            if blas is not None:
                get, put = blas
                self._blas = (put, get())
                put(1)
            try:
                for _ in range(self.n - 1):
                    inbox = queue.SimpleQueue()
                    thread = threading.Thread(target=self._serve, args=(inbox,), daemon=True)
                    thread.start()
                    self._inboxes.append(inbox)
                    self._threads.append(thread)
            except BaseException:
                self.__exit__()
                raise
        return self

    def __exit__(self, *exc) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join()
        self._inboxes.clear()
        self._threads.clear()
        if self._blas is not None:
            put, count = self._blas
            put(count)
            self._blas = None

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        while (task := inbox.get()) is not None:
            error = None
            try:
                task[0](task[1])
            except BaseException as exc:  # re-raised by ``run`` in the calling thread
                error = exc
            # drop the phase's work, and the buffers it holds, before the
            # next phase is dealt
            task = None
            self._done.put(error)

    def run(self, n_items: int, work) -> None:
        """Run ``work(w, i)`` for every item i < n_items and return when all
        are done.  min(n, n_items) workers each take the next item no one
        has taken until none is left, so a worker that is held up takes
        fewer; w is the taking worker's index, for buffers of its own.  An
        exception raised by any of them is raised here, once every worker
        has finished."""
        items = iter(range(n_items))
        lock = threading.Lock()

        def take(w):
            while True:
                with lock:
                    i = next(items, None)
                if i is None:
                    return
                work(w, i)

        n_workers = min(self.n, n_items)
        for w in range(1, n_workers):
            self._inboxes[w - 1].put((take, w))
        try:
            take(0)
        finally:
            # the others finish this phase before anything else happens
            errors = [self._done.get() for _ in range(1, n_workers)]
        for exc in errors:
            if exc is not None:
                raise exc


def _estimate(spec: SdeSpec, lattice: KernelLattice, n_threads: int = 1) -> np.ndarray:
    """The passage counts of every batch, summed: each worker adds the batches
    it takes into its own int64 total, and the totals are added at the end.
    Integer sums do not depend on their order, so neither does the result."""
    counts = _batch_counts(spec.n_paths)
    children = np.random.SeedSequence(spec.seed).spawn(len(counts))
    n_workers = min(n_threads, len(counts))

    def work(w, b):
        totals[w] += _simulate_batch_histogram(spec, lattice, counts[b], children[b])

    with Workers(n_workers) as workers:
        totals = np.zeros((n_workers, int(np.prod(lattice.shape))), dtype=np.int64)
        workers.run(len(counts), work)
    return totals.sum(axis=0)


def estimate_kernel(spec: SdeSpec, lattice: KernelLattice, n_threads: int = 1) -> KernelGrid:
    """Histogram the paths' passages over the lattice and normalize to mass 1.

    Every step of every path deposits weight dt at its nearest cell
    (ceiling binning on the ds axis in trajectory mode); passages outside
    the lattice deposit nothing, and paths are never killed so they may
    re-enter.  The passages are counted in integers and summed exactly, so
    the kernel is the same to the bit for every thread count; ``n_threads``
    must be at least 1.
    """
    want = 5 if spec.mode == "trajectory" else 4
    if len(lattice.shape) != want:
        raise ValueError(
            f"{spec.mode} mode needs a {want}-d lattice, got {len(lattice.shape)}-d"
        )
    hist = _estimate(spec, lattice, n_threads) * spec.dt_exact
    total = hist.sum()
    if total <= 0:
        raise ValueError("no path passage landed on the lattice; nothing to normalize")
    values = (hist / total).reshape(lattice.shape)
    return KernelGrid(
        axes=lattice.axes,
        origin=lattice.origin,
        spacing=lattice.spacing,
        values=values,
        spec=spec,
        raw_weight=float(total),
    )


def _van_leer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a * b
    s = a + b
    out = np.zeros_like(a)
    good = prod > 0
    out[good] = 2.0 * prod[good] / s[good]
    return out


def _advect_axis(rho: np.ndarray, u, axis: int, dx: float, dt: float) -> np.ndarray:
    """One conservative MUSCL upwind step along an axis.

    ``u`` broadcasts against ``rho`` and is constant along ``axis``.  Domain
    edges are closed (zero boundary flux), so total mass is preserved
    exactly.  Slopes use the van Leer limiter: TVD (sign-preserving,
    slightly dissipative at extrema).
    """
    rho = np.moveaxis(rho, axis, 0)
    u = np.broadcast_to(np.moveaxis(np.asarray(u, dtype=float), axis, 0), rho.shape)[0]
    n = rho.shape[0]
    d = np.diff(rho, axis=0)  # d[i] = rho[i+1]-rho[i], i = 0..n-2
    sigma = np.zeros_like(rho)
    if n > 2:
        sigma[1:-1] = _van_leer(d[:-1], d[1:])
    c = np.abs(u) * dt / dx
    # interface fluxes F[i] at i+1/2 for i = 0..n-2
    f_pos = u * (rho[:-1] + 0.5 * (1.0 - c) * sigma[:-1])
    f_neg = u * (rho[1:] - 0.5 * (1.0 - c) * sigma[1:])
    flux = np.where(u >= 0, f_pos, f_neg)
    out = rho.copy()
    out[:-1] -= (dt / dx) * flux
    out[1:] += (dt / dx) * flux
    return np.moveaxis(out, 0, axis)


def _diffuse_axis(
    rho: np.ndarray, coeff: float, axis: int, dx: float, dt: float, periodic: bool
) -> np.ndarray:
    """Centered second-difference diffusion step in flux form.

    Periodic wrap for the orientation axis, zero-flux edges otherwise;
    either way total mass is preserved exactly.
    """
    if coeff == 0.0:
        return rho
    rho = np.moveaxis(rho, axis, 0)
    if periodic:
        grad = np.roll(rho, -1, axis=0) - rho  # interface i+1/2 for all i
        flux = -coeff * grad / dx
        out = rho - (dt / dx) * (flux - np.roll(flux, 1, axis=0))
    else:
        grad = np.diff(rho, axis=0)
        flux = -coeff * grad / dx
        out = rho.copy()
        out[:-1] -= (dt / dx) * flux
        out[1:] += (dt / dx) * flux
    return np.moveaxis(out, 0, axis)


def fp_reference(
    mode: str,
    kappa: float,
    alpha: float,
    lattice4: KernelLattice,
    horizon: float,
    snapshot_times,
    *,
    refine: int = 3,
):
    """Finite-difference solve of the per-parameter density from a point source.

    The density starts as a unit point mass at the lattice origin, the start
    of every Monte Carlo path, and evolves under the mode's Fokker-Planck
    operator: conservative limited upwind sweeps transport it along the
    drift (X1 for contour mode, the velocity-dependent spatial transport
    for trajectory mode), and centered second differences diffuse it in
    theta (periodic) and v (zero-flux).  Upwind transport is
    sign-preserving and conserves mass exactly; its numerical diffusion
    smears the thin shells these hypoelliptic densities concentrate on, an
    error that shrinks with the spacing.

    Internally the solve runs at ``refine``-fold resolution (odd factor) on
    the q1, q2 and theta axes, and on the v axis too in trajectory mode,
    where v sets the drift; the point mass sits in the centre fine cell of
    the origin cell.  Results are aggregated back onto the requested
    lattice.  The global step is CFL-limited by the advection; fiber
    diffusions are sub-cycled explicitly at their own stable steps.  Each
    step is the transport, then the theta and v diffusions, then the mass
    check.

    Returns (actual_times, stack of densities on ``lattice4``).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if refine < 1 or refine % 2 == 0:
        raise ValueError("refine must be a positive odd integer")
    sh = lattice4.shape
    r_v = refine if mode == "trajectory" else 1
    rf = (refine, refine, refine, r_v)
    fine_shape = tuple(s * r for s, r in zip(sh, rf))
    spacing = [lattice4.spacing[a] / rf[a] for a in range(4)]
    # fine-cell centres on the theta and v axes
    thetas, vs = (lattice4.origin[a] - spacing[a] * (rf[a] - 1) / 2.0
                  + spacing[a] * np.arange(fine_shape[a]) for a in (2, 3))
    if mode == "contour":
        u1 = -np.sin(thetas)[None, None, :, None]
        u2 = np.cos(thetas)[None, None, :, None]
    else:
        u1 = (vs[None, :] * np.cos(thetas)[:, None])[None, None, :, :]
        u2 = (vs[None, :] * np.sin(thetas)[:, None])[None, None, :, :]
    adv_rate = float(np.max(np.abs(u1))) / spacing[0] + float(np.max(np.abs(u2))) / spacing[1]
    diff_rate = 2.0 * kappa**2 / spacing[2] ** 2 + 2.0 * alpha**2 / spacing[3] ** 2
    if adv_rate + diff_rate <= 0:
        raise ValueError("degenerate operator: zero drift and diffusion")
    dt = FP_CFL / adv_rate if adv_rate > 0 else FP_CFL / diff_rate
    n_steps = int(math.ceil(horizon / dt))
    if n_steps > FP_MAX_STEPS:
        raise ValueError(
            f"CFL-limited step {dt:.3e} needs {n_steps} steps > {FP_MAX_STEPS}"
        )
    dt = horizon / n_steps
    # explicit diffusion substeps per global step, per fiber axis
    sub_th = max(1, int(math.ceil(dt * 2.0 * kappa**2 / (FP_CFL * spacing[2] ** 2))))
    sub_v = max(1, int(math.ceil(dt * 2.0 * alpha**2 / (FP_CFL * spacing[3] ** 2))))
    rho = np.zeros(fine_shape)
    rho[tuple(
        int(round(-lattice4.origin[a] / lattice4.spacing[a])) * rf[a] + rf[a] // 2
        for a in range(4)
    )] = 1.0
    snap_steps = sorted({max(0, min(n_steps, int(round(t / dt)))) for t in snapshot_times})
    taken = {}
    # alternate the upwind sweep order every step (Strang-style
    # symmetrization of the dimensional splitting)
    sweeps = ((0, u1, spacing[0]), (1, u2, spacing[1]))
    for k in range(n_steps + 1):
        if k in snap_steps:
            # a C-order copy, so the sum order is not the last sub-step's layout
            taken[k] = np.ascontiguousarray(rho).reshape(
                sh[0], rf[0], sh[1], rf[1], sh[2], rf[2], sh[3], rf[3]
            ).sum(axis=(1, 3, 5, 7))
        if k == n_steps:
            break
        for ax, u, dxa in sweeps[::-1] if k % 2 else sweeps:
            rho = _advect_axis(rho, u, ax, dxa, dt)
        for _ in range(sub_th if kappa > 0 else 0):
            rho = _diffuse_axis(rho, kappa**2, 2, spacing[2], dt / sub_th, periodic=True)
        for _ in range(sub_v if alpha > 0 else 0):
            rho = _diffuse_axis(rho, alpha**2, 3, spacing[3], dt / sub_v, periodic=False)
        if abs(rho.sum() - 1.0) > 1e-6:
            raise ArithmeticError("finite-difference step lost mass beyond 1e-6")
    times = np.array(snap_steps, dtype=float) * dt
    stack = np.stack([taken[k] for k in snap_steps])
    return times, stack


def kernel_lookup(kernel: KernelGrid, target) -> float | np.ndarray:
    """Multilinear interpolation on the kernel lattice.

    ``target`` is one relative element or an array of them (last axis =
    lattice rank, physical units).  The orientation axis wraps; every other
    axis returns 0 outside the stored support.  Lattice nodes are returned
    exactly.
    """
    lat = kernel.lattice
    pts = np.asarray(target, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != len(lat.axes):
        raise ValueError(f"target rank {pts.shape[-1]} != lattice rank {len(lat.axes)}")
    n = pts.shape[0]
    result = np.zeros(n)
    idx_f = (pts - np.array(lat.origin)) / np.array(lat.spacing)
    th_ax = lat.theta_axis
    n_th = lat.shape[th_ax]
    idx_f[:, th_ax] = np.mod(idx_f[:, th_ax], n_th)
    lo = np.floor(idx_f).astype(np.int64)
    frac = idx_f - lo
    rank = len(lat.axes)
    strides = np.cumprod((lat.shape[1:] + (1,))[::-1])[::-1]  # C order
    for corner in range(1 << rank):
        weight = np.ones(n)
        flat = np.zeros(n, dtype=np.int64)
        valid = np.ones(n, dtype=bool)
        for a in range(rank):
            bit = (corner >> a) & 1
            ia = lo[:, a] + bit
            w = frac[:, a] if bit else 1.0 - frac[:, a]
            if a == th_ax:
                ia = np.mod(ia, n_th)
            else:
                inside = (ia >= 0) & (ia < lat.shape[a])
                valid &= inside
                ia = np.clip(ia, 0, lat.shape[a] - 1)
            weight = weight * w
            flat = flat + ia * strides[a]
        contrib = np.where(valid, weight * kernel.values.reshape(-1)[flat], 0.0)
        result += contrib
    return float(result[0]) if scalar else result
