"""Stochastic connectivity kernels and their finite-difference oracle.

Two families of random paths are integrated with Euler-Maruyama: contour
mode drifts along the orientation-transverse direction X1, trajectory mode
along the motion generator X5; both diffuse in the fiber variables
(orientation, velocity).  In (q1, q2, s, theta, v), X1 = (-sin theta,
cos theta, 0, 0, 0) and X5 = (v cos theta, v sin theta, 1, 0, 0); contour
paths carry no s.  The noise enters as sqrt(2) kappa dW and sqrt(2)
alpha dW so the generator of the process is exactly
drift + kappa^2 d^2/dtheta^2 + alpha^2 d^2/dv^2, matching the Fokker-Planck
operators whose time-integrated fundamental solutions the histograms
estimate.

Both SDEs, started at the origin, are invariant under a four-element group
of reflections, the walks whose noise signs are (+-W1, +-W2).  Contour mode:
flipping W1 maps (q1, theta) to (-q1, -theta), flipping W2 maps v to -v.
Trajectory mode: flipping W1 maps (q2, theta) to (-q2, -theta), flipping W2
maps (q1, q2, v) to (-q1, -q2, -v); ds is untouched.  On a lattice centred on
the origin each reflection is an index permutation of the counts (an axis
flip, or theta bin k to -k mod n_theta), so one walk deposits its whole
orbit (antithetic sampling).  Every kernel therefore equals its mirror
images exactly.

Estimation is deterministic: ``n_paths`` counts the paths in the histogram,
and ceil(n_paths / 4) walks are walked, each depositing its orbit of four.
The walks are organized in fixed-size batches, each batch draws from its own
generator spawned from the seed, and the walker returns integer passage
counts, which are summed exactly, so results are bit-identical for a given
spec regardless of the number of worker threads or of the order in which the
batches finish.  The batches are dealt over the workers of a
``workers.Workers`` context, the calling thread and n - 1 threads, each
taking the next batch no one has taken and adding its counts into its own
total; the mirror images are added to the sum once, at the end.

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

import math
from dataclasses import asdict, dataclass

import numpy as np

from .gabor import ManifoldGrid
from .workers import Workers

BATCH_SIZE = 8192  # walks per batch; fixed: part of the deterministic estimation contract
ORBIT = 4  # histogram paths per walk: the walk and its three mirror images
ESTIMATOR = "reflection-orbit"  # names the estimator in the kernel cache key
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
    mode).  ``n_paths`` is the number of paths in the histogram: the
    estimate walks ceil(n_paths / 4) of them and each deposits itself and
    its three mirror images (see the module docstring), so the histogram
    holds n_paths rounded up to a multiple of 4.  ``calibration`` is
    free-form metadata recording how kappa and alpha were derived when they
    come from normalized-horizon conventions.
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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

    def coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])


def contour_lattice(halfwidth: int, grid: ManifoldGrid) -> KernelLattice:
    """4D lattice over (dq1, dq2, dtheta, dv) for the contour kernel.

    Spatial bins are unit pixels centered on integer offsets.  The fiber
    offsets take their bins and spacings from ``grid``, the one record of
    the fiber lattice: dtheta covers the full circle at the grid's
    orientation spacing, and dv spans [-2 v_m, 2 v_m] at its velocity
    spacing, so every difference of two grid velocities is a bin center.
    """
    if halfwidth < 1:
        raise ValueError("halfwidth must be >= 1")
    n_v, d_v = grid.n_v, grid.d_v
    return KernelLattice(
        axes=("q1", "q2", "theta", "v"),
        shape=(2 * halfwidth + 1, 2 * halfwidth + 1, grid.n_theta, 2 * n_v - 1),
        origin=(-halfwidth, -halfwidth, 0.0, -(n_v - 1) * d_v),
        spacing=(1.0, 1.0, grid.d_theta, d_v),
    )


def trajectory_lattice(halfwidth: int, n_ds: int, grid: ManifoldGrid) -> KernelLattice:
    """5D lattice: ``contour_lattice`` on ``grid`` with the strictly
    positive ds axis (bins 1..n_ds frames) inserted before the fibers.

    The drift ds = dt ties the evolution parameter to ds; deposits use
    ceiling binning, ds bin k collecting parameter values in (k-1, k], so no
    mass can ever land at ds <= 0.
    """
    base = contour_lattice(halfwidth, grid)
    return KernelLattice(
        axes=("q1", "q2", "s", "theta", "v"),
        shape=(*base.shape[:2], n_ds, *base.shape[2:]),
        origin=(*base.origin[:2], 1.0, *base.origin[2:]),
        spacing=(*base.spacing[:2], 1.0, *base.spacing[2:]),
    )


def _check_layout(lattice: KernelLattice, mode: str) -> None:
    """Raise ``ValueError`` unless the lattice has the layout of a ``mode``
    kernel, the one ``contour_lattice`` and ``trajectory_lattice`` build and
    the walks' mirror images and the FFT gather rely on: axes (q1, q2,
    theta, v), with s before theta in trajectory mode; square q axes of an
    odd number of pixels and a v axis of an odd number of bins, all centred
    on 0; theta from 0 around the circle; s from ds = 1 in whole frames."""
    axes = ("q1", "q2", "theta", "v")
    if mode == "trajectory":
        axes = ("q1", "q2", "s", "theta", "v")
    if tuple(lattice.axes) != axes:
        raise ValueError(f"a {mode} kernel has the axes {axes}, not {tuple(lattice.axes)}")
    for n, o, d, name in zip(lattice.shape, lattice.origin, lattice.spacing, axes):
        if name == "theta":
            ok = o == 0.0 and math.isclose(n * d, 2 * math.pi)
            rule = "start at 0 and span the circle"
        elif name == "s":
            ok = o == 1.0 and d == 1.0
            rule = "start at ds = 1 with a spacing of 1"
        else:  # q1, q2 and v
            ok = n % 2 == 1 and math.isclose(o, -(n - 1) / 2 * d, abs_tol=1e-9 * d)
            ok = ok and (d == 1.0 or name == "v")
            rule = "be centred on 0 in an odd number of " + ("bins" if name == "v" else "pixels")
        if not ok:
            raise ValueError(f"the {name} axis must {rule}; its {n} bins of {d} start at {o}")
    if lattice.shape[0] != lattice.shape[1]:
        raise ValueError(f"the q1 and q2 axes must have the same length, not {lattice.shape[:2]}")


@dataclass
class KernelGrid:
    """Normalized kernel histogram with the spec that produced it.

    Its lattice has the layout of the spec's mode (``_check_layout``),
    checked here, the one place for every kernel, estimated, read or built.
    """

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
        _check_layout(self.lattice, self.spec.mode)
        if not np.isfinite(self.values).all():
            raise ValueError("kernel values must be finite")
        if self.values.size and float(self.values.min()) < 0:
            raise ValueError("kernel values must be nonnegative")

    @property
    def lattice(self) -> KernelLattice:
        return KernelLattice(self.axes, self.values.shape, self.origin, self.spacing)

    @property
    def is_trajectory(self) -> bool:
        return "s" in self.axes


def _batch_counts(n_paths: int) -> list[int]:
    """The walks of each batch: ceil(n_paths / ORBIT) walks in batches of
    ``BATCH_SIZE``."""
    n_walks = -(-n_paths // ORBIT)
    n_batches = -(-n_walks // BATCH_SIZE)
    return [min(BATCH_SIZE, n_walks - b * BATCH_SIZE) for b in range(n_batches)]


def _simulate_batch_histogram(spec: SdeSpec, lattice: KernelLattice, nb: int,
                              child_seed) -> np.ndarray:
    """Run one batch of paths from the origin and count each step's passage
    through the lattice.

    Returns the flat int64 passage counts.  The per-path random stream order
    is (step, channel, path), fixed.  The drift, and whether deposits use a
    ds axis, follow the spec's mode; the lattice has that mode's layout
    (``_check_layout``).

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
    sh = lattice.shape
    ax_t, ax_v = (3, 4) if trajectory else (2, 3)
    n_th, n_v = sh[ax_t], sh[ax_v]
    d_th = lattice.spacing[ax_t]
    o_v, d_v = lattice.origin[ax_v], lattice.spacing[ax_v]
    o_q1, o_q2 = lattice.origin[0], lattice.origin[1]
    d_q1, d_q2 = lattice.spacing[0], lattice.spacing[1]
    block = min(STEP_BLOCK, spec.n_steps)
    q1, q2, th, v = (np.zeros((block + 1, nb)) for _ in range(4))
    noise = np.empty((block, 2, nb))
    # each bounded axis gets a guard bin either side that collects the
    # passages off it (theta wraps); guard bins are cut away at the end.  The
    # ds axis leads, so a step's ds bin is one offset for the whole row.
    gshape = (sh[0] + 2, sh[1] + 2, n_th, n_v + 2)
    gsize = int(np.prod(gshape))
    n_s = sh[2] + 2 if trajectory else 1
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
        if trajectory:
            # ds bin j covers (j-1, j]; steps past the last bin hit a guard bin
            i_s = [math.ceil((k0 + r + 1) * dt - 1e-9) - 1 for r in range(m)]
            flat += (np.clip(i_s, -1, sh[2]) + 1)[:, None] * gsize
        counts += np.bincount(flat.ravel(), minlength=counts.size)
    counts = counts.reshape(n_s, *gshape)[:, 1:-1, 1:-1, :, 1:-1]
    if trajectory:
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


def _orbit_sum(counts: np.ndarray, trajectory: bool) -> np.ndarray:
    """Counts on a lattice plus their three images under the SDE's reflection
    group: the counts of the walks with noise signs (+-W1, +-W2)."""
    ax_t = 3 if trajectory else 2
    n_th = counts.shape[ax_t]
    neg_theta = -np.arange(n_th) % n_th  # theta bin k -> -k mod n_theta
    if trajectory:  # (q1, q2, s, theta, v)
        counts = counts + np.flip(counts, (0, 1, 4))  # -W2: (q1, q2, v) -> -(q1, q2, v)
        return counts + np.flip(counts, 1).take(neg_theta, axis=ax_t)  # -W1: (q2, theta)
    counts = counts + np.flip(counts, 3)  # -W2: v -> -v
    return counts + np.flip(counts, 0).take(neg_theta, axis=ax_t)  # -W1: (q1, theta)


def _estimate(spec: SdeSpec, lattice: KernelLattice, n_threads: int = 1) -> np.ndarray:
    """The passage counts of every batch, summed, plus their mirror images,
    on the lattice's shape: each worker adds the batches it takes into its
    own int64 total, the totals are added at the end, and then the sum's
    three images.  Integer sums do not depend on their order, so neither
    does the result."""
    counts = _batch_counts(spec.n_paths)
    children = np.random.SeedSequence(spec.seed).spawn(len(counts))
    n_workers = min(n_threads, len(counts))

    def work(w, b):
        totals[w] += _simulate_batch_histogram(spec, lattice, counts[b], children[b])

    with Workers(n_workers) as workers:
        totals = np.zeros((n_workers, int(np.prod(lattice.shape))), dtype=np.int64)
        workers.run(len(counts), work)
    return _orbit_sum(totals.sum(axis=0).reshape(lattice.shape), spec.mode == "trajectory")


def estimate_kernel(spec: SdeSpec, lattice: KernelLattice, n_threads: int = 1) -> KernelGrid:
    """Histogram the paths' passages over the lattice and normalize to mass 1.

    Every step of every path deposits weight dt at its nearest cell
    (ceiling binning on the ds axis in trajectory mode); passages outside
    the lattice deposit nothing, and paths are never killed so they may
    re-enter.  Each walk also deposits its three mirror images, so the
    lattice must have the layout of the spec's mode (``_check_layout``:
    among others, q and v axes centred on 0 and theta starting at 0), as
    every ``contour_lattice`` and ``trajectory_lattice`` has; any other
    raises ``ValueError`` before a path is walked.  The passages are
    counted in integers and summed exactly, so the kernel is the same to the
    bit for every thread count; ``n_threads`` must be at least 1.
    """
    _check_layout(lattice, spec.mode)
    hist = _estimate(spec, lattice, n_threads) * spec.dt_exact
    total = hist.sum()
    if total <= 0:
        raise ValueError("no path passage landed on the lattice; nothing to normalize")
    return KernelGrid(
        axes=lattice.axes,
        origin=lattice.origin,
        spacing=lattice.spacing,
        values=hist / total,
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
    th_ax = lat.axes.index("theta")
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
