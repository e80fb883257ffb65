"""Spatio-temporal Gabor filter bank and energy lifting.

A stimulus movie f(x1, x2, t) is correlated with a bank of complex Gabor
filters of fixed spatial frequency, one filter per node of a discretized
manifold grid (position, time, orientation, velocity).  The squared modulus
of the correlation is the lifted energy F.  Filters are made exactly
zero-mean (no response to uniform luminance) and are normalized so a
unit-contrast sinusoidal plane wave matching the filter's orientation,
frequency and velocity yields energy 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class StimulusVolume:
    """Scalar movie on a regular (x1, x2, t) grid with luminance in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError(f"stimulus must be 3-d (x1, x2, t), got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("stimulus contains non-finite samples")
        lo, hi = float(self.data.min()), float(self.data.max())
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            raise ValueError(f"luminance range [{lo}, {hi}] outside [0, 1]")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class GaborParams:
    """Center, frequency and width parameters of one complex Gabor filter."""

    q1: float
    q2: float
    s: float
    p_modulus: float
    theta: float
    nu: float
    sigma_x: float
    sigma_t: float

    def __post_init__(self):
        if not (self.sigma_x > 0 and self.sigma_t > 0 and self.p_modulus > 0):
            raise ValueError("sigma_x, sigma_t and p_modulus must be positive")


def scales_from_frequency(p_modulus: float, v_m: float) -> tuple[float, float]:
    """Gabor widths from the frequency modulus and the bank's peak velocity.

    sigma_x = 2.5 pi / (4 |p|) puts about 2.5 subregions under the spatial
    envelope; sigma_t = pi / (2 nu_m) with nu_m = |p| v_m lets the fastest
    filter cover one wavelength within its active interval.
    """
    if not p_modulus > 0:
        raise ValueError(f"p_modulus must be positive, got {p_modulus}")
    if not v_m > 0:
        raise ValueError(f"v_m must be positive, got {v_m}")
    sigma_x = 2.5 * math.pi / (4.0 * p_modulus)
    nu_m = p_modulus * v_m
    sigma_t = math.pi / (2.0 * nu_m)
    return sigma_x, sigma_t


def gabor_profile(params: GaborParams, x, t) -> complex:
    """Complex Gabor value: plane wave at (p, nu) under a Gaussian envelope."""
    x = np.asarray(x, dtype=float)
    dx1 = x[0] - params.q1
    dx2 = x[1] - params.q2
    dt = t - params.s
    p1 = params.p_modulus * math.cos(params.theta)
    p2 = params.p_modulus * math.sin(params.theta)
    phase = p1 * dx1 + p2 * dx2 - params.nu * dt
    envelope = math.exp(
        -(dx1 * dx1 + dx2 * dx2) / params.sigma_x**2 - dt * dt / params.sigma_t**2
    )
    return complex(math.cos(phase), math.sin(phase)) * envelope


@dataclass(frozen=True)
class ManifoldGrid:
    """Discretization of the lifted domain.

    Spatial nodes coincide with stimulus pixels, the temporal axis is a
    chosen subset of frames (``s_slices``; None means every frame),
    orientations are n_theta bins over [0, 2*pi) and velocities n_v bins
    spanning [-v_m, v_m] with v = 0 a bin center.
    """

    nx: int
    ny: int
    n_theta: int = 16
    n_v: int = 9
    v_m: float = 1.0
    s_slices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid dims must be positive")
        if self.n_theta < 4:
            raise ValueError(f"n_theta must be >= 4, got {self.n_theta}")
        if self.n_v < 1 or self.n_v % 2 == 0:
            raise ValueError(f"n_v must be odd so v = 0 is a bin center, got {self.n_v}")
        if not self.v_m > 0:
            raise ValueError("v_m must be positive")
        if self.s_slices is not None:
            object.__setattr__(self, "s_slices", tuple(int(s) for s in self.s_slices))

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.n_theta) * (TWO_PI / self.n_theta)

    @property
    def vs(self) -> np.ndarray:
        if self.n_v == 1:
            return np.zeros(1)
        return np.linspace(-self.v_m, self.v_m, self.n_v)

    @property
    def d_theta(self) -> float:
        return TWO_PI / self.n_theta

    @property
    def d_v(self) -> float:
        return 2.0 * self.v_m / (self.n_v - 1) if self.n_v > 1 else 1.0

    def frames_for(self, stimulus: StimulusVolume) -> np.ndarray:
        n_t = stimulus.dims[2]
        if self.s_slices is None:
            return np.arange(n_t)
        frames = np.asarray(self.s_slices, dtype=int)
        if frames.min() < 0 or frames.max() >= n_t:
            raise ValueError(f"s_slices {self.s_slices} outside stimulus frames 0..{n_t - 1}")
        return frames


VALID_KINDS = ("raw", "thresholded", "facilitation", "total")


@dataclass
class LiftedActivity:
    """Scalar field over the manifold grid, axes (q1, q2, s, theta, v).

    ``kind`` tags the role: raw energy F (nonnegative), thresholded F_T and
    total F0 (sigmoid outputs in (0, 1)), or facilitation P.
    """

    grid: ManifoldGrid
    values: np.ndarray
    kind: str = "raw"
    s_frames: np.ndarray = field(default_factory=lambda: np.arange(0))

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"kind must be one of {VALID_KINDS}, got {self.kind!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 5:
            raise ValueError(f"activity must be 5-d, got shape {self.values.shape}")
        self.s_frames = np.asarray(self.s_frames, dtype=int)
        if self.s_frames.size != self.values.shape[2]:
            raise ValueError("s_frames length must match the temporal axis")
        if self.kind == "raw" and self.values.size and float(self.values.min()) < 0:
            raise ValueError("raw energy must be nonnegative")
        if self.kind in ("thresholded", "total") and self.values.size:
            lo, hi = float(self.values.min()), float(self.values.max())
            if lo <= 0.0 or hi >= 1.0:
                raise ValueError(f"sigmoid output must lie in (0, 1), got [{lo}, {hi}]")

    @property
    def axes(self) -> tuple[str, ...]:
        return ("q1", "q2", "s", "theta", "v")

    def with_values(self, values: np.ndarray, kind: str) -> "LiftedActivity":
        return LiftedActivity(self.grid, values, kind, self.s_frames.copy())


_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(tau, mu: float, beta: float):
    """Logistic threshold 1 / (1 + exp(-mu (tau - beta))).

    Output is clamped to the open unit interval at float resolution, so
    saturated responses remain valid sigmoid outputs.
    """
    tau = np.asarray(tau, dtype=np.float64)
    out = np.empty_like(tau)
    z = mu * (tau - beta)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    out = np.clip(out, _SIG_LO, _SIG_HI)
    if out.ndim == 0:
        return float(out)
    return out


def threshold_activity(activity: LiftedActivity, mu: float, beta: float) -> LiftedActivity:
    """Elementwise sigmoid of a raw energy field."""
    if activity.kind != "raw":
        raise ValueError(f"threshold_activity expects raw energy, got {activity.kind!r}")
    return activity.with_values(sigmoid(activity.values, mu, beta), "thresholded")


class GaborBank:
    """Precomputed truncated, zero-mean, contrast-normalized filter arrays.

    Support is truncated at 3 sigma per axis.  Each filter starts as the
    conjugate plane wave under the Gaussian envelope and is then
    orthogonalized against the constant (so uniform luminance yields
    exactly zero) and against the counter-phase wave (so the energy
    response to a matched drifting sinusoid does not ripple with stimulus
    phase; at these small supports the counter-phase leak of the plain
    zero-mean Gabor is several percent).  Finally each filter is scaled so
    a matched unit-contrast sinusoid yields energy 1.
    """

    def __init__(self, grid: ManifoldGrid, p_modulus: float):
        if not p_modulus > 0:
            raise ValueError("p_modulus must be positive")
        if p_modulus > math.pi:
            raise ValueError(f"|p| = {p_modulus} exceeds the Nyquist limit pi")
        self.grid = grid
        self.p_modulus = float(p_modulus)
        self.sigma_x, self.sigma_t = scales_from_frequency(p_modulus, grid.v_m)
        self.rx = max(1, int(math.floor(3.0 * self.sigma_x)))
        self.rt = max(1, int(math.floor(3.0 * self.sigma_t)))
        ax = np.arange(-self.rx, self.rx + 1, dtype=float)
        at = np.arange(-self.rt, self.rt + 1, dtype=float)
        X1, X2, T = np.meshgrid(ax, ax, at, indexing="ij")
        envelope = np.exp(
            -(X1 * X1 + X2 * X2) / self.sigma_x**2 - T * T / self.sigma_t**2
        )
        self.filters = np.empty(
            (grid.n_theta, grid.n_v, ax.size, ax.size, at.size), dtype=np.complex128
        )
        self.norms = np.empty((grid.n_theta, grid.n_v))
        a_sum = envelope.sum()
        for i, theta in enumerate(self.grid.thetas):
            p1 = p_modulus * math.cos(theta)
            p2 = p_modulus * math.sin(theta)
            for j, v in enumerate(self.grid.vs):
                nu = p_modulus * v
                wave = np.exp(1j * (p1 * X1 + p2 * X2 - nu * T))
                base = np.conj(wave) * envelope
                # coefficients (a, b) of env and wave*env that zero both the
                # constant response and the counter-phase wave response
                b_sum = (wave * envelope).sum()
                e2_sum = (np.conj(wave) ** 2 * envelope).sum()
                mat = np.array([[a_sum, b_sum], [np.conj(b_sum), a_sum]])
                rhs = np.array([np.conj(b_sum), e2_sum])
                ca, cb = np.linalg.solve(mat, rhs)
                w = base - ca * envelope - cb * wave * envelope
                matched = np.abs((w * wave).sum())
                scale = 4.0 / matched  # unit-contrast sinusoid -> energy 1
                self.filters[i, j] = w * scale
                self.norms[i, j] = matched / 4.0


def _fast_len(n: int) -> int:
    """Smallest 2/3/5-smooth integer >= n (numpy FFT is fast at these)."""
    best = 1 << (n - 1).bit_length()
    k = n
    while k < best:
        m = k
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return k
        k += 1
    return best


def energy_filter(
    stimulus: StimulusVolume,
    grid: ManifoldGrid,
    p_modulus: float,
    *,
    bank: GaborBank | None = None,
) -> LiftedActivity:
    """Lift a stimulus: energy of the bank response at every grid node.

    Uses FFT correlation per fiber bin (equivalent to the direct node sums to
    floating-point roundoff; see ``energy_filter_direct``).  Filters
    overhanging the movie boundary see zero padding, so responses within
    3 sigma of an edge are attenuated; tests should avoid those bands.
    """
    nx, ny, n_t = stimulus.dims
    if (grid.nx, grid.ny) != (nx, ny):
        raise ValueError(
            f"grid spatial dims {(grid.nx, grid.ny)} do not match stimulus {(nx, ny)}"
        )
    bank = bank or GaborBank(grid, p_modulus)
    if bank.grid.n_theta != grid.n_theta or bank.grid.n_v != grid.n_v:
        raise ValueError("bank fiber discretization does not match the grid")
    frames = grid.frames_for(stimulus)
    rx, rt = bank.rx, bank.rt
    # restrict the input to frames that can influence the requested slices
    f_lo = max(0, int(frames.min()) - rt)
    f_hi = min(n_t - 1, int(frames.max()) + rt)
    sub = stimulus.data[:, :, f_lo : f_hi + 1]
    out_frames = frames - f_lo
    # circular periods only need to hold the kept window: with the filter
    # reach r, terms that wrap past a period of n + r land in the first r
    # samples, ahead of the window; 2r + 1 keeps the whole filter
    px = _fast_len(max(2 * rx + 1, nx + rx))
    py = _fast_len(max(2 * rx + 1, ny + rx))
    pt = _fast_len(max(2 * rt + 1, sub.shape[2] + rt))
    fpad = np.zeros((px, py, pt), dtype=np.complex128)
    fpad[:nx, :ny, : sub.shape[2]] = sub
    fhat = np.fft.fftn(fpad)
    values = np.empty((nx, ny, frames.size, grid.n_theta, grid.n_v))
    hpad = np.empty_like(fpad)
    for i in range(grid.n_theta):
        for j in range(grid.n_v):
            w = bank.filters[i, j]
            hpad[:] = 0.0
            hpad[: 2 * rx + 1, : 2 * rx + 1, : 2 * rt + 1] = w[::-1, ::-1, ::-1]
            conv = np.fft.ifftn(fhat * np.fft.fftn(hpad))
            lin = conv[rx : rx + nx, rx : rx + ny, rt : rt + sub.shape[2]]
            values[:, :, :, i, j] = np.abs(lin[:, :, out_frames]) ** 2
    np.maximum(values, 0.0, out=values)  # |.|^2 is nonnegative up to roundoff
    return LiftedActivity(grid, values, "raw", frames)


def energy_filter_direct(
    stimulus: StimulusVolume,
    grid: ManifoldGrid,
    p_modulus: float,
    *,
    bank: GaborBank | None = None,
) -> LiftedActivity:
    """Reference implementation: explicit truncated sums per node.

    Slow; used to validate the FFT path (agreement to 1e-10) on small inputs.
    """
    nx, ny, n_t = stimulus.dims
    if (grid.nx, grid.ny) != (nx, ny):
        raise ValueError("grid spatial dims do not match stimulus")
    bank = bank or GaborBank(grid, p_modulus)
    frames = grid.frames_for(stimulus)
    rx, rt = bank.rx, bank.rt
    values = np.zeros((nx, ny, frames.size, grid.n_theta, grid.n_v))
    data = stimulus.data
    for fi, s0 in enumerate(frames):
        for x0 in range(nx):
            for y0 in range(ny):
                xa, xb = max(0, x0 - rx), min(nx, x0 + rx + 1)
                ya, yb = max(0, y0 - rx), min(ny, y0 + rx + 1)
                ta, tb = max(0, s0 - rt), min(n_t, s0 + rt + 1)
                patch = data[xa:xb, ya:yb, ta:tb]
                wsl = (
                    slice(xa - x0 + rx, xb - x0 + rx),
                    slice(ya - y0 + rx, yb - y0 + rx),
                    slice(ta - s0 + rt, tb - s0 + rt),
                )
                for i in range(grid.n_theta):
                    for j in range(grid.n_v):
                        acc = (bank.filters[i, j][wsl] * patch).sum()
                        values[x0, y0, fi, i, j] = abs(acc) ** 2
    return LiftedActivity(grid, values, "raw", frames)


def lift_surface(activity: LiftedActivity, floor: float = 1e-3):
    """Argmax-fiber lifting of a raw energy field.

    For every (q1, q2, s) whose best fiber response exceeds ``floor``,
    returns the fiber argmax.  Ties break toward the smallest flattened
    (theta-major, v-minor) bin index, which makes the output deterministic.

    Returns a structured array with fields ix, iy, i_s, i_theta, i_v,
    theta, v, energy.
    """
    if activity.kind != "raw":
        raise ValueError("lift_surface expects raw energy")
    vals = activity.values
    nx, ny, ns, nth, nv = vals.shape
    flat = vals.reshape(nx, ny, ns, nth * nv)
    best = flat.argmax(axis=-1)  # first occurrence wins ties
    peak = np.take_along_axis(flat, best[..., None], axis=-1)[..., 0]
    mask = peak > floor
    ix, iy, i_s = np.nonzero(mask)
    fib = best[mask]
    i_theta = fib // nv
    i_v = fib % nv
    out = np.zeros(
        ix.size,
        dtype=[
            ("ix", np.int64), ("iy", np.int64), ("i_s", np.int64),
            ("i_theta", np.int64), ("i_v", np.int64),
            ("theta", np.float64), ("v", np.float64), ("energy", np.float64),
        ],
    )
    out["ix"], out["iy"], out["i_s"] = ix, iy, i_s
    out["i_theta"], out["i_v"] = i_theta, i_v
    out["theta"] = activity.grid.thetas[i_theta]
    out["v"] = activity.grid.vs[i_v]
    out["energy"] = peak[mask]
    return out
