"""Spatio-temporal Gabor filter bank and energy lifting.

A stimulus movie f(x1, x2, t) is correlated with a bank of complex Gabor
filters of fixed spatial frequency, one filter per node of a discretized
manifold grid (position, time, orientation, velocity).  The squared modulus
of the correlation is the lifted energy F.  Filters are made exactly
zero-mean (no response to uniform luminance) and are normalized so a
unit-contrast sinusoidal plane wave matching the filter's orientation,
frequency and velocity yields energy 1.

Each filter is a sum of three separable terms, each a product of one
profile per axis (x1, x2, t), as in Adelson & Bergen's motion-energy
filters.  The FFT lift builds every filter spectrum from per-axis 1D
transforms and inverts the temporal axis only at the frames the lift keeps.
Energy cannot tell the fiber (theta, v) from (theta + pi, -v): their filters
are complex conjugates, so a real movie gives both the same energy, and the
lift computes one fiber of each such pair.  A kept frame whose filter
support sees only blank movie has energy exactly 0 and is not inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ManifoldGrid:
    """The fiber lattice of the lifted domain, and its one record.

    Orientations are n_theta bins over [0, 2*pi) and velocities n_v bins
    spanning [-v_m, v_m] with v = 0 a bin center.  n_theta is even, so the
    grid maps onto itself under the half turn (theta, v) -> (theta + pi, -v),
    bin (i, j) to (i + n_theta/2, n_v - 1 - j); the lift and the gather
    compute one fiber of each such pair.  The Gabor bank, the kernel
    lattices (``kernels.contour_lattice``, ``trajectory_lattice``) and the
    gather read their fiber bins and spacings from here.  Spatial nodes are
    the pixels of the movie or activity at hand, and the frames an activity
    holds are its own ``s_frames``.
    """

    n_theta: int = 16
    n_v: int = 9
    v_m: float = 1.0

    def __post_init__(self):
        if self.n_theta < 4:
            raise ValueError(f"n_theta must be >= 4, got {self.n_theta}")
        if self.n_theta % 2:
            raise ValueError(f"n_theta must be even so theta + pi is a bin, got {self.n_theta}")
        if self.n_v < 1 or self.n_v % 2 == 0:
            raise ValueError(f"n_v must be odd so v = 0 is a bin center, got {self.n_v}")
        if not self.v_m > 0:
            raise ValueError("v_m must be positive")

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


VALID_KINDS = ("raw", "thresholded", "facilitation", "total")


@dataclass
class LiftedActivity:
    """Scalar field over the manifold grid, axes (q1, q2, s, theta, v).

    ``kind`` tags the role: raw energy F (nonnegative), thresholded F_T and
    total F0 (sigmoid outputs in (0, 1)), or facilitation P.
    """

    grid: ManifoldGrid
    values: np.ndarray
    kind: str
    s_frames: np.ndarray

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
_SIG_CHUNK = 1 << 15  # elements per chunk: 256 KB of float64 scratch


def sigmoid(tau, mu: float, beta: float):
    """Logistic threshold 1 / (1 + exp(-mu (tau - beta))).

    Output is clamped to the open unit interval at float resolution, so
    saturated responses remain valid sigmoid outputs.
    """
    out = sigmoid_in_place(np.array(tau, dtype=np.float64), mu, beta)
    if out.ndim == 0:
        return float(out)
    return out


def sigmoid_in_place(tau: np.ndarray, mu: float, beta: float) -> np.ndarray:
    """``sigmoid`` written over ``tau`` (a float64 array), which it returns.

    With z = mu (tau - beta) and e = exp(-|z|), the sigmoid is 1 / (1 + e)
    where z >= 0 and e / (1 + e) elsewhere, so no exp overflows.  ``tau``
    is taken in cache-sized contiguous chunks, in any memory layout; a
    non-contiguous ``tau`` is copied chunk by chunk and written back.
    Besides ``tau`` the call holds one chunk of 1 + e and one of the sign
    mask, reused from chunk to chunk, and each element goes through the
    same operations as in one whole-array pass.
    """
    denom = np.empty(_SIG_CHUNK)
    pos = np.empty(_SIG_CHUNK, dtype=bool)
    with np.nditer(tau, flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=["readwrite", "contig"], buffersize=_SIG_CHUNK) as chunks:
        for z in chunks:
            d, p = denom[: z.size], pos[: z.size]
            np.subtract(z, beta, out=z)
            np.multiply(z, mu, out=z)
            np.greater_equal(z, 0, out=p)
            np.abs(z, out=z)
            np.negative(z, out=z)
            np.exp(z, out=z)  # e
            np.add(z, 1.0, out=d)
            np.copyto(z, 1.0, where=p)  # the numerator
            np.divide(z, d, out=z)
            np.clip(z, _SIG_LO, _SIG_HI, out=z)
    return tau


def threshold_activity(activity: LiftedActivity, mu: float, beta: float) -> LiftedActivity:
    """Elementwise sigmoid of a raw energy field."""
    if activity.kind != "raw":
        raise ValueError(f"threshold_activity expects raw energy, got {activity.kind!r}")
    return activity.with_values(sigmoid(activity.values, mu, beta), "thresholded")


class GaborBank:
    """Truncated, zero-mean, contrast-normalized filters in separable form.

    Support is truncated at 3 sigma per axis.  Each filter starts as the
    conjugate plane wave under the Gaussian envelope and is then
    orthogonalized against the constant (so uniform luminance yields
    exactly zero) and against the counter-phase wave (so the energy
    response to a matched drifting sinusoid does not ripple with stimulus
    phase; at these small supports the counter-phase leak of the plain
    zero-mean Gabor is several percent).  Finally each filter is scaled so
    a matched unit-contrast sinusoid yields energy 1.

    The envelope and the drifting wave each factor into one profile per
    axis (x1, x2, t), so with u = wave * env every filter is a sum of three
    separable terms,

        w = scale * conj(u) - scale * ca * env - scale * cb * u.

    The bank keeps the factors: ``x1_factors[i, m]`` and ``x2_factors[i, m]``
    are the spatial profiles of term m at orientation i, ``t_factors[j, m]``
    its temporal profile at velocity j, and ``coefs[i, j, m]`` its
    coefficient (scale, -scale * ca, -scale * cb).  The wave's spatial
    profiles depend on theta only and its temporal profile on v only, and
    every sum that fixes ca, cb and scale is a product of three per-axis
    sums.  The bank depends on the fibers and |p| alone, not on the movie.
    """

    def __init__(self, grid: ManifoldGrid, p_modulus: float):
        if p_modulus >= math.pi:
            # at |p| = pi the wave of the theta = 0, v = 0 filter is real, so
            # it equals its counter-phase wave and the filter vanishes
            raise ValueError(f"|p| = {p_modulus} is not below the Nyquist limit pi")
        self.grid = grid
        self.p_modulus = float(p_modulus)
        self.sigma_x, self.sigma_t = scales_from_frequency(p_modulus, grid.v_m)
        self.rx = max(1, int(math.floor(3.0 * self.sigma_x)))
        self.rt = max(1, int(math.floor(3.0 * self.sigma_t)))
        ax = np.arange(-self.rx, self.rx + 1, dtype=float)
        at = np.arange(-self.rt, self.rt + 1, dtype=float)
        env_x = np.exp(-ax * ax / self.sigma_x**2)
        env_t = np.exp(-at * at / self.sigma_t**2)
        # the wave exp(i (p1 x1 + p2 x2 - nu t)), one factor per axis
        w1 = np.exp(1j * (p_modulus * np.cos(grid.thetas))[:, None] * ax)
        w2 = np.exp(1j * (p_modulus * np.sin(grid.thetas))[:, None] * ax)
        wt = np.exp(-1j * (p_modulus * grid.vs)[:, None] * at)

        def env_sum(k1, k2, kt):
            """Sum of k1(x1) k2(x2) kt(t) env over the support, per (theta, v)."""
            return ((k1 * env_x).sum(-1) * (k2 * env_x).sum(-1))[:, None] * (kt * env_t).sum(-1)

        a_sum = env_x.sum() ** 2 * env_t.sum()
        b_sum = env_sum(w1, w2, wt)
        e2_sum = env_sum(np.conj(w1) ** 2, np.conj(w2) ** 2, np.conj(wt) ** 2)
        # coefficients (a, b) of env and wave*env that zero both the
        # constant response and the counter-phase wave response
        mat = np.empty(b_sum.shape + (2, 2), dtype=np.complex128)
        mat[..., 0, 0] = mat[..., 1, 1] = a_sum
        mat[..., 0, 1] = b_sum
        mat[..., 1, 0] = np.conj(b_sum)
        rhs = np.stack([np.conj(b_sum), e2_sum], -1)[..., None]
        ca, cb = np.moveaxis(np.linalg.solve(mat, rhs)[..., 0], -1, 0)
        # the matched response is the sum of w * wave, and conj(wave) * wave = 1;
        # scaled so a unit-contrast matched sinusoid yields energy 1
        scale = 4.0 / np.abs(a_sum - ca * b_sum - cb * np.conj(e2_sum))
        u1, u2, ut = w1 * env_x, w2 * env_x, wt * env_t
        self.x1_factors = np.stack([np.conj(u1), np.broadcast_to(env_x, u1.shape), u1], 1)
        self.x2_factors = np.stack([np.conj(u2), np.broadcast_to(env_x, u2.shape), u2], 1)
        self.t_factors = np.stack([np.conj(ut), np.broadcast_to(env_t, ut.shape), ut], 1)
        self.coefs = scale[..., None] * np.stack([np.ones_like(ca), -ca, -cb], -1)


def _dense_filters(bank: GaborBank) -> np.ndarray:
    """The bank's filters as dense (theta, v, x1, x2, t) arrays, made from
    its separable factors.  Only the direct sum needs them: they grow as
    |p|^-3, about 100 MB for 16 x 9 fibers at |p| = 0.3."""
    return np.einsum("ijm,imx,imy,jmt->ijxyt", bank.coefs, bank.x1_factors,
                     bank.x2_factors, bank.t_factors)


def fft_period(n: int, reach: int) -> int:
    """Alias-free circular FFT period for an n-cell input under a filter
    that reaches ``reach`` cells either way.

    The linear result spreads over n + 2 reach cells, but only the n-cell
    window that starts ``reach`` cells in is kept.  With a period of
    n + reach, the terms that wrap around land in the first reach cells,
    ahead of the window, never in it; the period is at least 2 reach + 1,
    so the whole filter fits.  The length is rounded up to the next
    2/3/5-smooth integer, where numpy's FFT is fast.
    """
    n = max(2 * reach + 1, n + reach)
    best = 1 << (n - 1).bit_length()
    for k in range(n, best):
        m = k
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return k
    return best


def _kept_frames(n_t: int, frames) -> np.ndarray:
    """The frames a lift keeps of an n_t-frame movie (None keeps them all)."""
    if frames is None:
        return np.arange(n_t)
    frames = np.asarray(frames, dtype=int)
    if frames.ndim != 1 or frames.size == 0:
        raise ValueError("frames must list at least one frame (None keeps them all)")
    if frames.min() < 0 or frames.max() >= n_t:
        raise ValueError(f"frames {frames.tolist()} outside the stimulus's frames 0..{n_t - 1}")
    return frames


def energy_filter(stimulus: StimulusVolume, bank: GaborBank, frames=None) -> LiftedActivity:
    """Lift a stimulus: energy of the bank response at every node of the
    bank's grid, at the movie frames ``frames`` (None keeps every frame).

    The frames may be unsorted or repeated; the activity's ``s_frames``
    records them.  An empty ``frames`` or a frame outside the movie raises
    ``ValueError``.  Uses FFT correlation per fiber bin (equivalent to the
    direct node sums to floating-point roundoff; see
    ``energy_filter_direct``).  Filters overhanging the movie boundary see
    zero padding, so responses within 3 sigma of an edge are attenuated;
    tests should avoid those bands.  The circular periods per axis are
    ``fft_period`` of the input length and the filter reach.

    A filter's spectrum is a sum over its three separable terms of the
    outer product of the 1D spectra of its flipped factors.  The temporal
    factor depends on v only, so for each v and term the movie's spectrum
    times the factor's spectrum is inverted over t once, and only at the
    kept frames; the envelope term's temporal factor is the same at every
    v and is inverted once.  Each fiber then weights those three responses
    by its coefficients and its (x1, x2) spectra, sums them, and inverts
    over (x1, x2) at the kept frames alone.  The energies of one
    orientation are staged fiber-major and written to the output in one
    pass: written fiber by fiber, at a stride of n_theta * n_v values,
    they took about half the lift of a 51 x 51 x 102 movie on 12 x 9
    fibers.  The loop calls no BLAS routine: a threaded BLAS call leaves
    its worker threads spinning for a while after it returns, which took
    CPU from the facilitation that follows.

    Two shortcuts leave out work whose result is known:

    - The filter at (theta + pi, -v), index (i + n_theta/2, n_v - 1 - j),
      is the conjugate of the one at (theta, v), so their energies agree.
      Only v < 0 at every theta and v = 0 at theta < pi are lifted; each
      energy is copied to its partner, which is an exact copy.
    - A kept frame is blank-reach when every movie frame within the
      filter's temporal reach (rt frames either way) is all zeros.  Its
      energy is exactly 0, as the direct sum gives, and it is written as
      0.  The inverses run on the other kept frames only, and the input
      is cut to the frames those can see.
    """
    nx, ny, n_t = stimulus.dims
    frames = _kept_frames(n_t, frames)
    grid, rx, rt = bank.grid, bank.rx, bank.rt
    values = np.zeros((nx, ny, frames.size, grid.n_theta, grid.n_v))
    # live: the kept frames that are not blank-reach (see above)
    seen = np.concatenate(([0], np.cumsum(stimulus.data.any(axis=(0, 1)))))
    live = seen[np.minimum(frames + rt + 1, n_t)] > seen[np.maximum(frames - rt, 0)]
    if not live.any():
        return LiftedActivity(grid, values, "raw", frames)
    out = slice(None) if live.all() else live
    live_frames = frames[live]
    # restrict the input to frames that can influence the live slices
    f_lo = max(0, int(live_frames.min()) - rt)
    f_hi = min(n_t - 1, int(live_frames.max()) + rt)
    sub = stimulus.data[:, :, f_lo : f_hi + 1]
    px, py, pt = fft_period(nx, rx), fft_period(ny, rx), fft_period(sub.shape[2], rt)
    fhat = np.fft.fftn(sub, s=(px, py, pt), axes=(0, 1, 2)).reshape(px * py, pt)
    # correlation is convolution with the flipped filter, and the flip of a
    # separable term is the product of its flipped factors
    x1_hat = np.fft.fft(bank.x1_factors[..., ::-1], n=px)
    x2_hat = np.fft.fft(bank.x2_factors[..., ::-1], n=py)
    t_hat = np.fft.fft(bank.t_factors[..., ::-1], n=pt)
    kept = rt + live_frames - f_lo  # the live frames sit rt samples into the result

    def t_response(j, m):
        """Term m's temporal response at velocity j and the live frames."""
        return np.fft.ifft(fhat * t_hat[j, m], axis=1)[:, kept]

    env = t_response(0, 1)  # the envelope term's temporal factor is the same at every v
    n_th, n_v = grid.n_theta, grid.n_v
    c = n_v // 2  # the v = 0 bin
    half = n_th // 2  # (i, j) pairs with (i + half, n_v - 1 - j)
    temporal = [(t_response(j, 0), t_response(j, 2)) for j in range(c + 1)]

    def energy(i, j):
        """Fiber (i, j)'s energy at the live frames, axes (x1, x2, s)."""
        space = bank.coefs[i, j, :, None, None] * x1_hat[i, :, :, None] * x2_hat[i, :, None, :]
        space = space.reshape(3, px * py, 1)
        spectrum = space[0] * temporal[j][0]
        spectrum += space[1] * env
        spectrum += space[2] * temporal[j][1]
        lin = np.fft.ifft2(spectrum.reshape(px, py, live_frames.size), axes=(0, 1))
        return np.abs(lin[rx : rx + nx, rx : rx + ny]) ** 2

    # row holds orientation i's energies, fiber-major.  Its v > 0 half is
    # the lifted (i + half, v < 0) energies, and orientation i + half is row
    # in reverse v order.
    row = np.empty((n_v, nx, ny, live_frames.size))
    for i in range(half):
        for j in range(c + 1):
            row[j] = energy(i, j)
        for j in range(c):
            row[n_v - 1 - j] = energy(i + half, j)
        values[:, :, out, i] = row.transpose(1, 2, 3, 0)
        values[:, :, out, i + half] = row[::-1].transpose(1, 2, 3, 0)
    return LiftedActivity(grid, values, "raw", frames)


def energy_filter_direct(stimulus: StimulusVolume, bank: GaborBank,
                         frames=None) -> LiftedActivity:
    """Reference implementation: explicit truncated sums per node.

    Slow; used to validate the FFT path (agreement to 1e-10) on small inputs.
    """
    nx, ny, n_t = stimulus.dims
    frames = _kept_frames(n_t, frames)
    grid, rx, rt = bank.grid, bank.rx, bank.rt
    values = np.zeros((nx, ny, frames.size, grid.n_theta, grid.n_v))
    data, filters = stimulus.data, _dense_filters(bank)
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
                        acc = (filters[i, j][wsl] * patch).sum()
                        values[x0, y0, fi, i, j] = abs(acc) ** 2
    return LiftedActivity(grid, values, "raw", frames)
