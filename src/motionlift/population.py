"""Population activity: group-convolution facilitation and thresholding.

The facilitation pattern is the gather

    P(eta) = sum_zeta  K(rel(zeta, eta)) * F(zeta),

where rel is the relative element compose(left_inverse(zeta), eta) for the
5D trajectory kernel, or the contour-group quotient for the 4D kernel, and
K is looked up by multilinear interpolation (``kernel_lookup``).  Because
the fiber variables are shared bins between kernel and activity grids, the
orientation and velocity offsets always land exactly on kernel nodes; only
the rotated (and, in the 5D case, velocity-sheared) spatial offsets are
interpolated.

One FFT engine, ``FacilitationPlan``, serves both kernel ranks: the 4D
kernel is a single temporal offset ds = 0 without shear, the 5D kernel has
the offsets ds = 1..n_ds.  For each offset the stencils are sampled from
the kernel by exactly the lookup's interpolation rule, transformed in
batches, and mixed over the fibers by one batched matrix product per chunk
of Fourier bins.  An offset's stencil spectra are built and mixed in blocks
of consecutive input orientations, at least one and as many as fit in the
larger of ``_BLOCK_BYTES`` (32 MiB) and the output spectra the call holds
anyway, and each block is freed before the next is built, so one block's
spectra are held at a time.  Each FFT period only has to hold the output
window that is kept: a stencil reaching ``ext`` cells either way, shifted
by at most ``max_m`` whole cells, spreads an input of n cells over
n + 2 ext + 2 max_m cells, and with a period of n + ext + max_m the part
that wraps around lands before the kept window, never in it.  The result
matches the explicit gather (``facilitate_reference``) to 1e-10 and
is deterministic for fixed shapes.  Each public entry point builds the plan
it uses; nothing is cached between calls.  Kernels are sparsified by
zeroing entries below ``TRUNC_REL`` of the kernel max before either path
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import LiftedActivity, ManifoldGrid, _fast_len, sigmoid
from .kernels import KernelGrid, kernel_lookup

TRUNC_REL = 1e-6   # kernel entries below this fraction of max are dropped
_CHUNK_BYTES = 4 << 20  # working-set size of one stencil batch or mixing chunk
_BLOCK_BYTES = 8 * _CHUNK_BYTES  # least budget of stencil spectra held at once


@dataclass(frozen=True)
class FacilitationConfig:
    """Facilitation strength and sigmoid parameters for the activity model."""

    c_f: float
    mu: float
    beta: float

    def __post_init__(self):
        if self.c_f < 0:
            raise ValueError("the model is purely excitatory: c_f must be >= 0")


def truncated_kernel_values(kernel: KernelGrid) -> np.ndarray:
    """Kernel values with entries below TRUNC_REL * max zeroed (sparsified)."""
    vals = kernel.values
    if vals.size == 0:
        return vals.copy()
    cut = TRUNC_REL * float(vals.max())
    return np.where(vals >= cut, vals, 0.0)


def _check_compat(grid: ManifoldGrid, kernel: KernelGrid) -> None:
    lat = kernel.lattice
    i_th = lat.theta_axis
    if lat.shape[i_th] != grid.n_theta:
        raise ValueError(
            f"kernel has {lat.shape[i_th]} orientation bins, grid has {grid.n_theta}"
        )
    if abs(lat.spacing[i_th] - grid.d_theta) > 1e-12:
        raise ValueError("kernel and grid orientation spacings differ")
    i_v = lat.axes.index("v")
    if abs(lat.spacing[i_v] - grid.d_v) > 1e-12:
        raise ValueError("kernel and grid velocity spacings differ")
    if abs(lat.spacing[0] - 1.0) > 1e-12 or abs(lat.spacing[1] - 1.0) > 1e-12:
        raise ValueError("kernel spatial spacing must be one pixel")
    # the plan puts dtheta = 0 at bin 0 and the zero offset of q1, q2 and v
    # at the middle bin of a square stencil, where kernel_lookup finds them
    if abs(lat.origin[i_th]) > 1e-12:
        raise ValueError("kernel orientation axis must start at dtheta = 0")
    for a in (0, 1, i_v):
        n = lat.shape[a]
        if n % 2 == 0 or abs(lat.origin[a] / lat.spacing[a] + (n - 1) / 2) > 1e-9:
            raise ValueError(f"kernel {lat.axes[a]} axis must be centered on zero")
    if lat.shape[0] != lat.shape[1]:
        raise ValueError("kernel spatial axes must have the same length")
    if kernel.is_trajectory:
        i_s = lat.axes.index("s")
        # the plan's offsets are ds = 1..n_ds whole frames, sheared by v' ds
        if abs(lat.spacing[i_s] - 1.0) > 1e-12:
            raise ValueError("trajectory kernels need a ds spacing of 1")
        if abs(lat.origin[i_s] - 1.0) > 1e-12:
            raise ValueError("trajectory kernel ds axis must start at ds = 1")


def _bilinear_gather(plane_stack: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Sample a stack of 2D planes bilinearly at common (px, py) points.

    plane_stack has shape (n1, n2, m); px, py index the first two axes in
    cell units.  Points outside the planes contribute zero.  Returns
    (npts, m).
    """
    n1, n2 = plane_stack.shape[:2]
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0
    out = np.zeros((px.size, plane_stack.shape[2]))
    for dx_c, wx in ((0, 1.0 - fx), (1, fx)):
        for dy_c, wy in ((0, 1.0 - fy), (1, fy)):
            xi = x0 + dx_c
            yi = y0 + dy_c
            ok = (xi >= 0) & (xi < n1) & (yi >= 0) & (yi < n2)
            w = wx * wy
            if not ok.any():
                continue
            vals = plane_stack[np.clip(xi, 0, n1 - 1), np.clip(yi, 0, n2 - 1)]
            out += np.where(ok, w, 0.0)[:, None] * vals
    return out


class FacilitationPlan:
    """FFT gather through one kernel on one grid; ``apply`` runs it.

    Every temporal offset ds of the kernel carries the input frame at time t
    to the output frame at time t + ds, with times taken from the activity's
    ``s_frames``; the contour kernel is the single offset ds = 0.  For an
    input fiber (theta', v') the relative spatial coordinate is
    R(-theta') (dq - (v' ds, 0)).  The shear v' ds splits into an integer
    pixel part, applied as an exact FFT phase, and a fractional class phi.
    Stencil spectra are indexed by (theta' bin, phi class, dtheta, dv); a
    precomputed row index maps each (input fiber, output fiber) pair to its
    spectrum, or to a zero row when dv falls off the kernel.  Inside
    ``apply`` the spectra are built offset by offset, and within an offset
    for one block of consecutive input orientations theta' at a time: at
    least one, and as many as fit in the larger of ``_BLOCK_BYTES`` and the
    output spectra ``phat``.  A block is contracted and freed before the
    next one is built, so the spectra held at once take no more than that
    budget or one orientation's share, whichever is larger.

    The circular FFT periods are sized to the kept output window, not to the
    full linear convolution: nx + ext + max_m along x and ny + ext along y,
    with ext the stencil reach and max_m the largest integer shear.  Terms
    that wrap past the period land in the first ext + max_m cells, ahead of
    the window, so the window is alias-free.  Neither period is shorter than
    the stencil side 2 ext + 1, so grids smaller than the stencil keep all of
    it.
    """

    def __init__(self, kernel: KernelGrid, grid: ManifoldGrid):
        _check_compat(grid, kernel)
        vals = truncated_kernel_values(kernel)
        if kernel.is_trajectory:
            ds = list(range(1, vals.shape[2] + 1))
        else:
            vals = vals[:, :, None]
            ds = [0]
        self.grid = grid
        self.vals = vals  # (2h+1, 2h+1, n_offsets, n_theta, n_dv)
        self.ds = ds
        self.h = (vals.shape[0] - 1) // 2
        # rotation moves the support out to h*sqrt(2); the fractional shear
        # adds at most one cell
        self.ext = int(math.ceil(self.h * math.sqrt(2.0))) + 1
        side = 2 * self.ext + 1
        shear = grid.vs[:, None] * np.array(ds, dtype=float)  # (n_v, n_offsets)
        m_shift = np.floor(shear).astype(np.int64)
        self.max_m = int(np.abs(m_shift).max())
        self.pad1 = _fast_len(max(side, grid.nx + self.ext + self.max_m))
        self.pad2 = _fast_len(max(side, grid.ny + self.ext))

        nth, nv, n_dv = grid.n_theta, grid.n_v, vals.shape[4]
        i_p = np.arange(nth)[:, None, None, None]
        j_p = np.arange(nv)[None, :, None, None]
        dth = (np.arange(nth)[None, None, :, None] - i_p) % nth
        dv = np.arange(nv)[None, None, None, :] - j_p + n_dv // 2
        self.mixing = []  # per offset: phi classes, spectrum row index, shift
        for d in range(len(ds)):
            phis, cls = np.unique(np.round(shear[:, d] - m_shift[:, d], 12), return_inverse=True)
            n_rows = nth * len(phis) * nth * n_dv
            rows = ((i_p * len(phis) + cls[j_p]) * nth + dth) * n_dv + dv
            rows = np.where((dv >= 0) & (dv < n_dv), rows, n_rows).reshape(nth * nv, -1)
            # a circular shift by (max_m + m) aligns every shear to one output offset
            delta = np.tile(self.max_m + m_shift[:, d], nth)
            self.mixing.append((phis, rows, delta))

    def _spectra(self, d: int, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """k-major stencil spectra of offset d for the input orientations
        ``thetas``, plus a trailing zero row."""
        h, ext, pad1, pad2 = self.h, self.ext, self.pad1, self.pad2
        nk = pad1 * (pad2 // 2 + 1)
        side = 2 * ext + 1
        planes = self.vals[:, :, d].reshape(2 * h + 1, 2 * h + 1, -1)
        n_pl = planes.shape[2]
        out = np.zeros((nk, len(thetas) * len(phis) * n_pl + 1), dtype=np.complex128)
        offs = np.arange(-ext, ext + 1, dtype=float)
        batch = max(1, _CHUNK_BYTES // (16 * nk))
        col = 0
        for th in thetas:
            c, s = math.cos(-th), math.sin(-th)
            for phi in phis:
                gx, gy = np.meshgrid(offs - phi, offs, indexing="ij")
                px = c * gx.ravel() - s * gy.ravel() + h
                py = s * gx.ravel() + c * gy.ravel() + h
                stencils = _bilinear_gather(planes, px, py).T.reshape(n_pl, side, side)
                for p0 in range(0, n_pl, batch):
                    spec = np.fft.rfft2(stencils[p0 : p0 + batch], s=(pad1, pad2))
                    out[:, col : col + len(spec)] = spec.reshape(len(spec), nk).T
                    col += len(spec)
        return out

    def _mix(self, d: int, fhat: np.ndarray, ins: np.ndarray, phat: np.ndarray,
             outs: np.ndarray) -> None:
        """phat[:, outs] += fhat[:, ins] mixed through offset d, block of input
        orientations by block, k-chunk by k-chunk."""
        phis, rows, delta = self.mixing[d]
        nth, nv = self.grid.n_theta, self.grid.n_v
        nk, nf = len(phat), rows.shape[1]
        blk = len(phis) * nth * self.vals.shape[4]  # spectra per input orientation
        # each block costs one read-modify-write pass over phat, so a block may
        # take as many bytes as phat: with 32 MiB blocks alone, a paper-scale
        # 5D call (102 frames, 12 one-orientation blocks per offset) ran 3.7x
        # slower on 2 cores
        per = max(1, max(_BLOCK_BYTES, phat.nbytes) // (16 * nk * blk))
        kx = np.repeat(np.fft.fftfreq(self.pad1), self.pad2 // 2 + 1)[:, None]
        for t0 in range(0, nth, per):
            t1 = min(t0 + per, nth)
            f_in = slice(t0 * nv, t1 * nv)
            spectra = self._spectra(d, phis, self.grid.thetas[t0:t1])
            # rows of other blocks never occur here; the zero row moves to the block's end
            block_rows = np.minimum(rows[f_in] - t0 * blk, (t1 - t0) * blk)
            chunk = max(1, _CHUNK_BYTES // (16 * (t1 - t0) * nv * nf))
            for k0 in range(0, nk, chunk):
                k1 = k0 + chunk
                phase = np.exp(-2j * np.pi * kx[k0:k1] * delta[f_in])  # (kc, f_in)
                mix = np.take(spectra[k0:k1], block_rows, axis=1)  # (kc, f_in, f_out)
                phat[k0:k1, outs] += np.matmul(fhat[k0:k1, ins, f_in] * phase[:, None], mix)
            del spectra, mix

    def apply(self, activity: LiftedActivity) -> np.ndarray:
        """Facilitation values of ``activity``, shaped like its values.

        Input frame i reaches output frame o through the offset
        ds = s_frames[o] - s_frames[i], so frame times must be distinct.
        Accumulation order is fixed (offsets, orientation blocks and k-chunks
        ascending), so the result is deterministic for fixed shapes.
        """
        values = activity.values
        nx, ny, ns, nth, nv = values.shape
        times = activity.s_frames.tolist()
        frame_at = {t: o for o, t in enumerate(times)}
        if len(frame_at) != ns:
            raise ValueError("activity frame times (s_frames) must be distinct")
        out = np.zeros_like(values)
        live = np.nonzero(np.abs(values).sum(axis=(0, 1, 3, 4)) > 0)[0].tolist()
        routes = []  # (offset, positions in live, output frames)
        for d, ds in enumerate(self.ds):
            pairs = [(i, frame_at[times[si] + ds]) for i, si in enumerate(live)
                     if times[si] + ds in frame_at]
            if pairs:
                routes.append((d, *np.array(pairs).T))
        if not routes:
            return out
        nf = nth * nv
        pad1, pad2 = self.pad1, self.pad2
        nk2 = pad2 // 2 + 1
        nk = pad1 * nk2
        fhat = np.empty((nk, len(live), nf), dtype=np.complex128)
        for i, si in enumerate(live):
            spec = np.fft.rfft2(values[:, :, si], s=(pad1, pad2), axes=(0, 1))
            fhat[:, i] = spec.reshape(nk, nf)
        del spec
        phat = np.zeros((nk, ns, nf), dtype=np.complex128)
        for d, ins, outs in routes:
            self._mix(d, fhat, ins, phat, outs)
        off = self.ext + self.max_m  # common output offset along x after alignment
        for so in np.unique(np.concatenate([outs for _, _, outs in routes])):
            conv = np.fft.irfft2(phat[:, so].reshape(pad1, nk2, nth, nv), s=(pad1, pad2),
                                 axes=(0, 1))
            out[:, :, so] = conv[off : off + nx, self.ext : self.ext + ny]
        return out


def facilitate(activity: LiftedActivity, kernel: KernelGrid) -> LiftedActivity:
    """Facilitation pattern P = kernel-weighted gather of the activity.

    4D kernels couple fibers within each time slice through the contour
    group; 5D kernels reach strictly forward in time through the trajectory
    law, including the velocity shear of the left-inverse relative
    coordinate.  Matches ``facilitate_reference`` to 1e-10 with fixed
    accumulation order.
    """
    plan = FacilitationPlan(kernel, activity.grid)
    return activity.with_values(plan.apply(activity), "facilitation")


def facilitate_reference(activity: LiftedActivity, kernel: KernelGrid) -> LiftedActivity:
    """Explicit gather through compose/left_inverse and kernel_lookup.

    The semantic reference for ``facilitate``; quadratic cost, use on small
    grids only.
    """
    grid = activity.grid
    _check_compat(grid, kernel)
    trunc = KernelGrid(
        axes=kernel.axes, origin=kernel.origin, spacing=kernel.spacing,
        values=truncated_kernel_values(kernel), spec=kernel.spec,
        raw_weight=kernel.raw_weight,
    )
    nx, ny, ns, nth, nv = activity.values.shape
    out = np.zeros_like(activity.values)
    # the relative element depends on (x - x', y - y') only: each difference
    # is looked up once and spread to its (x, x', y, y') pairs
    dxm = np.arange(1 - nx, nx, dtype=float)[:, None]  # x - x'
    dym = np.arange(1 - ny, ny, dtype=float)[None, :]  # y - y'
    pair_x = (np.arange(nx)[:, None] - np.arange(nx) + nx - 1)[:, :, None, None]
    pair_y = (np.arange(ny)[:, None] - np.arange(ny) + ny - 1)[None, None]
    thetas = grid.thetas
    vs = grid.vs
    if trunc.is_trajectory:
        # kernel_lookup is exactly zero at and beyond one spacing off the ds axis
        lat = trunc.lattice
        i_s = lat.axes.index("s")
        ds_lo = lat.origin[i_s] - lat.spacing[i_s]
        ds_hi = lat.origin[i_s] + lat.shape[i_s] * lat.spacing[i_s]
    # fiber offsets of every output fiber, one lookup batch per input fiber
    fiber = (slice(None), slice(None), None, None)
    for i_p in range(nth):
        c, s = math.cos(-thetas[i_p]), math.sin(-thetas[i_p])
        dth = ((thetas - thetas[i_p]) % (2.0 * math.pi))[:, None]
        for j_p in range(nv):
            dv = (vs - vs[j_p])[None, :]
            for sp in range(ns):
                f_slice = activity.values[:, :, sp, i_p, j_p]
                if not f_slice.any():
                    continue
                for so in range(ns):
                    if trunc.is_trajectory:
                        ds = float(activity.s_frames[so] - activity.s_frames[sp])
                        if not ds_lo < ds < ds_hi:
                            continue
                        shear = vs[j_p] * ds
                    else:
                        if so != sp:
                            continue
                        shear = 0.0
                    ax = dxm - shear
                    rel1 = c * ax - s * dym
                    rel2 = s * ax + c * dym
                    pts = np.empty((nth, nv) + rel1.shape + (len(trunc.axes),))
                    pts[..., 0] = rel1
                    pts[..., 1] = rel2
                    if trunc.is_trajectory:
                        pts[..., 2] = ds
                        pts[..., 3] = dth[fiber]
                        pts[..., 4] = dv[fiber]
                    else:
                        pts[..., 2] = dth[fiber]
                        pts[..., 3] = dv[fiber]
                    w = kernel_lookup(trunc, pts.reshape(-1, pts.shape[-1]))
                    w = w.reshape(pts.shape[:-1])[:, :, pair_x, pair_y]
                    out[:, :, so] += np.einsum("ijxayb,ab->xyij", w, f_slice)
    return activity.with_values(out, "facilitation")


def activity_steady(
    raw: LiftedActivity, facil: LiftedActivity, cfg: FacilitationConfig
) -> LiftedActivity:
    """First-order steady activity S(F + c_f P)."""
    if raw.kind != "raw":
        raise ValueError("activity_steady expects the raw energy as first input")
    if facil.kind != "facilitation":
        raise ValueError("activity_steady expects a facilitation field as second input")
    if raw.values.shape != facil.values.shape:
        raise ValueError("raw and facilitation grids do not match")
    vals = sigmoid(raw.values + cfg.c_f * facil.values, cfg.mu, cfg.beta)
    return raw.with_values(vals, "total")


def facilitation_difference(
    full: LiftedActivity, first: LiftedActivity, second: LiftedActivity
) -> LiftedActivity:
    """Nonlinearity probe: response to the whole minus the sum of the parts."""
    for act in (full, first, second):
        if act.kind != "total":
            raise ValueError("facilitation_difference expects steady (total) activities")
    if not (full.values.shape == first.values.shape == second.values.shape):
        raise ValueError("activity grids do not match")
    vals = full.values - first.values - second.values
    return LiftedActivity(full.grid, vals, "facilitation", full.s_frames.copy())
