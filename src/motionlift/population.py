"""Population activity: group-convolution facilitation and thresholding.

The facilitation pattern is the gather

    P(eta) = sum_zeta  K(rel(zeta, eta)) * F(zeta)

over the input nodes zeta = (q', s', theta', v') and the output nodes
eta = (q, s, theta, v).  With dq = q - q' and ds = s - s', the relative
element rel has the spatial part

    R(-theta') (dq - (v' ds, 0))

and the fiber parts ds, theta - theta' (mod 2 pi) and v - v'.  The 4D
contour kernel couples the nodes of one frame, so ds = 0, there is no
shear and rel has no ds entry.  The 5D trajectory kernel subtracts the
shear v' ds along world x, before the rotation, so this is not yet the
Galilean relative element R(-theta') dq - (v' ds, 0) (ROADMAP.md, item 1).
K is looked up by multilinear interpolation (``kernel_lookup``).  Because
the fiber variables are shared bins between kernel and activity grids, the
orientation and velocity offsets always land exactly on kernel nodes; only
the rotated (and, in the 5D case, velocity-sheared) spatial offsets are
interpolated.

One FFT engine, ``FacilitationPlan``, serves both kernel ranks: the 4D
kernel is a single temporal offset ds = 0 without shear, the 5D kernel has
the offsets ds = 1..n_ds.  For each offset the stencils are sampled from
the kernel by exactly the lookup's interpolation rule (through bilinear
corner tables built once per plan), transformed in batches, and mixed over
the fibers by one batched matrix product per chunk of Fourier bins.  Only
the (dtheta, dv) planes of an offset that hold a nonzero value after
truncation are sampled and transformed; the others map to a zero
spectrum.  Only the input orientations theta' < pi are sampled and
transformed (every grid has an even n_theta): turning a stencil by pi
reflects it through the origin, so the spectrum at theta' + pi is a phase
times the conjugate of one built at theta' (the half turn of Cohen &
Welling's group acting on filters by index permutation), and the
contraction applies it without building it.  An offset's stencil
spectra are built and mixed in blocks of consecutive built orientations,
at least one and as many as fit in the larger of ``_BLOCK_BYTES``
(32 MiB) and the output spectra the call holds anyway, and each block is
freed before the next is built, so one block's spectra are held at a
time.  Each FFT period only holds the output window that is kept, by
the alias-free rule of ``gabor.fft_period``.  The result matches the
explicit gather (``facilitate_reference``) to 1e-10 and
is deterministic for fixed shapes.  The frame FFTs, the stencil spectra and
the contraction are dealt over ``n_threads`` workers (by frame, by
(theta', phi) unit and by chunk of Fourier bins), each worker taking the
next item no one has taken, within its share of the ``_CHUNK_BYTES``
working set, and the output is bit-identical for every worker count.  One
``workers.Workers`` context per call starts the n_threads - 1 threads once
for all of these phases and holds numpy's OpenBLAS at one thread
meanwhile.  Each public entry point builds the plan it uses; nothing is
cached between calls.  Kernels are sparsified by zeroing entries below
``TRUNC_REL`` of the kernel max before either path runs.

Both gathers rely on the kernel layout that ``KernelGrid`` checks when a
kernel is built, and check only that the kernel fits the activity's grid
(``_check_compat``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .gabor import LiftedActivity, ManifoldGrid, fft_period, sigmoid_in_place
from .kernels import KernelGrid, kernel_lookup
from .workers import Workers

TRUNC_REL = 1e-6   # kernel entries below this fraction of max are dropped
_CHUNK_BYTES = 4 << 20  # working set of one FFT batch or contraction chunk, split over workers
_BLOCK_BYTES = 8 * _CHUNK_BYTES  # least budget of stencil spectra held at once


def truncated_kernel_values(kernel: KernelGrid) -> np.ndarray:
    """Kernel values with entries below TRUNC_REL * max zeroed (sparsified)."""
    vals = kernel.values
    cut = TRUNC_REL * float(vals.max())
    return np.where(vals >= cut, vals, 0.0)


def _check_compat(grid: ManifoldGrid, kernel: KernelGrid) -> None:
    """Raise unless the kernel fits the grid: as many orientations and the
    same velocity spacing.  ``KernelGrid`` checked the rest of its layout."""
    n_th = kernel.values.shape[kernel.axes.index("theta")]
    if n_th != grid.n_theta:
        raise ValueError(f"kernel has {n_th} orientation bins, grid has {grid.n_theta}")
    if abs(kernel.spacing[kernel.axes.index("v")] - grid.d_v) > 1e-12:
        raise ValueError("kernel and grid velocity spacings differ")


def _corner_table(theta: float, phi: float, h: int, ext: int) -> list:
    """The bilinear lookup of the stencil of one (theta', phi) unit, as
    (flat index, weight) per corner that reaches the kernel's planes.

    Stencil sample (a, b), |a|, |b| <= ext, looks up the kernel at
    R(-theta') (a - phi, b) on its (2h + 1)^2 spatial grid.  The flat
    (q1, q2) index of each corner is clipped onto the grid and its weight
    is zero off it, so a unit's samples of a stack of planes are the sum of
    the corners' takes times their weights."""
    n_q = 2 * h + 1
    offs = np.arange(-ext, ext + 1, dtype=float)
    gx, gy = np.meshgrid(offs - phi, offs, indexing="ij")
    c, s = math.cos(-theta), math.sin(-theta)
    px = c * gx.ravel() - s * gy.ravel() + h
    py = s * gx.ravel() + c * gy.ravel() + h
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0
    table = []
    for dx_c, wx in ((0, 1.0 - fx), (1, fx)):
        for dy_c, wy in ((0, 1.0 - fy), (1, fy)):
            xi = x0 + dx_c
            yi = y0 + dy_c
            ok = (xi >= 0) & (xi < n_q) & (yi >= 0) & (yi < n_q)
            if ok.any():
                flat = np.clip(xi, 0, n_q - 1) * n_q + np.clip(yi, 0, n_q - 1)
                table.append((flat, np.where(ok, wx * wy, 0.0)))
    return table


class FacilitationPlan:
    """FFT gather through one kernel on one fiber grid, for activities of
    ``dims`` = (nx, ny) pixels; ``apply`` runs it.

    Every temporal offset ds of the kernel carries the input frame at time t
    to the output frame at time t + ds, with times taken from the activity's
    ``s_frames``; the contour kernel is the single offset ds = 0.  For an
    input fiber (theta', v') the relative spatial coordinate is
    R(-theta') (dq - (v' ds, 0)).  The shear v' ds splits into an integer
    pixel part, applied as an exact FFT phase, and a fractional class phi.
    Stencil spectra are indexed by (built theta' bin, phi class, plane),
    where the planes of an offset are its (dtheta, dv) planes that hold a
    nonzero value after ``TRUNC_REL`` (``planes``); a precomputed row index
    maps each (input fiber, output fiber) pair to its spectrum, or to a
    zero row when dv falls off the kernel or the plane is all zero.  An
    offset with no such plane is skipped.  Stencils are sampled through
    ``corners``, the four bilinear corner tables (clipped flat index and
    weight, zero off the kernel) of every built (theta', phi) unit, which
    the plan builds once in the calling thread and every offset shares, so
    sampling a batch of planes is four take-multiply-adds.

    The built orientations are those below pi.  Turning by pi maps the
    stencil sample at offset (a, b) of (theta' + pi, phi) to the one at
    (s - a, -b) of (theta', phi*), where phi* = (1 - phi) mod 1 is the
    class of -v (the velocity bins are symmetric about 0) and s = 0 for
    phi = 0, else 1.  In the FFT period that reads
    S_{theta'+pi, phi}(k) = exp(-2 pi i (k1 (2 ext + s) / pad1
    + k2 2 ext / pad2)) conj(S_{theta', phi*}(k)), so an input fiber at
    theta' >= pi has its row index at the source unit (theta' - pi, phi*)
    with the same dtheta and dv, and its x shift grows by 2 ext + s; the
    contraction adds the y shift and the conjugation.  It holds exactly
    because the stencil window of ext cells either side holds every nonzero
    lookup, both as built and as reflected.

    Inside ``apply`` the spectra are built offset by offset, and within an
    offset for one block of consecutive built orientations theta' at a
    time: at least one, and as many as fit in the larger of
    ``_BLOCK_BYTES`` and the output spectra ``phat``, which hold only the
    output frames some offset reaches from a live input frame (a part of a
    movie reaches only part of it).  A block serves its
    own input fibers and their half turns, and is contracted and freed
    before the next one is built, so the spectra held at once take no more
    than that budget or one orientation's share, whichever is larger.

    The circular FFT periods are ``gabor.fft_period`` of the kept output
    window, with ext the stencil reach and max_m the largest integer shear:
    fft_period(nx + max_m, ext) along x, where aligning the integer shears
    moves the kept window max_m cells further in, and fft_period(ny, ext)
    along y.

    ``apply(activity, n_threads)`` deals its work over the n_threads
    workers of one ``workers.Workers`` context: the calling thread is
    worker 0, and n_threads - 1 threads started once per call serve every
    phase and end with the call.  While they run, numpy's OpenBLAS is held
    at one thread, so that the contraction's matrix products do not start
    BLAS threads that compete with the workers.  The phases run in turn:
    the per-frame forward FFTs, then for every block the (theta', phi)
    units of its stencil spectra (each unit fills its own columns) and the
    k-chunks of the contraction (each owning disjoint rows of ``phat``),
    then the per-frame inverse FFTs.  Within a phase each worker takes the
    next item no one has taken, so a worker held up by the machine takes
    fewer.  Each worker's FFT batch and k-chunk take its 1/n share of
    ``_CHUNK_BYTES``, and the calling thread allocates every worker's
    sampling, FFT and contraction buffers, so the other threads allocate
    nothing large and n workers hold about as much as one.  Every spectrum
    column and every k row is computed by the same operations in the same
    order whichever worker takes it and whatever n is, so the output is
    bit-identical for every worker count.  The output array is allocated,
    and the input spectra freed, only once the contraction is done.
    """

    def __init__(self, kernel: KernelGrid, grid: ManifoldGrid, dims: tuple[int, int]):
        _check_compat(grid, kernel)
        vals = truncated_kernel_values(kernel)
        if kernel.is_trajectory:
            ds = list(range(1, vals.shape[2] + 1))
        else:
            vals = vals[:, :, None]
            ds = [0]
        self.grid = grid
        self.dims = tuple(dims)
        self.ds = ds
        h = (vals.shape[0] - 1) // 2
        nth, nv, n_dv = grid.n_theta, grid.n_v, vals.shape[4]
        # per offset, its (dtheta, dv) planes (plane p = dtheta n_dv + dv) that
        # hold a nonzero value, as rows of flattened (q1, q2) values; the rows
        # of the other planes point at the zero row
        per_offset = vals.reshape((2 * h + 1) ** 2, len(ds), nth * n_dv)
        self.planes = []
        for d in range(len(ds)):
            live = np.flatnonzero(per_offset[:, d].any(axis=0))
            self.planes.append((live, np.ascontiguousarray(per_offset[:, d, live].T)))
        # the bilinear lookup is nonzero only inside the rotated square
        # |x|, |y| < h + 1, whose corners reach (h + 1) sqrt(2): a window of
        # ext cells either side holds all of it for every fractional class,
        # both as built and as mirrored
        self.ext = int(math.ceil((h + 1) * math.sqrt(2.0)))
        shear = grid.vs[:, None] * np.array(ds, dtype=float)  # (n_v, n_offsets)
        m_shift = np.floor(shear).astype(np.int64)
        self.max_m = int(np.abs(m_shift).max())
        self.pad1 = fft_period(dims[0] + self.max_m, self.ext)
        self.pad2 = fft_period(dims[1], self.ext)

        # only theta' < pi is built, and theta' + pi is its half turn
        self.n_built = nth // 2
        i_p = np.arange(nth)[:, None, None, None]
        j_p = np.arange(nv)[None, :, None, None]
        mirrored = i_p >= self.n_built
        dth = (np.arange(nth)[None, None, :, None] - i_p) % nth
        dv = np.arange(nv)[None, None, None, :] - j_p + n_dv // 2
        on_kernel = (dv >= 0) & (dv < n_dv)
        plane = dth * n_dv + np.clip(dv, 0, n_dv - 1)
        self.mixing = []  # per offset: phi classes, spectrum row index, x shift
        for d in range(len(ds)):
            phis, cls = np.unique(np.round(shear[:, d] - m_shift[:, d], 12), return_inverse=True)
            # the partner of v's class phi is the class of -v, (1 - phi) mod 1,
            # and phi + partner is the cell s the mirrored window moves by
            partner = cls[::-1]
            s = np.rint(phis[cls] + phis[partner]).astype(np.int64)
            live = self.planes[d][0]
            column = np.full(nth * n_dv, -1)  # a plane's spectrum within its unit
            column[live] = np.arange(len(live))
            n_rows = self.n_built * len(phis) * len(live)
            unit = (i_p % self.n_built) * len(phis) + np.where(mirrored, partner[j_p], cls[j_p])
            rows = unit * len(live) + column[plane]
            rows = np.where(on_kernel & (column[plane] >= 0), rows, n_rows).reshape(nth * nv, -1)
            # a circular shift by (max_m + m) aligns every shear to one output
            # offset; a mirrored stencil also starts 2 ext + s cells further in
            turn = np.where(mirrored[:, :, 0, 0], 2 * self.ext + s, 0)
            delta = self.max_m + m_shift[:, d] + turn
            self.mixing.append((phis, rows, delta.ravel()))

        # the bilinear corners of every built (theta', phi) unit, shared by
        # the offsets
        self.corners = {
            (t, phi): _corner_table(grid.thetas[t], phi, h, self.ext)
            for phi in np.unique(np.concatenate([phis for phis, _, _ in self.mixing]))
            for t in range(self.n_built)
        }

    def _spectra(self, d: int, t0: int, t1: int, workers: Workers) -> np.ndarray:
        """k-major stencil spectra of offset d for the built input
        orientations t0 <= t' < t1, plus a trailing zero row: one column per
        (theta', phi) unit and nonzero plane of the offset.  ``_mix`` asks
        only for built orientations, so never for theta' >= pi.

        The units are dealt over the workers; unit u fills columns
        [u n_pl, (u + 1) n_pl), and its worker samples its planes through
        the unit's corner tables and transforms them in batches of its share
        of ``_CHUNK_BYTES``."""
        ext, pad1, pad2 = self.ext, self.pad1, self.pad2
        nk = pad1 * (pad2 // 2 + 1)
        side = 2 * ext + 1
        planes = self.planes[d][1]
        n_pl = len(planes)
        phis = self.mixing[d][0]
        units = [self.corners[t, phi] for t in range(t0, t1) for phi in phis]
        out = np.zeros((nk, len(units) * n_pl + 1), dtype=np.complex128)
        n = min(workers.n, len(units))
        batch = min(n_pl, max(1, _CHUNK_BYTES // n // (16 * nk)))
        # sampling and rfft2 as its two passes, into every worker's buffers,
        # which are allocated here in the calling thread
        bufs = [(np.empty((batch, side * side)), np.empty((batch, side * side)),
                 np.empty((batch, side, pad2 // 2 + 1), np.complex128),
                 np.empty((batch, pad1, pad2 // 2 + 1), np.complex128)) for _ in range(n)]

        def build(w, u):
            stencils, term, half, spec = bufs[w]
            (first, weight), *others = units[u]
            for p0 in range(0, n_pl, batch):
                b = min(batch, n_pl - p0)
                np.take(planes[p0 : p0 + b], first, axis=1, out=stencils[:b])
                stencils[:b] *= weight
                for flat, weight_c in others:
                    np.take(planes[p0 : p0 + b], flat, axis=1, out=term[:b])
                    term[:b] *= weight_c
                    stencils[:b] += term[:b]
                np.fft.rfft(stencils[:b].reshape(b, side, side), n=pad2, axis=2, out=half[:b])
                np.fft.fft(half[:b], n=pad1, axis=1, out=spec[:b])
                col = u * n_pl + p0
                out[:, col : col + b] = spec[:b].reshape(b, nk).T

        workers.run(len(units), build)
        return out

    def _mix(self, d: int, fhat: np.ndarray, ins: np.ndarray, phat: np.ndarray,
             outs: np.ndarray, workers: Workers) -> None:
        """phat[:, outs] += fhat[:, ins] mixed through offset d, block of built
        input orientations by block; within a block the k-chunks are dealt
        over the workers, each owning disjoint rows of phat.

        A block of built orientations T serves the input fibers at T and,
        as their mirrored half, those at T + pi.  A mirrored fiber's
        stencil spectrum is
        exp(-2 pi i (k1 (2 ext + s) / pad1 + k2 2 ext / pad2)) times the
        conjugate of its source unit's (see ``__init__``): the x shift is
        part of its ``delta``, the y shift is added to its phase, and no
        mirrored spectrum is built.  The conjugate is taken on the mirrored inputs and
        products: the mirrored half enters phat as
        conj(conj(phase f) @ spectra), one matmul after the direct one."""
        phis, rows, delta = self.mixing[d]
        nv, nb = self.grid.n_v, self.n_built
        nk, nf = len(phat), rows.shape[1]
        blk = len(phis) * len(self.planes[d][0])  # spectra per built orientation
        # each block costs one read-modify-write pass over phat, so a block may
        # take as many bytes as phat: with 32 MiB blocks alone, a paper-scale
        # 5D call (102 frames, 12 one-orientation blocks per offset) ran 3.7x
        # slower on 2 cores
        per = max(1, max(_BLOCK_BYTES, phat.nbytes) // (16 * nk * blk))
        nk2 = self.pad2 // 2 + 1
        kphase = -2j * np.pi * np.repeat(np.fft.fftfreq(self.pad1), nk2)[:, None]
        yphase = -4j * np.pi * self.ext * np.tile(np.arange(nk2) / self.pad2, self.pad1)[:, None]
        # input fibers as (half turn, built orientation and velocity)
        fib = fhat.reshape(nk, fhat.shape[1], 2, nb * nv)
        rows = rows.reshape(2, nb * nv, nf)
        delta = delta.reshape(2, nb * nv)
        runs = _runs(outs)
        for t0 in range(0, nb, per):
            t1 = min(t0 + per, nb)
            built = slice(t0 * nv, t1 * nv)
            m0 = (t1 - t0) * nv  # the block's mirrored fibers follow its built ones
            n_in = 2 * m0
            spectra = self._spectra(d, t0, t1, workers)
            # rows of other blocks never occur here; the zero row moves to the block's end
            block_rows = np.minimum(rows[:, built] - t0 * blk, (t1 - t0) * blk).reshape(n_in, nf)
            block_delta = delta[:, built].ravel()
            # one row of every buffer: phase, input, mixing block, product
            row = 16 * (n_in + len(ins) * n_in + n_in * nf + len(ins) * nf)
            chunk = max(1, _CHUNK_BYTES // workers.n // row)
            n_chunks = -(-nk // chunk)
            n = min(workers.n, n_chunks)
            # every worker's buffers are allocated here, in the calling thread,
            # so that the other workers allocate nothing large
            bufs = [(np.empty((chunk, n_in), np.complex128),
                     np.empty((chunk, len(ins), n_in), np.complex128),
                     np.empty((chunk, n_in, nf), np.complex128),
                     np.empty((chunk, len(ins), nf), np.complex128)) for _ in range(n)]

            def contract(w, c):
                phase, f, mix, prod = bufs[w]
                k0 = c * chunk
                k1 = min(k0 + chunk, nk)
                kc = k1 - k0
                np.multiply(kphase[k0:k1], block_delta, out=phase[:kc])
                phase[:kc, m0:] += yphase[k0:k1]
                np.exp(phase[:kc], out=phase[:kc])  # (kc, n_in)
                np.take(fib[k0:k1, :, :, built], ins, axis=1, mode="clip",
                        out=f[:kc].reshape(kc, len(ins), 2, m0))
                np.multiply(f[:kc], phase[:kc, None], out=f[:kc])
                np.take(spectra[k0:k1], block_rows, axis=1, out=mix[:kc], mode="clip")
                for h in range(2):
                    cols = slice(h * m0, (h + 1) * m0)
                    if h:
                        np.conjugate(f[:kc, :, cols], out=f[:kc, :, cols])
                    np.matmul(f[:kc, :, cols], mix[:kc, cols], out=prod[:kc])
                    if h:
                        np.conjugate(prod[:kc], out=prod[:kc])
                    for j0, j1, o0 in runs:
                        phat[k0:k1, o0 : o0 + j1 - j0] += prod[:kc, j0:j1]

            workers.run(n_chunks, contract)
            del spectra, bufs

    def apply(self, activity: LiftedActivity, n_threads: int = 1) -> np.ndarray:
        """Facilitation values of ``activity``, shaped like its values.

        Input frame i reaches output frame o through the offset
        ds = s_frames[o] - s_frames[i], so frame times must be distinct.
        Frames whose times differ by more than the kernel's n_ds never
        interact, so runs of frames laid more than n_ds apart are gathered
        in one call as if each were alone, with one spectra build for all.
        Only frames that hold nothing but zeros are skipped; a NaN makes its
        frame live, so it reaches the output.  Accumulation order is fixed
        (offsets and orientation blocks ascending, and each k-chunk owns its
        rows of the output spectra), so the result is deterministic for
        fixed shapes.  The work is dealt over ``n_threads`` workers (the
        caller and n_threads - 1 threads started once for the call) and the
        result is bit-identical for every count.
        """
        workers = Workers(n_threads)  # rejects n_threads < 1, even with no route
        values = activity.values
        if values.shape[:2] != self.dims or activity.grid != self.grid:
            raise ValueError(f"plan is for {self.dims} pixels on {self.grid}, activity has "
                             f"{values.shape[:2]} pixels on {activity.grid}")
        nx, ny, ns, nth, nv = values.shape
        times = activity.s_frames.tolist()
        frame_at = {t: o for o, t in enumerate(times)}
        if len(frame_at) != ns:
            raise ValueError("activity frame times (s_frames) must be distinct")
        live = np.nonzero(values.any(axis=(0, 1, 3, 4)))[0].tolist()
        routes = []  # (offset, positions in live, output frames)
        for d, ds in enumerate(self.ds):
            pairs = [(i, frame_at[times[si] + ds]) for i, si in enumerate(live)
                     if times[si] + ds in frame_at]
            if pairs and len(self.planes[d][0]):  # an offset without planes adds nothing
                routes.append((d, *np.array(pairs).T))
        if not routes:
            return np.zeros_like(values)
        nf = nth * nv
        pad1, pad2 = self.pad1, self.pad2
        nk2 = pad2 // 2 + 1
        nk = pad1 * nk2
        with workers:
            fhat = np.empty((nk, len(live), nf), dtype=np.complex128)
            n = min(n_threads, len(live))
            # rfft2 as its two passes: each worker's first pass goes to a buffer
            # allocated here, the second straight into its frame's fhat columns
            halves = [np.empty((nx, nk2, nth, nv), np.complex128) for _ in range(n)]

            def forward(w, i):
                np.fft.rfft(values[:, :, live[i]], n=pad2, axis=1, out=halves[w])
                np.fft.fft(halves[w], n=pad1, axis=0, out=fhat[:, i].reshape(pad1, nk2, nth, nv))

            workers.run(len(live), forward)
            # output spectra only for the frames some route reaches, in frame order
            frames = sorted({o for _, _, outs in routes for o in outs.tolist()})
            slot = {o: j for j, o in enumerate(frames)}
            phat = np.zeros((nk, len(frames), nf), dtype=np.complex128)
            for d, ins, outs in routes:
                self._mix(d, fhat, ins, phat, np.array([slot[o] for o in outs.tolist()]), workers)
            # the output is only needed from here on, and the input spectra no more
            del fhat, halves
            out = np.zeros_like(values)
            off = self.ext + self.max_m  # common output offset along x after alignment
            m = min(n_threads, len(frames))
            # irfft2 as its two passes, the second only over the kept rows
            bufs = [(np.empty((pad1, nk2, nth, nv), np.complex128),
                     np.empty((nx, pad2, nth, nv))) for _ in range(m)]

            def inverse(w, j):
                spec, conv = bufs[w]
                np.fft.ifft(phat[:, j].reshape(pad1, nk2, nth, nv), n=pad1, axis=0, out=spec)
                np.fft.irfft(spec[off : off + nx], n=pad2, axis=1, out=conv)
                out[:, :, frames[j]] = conv[:, self.ext : self.ext + ny]

            workers.run(len(frames), inverse)
        return out


def _runs(idx: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, first value) of each run of consecutive integers in idx."""
    breaks = (np.nonzero(np.diff(idx) != 1)[0] + 1).tolist()
    starts, stops = [0, *breaks], [*breaks, len(idx)]
    return [(a, b, int(idx[a])) for a, b in zip(starts, stops)]


def facilitate(activity: LiftedActivity, kernel: KernelGrid,
               n_threads: int = 1) -> LiftedActivity:
    """Facilitation pattern P = kernel-weighted gather of the activity.

    The weight of input node (q', s', theta', v') at output node
    (q, s, theta, v) is the kernel at spatial offset
    R(-theta') (q - q' - (v' (s - s'), 0)) and fiber offsets
    theta - theta', v - v' (see the module docstring).  4D kernels couple
    fibers within each time slice (s = s', no shear); 5D kernels reach
    strictly forward in time, s - s' = 1..n_ds.  Matches
    ``facilitate_reference`` to 1e-10 with fixed accumulation order, and is
    bit-identical for every ``n_threads`` >= 1.
    """
    plan = FacilitationPlan(kernel, activity.grid, activity.values.shape[:2])
    return activity.with_values(plan.apply(activity, n_threads), "facilitation")


def facilitate_reference(activity: LiftedActivity, kernel: KernelGrid) -> LiftedActivity:
    """Explicit gather: every input node's weight at every output node
    from ``kernel_lookup`` at R(-theta') (dq - (v' ds, 0)), ds and the fiber
    offsets (ds = 0 and no shear for the 4D kernel).

    The semantic reference for ``facilitate``; quadratic cost, use on small
    grids only.
    """
    grid = activity.grid
    _check_compat(grid, kernel)
    trunc = replace(kernel, values=truncated_kernel_values(kernel))
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
    # kernel_lookup is exactly zero at and beyond one frame off the ds axis 1..n_ds
    n_ds = trunc.values.shape[2]
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
                        if not 0 < ds < n_ds + 1:
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


def check_c_f(c_f: float) -> None:
    """Raise unless the facilitation gain c_f is >= 0."""
    if c_f < 0:
        raise ValueError("the model is purely excitatory: c_f must be >= 0")


def activity_steady(
    raw: LiftedActivity, facil: LiftedActivity, c_f: float, mu: float, beta: float
) -> LiftedActivity:
    """First-order steady activity S(F + c_f P), S the sigmoid of gain mu and threshold beta.

    The drive is formed in the output array and the sigmoid is taken in
    place in cache-sized chunks (``sigmoid_in_place``), so the call holds
    about one field."""
    check_c_f(c_f)
    if raw.kind != "raw":
        raise ValueError("activity_steady expects the raw energy as first input")
    if facil.kind != "facilitation":
        raise ValueError("activity_steady expects a facilitation field as second input")
    if raw.values.shape != facil.values.shape:
        raise ValueError("raw and facilitation grids do not match")
    drive = np.multiply(facil.values, c_f)
    drive += raw.values
    return raw.with_values(sigmoid_in_place(drive, mu, beta), "total")


def facilitation_difference(
    full: LiftedActivity, first: LiftedActivity, second: LiftedActivity
) -> LiftedActivity:
    """Nonlinearity probe: response to the whole minus the sum of the parts."""
    for act in (full, first, second):
        if act.kind != "total":
            raise ValueError("facilitation_difference expects steady (total) activities")
    if not (full.values.shape == first.values.shape == second.values.shape):
        raise ValueError("activity grids do not match")
    return full.with_values(full.values - first.values - second.values, "facilitation")
