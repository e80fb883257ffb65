"""End-to-end experiment pipelines: moving-contour completion and
occluded-trajectory integration.

Experiment 1 lifts a dashed translating circle, thresholds it, takes the
mid-frame slice of the lifted energy, facilitates it through the 4D
contour kernel and reports how strongly the steady activity fills the
gaps between dashes relative to background.

Experiment 2 sweeps occluded-trajectory stimuli over gap duration and
turn angle, and reports the nonlinear interaction energy (the steady
response to the whole minus those to its two parts) inside the occlusion
window.  The 5D trajectory kernel's facilitation is linear, so the whole is
never gathered: its facilitation is the parts' plus that of a straddle band
of a few frames around the gap.  Each gap duration's first part is gathered
once, and the all-ones response comes from one frame.  Activities laid more
than the kernel's temporal reach apart never interact, so the band is
gathered in the same call as the second part, and the all-ones frame in the
same call as the first part (``run_experiment2``).

Diffusion coefficients are configured in normalized-horizon units: the
stored calibration kappa_n means the orientation variance accumulated over
the WHOLE kernel horizon is 2 kappa_n^2 (and likewise alpha_n for
velocity).  The SDE-level coefficients are kappa_n / sqrt(T); the kernel
cache records both.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import io as vio
from .gabor import (
    GaborBank,
    LiftedActivity,
    ManifoldGrid,
    energy_filter,
    scales_from_frequency,
    sigmoid,
    threshold_activity,
)
from .kernels import (
    ESTIMATOR,
    KernelGrid,
    KernelLattice,
    SdeSpec,
    contour_lattice,
    estimate_kernel,
    trajectory_lattice,
)
from .population import activity_steady, check_c_f, facilitate, facilitation_difference
from .stimuli import (
    CircleStimulusSpec,
    StimulusError,
    TrajectoryStimulusSpec,
    circle_fiber_truth,
    dashed_circle,
    occluded_trajectory,
)

TWO_PI = 2.0 * math.pi
KERNEL_STEPS = 200  # integrator steps over the kernel horizon


def normalized_sde(
    mode: str,
    kappa_n: float,
    alpha_n: float,
    T: float,
    n_paths: int,
    seed: int,
) -> SdeSpec:
    """SDE spec from normalized-horizon diffusion coefficients.

    kappa_n, alpha_n are per unit of normalized evolution parameter
    (horizon scaled to 1), so the realized fiber variances at the end of
    the run are 2 kappa_n^2 and 2 alpha_n^2 regardless of T.
    """
    if T <= 0:
        raise ValueError("kernel horizon T must be positive")
    return SdeSpec(
        mode=mode,
        kappa=kappa_n / math.sqrt(T),
        alpha=alpha_n / math.sqrt(T),
        dt=T / KERNEL_STEPS,
        T=T,
        n_paths=n_paths,
        seed=seed,
        calibration={
            "convention": "normalized-horizon",
            "kappa_normalized": kappa_n,
            "alpha_normalized": alpha_n,
        },
    )


def kernel_cache_path(cache_dir, spec: SdeSpec, lattice) -> Path:
    """The cache file of the kernel of (spec, lattice) under the current
    estimator, so that a kernel estimated another way is never reused."""
    key = vio.config_hash(
        {"estimator": ESTIMATOR, "sde": spec.to_dict(), "axes": list(lattice.axes),
         "shape": list(lattice.shape), "origin": list(lattice.origin),
         "spacing": list(lattice.spacing)}
    )
    return Path(cache_dir) / f"{spec.mode}_{key}.knl"


def load_or_estimate_kernel(cache_dir, spec: SdeSpec, lattice, *,
                            n_threads: int = 1) -> KernelGrid:
    """Fetch the kernel for (spec, lattice) from cache, estimating on miss.

    On a miss the estimate is written to the cache and read back, so a run
    uses the stored kernel whether it hit or missed.
    """
    path = kernel_cache_path(cache_dir, spec, lattice)
    if path.exists():
        return vio.read_kernel(path)
    kernel = estimate_kernel(spec, lattice, n_threads)
    path.parent.mkdir(parents=True, exist_ok=True)
    vio.write_kernel(path, kernel, provenance={"config_hash": vio.config_hash(spec.to_dict())})
    return vio.read_kernel(path)


@dataclass
class Experiment1Config:
    """Moving-contour completion (paper-scale defaults)."""

    size: int = 200
    n_frames: int = 64
    radius: float = 50.0
    n_segments: int = 12
    segment_width: float = 2.0
    gap_fraction: float = 0.4
    speed: float = 0.5
    p_modulus: float = math.pi / 2.0
    v_m: float = 1.0
    n_theta: int = 16
    n_v: int = 9
    mu: float = 10.0
    beta: float = 0.5
    kappa: float = 2.0
    alpha: float = 1.0
    kernel_halfwidth: int = 15
    n_paths: int = 1_000_000
    seed: int = 12345
    c_f: float = 40.0
    background_margin: float = 8.0
    samples_per_gap: int = 5

    def scaled(self, factor: float) -> "Experiment1Config":
        return replace(self, size=max(32, int(round(self.size * factor))),
                       n_frames=max(8, int(round(self.n_frames * factor))),
                       radius=self.radius * factor,
                       kernel_halfwidth=max(4, int(round(self.kernel_halfwidth * factor))))

    def stimulus_spec(self) -> CircleStimulusSpec:
        return CircleStimulusSpec(
            size=self.size,
            n_frames=self.n_frames,
            radius=self.radius,
            n_segments=self.n_segments,
            segment_width=self.segment_width,
            gap_fraction=self.gap_fraction,
            velocity=(0.0, self.speed),
        )

    def model(self) -> tuple[ManifoldGrid, SdeSpec, KernelLattice]:
        """The fiber grid, the contour kernel's SDE and its lattice.  The
        horizon is the drift traversal of the kernel's spatial half-width."""
        grid = ManifoldGrid(self.n_theta, self.n_v, self.v_m)
        spec = normalized_sde("contour", self.kappa, self.alpha, float(self.kernel_halfwidth),
                              self.n_paths, self.seed)
        return grid, spec, contour_lattice(self.kernel_halfwidth, grid)


def _nearest_theta_bin(grid: ManifoldGrid, theta: float) -> int:
    return int(np.rint((theta % TWO_PI) / grid.d_theta)) % grid.n_theta


def _nearest_v_bin(grid: ManifoldGrid, v: float) -> int:
    j = int(np.rint((v + grid.v_m) / grid.d_v))
    return min(max(j, 0), grid.n_v - 1)


def _background_square(cfg: Experiment1Config) -> range:
    """Pixel coordinates along each axis that background samples are drawn
    from: ceil(3 sigma_x) + 2 pixels off each image edge, clear of the
    filter boundary band."""
    lo = int(math.ceil(3 * scales_from_frequency(cfg.p_modulus, cfg.v_m)[0])) + 2
    return range(lo, cfg.size - lo)


def _is_background(cfg: Experiment1Config, dx: float, dy: float) -> bool:
    # at least background_margin from the circle, (dx, dy) from its center
    return abs(math.hypot(dx, dy) - cfg.radius) >= cfg.background_margin


def exp1_sample_points(cfg: Experiment1Config, truth: dict, grid: ManifoldGrid):
    """Gap-arc sample points with ground-truth fiber bins, plus background.

    Gap samples sit on the circle inside each inter-dash gap at the mid
    frame; background samples are drawn (seeded) at least
    ``background_margin`` pixels away from the circle curve and
    ceil(3 sigma_x) + 2 pixels from each image edge, with uniform random
    fiber bins, matched in count.
    """
    mid = cfg.n_frames // 2
    cx, cy = truth["center_by_frame"][mid]
    gap_arc = truth["gap_arc"]
    pts = []
    for phi_c in truth["gap_center_angles"]:
        for k in range(cfg.samples_per_gap):
            off = (k + 0.5) / cfg.samples_per_gap - 0.5
            phi = phi_c + 0.8 * gap_arc * off
            theta_t, v_t = circle_fiber_truth(phi, truth["velocity"])
            x = cx + cfg.radius * math.cos(phi)
            y = cy + cfg.radius * math.sin(phi)
            pts.append(
                (
                    int(round(x)), int(round(y)),
                    _nearest_theta_bin(grid, theta_t), _nearest_v_bin(grid, v_t),
                )
            )
    rng = np.random.default_rng(cfg.seed + 999)
    bg = []
    side = _background_square(cfg)
    while len(bg) < len(pts):
        x = rng.integers(side.start, side.stop)
        y = rng.integers(side.start, side.stop)
        if not _is_background(cfg, x - cx, y - cy):
            continue
        bg.append(
            (
                int(x), int(y),
                int(rng.integers(0, grid.n_theta)), int(rng.integers(0, grid.n_v)),
            )
        )
    return pts, bg


def _sample_field(values: np.ndarray, pts) -> np.ndarray:
    return np.array([values[x, y, 0, it, iv] for (x, y, it, iv) in pts])


def _start_run(out_dir, resolved: dict, seed: int, kernel_cache, subdirs):
    """Create the output directories a run writes, and return the output
    root, the config hash, the provenance every output file carries and the
    kernel cache directory (``<out>/kernels`` unless one is shared)."""
    out = Path(out_dir)
    for sub in subdirs:
        (out / sub).mkdir(parents=True, exist_ok=True)
    chash = vio.config_hash(resolved)
    cache_dir = out / "kernels" if kernel_cache is None else Path(kernel_cache)
    return out, chash, {"config_hash": chash, "seed": seed}, cache_dir


def run_experiment1(cfg: Experiment1Config, out_dir, *, n_threads: int = 1,
                    kernel_cache=None) -> dict:
    """Full pipeline; writes the output tree and returns the gap metrics."""
    if cfg.samples_per_gap < 1:
        raise StimulusError(f"samples_per_gap must be >= 1, got {cfg.samples_per_gap}")
    cx, cy = cfg.stimulus_spec().center_at(cfg.n_frames // 2)
    side = _background_square(cfg)
    if not any(_is_background(cfg, x - cx, y - cy) for x in side for y in side):
        raise StimulusError(f"no pixel lies background_margin = {cfg.background_margin} or "
                            "more from the circle, so no background sample can be drawn")
    # the model is built, and a bad one refused, before any output
    check_c_f(cfg.c_f)
    grid, spec, lattice = cfg.model()
    bank = GaborBank(grid, cfg.p_modulus)
    resolved = asdict(cfg)
    out, chash, prov, cache_dir = _start_run(
        out_dir, resolved, cfg.seed, kernel_cache, ("stimulus", "kernels", "activity", "exports"))

    stim, truth = dashed_circle(cfg.stimulus_spec())
    vio.write_volume(out / "stimulus" / "stimulus.vol", stim.data,
                     ("q1", "q2", "s"), kind="raw", provenance=prov)
    (out / "stimulus" / "truth.json").write_text(json.dumps(truth, sort_keys=True))

    mid = cfg.n_frames // 2
    raw = energy_filter(stim, bank, frames=(mid,))
    thresholded = threshold_activity(raw, cfg.mu, cfg.beta)

    kernel = load_or_estimate_kernel(cache_dir, spec, lattice, n_threads=n_threads)

    pattern = facilitate(thresholded, kernel, n_threads)
    steady = activity_steady(raw, pattern, cfg.c_f, cfg.mu, cfg.beta)

    axes4 = ("q1", "q2", "theta", "v")
    for name, act in (("F_T", thresholded), ("P", pattern), ("F0", steady)):
        vio.write_volume(out / "activity" / f"{name}.vol", act.values[:, :, 0],
                         axes4, kind=act.kind, provenance=prov)
    vio.write_kernel(out / "kernels" / "gamma0.knl", kernel, provenance=prov)

    vio.export_isosurface_points(
        out / "exports" / "F_T_iso0.2.csv", thresholded.values[:, :, 0], axes4, 0.2
    )
    vio.export_isosurface_points(
        out / "exports" / "F0_iso0.2.csv", steady.values[:, :, 0], axes4, 0.2
    )
    vio.export_isosurface_points(
        out / "exports" / "gamma0_iso.csv", kernel.values, kernel.axes,
        0.002 * float(kernel.values.max()),
        origin=kernel.origin, spacing=kernel.spacing,
    )

    gap_pts, bg_pts = exp1_sample_points(cfg, truth, grid)
    gap_f0 = _sample_field(steady.values, gap_pts)
    bg_f0 = _sample_field(steady.values, bg_pts)
    gap_ft = _sample_field(thresholded.values, gap_pts)
    bg_ft = _sample_field(thresholded.values, bg_pts)
    metrics = {
        "gap_mean_F0": float(gap_f0.mean()),
        "background_mean_F0": float(bg_f0.mean()),
        "F0_gap_over_background": float(gap_f0.mean() / bg_f0.mean()),
        "gap_mean_FT": float(gap_ft.mean()),
        "background_mean_FT": float(bg_ft.mean()),
        "FT_gap_over_background": float(gap_ft.mean() / bg_ft.mean()),
        "n_gap_samples": len(gap_pts),
    }
    manifest = {"experiment": "contour_completion", "config": resolved,
                "config_hash": chash, "metrics": metrics}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return metrics


@dataclass
class Experiment2Config:
    """Occluded-trajectory integration (paper-scale defaults)."""

    size: int = 51
    n_frames: int = 102
    eccentricity: float = 2.0
    minor_axis: float = 2.0
    speed: float = 0.5
    theta_init: float = 0.0
    p_modulus: float = math.pi / 2.0
    v_m: float = 1.0
    n_theta: int = 12
    n_v: int = 9
    mu: float = 20.0
    beta: float = 0.7
    kappa: float = 1.0
    alpha: float = 0.5
    kernel_halfwidth: int = 12
    kernel_n_ds: int = 16
    n_paths: int = 100_000
    seed: int = 54321
    c_f: float = 20.0
    gap_margin: int = 8
    sweep: tuple = (
        (12, 0.0),
        (12, math.pi / 6.0),
        (12, math.pi / 4.0),
        (12, 5.0 * math.pi / 12.0),
        (12, math.pi / 2.0),
        (0, math.pi / 6.0),
        (6, math.pi / 6.0),
        (24, math.pi / 6.0),
        (0, math.pi / 4.0),
        (0, math.pi / 2.0),
    )

    def scaled(self, factor: float) -> "Experiment2Config":
        # the gaps shrink with the movie, so the scaled kernel still bridges them
        gaps = {dt: int(round(dt * factor)) for dt, _ in self.sweep}
        if len(set(gaps.values())) < len(gaps):
            raise StimulusError(f"scale {factor} rounds the gap durations {sorted(gaps)} to "
                                f"{sorted(set(gaps.values()))} frames, so sweep points merge")
        return replace(self, size=max(21, int(round(self.size * factor))),
                       n_frames=max(16, int(round(self.n_frames * factor))),
                       kernel_halfwidth=max(4, int(round(self.kernel_halfwidth * factor))),
                       kernel_n_ds=max(4, int(round(self.kernel_n_ds * factor))),
                       sweep=tuple((gaps[dt], dth) for dt, dth in self.sweep))

    def bridges(self, delta_t: int) -> bool:
        """Whether the kernel can carry activity across a gap of delta_t
        frames: delta_t + 1 frames separate the last frame before the gap
        from the reappearance, and the kernel reaches kernel_n_ds frames."""
        return delta_t < self.kernel_n_ds

    def stimulus_spec(self, delta_t: int, delta_theta: float) -> TrajectoryStimulusSpec:
        return TrajectoryStimulusSpec(
            size=self.size,
            n_frames=self.n_frames,
            eccentricity=self.eccentricity,
            minor_axis=self.minor_axis,
            speed=self.speed,
            theta_init=self.theta_init,
            t1=(self.n_frames - delta_t) // 2,
            delta_t=delta_t,
            delta_theta=delta_theta,
        )

    def model(self) -> tuple[ManifoldGrid, SdeSpec, KernelLattice]:
        """The fiber grid, the trajectory kernel's SDE and its lattice.  The
        horizon is the kernel's temporal depth in frames."""
        grid = ManifoldGrid(self.n_theta, self.n_v, self.v_m)
        spec = normalized_sde("trajectory", self.kappa, self.alpha, float(self.kernel_n_ds),
                              self.n_paths, self.seed)
        return grid, spec, trajectory_lattice(self.kernel_halfwidth, self.kernel_n_ds, grid)


def gap_window(t1: int, t2: int, margin: int, n_frames: int) -> tuple[int, int]:
    return max(0, t1 - margin), min(n_frames - 1, t2 + margin)


def straddle_band(t1: int, t2: int, reach: int, n_frames: int) -> tuple[int, int]:
    """Frames [lo, hi) whose lift sees both parts of an occluded trajectory.

    A lift of temporal reach ``reach`` sees the first part (frames < t1) at
    frame t when t < t1 + reach, and the second (frames >= t2) when
    t >= t2 - reach.  Elsewhere the whole's thresholded lift, less its
    floor c0, is the sum of the parts' to roundoff.  The band holds
    max(0, 2 reach - (t2 - t1)) frames away from the movie's ends, and is
    empty when lo >= hi.
    """
    return max(0, t2 - reach), min(n_frames, t1 + reach)


def all_ones_response(g: np.ndarray, n_frames: int) -> np.ndarray:
    """P(1), the facilitation of an all-ones activity on n_frames frames,
    from g, the facilitation of n_ds + 1 frames of which only the first is
    all ones.

    The trajectory kernel carries frame t to t + ds, ds = 1..n_ds, alike at
    every t.  So with G_d = g at frame d, P(1) at frame o is
    G_1 + ... + G_min(o, n_ds), a cumulative sum over the offsets.
    """
    n_ds = g.shape[2] - 1
    cum = np.zeros_like(g)  # cum[:, :, d] = G_1 + ... + G_d, and 0 at d = 0
    np.cumsum(g[:, :, 1:], axis=2, out=cum[:, :, 1:])
    return cum[:, :, np.minimum(np.arange(n_frames), n_ds)]


def stacked_times(n_frames: int, n_window: int, n_ds: int) -> np.ndarray:
    """Frame times of a movie of n_frames frames followed, in one activity,
    by a window of n_window frames that is gathered in the same call.

    ``facilitate`` links input frame i to output frame o only when
    s_frames[o] - s_frames[i] is one of the kernel's offsets 1..n_ds.  The
    window's times start n_ds + 1 after the movie's last, so no offset
    links the two, and each is gathered as if alone.
    """
    return np.concatenate([np.arange(n_frames), n_frames + n_ds + np.arange(n_window)])


def gap_energy(f_fac: LiftedActivity, t1: int, t2: int, margin: int,
               baseline: float) -> dict:
    """Interaction energy inside the occlusion window.

    Sums F_fac + baseline over the window, where baseline is the far-field
    value S(0) that the difference of three sigmoids settles to; also
    reports the positive part alone.
    """
    lo, hi = gap_window(t1, t2, margin, f_fac.values.shape[2])
    window = f_fac.values[:, :, lo : hi + 1]
    return {
        "window": [int(lo), int(hi)],
        "energy": float((window + baseline).sum()),
        "energy_positive": float(np.clip(window, 0.0, None).sum()),
        "peak": float(window.max()) if window.size else 0.0,
    }


def run_experiment2(cfg: Experiment2Config, out_dir, *, n_threads: int = 1,
                    kernel_cache=None) -> list[dict]:
    """Sweep the (gap duration, turn angle) lattice; returns the gap table.

    Each row says whether the kernel can bridge its gap (``bridged``, see
    ``Experiment2Config.bridges``); an unbridged row's interaction is zero
    by construction, not a measurement.

    facilitate is linear, and the sweep gathers nothing twice.  With c0 =
    S(0), the floor of every thresholded part, and T = thr - c0 per part,
    P(thr) = c0 P(1) + P(T), and P(1) comes from one all-ones frame
    (``all_ones_response``).  The whole's T3 is T1 + T2 + D, where the
    straddle band D = T3 - T1 - T2 is formed on the frames of
    ``straddle_band`` only and is zero elsewhere, so P(T3) = P(T1) + P(T2)
    + P(D) and the whole is never gathered.  Nor is the whole lifted off
    the band: there its raw energy is the sum of its parts' to roundoff, so
    only the band is lifted (through the lift's ``frames``).  The first
    part depends on the gap duration alone: it is lifted and gathered once
    per distinct delta_t, and its raw energy and c0 P(1) + P(T1) are held
    only while that delta_t's points run; its steady response is formed
    again at each point.  The rows keep the sweep's order.

    Each stencil-spectra build serves two activities at once.  A window of
    frames laid n_ds + 1 frames past the movie's last frame
    (``stacked_times``) is never linked to the movie, so one facilitate
    call gathers both.  The first point gathers the all-ones frame, with
    the n_ds frames it reaches, together with T1; every point gathers D,
    with the n_ds frames it reaches, together with T2.  T is written
    straight into the stacked buffer.  T1 is never stacked with D and T2:
    that one call held about a quarter more memory than the sweep's peak.
    """
    # a bad sweep point, readout window or model is refused before any output
    for delta_t, delta_theta in cfg.sweep:
        cfg.stimulus_spec(int(delta_t), float(delta_theta))
    if cfg.gap_margin < 0:
        raise StimulusError(f"gap_margin must be >= 0, got {cfg.gap_margin}")
    check_c_f(cfg.c_f)
    grid, spec, lattice = cfg.model()
    bank = GaborBank(grid, cfg.p_modulus)
    resolved = asdict(cfg)
    resolved["sweep"] = [list(map(float, pair)) for pair in cfg.sweep]
    out, chash, prov, cache_dir = _start_run(
        out_dir, resolved, cfg.seed, kernel_cache, ("kernels", "activity", "exports"))

    kernel = load_or_estimate_kernel(cache_dir, spec, lattice, n_threads=n_threads)
    vio.write_kernel(out / "kernels" / "gamma.knl", kernel, provenance=prov)

    baseline = float(sigmoid(0.0, cfg.mu, cfg.beta))  # c0
    n, n_ds = cfg.n_frames, cfg.kernel_n_ds

    def lift(stim, frames=None) -> tuple[LiftedActivity, LiftedActivity]:
        """The raw energy of a part and its thresholded energy, on ``frames``
        (None: every frame)."""
        raw = energy_filter(stim, bank, frames)
        return raw, threshold_activity(raw, cfg.mu, cfg.beta)

    def stack(thr: LiftedActivity, n_window: int) -> np.ndarray:
        """T = thr - c0 on the movie's frames, then n_window zero frames for
        a window that is gathered in the same call."""
        nx, ny, _, nth, nv = thr.values.shape
        buf = np.empty((nx, ny, n + n_window, nth, nv))
        np.subtract(thr.values, baseline, out=buf[:, :, :n])
        buf[:, :, n:] = 0.0
        return buf

    def gather(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P of the movie's frames of a stacked buffer, and P of its window,
        from one facilitate call (``stacked_times``)."""
        times = stacked_times(n, buf.shape[2] - n, n_ds)
        p = facilitate(LiftedActivity(grid, buf, "facilitation", times), kernel, n_threads).values
        return p[:, :, :n], p[:, :, n:]

    def steady(raw: LiftedActivity, total: np.ndarray) -> LiftedActivity:
        return activity_steady(raw, raw.with_values(total, "facilitation"),
                               cfg.c_f, cfg.mu, cfg.beta)

    def first_part(s1, band, floor):
        """c0 P(1), and the first part's c0 P(1) + P(T1), raw energy and T1
        on the band.  Without a floor yet, the all-ones frame is gathered
        with T1."""
        raw1, thr1 = lift(s1)
        buf = stack(thr1, 0 if floor is not None else n_ds + 1)
        del thr1
        if floor is None:
            buf[:, :, n] = 1.0  # the all-ones frame, then the n_ds frames it reaches
        t1_band = buf[:, :, band[0] : band[1]].copy()
        p1, g = gather(buf)
        del buf
        if floor is None:
            floor = all_ones_response(g, n)
            floor *= baseline
        total1 = floor + p1
        del p1, g
        return floor, (total1, raw1, t1_band)

    def sweep_point(sspec, s3, s2, band, floor, total1, raw1, t1_band) -> dict:
        # everything made here is freed on return, before the next point
        lo, hi = band
        raw2, thr2 = lift(s2)
        # D's window holds the band and the frames it reaches; it is gathered
        # with T2, which is written straight into the stacked buffer
        stop = min(n, hi + n_ds) if hi > lo else lo
        buf = stack(thr2, stop - lo)
        del thr2
        if hi > lo:
            raw3_band, thr3_band = lift(s3, range(lo, hi))
            straddle = buf[:, :, n : n + hi - lo]
            np.subtract(thr3_band.values, baseline, out=straddle)
            straddle -= t1_band
            straddle -= buf[:, :, lo:hi]
            del thr3_band, straddle
        p2, p_band = gather(buf)
        del buf
        total3 = total1 + p2
        total3[:, :, lo:stop] += p_band
        total2 = floor + p2
        del p2, p_band
        f0_second = steady(raw2, total2)
        del total2
        # the whole's raw energy, written over the second part's: the sum of
        # the parts' off the band, and its own lift on it
        raw3 = raw2
        raw3.values += raw1.values
        if hi > lo:
            raw3.values[:, :, lo:hi] = raw3_band.values
            del raw3_band
        f0_full = steady(raw3, total3)
        del raw2, raw3, total3
        f0_first = steady(raw1, total1)
        f_fac = facilitation_difference(f0_full, f0_first, f0_second)
        del f0_first, f0_second
        row = {"delta_t": sspec.delta_t, "delta_theta": sspec.delta_theta,
               "bridged": cfg.bridges(sspec.delta_t)}
        row.update(gap_energy(f_fac, sspec.t1, sspec.t2, cfg.gap_margin, baseline))
        tag = f"dt{sspec.delta_t}_dth{sspec.delta_theta:.4f}"
        vio.write_volume(out / "activity" / f"F_fac_{tag}.vol", f_fac.values,
                         f_fac.axes, kind="facilitation", provenance=prov)
        # time-course isosurfaces: fiber-integrated interaction and the fiber-max
        # steady response of the full stimulus (in (0, 1): its max is its max modulus)
        for name, field, axes in (
            ("Ffac_int", f_fac.values.sum(axis=(0, 1)), ("s", "theta", "v")),
            ("F0_max", f0_full.values.max(axis=(3, 4)), ("q1", "q2", "s")),
        ):
            ref = float(np.abs(field).max()) or 1.0
            for frac in (0.9, 0.5, 0.1):
                vio.export_isosurface_points(
                    out / "exports" / f"{name}_{tag}_iso{frac}.csv", field, axes, frac * ref,
                )
        return row

    by_gap: dict[int, list] = {}  # sweep positions per delta_t, in first-seen order
    for i, (delta_t, delta_theta) in enumerate(cfg.sweep):
        by_gap.setdefault(int(delta_t), []).append((i, float(delta_theta)))
    table = [None] * len(cfg.sweep)
    floor = None  # c0 P(1), from the all-ones frame gathered at the first point
    for delta_t, points in by_gap.items():
        first = None  # this delta_t's first part, dropped before the next delta_t's
        for i, delta_theta in points:
            sspec = cfg.stimulus_spec(delta_t, delta_theta)
            s3, s1, s2, _ = occluded_trajectory(sspec)
            band = straddle_band(sspec.t1, sspec.t2, bank.rt, cfg.n_frames)
            if first is None:
                floor, first = first_part(s1, band, floor)
            table[i] = sweep_point(sspec, s3, s2, band, floor, *first)
    lines = ["delta_t,delta_theta,window_lo,window_hi,energy,energy_positive,peak"]
    for row in table:
        lines.append(
            f"{row['delta_t']},{row['delta_theta']!r},{row['window'][0]},"
            f"{row['window'][1]},{row['energy']!r},{row['energy_positive']!r},"
            f"{row['peak']!r}"
        )
    (out / "exports" / "gap_energies.csv").write_text("\n".join(lines) + "\n")
    manifest = {"experiment": "trajectory_integration", "config": resolved,
                "config_hash": chash, "gap_table": table}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return table
