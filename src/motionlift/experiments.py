"""End-to-end experiment pipelines: moving-contour completion and
occluded-trajectory integration.

Experiment 1 lifts a dashed translating circle, thresholds it, takes the
mid-frame slice of the lifted energy, facilitates it through the 4D
contour kernel and reports how strongly the steady activity fills the
gaps between dashes relative to background.

Experiment 2 sweeps occluded-trajectory stimuli over gap duration and
turn angle, facilitates each full/first/second stimulus through the 5D
trajectory kernel, and reports the nonlinear interaction energy (response
to the whole minus the parts) inside the occlusion window.

Diffusion coefficients are configured in normalized-horizon units: the
stored calibration kappa_n means the orientation variance accumulated over
the WHOLE kernel horizon is 2 kappa_n^2 (and likewise alpha_n for
velocity).  The SDE-level coefficients are kappa_n / sqrt(T); the kernel
cache records both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import io as vio
from .gabor import (
    LiftedActivity,
    ManifoldGrid,
    energy_filter,
    sigmoid,
    threshold_activity,
)
from .kernels import (
    KernelGrid,
    SdeSpec,
    contour_lattice,
    estimate_kernel,
    trajectory_lattice,
)
from .population import FacilitationConfig, activity_steady, facilitate, facilitation_difference
from .stimuli import (
    CircleStimulusSpec,
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
    key = vio.config_hash(
        {"sde": spec.to_dict(), "axes": list(lattice.axes),
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
        cfg = Experiment1Config(**asdict(self))
        cfg.size = max(32, int(round(self.size * factor)))
        cfg.n_frames = max(8, int(round(self.n_frames * factor)))
        cfg.radius = self.radius * factor
        cfg.kernel_halfwidth = max(4, int(round(self.kernel_halfwidth * factor)))
        return cfg

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

    def sde(self) -> SdeSpec:
        # horizon = drift traversal of the kernel's spatial half-width
        return normalized_sde(
            "contour", self.kappa, self.alpha, float(self.kernel_halfwidth),
            self.n_paths, self.seed,
        )


def _nearest_theta_bin(grid: ManifoldGrid, theta: float) -> int:
    return int(np.rint((theta % TWO_PI) / grid.d_theta)) % grid.n_theta


def _nearest_v_bin(grid: ManifoldGrid, v: float) -> int:
    j = int(np.rint((v + grid.v_m) / grid.d_v))
    return min(max(j, 0), grid.n_v - 1)


def exp1_sample_points(cfg: Experiment1Config, truth: dict, grid: ManifoldGrid):
    """Gap-arc sample points with ground-truth fiber bins, plus background.

    Gap samples sit on the circle inside each inter-dash gap at the mid
    frame; background samples are drawn (seeded) at least
    ``background_margin`` pixels away from the circle curve, with uniform
    random fiber bins, matched in count.
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
    lo = int(math.ceil(3 * 1.25)) + 2  # stay off the filter boundary band
    hi = cfg.size - 1 - lo
    while len(bg) < len(pts):
        x = rng.integers(lo, hi + 1)
        y = rng.integers(lo, hi + 1)
        r = math.hypot(x - cx, y - cy)
        if abs(r - cfg.radius) < cfg.background_margin:
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


def run_experiment1(cfg: Experiment1Config, out_dir, *, n_threads: int = 1,
                    kernel_cache=None) -> dict:
    """Full pipeline; writes the output tree and returns the gap metrics."""
    out = Path(out_dir)
    for sub in ("stimulus", "kernels", "activity", "exports"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    resolved = asdict(cfg)
    chash = vio.config_hash(resolved)
    prov = {"config_hash": chash, "seed": cfg.seed}

    stim, truth = dashed_circle(cfg.stimulus_spec())
    vio.write_volume(out / "stimulus" / "stimulus.vol", stim.data,
                     ("q1", "q2", "s"), kind="raw", provenance=prov)
    (out / "stimulus" / "truth.json").write_text(json.dumps(truth, sort_keys=True))

    mid = cfg.n_frames // 2
    grid = ManifoldGrid(cfg.size, cfg.size, cfg.n_theta, cfg.n_v, cfg.v_m,
                        s_slices=(mid,))
    raw = energy_filter(stim, grid, cfg.p_modulus)
    thresholded = threshold_activity(raw, cfg.mu, cfg.beta)

    spec = cfg.sde()
    lattice = contour_lattice(cfg.kernel_halfwidth, cfg.n_theta, cfg.n_v, cfg.v_m)
    cache_dir = Path(kernel_cache) if kernel_cache is not None else out / "kernels"
    kernel = load_or_estimate_kernel(cache_dir, spec, lattice, n_threads=n_threads)

    pattern = facilitate(thresholded, kernel)
    steady = activity_steady(raw, pattern, FacilitationConfig(cfg.c_f, cfg.mu, cfg.beta))

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
        cfg = Experiment2Config(**asdict(self))
        cfg.size = max(21, int(round(self.size * factor)))
        cfg.n_frames = max(16, int(round(self.n_frames * factor)))
        cfg.kernel_halfwidth = max(4, int(round(self.kernel_halfwidth * factor)))
        cfg.kernel_n_ds = max(4, int(round(self.kernel_n_ds * factor)))
        # the gaps shrink with the movie, so the scaled kernel still bridges them
        cfg.sweep = tuple((int(round(dt * factor)), dth) for dt, dth in self.sweep)
        return cfg

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

    def sde(self) -> SdeSpec:
        # horizon = the kernel's temporal depth in frames
        return normalized_sde(
            "trajectory", self.kappa, self.alpha, float(self.kernel_n_ds),
            self.n_paths, self.seed,
        )


def gap_window(t1: int, t2: int, margin: int, n_frames: int) -> tuple[int, int]:
    return max(0, t1 - margin), min(n_frames - 1, t2 + margin)


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


class _Pipeline2:
    """Shared state for one experiment-2 sweep: kernel, and exact reuse of
    the constant-baseline facilitation split.

    facilitate is linear, so P(F_T) = P(F_T - c0) + c0 * P(ones); the
    all-ones response depends only on kernel and grid and is computed once.
    Every stimulus part is lifted and facilitated afresh.
    """

    def __init__(self, cfg: Experiment2Config, kernel: KernelGrid):
        self.cfg = cfg
        self.kernel = kernel
        self.grid = ManifoldGrid(cfg.size, cfg.size, cfg.n_theta, cfg.n_v, cfg.v_m)
        self.fac_cfg = FacilitationConfig(cfg.c_f, cfg.mu, cfg.beta)
        self._ones_response: np.ndarray | None = None

    def ones_response(self, template: LiftedActivity) -> np.ndarray:
        if self._ones_response is None:
            ones = template.with_values(np.ones_like(template.values), "facilitation")
            self._ones_response = facilitate(ones, self.kernel).values
        return self._ones_response

    def steady(self, stim) -> LiftedActivity:
        cfg = self.cfg
        raw = energy_filter(stim, self.grid, cfg.p_modulus)
        thr = threshold_activity(raw, cfg.mu, cfg.beta)
        c0 = float(thr.values.min())
        residual = thr.with_values(thr.values - c0, "facilitation")
        pattern = facilitate(residual, self.kernel)
        pattern = pattern.with_values(
            pattern.values + c0 * self.ones_response(thr), "facilitation"
        )
        return activity_steady(raw, pattern, self.fac_cfg)


def run_experiment2(cfg: Experiment2Config, out_dir, *, n_threads: int = 1,
                    kernel_cache=None) -> list[dict]:
    """Sweep the (gap duration, turn angle) lattice; returns the gap table."""
    out = Path(out_dir)
    for sub in ("stimulus", "kernels", "activity", "exports"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    resolved = asdict(cfg)
    resolved["sweep"] = [list(map(float, pair)) for pair in cfg.sweep]
    chash = vio.config_hash(resolved)
    prov = {"config_hash": chash, "seed": cfg.seed}

    spec = cfg.sde()
    lattice = trajectory_lattice(
        cfg.kernel_halfwidth, cfg.kernel_n_ds, cfg.n_theta, cfg.n_v, cfg.v_m
    )
    cache_dir = Path(kernel_cache) if kernel_cache is not None else out / "kernels"
    kernel = load_or_estimate_kernel(cache_dir, spec, lattice, n_threads=n_threads)
    vio.write_kernel(out / "kernels" / "gamma.knl", kernel, provenance=prov)

    pipe = _Pipeline2(cfg, kernel)
    baseline = float(sigmoid(0.0, cfg.mu, cfg.beta))
    table = []
    for delta_t, delta_theta in cfg.sweep:
        sspec = cfg.stimulus_spec(int(delta_t), float(delta_theta))
        s3, s1, s2, truth = occluded_trajectory(sspec)
        tag = f"dt{int(delta_t)}_dth{delta_theta:.4f}"
        f0_full = pipe.steady(s3)
        f0_first = pipe.steady(s1)
        f0_second = pipe.steady(s2)
        f_fac = facilitation_difference(f0_full, f0_first, f0_second)
        row = {"delta_t": int(delta_t), "delta_theta": float(delta_theta)}
        row.update(gap_energy(f_fac, sspec.t1, sspec.t2, cfg.gap_margin, baseline))
        table.append(row)
        vio.write_volume(out / "activity" / f"F_fac_{tag}.vol", f_fac.values,
                         f_fac.axes, kind="facilitation", provenance=prov)
        # time-course isosurfaces: fiber-integrated interaction and the
        # fiber-max steady response of the full stimulus
        fib_int = f_fac.values.sum(axis=(0, 1))
        ref = float(np.abs(fib_int).max()) or 1.0
        for frac in (0.9, 0.5, 0.1):
            vio.export_isosurface_points(
                out / "exports" / f"Ffac_int_{tag}_iso{frac}.csv",
                fib_int, ("s", "theta", "v"), frac * ref,
            )
        fib_max = f0_full.values.max(axis=(3, 4))
        ref0 = float(fib_max.max()) or 1.0
        for frac in (0.9, 0.5, 0.1):
            vio.export_isosurface_points(
                out / "exports" / f"F0_max_{tag}_iso{frac}.csv",
                fib_max, ("q1", "q2", "s"), frac * ref0,
            )
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
