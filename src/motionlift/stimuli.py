"""Synthetic test stimuli with exact machine-readable ground truth.

All generators render with 4x spatial supersampling so sub-pixel positions
(speeds of half a pixel per frame) produce smooth luminance ramps, and all
return luminance in [0, 1].  Ground truth (orientations, normal velocities,
trajectory way-points) is attached as plain dictionaries so tests and
experiment metrics never have to re-derive geometry from pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import StimulusVolume

SUPERSAMPLE = 4


class StimulusError(ValueError):
    """Raised when a stimulus spec, or the sampling of one, is invalid or
    would draw the object outside the frame: a configuration error."""


def _supersample_axis(n: int) -> np.ndarray:
    # subpixel sample centers: pixel i covers [i-0.5, i+0.5)
    step = 1.0 / SUPERSAMPLE
    return (np.arange(n * SUPERSAMPLE) + 0.5) * step - 0.5


def _downsample(frame: np.ndarray) -> np.ndarray:
    n1 = frame.shape[0] // SUPERSAMPLE
    n2 = frame.shape[1] // SUPERSAMPLE
    return frame.reshape(n1, SUPERSAMPLE, n2, SUPERSAMPLE).mean(axis=(1, 3))


def _coverage(n: int, center, reach: float, covered) -> np.ndarray:
    """One n x n frame: each pixel's share of its supersamples that ``covered``
    keeps.

    Only the samples within ``reach`` of ``center`` along each axis are tried.
    ``covered(dx, dy)`` gets their offsets from the centre as two 1D axes and
    returns the (i, j) indices of the covered samples on the grid they span.
    A covered count over SUPERSAMPLE**2 is exact, so the frame equals the
    mean over every sample's 0/1 value.
    """
    ax = _supersample_axis(n)
    lo, off = [], []
    for c in center:
        start, stop = np.searchsorted(ax, (c - reach, c + reach), side="right")
        lo.append(start)
        off.append(ax[start:stop] - c)
    i, j = covered(*off)
    pixel = (i + lo[0]) // SUPERSAMPLE * n + (j + lo[1]) // SUPERSAMPLE
    return np.bincount(pixel, minlength=n * n).reshape(n, n) / SUPERSAMPLE**2


@dataclass(frozen=True)
class CircleStimulusSpec:
    """Dashed circle in uniform linear motion."""

    size: int = 200
    n_frames: int = 64
    radius: float = 50.0
    n_segments: int = 12
    segment_width: float = 2.0
    gap_fraction: float = 0.4
    velocity: tuple[float, float] = (0.0, 0.5)

    def __post_init__(self):
        if min(self.size, self.n_frames, self.n_segments) < 1:
            raise StimulusError("size, n_frames and n_segments must be positive")
        if not (self.radius > 0 and self.segment_width > 0):
            raise StimulusError("radius and segment width must be positive")
        if not 0.0 < self.gap_fraction < 1.0:
            raise StimulusError(f"gap_fraction must be in (0, 1), got {self.gap_fraction}")
        n, margin = self.size, self.radius + self.segment_width
        for t in (0, self.n_frames - 1):  # the motion is straight, so its ends bound it
            cx, cy = self.center_at(t)
            if min(cx, cy) - margin < -0.5 or max(cx, cy) + margin > n - 0.5:
                raise StimulusError(f"circle leaves the frame at t={t}")

    def center_at(self, t: int) -> tuple[float, float]:
        # anchored so the mid frame is centered in the image
        mid = (self.n_frames - 1) / 2.0
        c0 = (
            (self.size - 1) / 2.0 - self.velocity[0] * mid,
            (self.size - 1) / 2.0 - self.velocity[1] * mid,
        )
        return (c0[0] + self.velocity[0] * t, c0[1] + self.velocity[1] * t)


def dashed_circle(spec: CircleStimulusSpec) -> tuple[StimulusVolume, dict]:
    """Render a dashed circle translating at constant velocity.

    The returned ground truth lists, per gap, the mid-gap polar angle phi;
    the true lifted fiber there is orientation theta* = phi (outward normal)
    with apparent velocity v* = velocity . (cos phi, sin phi).
    """
    n = spec.size
    seg_angle = 2.0 * math.pi / spec.n_segments
    drawn = seg_angle * (1.0 - spec.gap_fraction)
    half_w = spec.segment_width / 2.0

    def on_segment(dx, dy):
        r = np.hypot(dx[:, None], dy[None, :])
        i, j = np.nonzero(np.abs(r - spec.radius) <= half_w)
        phi = np.mod(np.arctan2(dy[j], dx[i]), 2.0 * math.pi)
        keep = np.mod(phi, seg_angle) <= drawn
        return i[keep], j[keep]

    reach = spec.radius + half_w + 1.0  # off the ring, with a pixel to spare for rounding
    frames = np.empty((n, n, spec.n_frames))
    for t in range(spec.n_frames):
        frames[:, :, t] = _coverage(n, spec.center_at(t), reach, on_segment)
    gap_centers = [
        (k + 0.5 + 0.5 * (1.0 - spec.gap_fraction)) * seg_angle for k in range(spec.n_segments)
    ]
    truth = {
        "kind": "dashed_circle",
        "radius": spec.radius,
        "velocity": list(spec.velocity),
        "segment_arc": drawn,
        "gap_arc": seg_angle * spec.gap_fraction,
        "gap_center_angles": gap_centers,
        "center_by_frame": [list(spec.center_at(t)) for t in range(spec.n_frames)],
    }
    return StimulusVolume(frames), truth


def circle_fiber_truth(phi: float, velocity) -> tuple[float, float]:
    """Lifted fiber (theta*, v*) at polar angle phi of a translating circle."""
    theta = phi % (2.0 * math.pi)
    v_normal = velocity[0] * math.cos(phi) + velocity[1] * math.sin(phi)
    return theta, v_normal


@dataclass(frozen=True)
class TrajectoryStimulusSpec:
    """Moving ellipse that disappears at t1 and reappears at t2, turned."""

    size: int = 51
    n_frames: int = 102
    eccentricity: float = 2.0
    minor_axis: float = 2.0
    speed: float = 0.5
    theta_init: float = 0.0
    t1: int = 45
    delta_t: int = 12
    delta_theta: float = math.pi / 6.0

    def __post_init__(self):
        if self.eccentricity < 1.0:
            raise StimulusError(f"eccentricity must be >= 1, got {self.eccentricity}")
        if not (self.speed >= 0 and self.minor_axis > 0):
            raise StimulusError("speed must be >= 0 and minor_axis positive")
        if self.delta_t < 0 or self.t1 < 0:
            raise StimulusError("t1 and delta_t must be nonnegative")
        if self.t1 + self.delta_t >= self.n_frames:
            raise StimulusError(
                f"t1 + delta_t = {self.t1 + self.delta_t} must be < n_frames = {self.n_frames}"
            )
        n, a = self.size, self.eccentricity * self.minor_axis / 2.0
        for t in self.visible_frames():
            cx, cy, _ = self.position_at(t)
            if min(cx, cy) < -a - 0.5 or max(cx, cy) > n - 0.5 + a:
                raise StimulusError(f"object is fully outside the frame at t={t}")

    @property
    def t2(self) -> int:
        return self.t1 + self.delta_t

    def visible_frames(self) -> list[int]:
        """The frames the object is drawn in: those before t1 and from t2 on."""
        return [*range(self.t1), *range(self.t2, self.n_frames)]

    def path(self) -> dict:
        """Way-points of the piecewise-linear continuous trajectory.

        The turn happens at the temporal midpoint of the occlusion, at the
        frame center, so the gap is centered.
        """
        t_mid = 0.5 * (self.t1 + self.t2)
        turn = ((self.size - 1) / 2.0, (self.size - 1) / 2.0)
        d1 = (math.cos(self.theta_init), math.sin(self.theta_init))
        th2 = self.theta_init + self.delta_theta
        d2 = (math.cos(th2), math.sin(th2))
        return {
            "t_mid": t_mid,
            "turn": turn,
            "dir1": d1,
            "dir2": d2,
            "theta1": self.theta_init,
            "theta2": th2,
        }

    def position_at(self, t: float) -> tuple[float, float, float]:
        """Object center (x, y) and motion direction angle at time t."""
        p = self.path()
        if t <= p["t_mid"]:
            d, th = p["dir1"], p["theta1"]
        else:
            d, th = p["dir2"], p["theta2"]
        arc = self.speed * (t - p["t_mid"])
        return (p["turn"][0] + arc * d[0], p["turn"][1] + arc * d[1], th)


def _render_ellipse_frames(spec: TrajectoryStimulusSpec) -> np.ndarray:
    n = spec.size
    b = spec.minor_axis / 2.0  # semi-axis along the motion
    a = spec.eccentricity * b  # semi-axis across the motion
    frames = np.zeros((n, n, spec.n_frames))
    for t in spec.visible_frames():
        cx, cy, th = spec.position_at(t)

        def inside(dx, dy):
            along = dx[:, None] * math.cos(th) + dy[None, :] * math.sin(th)
            across = -dx[:, None] * math.sin(th) + dy[None, :] * math.cos(th)
            return np.nonzero((along / b) ** 2 + (across / a) ** 2 <= 1.0)

        # a >= b, so no point farther than a from the centre is inside
        frames[:, :, t] = _coverage(n, (cx, cy), a + 1.0, inside)
    return frames


def occluded_trajectory(
    spec: TrajectoryStimulusSpec,
) -> tuple[StimulusVolume, StimulusVolume, StimulusVolume, dict]:
    """Build the full stimulus and its two temporal parts.

    Returns (S3, S1, S2, truth): S3 is the full movie with the object hidden
    for frames t1 <= t < t2, S1 keeps only frames before t1, S2 only frames
    from t2 on.  By construction S1 and S2 have disjoint temporal support
    and S3 = S1 + S2 on every frame.
    """
    s3 = _render_ellipse_frames(spec)
    s1 = s3.copy()
    s1[:, :, spec.t1 :] = 0.0
    s2 = s3.copy()
    s2[:, :, : spec.t2] = 0.0
    p = spec.path()
    truth = {
        "kind": "occluded_trajectory",
        "t1": spec.t1,
        "t2": spec.t2,
        "delta_t": spec.delta_t,
        "delta_theta": spec.delta_theta,
        "speed": spec.speed,
        "theta1": p["theta1"],
        "theta2": p["theta2"],
        "turn": list(p["turn"]),
        "position_by_frame": [
            list(spec.position_at(t)) for t in range(spec.n_frames)
        ],
    }
    return StimulusVolume(s3), StimulusVolume(s1), StimulusVolume(s2), truth


def plane_wave(
    dims: tuple[int, int, int], p_modulus: float, theta: float, v: float
) -> tuple[StimulusVolume, dict]:
    """Unit-contrast sinusoid drifting at phase speed v along theta."""
    nu = p_modulus * v
    if p_modulus > math.pi or p_modulus <= 0:
        raise StimulusError(f"|p| = {p_modulus} aliases on the pixel grid")
    if abs(nu) > math.pi:
        raise StimulusError(f"|nu| = {abs(nu)} aliases on the frame grid")
    nx, ny, nt = dims
    x = np.arange(nx)[:, None, None]
    y = np.arange(ny)[None, :, None]
    t = np.arange(nt)[None, None, :]
    phase = p_modulus * (x * math.cos(theta) + y * math.sin(theta)) - nu * t
    data = 0.5 + 0.5 * np.sin(phase)
    return StimulusVolume(data), {"kind": "plane_wave", "theta": theta, "v": v,
                                  "p_modulus": p_modulus, "nu": nu}


def translating_bar(
    dims: tuple[int, int, int], theta: float, v: float, width: float = 2.0
) -> tuple[StimulusVolume, dict]:
    """Bar orthogonal to theta translating at v along theta (anti-aliased)."""
    if width <= 0:
        raise StimulusError("bar width must be positive")
    nx, ny, nt = dims
    c = ((nx - 1) / 2.0, (ny - 1) / 2.0)
    ax_x = _supersample_axis(nx)
    ax_y = _supersample_axis(ny)
    X, Y = np.meshgrid(ax_x, ax_y, indexing="ij")
    ct, st = math.cos(theta), math.sin(theta)
    frames = np.empty((nx, ny, nt))
    mid = (nt - 1) / 2.0
    for t in range(nt):
        offset = v * (t - mid)
        d = (X - c[0]) * ct + (Y - c[1]) * st - offset
        frames[:, :, t] = _downsample((np.abs(d) <= width / 2.0).astype(np.float64))
    return StimulusVolume(frames), {"kind": "bar", "theta": theta, "v": v,
                                    "width": width}
