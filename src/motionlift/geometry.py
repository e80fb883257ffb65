"""Contact geometry of the position-time-orientation-velocity manifold.

The state space is the 5D manifold of points (q1, q2, s, theta, v): spatial
position in pixels, time in frames, preferred orientation on the circle and
apparent (normal) velocity in pixels per frame.  This module implements the
smooth (but non-associative) composition law with its left inverse, the
deterministic integral curves used as good-continuation generators, and the
planar Galilei group that the manifold embeds into.

The curves follow the fields X1 = (-sin theta, cos theta, 0, 0, 0) along the
contour, X5 = (v cos theta, v sin theta, 1, 0, 0) along the apparent motion,
X2 = d/dtheta and X4 = d/dv, in the canonical basis (d/dq1, d/dq2, d/ds,
d/dtheta, d/dv); they are the drifts of the Monte Carlo kernel paths.

Everything here is pure: no global state, no RNG, safe to call from any
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Closed forms for the integral curves degenerate as the fiber-motion
# coefficients vanish; below this threshold the analytic limit is used.
SMALL_COEFF = 1e-8


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:  # fmod can land exactly on 2*pi after the add
        theta -= TWO_PI
    return theta


def angle_distance(a: float, b: float) -> float:
    """Distance between two angles measured on the circle."""
    d = math.fmod(a - b, TWO_PI)
    if d < -math.pi:
        d += TWO_PI
    elif d > math.pi:
        d -= TWO_PI
    return abs(d)


def _check_finite(name: str, *values: float) -> None:
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{name} has non-finite component {value!r}")


@dataclass(frozen=True)
class ManifoldPoint:
    """Point (q1, q2, s, theta, v) of the full 5D manifold.

    theta is stored reduced to [0, 2*pi); all fields must be finite.
    """

    q1: float
    q2: float
    s: float
    theta: float
    v: float

    def __post_init__(self):
        _check_finite("ManifoldPoint", self.q1, self.q2, self.s, self.theta, self.v)
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.s, self.theta, self.v])

    def distance(self, other: "ManifoldPoint") -> float:
        """Max componentwise distance, angles compared on the circle."""
        return max(
            abs(self.q1 - other.q1),
            abs(self.q2 - other.q2),
            abs(self.s - other.s),
            angle_distance(self.theta, other.theta),
            abs(self.v - other.v),
        )


@dataclass(frozen=True)
class ContourPoint:
    """Point (q1, q2, theta, v) of the fixed-time slice manifold."""

    q1: float
    q2: float
    theta: float
    v: float

    def __post_init__(self):
        _check_finite("ContourPoint", self.q1, self.q2, self.theta, self.v)
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.theta, self.v])


MANIFOLD_ORIGIN = ManifoldPoint(0.0, 0.0, 0.0, 0.0, 0.0)
CONTOUR_ORIGIN = ContourPoint(0.0, 0.0, 0.0, 0.0)


def _rot(theta: float, x: float, y: float) -> tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    return c * x - s * y, s * x + c * y


def compose(a: ManifoldPoint, b: ManifoldPoint) -> ManifoldPoint:
    """Smooth composition law on the 5D manifold.

    Returns (R_{ta}(q_b + (v_a, 0) s_b) + q_a, s_a + s_b, ta + tb, v_a + v_b).
    The velocity entering the translation term is the LEFT element's v, which
    makes the law consistent with the Galilei product under the embedding
    u = R_theta (v, 0); see ``galilei_compose``.  The law has neutral element
    0 and left inverses but is not associative.
    """
    x = b.q1 + a.v * b.s
    y = b.q2
    rx, ry = _rot(a.theta, x, y)
    return ManifoldPoint(
        rx + a.q1, ry + a.q2, b.s + a.s, b.theta + a.theta, b.v + a.v
    )


def left_inverse(eta: ManifoldPoint) -> ManifoldPoint:
    """Left inverse for ``compose``: compose(left_inverse(eta), eta) == 0."""
    x = eta.q1 - eta.v * eta.s
    y = eta.q2
    rx, ry = _rot(-eta.theta, x, y)
    return ManifoldPoint(-rx, -ry, -eta.s, -eta.theta, -eta.v)


def contour_curve(xi0: ContourPoint, k: float, c: float, t: float) -> ContourPoint:
    """Constant-coefficient integral curve of X1 + k X2 + c X4.

    k is the Euclidean curvature of the spatial projection (a circular arc of
    radius 1/k for k != 0, a straight line otherwise) and c the rate of
    change of the carried velocity label.  The closed form is used away from
    k = 0 and the straight-line limit below ``SMALL_COEFF``.
    """
    _check_finite("contour_curve", k, c, t)
    theta_t = xi0.theta + k * t
    v_t = xi0.v + c * t
    if abs(k) < SMALL_COEFF:
        q1 = xi0.q1 - t * math.sin(xi0.theta)
        q2 = xi0.q2 + t * math.cos(xi0.theta)
    else:
        q1 = xi0.q1 + (math.cos(theta_t) - math.cos(xi0.theta)) / k
        q2 = xi0.q2 + (math.sin(theta_t) - math.sin(xi0.theta)) / k
    return ContourPoint(q1, q2, theta_t, v_t)


def trajectory_curve(eta0: ManifoldPoint, w: float, a: float, t: float) -> ManifoldPoint:
    """Constant-coefficient integral curve of X5 + w X2 + a X4.

    w is the angular velocity of the heading and a the tangential
    acceleration.  For w != 0 the closed form uses the auxiliary radius
    rho = sqrt(a^2 + v0^2 w^2) / w^2 and phase phi = atan2(v0 w, a); for
    w -> 0 it degenerates continuously into straight motion
    q0 + (v0 t + a t^2 / 2)(cos theta0, sin theta0).  Always s(t) = s0 + t,
    theta(t) = theta0 + w t and v(t) = v0 + a t.
    """
    _check_finite("trajectory_curve", w, a, t)
    theta0, v0 = eta0.theta, eta0.v
    theta_t = theta0 + w * t
    v_t = v0 + a * t
    s_t = eta0.s + t
    if abs(w) < SMALL_COEFF:
        arc = v0 * t + 0.5 * a * t * t
        q1 = eta0.q1 + arc * math.cos(theta0)
        q2 = eta0.q2 + arc * math.sin(theta0)
    else:
        rho = math.sqrt(a * a + v0 * v0 * w * w) / (w * w)
        phi = math.atan2(v0 * w, a)
        q1 = (
            eta0.q1
            + rho * (math.cos(theta_t - phi) - math.cos(theta0 - phi))
            + (a / w) * t * math.sin(theta_t)
        )
        q2 = (
            eta0.q2
            + rho * (math.sin(theta_t - phi) - math.sin(theta0 - phi))
            - (a / w) * t * math.cos(theta_t)
        )
    return ManifoldPoint(q1, q2, s_t, theta_t, v_t)


@dataclass(frozen=True)
class GalileiElement:
    """Element (q, s, theta, u) of the planar Galilei group, u a 2-vector."""

    q1: float
    q2: float
    s: float
    theta: float
    u1: float
    u2: float

    def __post_init__(self):
        _check_finite(
            "GalileiElement", self.q1, self.q2, self.s, self.theta, self.u1, self.u2
        )
        object.__setattr__(self, "theta", wrap_angle(self.theta))


GALILEI_IDENTITY = GalileiElement(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def galilei_compose(g: GalileiElement, h: GalileiElement) -> GalileiElement:
    """Semidirect-product law (R_t q' + u s' + q, s'+s, t'+t, R_t u' + u)."""
    rqx, rqy = _rot(g.theta, h.q1, h.q2)
    rux, ruy = _rot(g.theta, h.u1, h.u2)
    return GalileiElement(
        rqx + g.u1 * h.s + g.q1,
        rqy + g.u2 * h.s + g.q2,
        h.s + g.s,
        h.theta + g.theta,
        rux + g.u1,
        ruy + g.u2,
    )


def embed_galilei(eta: ManifoldPoint) -> GalileiElement:
    """Embed via u = R_theta (v, 0): boost aligned with the orientation."""
    u1, u2 = _rot(eta.theta, eta.v, 0.0)
    return GalileiElement(eta.q1, eta.q2, eta.s, eta.theta, u1, u2)


def project_galilei(g: GalileiElement) -> ManifoldPoint:
    """Invert ``embed_galilei``; fails if the boost is not orientation-aligned.

    Raises ValueError when u is not of the form R_theta (v, 0) within a
    relative 1e-9, i.e. when the element does not lie on the embedded
    manifold.
    """
    # v is the signed component of u along the orientation direction
    cx, cy = _rot(-g.theta, g.u1, g.u2)
    if abs(cy) > 1e-9 * max(1.0, abs(cx)):
        raise ValueError(
            f"Galilei element is off the embedded section: transverse boost {cy!r}"
        )
    return ManifoldPoint(g.q1, g.q2, g.s, g.theta, cx)


def rk4_curve(start: np.ndarray, rhs, t_final: float) -> np.ndarray:
    """Fixed-step RK4 integrator used as the reference oracle for curves.

    Steps of dt = 1e-3; the step count is ceil(t_final / dt) with the last
    step shortened to land exactly on t_final, and fixed stepping keeps
    oracle results bit-reproducible.
    """
    dt = 1e-3
    state = np.asarray(start, dtype=float).copy()
    if t_final == 0.0:
        return state
    n_full = int(math.floor(abs(t_final) / dt))
    sign = 1.0 if t_final > 0 else -1.0
    steps = [sign * dt] * n_full
    rem = t_final - sign * dt * n_full
    if abs(rem) > 1e-15:
        steps.append(rem)
    for h in steps:
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def contour_rhs(k: float, c: float):
    """Right-hand side of the contour generator in coordinates (q1,q2,th,v)."""

    def rhs(state: np.ndarray) -> np.ndarray:
        _, _, th, _ = state
        return np.array([-math.sin(th), math.cos(th), k, c])

    return rhs


def trajectory_rhs(w: float, a: float):
    """Right-hand side of the trajectory generator in (q1,q2,s,th,v)."""

    def rhs(state: np.ndarray) -> np.ndarray:
        _, _, _, th, v = state
        return np.array([v * math.cos(th), v * math.sin(th), 1.0, w, a])

    return rhs
