"""Group algebra and curve generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motionlift.geometry import (
    GALILEI_IDENTITY,
    MANIFOLD_ORIGIN,
    ContourPoint,
    GalileiElement,
    ManifoldPoint,
    compose,
    contour_curve,
    contour_rhs,
    embed_galilei,
    galilei_compose,
    left_inverse,
    project_galilei,
    rk4_curve,
    trajectory_curve,
    trajectory_rhs,
)

finite = st.floats(-20.0, 20.0, allow_nan=False)
angles = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
velocities = st.floats(-3.0, 3.0)

points = st.builds(ManifoldPoint, finite, finite, finite, angles, velocities)


def random_point(rng) -> ManifoldPoint:
    return ManifoldPoint(*rng.uniform(-5, 5, 3), rng.uniform(0, 2 * math.pi),
                         rng.uniform(-2, 2))


class TestComposition:
    def test_neutral_element(self):
        eta = ManifoldPoint(1, 2, 3, 0.4, -0.5)
        assert compose(MANIFOLD_ORIGIN, eta).distance(eta) < 1e-15
        assert compose(eta, MANIFOLD_ORIGIN).distance(eta) < 1e-15

    def test_worked_example(self):
        # left element's velocity translates the right element's time
        a = ManifoldPoint(0, 0, 2, math.pi / 2, 1)
        b = ManifoldPoint(1, 0, 0, 0, 0)
        out = compose(a, b)
        assert out.q1 == pytest.approx(0.0, abs=1e-15)
        assert out.q2 == pytest.approx(1.0)
        assert (out.s, out.theta, out.v) == pytest.approx((2.0, math.pi / 2, 1.0))

    @given(points)
    @settings(max_examples=200, deadline=None)
    def test_left_inverse_exact(self, eta):
        assert compose(left_inverse(eta), eta).distance(MANIFOLD_ORIGIN) < 1e-12

    def test_non_associative_counterexample_exists(self):
        rng = np.random.default_rng(5)
        gaps = []
        for _ in range(200):
            a, b, c = (random_point(rng) for _ in range(3))
            gaps.append(compose(compose(a, b), c).distance(compose(a, compose(b, c))))
        assert max(gaps) > 1e-6


class TestGalilei:
    def test_identity(self):
        g = GalileiElement(1, 2, 3, 0.7, 0.4, -0.2)
        for prod in (galilei_compose(GALILEI_IDENTITY, g), galilei_compose(g, GALILEI_IDENTITY)):
            assert np.allclose(
                [prod.q1, prod.q2, prod.s, prod.u1, prod.u2],
                [g.q1, g.q2, g.s, g.u1, g.u2],
            )

    def test_associative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g, h, k = (
                GalileiElement(*rng.uniform(-3, 3, 3), rng.uniform(0, 6.28),
                               *rng.uniform(-2, 2, 2))
                for _ in range(3)
            )
            lhs = galilei_compose(galilei_compose(g, h), k)
            rhs = galilei_compose(g, galilei_compose(h, k))
            vals = lambda e: np.array([e.q1, e.q2, e.s, math.cos(e.theta),
                                       math.sin(e.theta), e.u1, e.u2])
            assert np.abs(vals(lhs) - vals(rhs)).max() < 1e-12

    def test_embedding_consistency_on_matching_angles(self):
        # the Galilei product stays on the embedded section when the right
        # factor carries no rotation (or the left no velocity)
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = random_point(rng)
            b = ManifoldPoint(*rng.uniform(-3, 3, 3), 0.0, rng.uniform(-2, 2))
            g = galilei_compose(embed_galilei(a), embed_galilei(b))
            assert project_galilei(g).distance(compose(a, b)) < 1e-9
        for _ in range(100):
            a = ManifoldPoint(*rng.uniform(-3, 3, 3), rng.uniform(0, 6.28), 0.0)
            b = random_point(rng)
            g = galilei_compose(embed_galilei(a), embed_galilei(b))
            assert project_galilei(g).distance(compose(a, b)) < 1e-9

    def test_projection_rejects_off_section(self):
        with pytest.raises(ValueError):
            project_galilei(GalileiElement(0, 0, 0, 0.0, 0.3, 0.4))


class TestCurves:
    def test_contour_straight_line(self):
        xi0 = ContourPoint(1.0, 2.0, 0.7, -0.3)
        out = contour_curve(xi0, 0.0, 0.0, 2.5)
        assert out.q1 == pytest.approx(1.0 - 2.5 * math.sin(0.7))
        assert out.q2 == pytest.approx(2.0 + 2.5 * math.cos(0.7))
        assert out.theta == pytest.approx(0.7)
        assert out.v == pytest.approx(-0.3)

    def test_contour_circle_radius(self):
        xi0 = ContourPoint(0, 0, 0.3, 0.0)
        k = 0.5
        center = np.array([
            xi0.q1 - math.cos(xi0.theta) / k,
            xi0.q2 - math.sin(xi0.theta) / k,
        ])
        for t in np.linspace(0.0, 8.0, 17):
            p = contour_curve(xi0, k, 0.2, t)
            r = math.hypot(p.q1 - center[0], p.q2 - center[1])
            assert r == pytest.approx(1.0 / k, abs=1e-9)

    def test_contour_vs_rk4(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            xi0 = ContourPoint(*rng.uniform(-2, 2, 2), rng.uniform(0, 6.28),
                               rng.uniform(-1, 1))
            k, c = rng.uniform(-1.5, 1.5, 2)
            t = rng.uniform(0.2, 4.0)
            ref = rk4_curve(np.array([xi0.q1, xi0.q2, xi0.theta, xi0.v]),
                            contour_rhs(k, c), t)
            got = contour_curve(xi0, k, c, t)
            assert abs(got.q1 - ref[0]) < 1e-6
            assert abs(got.q2 - ref[1]) < 1e-6

    def test_constant_direction_with_velocity_rate(self):
        # zero curvature keeps the spatial projection on a straight line
        # even while the velocity label changes
        xi0 = ContourPoint(0, 0, 1.1, 0.0)
        pts = [contour_curve(xi0, 0.0, 0.8, t) for t in np.linspace(0, 3, 7)]
        d = np.array([-math.sin(1.1), math.cos(1.1)])
        for p in pts:
            cross = d[0] * p.q2 - d[1] * p.q1
            assert abs(cross) < 1e-12

    def test_trajectory_straight_motion(self):
        eta0 = ManifoldPoint(1, 2, 0, 0.6, 1.5)
        out = trajectory_curve(eta0, 0.0, 0.0, 3.0)
        assert out.q1 == pytest.approx(1 + 4.5 * math.cos(0.6))
        assert out.q2 == pytest.approx(2 + 4.5 * math.sin(0.6))
        assert out.s == pytest.approx(3.0)

    def test_trajectory_circle_radius(self):
        eta0 = ManifoldPoint(0, 0, 0, 0.0, 2.0)
        w = 0.5
        pts = [trajectory_curve(eta0, w, 0.0, t) for t in np.linspace(0.1, 10, 25)]
        xs = np.array([[p.q1, p.q2] for p in pts])
        # circular trajectory of radius v0/w
        center = np.array([0.0, eta0.v / w])
        radii = np.hypot(xs[:, 0] - center[0], xs[:, 1] - center[1])
        assert np.abs(radii - 2.0 / 0.5).max() < 1e-6

    def test_trajectory_vs_rk4(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            eta0 = ManifoldPoint(*rng.uniform(-2, 2, 2), 0.0,
                                 rng.uniform(0, 6.28), rng.uniform(-2, 2))
            w = rng.uniform(-1.5, 1.5)
            a = rng.uniform(-1.0, 1.0)
            t = rng.uniform(0.0, 5.0)
            ref = rk4_curve(eta0.as_array(), trajectory_rhs(w, a), t)
            got = trajectory_curve(eta0, w, a, t)
            err = np.abs(got.as_array()[:3] - ref[:3]).max()
            assert err < 1e-4

    def test_trajectory_continuous_at_small_w(self):
        eta0 = ManifoldPoint(0.5, -1.0, 0.0, 1.2, 0.8)
        for a in (-0.5, 0.0, 0.7):
            for t in np.linspace(0.0, 5.0, 11):
                lo = trajectory_curve(eta0, 0.0, a, t)
                hi = trajectory_curve(eta0, 1e-6, a, t)
                assert lo.distance(hi) < 1e-3

    def test_fan_covariance_for_zero_velocity_base(self):
        # curves from a v=0 base point are the left translate of the curves
        # from the origin: relative coordinates recover the origin fan
        rng = np.random.default_rng(11)
        for _ in range(40):
            eta0 = ManifoldPoint(*rng.uniform(-3, 3, 3), rng.uniform(0, 6.28), 0.0)
            w = rng.uniform(-1.0, 1.0)
            a = rng.uniform(-0.8, 0.8)
            t = rng.uniform(0.0, 4.0)
            via_base = trajectory_curve(eta0, w, a, t)
            origin_curve = trajectory_curve(MANIFOLD_ORIGIN, w, a, t)
            rel = compose(left_inverse(eta0), via_base)
            assert rel.distance(origin_curve) < 1e-9
            direct = compose(eta0, origin_curve)
            assert direct.distance(via_base) < 1e-9


class TestValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ManifoldPoint(float("nan"), 0, 0, 0, 0)

    def test_angle_stored_wrapped(self):
        eta = ManifoldPoint(0, 0, 0, 3 * math.pi, 0)
        assert 0.0 <= eta.theta < 2 * math.pi
        assert eta.theta == pytest.approx(math.pi)
