"""Stimulus generators: ranges, ground truth, temporal splitting."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from motionlift.stimuli import (
    SUPERSAMPLE,
    CircleStimulusSpec,
    StimulusError,
    TrajectoryStimulusSpec,
    circle_fiber_truth,
    dashed_circle,
    occluded_trajectory,
    plane_wave,
    translating_bar,
)


# Oracles: the renderers the direct way, testing every supersample of every
# frame on a dense meshgrid and averaging each pixel's block of samples.

def _dense_grid(n):
    ax = (np.arange(n * SUPERSAMPLE) + 0.5) * (1.0 / SUPERSAMPLE) - 0.5
    return np.meshgrid(ax, ax, indexing="ij")


def _block_mean(mask):
    n = mask.shape[0] // SUPERSAMPLE
    return mask.astype(np.float64).reshape(n, SUPERSAMPLE, n, SUPERSAMPLE).mean(axis=(1, 3))


def dense_circle_frames(spec, frames):
    seg_angle = 2.0 * math.pi / spec.n_segments
    drawn = seg_angle * (1.0 - spec.gap_fraction)
    X, Y = _dense_grid(spec.size)
    out = []
    for t in frames:
        cx, cy = spec.center_at(t)
        dx, dy = X - cx, Y - cy
        in_ring = np.abs(np.hypot(dx, dy) - spec.radius) <= spec.segment_width / 2.0
        phi = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
        out.append(_block_mean(in_ring & (np.mod(phi, seg_angle) <= drawn)))
    return np.stack(out, axis=-1)


def dense_ellipse_frames(spec):
    b = spec.minor_axis / 2.0
    a = spec.eccentricity * b
    X, Y = _dense_grid(spec.size)
    frames = np.zeros((spec.size, spec.size, spec.n_frames))
    for t in spec.visible_frames():
        cx, cy, th = spec.position_at(t)
        dx, dy = X - cx, Y - cy
        along = dx * math.cos(th) + dy * math.sin(th)
        across = -dx * math.sin(th) + dy * math.cos(th)
        frames[:, :, t] = _block_mean((along / b) ** 2 + (across / a) ** 2 <= 1.0)
    return frames


class TestDashedCircle:
    def test_paper_configuration_renders(self):
        spec = CircleStimulusSpec(size=200, n_frames=64, radius=50.0,
                                  segment_width=2.0, velocity=(0.0, 0.5))
        stim, truth = dashed_circle(spec)
        assert stim.dims == (200, 200, 64)
        assert 0.0 <= stim.data.min() and stim.data.max() <= 1.0
        assert stim.data.max() > 0.9  # solid strokes survive supersampling
        assert len(truth["gap_center_angles"]) == 12
        frames = [0, 31, 63]
        assert stim.data[:, :, frames].tobytes() == dense_circle_frames(spec, frames).tobytes()

    @given(size=st.integers(12, 48), n_frames=st.integers(1, 4), n_segments=st.integers(1, 16),
           gap_fraction=st.floats(0.05, 0.95), segment_width=st.floats(0.25, 4.0),
           velocity=st.tuples(st.floats(-0.75, 0.75), st.floats(-0.75, 0.75)),
           reach=st.just(1.0) | st.floats(0.1, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dense_render(self, size, n_frames, n_segments, gap_fraction,
                                      segment_width, velocity, reach):
        # reach 1 puts the ring's margin on the frame's edge (1e-9 inside it)
        room = size / 2.0 - max(map(abs, velocity)) * (n_frames - 1) / 2.0
        assume(room - segment_width > 0.05)
        spec = CircleStimulusSpec(size=size, n_frames=n_frames,
                                  radius=reach * (room - segment_width) - 1e-9,
                                  n_segments=n_segments, segment_width=segment_width,
                                  gap_fraction=gap_fraction, velocity=velocity)
        want = dense_circle_frames(spec, range(n_frames))
        assert dashed_circle(spec)[0].data.tobytes() == want.tobytes()

    def test_zero_velocity_means_identical_frames(self):
        spec = CircleStimulusSpec(size=64, n_frames=5, radius=20.0,
                                  velocity=(0.0, 0.0))
        stim, _ = dashed_circle(spec)
        for t in range(1, 5):
            assert np.array_equal(stim.data[:, :, t], stim.data[:, :, 0])

    def test_center_translates_at_spec_velocity(self):
        spec = CircleStimulusSpec(size=80, n_frames=9, radius=20.0,
                                  velocity=(0.25, 0.5))
        _, truth = dashed_circle(spec)
        c = np.array(truth["center_by_frame"])
        steps = np.diff(c, axis=0)
        assert np.allclose(steps, [0.25, 0.5])

    def test_fiber_truth_normal_velocity(self):
        theta, v = circle_fiber_truth(math.pi / 2, (0.0, 0.5))
        assert theta == pytest.approx(math.pi / 2)
        assert v == pytest.approx(0.5)  # motion along the normal at the top
        theta, v = circle_fiber_truth(0.0, (0.0, 0.5))
        assert v == pytest.approx(0.0, abs=1e-12)  # tangent point: no normal motion

    def test_gap_fraction_dims_the_ring(self):
        base = CircleStimulusSpec(size=64, n_frames=3, radius=20.0,
                                  velocity=(0, 0), gap_fraction=0.2)
        wide = CircleStimulusSpec(size=64, n_frames=3, radius=20.0,
                                  velocity=(0, 0), gap_fraction=0.7)
        s1, _ = dashed_circle(base)
        s2, _ = dashed_circle(wide)
        assert s2.data.sum() < s1.data.sum()

    def test_leaving_frame_raises(self):
        # the spec itself refuses it, so a pipeline does so before any output
        with pytest.raises(StimulusError, match="circle leaves the frame at t=0"):
            CircleStimulusSpec(size=64, n_frames=40, radius=25.0, velocity=(0.0, 1.0))


class TestOccludedTrajectory:
    def test_parts_partition_the_whole(self):
        spec = TrajectoryStimulusSpec(size=51, n_frames=102, t1=45, delta_t=12,
                                      delta_theta=math.pi / 6)
        s3, s1, s2, truth = occluded_trajectory(spec)
        assert np.array_equal(s3.data, s1.data + s2.data)
        # disjoint temporal support
        live1 = np.nonzero(s1.data.sum(axis=(0, 1)))[0]
        live2 = np.nonzero(s2.data.sum(axis=(0, 1)))[0]
        assert live1.max() < spec.t1
        assert live2.min() >= spec.t2
        assert truth["t2"] == 57

    def test_blank_during_occlusion(self):
        spec = TrajectoryStimulusSpec(size=51, n_frames=60, t1=24, delta_t=10,
                                      delta_theta=0.4)
        s3, _, _, _ = occluded_trajectory(spec)
        assert s3.data[:, :, 24:34].sum() == 0.0
        assert s3.data[:, :, 23].sum() > 0
        assert s3.data[:, :, 34].sum() > 0

    def test_unbroken_straight_trajectory(self):
        spec = TrajectoryStimulusSpec(size=51, n_frames=60, t1=30, delta_t=0,
                                      delta_theta=0.0)
        s3, s1, s2, truth = occluded_trajectory(spec)
        assert np.array_equal(s3.data, s1.data + s2.data)
        per_frame = s3.data.sum(axis=(0, 1))
        assert (per_frame > 0).all()
        # piecewise path degenerates to one straight line
        pos = np.array(truth["position_by_frame"])
        d = np.diff(pos[:, :2], axis=0)
        assert np.allclose(d, d[0], atol=1e-12)

    def test_turn_geometry(self):
        spec = TrajectoryStimulusSpec(size=51, n_frames=102, t1=45, delta_t=12,
                                      delta_theta=math.pi / 4, speed=0.5)
        _, _, _, truth = occluded_trajectory(spec)
        pos = np.array(truth["position_by_frame"])
        v_in = pos[spec.t1 - 1, :2] - pos[spec.t1 - 2, :2]
        v_out = pos[spec.t2 + 2, :2] - pos[spec.t2 + 1, :2]
        ang = math.atan2(v_out[1], v_out[0]) - math.atan2(v_in[1], v_in[0])
        assert ang == pytest.approx(math.pi / 4)
        assert np.hypot(*v_in) == pytest.approx(0.5)

    def test_paper_sweep_configurations_representable(self):
        for dt, dth in ((12, math.pi / 6), (12, 5 * math.pi / 12)):
            spec = TrajectoryStimulusSpec(size=51, n_frames=102,
                                          t1=(102 - dt) // 2, delta_t=dt,
                                          delta_theta=dth)
            s3, _, _, _ = occluded_trajectory(spec)
            assert s3.data.max() > 0.5

    @given(size=st.integers(11, 40), eccentricity=st.floats(1.0, 4.0),
           minor_axis=st.floats(0.5, 4.0), speed=st.floats(0.0, 1.5),
           theta_init=st.floats(0.0, 2.0 * math.pi), delta_theta=st.floats(-math.pi, math.pi),
           t1=st.integers(0, 6), delta_t=st.integers(0, 4), after=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dense_render(self, size, eccentricity, minor_axis, speed, theta_init,
                                      delta_theta, t1, delta_t, after):
        # fast objects on small frames leave it in part: the render clips them
        try:
            spec = TrajectoryStimulusSpec(
                size=size, n_frames=t1 + delta_t + after, eccentricity=eccentricity,
                minor_axis=minor_axis, speed=speed, theta_init=theta_init, t1=t1,
                delta_t=delta_t, delta_theta=delta_theta)
        except StimulusError:
            assume(False)
        s3, s1, s2, _ = occluded_trajectory(spec)
        want = dense_ellipse_frames(spec)
        assert s3.data.tobytes() == want.tobytes()
        assert s1.data[:, :, :t1].tobytes() == want[:, :, :t1].tobytes()
        assert s2.data[:, :, spec.t2:].tobytes() == want[:, :, spec.t2:].tobytes()

    def test_invalid_gap_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryStimulusSpec(size=51, n_frames=50, t1=45, delta_t=10)

    def test_eccentricity_below_one_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryStimulusSpec(eccentricity=0.5)

    def test_leaving_frame_raises(self):
        # at t = 0 the object is 19 frames of speed 1 from the centre of a
        # 21-pixel frame; the spec itself refuses it
        with pytest.raises(StimulusError, match="object is fully outside the frame at t=0"):
            TrajectoryStimulusSpec(size=21, n_frames=40, speed=1.0, t1=18, delta_t=2)


class TestCalibrationStimuli:
    def test_plane_wave_contrast_and_speed(self):
        pw, truth = plane_wave((32, 32, 12), math.pi / 2, 0.0, 0.5)
        assert pw.data.min() == pytest.approx(0.0, abs=1e-12)
        assert pw.data.max() == pytest.approx(1.0, abs=1e-12)
        # phase front advances v pixels per frame along theta: after two
        # frames the pattern has moved one pixel toward +x (v = 0.5)
        assert np.allclose(pw.data[1:, :, 2], pw.data[:-1, :, 0])

    def test_plane_wave_alias_guard(self):
        with pytest.raises(StimulusError):
            plane_wave((16, 16, 4), 3.5, 0.0, 0.0)
        with pytest.raises(StimulusError):
            plane_wave((16, 16, 4), math.pi / 2, 0.0, 2.5)

    def test_bar_moves_along_theta(self):
        bar, truth = translating_bar((41, 41, 9), 0.0, 1.0, width=3.0)
        assert bar.data.min() >= 0.0 and bar.data.max() <= 1.0
        coms = []
        for t in range(9):
            frame = bar.data[:, :, t]
            xs = np.arange(41)
            coms.append((frame.sum(axis=1) * xs).sum() / frame.sum())
        steps = np.diff(coms)
        assert np.allclose(steps, 1.0, atol=1e-6)

    def test_bar_orthogonal_extent_full(self):
        bar, _ = translating_bar((33, 33, 3), 0.0, 0.0, width=2.0)
        mid = bar.data[:, :, 1]
        assert (mid.sum(axis=0) > 0).all()  # stripe spans the frame across theta
