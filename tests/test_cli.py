"""End-to-end runs through the command-line entry point."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motionlift import experiments
from motionlift import io as vio
from motionlift.cli import _eval_number, apply_config, main, parse_config_text
from motionlift.experiments import Experiment1Config, Experiment2Config
from motionlift.gabor import (
    GaborBank,
    LiftedActivity,
    ManifoldGrid,
    StimulusVolume,
    energy_filter,
    threshold_activity,
)
from motionlift.kernels import KernelGrid, SdeSpec, contour_lattice, trajectory_lattice
from motionlift.population import facilitate
from motionlift.stimuli import dashed_circle, occluded_trajectory, plane_wave


def _outputs(out: Path) -> dict:
    files = [out / "manifest.json", *out.glob("activity/*.vol"), *out.glob("exports/*.csv"),
             *out.glob("kernels/gamma*.knl")]
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(files)}


def _empty_dirs(out: Path) -> list:
    return [p for p in out.rglob("*") if p.is_dir() and not any(p.iterdir())]


# perfbench's seconds-long trajectory configuration: two sweep points, both
# bridged by a 6-frame kernel
TINY_EXPERIMENT2 = [
    "experiment2", "--set", "size=21", "--set", "n_frames=12", "--set", "n_theta=4",
    "--set", "n_v=3", "--set", "kernel_halfwidth=4", "--set", "kernel_n_ds=6",
    "--set", "n_paths=8192",
    "--set", "sweep=[[2, 0.5235987755982988], [4, 0.7853981633974483]]",
]


def test_experiment1_rerun_on_shared_kernel_cache_is_byte_identical(tmp_path):
    # the first run estimates and fills the cache, the second reads it back
    cache = tmp_path / "kernels"
    runs = []
    for tag in ("miss", "hit"):
        out = tmp_path / tag
        code = main(["experiment1", "--scale", "0.2", "--set", "n_paths=8192",
                     "--seed", "101", "--out", str(out), "--kernel-cache", str(cache)])
        assert code == 0
        assert _empty_dirs(out) == []
        runs.append(_outputs(out))
    assert len(runs[0]) >= 8  # manifest, 3 activity volumes, 3 exports, kernel
    assert runs[0] == runs[1]


def test_experiment2_outputs_do_not_depend_on_the_kernel_cache_or_thread_count(tmp_path):
    # one thread fills the shared cache, then every CPU reads it back
    cache = tmp_path / "kernels"
    runs = []
    for tag, threads in (("miss", ["--threads", "1"]), ("hit", [])):
        out = tmp_path / tag
        assert main([*TINY_EXPERIMENT2, "--out", str(out), "--kernel-cache", str(cache),
                     *threads]) == 0
        assert _empty_dirs(out) == []
        runs.append(_outputs(out))
    # manifest, 2 interaction volumes, 12 isosurface exports, the gap table, kernel
    assert len(runs[0]) == 17
    assert runs[0] == runs[1]
    # every CPU on a fresh cache estimates the same kernel as one thread did
    out = tmp_path / "fresh"
    assert main([*TINY_EXPERIMENT2, "--out", str(out)]) == 0
    assert _empty_dirs(out) == []
    assert _outputs(out) == runs[0]


def test_experiment2_scale_shrinks_the_sweep_gaps_with_the_kernel(tmp_path):
    # at half scale the kernel reaches 8 frames, so an unscaled 12-frame gap
    # could never be bridged; the gap must shrink to 6 frames with it
    out = tmp_path / "traj"
    code = main(["experiment2", "--scale", "0.5", "--set", "sweep=[[12, 0]]",
                 "--set", "n_paths=8192", "--set", "n_theta=8", "--set", "n_v=5",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["kernel_n_ds"] == 8
    assert manifest["config"]["sweep"] == [[6, 0.0]]
    assert manifest["gap_table"][0]["energy_positive"] > 0


def test_a_kernel_run_warms_the_experiment2_cache(tmp_path, monkeypatch):
    # one set of config keys, the sweep among them, serves both commands
    cold = tmp_path / "cold"
    assert main([*TINY_EXPERIMENT2, "--seed", "7", "--out", str(cold)]) == 0
    cache = tmp_path / "cache"
    assert main(["kernel", "--mode", "trajectory", *TINY_EXPERIMENT2[1:], "--seed", "7",
                 "--out", f"{cache}/"]) == 0
    [written] = cache.iterdir()
    assert written.read_bytes() == (cold / "kernels" / written.name).read_bytes()

    def refuse(*_args, **_kwargs):
        raise AssertionError("the kernel was estimated, not read from the cache")

    monkeypatch.setattr(experiments, "estimate_kernel", refuse)
    warm = tmp_path / "warm"
    assert main([*TINY_EXPERIMENT2, "--seed", "7", "--out", str(warm),
                 "--kernel-cache", str(cache)]) == 0
    assert _outputs(warm) == _outputs(cold)


def test_the_default_trajectory_kernel_has_mass_on_every_frame_offset(tmp_path):
    # the horizon is the kernel's n_ds frames, so paths reach the last ds plane,
    # under experiment 2's diffusion
    out = tmp_path / "gamma.knl"
    assert main(["kernel", "--mode", "trajectory", "--set", "n_paths=4000",
                 "--out", str(out)]) == 0
    kernel = vio.read_kernel(out)
    cfg = Experiment2Config(n_paths=4000)
    assert kernel.spec == cfg.model()[1]
    mass = kernel.values.sum(axis=(0, 1, 3, 4))
    assert mass.shape == (cfg.kernel_n_ds,) and (mass > 0).all()


def test_experiment1_outputs_do_not_depend_on_the_thread_count(tmp_path):
    # 80k paths are 20k walks in 3 Monte Carlo batches, spread over every
    # available CPU by default
    runs = []
    for tag, threads in (("one", ["--threads", "1"]), ("default", [])):
        out = tmp_path / tag
        code = main(["experiment1", "--scale", "0.2", "--set", "n_paths=80000",
                     "--out", str(out), *threads])
        assert code == 0
        runs.append(_outputs(out))
    assert len(runs[0]) >= 7
    assert runs[0] == runs[1]


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["experiment1", "--scale", "0.2", "--set", "n_paths=100"],
    ["experiment2", "--scale", "0.5", "--set", "n_paths=100"],
    ["kernel", "--mode", "contour", "--set", "n_paths=100", "--seed", "1"],
    ["facilitate", "--activity", "activity.vol", "--kernel", "kernel.knl"],
])
def test_thread_count_below_one_is_a_usage_error(tmp_path, no_worker_pool, command, value):
    # small runs, so that a parser that let the value through fails fast
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", value, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_filter_s_slice_without_frames_is_a_usage_error(tmp_path):
    stimulus = tmp_path / "stimulus.vol"
    vio.write_volume(stimulus, np.zeros((8, 8, 4)), ("q1", "q2", "s"), kind="raw")
    out = tmp_path / "lifted.vol"
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--stimulus", str(stimulus), "--out", str(out), "--s-slice"])
    assert exc.value.code == 2
    assert not out.exists()


EXIT_CASES = [
    ("unknown-key", 2, "unknown config key 'nosuchkey'"),
    ("missing-config", 3, "nothing.cfg"),
    ("missing-kernel", 3, "kernel.knl"),
    ("not-a-container", 4, "not a volume container"),
    ("orientation-mismatch", 5, "kernel has 8 orientation bins, grid has 6"),
    ("sweep=3", 2, "config key 'sweep': expected a non-empty list"),
    ("sweep=[1, 2]", 2, "got [1, 2]"),
    ("sweep=[[1]]", 2, "got [[1]]"),
    ('sweep=[["a", 0.5]]', 2, 'got [["a", 0.5]]'),
    ("sweep=[[2.5, 0]]", 2, "with a whole delta_t"),
    ("sweep=[]", 2, "got []"),
    ("--slice nosuch=1", 2, "the volume has no axis 'nosuch'"),
    ("--slice s=99", 2, "axis 's' takes an index 0..3"),
    ("--slice s", 2, "axis 's' takes an index 0..3"),
    ("--slice s=-1", 2, "axis 's' takes an index 0..3"),
    ("header=[]", 4, "header is not a JSON object"),
    ("dims=[2.5, 2]", 4, "dims [2.5, 2] are not all whole numbers >= 0"),
    ("dims=[-2, -2]", 4, "dims [-2, -2] are not all whole numbers >= 0"),
    ('axes=["zz", 7, "s"]', 4, "axes ['zz', 7, 's'] are not all among"),
    ("kernel-without-sde", 4, "malformed kernel header: KeyError('sde')"),
    ("kernel-without-kappa", 4, "malformed kernel header: KeyError('kappa')"),
    ("kernel-kappa=-1", 4,
     "malformed kernel header: ValueError('kappa and alpha must be nonnegative')"),
    ("activity-axes", 5, "activity axes ['q1', 'q2', 's', 'theta'] are neither"),
    ("nan-activity", 5, "the activity holds NaN or infinite values"),
    ("filter-axes", 5, "stimulus axes ['q1', 'q2', 'theta'] are not (q1, q2, s)"),
    ("filter-frames", 5, "frames [99] outside the stimulus's frames 0..5"),
    ("kernel --set n_theta=3", 5, "n_theta must be >= 4, got 3"),
    ("kernel --set n_v=4", 5, "n_v must be odd so v = 0 is a bin center, got 4"),
    ("kernel --seed -5", 5, "seed must be >= 0, got -5"),
    # a single slice has no frame pair for a trajectory kernel to link
    ("single-slice-trajectory", 5, "a single-slice activity has no such pair"),
    # a kernel off the layout of its mode is malformed, not gathered
    ("kernel-v-origin", 4,
     "malformed kernel header: ValueError('the v axis must be centred on 0"),
    ("kernel-ds-spacing=2", 4,
     "malformed kernel header: ValueError('the s axis must start at ds = 1 with a spacing of 1"),
    ("kernel-5d-contour-sde", 4,
     'malformed kernel header: ValueError("a contour kernel has the axes'),
]


def _edit_header(path: Path, edit) -> None:
    """Rewrite a container's JSON header as ``edit(header)``, keeping its payload."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, len(vio.MAGIC))
    start = len(vio.MAGIC) + 4
    blob = json.dumps(edit(json.loads(raw[start:start + hlen]))).encode()
    path.write_bytes(vio.MAGIC + struct.pack("<I", len(blob)) + blob + raw[start + hlen:])


@pytest.mark.parametrize("case, code, message", EXIT_CASES, ids=[c[0] for c in EXIT_CASES])
def test_documented_exit_codes(tmp_path, capsys, case, code, message):
    out = tmp_path / "out.vol"
    if case == "unknown-key":
        argv = ["experiment1", "--set", "nosuchkey=1", "--out", str(tmp_path / "run")]
    elif case.startswith("sweep="):
        argv = ["experiment2", "--set", case, "--out", str(tmp_path / "run")]
    elif case == "missing-config":
        argv = ["experiment1", "--config", str(tmp_path / "nothing.cfg"),
                "--out", str(tmp_path / "run")]
    elif case.startswith(("--slice", "header=", "dims=", "axes=")):
        volume = tmp_path / "volume.vol"
        if case.startswith("dims="):
            # a payload as long as the product of the bad dims
            dims = json.loads(case.removeprefix("dims="))
            vio.write_volume(volume, np.zeros((int(np.prod(dims)), 1)), ("q1", "q2"))
            _edit_header(volume, lambda h: {**h, "dims": dims})
        else:
            vio.write_volume(volume, np.zeros((2, 3, 4)), ("q1", "q2", "s"))
            if case == "header=[]":
                _edit_header(volume, lambda h: [])
            elif case.startswith("axes="):
                axes = json.loads(case.removeprefix("axes="))
                _edit_header(volume, lambda h: {**h, "axes": axes})
        argv = ["export", "--volume", str(volume), "--out", str(out)]
        if case.startswith("--slice"):
            argv += case.split()
    elif case.startswith("filter-"):
        stimulus = tmp_path / "stimulus.vol"
        # six orientations of one frame are not a movie
        axes = ("q1", "q2", "theta") if case == "filter-axes" else ("q1", "q2", "s")
        vio.write_volume(stimulus, np.zeros((12, 12, 6)), axes, kind="raw")
        argv = ["filter", "--stimulus", str(stimulus), "--out", str(out)]
        if case == "filter-frames":
            argv += ["--s-slice", "99"]
    elif case.startswith("kernel "):
        # the kernel's fiber lattice is a grid's, with the grid's checks
        argv = ["kernel", "--mode", "contour", "--set", "n_paths=100", "--seed", "1",
                *case.split()[1:], "--out", str(out)]
    else:
        activity = tmp_path / "activity.vol"
        values = np.ones((7, 7, 6, 3))
        if case == "nan-activity":
            values[3, 3, 2, 1] = np.nan
        axes = ("q1", "q2", "theta", "v")
        if case == "activity-axes":  # four frames of one velocity, not an activity
            axes = ("q1", "q2", "s", "theta")
        vio.write_volume(activity, values, axes, kind="facilitation")
        kernel = tmp_path / "kernel.knl"
        if case == "not-a-container":
            kernel.write_bytes(b"not a kernel")
        elif case != "missing-kernel":
            grid = ManifoldGrid(8 if case == "orientation-mismatch" else 6, 3, 1.0)
            if case in ("kernel-ds-spacing=2", "kernel-5d-contour-sde",
                        "single-slice-trajectory"):
                mode, lat = "trajectory", trajectory_lattice(3, 2, grid)
            else:
                mode, lat = "contour", contour_lattice(3, grid)
            vals = np.full(lat.shape, 1.0 / np.prod(lat.shape))
            spec = SdeSpec(mode, 0.1, 0.1, 0.1, 1.0, 1, 0)
            vio.write_kernel(kernel, KernelGrid(lat.axes, lat.origin, lat.spacing, vals, spec))
            if case == "kernel-without-sde":
                _edit_header(kernel, lambda h: {k: x for k, x in h.items() if k != "sde"})
            elif case == "kernel-without-kappa":
                _edit_header(kernel, lambda h: {**h, "sde": {k: x for k, x in h["sde"].items()
                                                             if k != "kappa"}})
            elif case == "kernel-kappa=-1":
                _edit_header(kernel, lambda h: {**h, "sde": {**h["sde"], "kappa": -1}})
            elif case == "kernel-v-origin":  # one bin off centre
                _edit_header(kernel, lambda h: {**h, "origin": [*h["origin"][:-1],
                                                                h["origin"][-1] + 1.0]})
            elif case == "kernel-ds-spacing=2":
                _edit_header(kernel, lambda h: {**h, "spacing": [*h["spacing"][:2], 2.0,
                                                                 *h["spacing"][3:]]})
            elif case == "kernel-5d-contour-sde":
                _edit_header(kernel, lambda h: {**h, "sde": {**h["sde"], "mode": "contour"}})
        argv = ["facilitate", "--activity", str(activity), "--kernel", str(kernel),
                "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() and not (tmp_path / "run").exists()


# small runs, so that a field that slipped through would fail fast
SMALL_EXPERIMENT1 = ["experiment1", "--set", "size=64", "--set", "n_frames=8",
                     "--set", "radius=20", "--set", "kernel_halfwidth=4",
                     "--set", "n_paths=100"]
BAD_FIELDS = [
    (SMALL_EXPERIMENT1, "size=0", "size, n_frames and n_segments must be positive"),
    (SMALL_EXPERIMENT1, "n_frames=0", "size, n_frames and n_segments must be positive"),
    (SMALL_EXPERIMENT1, "n_segments=0", "size, n_frames and n_segments must be positive"),
    (SMALL_EXPERIMENT1, "radius=-5", "radius and segment width must be positive"),
    (SMALL_EXPERIMENT1, "segment_width=0", "radius and segment width must be positive"),
    (SMALL_EXPERIMENT1, "gap_fraction=1", "gap_fraction must be in (0, 1), got 1.0"),
    (SMALL_EXPERIMENT1, "samples_per_gap=0", "samples_per_gap must be >= 1, got 0"),
    (TINY_EXPERIMENT2, "eccentricity=0.5", "eccentricity must be >= 1, got 0.5"),
    (TINY_EXPERIMENT2, "speed=-1", "speed must be >= 0 and minor_axis positive"),
    (TINY_EXPERIMENT2, "minor_axis=0", "speed must be >= 0 and minor_axis positive"),
    (TINY_EXPERIMENT2, "sweep=[[2, 0.5], [-2, 0]]", "t1 and delta_t must be nonnegative"),
    (TINY_EXPERIMENT2, "sweep=[[2, 0.5], [12, 0]]",
     "t1 + delta_t = 12 must be < n_frames = 12"),
]


@pytest.mark.parametrize("command, field, message", BAD_FIELDS,
                         ids=[f"{c[0]}-{f}" for c, f, _ in BAD_FIELDS])
def test_a_bad_stimulus_or_sampling_field_is_a_config_error(tmp_path, capsys, command,
                                                            field, message):
    out = tmp_path / "run"
    assert main([*command, "--set", field, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]  # after any unbridged-gap warning
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    (["--set", "kappa=-1"], "kappa and alpha must be nonnegative"),
    (["--set", "n_paths=0"], "n_paths must be >= 1"),
    (["--set", "n_v=4"], "n_v must be odd so v = 0 is a bin center, got 4"),
    (["--set", "p_modulus=4"], "|p| = 4.0 is not below the Nyquist limit pi"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["kappa=-1", "n_paths=0", "n_v=4", "p_modulus=4", "seed=-1"])
@pytest.mark.parametrize("command", [SMALL_EXPERIMENT1, TINY_EXPERIMENT2],
                         ids=["experiment1", "experiment2"])
def test_a_bad_model_is_refused_before_any_output(tmp_path, capsys, command, override,
                                                  message):
    # the grid, the lift's bank, the SDE and the kernel lattice are built
    # before the output tree, so nothing of it is written
    out = tmp_path / "run"
    assert main([*command, *override, "--out", str(out)]) == 5
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", [SMALL_EXPERIMENT1, TINY_EXPERIMENT2],
                         ids=["experiment1", "experiment2"])
def test_scale_must_be_finite_and_positive(tmp_path, no_worker_pool, command, value):
    # a scale of 0 rounds every gap to 0 frames and clamps every size to its
    # floor, and nan or inf cannot size a grid
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--scale", value, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("scale", ["0.1", "0.01"])
@pytest.mark.parametrize("command", [["experiment2"], ["kernel", "--mode", "trajectory"]],
                         ids=["experiment2", "kernel"])
def test_a_scale_that_merges_sweep_points_is_a_config_error(tmp_path, capsys, no_worker_pool,
                                                            command, scale):
    # at 0.1 the default sweep's gaps of 6 and 12 frames both round to 1; at
    # 0.01 every gap rounds to 0
    out = tmp_path / "run"
    assert main([*command, "--scale", scale, "--set", "n_paths=100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "so sweep points merge" in err
    assert not out.exists()


def test_python_dash_m_motionlift_returns_the_cli_exit_code(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("nosuchkey = 1\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["experiment1", "--config", str(config), "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-m", "motionlift", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 2
    assert "unknown config key 'nosuchkey'" in proc.stderr
    assert not (tmp_path / "run").exists()


def _facilitate_inputs(tmp_path: Path) -> tuple[Path, Path]:
    """A 5-frame activity volume and a trajectory kernel that fits it."""
    activity = tmp_path / "activity.vol"
    vals = np.random.default_rng(4).uniform(0, 1, (9, 9, 5, 6, 3))
    vals[:, :, 2] = 0.0
    vio.write_volume(activity, vals, ("q1", "q2", "s", "theta", "v"), kind="facilitation")
    lat = trajectory_lattice(3, 3, ManifoldGrid(6, 3, 1.0))
    kvals = np.random.default_rng(5).uniform(0, 1, lat.shape)
    spec = SdeSpec("trajectory", 0.1, 0.1, 0.1, 1.0, 1, 0)
    kernel = tmp_path / "kernel.knl"
    vio.write_kernel(kernel, KernelGrid(lat.axes, lat.origin, lat.spacing,
                                        kvals / kvals.sum(), spec))
    return activity, kernel


def test_facilitate_with_one_velocity_bin_matches_the_api(tmp_path):
    # one velocity bin has d_v = 1 at any v_m, the v spacing of its kernel
    stimulus, lifted, kernel, out = (tmp_path / name for name in
                                     ("bar.vol", "lifted.vol", "kernel.knl", "out.vol"))
    assert main(["make-stimulus", "--kind", "bar", "--dims", "16", "16", "6",
                 "--out", str(stimulus)]) == 0
    assert main(["filter", "--stimulus", str(stimulus), "--n-theta", "8", "--n-v", "1",
                 "--out", str(lifted)]) == 0
    assert main(["kernel", "--mode", "contour", "--set", "n_theta=8", "--set", "n_v=1",
                 "--set", "n_paths=2000", "--set", "kernel_halfwidth=3", "--seed", "1",
                 "--out", str(kernel)]) == 0
    assert main(["facilitate", "--activity", str(lifted), "--kernel", str(kernel),
                 "--out", str(out)]) == 0
    values, _ = vio.read_volume(lifted)
    act = LiftedActivity(ManifoldGrid(8, 1), values.astype(np.float64), "facilitation",
                         np.arange(values.shape[2]))
    want = facilitate(act, vio.read_kernel(kernel)).values
    got, _ = vio.read_volume(out)
    assert want.any()
    assert np.array_equal(got, want.astype(got.dtype))


def test_filter_with_a_gain_thresholds_the_api_lift(tmp_path):
    stimulus, lifted = tmp_path / "bar.vol", tmp_path / "lifted.vol"
    assert main(["make-stimulus", "--kind", "bar", "--dims", "16", "16", "6",
                 "--out", str(stimulus)]) == 0
    assert main(["filter", "--stimulus", str(stimulus), "--n-theta", "4", "--n-v", "3",
                 "--mu", "10", "--beta", "0.4", "--out", str(lifted)]) == 0
    data, _ = vio.read_volume(stimulus)
    raw = energy_filter(StimulusVolume(data.astype(np.float64)),
                        GaborBank(ManifoldGrid(4, 3, 1.0), math.pi / 2))
    want = threshold_activity(raw, 10.0, 0.4).values
    got, header = vio.read_volume(lifted)
    assert header["kind"] == "thresholded"
    assert np.array_equal(got, want.astype(got.dtype))


def test_export_slice_writes_the_api_csv(tmp_path):
    activity, _ = _facilitate_inputs(tmp_path)
    values, header = vio.read_volume(activity)
    out, want = tmp_path / "out.csv", tmp_path / "want.csv"
    assert main(["export", "--volume", str(activity), "--slice", "s=1", "--slice", "v=2",
                 "--out", str(out)]) == 0
    vio.export_slice_csv(want, values, header["axes"], {"s": 1, "v": 2})
    assert out.read_text() == want.read_text()
    assert out.read_text().startswith("q1,q2,theta,value\n")


@pytest.mark.parametrize("kind", ["circle", "plane-wave"])
def test_make_stimulus_renders_the_api_stimulus(tmp_path, kind):
    out = tmp_path / "stimulus.vol"
    if kind == "circle":
        argv = ["--set", "size=32", "--set", "n_frames=4", "--set", "radius=10"]
        stim, truth = dashed_circle(
            Experiment1Config(size=32, n_frames=4, radius=10.0).stimulus_spec())
    else:
        argv = ["--dims", "12", "10", "5", "--p", "1.2", "--theta", "0.7", "--v", "0.8"]
        stim, truth = plane_wave((12, 10, 5), 1.2, 0.7, 0.8)
    assert main(["make-stimulus", "--kind", kind, *argv, "--out", str(out)]) == 0
    got, header = vio.read_volume(out)
    assert np.array_equal(got, stim.data.astype(got.dtype))
    assert header["provenance"]["truth"] == json.loads(json.dumps(truth))


def test_facilitate_output_does_not_depend_on_the_thread_count(tmp_path):
    activity, kernel = _facilitate_inputs(tmp_path)
    outs = []
    for tag, threads in (("one", ["--threads", "1"]), ("three", ["--threads", "3"]),
                         ("default", [])):
        out = tmp_path / f"{tag}.vol"
        assert main(["facilitate", "--activity", str(activity), "--kernel", str(kernel),
                     "--out", str(out), *threads]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_output_directory_is_created(tmp_path):
    activity, kernel = _facilitate_inputs(tmp_path)
    out = tmp_path / "no" / "such" / "dir" / "out.vol"
    assert main(["facilitate", "--activity", str(activity), "--kernel", str(kernel),
                 "--out", str(out)]) == 0
    values, _ = vio.read_volume(out)
    assert values.shape == (9, 9, 5, 6, 3)
    csv = tmp_path / "other" / "dir" / "out.csv"
    assert main(["export", "--volume", str(out), "--iso", "0.5", "--out", str(csv)]) == 0
    assert csv.read_text().startswith("q1,q2,s,theta,v,value")
    # a missing input is still exit 3, and leaves no output directory behind
    missing = tmp_path / "gone" / "out.vol"
    assert main(["facilitate", "--activity", str(tmp_path / "nothing.vol"),
                 "--kernel", str(kernel), "--out", str(missing)]) == 3
    assert not missing.parent.exists()


def test_experiment2_leaves_every_facilitate_output_as_returned(tmp_path, monkeypatch):
    # perfbench's traced runs keep the last output facilitate returned and
    # check it against the explicit gather, so the pipeline must not change it
    returned = []

    def recording(*args, **kwargs):
        out = facilitate(*args, **kwargs)
        returned.append((out, out.values.copy()))
        return out

    monkeypatch.setattr(experiments, "facilitate", recording)
    out = tmp_path / "traj"
    assert main([*TINY_EXPERIMENT2, "--set", "sweep=[[2, 0.5]]", "--out", str(out)]) == 0
    # the first part with the all-ones frame, then the second part with the band
    assert len(returned) == 2
    assert all(np.array_equal(act.values, kept) for act, kept in returned)


def test_experiment2_flags_gaps_the_kernel_cannot_bridge(tmp_path, capsys):
    # a 4-frame kernel bridges a 2-frame gap (3 frames from the last frame
    # before it to the reappearance) but not a 4-frame one (5 frames)
    out = tmp_path / "traj"
    code = main(["experiment2", "--set", "size=21", "--set", "n_frames=16",
                 "--set", "n_theta=4", "--set", "n_v=3", "--set", "kernel_halfwidth=4",
                 "--set", "kernel_n_ds=4", "--set", "n_paths=8192",
                 "--set", "sweep=[[3, 0.5], [4, 0.5]]", "--out", str(out)])
    assert code == 0
    rows = json.loads((out / "manifest.json").read_text())["gap_table"]
    assert [(r["delta_t"], r["bridged"]) for r in rows] == [(3, True), (4, False)]
    err = capsys.readouterr().err
    assert err.count("warning: ") == 1
    assert "dT=4 " in err and "bridged: false" in err


def test_iso_export_takes_the_shell_of_the_sliced_volume(tmp_path):
    # three frames with different shells; --slice s=1 keeps frame 1 alone
    values = np.zeros((5, 5, 3))
    values[1:4, 1:4, 0] = 1.0
    values[2, 2, 1] = 1.0
    values[:, :, 2] = 1.0
    volume = tmp_path / "v.vol"
    vio.write_volume(volume, values, ("q1", "q2", "s"))
    out, want = tmp_path / "out.csv", tmp_path / "want.csv"
    assert main(["export", "--volume", str(volume), "--iso", "0.5", "--slice", "s=1",
                 "--out", str(out)]) == 0
    assert vio.export_isosurface_points(want, values[:, :, 1], ("q1", "q2"), 0.5) == 1
    assert out.read_text() == want.read_text() == "q1,q2,value\n2.0,2.0,1.0\n"


def test_config_text_skips_comments_and_blank_lines_and_keeps_the_last_key():
    text = "# a comment\n\nsize = 21  # trailing comment\n   \nseed=3\nsize = 25\n"
    assert parse_config_text(text) == {"size": "25", "seed": "3"}


@pytest.mark.parametrize("text, want", [
    ("pi/6", math.pi / 6),
    ("2pi/3", 2 * math.pi / 3),
    ("2*pi/3", 2 * math.pi / 3),
    ("-pi/2", -math.pi / 2),
    ("- pi / 2", -math.pi / 2),
    ("+pi", math.pi),
    ("-3.5", -3.5),
])
def test_pi_expressions_equal_the_math_pi_arithmetic(text, want):
    assert _eval_number(text) == want


def test_set_overrides_the_config_file():
    cfg = apply_config(Experiment2Config(), parse_config_text("size = 21\ntheta_init = pi/2\n"),
                       ["size=25", "theta_init = -pi/2"])
    assert cfg.size == 25 and cfg.theta_init == -math.pi / 2


@pytest.mark.parametrize("line, message", [
    ("size 21", "config line 2: expected 'key = value'"),
    ("n_frames = 2.5", "config key 'n_frames': '2.5' is not an integer"),
    ("mu = nan", "config key 'mu': 'nan' is not a finite number"),
    ("c_f = inf", "config key 'c_f': 'inf' is not a finite number"),
    ("n_paths = 1e400", "config key 'n_paths': '1e400' is not a finite number"),
    ("radius = pi/0", "config key 'radius': float division by zero"),
    # a margin wider than the image leaves no pixel to draw background from
    ("background_margin = 1000", "so no background sample can be drawn"),
])
def test_bad_config_lines_are_usage_errors(tmp_path, capsys, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"seed = 3\n{line}\n")
    out = tmp_path / "run"
    assert main(["experiment1", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_signed_pi_from_a_config_file_and_from_set(tmp_path):
    # either way the heading -pi/2 renders the movie of theta_init = -math.pi / 2
    config = tmp_path / "traj.cfg"
    config.write_text("size = 21\nn_frames = 16\ntheta_init = -pi/2\n")
    cfg = Experiment2Config(size=21, n_frames=16, theta_init=-math.pi / 2)
    want = occluded_trajectory(cfg.stimulus_spec(*cfg.sweep[0]))[0].data.astype("<f4")
    for tag, args in (("file", ["--config", str(config)]),
                      ("set", ["--set", "size=21", "--set", "n_frames=16",
                               "--set", "theta_init=-pi/2"])):
        out = tmp_path / f"{tag}.vol"
        assert main(["make-stimulus", "--kind", "trajectory", *args, "--out", str(out)]) == 0
        assert np.array_equal(vio.read_volume(out)[0], want)
