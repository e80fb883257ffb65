"""End-to-end runs through the command-line entry point."""

import json
from pathlib import Path

import pytest

import motionlift.kernels as kmod
from motionlift.cli import main


def _outputs(out: Path) -> dict:
    files = [out / "manifest.json", *out.glob("activity/*.vol"), *out.glob("exports/*.csv")]
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(files)}


def test_experiment1_rerun_on_shared_kernel_cache_is_byte_identical(tmp_path):
    # the first run estimates and fills the cache, the second reads it back
    cache = tmp_path / "kernels"
    runs = []
    for tag in ("miss", "hit"):
        out = tmp_path / tag
        code = main(["experiment1", "--scale", "0.2", "--set", "n_paths=8192",
                     "--seed", "101", "--out", str(out), "--kernel-cache", str(cache)])
        assert code == 0
        assert not (out / "lifted").exists()
        runs.append(_outputs(out))
    assert len(runs[0]) >= 7  # manifest, 3 activity volumes, 3 exports
    assert runs[0] == runs[1]


def test_experiment2_scale_shrinks_the_sweep_gaps_with_the_kernel(tmp_path):
    # at half scale the kernel reaches 8 frames, so an unscaled 12-frame gap
    # could never be bridged; the gap must shrink to 6 frames with it
    out = tmp_path / "traj"
    code = main(["experiment2", "--scale", "0.5", "--dt", "12", "--dtheta", "0",
                 "--set", "n_paths=8192", "--set", "n_theta=8", "--set", "n_v=5",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["kernel_n_ds"] == 8
    assert manifest["config"]["sweep"] == [[6, 0.0]]
    assert manifest["gap_table"][0]["energy_positive"] > 0


def test_experiment1_outputs_do_not_depend_on_the_thread_count(tmp_path):
    # 20k paths are 3 Monte Carlo batches, spread over every available CPU
    # by default
    runs = []
    for tag, threads in (("one", ["--threads", "1"]), ("default", [])):
        out = tmp_path / tag
        code = main(["experiment1", "--scale", "0.2", "--set", "n_paths=20000",
                     "--out", str(out), *threads])
        assert code == 0
        runs.append(_outputs(out))
    assert len(runs[0]) >= 7
    assert runs[0] == runs[1]


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["experiment1", "--scale", "0.2", "--set", "n_paths=100"],
    ["experiment2", "--scale", "0.5", "--set", "n_paths=100"],
    ["kernel", "--mode", "contour", "--paths", "100", "--seed", "1"],
])
def test_thread_count_below_one_is_a_usage_error(tmp_path, monkeypatch, command, value):
    # small runs, so that a parser that let the value through fails fast
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(kmod, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", value, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
