"""End-to-end runs through the command-line entry point."""

from pathlib import Path

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
