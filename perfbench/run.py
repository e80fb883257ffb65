"""motionlift benchmark: two pipeline workloads, timed end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from ``src/``
(pure Python, nothing to build).  Each pipeline run is one fresh process
(``perfbench/child.py``) that calls ``motionlift.cli.main``, with the
default thread setting.  Processes run one after another, never at the
same time, until ``--seconds`` have passed (a closed loop with one client).
The seed reaches the program only through the CLI's ``--seed``.

``--trace 0`` reports the end-to-end metrics as medians over the run's
processes: ``wall_s`` (spawn to exit), ``setup_s`` (spawn to end of import,
plus the ``load_or_estimate_kernel`` call), ``point_s`` ((wall - setup) per
sweep point) and ``peak_rss_mb`` (the process's ``ru_maxrss``).

``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics of the traced ones (medians); see ``layer_metrics``.  It
then reruns the first process on the kernel cache that process filled, as a
health probe of the cache-hit path.

Every process's output is checked (exit code, the experiment's own
criterion, byte-identical ``manifest.json`` across the run's processes);
a failed check counts as a failed operation.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The run
record (host, versions, thread variables, load) and, when traced, every
span are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

KERNEL_SPAN = "experiments.load_or_estimate_kernel"
PROCESS_TIMEOUT_S = 100.0  # a run must end within 180 s
ORACLE_TOL = 1e-9  # the fast gather's 1e-10 contract, with margin
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def check_contour(manifest: dict) -> bool:
    """Facilitation must raise the gap/background contrast."""
    m = manifest["metrics"]
    return m["F0_gap_over_background"] > m["FT_gap_over_background"]


def check_trajectory(manifest: dict) -> bool:
    """Every sweep gap must be bridged by some positive interaction."""
    return all(row["energy_positive"] > 0 for row in manifest["gap_table"])


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    points: int      # sweep points per pipeline run
    check: object


# Scaled down from paper scale so that a 45 s run holds five or more
# processes (the medians need them) and 50 runs fit in under an hour.  Every
# process starts from an empty kernel cache.
# contour-cold: experiment 1 at 0.3 of paper scale (60^2 px, 19 frames,
#   16x9 fibers, kernel half-width 4); the 200k-path MC estimate is over half
#   the wall time, then lift, 4D facilitate and exports.
# trajectory: experiment 2 on 31^2 px, 16 frames, 8x5 fibers and a 6-frame
#   kernel that bridges both gaps; seven 5D facilitate calls on one kernel
#   are about three quarters of the wall time.
SWEEP = "[[2, 0.5235987755982988], [4, 0.7853981633974483]]"
WORKLOADS = {
    "contour-cold": Workload(
        ("experiment1", "--scale", "0.3", "--set", "n_paths=200000"), 1, check_contour),
    "trajectory": Workload(
        ("experiment2", "--set", "size=31", "--set", "n_frames=16", "--set", "n_theta=8",
         "--set", "n_v=5", "--set", "kernel_halfwidth=6", "--set", "kernel_n_ds=6",
         "--set", "n_paths=25000", "--set", f"sweep={SWEEP}"), 2, check_trajectory),
}
# Seconds-long stand-ins of the same pipelines, for the self-test only.
TINY = {
    "contour-cold": Workload(
        ("experiment1", "--scale", "0.2", "--set", "n_paths=8192"), 1, check_contour),
    "trajectory": Workload(
        ("experiment2", "--set", "size=21", "--set", "n_frames=12", "--set", "n_theta=4",
         "--set", "n_v=3", "--set", "kernel_halfwidth=4", "--set", "kernel_n_ds=6",
         "--set", "n_paths=8192", "--set", f"sweep={SWEEP}"), 2, check_trajectory),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Sample:
    """One pipeline process: its timings, its output and its record."""

    wall_s: float
    rss_mb: float
    exit_code: int
    t_spawn: float
    record: dict
    manifest: bytes | None
    traced: bool
    ok: bool = False


@dataclass
class Runner:
    workload: Workload
    seed: int
    work: Path
    attempted: int = 0
    failed: int = 0
    reference: bytes | None = None
    samples: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)

    def spawn(self, tag: str, cache: Path, trace: bool, probe: bool = False) -> Sample:
        out = self.work / tag
        record_path = self.work / f"{tag}.json"
        argv = [*self.workload.argv, "--out", str(out), "--seed", str(self.seed),
                "--kernel-cache", str(cache)]
        cmd = [sys.executable, str(CHILD), str(record_path), "1" if trace else "0",
               "--", *argv]
        with open(self.work / f"{tag}.log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=log)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        manifest_path = out / "manifest.json"
        manifest = manifest_path.read_bytes() if manifest_path.exists() else None
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 0 if probe else 1
        sample = Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode, t0, record,
                        manifest, trace)
        sample.ok = sample.exit_code == 0 and manifest is not None
        if not sample.ok and not probe:
            sys.stderr.write((self.work / f"{tag}.log").read_text()[-2000:])
        return sample

    def check(self, sample: Sample) -> None:
        """Output checks of a measured process; a failure counts once."""
        ok = sample.ok and self.workload.check(json.loads(sample.manifest))
        if ok and self.reference is None:
            self.reference = sample.manifest
        ok = ok and sample.manifest == self.reference
        if ok and "oracle" in sample.record:
            ok = sample.record["oracle"]["max_rel_err"] <= ORACLE_TOL
        if not ok:
            self.failed += 1

    def run(self, seconds: float, trace: bool) -> Sample | None:
        """Measure until ``seconds`` pass, each process from an empty kernel
        cache.  When traced, also returns the cache-hit probe."""
        deadline = time.monotonic() + seconds
        i = 0
        while True:
            traced = trace and i % 2 == 1
            sample = self.spawn(f"p{i}", self.work / f"cache-{i}", traced)
            self.check(sample)
            (self.traced if traced else self.samples).append(sample)
            i += 1
            if time.monotonic() >= deadline and (self.traced or not trace):
                break
        if not trace:
            return None
        # A health probe, not a measured operation: rerun the first process on
        # the kernel cache it filled.  Its outcome is reported as counters,
        # never counted as failed.
        return self.spawn("rerun", self.work / "cache-0", trace=True, probe=True)


def _setup_s(sample: Sample) -> float:
    """Spawn to end of import, plus getting the kernel (estimate or read)."""
    rec = sample.record
    kernel = [s for s in rec["spans"] if s["name"] == KERNEL_SPAN]
    return (rec["t_imported"] - sample.t_spawn) + sum(s["end"] - s["start"] for s in kernel)


def _main_s(sample: Sample) -> float:
    """Spawn until ``cli.main`` returned: no interpreter teardown, and no
    post-pipeline checks in traced processes."""
    return sample.record["t_main_done"] - sample.t_spawn


def end_to_end_metrics(samples: list[Sample], points: int) -> dict:
    good = [s for s in samples if s.ok]
    if not good:
        return {}
    setup = [_setup_s(s) for s in good]
    values = {
        "wall_s": statistics.median(s.wall_s for s in good),
        "setup_s": statistics.median(setup),
        "point_s": statistics.median((s.wall_s - su) / points for s, su in zip(good, setup)),
        "peak_rss_mb": statistics.median(s.rss_mb for s in good),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def trace_values(sample: Sample) -> dict:
    """Per-layer busy time, self time, call counts and rates of one traced
    process.  A layer's self time is its spans' durations minus the part
    their child spans cover."""
    spans = sample.record["spans"]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = {layer: 0.0 for layer in ("kernels", "population", "gabor", "stimuli",
                                       "io", "experiments")}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span, covered in zip(spans, child_time):
        duration = span["end"] - span["start"]
        busy[span["name"]] = busy.get(span["name"], 0.0) + duration
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        self_s[span["name"].split(".")[0]] += duration - covered
    c = sample.record["counters"].get
    b = lambda name: busy.get(name, 0.0)  # noqa: E731
    rec = sample.record
    values = {
        "kernels.estimate_kernel_s": b("kernels.estimate_kernel"),
        "kernels.estimate_kernel_n": calls.get("kernels.estimate_kernel", 0),
        "kernels.path_steps_per_s": _ratio(c("kernels.path_steps", 0.0),
                                           b("kernels.estimate_kernel")),
        "kernels.on_lattice_frac": _ratio(c("kernels.raw_weight", 0.0),
                                          c("kernels.attempted_weight", 0.0)),
        "population.facilitate_s": b("population.facilitate"),
        "population.facilitate_n": calls.get("population.facilitate", 0),
        "population.facilitate_repeat_s": rec["facilitate_repeat_s"],
        "population.nodes_per_s": _ratio(c("population.nodes", 0.0),
                                         b("population.facilitate")),
        "population.live_frame_frac": _ratio(c("population.live_frames", 0.0),
                                             c("population.frames", 0.0)),
        "population.steady_s": b("population.steady"),
        "population.f0_saturated_frac": _ratio(c("population.f0_saturated", 0.0),
                                               c("population.f0_values", 0.0)),
        "population.oracle_rel_err": rec["oracle"]["max_rel_err"],
        "gabor.energy_filter_s": b("gabor.energy_filter"),
        "gabor.energy_filter_n": calls.get("gabor.energy_filter", 0),
        "gabor.lift_nodes_per_s": _ratio(c("gabor.lift_nodes", 0.0), b("gabor.energy_filter")),
        "gabor.threshold_s": b("gabor.threshold"),
        "stimuli.render_s": b("stimuli.render"),
        "io.write_kernel_s": b("io.write_kernel"),
        "io.write_volume_s": b("io.write_volume"),
        "io.write_volume_mb": c("io.write_volume_bytes", 0.0) / 1e6,
        "io.export_iso_s": b("io.export_iso"),
        "io.export_rows": c("io.export_rows", 0.0),
        "proc.import_s": rec["t_imported"] - sample.t_spawn,
        "proc.cpu_s": rec["cpu_s"],
    }
    values.update({f"{layer}.self_s": v for layer, v in self_s.items()})
    return values


def layer_metrics(runner: Runner, probe: Sample) -> dict:
    good = [s for s in runner.traced if s.ok and "oracle" in s.record]
    if not good:
        return {}
    per = [trace_values(s) for s in good]
    values = {k: statistics.median(p[k] for p in per) for k in per[0]}
    untraced = [_main_s(s) for s in runner.samples if s.ok]
    values["proc.tracing_overhead_s"] = (statistics.median(_main_s(s) for s in good)
                                         - statistics.median(untraced))
    # the measured processes all estimate; the cache hit is the probe's
    values["io.read_kernel_s"] = sum(s["end"] - s["start"] for s in probe.record.get("spans", [])
                                     if s["name"] == "io.read_kernel")
    cold = runner.samples[0].manifest
    values["experiments.cache_rerun_identical"] = int(cold is not None
                                                      and cold == probe.manifest)
    values["experiments.cache_rerun_exit_code"] = probe.exit_code
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def run_record() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps.get('name')} {deps.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_before": os.getloadavg(),
    }


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-long stand-in workloads (self-test only)")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "motionlift" / "cli.py").is_file():
        print(f"error: no motionlift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    record = run_record()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, work)
        probe = runner.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = layer_metrics(runner, probe)
        expected = PER_LAYER
    else:
        metrics = end_to_end_metrics(runner.samples, workload.points)
        expected = END_TO_END
    failed = runner.failed + (0 if set(metrics) == set(expected) else 1)
    record["loadavg_after"] = os.getloadavg()
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, argv=list(workload.argv))
    record["processes"] = [
        {"wall_s": s.wall_s, "peak_rss_mb": s.rss_mb, "exit": s.exit_code,
         "traced": s.traced}
        for s in runner.samples + runner.traced
    ]
    if args.trace:
        record["spans"] = [span for s in runner.traced for span in s.record.get("spans", [])]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("run record: " + json.dumps({k: v for k, v in record.items()
                                       if k not in ("spans", "processes")}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
