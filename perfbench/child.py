"""Run one ``motionlift`` CLI invocation in this process and record timings.

Usage: python3 perfbench/child.py RECORD.json TRACE -- <motionlift arguments>

The pipeline runs through ``motionlift.cli.main``, exactly as the
``motionlift`` console script runs it.  Untraced (TRACE=0), the only function
wrapped is ``experiments.load_or_estimate_kernel``, whose span gives the
set-up time.  Traced (TRACE=1), every public layer function the pipelines
call is wrapped from here, so spans are recorded without touching the
package; after the pipeline the last ``facilitate`` call is repeated and
spot-checked against the explicit gather.

RECORD.json receives monotonic timestamps (comparable with the parent's
clock on Linux), the spans, the counters and the oracle result.  The exit
code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from motionlift import cli, experiments, kernels, population  # noqa: E402
from motionlift import io as vio  # noqa: E402

T_IMPORTED = time.monotonic()

KERNEL_SPAN = "experiments.load_or_estimate_kernel"
ORACLE_NODES = 4
SATURATED = 1.0 - 1e-6


class Tracer:
    """In-memory spans (name, start, end, parent, run id) plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.monotonic(), "end": None,
                    "parent": self.stack[-1] if self.stack else None,
                    "run": self.run_id}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self.stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced


class Capture:
    """The last facilitate call, kept for the repeat timing and the oracle."""

    activity = None
    kernel = None
    output = None


def install_tracing(tracer: Tracer, capture: Capture) -> None:
    def on_estimate(kernel, spec, lattice, *_a, **_k):
        tracer.add("kernels.path_steps", spec.n_paths * spec.n_steps)
        tracer.add("kernels.raw_weight", kernel.raw_weight)
        tracer.add("kernels.attempted_weight", spec.n_paths * spec.T)

    def on_facilitate(out, activity, kernel, *_a, **_k):
        capture.activity, capture.kernel, capture.output = activity, kernel, out
        frame_mass = np.abs(activity.values).sum(axis=(0, 1, 3, 4))
        tracer.add("population.nodes", out.values.size)
        tracer.add("population.frames", frame_mass.size)
        tracer.add("population.live_frames", int(np.count_nonzero(frame_mass)))

    def on_steady(out, *_a, **_k):
        tracer.add("population.f0_values", out.values.size)
        tracer.add("population.f0_saturated", int(np.count_nonzero(out.values > SATURATED)))

    def on_lift(out, *_a, **_k):
        tracer.add("gabor.lift_nodes", out.values.size)

    def on_write_volume(_out, path, *_a, **_k):
        tracer.add("io.write_volume_bytes", Path(path).stat().st_size)

    def on_export(rows, *_a, **_k):
        tracer.add("io.export_rows", rows)

    # The pipelines look these names up in experiments' namespace (or through
    # the ``vio`` module alias), so patching there reaches every call site.
    patches = [
        (cli, "run_experiment1", "experiments.run", None),
        (cli, "run_experiment2", "experiments.run", None),
        (experiments, "load_or_estimate_kernel", KERNEL_SPAN, None),
        (experiments, "dashed_circle", "stimuli.render", None),
        (experiments, "occluded_trajectory", "stimuli.render", None),
        (experiments, "energy_filter", "gabor.energy_filter", on_lift),
        (experiments, "threshold_activity", "gabor.threshold", None),
        (experiments, "estimate_kernel", "kernels.estimate_kernel", on_estimate),
        (experiments, "facilitate", "population.facilitate", on_facilitate),
        (experiments, "activity_steady", "population.steady", on_steady),
        (experiments, "facilitation_difference", "population.steady", None),
        (vio, "read_kernel", "io.read_kernel", None),
        (vio, "write_kernel", "io.write_kernel", None),
        (vio, "write_volume", "io.write_volume", on_write_volume),
        (vio, "export_isosurface_points", "io.export_iso", on_export),
    ]
    for module, attr, name, after in patches:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))


def explicit_gather(activity, kernel, node) -> float:
    """Facilitation at one output node as the explicit sum over the kernel's
    support, with weights from ``kernel_lookup`` on the truncated kernel.

    Mirrors ``population.facilitate_reference`` for a single output node; the
    input window is cut to the offsets where the lookup can be nonzero.
    """
    trunc = kernels.KernelGrid(
        axes=kernel.axes, origin=kernel.origin, spacing=kernel.spacing,
        values=population.truncated_kernel_values(kernel), spec=kernel.spec,
        raw_weight=kernel.raw_weight,
    )
    grid = activity.grid
    vals = activity.values
    nx, ny, ns, nth, nv = vals.shape
    x, y, so, i_o, j_o = node
    h = (kernel.values.shape[0] - 1) // 2
    reach = int(math.ceil((h + 1) * math.sqrt(2.0)))
    thetas, vs = grid.thetas, grid.vs
    total = 0.0
    for sp in range(ns):
        if trunc.is_trajectory:
            ds = float(activity.s_frames[so] - activity.s_frames[sp])
            if not 0.0 < ds < kernel.values.shape[2] + 1:
                continue
        elif sp != so:
            continue
        else:
            ds = 0.0
        for i_p in range(nth):
            c, s = math.cos(-thetas[i_p]), math.sin(-thetas[i_p])
            dth = (thetas[i_o] - thetas[i_p]) % (2.0 * math.pi)
            for j_p in range(nv):
                shear = vs[j_p] * ds if trunc.is_trajectory else 0.0
                cx = x - shear
                x_lo = max(0, int(math.floor(cx - reach)))
                x_hi = min(nx - 1, int(math.ceil(cx + reach)))
                y_lo, y_hi = max(0, y - reach), min(ny - 1, y + reach)
                if x_lo > x_hi or y_lo > y_hi:
                    continue
                f = vals[x_lo : x_hi + 1, y_lo : y_hi + 1, sp, i_p, j_p]
                if not f.any():
                    continue
                ax = cx - np.arange(x_lo, x_hi + 1, dtype=float)[:, None]
                ay = y - np.arange(y_lo, y_hi + 1, dtype=float)[None, :]
                rel1 = c * ax - s * ay
                rel2 = s * ax + c * ay
                pts = [rel1, rel2, np.full_like(rel1, dth),
                       np.full_like(rel1, vs[j_o] - vs[j_p])]
                if trunc.is_trajectory:
                    pts.insert(2, np.full_like(rel1, ds))
                w = kernels.kernel_lookup(trunc, np.stack(pts, axis=-1).reshape(-1, len(pts)))
                total += float(np.dot(w, f.reshape(-1)))
    return total


def oracle_check(capture: Capture, seed: int) -> dict:
    """Relative error of the fast facilitate output at seeded nodes where
    the output is not negligible."""
    out = capture.output.values
    scale = float(np.abs(out).max())
    candidates = np.argwhere(np.abs(out) >= 1e-3 * scale)
    rng = np.random.default_rng(seed)
    picks = candidates[rng.choice(len(candidates), size=min(ORACLE_NODES, len(candidates)),
                                  replace=False)]
    worst = 0.0
    for node in picks:
        node = tuple(int(i) for i in node)
        ref = explicit_gather(capture.activity, capture.kernel, node)
        worst = max(worst, abs(out[node] - ref) / abs(ref))
    rank = len(capture.kernel.axes)
    return {"rank": rank, "nodes": len(picks), "max_rel_err": worst}


def _seed_of(argv: list[str]) -> int:
    return int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    record: dict = {"t_imported": T_IMPORTED}
    tracer = Tracer(run_id=Path(record_path).stem)
    capture = Capture()
    if trace:
        install_tracing(tracer, capture)
    else:  # set-up ends when the kernel is in hand; nothing else is wrapped
        experiments.load_or_estimate_kernel = tracer.wrap(
            KERNEL_SPAN, experiments.load_or_estimate_kernel)
    code = cli.main(argv)
    record["t_main_done"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    if trace and code == 0:
        t0 = time.monotonic()
        population.facilitate(capture.activity, capture.kernel)
        record["facilitate_repeat_s"] = time.monotonic() - t0
        record["oracle"] = oracle_check(capture, _seed_of(argv))
    record["spans"] = tracer.spans
    record["counters"] = tracer.counters
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
