"""Command-line interface.

Subcommands wire plain-text configs (``key = value`` lines, ``#`` comments)
to the experiment pipelines and to the individual stages (stimulus
generation, filtering, kernel estimation, facilitation, exports).  The
experiment commands and ``kernel`` resolve an experiment's config alike
(defaults, ``--config``, ``--set``, ``--seed``, ``--scale``), and ``kernel``
estimates the kernel of that experiment's model.  Angles may be written as
multiples of pi with one leading sign (``pi/6``, ``2pi/3``, ``2*pi/3``,
``-pi/2``).  Every run writes its resolved configuration and seed next to
its outputs, and rerunning with the same inputs reproduces the outputs byte
for byte.

Exit codes: 0 success, 2 invalid usage or configuration, 3 a named input
file does not exist, 4 malformed volume/kernel file (a kernel whose axes
are off the layout of its SDE's mode, or that holds a NaN or infinite
value, included), 5 numerical or validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io as vio
from .experiments import (
    Experiment1Config,
    Experiment2Config,
    kernel_cache_path,
    run_experiment1,
    run_experiment2,
)
from .gabor import (
    GaborBank,
    LiftedActivity,
    ManifoldGrid,
    StimulusVolume,
    energy_filter,
    threshold_activity,
)
from .kernels import estimate_kernel
from .population import facilitate
from .stimuli import (
    StimulusError,
    dashed_circle,
    occluded_trajectory,
    plane_wave,
    translating_bar,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_KERNEL = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; later keys override earlier ones."""
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError(f"config line {ln}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(value: str, target_type):
    """A config value as its field's type: a sweep, or a finite float or int."""
    if target_type is tuple:
        return _sweep(json.loads(value))
    num = float(_eval_number(value))
    if not math.isfinite(num):
        raise ValueError(f"{value!r} is not a finite number")
    if target_type is int and not num.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return target_type(num)


def _sweep(points) -> tuple:
    """A sweep: a non-empty JSON list of [delta_t, delta_theta] number
    pairs, where delta_t is a whole number of frames."""
    def number(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)

    if not isinstance(points, list) or not points or not all(
        isinstance(p, list) and len(p) == 2 and all(map(number, p)) and float(p[0]).is_integer()
        for p in points
    ):
        raise ValueError("expected a non-empty list of [delta_t, delta_theta] number pairs "
                         f"with a whole delta_t, got {json.dumps(points)}")
    return tuple((int(dt), float(dth)) for dt, dth in points)


def _eval_number(value: str) -> float:
    """Numbers may use 'pi' with one leading sign (e.g. 'pi/6', '-2pi/3') for angles."""
    token = value.replace(" ", "")
    if "pi" in token:
        sign, token = (-1.0, token[1:]) if token[0] == "-" else (1.0, token.removeprefix("+"))
        token = token.replace("pi", f"*{math.pi}").lstrip("*")
        num, _, den = token.partition("/")
        result = _product(num)
        if den:
            result /= _product(den)
        return sign * result
    return float(token)


def _product(token: str) -> float:
    parts = [p for p in token.split("*") if p]
    result = 1.0
    for p in parts:
        result *= float(p)
    return result


def apply_config(cfg, mapping: dict, overrides: list[str] | None = None):
    """Fill a config dataclass from string keys, then --set overrides."""
    merged = dict(mapping)
    for item in overrides or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    fields = {f.name: f for f in dataclasses.fields(cfg)}
    for key, value in merged.items():
        if key not in fields:
            raise CliError(f"unknown config key {key!r}")
        ftype = type(getattr(cfg, key))
        try:
            setattr(cfg, key, _coerce(value, ftype))
        except (ValueError, ArithmeticError) as exc:
            raise CliError(f"config key {key!r}: {exc}") from exc
    return cfg


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    return parse_config_text(Path(path).read_text())


def _thread_count(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _scale_factor(value: str) -> float:
    x = float(value)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {value}")
    return x


def _add_threads_arg(sp):
    if hasattr(os, "sched_getaffinity"):
        default = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without CPU affinity
        default = os.cpu_count() or 1
    sp.add_argument("--threads", type=_thread_count, default=default,
                    help="workers of the Monte Carlo kernel estimate and of the "
                         "FFT facilitation gather, started once per call; while more "
                         "than one runs, numpy's OpenBLAS is held at one thread "
                         "(default: every CPU this process may use); outputs are "
                         "bit-identical for any count")


def _out_path(out) -> Path:
    """The ``--out`` file path, with its parent directory created."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _experiment_args(sp):
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override one config key")
    sp.add_argument("--seed", type=int, help="override the estimation seed")
    sp.add_argument("--scale", type=_scale_factor, help="shrink grid dims proportionally")
    _add_threads_arg(sp)


def _experiment_config(cls, args):
    """An experiment's config: its defaults, then ``--config``, ``--set``,
    ``--seed`` and ``--scale``."""
    cfg = apply_config(cls(), _load_config_file(args.config), args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.scale is not None:
        cfg = cfg.scaled(args.scale)
    return cfg


def cmd_experiment1(args) -> int:
    cfg = _experiment_config(Experiment1Config, args)
    metrics = run_experiment1(cfg, args.out, n_threads=args.threads,
                              kernel_cache=args.kernel_cache)
    for key in ("F0_gap_over_background", "FT_gap_over_background"):
        print(f"{key} = {metrics[key]:.3f}")
    return EXIT_OK


def cmd_experiment2(args) -> int:
    cfg = _experiment_config(Experiment2Config, args)
    for dt, dth in cfg.sweep:
        if not cfg.bridges(int(dt)):
            print(f"warning: sweep point dT={int(dt)} dtheta={float(dth):.4f}: a "
                  f"{cfg.kernel_n_ds}-frame kernel cannot bridge this gap, so its "
                  f"interaction is zero by construction (bridged: false)",
                  file=sys.stderr)
    table = run_experiment2(cfg, args.out, n_threads=args.threads,
                            kernel_cache=args.kernel_cache)
    for row in table:
        print(
            f"dT={row['delta_t']:>3} dtheta={row['delta_theta']:.4f} "
            f"gap_energy={row['energy']:.4f}"
        )
    return EXIT_OK


def cmd_make_stimulus(args) -> int:
    out = _out_path(args.out)
    if args.kind == "circle":
        cfg = apply_config(Experiment1Config(), _load_config_file(args.config), args.set)
        stim, truth = dashed_circle(cfg.stimulus_spec())
    elif args.kind == "trajectory":
        cfg = apply_config(Experiment2Config(), _load_config_file(args.config), args.set)
        dt0, dth0 = cfg.sweep[0]
        stim, _s1, _s2, truth = occluded_trajectory(cfg.stimulus_spec(int(dt0), float(dth0)))
    elif args.kind == "plane-wave":
        stim, truth = plane_wave(tuple(args.dims), args.p, args.theta, args.v)
    elif args.kind == "bar":
        stim, truth = translating_bar(tuple(args.dims), args.theta, args.v, args.width)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown stimulus kind {args.kind}")
    vio.write_volume(out, stim.data, ("q1", "q2", "s"), kind="raw",
                     provenance={"truth": truth})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_filter(args) -> int:
    data, header = vio.read_volume(args.stimulus)
    axes = tuple(header["axes"])
    if axes != ("q1", "q2", "s"):
        raise CliError(f"{args.stimulus}: stimulus axes {list(axes)} are not (q1, q2, s)",
                       EXIT_NUMERIC)
    stim = StimulusVolume(data.astype(np.float64))
    grid = ManifoldGrid(args.n_theta, args.n_v, args.v_m)
    act = energy_filter(stim, GaborBank(grid, args.p), args.s_slice)
    if args.mu is not None:
        act = threshold_activity(act, args.mu, args.beta)
    vio.write_volume(_out_path(args.out), act.values, act.axes, kind=act.kind,
                     provenance={"stimulus_header": header.get("provenance", {})})
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_kernel(args) -> int:
    cls = Experiment1Config if args.mode == "contour" else Experiment2Config
    _grid, spec, lattice = _experiment_config(cls, args).model()
    kernel = estimate_kernel(spec, lattice, args.threads)
    out = Path(args.out)
    if out.is_dir() or args.out.endswith("/"):
        out = kernel_cache_path(out, spec, lattice)
    vio.write_kernel(_out_path(out), kernel,
                     provenance={"config_hash": vio.config_hash(spec.to_dict())})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_facilitate(args) -> int:
    values, header = vio.read_volume(args.activity)
    if not np.isfinite(values).all():
        raise CliError(f"{args.activity}: the activity holds NaN or infinite values",
                       EXIT_NUMERIC)
    kernel = vio.read_kernel(args.kernel)
    axes = tuple(header["axes"])
    if axes == ("q1", "q2", "theta", "v"):  # single-slice field stored without its s axis
        values = values[:, :, None]
    elif axes != ("q1", "q2", "s", "theta", "v"):
        raise CliError(f"{args.activity}: activity axes {list(axes)} are neither "
                       "(q1, q2, theta, v) nor (q1, q2, s, theta, v)", EXIT_NUMERIC)
    if kernel.spec.mode == "trajectory" and values.shape[2] < 2:
        raise CliError(f"{args.activity}: a trajectory kernel links frames 1 to n_ds apart, "
                       "and a single-slice activity has no such pair", EXIT_NUMERIC)
    n_v = values.shape[4]
    # the grid whose d_v is the kernel's v spacing (one velocity bin has d_v = 1 at any v_m)
    d_v = kernel.spacing[kernel.axes.index("v")]
    grid = ManifoldGrid(values.shape[3], n_v, d_v * max(n_v - 1, 1) / 2.0)
    act = LiftedActivity(grid, values.astype(np.float64), "facilitation",
                         np.arange(values.shape[2]))
    out_act = facilitate(act, kernel, args.threads)
    vio.write_volume(_out_path(args.out), out_act.values, out_act.axes,
                     kind="facilitation",
                     provenance={"kernel": kernel.spec.to_dict()})
    print(f"wrote {args.out}")
    return EXIT_OK


def _slice_bindings(items, axes, shape) -> dict:
    """``--slice AXIS=INDEX`` items as {axis: index}, each index in range."""
    bindings = {}
    for item in items:
        key, _, idx = item.partition("=")
        if key not in axes:
            raise CliError(f"--slice {item}: the volume has no axis {key!r} (axes: {axes})")
        size = shape[axes.index(key)]
        if not idx.strip().isdecimal() or int(idx) >= size:
            raise CliError(f"--slice {item}: axis {key!r} takes an index 0..{size - 1}")
        bindings[key] = int(idx)
    return bindings


def cmd_export(args) -> int:
    values, header = vio.read_volume(args.volume)
    axes = header["axes"]
    bindings = _slice_bindings(args.slice or [], axes, values.shape)
    out = _out_path(args.out)
    if args.iso is not None:
        sliced, free = vio.bind_axes(values, axes, bindings)
        n = vio.export_isosurface_points(out, sliced, free, args.iso)
        print(f"wrote {out} ({n} points)")
    else:
        vio.export_slice_csv(out, values, axes, bindings)
        print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="motionlift", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("experiment1", cmd_experiment1, "moving-contour completion pipeline"),
        ("experiment2", cmd_experiment2, "occluded-trajectory integration sweep"),
    ):
        sp = sub.add_parser(name, help=text)
        _experiment_args(sp)
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--kernel-cache", help="shared kernel cache directory")
        sp.set_defaults(func=func)

    sp = sub.add_parser("make-stimulus", help="render a synthetic stimulus volume")
    sp.add_argument("--kind", required=True,
                    choices=("circle", "trajectory", "plane-wave", "bar"))
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sp.add_argument("--dims", type=int, nargs=3, default=[64, 64, 16],
                    metavar=("NX", "NY", "NT"))
    sp.add_argument("--p", type=float, default=math.pi / 2)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--v", type=float, default=0.5)
    sp.add_argument("--width", type=float, default=2.0)
    sp.set_defaults(func=cmd_make_stimulus)

    sp = sub.add_parser("filter", help="lift a stimulus volume to energies")
    sp.add_argument("--stimulus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--p", type=float, default=math.pi / 2)
    sp.add_argument("--v-m", dest="v_m", type=float, default=1.0)
    sp.add_argument("--n-theta", dest="n_theta", type=int, default=16)
    sp.add_argument("--n-v", dest="n_v", type=int, default=9)
    sp.add_argument("--s-slice", dest="s_slice", type=int, nargs="+")
    sp.add_argument("--mu", type=float, help="apply the sigmoid with this gain")
    sp.add_argument("--beta", type=float, default=0.5)
    sp.set_defaults(func=cmd_filter)

    sp = sub.add_parser(
        "kernel", help="estimate an experiment's connectivity kernel",
        description="Estimate experiment 1's (contour) or 2's (trajectory) kernel from "
                    "its config, whose other keys are ignored.  n_paths counts paths in "
                    "the histogram: ceil(n_paths / 4) walks, each deposited with its "
                    "three mirror images.")
    sp.add_argument("--mode", required=True, choices=("contour", "trajectory"))
    _experiment_args(sp)
    sp.add_argument("--out", required=True,
                    help="kernel file, or a directory (existing, or ending in /) taken as "
                         "the experiment's kernel cache, which --kernel-cache reads")
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("facilitate", help="apply a kernel to an activity volume")
    sp.add_argument("--activity", required=True)
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--out", required=True)
    _add_threads_arg(sp)
    sp.set_defaults(func=cmd_facilitate)

    sp = sub.add_parser("export", help="CSV exports from a volume")
    sp.add_argument("--volume", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--iso", type=float, help="isosurface shell at this value")
    sp.add_argument("--slice", action="append", metavar="AXIS=INDEX",
                    help="fix AXIS at INDEX (repeatable); the slice CSV or the --iso "
                         "shell covers the axes left free")
    sp.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_KERNEL
    except vio.VolumeFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except StimulusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
