"""Command-line interface.

Subcommands wire plain-text configs (``key = value`` lines, ``#`` comments)
to the experiment pipelines and to the individual stages (stimulus
generation, filtering, kernel estimation, facilitation, exports).  Angles
may be written as multiples of pi with one leading sign (``pi/6``, ``2pi/3``,
``2*pi/3``, ``-pi/2``).  Every run writes its resolved configuration and seed
next to its outputs, and rerunning with the same inputs reproduces the
outputs byte for byte.

Exit codes: 0 success, 2 invalid usage or configuration, 3 a named input
file does not exist, 4 malformed volume/kernel file, 5 numerical or
validation failure.
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
    normalized_sde,
    run_experiment1,
    run_experiment2,
)
from .gabor import LiftedActivity, ManifoldGrid, energy_filter, threshold_activity
from .kernels import contour_lattice, estimate_kernel, trajectory_lattice
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
    if target_type is float:
        return float(_eval_number(value))
    if target_type is int:
        num = _eval_number(value)
        if float(num) != int(float(num)):
            raise ValueError(f"{value!r} is not an integer")
        return int(float(num))
    if target_type is tuple:
        return _sweep(json.loads(value))
    raise ValueError(f"unsupported config field type {target_type}")


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
        except (ValueError, json.JSONDecodeError) as exc:
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


def _common_experiment_args(sp):
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, help="override the estimation seed")
    sp.add_argument("--scale", type=float, help="shrink grid dims proportionally")
    _add_threads_arg(sp)
    sp.add_argument("--kernel-cache", help="shared kernel cache directory")
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override one config key")


def cmd_experiment1(args) -> int:
    cfg = apply_config(Experiment1Config(), _load_config_file(args.config), args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.scale is not None:
        cfg = cfg.scaled(args.scale)
    metrics = run_experiment1(cfg, args.out, n_threads=args.threads,
                              kernel_cache=args.kernel_cache)
    for key in ("F0_gap_over_background", "FT_gap_over_background"):
        print(f"{key} = {metrics[key]:.3f}")
    return EXIT_OK


def cmd_experiment2(args) -> int:
    cfg = apply_config(Experiment2Config(), _load_config_file(args.config), args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.dt is not None or args.dtheta is not None:
        if args.dt is None or args.dtheta is None:
            raise CliError("--dt and --dtheta must be given together")
        cfg.sweep = ((int(args.dt), float(args.dtheta)),)
    if args.scale is not None:
        cfg = cfg.scaled(args.scale)
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
    from .gabor import StimulusVolume

    stim = StimulusVolume(data.astype(np.float64))
    grid = ManifoldGrid(data.shape[0], data.shape[1], args.n_theta, args.n_v, args.v_m,
                        s_slices=args.s_slice)
    act = energy_filter(stim, grid, args.p)
    if args.mu is not None:
        act = threshold_activity(act, args.mu, args.beta)
    vio.write_volume(_out_path(args.out), act.values, act.axes, kind=act.kind,
                     provenance={"stimulus_header": header.get("provenance", {})})
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_kernel(args) -> int:
    spec = normalized_sde(args.mode, args.kappa, args.alpha, args.T,
                          args.paths, args.seed)
    if args.mode == "contour":
        lattice = contour_lattice(args.halfwidth, args.n_theta, args.n_v, args.v_m)
    else:
        lattice = trajectory_lattice(args.halfwidth, args.n_ds, args.n_theta,
                                     args.n_v, args.v_m)
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
    dims = values.shape
    n_theta, n_v = dims[3], dims[4]
    lat = kernel.lattice
    v_m = lat.spacing[lat.axes.index("v")] * (n_v - 1) / 2.0
    grid = ManifoldGrid(dims[0], dims[1], n_theta, n_v, v_m)
    act = LiftedActivity(grid, values.astype(np.float64), "facilitation",
                         np.arange(dims[2]))
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

    sp = sub.add_parser("experiment1", help="moving-contour completion pipeline")
    _common_experiment_args(sp)
    sp.set_defaults(func=cmd_experiment1)

    sp = sub.add_parser("experiment2", help="occluded-trajectory integration sweep")
    _common_experiment_args(sp)
    sp.add_argument("--dt", type=int, help="single-instance gap duration (frames)")
    sp.add_argument("--dtheta", type=float, help="single-instance turn angle (rad)")
    sp.set_defaults(func=cmd_experiment2)

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

    sp = sub.add_parser("kernel", help="estimate a connectivity kernel cache")
    sp.add_argument("--mode", required=True, choices=("contour", "trajectory"))
    sp.add_argument("--paths", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--kappa", type=float, default=2.0)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--T", type=float, default=15.0)
    sp.add_argument("--halfwidth", type=int, default=15)
    sp.add_argument("--n-ds", dest="n_ds", type=int, default=16)
    sp.add_argument("--n-theta", dest="n_theta", type=int, default=16)
    sp.add_argument("--n-v", dest="n_v", type=int, default=9)
    sp.add_argument("--v-m", dest="v_m", type=float, default=1.0)
    _add_threads_arg(sp)
    sp.add_argument("--out", required=True)
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
