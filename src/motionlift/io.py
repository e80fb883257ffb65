"""Bit-exact serialization of volumes and kernel caches, plus CSV exports.

The container is a single self-describing file: an 8-byte magic, a 4-byte
little-endian header length, a JSON header (format version, axis names in
canonical order, dims, spacing, origin, value kind, provenance) and then the
contiguous payload as little-endian 32-bit floats in row-major order with
the last listed axis varying fastest.  Round trips are bit-exact on any
host; endianness is pinned little.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MLVOLUME"
FORMAT_VERSION = 1

CANONICAL_AXES = ("q1", "q2", "s", "theta", "v")


class VolumeFormatError(Exception):
    """Malformed container: bad magic, header, version, dims or payload."""


def config_hash(obj) -> str:
    """Stable short hash of a JSON-serializable configuration object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_volume(
    path,
    values: np.ndarray,
    axes,
    *,
    kind: str = "raw",
    provenance=None,
) -> None:
    """Write a scalar field with named axes to the container format, on a
    unit-spaced grid from the origin."""
    values = np.asarray(values)
    axes = list(axes)
    if values.ndim != len(axes):
        raise VolumeFormatError(
            f"{values.ndim}-d payload with {len(axes)} axis names"
        )
    for name in axes:
        if name not in CANONICAL_AXES:
            raise VolumeFormatError(f"unknown axis name {name!r}")
    header = {
        "format_version": FORMAT_VERSION,
        "axes": axes,
        "dims": list(values.shape),
        "spacing": [1.0] * values.ndim,
        "origin": [0.0] * values.ndim,
        "kind": kind,
        "provenance": provenance or {},
    }
    _write_container(path, header, values)


def _write_container(path, header: dict, values: np.ndarray) -> None:
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def read_volume(path) -> tuple[np.ndarray, dict]:
    """Read a container (volume or kernel); returns (values, header)."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise VolumeFormatError(f"{path}: not a volume container")
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    if len(raw) < start + hlen:
        raise VolumeFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[start : start + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise VolumeFormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise VolumeFormatError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise VolumeFormatError(
            f"{path}: format version {header.get('format_version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    dims = header.get("dims")
    axes = header.get("axes")
    if not isinstance(dims, list) or not isinstance(axes, list) or len(dims) != len(axes):
        raise VolumeFormatError(f"{path}: dims/axes mismatch in header")
    if not all(name in CANONICAL_AXES for name in axes):
        raise VolumeFormatError(f"{path}: axes {axes} are not all among {CANONICAL_AXES}")
    if not all(type(n) is int and n >= 0 for n in dims):
        raise VolumeFormatError(f"{path}: dims {dims} are not all whole numbers >= 0")
    expected = math.prod(dims) * 4
    payload = raw[start + hlen :]
    if len(payload) != expected:
        raise VolumeFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return values, header


def write_kernel(path, kernel, *, provenance=None) -> None:
    """Serialize a KernelGrid with its generating SDE spec and normalization.

    Stored mass must be 1 within 1e-9; enforced on write and on read.
    """
    mass = float(kernel.values.sum())
    if abs(mass - 1.0) > 1e-9:
        raise VolumeFormatError(f"kernel mass {mass!r} is not 1 within 1e-9")
    header = {
        "format_version": FORMAT_VERSION,
        "axes": list(kernel.axes),
        "dims": list(kernel.values.shape),
        "spacing": list(kernel.spacing),
        "origin": list(kernel.origin),
        "kind": "kernel",
        "sde": kernel.spec.to_dict(),
        "normalization": {"stored_mass": 1.0, "raw_weight": kernel.raw_weight},
        "provenance": provenance or {},
    }
    _write_container(path, header, kernel.values)


def read_kernel(path):
    """Read a kernel cache back into a KernelGrid, rescaled to unit mass."""
    from .kernels import KernelGrid, SdeSpec

    values, header = read_volume(path)
    if header.get("kind") != "kernel":
        raise VolumeFormatError(f"{path}: kind {header.get('kind')!r} is not 'kernel'")
    mass = float(values.sum())
    if abs(mass - 1.0) > 1e-6:  # float32 storage rounds the unit mass slightly
        raise VolumeFormatError(f"{path}: stored kernel mass {mass} is not 1")
    # restore unit mass in float64 so the kernel can be written out again
    values = values.astype(np.float64)
    values /= values.sum()
    try:
        return KernelGrid(
            axes=tuple(header["axes"]),
            origin=tuple(header["origin"]),
            spacing=tuple(header["spacing"]),
            values=values,
            spec=SdeSpec.from_dict(header["sde"]),
            raw_weight=header["normalization"].get("raw_weight", 0.0),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise VolumeFormatError(f"{path}: malformed kernel header: {exc!r}") from exc


def bind_axes(values: np.ndarray, axes, bindings: dict) -> tuple[np.ndarray, list]:
    """The field with each axis named in ``bindings`` fixed at its index,
    and the names of the axes left free, in axis order."""
    index = tuple(int(bindings[name]) if name in bindings else slice(None) for name in axes)
    return np.asarray(values)[index], [name for name in axes if name not in bindings]


def export_slice_csv(path, values: np.ndarray, axes, bindings: dict) -> None:
    """Export a slice of a field as CSV.

    ``bindings`` maps axis names to fixed indices; the remaining axes are
    iterated in C order.  Columns are the free axis indices in axis order
    followed by ``value``.  Output is deterministic.
    """
    sliced, free = bind_axes(values, axes, bindings)
    with open(path, "w") as fh:
        fh.write(",".join(free) + ",value\n")
        for coords in np.ndindex(*sliced.shape):
            row = ",".join(str(int(c)) for c in coords)
            fh.write(f"{row},{float(sliced[coords])!r}\n")


def export_isosurface_points(
    path, values: np.ndarray, axes, isovalue: float, *, origin=None, spacing=None
) -> int:
    """Export the isosurface shell of a field as a CSV point cloud.

    A cell belongs to the shell when its value is >= isovalue and at least
    one face neighbor (or the domain boundary) falls below.  Rows carry the
    physical coordinates (origin + index * spacing per axis) and the value,
    emitted in C order.  Returns the number of points written.
    """
    values = np.asarray(values)
    axes = list(axes)
    origin = list(origin) if origin is not None else [0.0] * values.ndim
    spacing = list(spacing) if spacing is not None else [1.0] * values.ndim
    above = values >= isovalue
    padded = np.pad(above, 1)  # the domain boundary counts as below
    interior = above.copy()
    for axis in range(values.ndim):
        for start in (0, 2):  # the face neighbour below, then above
            neighbour = [slice(1, -1)] * values.ndim
            neighbour[axis] = slice(start, start + values.shape[axis])
            interior &= padded[tuple(neighbour)]
    shell = above & ~interior
    idx = np.argwhere(shell)
    # whole columns of Python floats: repr gives the shortest round-trip text
    cols = [map(repr, np.asarray(origin[d] + spacing[d] * idx[:, d], dtype=float).tolist())
            for d in range(values.ndim)]
    cols.append(map(repr, values[shell].astype(float).tolist()))
    with open(path, "w") as fh:
        fh.write(",".join(axes) + ",value\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))
    return int(len(idx))
