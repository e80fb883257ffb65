"""Container round trips, error codes, CSV exports."""

import struct

import numpy as np
import pytest

from motionlift import io as vio
from motionlift.gabor import ManifoldGrid
from motionlift.kernels import KernelGrid, SdeSpec, contour_lattice, estimate_kernel


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(-1, 1, (4, 5, 3, 6, 2)).astype(np.float32)
    path = tmp_path / "field.vol"
    vio.write_volume(path, values, ("q1", "q2", "s", "theta", "v"), kind="raw",
                     provenance={"seed": 7})
    back, header = vio.read_volume(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, values)
    assert header["axes"] == ["q1", "q2", "s", "theta", "v"]
    assert header["provenance"]["seed"] == 7
    # a second write is byte-identical
    path2 = tmp_path / "field2.vol"
    vio.write_volume(path2, values, ("q1", "q2", "s", "theta", "v"), kind="raw",
                     provenance={"seed": 7})
    assert path.read_bytes() == path2.read_bytes()


def test_payload_is_little_endian_row_major(tmp_path):
    values = np.arange(6, dtype=np.float64).reshape(2, 3)
    path = tmp_path / "lt.vol"
    vio.write_volume(path, values, ("q1", "q2"))
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, len(vio.MAGIC))
    payload = raw[len(vio.MAGIC) + 4 + hlen:]
    decoded = np.frombuffer(payload, dtype="<f4")
    assert np.array_equal(decoded, np.arange(6, dtype=np.float32))


def test_version_mismatch_detected(tmp_path):
    path = tmp_path / "v.vol"
    vio.write_volume(path, np.zeros((2, 2)), ("q1", "q2"))
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<I", raw, len(vio.MAGIC))
    start = len(vio.MAGIC) + 4
    header = raw[start:start + hlen].decode().replace(
        '"format_version":1', '"format_version":9')
    path.write_bytes(raw[:start] + header.encode() + raw[start + hlen:])
    with pytest.raises(vio.VolumeFormatError, match="format version 9, expected 1"):
        vio.read_volume(path)


def test_truncated_payload_detected(tmp_path):
    path = tmp_path / "t.vol"
    vio.write_volume(path, np.zeros((4, 4)), ("q1", "q2"))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(vio.VolumeFormatError, match="payload is 56 bytes, expected 64"):
        vio.read_volume(path)


def test_dimension_mismatch_detected(tmp_path):
    path = tmp_path / "d.vol"
    vio.write_volume(path, np.zeros((4, 4)), ("q1", "q2"))
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<I", raw, len(vio.MAGIC))
    start = len(vio.MAGIC) + 4
    header = raw[start:start + hlen].decode().replace('"dims":[4,4]', '"dims":[4,5]')
    path.write_bytes(raw[:start] + header.encode() + raw[start + hlen:])
    with pytest.raises(vio.VolumeFormatError, match="payload is 64 bytes, expected 80"):
        vio.read_volume(path)


def test_not_a_container(tmp_path):
    path = tmp_path / "junk.vol"
    path.write_bytes(b"this is not a volume")
    with pytest.raises(vio.VolumeFormatError):
        vio.read_volume(path)


def test_kernel_round_trip(tmp_path):
    spec = SdeSpec("contour", 0.4, 0.2, 0.02, 2.0, 2000, seed=3)
    lat = contour_lattice(5, ManifoldGrid(8, 5, 1.0))
    kernel = estimate_kernel(spec, lat)
    path = tmp_path / "k.knl"
    vio.write_kernel(path, kernel)
    back = vio.read_kernel(path)
    assert back.spec == spec
    assert back.axes == kernel.axes
    assert abs(back.values.sum() - 1.0) < 1e-6
    assert np.allclose(back.values, kernel.values.astype(np.float32), atol=0)


def test_kernel_mass_enforced(tmp_path):
    spec = SdeSpec("contour", 0.4, 0.2, 0.02, 2.0, 100, seed=3)
    lat = contour_lattice(4, ManifoldGrid(8, 5, 1.0))
    kernel = estimate_kernel(spec, lat)
    kernel.values *= 2.0
    with pytest.raises(vio.VolumeFormatError):
        vio.write_kernel(tmp_path / "bad.knl", kernel)


def test_export_slice_csv_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, (3, 4, 2))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    vio.export_slice_csv(p1, values, ("q1", "q2", "s"), {"s": 1})
    vio.export_slice_csv(p2, values, ("q1", "q2", "s"), {"s": 1})
    text = p1.read_text()
    assert text == p2.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "q1,q2,value"
    assert len(lines) == 1 + 12
    assert float(lines[1].split(",")[-1]) == values[0, 0, 1]


@pytest.mark.parametrize("bindings", [{}, {"s": 1}, {"q1": 2, "s": 0}, {"q1": 0, "q2": 3, "s": 1}])
def test_export_slice_csv_matches_row_by_row_format(tmp_path, bindings):
    values = np.random.default_rng(2).uniform(-1, 1, (3, 4, 2)).astype(np.float32)
    axes = ("q1", "q2", "s")
    path = tmp_path / "slice.csv"
    vio.export_slice_csv(path, values, axes, bindings)
    # every cell of the slice, printed one row at a time in C order
    index = tuple(bindings.get(name, slice(None)) for name in axes)
    sliced = values[index]
    lines = [",".join(name for name in axes if name not in bindings) + ",value"]
    for coords in np.ndindex(*sliced.shape):
        lines.append(",".join(str(c) for c in coords) + f",{float(sliced[coords])!r}")
    assert path.read_text() == "\n".join(lines) + "\n"


def test_export_isosurface_shell(tmp_path):
    values = np.zeros((9, 9))
    yy, xx = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
    values[(xx - 4) ** 2 + (yy - 4) ** 2 <= 9] = 1.0
    path = tmp_path / "iso.csv"
    n = vio.export_isosurface_points(path, values, ("q1", "q2"), 0.5)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == n + 1
    # the filled interior is excluded, only the shell remains
    assert n < np.count_nonzero(values)
    assert n > 0


ISO_FIELDS = [  # (shape, origin, spacing) in 3D, 4D and 5D
    ((6, 5, 4), (-2.5, 1.0, 0.1), (0.5, 2.0, 0.3)),
    ((5, 4, 3, 6), (-3.0, -0.7, 0.0, -1.25), (0.1, 0.3, 0.7853981633974483, 0.25)),
    ((4, 3, 3, 4, 3), (-1.5, -1.5, 1.0, -0.3, -2.0), (0.75, 0.75, 1.0, 1.5707963267948966, 2.0)),
]


def test_export_isosurface_matches_row_by_row_format(tmp_path):
    for shape, origin, spacing in ISO_FIELDS:
        values = np.random.default_rng(3).uniform(0, 1, shape)
        axes = ("q1", "q2", "s", "theta", "v")[:len(shape)]
        path = tmp_path / "iso.csv"
        n = vio.export_isosurface_points(path, values, axes, 0.4, origin=origin, spacing=spacing)
        # the shell, recomputed the slow way, printed one row at a time
        above = values >= 0.4
        pad = np.pad(above, 1, constant_values=False)
        inner = (slice(1, -1),) * len(shape)
        interior = above.copy()
        for axis in range(len(shape)):
            for step in (1, -1):
                interior &= np.roll(pad, step, axis=axis)[inner]
        lines = [",".join(axes) + ",value"]
        for coords in np.argwhere(above & ~interior):
            phys = [float(origin[d] + spacing[d] * coords[d]) for d in range(len(shape))]
            lines.append(",".join(repr(p) for p in phys) + f",{float(values[tuple(coords)])!r}")
        assert n == len(lines) - 1 > 0, shape
        assert path.read_text() == "\n".join(lines) + "\n", shape


def test_export_isosurface_of_an_empty_shell_is_the_header(tmp_path):
    path = tmp_path / "iso.csv"
    n = vio.export_isosurface_points(path, np.zeros((4, 3, 2)), ("q1", "q2", "s"), 0.5,
                                     origin=(-1.0, 0.0, 2.0), spacing=(0.5, 1.0, 3.0))
    assert n == 0
    assert path.read_text() == "q1,q2,s,value\n"


def test_config_hash_stability():
    h1 = vio.config_hash({"b": 2, "a": [1, 2]})
    h2 = vio.config_hash({"a": [1, 2], "b": 2})
    assert h1 == h2 and len(h1) == 16
    assert vio.config_hash({"a": [1, 3], "b": 2}) != h1
