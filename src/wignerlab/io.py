"""Deterministic file I/O: the WIG1 binary field format, lossless CSV
tables, and canonical JSON reports.

WIG1 layout (little-endian throughout):

    offset  size        content
    0       8           magic b"WIG1FLD\\x00"
    8       4 (u32)     format version (currently 1)
    12      4 (u32)     rank (number of array dimensions)
    16      4 (u32)     flags (bit 0: complex data)
    20      4 (u32)     reserved (zero)
    24      8*rank      dims, u64 each, row-major order
    ...     8*6 (f64)   dx, dp, x_min, hbar, mass, time
    ...     payload     row-major f64; complex fields store interleaved
                        (real, imag) pairs

CSV cells are written with 17 significant digits, which round-trips
IEEE-754 doubles exactly; JSON reports use sorted keys and a fixed
separator style so identical inputs produce identical bytes.
"""

import json
import struct

import numpy as np

from .errors import ConfigError
from .grid import PhaseGrid

__all__ = [
    "write_field", "read_field", "write_csv", "write_json", "format_float",
]

MAGIC = b"WIG1FLD\x00"
FORMAT_VERSION = 1
FLAG_COMPLEX = 0x1


def write_field(path, values: np.ndarray, grid: PhaseGrid,
                time: float = 0.0) -> None:
    """Write an array tied to a phase-space grid in the WIG1 format."""
    values = np.asarray(values)
    is_complex = np.iscomplexobj(values)
    flags = FLAG_COMPLEX if is_complex else 0
    header = MAGIC + struct.pack(
        "<IIII", FORMAT_VERSION, values.ndim, flags, 0)
    header += struct.pack(f"<{values.ndim}Q", *values.shape)
    header += struct.pack("<6d", grid.dx, grid.dp, grid.x_min,
                          grid.hbar, grid.mass, time)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(values.astype("<c16" if is_complex else "<f8",
                                   copy=False).tobytes())


def read_field(path):
    """Read a WIG1 file; returns (values, meta dict).

    meta carries dx, dp, x_min, hbar, mass, and time exactly as written.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:8] != MAGIC:
        raise ConfigError(f"{path}: not a WIG1 field file")
    version, rank, flags, _ = struct.unpack_from("<IIII", blob, 8)
    if version != FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported format version {version}")
    offset = 24
    dims = struct.unpack_from(f"<{rank}Q", blob, offset)
    offset += 8 * rank
    dx, dp, x_min, hbar, mass, time = struct.unpack_from("<6d", blob, offset)
    offset += 48
    count = int(np.prod(dims))
    dtype = np.dtype("<c16" if flags & FLAG_COMPLEX else "<f8")
    if len(blob) - offset < count * dtype.itemsize:
        raise ConfigError(f"{path}: truncated payload")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    meta = {"dx": dx, "dp": dp, "x_min": x_min, "hbar": hbar,
            "mass": mass, "time": time}
    return data.reshape(dims).copy(), meta


def format_float(value) -> str:
    """Decimal form with 17 significant digits (lossless for f64)."""
    return format(float(value), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a table with a header row; numeric cells are lossless.

    "%.17g" formats a number as format_float does; a row holding a
    string cell falls back to formatting cell by cell.
    """
    lines = [",".join(header)]
    template = ",".join(["%.17g"] * len(header))
    for row in rows:
        row = tuple(row)
        try:
            lines.append(template % row)
        except TypeError:
            lines.append(",".join(
                cell if isinstance(cell, str) else format_float(cell)
                for cell in row))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    # np.float64 is a float; other numpy scalars and arrays go by tolist()
    with open(path, "w") as handle:
        json.dump(obj, handle, sort_keys=True, indent=2,
                  default=lambda value: value.tolist())
        handle.write("\n")
