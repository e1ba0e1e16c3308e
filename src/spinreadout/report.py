"""Every output format of the command line: a grid as CSV or JSON, the protocol
report or a ShotRecord as indented JSON, and a device calculator's value with
its unit.  Each writer returns the whole text; the caller decides where it goes.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from .error_analysis import ErrorGrid


# Nodes serialized per block.  At 101^2, blocks of 4096 nodes peak at 0.9 MB
# by tracemalloc and add 0.7 MB to a process's peak RSS; one 10201-node block
# peaked at 1.15 MB and added 1.1 MB.
_BLOCK_NODES = 1 << 12
_NEWLINE_WORD = int.from_bytes(b"\n\0\0\0", sys.byteorder)


@functools.cache
def _slot_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The formatter's tables, built on first use: the "%04d" bytes of each
    group 0..9999 as one uint32, its trailing zeros (4 for 0), and, at row
    4 * trailing zeros of D + z, the slot bytes .12g keeps as (48, 5) uint32."""
    rest = np.arange(10_000)
    ascii_digits = np.empty((10_000, 4), np.uint8)
    trailing = np.zeros(10_000, np.uint8)
    zero_tail = np.ones(10_000, bool)
    for k in (3, 2, 1, 0):
        rest, digit = np.divmod(rest, 10)
        ascii_digits[:, k] = digit + ord("0")
        zero_tail &= digit == 0
        trailing += zero_tail
    # A slot is 20 bytes: "\0\0\0", "0.", three zeros, then D's 12 digits as
    # three groups, which the 0xff bytes let through.
    template = np.frombuffer(b"\0\0\x000.000" + b"\xff" * 12, np.uint8)
    col = np.arange(20)
    zeros, end = np.arange(4)[None, :, None], 20 - np.arange(12)[:, None, None]
    keep = ((col >= 3) & (col < 5 + zeros)) | ((col >= 8) & (col < end))
    masks = np.where(keep, template, 0).astype(np.uint8)
    return ascii_digits.view(np.uint32)[:, 0], trailing, masks.reshape(48, 20).view(np.uint32)


def _padded(cells: list[str], width: int) -> np.ndarray:
    """ASCII cells as a (len(cells), width) uint8 array, each NUL-padded on the right."""
    text = "".join([cell.ljust(width, "\0") for cell in cells]).encode("ascii")
    return np.frombuffer(text, np.uint8).reshape(len(cells), width)


def _axis_cells(values: np.ndarray) -> np.ndarray:
    """format(v, ".12g") + "," of each axis value, NUL-padded to whole uint32 words."""
    cells = [f"{v:.12g}," for v in values.tolist()]
    return _padded(cells, -(-max(map(len, cells)) // 4) * 4).view(np.uint32)


def _ebar_slots(v: np.ndarray) -> np.ndarray:
    """format(x, ".12g") of each x in v as a NUL-padded slot, (len(v), 5) uint32."""
    groups, trailing, masks = _slot_tables()
    zeros = (v < 0.1).astype(np.uint8) + (v < 0.01) + (v < 0.001)
    m = v * np.array([1e12, 1e13, 1e14, 1e15])[zeros]
    d = np.rint(m)
    fallback = (v < 1e-4) | (d >= 1e12) | (np.abs(m - d) > 0.4998)
    hi, g2 = np.divmod(d.clip(1e11, 1e12 - 1).astype(np.int64), 10_000)
    g0, g1 = np.divmod(hi, 10_000)
    tail = trailing[g2] + (g2 == 0) * (trailing[g1] + (g1 == 0) * trailing[g0])
    slots = masks[4 * tail + zeros]
    slots[:, 2] &= groups[g0]
    slots[:, 3] &= groups[g1]
    slots[:, 4] &= groups[g2]
    rest = np.flatnonzero(fallback)
    if rest.size:
        slots[rest] = _padded([format(x, ".12g") for x in v[rest].tolist()], 20).view(np.uint32)
    return slots


def _padded_rows(col1: np.ndarray, col2: np.ndarray, block: np.ndarray) -> bytearray:
    """The CSV rows of a block of nodes, each NUL-padded to whole uint32 words."""
    slots = _ebar_slots(block.ravel())
    r, c = block.shape
    w1, w2 = col1.shape[1], col2.shape[1]
    buf = bytearray(r * c * (w1 + w2 + 6) * 4)
    words = np.frombuffer(buf, np.uint32).reshape(r, c, w1 + w2 + 6)
    words[..., :w1] = col1[:, None]
    words[..., w1 : w1 + w2] = col2[None, :]
    words[..., w1 + w2 : -1] = slots.reshape(r, c, 5)
    words[..., -1] = _NEWLINE_WORD
    return buf


def grid_to_csv(grid: ErrorGrid) -> str:
    """Serialize a grid as `axis1,axis2,Ebar` rows, axis1 slowest, each cell
    reading as format(v, ".12g"), '\\n' line endings.

    Each block of at most _BLOCK_NODES nodes is laid out as NUL-padded rows of
    uint32 words, whose NULs are then deleted.  Axis cells are formatted once
    per axis; Ebar values are written from integers, not formatted one by one.

    For v in [1e-4, 1), .12g prints "0.", then z zeros, then the 12 digits of
    D = v * 10**(12 + z) rounded half to even, less their trailing zeros.  z
    counts v < 0.1, v < 0.01 and v < 0.001; each of those doubles lies above
    its power of ten, so the comparisons are exact.  m = v * 10**(12 + z) is
    one correctly rounded product (the power of ten is exact) and m < 2**40,
    so m is within half an ulp, 2**-14 = 6.1e-5, of the exact product.  Hence
    rint(m) == D whenever |m - rint(m)| <= 0.4998: the exact product is then
    nearer than 0.5 to rint(m).  The nodes in the guard band |m - rint(m)| >
    0.4998 (2e-4 wide, three times the error) take format(v, ".12g") instead,
    as do values below 1e-4 (0, negatives, exponent notation) and every
    D >= 10**12: the values from 1 up, and the carry of values that round up
    to the next power of ten.
    """
    col1, col2 = _axis_cells(grid.axis1.values()), _axis_cells(grid.axis2.values())
    n1, n2 = grid.values.shape
    rows, cols = max(1, _BLOCK_NODES // n2), min(n2, _BLOCK_NODES)
    parts = ["axis1,axis2,Ebar\n"]
    for r0 in range(0, n1, rows):
        for c0 in range(0, n2, cols):
            block = grid.values[r0 : r0 + rows, c0 : c0 + cols]
            # Chained, so each buffer is freed as soon as the next one is made.
            parts.append(
                _padded_rows(col1[r0 : r0 + rows], col2[c0 : c0 + cols], block)
                .translate(None, b"\0")
                .decode("ascii")
            )
    return "".join(parts)


def grid_to_json(grid: ErrorGrid) -> str:
    """Serialize a grid as a JSON object: `axis1`, `axis2` and `fixed` laid out
    as json.dumps(..., indent=2) writes them, then `values`, one line per axis-1
    row.  Each row is encoded in one call to json's C encoder, which indent
    would bypass."""
    header = json.dumps(
        {"axis1": asdict(grid.axis1), "axis2": asdict(grid.axis2), "fixed": asdict(grid.fixed)}, indent=2
    ).removesuffix("\n}")
    rows = ",\n    ".join(map(json.dumps, grid.values.tolist()))
    return f'{header},\n  "values": [\n    {rows}\n  ]\n}}\n'


def _json_default(value: object) -> dict:
    """A complex amplitude as {"re", "im"}, a dataclass (GateParams, ShotRecord) as its fields."""
    return {"re": value.real, "im": value.imag} if isinstance(value, complex) else asdict(value)


def report_json(report: object) -> str:
    """A protocol report or a ShotRecord, as json.dumps(..., indent=2) writes it."""
    return json.dumps(report, indent=2, default=_json_default) + "\n"


def value_line(value: float, unit: str) -> str:
    """A device calculator's result: the float's repr, then its unit."""
    return f"{value!r} {unit}\n"
