"""Command-line front-end: run readout sequences, emit error grids, sample
single-shot statistics, and evaluate device parameters.

Output is deterministic for a fixed flag set (including --seed).  Grids
default to CSV, everything else to JSON; reports go to stdout unless
--output is given.  Validation happens before any computation or file I/O,
so a failed run never leaves a partial output file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .core import (
    DOT0,
    DOT0P,
    DOT1,
    SPIN_DOWN,
    SPIN_UP,
    SPINS,
    THREE_DOT_MODES,
    GateParams,
    SpinInput,
    ValidationError,
    apply,
)
from .device import (
    DEFAULT_EFFECTIVE_MASS,
    PulseSpec,
    pulse_angle,
    pulse_for_angle,
    rashba_angle,
    rashba_length,
)
from .error_analysis import (
    AXIS_NAMES,
    DEFAULT_RESOLUTION,
    AxisSpec,
    ErrorGrid,
    panel_axes,
    sweep_grid,
)
from .montecarlo import DetectorModel, sample_readout
from .protocol import occupancies, run_readout, three_dot_sequence

_ANGLE_FLAGS = ("theta1", "theta2", "psi", "phi")
_THREE_DOT_FIXED = dict.fromkeys(_ANGLE_FLAGS, "the three-dot variant runs fixed ideal gates only")

# Report labels of the two-dot output amplitudes, label -> (spin, mode): f on
# dot 0, g on dot 1; the three-dot report labels each amplitude "spin;mode".
_TWO_DOT_LABELS = {
    "f1": (SPIN_UP, DOT0),
    "f2": (SPIN_DOWN, DOT0),
    "g1": (SPIN_UP, DOT1),
    "g2": (SPIN_DOWN, DOT1),
}


def _complex_json(z: complex) -> dict[str, float]:
    return {"re": z.real, "im": z.imag}


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


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_pair(text: str, field: str, sep: str, form: str) -> tuple[float, float]:
    """Two numbers from `text` split once at `sep`; `form` names the expected shape."""
    halves = text.split(sep)
    if len(halves) != 2:
        raise ValidationError(field, f"expected {form}, got {text!r}")
    try:
        return float(halves[0]), float(halves[1])
    except ValueError:
        raise ValidationError(field, f"non-numeric value in {text!r}") from None


def _params_from_args(args: argparse.Namespace, fixed: dict[str, str]) -> GateParams:
    """The gate set from the gate flags, ideal where no flag is given.

    `fixed` maps each gate the command sets itself to the reason a flag for
    it is an error, so every gate flag is either applied or rejected.
    """
    explicit = {}
    for name in _ANGLE_FLAGS:
        value = getattr(args, name)
        if value is not None:
            if name in fixed:
                raise ValidationError(name, fixed[name])
            explicit[name] = value
    if args.ideal and explicit:
        raise ValidationError("ideal", "conflicts with explicit gate angle flags")
    return replace(GateParams.ideal(), **explicit)


def _cmd_protocol(args: argparse.Namespace) -> str:
    spin_in = SpinInput(args.delta, args.gamma)
    three_dot = args.variant == "three-dot"
    params = _params_from_args(args, _THREE_DOT_FIXED if three_dot else {})
    report = {"variant": args.variant, "input": {"delta": args.delta, "gamma": args.gamma}}
    if three_dot:
        state = apply(three_dot_sequence(), spin_in.to_state(6))
        labels = {f"{spin};{mode}": (spin, mode) for spin in SPINS for mode in THREE_DOT_MODES}
    else:
        report["params"] = asdict(params)
        state, _ = run_readout(spin_in, params)
        labels = _TWO_DOT_LABELS
    occ = occupancies(state)
    report["amplitudes"] = {
        label: _complex_json(state.amplitude(spin, mode)) for label, (spin, mode) in labels.items()
    }
    report["occupancy"] = occ
    report["p_up"] = occ[DOT1]
    report["p_down"] = occ[DOT0P if three_dot else DOT0]
    if three_dot:
        report["unconverted"] = occ[DOT0]
    return json.dumps(report, indent=2) + "\n"


def _cmd_errmap(args: argparse.Namespace) -> str:
    range1 = None if args.range1 is None else _parse_pair(args.range1, "range1", ",", "LO,HI")
    range2 = None if args.range2 is None else _parse_pair(args.range2, "range2", ",", "LO,HI")
    if args.panel == "custom":
        given = {"axis1": args.axis1, "axis2": args.axis2, "range1": range1, "range2": range2}
        for flag, value in given.items():
            if value is None:
                raise ValidationError(flag, f"panel custom needs --{flag}")
            if flag.startswith("axis") and value not in AXIS_NAMES:
                raise ValidationError(flag, f"unknown axis {value!r}, expected one of {AXIS_NAMES}")
        axis1 = AxisSpec(args.axis1, *range1, args.resolution)
        axis2 = AxisSpec(args.axis2, *range2, args.resolution)
    else:
        for name in ("axis1", "axis2"):
            if getattr(args, name) is not None:
                raise ValidationError(name, "--axis1/--axis2 apply to --panel custom only")
        axis1, axis2, _ = panel_axes(args.panel, args.resolution, range1, range2)
    swept = {
        gate: f"swept by axis {k} of panel {args.panel}"
        for k, axis in enumerate((axis1, axis2), 1)
        for gate in axis.gates
    }
    grid = sweep_grid(axis1, axis2, _params_from_args(args, swept))
    return grid_to_csv(grid) if args.format == "csv" else grid_to_json(grid)


def _cmd_montecarlo(args: argparse.Namespace) -> str:
    spin_in = SpinInput(args.delta, args.gamma)
    params = _params_from_args(args, {})
    detector = DetectorModel(args.efficiency, args.false_positive)
    record = sample_readout(spin_in, params, args.shots, args.seed, detector)
    return json.dumps(asdict(record), indent=2) + "\n"


def _cmd_pulse_angle(args: argparse.Namespace) -> str:
    pairs = args.segments.split(",")
    segments = tuple(_parse_pair(pair, "segments", ":", "AMP_UEV:DURATION_PS") for pair in pairs)
    return f"{pulse_angle(PulseSpec(segments))!r} rad\n"


def _add_spin_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, required=True, help="input polar angle in [0, pi]")
    parser.add_argument("--gamma", type=float, default=0.0, help="input relative phase in [0, 2pi)")


def _add_gate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ideal", action="store_true", help="use the ideal gate set (pi/4, pi/4, pi/2, pi)"
    )
    parser.add_argument("--theta1", type=float, default=None, help="first tunneling angle, radians")
    parser.add_argument("--theta2", type=float, default=None, help="second tunneling angle, radians")
    parser.add_argument("--psi", type=float, default=None, help="conditional phase, radians")
    parser.add_argument("--phi", type=float, default=None, help="spin-rotation angle, radians")


def _add_material_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True, help="spin-orbit coupling, eV*m")
    parser.add_argument(
        "--mass", type=float, default=DEFAULT_EFFECTIVE_MASS, help="effective mass, electron masses"
    )


def _add_output_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, help="write here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by `main`;
    each command names its handler, which maps the parsed flags to the report."""
    parser = argparse.ArgumentParser(
        prog="spinreadout",
        description="Simulate single-spin readout by spin-to-charge conversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    proto = sub.add_parser("protocol", help="run a readout sequence, report the outcome")
    proto.add_argument("--variant", choices=("two-dot", "three-dot"), default="two-dot")
    _add_spin_flags(proto)
    _add_gate_flags(proto)
    _add_output_flag(proto)
    proto.set_defaults(handler=_cmd_protocol)

    errmap = sub.add_parser("errmap", help="sweep the averaged readout error over two gate angles")
    errmap.add_argument("--panel", choices=("a", "b", "c", "custom"), default="a")
    errmap.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION, help="points per axis")
    errmap.add_argument("--range1", default=None, help="axis 1 range as LO,HI (radians)")
    errmap.add_argument("--range2", default=None, help="axis 2 range as LO,HI (radians)")
    errmap.add_argument("--axis1", default=None, help=f"custom axis name, one of {', '.join(AXIS_NAMES)}")
    errmap.add_argument("--axis2", default=None, help="custom second axis name")
    _add_gate_flags(errmap)
    errmap.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output_flag(errmap)
    errmap.set_defaults(handler=_cmd_errmap)

    mc = sub.add_parser("montecarlo", help="sample single-shot detector statistics")
    _add_spin_flags(mc)
    _add_gate_flags(mc)
    mc.add_argument("--shots", type=int, required=True, help="number of single-shot readouts")
    mc.add_argument("--seed", type=int, default=0, help="RNG seed")
    mc.add_argument("--efficiency", type=float, default=1.0, help="detector efficiency in [0, 1]")
    mc.add_argument(
        "--false-positive", type=float, default=0.0, help="detector false-positive rate in [0, 1]"
    )
    _add_output_flag(mc)
    mc.set_defaults(handler=_cmd_montecarlo)

    device = sub.add_parser("device", help="pulse-area and spin-orbit length calculators")
    calc = device.add_subparsers(dest="calc", required=True)

    p_angle = calc.add_parser("pulse-angle", help="rotation angle of a coupling pulse")
    p_angle.add_argument(
        "--segments", required=True, help="comma-separated AMP_UEV:DURATION_PS segments"
    )
    _add_output_flag(p_angle)
    p_angle.set_defaults(handler=_cmd_pulse_angle)

    p_for = calc.add_parser("pulse-for-angle", help="constant amplitude for a target angle")
    p_for.add_argument("--angle", type=float, required=True, help="target rotation, radians")
    p_for.add_argument("--duration", type=float, required=True, help="pulse duration, ps")
    _add_output_flag(p_for)
    p_for.set_defaults(handler=lambda a: f"{pulse_for_angle(a.angle, a.duration)!r} ueV\n")

    r_len = calc.add_parser("rashba-length", help="region length for a target spin rotation")
    _add_material_flags(r_len)
    r_len.add_argument("--angle", type=float, required=True, help="target spin rotation, radians")
    _add_output_flag(r_len)
    r_len.set_defaults(handler=lambda a: f"{rashba_length(a.alpha, a.mass, a.angle)!r} nm\n")

    r_ang = calc.add_parser("rashba-angle", help="spin rotation accumulated over a region length")
    _add_material_flags(r_ang)
    r_ang.add_argument("--length", type=float, required=True, help="region length, nm")
    _add_output_flag(r_ang)
    r_ang.set_defaults(handler=lambda a: f"{rashba_angle(a.alpha, a.mass, a.length)!r} rad\n")

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Fold `--name VALUE` into `--name=VALUE` when VALUE starts with one dash
    or is `--`, so that argparse reads a value like -1e-05, -inf, -1,1 or -1:2
    as a value, not as a flag.  A switch so followed fails as a switch given a
    value does."""
    out = []
    for token in argv:
        dash_led = token == "--" or (token.startswith("-") and not token.startswith("--"))
        if dash_led and out and out[-1].startswith("--") and out[-1] != "--" and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _reject_empty_values(args: argparse.Namespace) -> None:
    """argparse (Python 3.11) parses `FLAG=--` to an empty list, a value no flag takes."""
    for name, value in vars(args).items():
        if value == []:
            raise ValidationError(name, "expected a value, got '--'")


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status, whatever the argv: 0 on
    success, 2 for bad input, 1 when the output cannot be written or memory
    runs out."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_normalize_argv(argv))
    except SystemExit as exc:  # argparse has printed its usage error (2) or --help (0)
        return exc.code
    try:
        _reject_empty_values(args)
        _emit(args.handler(args), args.output)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
