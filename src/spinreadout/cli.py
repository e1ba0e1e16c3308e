"""Command-line front-end: parse the flags, run a handler, write what it returns.

A handler maps the parsed flags to a value: an ErrorGrid, a ShotRecord, the
protocol report or a device calculator's (value, unit) pair.  `main` turns it
into bytes with a writer from `report` and sends them to stdout or --output.
Output is deterministic for a fixed flag set (including --seed).  Validation
runs before any computation or file I/O, so a run that fails it writes nothing.
--output overwrites an existing file in place and cuts it to the new length;
an I/O failure during the write exits 1 and may leave old and new bytes mixed.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from dataclasses import replace

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
    PANELS,
    AxisSpec,
    ErrorGrid,
    check_axis_pair,
    panel_axes,
    sweep_grid,
)
from .montecarlo import DetectorModel, ShotRecord, sample_readout
from .protocol import occupancies, run_readout, three_dot_sequence
from .report import grid_to_csv, grid_to_json, report_json, value_line

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


def _emit(data: bytes, path: str | None) -> None:
    """Write `data` to stdout as text, or over the file at `path` in place,
    then cut a regular file to its new length; a file is never emptied first."""
    if path is None:
        sys.stdout.write(data.decode("ascii"))
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


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


def _cmd_protocol(args: argparse.Namespace) -> dict:
    spin_in = SpinInput(args.delta, args.gamma)
    three_dot = args.variant == "three-dot"
    params = _params_from_args(args, _THREE_DOT_FIXED if three_dot else {})
    report = {"variant": args.variant, "input": {"delta": args.delta, "gamma": args.gamma}}
    if three_dot:
        state = apply(three_dot_sequence(), spin_in.to_state(6))
        labels = {f"{spin};{mode}": (spin, mode) for spin in SPINS for mode in THREE_DOT_MODES}
    else:
        report["params"] = params
        state, _ = run_readout(spin_in, params)
        labels = _TWO_DOT_LABELS
    occ = occupancies(state)
    report["amplitudes"] = {label: state.amplitude(spin, mode) for label, (spin, mode) in labels.items()}
    report["occupancy"] = occ
    report["p_up"] = occ[DOT1]
    report["p_down"] = occ[DOT0P if three_dot else DOT0]
    if three_dot:
        report["unconverted"] = occ[DOT0]
    return report


def _cmd_errmap(args: argparse.Namespace) -> ErrorGrid:
    range1 = None if args.range1 is None else _parse_pair(args.range1, "range1", ",", "LO,HI")
    range2 = None if args.range2 is None else _parse_pair(args.range2, "range2", ",", "LO,HI")
    if args.panel == "custom":
        given = {"axis1": args.axis1, "axis2": args.axis2, "range1": range1, "range2": range2}
        for flag, value in given.items():
            if value is None:
                raise ValidationError(flag, "required by --panel custom")
        check_axis_pair(args.axis1, args.axis2)
        axis1 = AxisSpec(args.axis1, *range1, args.resolution)
        axis2 = AxisSpec(args.axis2, *range2, args.resolution)
    else:
        for name in ("axis1", "axis2"):
            if getattr(args, name) is not None:
                raise ValidationError(name, "applies to --panel custom only")
        axis1, axis2, _ = panel_axes(args.panel, args.resolution, range1, range2)
    swept = {
        gate: f"swept by axis {k} of panel {args.panel}"
        for k, axis in enumerate((axis1, axis2), 1)
        for gate in axis.gates
    }
    return sweep_grid(axis1, axis2, _params_from_args(args, swept))


def _cmd_montecarlo(args: argparse.Namespace) -> ShotRecord:
    spin_in = SpinInput(args.delta, args.gamma)
    params = _params_from_args(args, {})
    detector = DetectorModel(args.efficiency, args.false_positive)
    return sample_readout(spin_in, params, args.shots, args.seed, detector)


def _cmd_pulse_angle(args: argparse.Namespace) -> tuple[float, str]:
    pairs = args.segments.split(",")
    segments = tuple(_parse_pair(pair, "segments", ":", "AMP_UEV:DURATION_PS") for pair in pairs)
    return pulse_angle(PulseSpec(segments)), "rad"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by `main`;
    each command names its handler, which maps the parsed flags to the value
    that `main` writes.  A flag group that several commands share is declared
    once, as a parent parser that each of those commands lists."""
    parser = argparse.ArgumentParser(
        prog="spinreadout",
        description="Simulate single-spin readout by spin-to-charge conversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spin = argparse.ArgumentParser(add_help=False)
    spin.add_argument("--delta", type=float, required=True, help="input polar angle in [0, pi]")
    spin.add_argument("--gamma", type=float, default=0.0, help="input relative phase in [0, 2pi)")
    gates = argparse.ArgumentParser(add_help=False)
    gates.add_argument(
        "--ideal", action="store_true", help="use the ideal gate set (pi/4, pi/4, pi/2, pi)"
    )
    gates.add_argument("--theta1", type=float, help="first tunneling angle, radians")
    gates.add_argument("--theta2", type=float, help="second tunneling angle, radians")
    gates.add_argument("--psi", type=float, help="conditional phase, radians")
    gates.add_argument("--phi", type=float, help="spin-rotation angle, radians")
    material = argparse.ArgumentParser(add_help=False)
    material.add_argument("--alpha", type=float, required=True, help="spin-orbit coupling, eV*m")
    material.add_argument(
        "--mass", type=float, default=DEFAULT_EFFECTIVE_MASS, help="effective mass, electron masses"
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write here instead of stdout")

    proto = sub.add_parser(
        "protocol", parents=[spin, gates, output], help="run a readout sequence, report the outcome"
    )
    proto.add_argument("--variant", choices=("two-dot", "three-dot"), default="two-dot")
    proto.set_defaults(handler=_cmd_protocol)

    errmap = sub.add_parser(
        "errmap", parents=[gates, output], help="sweep the averaged readout error over two gate angles"
    )
    errmap.add_argument("--panel", choices=(*PANELS, "custom"), default="a")
    errmap.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION, help="points per axis")
    errmap.add_argument("--range1", help="axis 1 range as LO,HI (radians)")
    errmap.add_argument("--range2", help="axis 2 range as LO,HI (radians)")
    errmap.add_argument("--axis1", help=f"custom axis name, one of {', '.join(AXIS_NAMES)}")
    errmap.add_argument("--axis2", help="custom second axis name")
    errmap.add_argument("--format", choices=("csv", "json"), default="csv")
    errmap.set_defaults(handler=_cmd_errmap)

    mc = sub.add_parser(
        "montecarlo", parents=[spin, gates, output], help="sample single-shot detector statistics"
    )
    mc.add_argument("--shots", type=int, required=True, help="number of single-shot readouts")
    mc.add_argument("--seed", type=int, default=0, help="RNG seed")
    mc.add_argument("--efficiency", type=float, default=1.0, help="detector efficiency in [0, 1]")
    mc.add_argument(
        "--false-positive", type=float, default=0.0, help="detector false-positive rate in [0, 1]"
    )
    mc.set_defaults(handler=_cmd_montecarlo)

    device = sub.add_parser("device", help="pulse-area and spin-orbit length calculators")
    calc = device.add_subparsers(dest="calc", required=True)

    p_angle = calc.add_parser("pulse-angle", parents=[output], help="rotation angle of a coupling pulse")
    p_angle.add_argument(
        "--segments", required=True, help="comma-separated AMP_UEV:DURATION_PS segments"
    )
    p_angle.set_defaults(handler=_cmd_pulse_angle)

    p_for = calc.add_parser("pulse-for-angle", parents=[output], help="constant amplitude for a target angle")
    p_for.add_argument("--angle", type=float, required=True, help="target rotation, radians")
    p_for.add_argument("--duration", type=float, required=True, help="pulse duration, ps")
    p_for.set_defaults(handler=lambda a: (pulse_for_angle(a.angle, a.duration), "ueV"))

    r_len = calc.add_parser(
        "rashba-length", parents=[material, output], help="region length for a target spin rotation"
    )
    r_len.add_argument("--angle", type=float, required=True, help="target spin rotation, radians")
    r_len.set_defaults(handler=lambda a: (rashba_length(a.alpha, a.mass, a.angle), "nm"))

    r_ang = calc.add_parser(
        "rashba-angle", parents=[material, output], help="spin rotation accumulated over a region length"
    )
    r_ang.add_argument("--length", type=float, required=True, help="region length, nm")
    r_ang.set_defaults(handler=lambda a: (rashba_angle(a.alpha, a.mass, a.length), "rad"))

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
    runs out.  Parse, compute, serialize and write are four separate calls."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_normalize_argv(argv))
    except SystemExit as exc:  # argparse has printed its usage error (2) or --help (0)
        return exc.code
    try:
        _reject_empty_values(args)
        result = args.handler(args)
        # Looked up at call time, so a tracer that rebinds grid_to_csv here times it.
        if isinstance(result, ErrorGrid):
            data = grid_to_csv(result) if args.format == "csv" else grid_to_json(result)
        else:
            data = value_line(*result) if isinstance(result, tuple) else report_json(result)
        _emit(data, args.output)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
