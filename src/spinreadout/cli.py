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
    RashbaSpec,
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


def grid_to_csv(grid: ErrorGrid) -> str:
    """Serialize a grid as `axis1,axis2,Ebar` rows, axis1 slowest, each cell
    reading as format(v, ".12g"), '\\n' line endings."""
    # One row's template, formatted once: axis 1 as the str.format field {0},
    # axis 2 written in, Ebar as "%.12g" (the bytes of format(v, ".12g") for
    # the finite floats a grid holds).  Each row then costs two C-level calls.
    row = "".join([f"{{0}},{v2:.12g},%.12g\n" for v2 in grid.axis2.values().tolist()])
    lines = ["axis1,axis2,Ebar\n"]
    lines += [
        row.format(format(v1, ".12g")) % tuple(ebar)
        for v1, ebar in zip(grid.axis1.values().tolist(), grid.values.tolist())
    ]
    return "".join(lines)


def grid_to_json(grid: ErrorGrid) -> str:
    payload = {
        "axis1": asdict(grid.axis1),
        "axis2": asdict(grid.axis2),
        "fixed": asdict(grid.fixed),
        "values": grid.values.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(flag, f"expected LO,HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(flag, f"non-numeric bound in {text!r}") from None


def _parse_segments(text: str) -> tuple[tuple[float, float], ...]:
    segments = []
    for part in text.split(","):
        halves = part.split(":")
        if len(halves) != 2:
            raise ValidationError("segments", f"expected AMP_UEV:DURATION_PS, got {part!r}")
        try:
            segments.append((float(halves[0]), float(halves[1])))
        except ValueError:
            raise ValidationError("segments", f"non-numeric segment in {part!r}") from None
    return tuple(segments)


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
    range1 = _parse_range(args.range1, "range1") if args.range1 else None
    range2 = _parse_range(args.range2, "range2") if args.range2 else None
    if args.panel == "custom":
        if not args.axis1 or not args.axis2:
            raise ValidationError("axis1", "panel custom needs --axis1 and --axis2")
        if range1 is None or range2 is None:
            raise ValidationError("range1", "panel custom needs --range1 and --range2")
        axis1 = AxisSpec(args.axis1, range1[0], range1[1], args.resolution)
        axis2 = AxisSpec(args.axis2, range2[0], range2[1], args.resolution)
    else:
        if args.axis1 or args.axis2:
            raise ValidationError("axis1", "--axis1/--axis2 apply to --panel custom only")
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
    p_angle.set_defaults(
        handler=lambda a: f"{pulse_angle(PulseSpec(_parse_segments(a.segments)))!r} rad\n"
    )

    p_for = calc.add_parser("pulse-for-angle", help="constant amplitude for a target angle")
    p_for.add_argument("--angle", type=float, required=True, help="target rotation, radians")
    p_for.add_argument("--duration", type=float, required=True, help="pulse duration, ps")
    _add_output_flag(p_for)
    p_for.set_defaults(handler=lambda a: f"{pulse_for_angle(a.angle, a.duration)!r} ueV\n")

    r_len = calc.add_parser("rashba-length", help="region length for a target spin rotation")
    _add_material_flags(r_len)
    r_len.add_argument("--angle", type=float, required=True, help="target spin rotation, radians")
    _add_output_flag(r_len)
    r_len.set_defaults(
        handler=lambda a: f"{rashba_length(RashbaSpec(a.alpha, a.mass, a.angle))!r} nm\n"
    )

    r_ang = calc.add_parser("rashba-angle", help="spin rotation accumulated over a region length")
    _add_material_flags(r_ang)
    r_ang.add_argument("--length", type=float, required=True, help="region length, nm")
    _add_output_flag(r_ang)
    r_ang.set_defaults(handler=lambda a: f"{rashba_angle(a.alpha, a.mass, a.length)!r} rad\n")

    return parser


_LIST_FLAGS = ("--segments", "--range1", "--range2")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Fold `FLAG VALUE` into `FLAG=VALUE` for each of _LIST_FLAGS; a dash-led
    value like -1:2 or -1,1 would otherwise be read as a flag."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token in _LIST_FLAGS:
            value = next(tokens, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalize_argv(list(argv)))
    try:
        _emit(args.handler(args), args.output)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
