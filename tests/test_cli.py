"""End-to-end checks of the command-line surface and its file formats."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import spinreadout.cli
from spinreadout.cli import grid_to_csv, main
from spinreadout.error_analysis import panel_axes, sweep_grid
from spinreadout.montecarlo import MAX_SHOTS

from shared import GOLDEN_CSV, forbid_work

README = Path(__file__).resolve().parent.parent / "README.md"
# argv -> sha256 of stdout and of the --output file (null when there is none).
# A change that means to alter a command's bytes edits its row.
DIGESTS = json.loads((Path(__file__).resolve().parent / "command_digests.json").read_text())

GOLDEN_ARGS = [
    "errmap",
    "--panel",
    "a",
    "--resolution",
    "3",
    "--range1",
    "0.25,0.75",
    "--range2",
    "0.25,0.75",
]
CUSTOM = ["errmap", "--panel", "custom"]
LOCKED_PAIR = CUSTOM + ["--axis1", "theta", "--axis2", "psi_phi_locked", "--range1", "0,1", "--resolution", "2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == "axis1,axis2,Ebar"
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def test_protocol_spin_up_is_certain(capsys):
    code, out, _ = run(capsys, ["protocol", "--variant", "two-dot", "--delta", "0", "--gamma", "0", "--ideal"])
    assert code == 0
    report = json.loads(out)
    assert report["p_up"] == pytest.approx(1.0, abs=1e-12)
    assert report["occupancy"]["1"] == pytest.approx(1.0, abs=1e-12)


def test_protocol_superposition_report_fields(capsys):
    code, out, _ = run(capsys, ["protocol", "--delta", str(math.pi / 2)])
    assert code == 0
    report = json.loads(out)
    assert report["variant"] == "two-dot"
    assert set(report["amplitudes"]) == {"f1", "f2", "g1", "g2"}
    assert report["p_up"] == pytest.approx(0.5, abs=1e-12)
    assert report["amplitudes"]["g1"]["im"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_protocol_three_dot_spin_down_lands_in_dot0p(capsys):
    code, out, _ = run(capsys, ["protocol", "--variant", "three-dot", "--delta", "3.14159265", "--ideal"])
    assert code == 0
    report = json.loads(out)
    assert report["occupancy"]["0p"] == pytest.approx(1.0, abs=1e-12)
    assert report["p_down"] == pytest.approx(1.0, abs=1e-12)
    assert report["unconverted"] <= 1e-12


def test_protocol_unset_angles_default_to_ideal(capsys):
    code, out, _ = run(capsys, ["protocol", "--delta", "1.0", "--psi", "0.3"])
    assert code == 0
    ideal = {"theta1": math.pi / 4, "theta2": math.pi / 4, "psi": math.pi / 2, "phi": math.pi}
    assert json.loads(out)["params"] == {**ideal, "psi": 0.3}


def test_errmap_degenerate_ideal_point(capsys):
    code, out, _ = run(
        capsys,
        [
            "errmap",
            "--panel",
            "a",
            "--resolution",
            "3",
            "--range1",
            "0.785398,0.785398",
            "--range2",
            "0.785398,0.785398",
        ],
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9
    assert all(abs(row[2]) <= 1e-12 for row in rows)


def test_errmap_golden_sample_bytes(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, GOLDEN_ARGS + ["--output", str(path)])
    assert code == 0
    assert path.read_bytes() == GOLDEN_CSV.encode()
    # stdout emission matches the file byte for byte
    code, out, _ = run(capsys, GOLDEN_ARGS)
    assert code == 0
    assert out == GOLDEN_CSV


def test_errmap_json_round_trip(capsys):
    code, out, _ = run(capsys, GOLDEN_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["axis1"]["name"] == "theta1"
    assert payload["axis2"]["num"] == 3
    csv_rows = parse_csv(GOLDEN_CSV)
    flat = [v for block in payload["values"] for v in block]
    for (_, _, expected), got in zip(csv_rows, flat):
        assert got == pytest.approx(expected, abs=1e-12)


def test_errmap_custom_matches_panel_c(capsys):
    code, out, _ = run(
        capsys,
        [
            "errmap",
            "--panel",
            "custom",
            "--axis1",
            "theta",
            "--axis2",
            "psi_phi_locked",
            "--range1",
            "0,1.5707963267948966",
            "--range2",
            "0,6.283185307179586",
            "--resolution",
            "3",
        ],
    )
    assert code == 0
    custom_rows = parse_csv(out)
    code, out, _ = run(capsys, ["errmap", "--panel", "c", "--resolution", "3"])
    assert parse_csv(out) == custom_rows


def test_errmap_bounds_scaled_sweep_angle(capsys):
    # psi_phi_locked writes phi = 2v, so its range is bounded by MAX_ANGLE / 2:
    # accepted up to 500 here, rejected past it in BAD_ARGV.
    code, out, err = run(capsys, LOCKED_PAIR + ["--range2", "499,500"])
    assert code == 0 and err == ""
    assert len(parse_csv(out)) == 4


def test_errmap_accepts_dash_led_ranges(capsys):
    base = ["errmap", "--panel", "custom", "--axis1", "theta1", "--axis2", "phi", "--resolution", "3"]
    code, spaced, _ = run(capsys, base + ["--range1", "-1,1", "--range2", "-0.5,0.5"])
    assert code == 0
    code, joined, _ = run(capsys, base + ["--range1=-1,1", "--range2=-0.5,0.5"])
    assert code == 0 and spaced == joined
    assert parse_csv(spaced)[0][:2] == (-1.0, -0.5)


TWO_PI = "6.283185307179586"


def test_errmap_preset_panel_honours_non_swept_flag(capsys):
    code, flagged, _ = run(capsys, ["errmap", "--panel", "b", "--resolution", "5", "--theta1", "0.5"])
    assert code == 0
    code, custom, _ = run(
        capsys,
        ["errmap", "--panel", "custom", "--axis1", "psi", "--axis2", "phi", "--range1", f"0,{TWO_PI}",
         "--range2", f"0,{TWO_PI}", "--resolution", "5", "--theta1", "0.5"],
    )
    assert code == 0 and flagged == custom
    code, ideal, _ = run(capsys, ["errmap", "--panel", "b", "--resolution", "5"])
    assert code == 0 and ideal != flagged


# The command line's table of bad input: one row per bad argv, with the field
# its error names, or None for an argparse usage error, and optionally a text
# fragment the error must hold.  A new bad input is one more row.  The library's table is test_bad_input.py.
BAD_ARGV = [
    # protocol
    (["protocol", "--delta", "4"], "delta"),
    (["protocol", "--delta=--"], "delta"),
    (["protocol", "--delta", "1", "--gamma", "7"], "gamma"),
    (["protocol", "--delta", "1", "--phi", "2000"], "phi"),
    (["protocol", "--delta", "1", "--theta1", "inf"], "theta1"),
    (["protocol", "--delta", "1", "--phi", "2000", "--theta2", "nan"], "theta2"),  # gates checked in order
    (["protocol", "--delta", "1", "--ideal", "--psi", "0.3"], "ideal"),
    (["protocol", "--variant", "three-dot", "--delta", "1", "--psi", "0.2"], "psi"),
    (["protocol", "--variant", "three-dot", "--delta", "1", "--theta1", "0.5"], "theta1"),
    # Only a bare `--name` takes the dash-led token after it: a switch takes
    # no value, and `--name=VALUE` has its value already.
    (["protocol", "--delta", "1", "--ideal", "-1"], None),
    (["protocol", "--delta=1", "-1"], None),
    # errmap: a gate flag is applied or rejected, never ignored
    (["errmap", "--panel", "a", "--theta1", "0.3"], "theta1"),
    (["errmap", "--panel", "a", "--theta1", "nan"], "theta1"),
    (["errmap", "--panel", "a", "--psi", "inf"], "psi"),
    (["errmap", "--panel", "c", "--phi", "0.3"], "phi"),
    (["errmap", "--panel", "c", "--theta2", "0.3"], "theta2"),
    (["errmap", "--panel", "b", "--ideal", "--theta1", "0.2"], "ideal"),
    (["errmap", "--panel", "a", "--resolution", "2", "--theta1", "nan", "--psi", "inf", "--ideal"], "theta1"),
    (CUSTOM + ["--axis1", "theta1", "--axis2", "phi", "--range1", "0,1", "--range2", "0,1", "--theta1", "0.7"],
     "theta1"),
    (CUSTOM + ["--axis1", "theta", "--axis2", "psi", "--range1", "0,1", "--range2", "0,1", "--theta2", "0.7"],
     "theta2"),
    (CUSTOM + ["--axis1", "theta1", "--axis2", "phi", "--range1", "0,1", "--range2", "0,1", "--psi", "nan"],
     "psi"),
    # errmap: panels, axes and sizes
    (["errmap", "--panel=--"], "panel"),
    (["errmap", "--resolution", "1"], "resolution"),
    (["errmap", "--resolution", "100000"], "resolution"),
    (["errmap", "--panel", "a", "--axis1", "psi"], "axis1"),
    (["errmap", "--panel", "b", "--axis1="], "axis1"),
    (["errmap", "--panel", "b", "--axis2="], "axis2"),
    (CUSTOM + ["--resolution", "3"], "axis1"),
    (CUSTOM + ["--axis2", "phi", "--range1", "0,1", "--range2", "0,1"], "axis1"),
    (CUSTOM + ["--axis1", "theta1", "--range1", "0,1", "--range2", "0,1"], "axis2"),
    (CUSTOM + ["--axis1", "theta1", "--axis2", "phi", "--range2", "0,1"], "range1"),
    (CUSTOM + ["--axis1", "theta1", "--axis2", "phi", "--range1", "0,1"], "range2"),
    (CUSTOM + ["--axis1", "bogus", "--axis2", "phi", "--range1", "0,1", "--range2", "0,1"], "axis1", "'bogus'"),
    (CUSTOM + ["--axis1", "theta1", "--axis2", "bogus", "--range1", "0,1", "--range2", "0,1"], "axis2", "'bogus'"),
    (CUSTOM + ["--axis1", "theta", "--axis2", "theta1", "--range1", "0,1", "--range2", "0,1"], "axis2", "overlaps"),
    # errmap: ranges; a bad end names its axis
    (["errmap", "--range1", "0;1"], "range1"),
    (["errmap", "--range1", "nope,1"], "range1"),
    (["errmap", "--panel", "b", "--range1="], "range1"),
    (["errmap", "--panel", "b", "--range2="], "range2"),
    (["errmap", "--resolution", "3", "--range1", "nan,1"], "theta1.start"),
    (["errmap", "--range1", "0,2000"], "theta1.stop"),
    (["errmap", "--range2", "0,2000"], "theta2.stop"),
    (LOCKED_PAIR + ["--range2", "0,1000"], "psi_phi_locked.stop"),
    (LOCKED_PAIR + ["--range2", "999,1000"], "psi_phi_locked.start"),
    (LOCKED_PAIR + ["--range2", "0,1e308"], "psi_phi_locked.stop"),
    # montecarlo
    (["montecarlo", "--delta", "0", "--shots", "0"], "shots"),
    (["montecarlo", "--delta", "1", "--shots", str(MAX_SHOTS + 1)], "shots"),
    (["montecarlo", "--delta", "1", "--shots", "10", "--efficiency", "2"], "efficiency"),
    # device: bad input, then a result that overflows or is undefined
    (["device", "pulse-angle", "--segments", "--"], "segments"),
    (["device", "pulse-angle", "--segments", "1:2:3"], "segments"),
    (["device", "pulse-angle", "--segments", "nan:1"], "segments[0].amplitude"),
    (["device", "pulse-angle", "--segments", "1:0"], "segments[0].duration"),
    (["device", "pulse-for-angle", "--angle", "nan", "--duration", "1"], "target"),
    (["device", "pulse-for-angle", "--angle", "1", "--duration", "nan"], "duration"),
    (["device", "rashba-length", "--alpha", "4e-11", "--angle=--"], "angle"),
    (["device", "rashba-length", "--alpha", "4e-11", "--angle", "nan"], "target_angle"),
    (["device", "rashba-angle", "--alpha", "nan", "--length", "3"], "alpha"),
    (["device", "rashba-angle", "--alpha", "4e-11", "--length", "nan"], "length"),
    (["device", "pulse-angle", "--segments", "1e308:1e308"], "angle"),
    (["device", "pulse-for-angle", "--angle", "1e308", "--duration", "1e-300"], "amplitude"),
    (["device", "rashba-angle", "--alpha", "1e300", "--length", "1e300"], "angle"),
    # 2 m* alpha underflows to 0 for a subnormal alpha.
    (["device", "rashba-length", "--alpha", "1e-320", "--angle", "1"], "length"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, field, fragment", [(*row, "") if len(row) == 2 else row for row in BAD_ARGV])
def test_bad_command_line_exits_2_naming_its_field(capsys, monkeypatch, tmp_path, argv, field, fragment):
    # Exit 2 before any axis is sampled, shot drawn or byte written; a
    # validation error is one line that names its field once.
    forbid_work(monkeypatch)
    path = tmp_path / "out"
    code, out, err = run(capsys, argv + ["--output", str(path)])
    assert code == 2 and out == "" and not path.exists()
    if field is not None:
        assert err.startswith(f"error: {field}: ") and err.count(field) == 1 and err.count("\n") == 1
        assert fragment in err


def test_errmap_unwritable_path_exits_nonzero(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "grid.csv"
    code, _, err = run(capsys, GOLDEN_ARGS + ["--output", str(path)])
    assert code == 1
    assert not path.exists()


def test_errmap_resolution_401_runs(capsys):
    code, out, _ = run(capsys, ["errmap", "--panel", "b", "--resolution", "401"])
    assert code == 0 and out.count("\n") == 401 * 401 + 1


def test_memory_error_exits_1_with_one_line(capsys, tmp_path, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(spinreadout.cli, "sweep_grid", exhausted)
    path = tmp_path / "grid.csv"
    code, out, err = run(capsys, GOLDEN_ARGS + ["--output", str(path)])
    assert code == 1 and out == "" and not path.exists()
    assert err == "error: out of memory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["protocol", "--delta", "1", "--theta1", "-1e-05"],
        ["montecarlo", "--delta", "1", "--shots", "1000", "--phi", "-2.5e-4"],
        ["device", "pulse-for-angle", "--angle", "-1e-3", "--duration", "1"],
        ["device", "rashba-angle", "--alpha", "4e-11", "--length", "-1e-3"],
    ],
)
def test_exponent_negative_value_reads_in_either_spelling(capsys, argv):
    code, spaced, _ = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == (0, spaced, "")


def test_montecarlo_superposition_statistics(capsys):
    code, out, _ = run(
        capsys,
        ["montecarlo", "--delta", str(math.pi / 2), "--shots", "10000", "--seed", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["estimated_p_up"] - 0.5) < 0.02


def test_montecarlo_detector_flags(capsys):
    code, out, _ = run(
        capsys,
        ["montecarlo", "--delta", "0", "--shots", "2000", "--seed", "1",
         "--efficiency", "0.8", "--false-positive", "0.1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["analytic_p_up"] == pytest.approx(0.8, abs=1e-12)
    assert abs(payload["estimated_p_up"] - 0.8) < 0.04


def test_device_rashba_length(capsys):
    code, out, _ = run(
        capsys,
        ["device", "rashba-length", "--alpha", "4e-11", "--mass", "0.026", "--angle", "1.5708"],
    )
    assert code == 0
    value, unit = out.split()
    assert unit == "nm"
    assert abs(float(value) - 58.0) / 58.0 < 0.02


def test_device_rashba_angle_round_trip(capsys):
    code, out, _ = run(capsys, ["device", "rashba-length", "--alpha", "0.93e-11", "--angle", "0.7"])
    assert code == 0
    length = float(out.split()[0])
    code, out, _ = run(
        capsys, ["device", "rashba-angle", "--alpha", "0.93e-11", "--length", str(length)]
    )
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(0.7, rel=1e-12)


def test_device_pulse_angle_accepts_dash_led_segments(capsys):
    for argv in (
        ["device", "pulse-angle", "--segments", "-0.658212:1"],
        ["device", "pulse-angle", "--segments=-0.658212:1"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        value, unit = out.split()
        assert unit == "rad"
        assert float(value) == pytest.approx(1.0, abs=1e-6)


def test_device_pulse_for_angle_zero_target(capsys):
    code, out, _ = run(capsys, ["device", "pulse-for-angle", "--angle", "0", "--duration", "1"])
    assert code == 0
    assert float(out.split()[0]) == 0.0


def readme_commands():
    """Each command of the README's `## Command line` block as an argv list:
    backslash continuations joined, `#` comments dropped."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [argv for argv in lines if argv]


def test_grid_csv_peak_memory_at_101():
    # At most 1.5 times the 0.88 MB (tracemalloc) of the earlier per-row writer.
    grid = sweep_grid(*panel_axes("b", 101))
    grid_to_csv(grid)  # builds the formatter's tables
    tracemalloc.start()
    try:
        grid_to_csv(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.32e6


def test_digest_table_covers_the_readme_commands():
    # The count keeps a parser that finds no command from passing vacuously.
    commands = readme_commands()
    assert len(commands) == 11
    assert {shlex.join(argv) for argv in commands} <= {row["argv"] for row in DIGESTS}


@pytest.mark.parametrize("row", DIGESTS, ids=lambda row: row["argv"])
def test_command_bytes_match_the_digest_table(capsys, monkeypatch, tmp_path, row):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(row["argv"])
    code, out, err = run(capsys, argv[1:])
    assert code == 0, err
    output = None
    if "--output" in argv:
        output = hashlib.sha256((tmp_path / argv[argv.index("--output") + 1]).read_bytes()).hexdigest()
    assert {"argv": row["argv"], "stdout": hashlib.sha256(out.encode()).hexdigest(), "output": output} == row


@pytest.mark.parametrize(
    "argv, status", [(["protocol", "--delta", "1.0", "--ideal"], 0), (["protocol", "--delta", "4"], 2)]
)
def test_python_m_spinreadout_passes_the_exit_status_through(argv, status):
    src = str(Path(spinreadout.cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "spinreadout", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == status, result.stderr
    assert bool(result.stdout) == (status == 0)
