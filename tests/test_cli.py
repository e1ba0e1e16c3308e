"""End-to-end checks of the command-line surface and its file formats."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import spinreadout.cli
import spinreadout.montecarlo
from spinreadout.cli import grid_to_csv, main
from spinreadout.error_analysis import AxisSpec, panel_axes, sweep_grid
from spinreadout.montecarlo import MAX_SHOTS

from shared import GOLDEN_CSV

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


def test_protocol_rejects_delta_out_of_range(capsys):
    code, _, err = run(capsys, ["protocol", "--delta", "4.0"])
    assert code == 2
    assert "delta" in err


def test_protocol_unset_angles_default_to_ideal(capsys):
    code, out, _ = run(capsys, ["protocol", "--delta", "1.0", "--psi", "0.3"])
    assert code == 0
    ideal = {"theta1": math.pi / 4, "theta2": math.pi / 4, "psi": math.pi / 2, "phi": math.pi}
    assert json.loads(out)["params"] == {**ideal, "psi": 0.3}
    code, _, err = run(capsys, ["protocol", "--delta", "1.0", "--phi", "2000", "--theta2", "nan"])
    assert code == 2 and err.startswith("error: theta2:")


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


def test_errmap_validation_failures(capsys):
    code, _, err = run(capsys, ["errmap", "--panel", "custom", "--resolution", "3"])
    assert code == 2 and "axis1" in err
    code, _, err = run(
        capsys,
        ["errmap", "--panel", "custom", "--axis1", "theta", "--axis2", "theta1",
         "--range1", "0,1", "--range2", "0,1"],
    )
    assert code == 2 and "overlap" in err
    code, _, err = run(
        capsys,
        ["errmap", "--panel", "custom", "--axis1", "bogus", "--axis2", "psi",
         "--range1", "0,1", "--range2", "0,1"],
    )
    assert code == 2 and "bogus" in err
    code, _, err = run(capsys, ["errmap", "--resolution", "1"])
    assert code == 2 and "resolution" in err
    code, _, err = run(capsys, ["errmap", "--range1", "0;1"])
    assert code == 2 and "range1" in err
    code, _, err = run(capsys, ["errmap", "--panel", "a", "--axis1", "psi"])
    assert code == 2 and "axis1" in err


def test_errmap_rejects_non_finite_range(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    argv = ["errmap", "--panel", "a", "--resolution", "3", "--range1", "nan,1", "--output", str(path)]
    code, _, err = run(capsys, argv)
    assert code == 2 and "start" in err
    assert not path.exists()


def test_errmap_rejects_non_finite_fixed_angle(capsys):
    code, out, err = run(
        capsys,
        ["errmap", "--panel", "custom", "--axis1", "theta1", "--axis2", "phi",
         "--range1", "0,1", "--range2", "0,1", "--resolution", "3", "--psi", "nan"],
    )
    assert code == 2 and "psi" in err
    assert out == ""


def test_errmap_rejects_range_beyond_max_angle(capsys):
    argv = ["errmap", "--panel", "custom", "--axis1", "theta", "--axis2", "psi_phi_locked",
            "--range1", "0,1", "--range2", "0,1e308", "--resolution", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: stop:") and err.count("\n") == 1


def test_errmap_bounds_scaled_sweep_angle(capsys):
    # psi_phi_locked writes phi = 2v, so its range is bounded by MAX_ANGLE / 2.
    base = ["errmap", "--panel", "custom", "--axis1", "theta", "--axis2", "psi_phi_locked",
            "--range1", "0,1", "--resolution", "2"]
    code, out, err = run(capsys, base + ["--range2", "0,1000"])
    assert code == 2 and out == ""
    assert err.startswith("error: stop:") and err.count("\n") == 1
    code, out, err = run(capsys, base + ["--range2", "999,1000"])
    assert code == 2 and out == "" and err.count("\n") == 1
    code, out, err = run(capsys, base + ["--range2", "499,500"])
    assert code == 0 and err == ""
    assert len(parse_csv(out)) == 4


def test_errmap_accepts_dash_led_ranges(capsys):
    base = ["errmap", "--panel", "custom", "--axis1", "theta1", "--axis2", "phi", "--resolution", "3"]
    code, spaced, _ = run(capsys, base + ["--range1", "-1,1", "--range2", "-0.5,0.5"])
    assert code == 0
    code, joined, _ = run(capsys, base + ["--range1=-1,1", "--range2=-0.5,0.5"])
    assert code == 0 and spaced == joined
    assert parse_csv(spaced)[0][:2] == (-1.0, -0.5)


@pytest.mark.parametrize(
    "argv, field",
    [
        (["device", "rashba-angle", "--alpha", "4e-11", "--length", "nan"], "length"),
        (["device", "pulse-angle", "--segments", "1:0"], "segments[0].duration"),
        (["protocol", "--delta", "4"], "delta"),
        (["protocol", "--delta", "1", "--gamma", "7"], "gamma"),
        (["protocol", "--delta", "1", "--phi", "2000"], "phi"),
        (["montecarlo", "--delta", "1", "--shots", "10", "--efficiency", "2"], "efficiency"),
    ],
)
def test_validation_error_names_field_once(capsys, argv, field):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}: ") and err.count(field) == 1


TWO_PI = "6.283185307179586"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["errmap", "--panel", "a", "--theta1", "0.3"], "theta1"),
        (["errmap", "--panel", "a", "--theta1", "nan"], "theta1"),
        (["errmap", "--panel", "a", "--psi", "inf"], "psi"),
        (["errmap", "--panel", "c", "--phi", "0.3"], "phi"),
        (["errmap", "--panel", "c", "--theta2", "0.3"], "theta2"),
        (["errmap", "--panel", "b", "--ideal", "--theta1", "0.2"], "ideal"),
        (["errmap", "--panel", "a", "--resolution", "2", "--theta1", "nan", "--psi", "inf", "--ideal"],
         "theta1"),
        (["errmap", "--panel", "custom", "--axis1", "theta1", "--axis2", "phi",
          "--range1", "0,1", "--range2", "0,1", "--theta1", "0.7"], "theta1"),
        (["errmap", "--panel", "custom", "--axis1", "theta", "--axis2", "psi",
          "--range1", "0,1", "--range2", "0,1", "--theta2", "0.7"], "theta2"),
        (["protocol", "--variant", "three-dot", "--delta", "1", "--psi", "0.2"], "psi"),
        (["protocol", "--delta", "1", "--theta1", "inf"], "theta1"),
        (["protocol", "--variant", "three-dot", "--delta", "1.0", "--theta1", "0.5"], "theta1"),
        (["protocol", "--delta", "1.0", "--ideal", "--psi", "0.3"], "ideal"),
    ],
)
def test_gate_flag_is_applied_or_rejected(capsys, tmp_path, argv, field):
    # A flag on a gate the command sets itself, a non-finite flag and a flag
    # beside --ideal each exit 2 before any output.
    path = tmp_path / "out"
    code, out, err = run(capsys, argv + ["--output", str(path)])
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith(f"error: {field}: ") and err.count(field) == 1 and err.count("\n") == 1


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


def test_errmap_validation_failure_leaves_no_file(capsys, tmp_path):
    path = tmp_path / "never.csv"
    code, _, _ = run(capsys, ["errmap", "--range1", "nope", "--output", str(path)])
    assert code == 2
    assert not path.exists()


def test_errmap_unwritable_path_exits_nonzero(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "grid.csv"
    code, _, err = run(capsys, GOLDEN_ARGS + ["--output", str(path)])
    assert code == 1
    assert not path.exists()


def test_errmap_rejects_grid_over_node_limit(capsys, tmp_path, monkeypatch):
    # The limit is checked before any axis is sampled, so no array is built.
    monkeypatch.setattr(AxisSpec, "values", lambda self: pytest.fail("an axis was sampled"))
    path = tmp_path / "grid.csv"
    code, out, err = run(capsys, ["errmap", "--resolution", "100000", "--output", str(path)])
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith("error: resolution: ") and err.count("\n") == 1


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
    "argv, field",
    [
        (["device", "rashba-length", "--alpha", "4e-11", "--angle=--"], "angle"),
        (["device", "pulse-angle", "--segments", "--"], "segments"),
        (["errmap", "--panel=--"], "panel"),
        (["protocol", "--delta=--"], "delta"),
    ],
)
def test_flag_spelt_equals_double_dash_exits_2(capsys, argv, field):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("flag", ["range1", "range2", "axis1", "axis2"])
def test_errmap_empty_value_exits_2_naming_its_flag(capsys, tmp_path, flag):
    path = tmp_path / "grid.csv"
    code, out, err = run(capsys, ["errmap", "--panel", "b", f"--{flag}=", "--output", str(path)])
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize(
    "given, flag",
    [
        (["--axis1", "theta1", "--range1", "0,1", "--range2", "0,1"], "axis2"),
        (["--axis2", "phi", "--range1", "0,1", "--range2", "0,1"], "axis1"),
        (["--axis1", "theta1", "--axis2", "phi", "--range1", "0,1"], "range2"),
        (["--axis1", "theta1", "--axis2", "phi", "--range2", "0,1"], "range1"),
        (["--axis1", "theta1", "--axis2", "bogus", "--range1", "0,1", "--range2", "0,1"], "axis2"),
        (["--axis1", "bogus", "--axis2", "phi", "--range1", "0,1", "--range2", "0,1"], "axis1"),
    ],
)
def test_errmap_custom_panel_names_the_flag_at_fault(capsys, tmp_path, given, flag):
    path = tmp_path / "grid.csv"
    code, out, err = run(capsys, ["errmap", "--panel", "custom", *given, "--output", str(path)])
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith(f"error: {flag}: ")


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


def test_dash_led_token_after_a_switch_or_a_spelt_value_exits_2(capsys, tmp_path):
    # Only a bare `--name` takes the dash-led token after it: a switch takes no
    # value, and `--name=VALUE` has its value already.
    path = tmp_path / "out.json"
    for argv in (["--output", str(path), "--ideal", "-1"], [f"--output={path}", "-1"]):
        code, out, _ = run(capsys, ["protocol", "--delta", "1"] + argv)
        assert code == 2 and out == "" and not path.exists()


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


def test_montecarlo_rejects_zero_shots(capsys):
    code, _, err = run(capsys, ["montecarlo", "--delta", "0", "--shots", "0"])
    assert code == 2
    assert "shots" in err


def test_montecarlo_rejects_shots_over_limit(capsys, monkeypatch):
    monkeypatch.setattr(spinreadout.montecarlo, "_batch_rng", lambda *args: pytest.fail("sampled"))
    code, out, err = run(capsys, ["montecarlo", "--delta", "1", "--shots", str(MAX_SHOTS + 1)])
    assert code == 2 and out == "" and err.startswith("error: shots: ")


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


def test_device_rejects_non_finite_input(capsys):
    code, _, err = run(capsys, ["device", "rashba-length", "--alpha", "4e-11", "--angle", "nan"])
    assert code == 2 and "target_angle" in err
    code, _, err = run(capsys, ["device", "pulse-angle", "--segments", "nan:1"])
    assert code == 2 and "segments" in err
    cases = [
        (["rashba-angle", "--alpha", "4e-11", "--length", "nan"], "length"),
        (["rashba-angle", "--alpha", "nan", "--length", "3"], "alpha"),
        (["pulse-for-angle", "--angle", "nan", "--duration", "1"], "target"),
        (["pulse-for-angle", "--angle", "1", "--duration", "nan"], "duration"),
    ]
    for argv, field in cases:
        code, out, err = run(capsys, ["device"] + argv)
        assert code == 2 and out == "" and err.startswith(f"error: {field}:")


def test_device_rejects_malformed_segments(capsys):
    code, _, err = run(capsys, ["device", "pulse-angle", "--segments", "1:2:3"])
    assert code == 2
    assert "segments" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["pulse-angle", "--segments", "1e308:1e308"], "angle"),
        (["pulse-for-angle", "--angle", "1e308", "--duration", "1e-300"], "amplitude"),
        (["rashba-angle", "--alpha", "1e300", "--length", "1e300"], "angle"),
        # 2 m* alpha underflows to 0 for a subnormal alpha.
        (["rashba-length", "--alpha", "1e-320", "--angle", "1"], "length"),
    ],
)
def test_device_rejects_non_finite_output(capsys, argv, field):
    code, out, err = run(capsys, ["device"] + argv)
    assert code == 2 and out == "" and err.startswith(f"error: {field}: ")


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
