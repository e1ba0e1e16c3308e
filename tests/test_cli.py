"""End-to-end checks of the command-line surface and its file formats."""

import json
import math
import warnings

import pytest

from spinreadout.cli import main

GOLDEN_CSV = (
    "axis1,axis2,Ebar\n"
    "0.25,0.25,0.385075576467\n"
    "0.25,0.5,0.253898598732\n"
    "0.25,0.75,0.167263130826\n"
    "0.5,0.25,0.253898598732\n"
    "0.5,0.5,0.145963290863\n"
    "0.5,0.75,0.0525865151669\n"
    "0.75,0.25,0.167263130826\n"
    "0.75,0.5,0.0525865151669\n"
    "0.75,0.75,0.00250187584989\n"
)
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


def test_protocol_rejects_infinite_angle(capsys):
    code, _, err = run(capsys, ["protocol", "--delta", "1", "--theta1", "inf"])
    assert code == 2
    assert "theta1" in err


def test_protocol_three_dot_rejects_gate_angles(capsys):
    code, _, err = run(capsys, ["protocol", "--variant", "three-dot", "--delta", "1.0", "--theta1", "0.5"])
    assert code == 2
    assert "theta1" in err


def test_protocol_ideal_conflicts_with_explicit_angles(capsys):
    code, _, err = run(capsys, ["protocol", "--delta", "1.0", "--ideal", "--psi", "0.3"])
    assert code == 2
    assert "ideal" in err


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


def test_errmap_row_count_and_ordering(capsys):
    code, out, _ = run(capsys, ["errmap", "--panel", "b", "--resolution", "4"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 16
    # axis1 slowest: the first four rows share the first axis value
    assert len({row[0] for row in rows[:4]}) == 1
    assert len({row[1] for row in rows[:4]}) == 4


def test_errmap_csv_reparses_to_12_digits(capsys):
    code, out, _ = run(capsys, ["errmap", "--panel", "c", "--resolution", "3"])
    assert code == 0
    for row in parse_csv(out):
        for value in row:
            assert float(format(value, ".12g")) == value


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


def test_montecarlo_deterministic_json(capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["montecarlo", "--delta", "0", "--ideal", "--shots", "100", "--seed", "11"]
    assert run(capsys, argv + ["--output", str(first)])[0] == 0
    assert run(capsys, argv + ["--output", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert set(payload) == {"shots", "detected_dot1", "seed", "estimated_p_up", "analytic_p_up"}
    assert payload["detected_dot1"] == 100
    assert payload["analytic_p_up"] == pytest.approx(1.0, abs=1e-12)


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
