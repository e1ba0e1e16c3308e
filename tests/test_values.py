"""The table of pinned values: one row per known value of a public function or
value type, or of what a successful command prints.  A new pinned value is
one more row.

Each row is `(call, expected, tol)`.  With `tol` None, `call()` must equal
EXPECTED.  With a number, `call()` must have EXPECTED's shape and lie within
`tol` of it in every element, complex ones by modulus; 0 means equal.  A
relative tolerance is written as `1e-12 * abs(expected)`.  A command runs
through `cli`, which asserts exit 0 and an empty stderr; its row parses the
printed text with `json.loads`, CSV splitting or `split()`, and a row that
compares two commands pins True.  Each row's test id is its call's source
line.  Identities over the whole domain are properties in
`test_properties.py`; bad input is a row of `test_bad_input.py` or of
`test_cli.py`'s table; output bytes are the digest table's.
"""

import cmath
import json
import math
import re
from operator import itemgetter

import numpy as np
import pytest

from spinreadout import (
    AxisSpec,
    DetectorModel,
    GateParams,
    PulseSpec,
    ShotRecord,
    SpinInput,
    Unitary,
    apply,
    avg_abs_error,
    basis_index,
    compose,
    dot_occupancy,
    effective_outcome_probability,
    extremal_error,
    measurement_error,
    noisy_sequence,
    occupancies,
    probabilities_closed_form,
    pulse_angle,
    pulse_for_angle,
    rashba_angle,
    rashba_length,
    run_readout,
    rx_mode,
    rz_spin,
    sample_readout,
    sweep_grid,
    three_dot_sequence,
    u2_general,
)
from spinreadout.device import HBAR_UEV_PS
from spinreadout.montecarlo import BATCH_SHOTS, MAX_SHOTS
from spinreadout.quadrature import integrate_adaptive

from shared import GOLDEN_ARGS, GOLDEN_CSV, one_hot, row_ids, run_main

SQ2 = 1 / math.sqrt(2)
QUARTER = math.pi / 4
IDEAL = GateParams.ideal()
HALF = GateParams(QUARTER, QUARTER, 0.0, math.pi)  # p_up = 1/2 for the input |up>
DETUNED = GateParams(0.7, 0.8, 1.5, 3.0)
LEAKY = DetectorModel(0.9, 0.05)


def out(gate, spin, mode, dim=4):
    """Amplitudes of `gate` applied to |spin; mode>."""
    return apply(gate, one_hot(spin, mode, dim)).amplitudes


def coupler():
    """The three-dot coupler: a full hop 0 -> 0p through the region rotating the spin by -pi/2."""
    return compose([rx_mode(math.pi / 2, ("0", "0p"), 6), rz_spin(-math.pi / 2, "0p", 6)])


def detected(*args):
    return sample_readout(*args).detected_dot1


def angle(*segments):
    return pulse_angle(PulseSpec(segments))


def cli(*argv):
    """What a command prints on stdout; it must exit 0 and print nothing on stderr."""
    code, stdout, stderr = run_main(list(argv))
    assert (code, stderr) == (0, ""), stderr
    return stdout


def flags(*command):
    """The set of --options that a command's --help prints."""
    return set(re.findall(r"--[a-z][a-z0-9-]*", cli(*command, "--help")))


PI_2, TWO_PI = str(math.pi / 2), str(2 * math.pi)
SPIN_UP_IDEAL = ("protocol", "--variant", "two-dot", "--delta", "0", "--gamma", "0", "--ideal")
SPIN_DOWN_THREE_DOT = ("protocol", "--variant", "three-dot", "--delta", "3.14159265", "--ideal")
DASH_LED = ("errmap", "--panel", "custom", "--axis1", "theta1", "--axis2", "phi", "--resolution", "3")
PANEL_B5 = ("errmap", "--panel", "b", "--resolution", "5")
# The shared flag groups, each declared once in cli.build_parser; every command also takes --help and --output.
SPIN = {"--delta", "--gamma"}
GATES = {"--ideal", "--theta1", "--theta2", "--psi", "--phi"}
MATERIAL = {"--alpha", "--mass"}


ROWS = [
    # core: the index map, the gate builders, composition and the input state
    (lambda: [basis_index(s, m, 4) for s in ("up", "down") for m in ("0", "1")], [0, 1, 2, 3], None),
    (lambda: [basis_index(s, m, 6) for s in ("up", "down") for m in ("0", "0p", "1")], [0, 1, 2, 3, 4, 5], None),
    (lambda: out(rx_mode(QUARTER), "up", "0"), [SQ2, 1j * SQ2, 0, 0], 1e-12),
    (lambda: rx_mode(0.0).matrix, np.eye(4), 0),
    (lambda: out(rx_mode(math.pi / 2), "up", "0"), [0, 1j, 0, 0], 1e-12),
    (lambda: out(rx_mode(math.pi / 2), "down", "0"), [0, 0, 0, 1j], 1e-12),
    (lambda: out(rx_mode(1.234, ("0", "0p"), 6), "down", "1", 6), [0, 0, 0, 0, 0, 1], 1e-15),
    # the ideal conditional phase flips the sign of |down;0> only
    (lambda: u2_general(math.pi / 2, math.pi).matrix, np.diag([1, 1, -1, 1]), 1e-12),
    (lambda: out(u2_general(math.pi / 2, math.pi), "down", "0"), [0, 0, -1, 0], 1e-12),
    (lambda: out(u2_general(math.pi / 2, math.pi), "up", "0"), [1, 0, 0, 0], 1e-12),
    (lambda: u2_general(0.0, 0.0).matrix, np.eye(4), 1e-15),
    (lambda: u2_general(math.pi / 2, 0.0).matrix, np.diag([1j, 1, 1j, 1]), 1e-12),
    (lambda: out(rz_spin(-math.pi / 2, "0"), "up", "0"), [-1j, 0, 0, 0], 1e-12),
    (lambda: out(rz_spin(-math.pi / 2, "0"), "down", "1"), [0, 0, 0, 1], 1e-15),
    (lambda: rz_spin(0.0, "0").matrix, np.eye(4), 0),
    (lambda: compose([Unitary(np.eye(4)), Unitary(np.eye(4))]).matrix, np.eye(4), 0),
    # rz on dot 0, then a full hop: the phase rides along to dot 1
    (lambda: out(compose([rz_spin(0.7, "0"), rx_mode(math.pi / 2)]), "up", "0"),
     [0, 1j * cmath.exp(0.7j), 0, 0], 1e-12),
    (lambda: SpinInput(math.pi / 3, gamma=1.1).to_state().amplitudes,
     [math.cos(math.pi / 6), 0, cmath.exp(1.1j) * math.sin(math.pi / 6), 0], 1e-12),
    (lambda: GateParams.ideal(), GateParams(QUARTER, QUARTER, math.pi / 2, math.pi), None),
    # protocol
    (lambda: apply(noisy_sequence(IDEAL), SpinInput(math.pi / 2).to_state()).amplitudes, [0, 1j * SQ2, -SQ2, 0], 1e-12),
    (lambda: run_readout(SpinInput(0.0), IDEAL)[1].p_up, 1.0, 1e-12),
    (lambda: run_readout(SpinInput(math.pi / 2), IDEAL)[1].p_up, 0.5, 1e-12),
    (lambda: run_readout(SpinInput(math.pi), IDEAL)[1].p_down, 1.0, 1e-12),
    (lambda: out(coupler(), "up", "0", 6), [0, 1, 0, 0, 0, 0], 1e-12),
    (lambda: out(coupler(), "down", "0", 6), [0, 0, 0, 0, -1, 0], 1e-12),
    (lambda: out(coupler(), "down", "1", 6), [0, 0, 0, 0, 0, 1], 1e-15),  # dot 1 is not part of it
    (lambda: dot_occupancy(one_hot("up", "1"), "1"), 1.0, 0),
    (lambda: dot_occupancy(apply(rx_mode(QUARTER), one_hot("up", "0")), "1"), 0.5, 1e-12),
    (lambda: dot_occupancy(apply(noisy_sequence(IDEAL), SpinInput(math.pi / 3).to_state()), "1"), 0.75, 1e-12),
    (lambda: set(occupancies(apply(three_dot_sequence(), SpinInput(2.0, 0.3).to_state(6)))), {"0", "0p", "1"}, None),
    (lambda: sum(occupancies(apply(three_dot_sequence(), SpinInput(2.0, 0.3).to_state(6))).values()), 1.0, 1e-12),
    # error_analysis and quadrature
    (lambda: probabilities_closed_form(HALF, 0.0).p_up, 0.5, 1e-12),
    (lambda: measurement_error(IDEAL, 1.1), 0.0, 1e-12),
    # a stuck electron is a correct "down" call when the input is |down>
    (lambda: measurement_error(GateParams(0, 0, 0.3, 0.7), math.pi), 0.0, 1e-12),
    (lambda: measurement_error(HALF, 0.0), -0.5, 1e-12),
    (lambda: extremal_error(IDEAL), (0.0, 0.0), 1e-12),
    (lambda: extremal_error(HALF).e_min, -0.5, 1e-12),
    (lambda: avg_abs_error(IDEAL), 0.0, None),
    (lambda: sweep_grid(AxisSpec("theta1", QUARTER, QUARTER, 2), AxisSpec("theta2", QUARTER, QUARTER, 2), IDEAL).values,
     np.zeros((2, 2)), 0),
    (lambda: AxisSpec("psi_phi_locked", 0, 1, 2).gates, ("psi", "phi"), None),
    (lambda: integrate_adaptive(math.sin, 0.0, math.pi), 2.0, 1e-10),
    # a kinked integrand, the case the error average needs
    (lambda: integrate_adaptive(lambda x: abs(math.cos(x)), 0.0, math.pi), 2.0, 1e-9),
    (lambda: integrate_adaptive(lambda x: x * x, 0.0, 1.0), 1 / 3, 1e-12),
    (lambda: integrate_adaptive(math.cos, 1.5, 1.5), 0.0, None),
    # montecarlo: deterministic inputs, then counts of the common-random-numbers
    # draws, pinned so that any change to a draw, to the batch split or to the
    # per-shot rule shows here
    (lambda: detected(SpinInput(0.0), IDEAL, 500, 1), 500, None),
    (lambda: sample_readout(SpinInput(0.0), IDEAL, 500, 1).estimated_p_up, 1.0, None),
    (lambda: detected(SpinInput(math.pi), IDEAL, 500, 1), 0, None),
    *[(lambda seed=seed: detected(SpinInput(1.1, 0.4), DETUNED, 20_000, seed, DetectorModel(0.93, 0.04)), count, None)
      for seed, count in ((42, 13722), (43, 13719))],
    (lambda: detected(SpinInput(math.pi / 3), IDEAL, BATCH_SHOTS + 1, 5, DetectorModel(0.6, 0.0)), 3718, None),
    (lambda: detected(SpinInput(math.pi / 2), IDEAL, 3 * BATCH_SHOTS + 5, 7), 12289, None),
    (lambda: detected(SpinInput(2.0, 1.0), GateParams(0.3, 1.2, 2.0, 0.5), BATCH_SHOTS, 2**40, DetectorModel(0.0, 1.0)),
     2360, None),
    (lambda: detected(SpinInput(0.9), GateParams(1.0, 0.4, 0.2, 4.0), 1, 0, DetectorModel(0.5, 0.5)), 1, None),
    (lambda: MAX_SHOTS >= 10**6, True, None),  # the shot-sampling benchmark runs this many
    (lambda: sample_readout(SpinInput(math.pi / 2), IDEAL, 10_000, 7).estimated_p_up, 0.5, 0.02),
    (lambda: sample_readout(SpinInput(0.0), IDEAL, np.int64(10), np.uint32(3)), ShotRecord(10, 10, 3, 1.0, 1.0), None),
    (lambda: effective_outcome_probability(0.37, DetectorModel()), 0.37, None),
    (lambda: effective_outcome_probability(1.0, DetectorModel(0.9, 0.0)), 0.9, 1e-12),
    (lambda: effective_outcome_probability(0.5, DetectorModel(0.8, 0.1)), 0.45, 1e-12),
    (lambda: all(np.diff([effective_outcome_probability(0.6, DetectorModel(eta, 0.05))
                          for eta in np.linspace(0, 1, 11)]) >= 0), True, None),
    # the record carries the detector-adjusted rate of the matrix path
    (lambda: sample_readout(SpinInput(1.1), DETUNED, 100, 2, LEAKY).analytic_p_up - effective_outcome_probability(
        dot_occupancy(apply(noisy_sequence(DETUNED), SpinInput(1.1).to_state()), "1"), LEAKY), 0.0, 0),
    # device: theta = -(pulse area) / hbar, and its inverse
    (lambda: angle((-QUARTER * HBAR_UEV_PS / 2.0, 2.0)), QUARTER, 1e-12 * QUARTER),
    (lambda: angle(*[(-math.pi / 8 * HBAR_UEV_PS / 1.5, 1.5)] * 2), QUARTER, 1e-12 * QUARTER),
    (lambda: angle((-1.0, 1.0)), 1.5193, 1e-4),  # 1 ueV*ps of negative area
    (lambda: angle((-1.0, 1.0)), 1.0 / HBAR_UEV_PS, 1e-15 / HBAR_UEV_PS),
    (lambda: angle((-0.8, 0.9)) / angle((-0.4, 0.9)), 2.0, 1e-12 * 2.0),
    (lambda: angle((-0.4, 1.8)) / angle((-0.4, 0.9)), 2.0, 1e-12 * 2.0),
    *[(lambda t=t, d=d: angle((pulse_for_angle(t, d), d)), t, 1e-12 * abs(t))
      for t in (QUARTER, -1.3, 2.9) for d in (0.1, 1.0, 7.5)],
    (lambda: pulse_for_angle(0.0, 1.0), 0.0, None),
    (lambda: pulse_for_angle(QUARTER, 0.1), -5.1696, 1e-3),
    # a zero area turns by +0.0, not -0.0
    (lambda: math.copysign(1.0, angle((1.0, 1.0), (-1.0, 1.0))), 1.0, None),
    (lambda: math.copysign(1.0, pulse_for_angle(0.0, 1.0)), 1.0, None),
    (lambda: rashba_length(4e-11, 0.03, 1.0) / rashba_length(2e-11, 0.03, 1.0), 0.5, 1e-12 * 0.5),
    # L * alpha * m* does not depend on alpha or m*
    *[(lambda a=a, m=m: rashba_length(a, m, 0.8) * a * m / (rashba_length(1e-11, 0.02, 0.8) * 1e-11 * 0.02),
       1.0, 1e-12) for a, m in ((1e-11, 0.067), (3e-11, 0.02), (3e-11, 0.067))],
    *[(lambda a=a, m=m, t=t: rashba_angle(a, m, rashba_length(a, m, t)), t, 1e-12 * t)
      for a, m, t in ((4e-11, 0.026, math.pi / 2), (1.2e-11, 0.05, 0.3))],
    # command line: each command's flag set, so that every flag it takes is one it applies or rejects
    (lambda: flags("protocol"), {"--help", "--output", *SPIN, *GATES, "--variant"}, None),
    (lambda: flags("errmap"), {"--help", "--output", *GATES, "--panel", "--resolution", "--range1", "--range2",
                               "--axis1", "--axis2", "--format"}, None),
    (lambda: flags("montecarlo"), {"--help", "--output", *SPIN, *GATES, "--shots", "--seed", "--efficiency",
                                   "--false-positive"}, None),
    (lambda: flags("device", "pulse-angle"), {"--help", "--output", "--segments"}, None),
    (lambda: flags("device", "pulse-for-angle"), {"--help", "--output", "--angle", "--duration"}, None),
    (lambda: flags("device", "rashba-length"), {"--help", "--output", *MATERIAL, "--angle"}, None),
    (lambda: flags("device", "rashba-angle"), {"--help", "--output", *MATERIAL, "--length"}, None),
    # command line: protocol reports
    (lambda: json.loads(cli(*SPIN_UP_IDEAL))["p_up"], 1.0, 1e-12),
    (lambda: json.loads(cli(*SPIN_UP_IDEAL))["occupancy"]["1"], 1.0, 1e-12),
    (lambda: json.loads(cli("protocol", "--delta", PI_2))["variant"], "two-dot", None),
    (lambda: json.loads(cli("protocol", "--delta", PI_2))["p_up"], 0.5, 1e-12),
    (lambda: list(json.loads(cli("protocol", "--delta", PI_2))["amplitudes"]), ["f1", "f2", "g1", "g2"], None),
    (lambda: [complex(a["re"], a["im"]) for a in json.loads(cli("protocol", "--delta", PI_2))["amplitudes"].values()],
     [0, -SQ2, 1j * SQ2, 0], 1e-12),
    (lambda: json.loads(cli(*SPIN_DOWN_THREE_DOT))["occupancy"]["0p"], 1.0, 1e-12),
    (lambda: itemgetter("p_down", "unconverted")(json.loads(cli(*SPIN_DOWN_THREE_DOT))), (1.0, 0.0), 1e-12),
    # unset gate flags default to the ideal gates
    (lambda: json.loads(cli("protocol", "--delta", "1.0", "--psi", "0.3"))["params"],
     {"theta1": QUARTER, "theta2": QUARTER, "psi": 0.3, "phi": math.pi}, None),
    # command line: error maps
    (lambda: cli(*GOLDEN_ARGS), GOLDEN_CSV, None),
    (lambda: json.loads(cli(*GOLDEN_ARGS, "--format", "json"))["axis1"]["name"], "theta1", None),
    (lambda: json.loads(cli(*GOLDEN_ARGS, "--format", "json"))["axis2"]["num"], 3, None),
    (lambda: json.loads(cli(*GOLDEN_ARGS, "--format", "json"))["values"],
     np.reshape([float(line.split(",")[2]) for line in GOLDEN_CSV.splitlines()[1:]], (3, 3)), 1e-12),
    # every node of a grid collapsed onto the ideal point reads 0
    (lambda: [float(line.split(",")[2]) for line in cli("errmap", "--panel", "a", "--resolution", "3", "--range1",
     "0.785398,0.785398", "--range2", "0.785398,0.785398").splitlines()[1:]], np.zeros(9), 1e-12),
    # a preset panel takes each range for its own axis
    (lambda: [line.split(",")[:2] for line in cli("errmap", "--panel", "a", "--resolution", "2", "--range1", "0,1",
     "--range2", "0,0.5").splitlines()[1:]], [["0", "0"], ["0", "0.5"], ["1", "0"], ["1", "0.5"]], None),
    (lambda: cli("errmap", "--panel", "custom", "--axis1", "theta", "--axis2", "psi_phi_locked", "--range1",
                 f"0,{PI_2}", "--range2", f"0,{TWO_PI}", "--resolution", "3")
     == cli("errmap", "--panel", "c", "--resolution", "3"), True, None),
    # a preset panel applies a flag for a gate it does not sweep
    (lambda: cli(*PANEL_B5, "--theta1", "0.5") == cli("errmap", "--panel", "custom", "--axis1", "psi", "--axis2", "phi",
     "--range1", f"0,{TWO_PI}", "--range2", f"0,{TWO_PI}", "--resolution", "5", "--theta1", "0.5"), True, None),
    (lambda: cli(*PANEL_B5) != cli(*PANEL_B5, "--theta1", "0.5"), True, None),
    # psi_phi_locked writes phi = 2v, so its range is bounded by MAX_ANGLE / 2:
    # accepted up to 500 here, rejected past it in test_cli.py's table
    (lambda: cli("errmap", "--panel", "custom", "--axis1", "theta", "--axis2", "psi_phi_locked", "--range1", "0,1",
                 "--range2", "499,500", "--resolution", "2").count("\n"), 1 + 4, None),
    (lambda: cli("errmap", "--panel", "b", "--resolution", "401").count("\n"), 1 + 401 * 401, None),
    # a dash-led value reads as a value, spaced or joined by =
    (lambda: cli(*DASH_LED, "--range1", "-1,1", "--range2", "-0.5,0.5").splitlines()[1].split(",")[:2],
     ["-1", "-0.5"], None),
    (lambda: cli(*DASH_LED, "--range1", "-1,1", "--range2", "-0.5,0.5")
     == cli(*DASH_LED, "--range1=-1,1", "--range2=-0.5,0.5"), True, None),
    *[(lambda a=a: cli(*a) == cli(*a[:-2], f"{a[-2]}={a[-1]}"), True, None) for a in (
        ("device", "pulse-angle", "--segments", "-0.658212:1"),
        ("protocol", "--delta", "1", "--theta1", "-1e-05"),
        ("montecarlo", "--delta", "1", "--shots", "1000", "--phi", "-2.5e-4"),
        ("device", "pulse-for-angle", "--angle", "-1e-3", "--duration", "1"),
        ("device", "rashba-angle", "--alpha", "4e-11", "--length", "-1e-3"))],
    # command line: seeded Monte Carlo records
    (lambda: json.loads(cli("montecarlo", "--delta", PI_2, "--shots", "10000", "--seed", "3"))["estimated_p_up"],
     0.4991, None),
    (lambda: itemgetter("analytic_p_up", "estimated_p_up")(json.loads(cli(
        "montecarlo", "--delta", "0", "--shots", "2000", "--seed", "1", "--efficiency", "0.8", "--false-positive", "0.1"
    ))), (0.8, 0.8), 1e-12),
    # command line: device calculators
    (lambda: float(cli("device", "pulse-angle", "--segments", "-0.658212:1").split()[0]), 1.0, 1e-6),
    (lambda: float(cli("device", "rashba-angle", "--alpha", "0.93e-11", "--length",
                       cli("device", "rashba-length", "--alpha", "0.93e-11", "--angle", "0.7").split()[0]).split()[0]),
     0.7, 1e-12 * 0.7),
    (lambda: cli("device", "pulse-for-angle", "--angle", "0", "--duration", "1"), "0.0 ueV\n", None),
]


@pytest.mark.parametrize("call, expected, tol", ROWS, ids=row_ids(ROWS))
def test_pinned_value(call, expected, tol):
    got = call()
    if tol is None:
        assert got == expected
    else:
        assert np.shape(got) == np.shape(expected)
        assert np.max(np.abs(np.subtract(got, expected))) <= tol


def test_statevector_is_immutable():
    with pytest.raises(ValueError):
        one_hot("up", "0").amplitudes[0] = 0.0
