"""The command line's exit status, bytes and bad argv: the digest table of
every pinned command's output bytes, the table of bad argv, the exit-1 cases
and the README's commands.  What a successful command prints is a row of
`test_values.py`."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import spinreadout.cli
import spinreadout.montecarlo
from spinreadout import GateParams, SpinInput, sample_readout
from spinreadout.error_analysis import panel_axes, sweep_grid
from spinreadout.montecarlo import BATCH_SHOTS, MAX_SHOTS, _seed_words, _shares, _Words
from spinreadout.report import grid_to_csv

from shared import GOLDEN_ARGS, forbid_work, run_main, use_cpus

README = Path(__file__).resolve().parent.parent / "README.md"
# argv -> sha256 of stdout and of the --output file (null when there is none).
# A change that means to alter a command's bytes edits its row.
DIGESTS = json.loads((Path(__file__).resolve().parent / "command_digests.json").read_text())

CUSTOM = ["errmap", "--panel", "custom"]
LOCKED_PAIR = CUSTOM + ["--axis1", "theta", "--axis2", "psi_phi_locked", "--range1", "0,1", "--resolution", "2"]


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
    # an overlap is named before a range that would be out of bounds
    (CUSTOM + ["--axis1", "theta", "--axis2", "theta1", "--range1", "0,1", "--range2", "0,2000"], "axis2", "overlaps"),
    (CUSTOM + ["--axis1", "theta", "--axis2", "theta", "--range1", "0,1", "--range2", "0,2000"], "axis2", "overlaps"),
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


@pytest.mark.parametrize("argv, field, fragment", [(*row, "") if len(row) == 2 else row for row in BAD_ARGV])
def test_bad_command_line_exits_2_naming_its_field(monkeypatch, tmp_path, argv, field, fragment):
    # Exit 2 before any axis is sampled, shot drawn or byte written; a
    # validation error is one line that names its field once.
    forbid_work(monkeypatch)
    path = tmp_path / "out"
    code, out, err = run_main(argv + ["--output", str(path)])
    assert code == 2 and out == "" and not path.exists()
    if field is not None:
        assert err.startswith(f"error: {field}: ") and err.count(field) == 1 and err.count("\n") == 1
        assert fragment in err


@pytest.mark.parametrize(
    "name, out_of_memory",
    [("missing-dir/grid.csv", False), ("", False), ("grid.csv", True)],
    ids=["missing-directory", "directory", "memory-error"],
)
def test_unwritable_output_or_memory_error_exits_1_with_one_line(monkeypatch, tmp_path, name, out_of_memory):
    # The --output path is a file in a missing directory, the empty tmp_path
    # itself, or a new file that a sweep raising MemoryError never reaches.
    def exhausted(*args):
        raise MemoryError

    if out_of_memory:
        monkeypatch.setattr(spinreadout.cli, "sweep_grid", exhausted)
    code, out, err = run_main(GOLDEN_ARGS + ["--output", str(tmp_path / name)])
    assert code == 1 and out == "" and not any(tmp_path.iterdir())
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == "error: out of memory\n" or not out_of_memory


OUTPUT_ROW = next(row for row in DIGESTS if "--output" in row["argv"])


def run_output_row(path):
    """Run the digest table's --output row with its file at `path`: its exit
    status, stdout and stderr."""
    argv = shlex.split(OUTPUT_ROW["argv"])[1:]
    argv[argv.index("--output") + 1] = str(path)
    return run_main(argv)


@pytest.mark.parametrize("extra", [1 << 20, -(1 << 18)], ids=["longer", "shorter"])
def test_output_over_a_longer_or_shorter_file_gives_the_digest_bytes_and_keeps_its_mode(tmp_path, extra):
    # The grid is about 440 KB: the old file is 1 MB longer, or 256 KB shorter.
    path = tmp_path / "grid.csv"
    out = run_main(shlex.split(OUTPUT_ROW["argv"])[1:-2])[1]
    path.write_bytes(b"x" * (len(out) + extra))
    path.chmod(0o640)
    assert run_output_row(path) == (0, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OUTPUT_ROW["output"]
    assert path.stat().st_mode & 0o777 == 0o640


def test_output_to_a_new_file_gets_mode_0o666_less_the_umask(tmp_path):
    path = tmp_path / "grid.csv"
    umask = os.umask(0o027)
    try:
        assert run_output_row(path) == (0, "", "")
    finally:
        os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o640


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_output_to_dev_null_exits_0():
    # A character device is written but never cut to length.
    assert run_output_row("/dev/null") == (0, "", "")


@pytest.mark.parametrize("failing", [0, 20], ids=["calling-thread", "worker-thread"])
def test_a_failing_share_stops_the_other_and_reaches_the_caller(monkeypatch, failing):
    # 40 batches over 2 CPUs: the calling thread counts batches 0-19 and one
    # worker thread 20-39.  Batch `failing` opens one share and raises; the
    # other share's first batch waits for that, so its next stop check comes
    # after the failure and it must end before its last batch.  A batch is
    # known by its seed words, at seed 7 here and 0 in the command below.
    batch_of = {tuple(words): i for seed in (0, 7) for i, words in enumerate(_seed_words(seed, range(40)).tolist())}
    raised = threading.Event()
    drawn = set()

    class ExhaustedAtOneBatch(_Words):
        def generate_state(self, *args):
            batch_index = batch_of[tuple(self.words.tolist())]
            if batch_index == failing:
                raised.set()
                raise MemoryError
            if batch_index == 20 - failing:
                raised.wait(10)
            drawn.add(batch_index)
            return super().generate_state(*args)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(spinreadout.montecarlo, "_Words", ExhaustedAtOneBatch)
    threads = threading.active_count()
    with pytest.raises(MemoryError):
        sample_readout(SpinInput(1.0, 0.0), GateParams.ideal(), 40 * BATCH_SHOTS, 7)
    assert threading.active_count() == threads
    assert 19 not in drawn and 39 not in drawn
    code, out, err = run_main(["montecarlo", "--delta", "1", "--shots", str(40 * BATCH_SHOTS)])
    assert (code, out, err) == (1, "", "error: out of memory\n")
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_seed_words_are_derived_once_per_call_whatever_the_share_count(monkeypatch, cpus):
    # 33 batches make one share per CPU here: 33, 16 + 17 or 8 + 8 + 8 + 9.
    derived, split = [], []

    def seed_words(seed, keys):
        derived.append(keys)
        return _seed_words(seed, keys)

    def shares(n_batches):
        split.extend(_shares(n_batches))
        return split

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(spinreadout.montecarlo, "_seed_words", seed_words)
    monkeypatch.setattr(spinreadout.montecarlo, "_shares", shares)
    sample_readout(SpinInput(1.0, 0.0), GateParams.ideal(), 33 * BATCH_SHOTS, 7)
    assert len(split) == cpus and derived == [range(33)]


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


def test_readme_names_only_tests_and_test_files_that_exist():
    text = README.read_text()
    sources = "\n".join(path.read_text() for path in (README.parent / "tests").glob("*.py"))
    names = set(re.findall(r"`(?:\w+\.py::)?(test_\w+)`", text))
    paths = set(re.findall(r"tests/\w+\.py", text))
    assert names and paths
    assert not names - set(re.findall(r"^def (test_\w+)", sources, re.M))
    assert not {path for path in paths if not (README.parent / path).is_file()}


# Every row on the CPUs the process may use, and each montecarlo row again on
# one CPU, where the calling thread counts every batch.
@pytest.mark.parametrize(
    "row, cpus",
    [pytest.param(row, None, id=row["argv"]) for row in DIGESTS]
    + [pytest.param(row, 1, id=f"{row['argv']} on 1 CPU") for row in DIGESTS if " montecarlo " in row["argv"]],
)
def test_command_bytes_match_the_digest_table(monkeypatch, tmp_path, row, cpus):
    monkeypatch.chdir(tmp_path)
    if cpus:
        use_cpus(monkeypatch, cpus)
    argv = shlex.split(row["argv"])
    code, out, err = run_main(argv[1:])
    assert (code, err) == (0, "")
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
