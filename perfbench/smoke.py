"""Smoke check of the benchmark itself, kept out of the repo's tier-1 tests.

    python3 perfbench/smoke.py

It checks that the oracle's 4x4 sequence reproduces U1 U2 U1 = diag(i sx, -sz)
at ideal gates and that a wrong gate breaks that identity, runs one round of
every workload at a tiny size with all checks on, and feeds each checker one
corrupted output that it must reject.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def swap_two_rows(op, text):
    lines = op.path.read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    op.path.write_text("".join(lines))
    return text


def shift_e_min(op, result):
    probs, closed, ebar, extremes = result
    return probs, closed, ebar, extremes._replace(e_min=extremes.e_min + 1e-9)


def shift_analytic(op, text):
    record = json.loads(text)
    record["analytic_p_up"] += 1e-9
    return json.dumps(record)


CORRUPT = {"errmap": swap_two_rows, "readout-queries": shift_e_min, "shot-sampling": shift_analytic}


def check_oracle() -> None:
    oracle.check_identity()
    right = oracle.phase
    oracle.phase = lambda psi, phi: right(psi, -phi)  # spin rotation the wrong way
    try:
        oracle.check_identity()
    except AssertionError:
        pass
    else:
        raise AssertionError("check_identity accepted a wrong phase gate")
    finally:
        oracle.phase = right


def check_workloads(out_dir: Path) -> None:
    for name, cls in WORKLOADS.items():
        workload = cls(seed=0, out_dir=out_dir, small=True)
        ops = workload.next_round()
        for op in ops:
            workload.check(op, workload.execute(op))
        workload.finish()
        op = ops[0]
        bad = CORRUPT[name](op, workload.execute(op))
        try:
            workload.check(op, bad)
        except CheckFailed:
            pass
        else:
            raise AssertionError(f"{name}: the checker accepted a corrupted output")
        print(f"{name}: {len(ops)} operations checked, corrupted output rejected")


def main() -> int:
    check_oracle()
    print("oracle: U1 U2 U1 = diag(i sx, -sz) at ideal gates; a wrong gate is caught")
    out_dir = ROOT / ".perfbench_out" / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        check_workloads(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
