"""Mutation check of the test suite: each mutant in mutants.json must fail it.

    python tests/run_mutants.py

A mutant is one exact substring replacement, `old` to `new`, in one `file`.
The script copies src/ and tests/, with the README.md, pyproject.toml and
perfbench/ that the tests read, to a temporary directory, and runs
`python -m pytest -x -q` on its test files there, the slow property suite
last, so that a mutant the fast tables kill need not wait for it: once
unmutated, which must pass, then once per mutant, which must fail.  The copied
pyproject.toml carries the suite's warnings rule, so a mutant that only makes
a warning, such as a file left open, is killed too.  It never writes to the
working tree.  It ends with `N of M mutants killed in T s`, T being the
whole run's wall time.  Exits 0 when every mutant is killed; exits 1 when the
unmutated copy fails, or naming each mutant that survives and each `old`
string not found exactly once.

pytest does not collect this file.  Add a mutant when a test is found to miss
a bug; never remove one to make this script pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out")


def _pytest_passes(root: Path) -> bool:
    tests = sorted((root / "tests").glob("test_*.py"), key=lambda path: (path.name == "test_properties.py", path.name))
    src = str(root / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        # A mutant may keep its file's size and mtime second, so no .pyc may be reused.
        PYTHONDONTWRITEBYTECODE="1",
    )
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", *map(str, tests)],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=900,
        )
    except subprocess.TimeoutExpired:  # a hung suite does not pass
        return False
    return run.returncode == 0


def main() -> int:
    started = time.perf_counter()
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=IGNORED)
            else:
                shutil.copy2(source, root / name)
        if not _pytest_passes(root):
            print("error: the unmutated copy fails its tests, so no mutant can be judged")
            return 1
        for mutant in mutants:
            label = f"{mutant['file']}: {mutant['old']!r} -> {mutant['new']!r}"
            path = root / mutant["file"]
            original = path.read_text()
            if original.count(mutant["old"]) != 1:
                faults.append(f"not found once: {label}")
                continue
            path.write_text(original.replace(mutant["old"], mutant["new"]))
            start = time.perf_counter()
            killed = not _pytest_passes(root)
            path.write_text(original)
            print(f"{'killed' if killed else 'SURVIVED'} in {time.perf_counter() - start:.1f} s: {label}")
            if not killed:
                faults.append(f"survived: {label}")
    print(f"{len(mutants) - len(faults)} of {len(mutants)} mutants killed in {time.perf_counter() - started:.0f} s")
    for fault in faults:
        print(fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
