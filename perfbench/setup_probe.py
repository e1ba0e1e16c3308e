"""Set-up of one fresh interpreter: import numpy, import spinreadout, run one
warm-up operation of a workload.  Prints one JSON line with each phase in ms.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

run.py starts it several times per run and takes the median of the wall
times it sees; spinreadout must be importable (run.py puts src on PYTHONPATH).
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_done = time.perf_counter()
import spinreadout  # noqa: E402,F401
import spinreadout.cli  # noqa: E402,F401

package_done = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = WORKLOADS[name](seed, out_dir)
workload.execute(workload.next_round()[0])
op_done = time.perf_counter()

print(json.dumps({
    "import_numpy_ms": (numpy_done - start) * 1e3,
    "import_spinreadout_ms": (package_done - numpy_done) * 1e3,
    "first_op_ms": (op_done - package_done) * 1e3,
}))
