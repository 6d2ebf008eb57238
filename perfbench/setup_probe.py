"""Time one set-up of a workload in a fresh interpreter: importing the
package and generating the workload's inputs. Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed> <inputs-dir>
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]][0](int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - t0)
