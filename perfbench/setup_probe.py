"""Set-up probe: import the package from src/ and build one workload's configs.

Prints ``ready`` once both are done, which is where the benchmark's
``setup_s`` clock stops.  Usage: setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402  (imports the whole package)

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
