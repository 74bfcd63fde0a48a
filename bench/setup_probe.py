"""Set up one workload in a fresh process, print ``ready``, and exit.

``run.py`` times each of these processes from its start to the
``ready`` line: interpreter start, import, data generation and model
build. Usage: ``python3 bench/setup_probe.py <workload> <seed> <out_dir>``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source tree on the path)

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, out_dir)
    print("ready", flush=True)
