"""The benchmark command named in BENCHMARK.json.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Equivalent to ``python -m benchmarks.e2e run ...`` from the repository
root.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Import the package from the repository root, not this directory.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.e2e.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
