"""Start ``repro serve`` or ``repro work`` with span wrappers installed.

    python -m benchmarks.e2e.traced_launch TRACE_DIR serve --port 0 ...
    python -m benchmarks.e2e.traced_launch TRACE_DIR work --server URL ...

The wrappers go in before ``repro.cli.main`` runs, so the service's
process-pool children inherit them through fork.  Each process appends
its spans to ``TRACE_DIR/spans-<pid>.jsonl``.
"""

from __future__ import annotations

import sys

from .probes import install_service
from .spans import Recorder


def main(argv: list[str]) -> int:
    """Install the probes for the command's role, then run the CLI."""
    trace_dir, command = argv[0], argv[1]
    role = {"serve": "service", "work": "worker"}[command]
    install_service(Recorder(trace_dir), role)
    from repro.cli import main as repro_main

    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
