"""``python -m benchmarks.e2e run|compare`` (see ``cli``)."""

import sys

from .cli import main

sys.exit(main())
