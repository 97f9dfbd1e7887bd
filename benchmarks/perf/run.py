"""Path-independent entry point (the ``command`` of ``BENCHMARK.json``).

Puts the checkout's root and ``src/`` on ``sys.path`` so the benchmark runs
from a bare checkout with no environment set, then hands over to
:func:`benchmarks.perf.cli.main`.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root / "src"), str(root)]
    from benchmarks.perf.cli import main

    sys.exit(main())
