"""Put the benchmark's modules and the program on the path.

The suite is run from the repository root as
``python -m pytest bench/tests -q``; it is not part of tier-1.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent

for entry in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
