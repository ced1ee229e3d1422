"""Set-up cost in a fresh interpreter: import posetblock and parse a batch's configs.

    python3 perfbench/setup_probe.py <src dir> <config dir>

Prints the seconds from before `import posetblock` (numpy included) to after
the last config in <config dir> is parsed.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from pathlib import Path  # noqa: E402

import posetblock.config  # noqa: E402

for path in sorted(Path(sys.argv[2]).glob("*.json")):
    posetblock.config.load_config(str(path))
print(time.perf_counter() - start)
