"""Set-up probe, run in a fresh interpreter: prints the seconds from importing
geodequiv to having resolved every pair named on the command line, the way
the CLI resolves them.

    python3 perfbench/setup_probe.py ellipsoid:1,2,3 lc-demo:m3n4
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from geodequiv import cli  # noqa: E402

for name in sys.argv[1:]:
    cli.resolve_config_pair(name)
print(repr(time.perf_counter() - t0))
