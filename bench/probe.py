"""Set-up a CLI user pays on every call: import mimocap.cli, build the workload's inputs.

Run as ``python3 bench/probe.py <workload> <seed>``; run.py times the whole
process, interpreter start-up included. ops imports only json and numpy, so
the time is mimocap's imports, not those of the benchmark's references
(test_bench.py checks this).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mimocap.cli  # noqa: E402,F401
import ops  # noqa: E402

ops.build(sys.argv[1], int(sys.argv[2]))
