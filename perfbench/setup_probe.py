"""One set-up, as a user's process pays it: start the interpreter, import
itolab, build the workload's config and parse it.  Prints the monotonic
clock at the point where the first job would start; ``run.py`` starts the
clock before spawning this script, so the difference is the set-up time.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from itolab.config import parse_config  # noqa: E402

import workloads  # noqa: E402

parse_config(workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])))
print(repr(time.monotonic()))
