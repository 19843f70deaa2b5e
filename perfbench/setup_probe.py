"""Set-up probe: import warpforge, build one workload's inputs from its
seed, then print the monotonic clock.  The caller reads the clock before
starting this interpreter, so the difference is the set-up time from
interpreter start to inputs built.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

from workloads import WORKLOADS

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), expected=None)
    workload.setup()
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    workload.close()
