"""Write perfbench/expected.json, the outputs the benchmark checks against.

usage: python3 perfbench/make_expected.py

Run it only when a change to warpforge is meant to change its reports, and
say so in the change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import HERE, compute_expected  # noqa: E402

if __name__ == "__main__":
    with open(HERE / "expected.json", "w") as fh:
        json.dump(compute_expected(), fh, indent=1)
        fh.write("\n")
