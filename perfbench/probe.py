"""Set up one workload exactly as the measured run does, then report ready.

Usage: ``python probe.py WORKLOAD SEED OUT_DIR``.  The caller times this
interpreter from its start to the ``ready`` line: that is the workload's
set-up time (import, input generation and one untimed warm-up op).
"""

import sys
from pathlib import Path

import workloads


def main(argv) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    workloads.setup(workload, seed, out_dir)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
