"""Run one ``cogregions`` command with span wrappers installed.

Usage: ``python fig3_child.py SPANS_PATH OP_ID PEAK COMMAND [FLAGS...]``.
The spans of the run are written to SPANS_PATH at exit; PEAK 1 records
leaf-call memory peaks.  The exit code is the command's.
"""

import sys

import spans
import workloads


def main(argv) -> int:
    spans_path, op_id, peak, command = argv[0], int(argv[1]), argv[2] == "1", argv[3:]
    workloads.import_program()
    tracer = spans.Tracer(peak)
    tracer.op = op_id
    tracer.install()
    try:
        return sys.modules["cogregions.cli"].main(command)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
