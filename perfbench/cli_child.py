"""``qre`` command line with spans recorded, for traced cli-cold ops.

Run as ``python3 -X importtime perfbench/cli_child.py <trace file> <qre
arguments...>``; it behaves as ``python3 -m qre.cli <qre arguments...>`` and
writes the spans and GC totals of the whole process to the trace file.
"""

import sys

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.start_gc()
    import qre.cli  # GC pauses during import count toward the op

    install(tracer)
    try:
        return qre.cli.main(argv[1:])
    finally:
        # A failed op is still one op of the run's GC figures.
        tracer.stop_gc()
        tracer.dump(argv[0], gc_ops=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
