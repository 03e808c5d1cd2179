"""Run one ``serpchurn`` CLI call with the benchmark's wrappers installed.

    python bench/launch.py TRACE_FILE ARGS...

Behaves like ``python -m serpchurn ARGS...`` (same stdout, stderr and exit
code) and writes the call's spans and counts to TRACE_FILE on exit.
"""

import sys

import spans


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    from serpchurn import cli

    try:
        return cli.main(argv)
    finally:
        spans.write(trace_file, [tracer.dump()])


if __name__ == "__main__":
    sys.exit(main())
