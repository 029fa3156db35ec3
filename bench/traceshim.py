"""``python -m arithfn`` with tracing: run the CLI traced, then save its spans.

Usage: python traceshim.py SPANS_FILE [arithfn CLI arguments...]

Same stdout, stderr and exit code as ``python -m arithfn``; the spans of
the call are written to SPANS_FILE when it ends.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import arithfn.cli

    tracer = Tracer()
    tracer.install()
    try:
        return arithfn.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
