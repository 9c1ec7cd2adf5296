"""One traced CLI call in a fresh interpreter.

Usage, from the repository root: python3 perfbench/trace_cli.py SPAN_FILE ARGS...
Runs ``gausslab.cli.main(ARGS)`` with the tracer installed, writes the spans
to SPAN_FILE and exits with the CLI's exit code. Stdout is the CLI's own.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from tracing import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    with tracer.span("cli.import"):
        from gausslab import cli
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
