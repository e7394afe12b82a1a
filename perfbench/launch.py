"""Traced cold CLI call: install the span wrappers, then run qdeform.cli.main.

Usage: python3 perfbench/launch.py SPANS_OUT -- <qdeform CLI arguments>

Exits with the CLI's own exit code and writes the process's spans to
SPANS_OUT as JSON.
"""

import sys
from pathlib import Path

from tracing import Tracer
from workloads import ensure_source


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        raise SystemExit(__doc__)
    ensure_source()
    tracer = Tracer()
    tracer.install()
    import qdeform.cli

    try:
        return qdeform.cli.main(sys.argv[3:])
    finally:
        tracer.dump(Path(sys.argv[1]))


if __name__ == "__main__":
    raise SystemExit(main())
