"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_PATH serve [serve args]``

The wrappers go in before the CLI starts, so every layer call inside
the server process is traced without touching the program's source.
The spans are written to ``SPANS_PATH`` when the server exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.enabled = False
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
