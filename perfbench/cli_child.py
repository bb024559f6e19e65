"""Runs the lmpcirc CLI once with tracing on, for the traced cli_cases run.

Usage: python3 perfbench/cli_child.py SPANS_JSON COMMAND [CLI ARGS...]

Behaves as ``python -m lmpcirc.cli COMMAND ...`` (same output and exit code)
and writes the import interval and the spans of ``cli.main`` to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402

t_import = time.perf_counter()
import lmpcirc.cli  # noqa: E402

t_imported = time.perf_counter()


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        return lmpcirc.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"import": [t_import, t_imported], "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
