"""Traced stand-in for ``python -m minpl.cli``, one query per process.

Usage: ``python3 perfbench/cli_child.py <minpl cli arguments>``.  It runs
``minpl.cli.main`` with the given arguments under the tracer, prints what the
CLI printed, then one last line ``TRACE <json>`` with the interpreter start
time, the import time of ``minpl.cli``, the output size and the span totals.
It exits with the CLI's exit status.
"""

import time

T_START = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import minpl.cli  # noqa: E402

T_READY = time.monotonic()

sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    with redirect_stdout(captured):
        status = minpl.cli.main(sys.argv[1:])
    output = captured.getvalue()
    tracer.enabled = False
    sys.stdout.write(output)
    trace = {
        "t_start": T_START,
        "import_s": T_READY - T_START,
        "output_bytes": len(output.encode("utf-8")),
        "trace": tracer.summary(),
    }
    print("TRACE " + json.dumps(trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
