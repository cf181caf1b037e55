"""Start the ``repro`` CLI with the benchmark's layer shims installed.

    python3 perfbench/traced_serve.py SPANS.json serve --model PATH --port 0

Installs the serving and model shims (see :mod:`perfbench.shims`), then
hands the remaining arguments to the public CLI entry point.  The spans
recorded in this process are written to ``SPANS.json`` when it exits
(after SIGINT, the CLI's clean shutdown).
"""

import atexit
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.shims import install  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

#: Span ids of this process start here, so they never collide with the
#: client's when both are written to one file.
SERVER_ID_BASE = 1 << 40


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder(id_base=SERVER_ID_BASE)
    install(recorder, ("serve", "model"))
    atexit.register(recorder.dump, spans_path)
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
