"""Start ``repro serve`` for the benchmark, optionally traced.

Usage: ``python3 e2ebench/serve_launcher.py [--trace-out FILE]``

Runs the same code path as ``python -m repro serve --host 127.0.0.1
--port 0 --workers 1``; the listening URL appears on stderr as usual. With
``--trace-out``, SIGUSR1 installs the span wrappers (printing ``e2ebench:
tracing on`` to stderr once they are in place), and the recorded spans are
written to FILE as JSON when the server stops (SIGINT).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    # SIGINT stops the server. A shell that starts a job in the background
    # makes it ignore SIGINT, and Python keeps an inherited SIG_IGN, so
    # restore the interrupt explicitly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from repro.cli import main as repro_main

    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.SpanRecorder()
        installed = []

        def start_tracing(signum, frame):
            if not installed:
                installed.append(tracing.install(recorder))
            print("e2ebench: tracing on", file=sys.stderr, flush=True)

        tracing.preload()
        signal.signal(signal.SIGUSR1, start_tracing)

    code = repro_main([
        "serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1",
    ])
    if recorder is not None:
        Path(args.trace_out).write_text(json.dumps(recorder.finished_spans()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
