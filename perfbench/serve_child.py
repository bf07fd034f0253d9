"""``repro-serve`` with optional perfbench probes installed in the server.

    python serve_child.py [--trace --spans-out PATH] serve --port 0 ...

Everything after the perfbench flags is handed to ``repro-serve``
unchanged.  With ``--trace``, the span probes and the sampling profiler
run inside the server process; spans stay in memory and are written to
``--spans-out`` when the server exits (``run.py`` stops it with
SIGTERM, which ``repro-serve`` handles as a graceful drain).
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probes  # noqa: E402


def main(argv) -> int:
    spans_out = None
    if argv[:1] == ["--trace"]:
        if argv[1:2] != ["--spans-out"] or len(argv) < 3:
            raise SystemExit("serve_child.py: --trace needs --spans-out PATH")
        spans_out, argv = argv[2], argv[3:]
    from repro.service.cli import main as serve

    if spans_out is None:
        return serve(argv)
    tracer = probes.Tracer().install()
    sampler = probes.Sampler().start()
    started = time.perf_counter()
    try:
        return serve(argv)
    finally:
        sampler.stop()
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": tracer.spans,
                    "self_seconds": sampler.seconds,
                    "absent": tracer.absent,
                    "overhead_frac": (tracer.overhead + sampler.overhead)
                    / (time.perf_counter() - started),
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
