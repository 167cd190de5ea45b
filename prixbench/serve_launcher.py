"""Start ``prix serve`` with the benchmark's timing wrappers installed.

Usage::

    python3 prixbench/serve_launcher.py TRACE_OUT <prix serve arguments>

Installs the same :class:`tracer.Tracer` wrappers a traced benchmark
run uses, then calls the public serve entry point
(``repro.serve.__main__.main``) with the remaining arguments.  Every
``POST`` is one request span with its own request id.  ``SIGUSR1``
drops the spans recorded so far (the benchmark sends it after warm-up)
and prints ``prixbench: trace reset``; when the server has drained, the
spans and totals are written to ``TRACE_OUT``.
"""

from __future__ import annotations

import itertools
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    trace_out, serve_args = argv[0], argv[1:]
    from tracer import Tracer
    from repro.serve import __main__ as serve_main
    from repro.serve.server import PrixRequestHandler

    tracer = Tracer()
    tracer.install()
    request_ids = itertools.count(1)
    handle_post = tracer.wrap(PrixRequestHandler.do_POST, "serve.request")

    def do_post(handler):
        tracer.request_id = f"server-{next(request_ids)}"
        return handle_post(handler)

    PrixRequestHandler.do_POST = do_post

    def on_reset(signum, frame):
        tracer.reset()
        print("prixbench: trace reset", flush=True)

    signal.signal(signal.SIGUSR1, on_reset)
    try:
        return serve_main.main(serve_args)
    finally:
        tracer.uninstall()
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
