"""Profile the serve daemon's event-loop thread over keep-alive cache hits.

Starts an in-process ``ServiceThread`` on ``inline:2``, warms the cache
with the ``serve_mixed`` bodies (every kernel record, ``compile`` and
``evaluate``, at ``SCALE`` and seed ``SEED``: 26 bodies), then profiles
the daemon's event-loop thread while one keep-alive client sends
``HITS`` requests cycling through them, and prints the ``TOP`` functions
by own time (``tottime``). Work a hit repeats that it could have done
once shows up here as a function called once per request.

cProfile follows only the thread that enables it up to Python 3.11; on
3.12 and later the client thread's ``http.client`` calls show too.

Usage:  PYTHONPATH=src python scripts/profile_serve_hits.py
"""

from __future__ import annotations

import cProfile
import http.client
import json
import pstats
import sys
import threading

SCALE = 0.05
SEED = 7
HITS = 1000
TOP = 30


def on_loop(service_thread, fn) -> None:
    """Run ``fn`` on the daemon's event-loop thread and wait for it."""
    done = threading.Event()
    service_thread._loop.call_soon_threadsafe(lambda: (fn(), done.set()))
    if not done.wait(timeout=30):
        raise RuntimeError("the event loop did not run the call")


def main() -> int:
    from repro import api
    from repro.kernels import KERNELS
    from repro.service.server import ServeConfig, ServiceThread

    hits = []
    for kernel in KERNELS:
        for action in ("compile", "evaluate"):
            request = api.CompileRequest(kernel=kernel, scale=SCALE,
                                         seed=SEED, action=action)
            body = json.dumps({"kernel": kernel, "scale": SCALE,
                               "seed": SEED}).encode()
            hits.append(("/" + action, body,
                         api.execute(request).to_json().encode()))
    profile = cProfile.Profile()
    with ServiceThread(ServeConfig(port=0, pool="inline:2")) as svc:
        conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=60)
        on_loop(svc, profile.enable)
        for i in range(HITS):
            path, body, expected = hits[i % len(hits)]
            conn.request("POST", path, body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            if (response.status, response.read()) != (200, expected):
                raise RuntimeError(f"{path} {body!r} did not answer its "
                                   f"cached bytes")
        on_loop(svc, profile.disable)
        conn.close()
    print(f"{HITS} keep-alive hits over {len(hits)} serve_mixed bodies "
          f"(scale {SCALE}), event-loop thread")
    pstats.Stats(profile, stream=sys.stdout).sort_stats("tottime").print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
