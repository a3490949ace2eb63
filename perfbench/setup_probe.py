"""Child process that times one benchmark set-up from process start.

Usage: python3 setup_probe.py <workload> <seed> <spawn time>

``<spawn time>`` is the parent's ``time.monotonic()`` just before it
started this process; the clock is shared by all processes of the host.
Prints one JSON line with ``import_s`` (interpreter start plus the numpy,
scipy and newsvb imports) and ``setup_s`` (until the first timed unit
would be ready).
"""

import json
import sys
import time

import _env

spawned = float(sys.argv[3])
_env.bootstrap()

import newsvb  # noqa: E402

_env.check_package(newsvb)

import workloads  # noqa: E402  (imports numpy and scipy through newsvb)

imported = time.monotonic()
workloads.prepare(sys.argv[1], int(sys.argv[2]))
ready = time.monotonic()
print(json.dumps({"import_s": imported - spawned, "setup_s": ready - spawned}))
