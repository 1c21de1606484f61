"""Run ``repro.cli.main`` with the layer wrappers installed (traced runs).

Usage::

    python [-X importtime] perfbench/launch.py --spans OUT.json {cli,service} -- ARGS...

``ARGS`` are the ``repro-deps`` command line (``analyze FILE``,
``serve --port 0``, ...).  The spans, counters and engine profiles are
written to ``OUT.json`` when ``main`` returns; the exit code is
``main``'s.  Only the benchmark's own stdlib-only modules are imported
before ``repro``, so ``-X importtime`` sees the program's imports as a
plain ``python -m repro`` would make them.
"""

from __future__ import annotations

import sys

import layers
from spans import Tracer


def main(argv) -> int:
    if len(argv) < 4 or argv[0] != "--spans" or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, kind, args = argv[1], argv[2], argv[4:]
    tracer = Tracer()
    engines = layers.install(tracer, kind)
    import repro.cli

    try:
        return repro.cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, {"engines": layers.engine_summary(engines)})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
