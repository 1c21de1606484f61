#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the dependence analyzer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md explains each metric and what should move it):

* ``cli-cold``           one cold ``python -m repro analyze FILE`` process
                         per bundled kernel, one at a time;
* ``corpus-cold``        cold ``stream_corpus`` walks of a seeded tree, one
                         process and one fresh store per walk;
* ``service-mixed``      one warm ``repro serve`` under an open-loop mix of
                         repeated kernels and fresh Delta-heavy routines.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric of a
traced run (spans around the public names each layer exposes).  Output
checks run either way and count in ``failed``.  Exits 2, printing no
result, when the program's source is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from common import (
    END_TO_END,
    ROOT,
    Tally,
    emit,
    environment_line,
    require_source,
)

#: How far the traced layers' self times (plus time measured outside
#: the spans) may stray from the untraced operation time, as a share.
ACCOUNTING_BOUND = 0.35

WORKLOADS = ("cli-cold", "corpus-cold", "service-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    import layers
    import wl_cli
    import wl_corpus
    import wl_service

    runners = {
        "cli-cold": wl_cli.run,
        "corpus-cold": wl_corpus.run,
        "service-mixed": wl_service.run,
    }
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    trace = bool(args.trace)
    try:
        values, notes = runners[args.workload](
            work, args.seed, args.seconds, trace, tally
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace:
        frac = values["trace.accounted_frac"]
        tally.unit(
            abs(frac - 1.0) <= ACCOUNTING_BOUND,
            f"layer self times account for {frac:.2f} of the untraced time "
            f"(bound {ACCOUNTING_BOUND:g})",
        )
    units = layers.PER_LAYER if trace else END_TO_END
    metrics = {name: (float(values[name]), unit) for name, unit in units.items()}
    emit(tally, metrics, [environment_line(args.seed)] + notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
