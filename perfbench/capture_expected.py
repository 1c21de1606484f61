"""Capture the expected outputs for the bundled-kernel inputs.

Writes, for every kernel under ``src/repro/corpus/kernels``:

* ``expected/analyze/<suite>/<name>.out`` — stdout of a cold
  ``python -m repro analyze`` of the kernel;
* ``expected/corpus/<suite>/<name>.out`` — the kernel's section of a
  ``stream_corpus`` report (``corpus run`` substitutes scalars first);
* ``expected/service/<suite>/<name>.json`` — the ``routines`` part of
  the service's answer, computed in-process the way the server does.

The committed files were captured from the program as it stood when
the benchmark was added; re-capture only when a change to the output is
intended, and say so in the change.

Usage::

    python perfbench/capture_expected.py
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from common import EXPECTED, ROOT, SRC, child_env, compile_bytecode, require_source
from inputs import corpus_sections, kernel_files, kernel_id, reference_routines


def main() -> int:
    require_source()
    sys.path.insert(0, str(SRC))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as scratch:
        scratch = Path(scratch)
        pycache = scratch / "pycache"
        compile_bytecode(pycache)
        env = child_env(pycache)
        for path in kernel_files():
            done = subprocess.run(
                [sys.executable, "-m", "repro", "analyze", str(path)],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            target = EXPECTED / "analyze" / f"{kernel_id(path)}.out"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(done.stdout)

        from repro.corpus.loader import default_symbols
        from repro.corpus.stream import stream_corpus
        from repro.engine import DependenceEngine

        tree = scratch / "tree"
        for path in kernel_files():
            copy = tree / "kernels" / path.parent.name / path.name
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_bytes(path.read_bytes())
        out = io.StringIO()
        with DependenceEngine(symbols=default_symbols()) as engine:
            stream_corpus(tree, engine, out=out, err=io.StringIO())
        for rel, text in corpus_sections(out.getvalue()).items():
            target = EXPECTED / "corpus" / (rel[len("kernels/"):-2] + ".out")
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)

        symbols = default_symbols()
        with DependenceEngine(symbols=symbols) as engine:
            for path in kernel_files():
                routines = reference_routines(
                    path.read_text(), path.stem, engine, symbols
                )
                target = EXPECTED / "service" / f"{kernel_id(path)}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(json.dumps(routines, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
