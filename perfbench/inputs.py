"""Seeded inputs and reference outputs (imports ``repro``).

Every input the program sees is generated here from the workload seed:
corpus trees (synthesized files plus copies of the bundled kernels) and
the fresh routines the service workload sends.  The reference side renders what the program
must answer, for the output checks.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Tuple

from common import KERNELS

#: Files the synthesized part of a corpus tree has, and routines per file.
TREE_FILES = 200
ROUTINES_PER_FILE = 4


def kernel_files() -> List[Path]:
    """The bundled kernel sources, sorted (``<suite>/<name>.f``)."""
    return sorted(KERNELS.glob("*/*.f"))


def kernel_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


def build_tree(tree: Path, seed: int) -> List[Path]:
    """A corpus tree: :data:`TREE_FILES` synthesized files plus the bundled
    kernels under ``kernels/<suite>/``.  Returns the synthesized files."""
    from repro.corpus.generator import synthesize_corpus_tree

    written = synthesize_corpus_tree(
        tree, files=TREE_FILES, routines_per_file=ROUTINES_PER_FILE, seed=seed,
        subdirs=4,
    )
    for path in kernel_files():
        target = tree / "kernels" / path.parent.name / path.name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)
    return written


def corpus_sections(report: str) -> Dict[str, str]:
    """Split a corpus report into ``{relative path: routine reports}``."""
    sections: Dict[str, List[str]] = {}
    current = None
    for line in report.splitlines(keepends=True):
        if line.startswith("== file ") and line.rstrip().endswith(" =="):
            current = line.rstrip()[len("== file "):-len(" ==")]
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return {rel: "".join(lines) for rel, lines in sections.items()}


def render_subroutine(name: str, nodes) -> str:
    """Fortran source of one subroutine whose body is ``nodes``."""
    from repro.ir.loop import format_body

    lines = [f"      subroutine {name}(n)"]
    lines.extend("      " + line for line in format_body(nodes).splitlines())
    lines.append("      end")
    return "\n".join(lines) + "\n"


def novel_nest(nest_seed: int, extent: int = 100):
    """One Delta-heavy random nest (coupled subscripts are common).

    The shape is fixed so that novel requests cost about the same; only
    the subscripts vary.
    """
    from repro.corpus.generator import random_nest

    return random_nest(
        nest_seed, depth=2, statements=4, arrays=2, ndim=2, extent=extent,
        miv_fraction=0.3,
    )


def novel_source(nest_seed: int, extent: int = 100) -> Tuple[str, str]:
    """``(name, source)`` of a fresh routine for the service workload."""
    name = f"nov{nest_seed}"
    return name, render_subroutine(name, novel_nest(nest_seed, extent))


def reference_routines(source: str, name: str, engine, symbols) -> list:
    """What the service must answer for ``source``: the ``routines`` part
    of its payload, computed in-process the way ``analyze`` does (parse
    and normalize, no scalar substitution)."""
    from repro.fortran.parser import parse_program
    from repro.ir.normalize import normalize_program
    from repro.service.protocol import graph_payload, parallelism_payload
    from repro.transform.parallel import find_parallel_loops

    program = normalize_program(parse_program(source, name=name))
    routines = []
    for routine in program.routines:
        graph = engine.build_graph(routine.body)
        verdicts = find_parallel_loops(routine.body, symbols, graph=graph)
        routines.append({
            "name": routine.name,
            "graph": graph_payload(graph),
            "parallel_loops": parallelism_payload(verdicts),
        })
    return routines


def oracle_violations(nest_seed: int, symbols) -> Tuple[int, List[str]]:
    """Check one novel routine, rendered with extent 4, against brute force.

    The routine goes through the same renderer and front end as the
    service inputs; every candidate pair's verdict must cover the
    enumerated truth (soundness).  Returns ``(pairs checked, problems)``.
    """
    import sys

    from common import ROOT

    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from tests.oracle import brute_force_vectors

    from repro.core.driver import test_dependence
    from repro.fortran.parser import parse_program
    from repro.graph.depgraph import iter_candidate_pairs
    from repro.ir.normalize import normalize_program

    name, source = novel_source(nest_seed, extent=4)
    program = normalize_program(parse_program(source, name=name))
    checked, problems = 0, []
    for routine in program.routines:
        for src, sink in iter_candidate_pairs(routine.access_sites()):
            truth = brute_force_vectors(src, sink)
            result = test_dependence(src, sink, symbols)
            checked += 1
            if result.independent and truth:
                problems.append(f"{name}: {src.ref} -> {sink.ref} spurious independence")
            elif not result.independent and not truth <= result.direction_vectors:
                problems.append(f"{name}: {src.ref} -> {sink.ref} misses {truth - result.direction_vectors}")
    return checked, problems
