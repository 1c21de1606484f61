"""Benchmark corpus: Fortran-subset kernels and synthetic generators.

Names resolve lazily from the submodule their table entry names (PEP
562), so loading a kernel through :mod:`repro.corpus.loader` does not
import the streaming driver (and with it the engine) or the generators.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "SUITES": "loader",
    "available_programs": "loader",
    "available_suites": "loader",
    "default_symbols": "loader",
    "load_corpus": "loader",
    "load_program": "loader",
    "load_suite": "loader",
    "coupled_group_nest": "generator",
    "random_nest": "generator",
    "siv_family": "generator",
    "synthesize_corpus_tree": "generator",
    "CorpusStats": "stream",
    "StreamingCorpusRunner": "stream",
    "file_token": "stream",
    "routine_token": "stream",
    "stream_corpus": "stream",
    "walk_tree": "stream",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
