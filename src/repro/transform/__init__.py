"""Transformation-legality consumers of dependence information.

Names resolve lazily from the submodule their table entry names (PEP
562): ``analyze`` needs only :mod:`repro.transform.parallel`, and the
vectorizer, interchange, peeling and splitting modules load on first use.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "LoopParallelism": "parallel",
    "find_parallel_loops": "parallel",
    "parallel_loop_count": "parallel",
    "InterchangeAdvice": "interchange",
    "InterchangeVerdict": "interchange",
    "check_interchange": "interchange",
    "interchange_advice": "interchange",
    "interchange_legal": "interchange",
    "interchange_loops": "apply",
    "peel_loop": "apply",
    "split_loop": "apply",
    "VectorizationReport": "vectorize",
    "vectorize": "vectorize",
    "PeelSuggestion": "peel",
    "find_peeling_opportunities": "peel",
    "SplitSuggestion": "split",
    "find_splitting_opportunities": "split",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
