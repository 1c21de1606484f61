"""The Delta test (Section 5): exact, efficient testing of coupled groups.

Algorithm (the paper's Figure 3):

1. Apply the cheap single-subscript tests (ZIV, the SIV suite) to every
   ZIV/SIV subscript of the coupled group.  Each SIV subscript yields a
   *constraint* on its index (distance / line / point); constraints on the
   same index are *intersected* — an empty intersection proves independence
   for the whole reference pair.
2. *Propagate* pinning constraints into the remaining MIV subscripts
   (substituting ``i' := i + d`` etc.), which often reduces them to SIV or
   ZIV subscripts; iterate until no subscript changes (multiple passes).
3. Apply RDIV handling: the RDIV independence test, the linked-RDIV
   direction coupling of Section 5.3.2, and RDIV substitution.
4. Any subscripts still MIV are handed to the Banerjee-GCD test; the final
   result merges every index's constraint into direction/distance vectors.

Each subscript is fully tested at most once per reduction, so the test is
linear in the number of subscripts (Section 5.4).

Step 1 runs in discrete *rounds*, one per reduction pass: every
pending ZIV/SIV subscript of a round is tested against the same
round-start (possibly range-tightened) context, and only then are the
outcomes applied in order — recording, constraint intersection, early
exit — so a constraint learned mid-round tightens the ranges of the
*next* round, never of a later subscript in the same one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.classify.pairs import PairContext, SubscriptPair
from repro.classify.subscript import (
    SIVShape,
    SubscriptKind,
    classify,
    rdiv_shape,
    siv_shape,
)
from repro.delta.constraints import (
    BOTTOM,
    Constraint,
    DistanceConstraint,
    EmptyConstraint,
    LineConstraint,
    TOP,
)
from repro.delta.normalize import normalize_pair, substitute_in_pair
from repro.delta.tighten import tighten_ranges
from repro.delta.propagate import (
    match_rdiv_link,
    rdiv_link_vectors,
    rdiv_substitution,
    substitutions_from_constraint,
)
from repro.dirvec.vectors import Coupling
from repro.instrument import TestRecorder, maybe_record
from repro.single.miv import banerjee_gcd_test
from repro.single.outcome import TestOutcome
from repro.single.rdiv import rdiv_test
from repro.single.siv import siv_test
from repro.single.ziv import ziv_test
from repro.symbolic.linexpr import LinearExpr

TEST_NAME = "delta"


class DeltaOptions:
    """Ablation switches for the Delta test (used by the ablation benches).

    ``propagate`` disables step 2 (SIV constraint propagation) when False;
    ``multipass`` restricts the reduction to a single pass; ``rdiv_links``
    disables the Section 5.3.2 linked-RDIV coupling.
    """

    def __init__(
        self,
        propagate: bool = True,
        multipass: bool = True,
        rdiv_links: bool = True,
        tighten: bool = True,
    ):
        self.propagate = propagate
        self.multipass = multipass
        self.rdiv_links = rdiv_links
        self.tighten = tighten


DEFAULT_OPTIONS = DeltaOptions()


def delta_test(
    pairs: List[SubscriptPair],
    context: PairContext,
    recorder: Optional[TestRecorder] = None,
    options: DeltaOptions = DEFAULT_OPTIONS,
    budget=None,
) -> TestOutcome:
    """Run the Delta test on one minimal coupled group.

    Returns a ``TestOutcome`` named ``"delta"`` whose constraints/couplings
    summarize the group; independence is reported as soon as any constraint
    intersection empties or any inner test refutes the group.  ``budget``
    is an optional step allowance (anything with ``spend(n)``): each
    reduction pass charges one unit per pending subscript, bounding the
    multipass loop on pathological systems.
    """
    state = _DeltaState(context, recorder, options, budget)
    for pair in pairs:
        if pair.is_linear:
            state.pending.append(normalize_pair(pair, context))
        else:
            state.opaque.append(pair)
    independent = state.run()
    # The final range-tightening pass can itself empty an index range — a
    # proof of independence discovered while *reporting* the constraints —
    # so the context computation takes part in the independence decision
    # rather than escaping as control flow.
    final_context = None
    if not independent:
        try:
            final_context = state.current_context()
        except _Independent:
            independent = True
    if independent:
        return maybe_record(
            recorder, TestOutcome.proves_independence(TEST_NAME, exact=state.exact)
        )
    outcome = TestOutcome(TEST_NAME, exact=state.exact)
    for base, constraint in state.constraints.items():
        outcome.constraints[base] = constraint.to_index_constraint(
            base, final_context
        )
    outcome.couplings.extend(state.couplings)
    outcome.notes["reduction_passes"] = state.passes
    outcome.notes["residual_miv"] = len(state.pending)
    return maybe_record(recorder, outcome)


class _DeltaState:
    """Mutable working state of one Delta test run."""

    def __init__(
        self,
        context: PairContext,
        recorder: Optional[TestRecorder],
        options: DeltaOptions,
        budget=None,
    ):
        self.context = context
        self.recorder = recorder
        self.options = options
        self.budget = budget
        self.pending: List[SubscriptPair] = []
        self.opaque: List[SubscriptPair] = []  # nonlinear: never testable
        self.constraints: Dict[str, Constraint] = {}
        self.couplings: List[Coupling] = []
        self.exact = True
        self.passes = 0
        self._rdiv_tested: Set[int] = set()
        self._tight_context: Optional[PairContext] = None

    def current_context(self) -> PairContext:
        """The pair context, with FME-style tightened ranges when enabled."""
        if not self.options.tighten or not self.constraints:
            return self.context
        if self._tight_context is None:
            overrides = tighten_ranges(self.constraints, self.context)
            if any(interval.is_empty() for interval in overrides.values()):
                raise _Independent()
            self._tight_context = (
                self.context.tightened(overrides) if overrides else self.context
            )
        return self._tight_context

    def _invalidate_context(self) -> None:
        self._tight_context = None

    # -- main loop -------------------------------------------------------

    def run(self) -> bool:
        """Execute the reduction loop; True means independence was proven."""
        if self.opaque:
            self.exact = False
        try:
            while True:
                self.passes += 1
                if self.budget is not None:
                    self.budget.spend(1 + len(self.pending))
                if self._siv_pass():
                    return True
                if not self.pending:
                    break
                changed = self._rdiv_pass()
                if self.options.propagate and self._propagate_pass():
                    changed = True
                if not changed or not self.options.multipass:
                    break
            return self._finish_miv()
        except _Independent:
            return True

    # -- step 1: ZIV/SIV testing and constraint intersection ---------------

    def _siv_pass(self) -> bool:
        """Test this round's ZIV/SIV subscripts; True when one refutes.

        Every subscript is tested against the round-start context before
        any outcome is applied.  An early exit leaves the rest of the
        round unrecorded; the MIV/RDIV subscripts stay pending.
        """
        ctx = self.current_context()
        tests: List[Tuple[SubscriptPair, SubscriptKind]] = []
        remaining: List[SubscriptPair] = []
        for pair in self.pending:
            kind = classify(pair, self.context)
            if kind is SubscriptKind.ZIV or kind.is_siv:
                tests.append((pair, kind))
            else:
                remaining.append(pair)
        self.pending = remaining
        outcomes = [
            ziv_test(pair, ctx) if kind is SubscriptKind.ZIV else siv_test(pair, ctx)
            for pair, kind in tests
        ]
        for (pair, kind), outcome in zip(tests, outcomes):
            outcome = maybe_record(self.recorder, outcome)
            if outcome.independent:
                return True
            if not outcome.exact:
                self.exact = False
            if kind is SubscriptKind.ZIV:
                continue
            base = next(iter(self.context.subscript_bases(pair)))
            constraint = constraint_from_siv(
                siv_shape(pair, self.context, base)
            )
            merged = self.constraints.get(base, TOP).intersect(constraint)
            merged = self._validate_against_ranges(base, merged)
            if isinstance(merged, EmptyConstraint):
                return True
            self.constraints[base] = merged
            self._invalidate_context()
        return False

    def _validate_against_ranges(self, base: str, constraint: Constraint) -> Constraint:
        """Refute a point constraint whose coordinates leave the loop bounds.

        Line intersections can land on integer points outside the iteration
        space (e.g. a weak-zero pin meeting a crossing line at ``i = 7`` in
        a 5-iteration loop); the constraint lattice itself is range-blind,
        so the bound check happens here.
        """
        from repro.delta.constraints import PointConstraint
        from repro.ir.context import eval_interval

        if not isinstance(constraint, PointConstraint):
            return constraint
        src_name, sink_name = self.context.occurrence_names(base)
        env = self.context.variable_env()
        for name, value in ((src_name, constraint.x), (sink_name, constraint.y)):
            if name is None:
                continue
            value_iv = eval_interval(value, env)
            if value_iv.intersect(self.context.range_of(name)).is_empty():
                return BOTTOM
        return constraint

    # -- step 3: RDIV handling ---------------------------------------------

    def _rdiv_pass(self) -> bool:
        rdiv_pairs: List[Tuple[SubscriptPair, SIVShape]] = []
        others: List[SubscriptPair] = []
        for pair in self.pending:
            if classify(pair, self.context) is SubscriptKind.RDIV:
                if id(pair) not in self._rdiv_tested:
                    self._rdiv_tested.add(id(pair))
                    outcome = maybe_record(
                        self.recorder, rdiv_test(pair, self.current_context())
                    )
                    if outcome.independent:
                        raise _Independent()
                try:
                    rdiv_pairs.append((pair, rdiv_shape(pair, self.context)))
                except ValueError:
                    others.append(pair)
            else:
                others.append(pair)
        changed = False
        consumed: Set[int] = set()
        if self.options.rdiv_links:
            changed |= self._link_rdiv(rdiv_pairs, consumed)
        # One remaining RDIV equation per pass may propagate by substitution
        # into every *other* pending subscript.  The equation itself stays
        # pending: its range constraint on the eliminated occurrence still
        # matters once later passes pin the other occurrence (a consumed
        # equation would silently widen the solution set).
        if self.options.propagate:
            for position, (pair, shape) in enumerate(rdiv_pairs):
                if position in consumed:
                    continue
                substitution = rdiv_substitution(shape, self.context)
                if not substitution:
                    continue
                rewrote = False
                new_others = []
                for other in others:
                    new_other = substitute_in_pair(other, self.context, substitution)
                    rewrote |= new_other is not other
                    new_others.append(new_other)
                others = new_others
                new_rdiv = []
                for idx, (p, s) in enumerate(rdiv_pairs):
                    if idx == position:
                        new_rdiv.append((p, s))
                        continue
                    new_p = substitute_in_pair(p, self.context, substitution)
                    rewrote |= new_p is not p
                    new_rdiv.append((new_p, s))
                rdiv_pairs = new_rdiv
                if rewrote:
                    changed = True
                    break
        for position, (pair, _) in enumerate(rdiv_pairs):
            if position not in consumed:
                others.append(pair)
        self.pending = others
        return changed

    def _link_rdiv(
        self,
        rdiv_pairs: List[Tuple[SubscriptPair, SIVShape]],
        consumed: Set[int],
    ) -> bool:
        changed = False
        for i, (_, first) in enumerate(rdiv_pairs):
            if i in consumed:
                continue
            for j in range(i + 1, len(rdiv_pairs)):
                if j in consumed:
                    continue
                second = rdiv_pairs[j][1]
                link = match_rdiv_link(first, second, self.context)
                if link is None:
                    link = match_rdiv_link(second, first, self.context)
                if link is None:
                    continue
                vectors = rdiv_link_vectors(link, self.context)
                if not vectors:
                    raise _Independent()
                if self.context.is_common(link.u) and self.context.is_common(link.v):
                    self.couplings.append(((link.u, link.v), vectors))
                consumed.add(i)
                consumed.add(j)
                changed = True
                break
        return changed

    # -- step 2: constraint propagation -------------------------------------

    def _propagate_pass(self) -> bool:
        substitutions: Dict[str, LinearExpr] = {}
        for base, constraint in self.constraints.items():
            substitutions.update(
                substitutions_from_constraint(base, constraint, self.context)
            )
        if not substitutions:
            return False
        changed = False
        updated: List[SubscriptPair] = []
        for pair in self.pending:
            new_pair = substitute_in_pair(pair, self.context, substitutions)
            if new_pair is not pair:
                changed = True
            updated.append(new_pair)
        self.pending = updated
        return changed

    # -- step 4: residual MIV subscripts -------------------------------------

    def _finish_miv(self) -> bool:
        for pair in self.pending:
            if self.budget is not None:
                self.budget.spend(1)
            outcome = maybe_record(
                self.recorder, banerjee_gcd_test(pair, self.current_context())
            )
            if outcome.independent:
                return True
            self.exact = False  # Banerjee answers are conservative
            self.couplings.extend(outcome.couplings)
        return False


class _Independent(Exception):
    """Internal control flow: a subscript of the group proved independence."""


def constraint_from_siv(shape: SIVShape) -> Constraint:
    """Derive a Delta constraint from an SIV subscript's coefficients.

    Strong SIV shapes yield a :class:`DistanceConstraint` (when the
    symbolic constant difference divides evenly); everything else yields
    the general :class:`LineConstraint` ``a1*i - a2*i' = c2 - c1``.
    """
    if shape.a1 == shape.a2 and shape.a1 != 0:
        difference = shape.c1 - shape.c2
        try:
            return DistanceConstraint(difference.exact_div(shape.a1))
        except ValueError:
            pass
    return LineConstraint(shape.a1, -shape.a2, shape.c2 - shape.c1)
