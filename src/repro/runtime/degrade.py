"""The staged degradation ladder shared by the analysis drivers.

When a governed analysis trips its budget, the drivers retry down a
ladder of progressively cheaper, progressively less precise — but
always *sound* — configurations (paper section 6.1 provides the key
mechanism, in-table widening via the ``answer_join`` hook):

1. **bdd-widen** — Prop BDD backend only: recollect with worst-case
   widening (Genaim, Howe & Codish): any per-table BDD past the node
   cap is replaced by its *definite core* — the conjunction of the
   variables it entails — a definite boolean function of at most
   linear size that over-approximates the original
   (:func:`worst_case_widen`);
2. **widen** — rerun with :func:`top_widening_join`: once a table has
   accumulated ``threshold`` answers, the join replaces further growth
   with the single most-general answer (the domain's ⊤ for that call),
   bounding every table while over-approximating its answer set;
3. **reduce-k** — depth-k analysis only: retry with a smaller depth
   bound (coarser abstract domain, geometrically cheaper);
4. **top** — give up on evaluation and return the all-⊤ result, which
   is trivially sound for the over-approximating analyses here.

Each driver hands its rungs to one runner, :func:`run_ladder`, as
ordered :class:`Stage` data: groundness and strictness run exact →
widened, depth-k runs exact → widened → reduced-k(depth-1 … 0), and
every ladder ends at top.  The runner owns the policy the drivers
share: the first stage runs under the caller's governor and each retry
under a restarted one, every stage runs inside an
``analysis.<name>.stage`` span, and a trip either re-raises (no
degradation asked for) or is recorded by :func:`record_trip` — the one
place a :class:`DegradationEvent` is built, kept on the result and
broadcast to registered listeners and to the current observer.
:class:`AnalysisResult` holds what every driver's result carries, and
:func:`publish_run` the phase timers and run counters every driver
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.runtime.budget import ResourceExhausted, _describe
from repro.terms.term import Struct, Term, fresh_var
from repro.terms.variant import variant_key

@dataclass
class DegradationEvent:
    """One budget trip during a staged analysis run."""

    analysis: str  # "groundness" | "depthk" | "strictness"
    stage: str  # the stage that tripped ("exact", "widened", "reduced-k(1)"...)
    kind: str  # budget kind that tripped
    spent: object
    limit: object
    context: str | None
    injected: bool = False

    @classmethod
    def from_error(cls, analysis: str, stage: str, error: ResourceExhausted):
        return cls(
            analysis=analysis,
            stage=stage,
            kind=error.kind,
            spent=error.spent,
            limit=error.limit,
            context=None if error.context is None else _describe(error.context),
            injected=error.injected,
        )


#: callables invoked with each DegradationEvent as it happens
_LISTENERS: list = []


def add_degradation_listener(listener) -> None:
    if listener not in _LISTENERS:
        _LISTENERS.append(listener)


def remove_degradation_listener(listener) -> None:
    if listener in _LISTENERS:
        _LISTENERS.remove(listener)


def notify_degradation(event: DegradationEvent) -> None:
    for listener in list(_LISTENERS):
        listener(event)
    # route to the current observer (if any): the per-run record of
    # budget trips, scoped by use_observer() rather than module state
    from repro.obs.observer import get_observer

    obs = get_observer()
    if obs.enabled:
        obs.registry.record_event(
            "degradation",
            analysis=event.analysis,
            stage=event.stage,
            budget_kind=event.kind,
            spent=event.spent,
            limit=event.limit,
            context=event.context,
            injected=event.injected,
        )
        obs.registry.counter(f"analysis.{event.analysis}.degradations").value += 1
        obs.event(
            "degradation",
            analysis=event.analysis,
            stage=event.stage,
            kind=event.kind,
        )


def record_trip(analysis: str, stage: str, error: ResourceExhausted,
                events: list) -> None:
    """Record one budget trip: build its event, keep it in ``events``
    and broadcast it."""
    event = DegradationEvent.from_error(analysis, stage, error)
    events.append(event)
    notify_degradation(event)


# ----------------------------------------------------------------------
# The ladder runner


class Stage(NamedTuple):
    """One rung of an analysis's ladder.

    ``run`` evaluates the analysis under the governor it is handed and
    returns what collection reads; ``attrs`` are extra attributes of
    the rung's ``analysis.<name>.stage`` span (depth-k's ``depth``).
    """

    name: str
    run: Callable
    attrs: dict = {}


@dataclass
class LadderRun:
    """Where a ladder stopped: the rung that finished, or ``top``."""

    stage: Stage | None
    #: what the finished rung's ``run`` returned (``None`` at top)
    value: object
    #: the governor the last rung ran under
    governor: object
    events: list

    @property
    def completeness(self) -> str:
        return "top" if self.stage is None else self.stage.name


def run_ladder(analysis: str, stages, governor, degrade: bool = True) -> LadderRun:
    """Run ``stages`` in order until one finishes within its budget.

    The first stage runs under ``governor``, each retry under
    ``governor.restarted()`` (counters re-armed; a fault injector keeps
    its fire count).  A trip re-raises when ``degrade`` is false and is
    otherwise recorded (:func:`record_trip`) before the next stage runs;
    when every stage trips the ladder ends at ``top``.
    """
    from repro.obs.observer import get_observer

    obs = get_observer()
    events: list = []
    stage_governor = governor
    for index, stage in enumerate(stages):
        if index and governor is not None:
            stage_governor = governor.restarted()
        try:
            with obs.maybe_span(
                f"analysis.{analysis}.stage", stage=stage.name, **stage.attrs
            ):
                value = stage.run(stage_governor)
        except ResourceExhausted as exc:
            if not degrade:
                raise
            record_trip(analysis, stage.name, exc, events)
            continue
        return LadderRun(stage, value, stage_governor, events)
    return LadderRun(None, None, stage_governor, events)


@dataclass(kw_only=True)
class AnalysisResult:
    """What every analysis result carries beside its findings.

    ``times`` holds the paper's phase clocks (preprocess / analysis /
    collection), ``table_space`` and ``stats`` describe the engine that
    produced the result.  ``completeness`` names the ladder stage that
    did (``"exact"`` … ``"top"``); ``events`` records each budget trip
    on the way down, and ``table_completeness`` flags, per predicate,
    whether its tables ran to completion — partial (degraded) results
    are still sound over-approximations, just less precise.
    """

    times: dict[str, float]
    table_space: int
    stats: dict
    completeness: str = "exact"
    events: list = field(default_factory=list)
    table_completeness: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return self.completeness != "exact"

    def reached(self, pred) -> bool:
        """Whether this result makes a claim about predicate record ``pred``.

        Groundness and depth-k table only the calls their entry goals
        reach; a predicate outside them has no call pattern and no
        answers, whose all-ground reading would be a vacuous claim.  A
        ``top`` result claims ⊤ about every predicate.
        """
        return bool(pred.call_patterns) or self.completeness == "top"

    @property
    def total_time(self) -> float:
        return sum(self.times.values())


def publish_run(analysis: str, result: AnalysisResult) -> None:
    """Report a finished run to the current observer.

    Each phase clock feeds the ``analysis.<analysis>.<phase>`` timer,
    and the run counts in ``analysis.<analysis>.runs`` (plus
    ``degraded_runs`` when the ladder left the exact stage).
    """
    from repro.obs.observer import get_observer

    obs = get_observer()
    if not obs.enabled:
        return
    registry = obs.registry
    for phase, seconds in result.times.items():
        registry.timer(f"analysis.{analysis}.{phase}").observe(seconds)
    registry.counter(f"analysis.{analysis}.runs").value += 1
    if result.degraded:
        registry.counter(f"analysis.{analysis}.degraded_runs").value += 1


# ----------------------------------------------------------------------
# Stage 1 (Prop BDD backend): worst-case widening to the definite core


def worst_case_widen(fn, max_nodes: int, metric: str | None = None):
    """Widen a Prop function past ``max_nodes`` BDD nodes (GHC-style).

    Genaim, Howe & Codish ("Worst-Case Groundness Analysis Using
    Definite Boolean Functions"): when a positive function's ROBDD
    exceeds the node cap, replace it with its *definite core* — the
    conjunction of the variables it entails — which is definite, of at
    most one node per variable, and entailed by the original (a sound
    over-approximation).  Functions within the cap (and any non-BDD
    representation, which has no node count) pass through unchanged.

    ``metric`` optionally names an observer counter incremented each
    time a function is actually widened.
    """
    widen = getattr(fn, "widen", None)
    if widen is None:
        return fn
    widened = widen(max_nodes)
    if widened is not fn and metric is not None:
        from repro.obs.observer import get_observer

        obs = get_observer()
        if obs.enabled:
            obs.registry.counter(metric).value += 1
    return widened


# ----------------------------------------------------------------------
# Stage 2: in-table widening to the most general answer


def most_general_answer(answer: Term) -> Term:
    """The ⊤ answer for a table: same functor, all-fresh arguments.

    For Prop groundness this denotes the full truth table; for demand
    propagation every argument reads back as ``n`` (no claim); for
    depth-k it is the unconstrained shape.  In each case a superset of
    any concrete answer set — sound for the over-approximating
    analyses.
    """
    if isinstance(answer, Struct):
        return Struct(answer.functor, tuple(fresh_var() for _ in answer.args))
    return answer


def top_widening_join(threshold: int = 8, metric: str | None = None):
    """An ``answer_join`` hook widening any table past ``threshold``.

    While a table holds fewer than ``threshold`` answers, answers are
    recorded normally (``None`` = default insert).  At the threshold
    the join records the single most-general answer instead, and drops
    every subsequent answer (the ⊤ answer subsumes them), so no table
    — and no consumer fan-out — grows without bound.

    ``metric`` optionally names an observer counter (e.g.
    ``analysis.groundness.widenings``) incremented each time a table is
    actually widened to ⊤.
    """
    from repro.obs.observer import get_observer

    def join(existing: list, new: Term):
        if len(existing) < threshold:
            return None
        top = most_general_answer(new)
        if existing and variant_key(existing[-1]) == variant_key(top):
            return []  # already widened: drop the new answer
        if metric is not None:
            obs = get_observer()
            if obs.enabled:
                obs.registry.counter(metric).value += 1
        return [top]

    return join
