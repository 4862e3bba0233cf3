"""Budgets, the resource governor, and the exhaustion error taxonomy.

A :class:`Budget` declares limits; a :class:`ResourceGovernor` holds
the live accounting for one evaluation (or one *family* of nested
evaluations — sub-engines spawned for ``\\+`` share the parent's
governor, so nested work can never overrun the parent's budget).

Every trip raises a kind-specific subclass of
:class:`ResourceExhausted`, which is itself a
:class:`~repro.engine.builtins.PrologError` so existing error handling
keeps working.  The exception carries the budget ``kind``, the
``spent``/``limit`` pair and the active goal or table ``context``, so
callers can decide how to degrade instead of parsing message strings.
"""

from __future__ import annotations

import time

from repro.errors import PrologError


class ResourceExhausted(PrologError):
    """A resource budget tripped (or the run was cancelled).

    Attributes
    ----------
    kind:
        ``"deadline"``, ``"tasks"``, ``"steps"``, ``"rounds"``,
        ``"fuel"``, ``"answers"``, ``"bdd_nodes"``, ``"table_bytes"``
        or ``"cancelled"``.
    spent / limit:
        Amount consumed when the budget tripped and the configured
        limit (equal for injected faults; ``None`` limit for
        cancellation).
    context:
        The active goal/table (a term or string) when known.
    injected:
        True when raised by a :class:`~repro.runtime.faultinject.FaultInjector`.
    """

    def __init__(self, kind, spent=None, limit=None, context=None, injected=False):
        self.kind = kind
        self.spent = spent
        self.limit = limit
        self.context = context
        self.injected = injected
        if kind == "cancelled":
            message = "evaluation cancelled"
        else:
            message = f"{_NOUN.get(kind, kind)} budget exhausted"
        if spent is not None and limit is not None:
            message += f": spent {spent} of {limit}"
        if context is not None:
            message += f" (at {_describe(context)})"
        if injected:
            message += " [injected]"
        super().__init__(message)


#: budget kind -> noun used in messages
_NOUN = {
    "tasks": "task",
    "steps": "step",
    "rounds": "round",
    "fuel": "fuel",
    "answers": "answer",
    "bdd_nodes": "BDD node",
    "table_bytes": "table space",
    "deadline": "deadline",
}


class DeadlineExceeded(ResourceExhausted):
    """Wall-clock deadline passed."""


class TaskBudgetExceeded(ResourceExhausted):
    """Tabled-engine task budget spent."""


class StepLimitExceeded(ResourceExhausted):
    """SLD resolution-step budget spent."""


class RoundBudgetExceeded(ResourceExhausted):
    """Bottom-up semi-naive round budget spent."""


class FuelExhausted(ResourceExhausted):
    """Functional-interpreter evaluation fuel spent."""


class AnswerBudgetExceeded(ResourceExhausted):
    """Total recorded-answer budget spent."""


class BddNodesExceeded(ResourceExhausted):
    """ROBDD unique-table node budget spent (Prop BDD backend)."""


class TableSpaceExceeded(ResourceExhausted):
    """Table-space byte cap exceeded."""


class Cancelled(ResourceExhausted):
    """The run was cooperatively cancelled."""


#: budget kind -> exception class raised when that budget trips
ERROR_FOR_KIND = {
    "deadline": DeadlineExceeded,
    "tasks": TaskBudgetExceeded,
    "steps": StepLimitExceeded,
    "rounds": RoundBudgetExceeded,
    "fuel": FuelExhausted,
    "answers": AnswerBudgetExceeded,
    "bdd_nodes": BddNodesExceeded,
    "table_bytes": TableSpaceExceeded,
    "cancelled": Cancelled,
}

#: countable event kinds the governor tracks
EVENT_KINDS = ("tasks", "steps", "rounds", "fuel", "answers", "bdd_nodes")


class Budget:
    """Declarative resource limits; ``None`` means unlimited.

    ``deadline`` is wall-clock seconds from governor start; the
    countable kinds are event counts; ``table_bytes`` caps the bytes
    *allocated* to tables across the governed run (a cumulative
    counter, maintained incrementally by the tabled engine).
    """

    __slots__ = (
        "deadline", "tasks", "steps", "rounds", "fuel", "answers",
        "bdd_nodes", "table_bytes",
    )

    def __init__(
        self,
        deadline: float | None = None,
        tasks: int | None = None,
        steps: int | None = None,
        rounds: int | None = None,
        fuel: int | None = None,
        answers: int | None = None,
        bdd_nodes: int | None = None,
        table_bytes: int | None = None,
    ):
        self.deadline = deadline
        self.tasks = tasks
        self.steps = steps
        self.rounds = rounds
        self.fuel = fuel
        self.answers = answers
        self.bdd_nodes = bdd_nodes
        self.table_bytes = table_bytes

    def limits(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if getattr(self, k) is not None}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.limits().items())
        return f"Budget({parts})"


class ResourceGovernor:
    """Live resource accounting for one (family of) evaluation(s).

    Engines call :meth:`charge` per unit of work and :meth:`poll` on
    cheap paths; both raise the matching :class:`ResourceExhausted`
    subclass when a limit trips, when the deadline passes, or when
    :meth:`cancel` has been called (cooperative cancellation — safe to
    call from another thread or from inside an engine hook).

    Pass the *same* governor to nested engines so their work charges
    the parent budget as it happens — no re-granting, no underflow.
    """

    def __init__(self, budget: Budget | None = None, clock=time.monotonic, fault=None,
                 poll_interval: int = 64):
        self.budget = budget if budget is not None else Budget()
        self.clock = clock
        self.fault = fault
        self.spent = {kind: 0 for kind in EVENT_KINDS}
        self.table_bytes = 0
        self.cancelled = False
        self.started = clock()
        self.poll_interval = poll_interval
        self._deadline_at = (
            None if self.budget.deadline is None else self.started + self.budget.deadline
        )
        self._limits = {k: getattr(self.budget, k) for k in EVENT_KINDS}
        self._table_cap = self.budget.table_bytes
        self._charges = 0

    def restarted(self) -> "ResourceGovernor":
        """A fresh governor over the same budget/fault/clock.

        Used between degradation stages: counters restart, but a fault
        injector keeps its global fire count (so staged retries can be
        exercised deterministically).
        """
        return ResourceGovernor(
            self.budget, clock=self.clock, fault=self.fault,
            poll_interval=self.poll_interval,
        )

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self.clock() - self.started

    def remaining(self, kind: str):
        """Remaining allowance for a countable kind (None = unlimited)."""
        limit = self._limits.get(kind)
        if limit is None:
            return None
        return max(0, limit - self.spent[kind])

    def cancel(self) -> None:
        self.cancelled = True

    # ------------------------------------------------------------------
    def charge(self, kind: str, context=None) -> None:
        """Account one unit of ``kind``; raise if any budget tripped."""
        spent = self.spent
        count = spent[kind] + 1
        spent[kind] = count
        if self.cancelled:
            raise Cancelled("cancelled", context=context)
        limit = self._limits[kind]
        if limit is not None and count > limit:
            raise ERROR_FOR_KIND[kind](kind, count, limit, context)
        fault = self.fault
        if fault is not None:
            fault.observe(kind, count, context)
        if self._deadline_at is not None:
            self._charges += 1
            if self._charges % self.poll_interval == 0 and self.clock() > self._deadline_at:
                raise DeadlineExceeded(
                    "deadline", round(self.elapsed(), 6), self.budget.deadline, context
                )

    def poll(self, context=None) -> None:
        """Cheap check (no counter): cancellation + throttled deadline."""
        if self.cancelled:
            raise Cancelled("cancelled", context=context)
        if self._deadline_at is not None:
            self._charges += 1
            if self._charges % self.poll_interval == 0 and self.clock() > self._deadline_at:
                raise DeadlineExceeded(
                    "deadline", round(self.elapsed(), 6), self.budget.deadline, context
                )

    def tick_table_bytes(self, delta: int, context=None) -> None:
        """Account table-space growth; raise when over the byte cap."""
        self.table_bytes += delta
        if self._table_cap is not None and self.table_bytes > self._table_cap:
            raise TableSpaceExceeded(
                "table_bytes", self.table_bytes, self._table_cap, context
            )

    def __repr__(self) -> str:
        spent = {k: v for k, v in self.spent.items() if v}
        return f"ResourceGovernor(spent={spent}, table_bytes={self.table_bytes})"


def governor_for(
    budget: Budget | None = None,
    governor: ResourceGovernor | None = None,
    fault=None,
) -> ResourceGovernor | None:
    """Resolve the (budget, governor, fault) triple the drivers accept.

    An explicit governor wins; otherwise a budget and/or fault builds a
    fresh one; with neither, returns None (ungoverned fast path).
    """
    if governor is not None:
        return governor
    if budget is not None or fault is not None:
        return ResourceGovernor(budget, fault=fault)
    return None


def _describe(context) -> str:
    if isinstance(context, str):
        return context
    try:
        from repro.terms.term import term_to_str

        return term_to_str(context)
    except Exception:
        return repr(context)
