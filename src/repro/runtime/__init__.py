"""Unified resource governance for the engines and analyses.

Worst-case Prop groundness is exponential and XSB itself treats table
space exhaustion and interruption as first-class engine concerns, so a
practical analysis system needs *anytime* behaviour: evaluation under a
budget, structured errors when a budget trips, and analyses that
degrade to sound (less precise) results instead of crashing.

This package provides the pieces:

* :mod:`repro.runtime.budget` — :class:`Budget` (declarative limits),
  :class:`ResourceGovernor` (live accounting, shared across nested
  engines), and the :class:`ResourceExhausted` error taxonomy;
* :mod:`repro.runtime.faultinject` — deterministic fault injection for
  exercising every recovery path in tests;
* :mod:`repro.runtime.degrade` — the staged degradation ladder: one
  runner the analyses hand their stages to (in-table widening to ⊤,
  depth reduction, all-top), and the result base they share;
* :mod:`repro.runtime.soundness` — automated over-approximation checks
  between a degraded and an unrestricted analysis result.
"""

from repro.runtime.budget import (
    Budget,
    Cancelled,
    DeadlineExceeded,
    FuelExhausted,
    ResourceExhausted,
    ResourceGovernor,
    RoundBudgetExceeded,
    StepLimitExceeded,
    TableSpaceExceeded,
    TaskBudgetExceeded,
    AnswerBudgetExceeded,
)
from repro.runtime.degrade import (
    DegradationEvent,
    add_degradation_listener,
    notify_degradation,
    remove_degradation_listener,
    top_widening_join,
)
from repro.runtime.faultinject import FaultInjector
from repro.runtime.soundness import (
    depthk_over_approximates,
    groundness_over_approximates,
    strictness_over_approximates,
)

__all__ = [
    "Budget",
    "ResourceGovernor",
    "ResourceExhausted",
    "DeadlineExceeded",
    "TaskBudgetExceeded",
    "StepLimitExceeded",
    "RoundBudgetExceeded",
    "FuelExhausted",
    "TableSpaceExceeded",
    "AnswerBudgetExceeded",
    "Cancelled",
    "FaultInjector",
    "DegradationEvent",
    "top_widening_join",
    "add_degradation_listener",
    "remove_degradation_listener",
    "notify_degradation",
    "groundness_over_approximates",
    "depthk_over_approximates",
    "strictness_over_approximates",
]
