"""What the degradation ladder emits: stage spans, phase timers, counters.

Each analysis driver is run once exactly and once under a fault that
trips every stage, so the ladder walks all the way to ``top``.  The
stage spans, the phase timers and the ladder counters are what a trace
and a metrics snapshot show of a run, so they are pinned here stage by
stage.
"""

import pytest

from repro.benchdata.loader import load_funlang_benchmark, load_prolog_benchmark
from repro.core.depthk import analyze_depthk
from repro.core.groundness import analyze_groundness
from repro.core.strictness import analyze_strictness
from repro.obs import Observer, use_observer
from repro.runtime import FaultInjector

#: analysis -> (driver, benchmark loader, program, fault trigger that
#: trips every stage after the widened stage has widened a table)
DRIVERS = {
    "groundness": (analyze_groundness, load_prolog_benchmark, "qsort",
                   ("tasks", 10)),
    "depthk": (analyze_depthk, load_prolog_benchmark, "qsort",
               ("tasks", 10)),
    "strictness": (analyze_strictness, load_funlang_benchmark, "quicksort",
                   ("answers", 5)),
}

#: the stage spans of a run walked to ``top``, in order
TOP_STAGES = {
    "groundness": [{"stage": "exact"}, {"stage": "widened"}],
    "depthk": [
        {"stage": "exact", "depth": 2},
        {"stage": "widened", "depth": 2},
        {"stage": "reduced-k(1)", "depth": 1},
        {"stage": "reduced-k(0)", "depth": 0},
    ],
    "strictness": [{"stage": "exact"}, {"stage": "widened"}],
}

#: ``widenings`` of the run walked to ``top`` (at ``widen_threshold=1``)
TOP_WIDENINGS = {"groundness": 1, "depthk": 1, "strictness": 2}


def _run(analysis: str, faulted: bool):
    driver, load, name, (event, at) = DRIVERS[analysis]
    program = load(name)
    kwargs = {}
    if faulted:
        kwargs = {"fault": FaultInjector(event, at), "widen_threshold": 1}
    observer = Observer()
    with use_observer(observer):
        result = driver(program, **kwargs)
    return result, observer


@pytest.mark.parametrize("faulted", [False, True], ids=["exact", "top"])
@pytest.mark.parametrize("analysis", sorted(DRIVERS))
def test_ladder_emits_stage_spans_phase_timers_and_counters(analysis, faulted):
    result, observer = _run(analysis, faulted)
    prefix = f"analysis.{analysis}"

    stages = [
        (span.attrs, span.status)
        for span in observer.tracer.spans()
        if span.name == f"{prefix}.stage"
    ]
    if faulted:
        assert result.completeness == "top"
        assert stages == [(attrs, "exhausted") for attrs in TOP_STAGES[analysis]]
        assert [event.stage for event in result.events] == [
            attrs["stage"] for attrs in TOP_STAGES[analysis]
        ]
    else:
        assert result.completeness == "exact" and result.events == []
        assert stages == [(TOP_STAGES[analysis][0], "ok")]

    registry = observer.registry
    for phase in ("preprocess", "analysis", "collection"):
        timer = registry.timer(f"{prefix}.{phase}")
        assert timer.count == 1
        assert timer.total == pytest.approx(result.times[phase])
    assert sorted(result.times) == ["analysis", "collection", "preprocess"]

    counters = {
        name: registry.counter(f"{prefix}.{name}").value
        for name in ("runs", "degraded_runs", "degradations", "widenings")
    }
    if faulted:
        assert counters == {
            "runs": 1,
            "degraded_runs": 1,
            "degradations": len(TOP_STAGES[analysis]),
            "widenings": TOP_WIDENINGS[analysis],
        }
    else:
        assert counters == {
            "runs": 1, "degraded_runs": 0, "degradations": 0, "widenings": 0,
        }
