"""Polymorphic summaries: soundness, store round-trip, invalidation.

The contract under test (ISSUE 8 / DESIGN.md §7): summary-instantiated
results are *identical* to whole-program results — groundness claims,
mode diagnostics, and failure proofs — and the persistent store is
content-addressed (reload-safe, stale entries invalidated by key
change, never served).
"""

import itertools
import json
import os
from pathlib import Path

import pytest

from repro.analysis.failcheck import failcheck_program
from repro.analysis.lint import lint_program
from repro.analysis.modecheck import check_modes
from repro.analysis.summaries import (
    ComponentSummary,
    PredicateSummary,
    SummaryStore,
    component_clause_keys,
    component_key,
    data_to_term,
    depthk_via_summaries,
    groundness_via_summaries,
    instantiate,
    term_to_data,
)
from repro.benchdata import prolog_benchmark_names, prolog_benchmark_source
from repro.core.groundness import analyze_groundness, gp_name
from repro.prolog import load_program
from repro.prolog.parser import parse_term
from repro.runtime.budget import ResourceGovernor, TaskBudgetExceeded
from repro.runtime.faultinject import FaultInjector
from repro.terms.term import Struct


def corpus_program(name):
    return load_program(prolog_benchmark_source(name))


#: the programs small enough for per-test whole-program reference runs
FAST_CORPUS = ["qsort", "queens", "pg", "plan", "gabriel", "disj", "cs"]


# ----------------------------------------------------------------------
# Soundness: summary-instantiated == whole-program


@pytest.mark.parametrize("name", prolog_benchmark_names())
def test_groundness_summary_matches_whole_program(name):
    program = corpus_program(name)
    whole = analyze_groundness(program)
    modular = groundness_via_summaries(program, store=SummaryStore())
    for indicator, pred in whole.predicates.items():
        patterns = {tuple(None for _ in range(pred.arity))}
        patterns.update(pred.call_patterns)
        for pattern in patterns:
            query = tuple(p is True for p in pattern)
            assert whole.ground_on_success_for(
                indicator, query
            ) == modular.ground_on_success_for(indicator, query), (
                f"{name}: {indicator} diverges at {query}"
            )


@pytest.mark.parametrize("name", FAST_CORPUS)
def test_groundness_summary_matches_on_exhaustive_patterns(name):
    # every call pattern of every predicate of arity <= 8: most of them
    # need the open call that goal-directed evaluation did not table
    program = corpus_program(name)
    whole = analyze_groundness(program)
    modular = groundness_via_summaries(program, store=SummaryStore())
    for indicator, pred in whole.predicates.items():
        if pred.arity > 8:
            continue
        for query in itertools.product((True, False), repeat=pred.arity):
            assert whole.ground_on_success_for(
                indicator, query
            ) == modular.ground_on_success_for(indicator, query), (
                f"{name}: {indicator} diverges at {query}"
            )


@pytest.mark.parametrize("name", FAST_CORPUS)
def test_lint_diagnostics_identical_with_summary_store(name, tmp_path):
    program = corpus_program(name)
    plain = lint_program(program)
    store = SummaryStore(path=str(tmp_path / "store"))
    backed = lint_program(corpus_program(name), summaries=store)
    assert [d.format() for d in plain.sorted()] == [
        d.format() for d in backed.sorted()
    ]
    # and a warm second pass over the same file changes nothing
    warm = lint_program(corpus_program(name), summaries=store)
    assert [d.format() for d in backed.sorted()] == [
        d.format() for d in warm.sorted()
    ]
    assert store.hits > 0


@pytest.mark.parametrize("name", ["qsort", "queens", "pg", "plan"])
def test_failcheck_identical_with_summary_store(name, tmp_path):
    program = corpus_program(name)
    plain = failcheck_program(program)
    store = SummaryStore(path=str(tmp_path / "store"))
    backed = failcheck_program(corpus_program(name), summaries=store)
    assert plain.dead == backed.dead
    assert plain.completeness == backed.completeness
    assert [d.format() for d in plain.diagnostics] == [
        d.format() for d in backed.diagnostics
    ]
    warm = failcheck_program(corpus_program(name), summaries=store)
    assert warm.dead == plain.dead
    assert store.hits > 0


def test_failcheck_abstract_claims_survive_summary_backend():
    # the seeded-bug corpus: the abstract (depth-k) pass must still
    # certify blue_pick/1 dead through the per-component evaluation
    program = load_program(open("tests/data/failcheck_bugs.pl").read())
    report = failcheck_program(program)
    assert report.dead.get(("blue_pick", 1)) == "abstract"
    assert report.completeness == "exact"
    assert report.components_done == report.components_total


# ----------------------------------------------------------------------
# The store: round-trip, invalidation, bounding


def test_store_round_trip_persist_reload_instantiate(tmp_path):
    program = corpus_program("qsort")
    cold = SummaryStore(path=str(tmp_path))
    reference = groundness_via_summaries(program, store=cold)
    assert cold.stores > 0 and cold.hits == 0

    # a brand-new store instance over the same directory: all hits,
    # no evaluation, identical instantiated claims
    warm = SummaryStore(path=str(tmp_path))
    reloaded = groundness_via_summaries(corpus_program("qsort"), store=warm)
    assert warm.hits > 0 and warm.stores == 0
    for indicator, pred in reference.predicates.items():
        for query in itertools.product((True, False), repeat=pred.arity):
            assert reference.ground_on_success_for(
                indicator, query
            ) == reloaded.ground_on_success_for(indicator, query)


def test_store_entries_are_content_addressed_json(tmp_path):
    program = corpus_program("qsort")
    store = SummaryStore(path=str(tmp_path))
    groundness_via_summaries(program, store=store)
    names = [n for n in os.listdir(tmp_path) if n.endswith(".json")]
    assert names
    for filename in names:
        with open(tmp_path / filename, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["key"] == filename[: -len(".json")]
        assert data["version"] == 1
        entry = ComponentSummary.from_json(data, gp_name(""))
        assert entry.compute_digest() == data["digest"]


def test_stale_fingerprint_invalidates_with_early_cutoff(tmp_path):
    # an edit that does NOT change q/1's summary (all facts stay
    # ground): q/1 re-keys and re-derives, but its digest is unchanged,
    # so digest chaining leaves the caller p/1 warm (early cutoff)
    base = "p(X) :- q(X).\nq(1).\n"
    edited = "p(X) :- q(X).\nq(zzz).\nq(2).\n"
    store = SummaryStore(path=str(tmp_path))
    groundness_via_summaries(load_program(base), store=store)
    first_stats = store.stats()
    assert first_stats["invalidated"] == 0

    groundness_via_summaries(load_program(edited), store=store)
    stats = store.stats()
    assert stats["misses"] - first_stats["misses"] == 1  # q/1 only
    assert stats["hits"] - first_stats["hits"] == 1      # p/1 cut off
    assert stats["invalidated"] == 1  # stale q/1 entry superseded
    # a warm re-run of the edited program is all hits
    again = SummaryStore(path=str(tmp_path))
    groundness_via_summaries(load_program(edited), store=again)
    assert again.misses == 0


def test_summary_changing_edit_rekeys_the_whole_chain(tmp_path):
    # an edit that DOES change q/1's summary (a non-ground fact): the
    # new digest chains into p/1's key, so p/1 re-derives too
    base = "p(X) :- q(X).\nq(1).\n"
    edited = "p(X) :- q(X).\nq(_).\n"
    store = SummaryStore(path=str(tmp_path))
    reference = groundness_via_summaries(load_program(base), store=store)
    assert reference.ground_on_success_for(("p", 1), (False,)) == (True,)
    first_stats = store.stats()

    updated = groundness_via_summaries(load_program(edited), store=store)
    stats = store.stats()
    assert stats["hits"] == first_stats["hits"]  # nothing reusable
    assert stats["misses"] - first_stats["misses"] == 2  # q/1 AND p/1
    assert stats["invalidated"] == 2
    # and the stale summary is never served: the reloaded claims track
    # the edited program, not the cached one
    assert updated.ground_on_success_for(("p", 1), (False,)) == (False,)


def test_untouched_sibling_components_stay_warm(tmp_path):
    shared = "lib(X) :- base(X).\nbase(1).\n"
    main_a = shared + "main_a(X) :- lib(X).\n"
    main_b = shared + "main_b(X) :- lib(X), lib(X).\n"
    store = SummaryStore(path=str(tmp_path))
    groundness_via_summaries(load_program(main_a), store=store)
    cold = store.stats()
    groundness_via_summaries(load_program(main_b), store=store)
    warm = store.stats()
    # base/1 and lib/1 are byte-identical across the two files: their
    # summaries are reused; only the edited top predicate re-derives
    assert warm["hits"] - cold["hits"] >= 2
    assert warm["stores"] - cold["stores"] == 1


def test_component_key_depends_on_callee_digest():
    program = load_program("p(X) :- q(X).\nq(1).\n")
    clause_keys = component_clause_keys(program, [("p", 1)])
    key_one = component_key("prop", {}, clause_keys, [("q/1", "digest-one")])
    key_two = component_key("prop", {}, clause_keys, [("q/1", "digest-two")])
    assert key_one != key_two


# ----------------------------------------------------------------------
# Budget trips in the Prop walk


@pytest.mark.parametrize("at", [5, 20, 60])
def test_prop_walk_trip_stores_only_completed_independent_components(at):
    program = corpus_program("qsort")
    cold = SummaryStore()
    groundness_via_summaries(program, store=cold)
    exact = {tuple(entry.component): (entry.key, entry.digest)
             for entry in cold._entries.values()}

    store = SummaryStore()
    fault = FaultInjector("tasks", at=at, kind="tasks", times=1)
    with pytest.raises(TaskBudgetExceeded):
        groundness_via_summaries(
            program, store=store, governor=ResourceGovernor(fault=fault)
        )
    stored = {tuple(entry.component): (entry.key, entry.digest)
              for entry in store._entries.values()}
    # append/3 trips; qsort/2 reaches it and is skipped with it;
    # partition/4 completes on its own, exactly as in a cold run
    partition = (("partition", 4),)
    assert stored == {partition: exact[partition]}


@pytest.mark.parametrize("at", [5, 20, 60])
def test_modecheck_escalates_past_a_prop_walk_trip(at):
    program = load_program(
        (Path(__file__).parent / "data" / "modecheck_bugs.pl").read_text()
    )
    reference = check_modes(program)
    fault = FaultInjector("tasks", at=at, kind="tasks", times=1)
    report = check_modes(program, summaries=SummaryStore(), fault=fault)
    # the one firing lands in the summary walk: a firing in the
    # whole-program backend would have left only the "adorn" tier
    assert fault.fired == 1
    assert report.completeness == reference.completeness == "prop"
    assert len(reference.diagnostics) == 6
    assert [d.format() for d in report.diagnostics] == [
        d.format() for d in reference.diagnostics
    ]


def test_store_lru_bounds_memory(tmp_path):
    store = SummaryStore(path=str(tmp_path), max_entries=4)
    for index in range(10):
        entry = ComponentSummary(
            domain="prop",
            params={},
            component=[(f"p{index}", 1)],
            predicates={
                (f"p{index}", 1): PredicateSummary(f"p{index}", 1, [])
            },
        )
        entry.key = f"{'0' * 63}{index}"
        entry.digest = entry.compute_digest()
        store.put(entry)
    assert len(store) <= 4
    # evicted entries still load from disk
    assert store.get(f"{'0' * 63}0", gp_name("")) is not None


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    store = SummaryStore(path=str(tmp_path))
    key = "ab" * 32
    with open(tmp_path / f"{key}.json", "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert store.get(key, gp_name("")) is None
    assert store.misses == 1


def test_disk_pruning_bounds_directory(tmp_path):
    store = SummaryStore(path=str(tmp_path), max_disk_entries=3)
    for index in range(8):
        entry = ComponentSummary(
            domain="prop",
            params={},
            component=[(f"p{index}", 1)],
            predicates={
                (f"p{index}", 1): PredicateSummary(f"p{index}", 1, [])
            },
        )
        entry.key = f"{'1' * 63}{index}"
        entry.digest = entry.compute_digest()
        store.put(entry)
    store.prune_disk()
    names = [n for n in os.listdir(tmp_path) if n.endswith(".json")]
    assert len(names) <= 3


# ----------------------------------------------------------------------
# Serialization + instantiation units


def test_term_data_round_trip():
    term = parse_term("f(X, g(X, Y), [a, 1, 2], true)")
    env: dict = {}
    data = term_to_data(term, env)
    back = data_to_term(data, {})
    env2: dict = {}
    assert term_to_data(back, env2) == data


def test_instantiate_conditions_open_summary():
    # open success set of app/3: third ground iff first and second are
    program = load_program(
        "app([], Ys, Ys).\napp([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).\n"
    )
    result = groundness_via_summaries(program, store=SummaryStore())
    open_claims = result.ground_on_success_for(("app", 3), (False,) * 3)
    assert open_claims == (False, False, False)
    bound_claims = result.ground_on_success_for(("app", 3), (True, True, False))
    assert bound_claims == (True, True, True)


def test_instantiate_helper_counts_and_claims():
    summary = PredicateSummary(
        "p",
        2,
        [
            Struct(gp_name("p"), ("true", "true")),
            Struct(gp_name("p"), ("false", "true")),
        ],
    )
    assert instantiate(summary, (False, False)) == (False, True)
    assert instantiate(summary, (True, False)) == (True, True)


@pytest.mark.parametrize("name", ["qsort", "queens", "pg", "plan"])
def test_depthk_summary_emptiness_matches_whole_program(name):
    # failcheck consumes depth-k results through one property only —
    # "is the abstract success set empty?" — so that (not the raw
    # shape sets, which differ by demand/subsumption order) is the
    # parity the modular backend must preserve
    from repro.core.depthk import analyze_depthk

    program = corpus_program(name)
    whole = analyze_depthk(program)
    modular = depthk_via_summaries(program, store=SummaryStore())
    assert modular.completeness == "exact"
    for indicator, shapes in whole.predicates.items():
        assert bool(shapes.answers) == bool(
            modular.predicates[indicator].answers
        ), f"{indicator} emptiness diverges"
