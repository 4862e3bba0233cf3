"""BDD vs enumerative Prop backends: equivalence, routing, degradation.

The BDD backend must be observationally identical to the enumerative
oracle — same lattice, same projections, same rendering, same analysis
results over the whole benchmark corpus — while staying polynomial
where enumeration is exponential.  These tests pin that contract:

* property-based equivalence of every ``PropFunction`` operation
  (hypothesis, random boolean functions to arity 10);
* corpus-wide zero-diff parity of groundness and modecheck under
  ``backend="bdd"`` vs ``backend="enum"``;
* wide-arity routing (typed :class:`IffArityError` at the enumeration
  cap; automatic per-predicate fallback to BDD);
* the ``bdd_nodes`` budget and the ``bdd-widened`` degradation stage
  (worst-case widening to the definite core);
* backend-independent summary-store round-trips (a store warmed under
  one backend hits under the other, unchanged digests).
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.modecheck import check_modes
from repro.analysis.summaries import SummaryStore, groundness_via_summaries
from repro.bdd import (
    BDDManager,
    BddPropFunction,
    global_manager,
    reset_global_manager,
)
from repro.benchdata.loader import load_prolog_benchmark, prolog_benchmark_names
from repro.core.groundness import _expand, analyze_groundness
from repro.core.propdom import (
    MAX_IFF_NVARS,
    IffArityError,
    PropFunction,
    iff_facts,
    prop_function_class,
    resolve_prop_backend,
)
from repro.errors import PrologError
from repro.prolog.program import load_program
from repro.runtime.budget import (
    BddNodesExceeded,
    Budget,
    DeadlineExceeded,
    ResourceGovernor,
)
from repro.terms import Struct, fresh_var


def pair(arity, rows):
    return PropFunction(arity, rows), BddPropFunction.from_rows(arity, rows)


@st.composite
def functions(draw, max_arity=6, count=1):
    arity = draw(st.integers(min_value=1, max_value=max_arity))
    row = st.tuples(*([st.booleans()] * arity))
    return arity, [draw(st.sets(row, max_size=16)) for _ in range(count)]


# ----------------------------------------------------------------------
# property-based operation equivalence


@given(functions(count=2))
def test_lattice_ops_equivalent(case):
    arity, (rows1, rows2) = case
    e1, b1 = pair(arity, rows1)
    e2, b2 = pair(arity, rows2)
    assert b1.conj(b2).rows == e1.conj(e2).rows
    assert b1.disj(b2).rows == e1.disj(e2).rows
    assert b1.meet(b2).rows == e1.meet(e2).rows
    assert b1.join(b2).rows == e1.join(e2).rows
    assert (b1 <= b2) == (e1 <= e2)
    assert (b1 == b2) == (e1 == e2)
    # cross-backend comparison and hashing agree in both directions
    assert b1 == e1 and e1 == b1
    assert hash(b1) == hash(e1)
    assert (b1 <= e2) == (e1 <= e2) and (e1 <= b2) == (e1 <= b2)


@given(functions())
def test_observers_equivalent(case):
    arity, (rows,) = case
    enum, bdd = pair(arity, rows)
    assert bdd.rows == enum.rows
    assert bdd.definitely_true() == enum.definitely_true()
    assert bdd.is_bottom() == enum.is_bottom()
    assert bdd.dnf() == enum.dnf()
    names = [f"V{i}" for i in range(arity)]
    assert bdd.dnf(names) == enum.dnf(names)


@given(functions(), st.data())
def test_projections_equivalent(case, data):
    arity, (rows,) = case
    enum, bdd = pair(arity, rows)
    index = data.draw(st.integers(min_value=0, max_value=arity - 1))
    assert bdd.exists(index).rows == enum.exists(index).rows
    indexes = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=arity - 1),
                max_size=arity,
                unique=True,
            )
        )
    )
    assert bdd.restrict_to(indexes).rows == enum.restrict_to(indexes).rows
    pattern = tuple(
        data.draw(st.sampled_from([True, None])) for _ in range(arity)
    )
    assert bdd.assume(pattern).rows == enum.assume(pattern).rows


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_functions_to_arity_10(seed):
    """Wider functions than hypothesis tuples reach comfortably."""
    rng = random.Random(seed)
    arity = rng.randint(7, 10)
    universe = list(product((False, True), repeat=arity))
    rows1 = set(rng.sample(universe, rng.randint(0, 64)))
    rows2 = set(rng.sample(universe, rng.randint(0, 64)))
    e1, b1 = pair(arity, rows1)
    e2, b2 = pair(arity, rows2)
    assert b1.conj(b2).rows == e1.conj(e2).rows
    assert b1.disj(b2).rows == e1.disj(e2).rows
    assert (b1 <= b2) == (e1 <= e2)
    assert b1.definitely_true() == e1.definitely_true()
    assert b1.exists(arity - 1).rows == e1.exists(arity - 1).rows


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sets(st.integers(min_value=0, max_value=4), max_size=4),
        ),
        max_size=4,
    ),
)
def test_iff_closure_equivalent(arity, raw):
    constraints = [
        (lhs % arity, tuple(i % arity for i in rhs)) for lhs, rhs in raw
    ]
    enum = PropFunction.iff_closure(arity, constraints)
    bdd = BddPropFunction.iff_closure(arity, constraints)
    assert bdd.rows == enum.rows


def test_top_bottom_var_is_equivalent():
    for arity in (1, 3, 5):
        assert BddPropFunction.top(arity) == PropFunction.top(arity)
        assert BddPropFunction.bottom(arity) == PropFunction.bottom(arity)
        assert BddPropFunction.bottom(arity).definitely_true() == tuple(
            True for _ in range(arity)
        )
        for i in range(arity):
            assert BddPropFunction.iff_conj(arity, i, tuple(
                j for j in range(arity) if j != i
            )) == PropFunction.iff_conj(arity, i, tuple(
                j for j in range(arity) if j != i
            ))


def test_from_answers_matches_row_expansion():
    shared, other = fresh_var("A"), fresh_var("B")
    answers = [
        Struct("gp$p", ("true", shared, shared)),
        Struct("gp$p", ("false", "true", other)),
        Struct("gp$p", (shared, other, shared)),
    ]
    expanded: set = set()
    for answer in answers:
        expanded.update(_expand(answer, 3))
    assert BddPropFunction.from_answers(3, answers).rows == expanded
    assert BddPropFunction.from_answers(0, ["gp$p"]).rows == {()}


def test_pickle_roundtrip():
    import pickle

    fn = BddPropFunction.from_rows(3, {(True, False, True), (False, True, True)})
    clone = pickle.loads(pickle.dumps(fn))
    assert clone == fn and clone.manager is global_manager()


# ----------------------------------------------------------------------
# wide-arity routing and the enumeration cap


def test_iff_facts_cap_is_typed():
    with pytest.raises(IffArityError) as info:
        iff_facts(MAX_IFF_NVARS + 1)
    assert isinstance(info.value, PrologError)
    assert info.value.nvars == MAX_IFF_NVARS + 1
    assert info.value.limit == MAX_IFF_NVARS
    assert "bdd" in str(info.value).lower()


def test_iff_closure_cap_only_binds_enum():
    wide = MAX_IFF_NVARS + 2
    with pytest.raises(IffArityError):
        PropFunction.iff_closure(wide, [(0, (1, 2))])
    fn = BddPropFunction.iff_closure(wide, [(0, (1, 2))])
    assert fn.arity == wide
    assert fn.definitely_true() == tuple(False for _ in range(wide))


def test_wide_arity_predicate_auto_routes_to_bdd():
    arity = MAX_IFF_NVARS + 2
    args = ", ".join("a" for _ in range(arity))
    program = load_program(
        f"w({args}).\n"
        "p(X) :- q(X).\n"
        "q(a).\n"
    )
    result = analyze_groundness(program, prop_backend="enum")
    assert result.backend == "enum"
    info = result.predicates[("w", arity)]
    assert isinstance(info.success, BddPropFunction)
    assert info.ground_on_success == tuple(True for _ in range(arity))
    assert any("enumeration cap" in w for w in result.warnings)
    # narrow predicates in the same program stay enumerative
    assert isinstance(result.predicates[("p", 1)].success, PropFunction)


def test_resolve_prop_backend(monkeypatch):
    monkeypatch.delenv("REPRO_PROP_BACKEND", raising=False)
    assert resolve_prop_backend() == "bdd"
    monkeypatch.setenv("REPRO_PROP_BACKEND", "enum")
    assert resolve_prop_backend() == "enum"
    assert resolve_prop_backend("bdd") == "bdd"  # explicit wins over env
    with pytest.raises(ValueError):
        resolve_prop_backend("zdd")
    assert prop_function_class("enum") is PropFunction
    assert prop_function_class("bdd") is BddPropFunction


# ----------------------------------------------------------------------
# widening and the bdd_nodes budget


@given(functions())
def test_widen_is_sound_and_definite(case):
    arity, (rows,) = case
    fn = BddPropFunction.from_rows(arity, rows)
    widened = fn.widen(0)
    assert fn <= widened  # over-approximation: never loses successes
    assert widened.size() <= arity + 1  # the definite core is tiny
    # the core keeps exactly the definite arguments
    if rows:
        assert widened.definitely_true() == fn.definitely_true()
    assert fn.widen(10**6) is fn  # within the cap: identity


DEGRADE_PROGRAM = """\
p(a, b). p(b, c). p(c, d).
q(X, Y) :- p(X, Y).
q(X, Z) :- p(X, Y), q(Y, Z).
r(X, Y, Z) :- q(X, Y), q(Y, Z).
"""


def test_bdd_nodes_budget_trips_typed():
    program = load_program(DEGRADE_PROGRAM)
    reset_global_manager()
    with pytest.raises(BddNodesExceeded):
        analyze_groundness(
            program,
            prop_backend="bdd",
            budget=Budget(bdd_nodes=1),
            degrade=False,
        )


def test_bdd_nodes_budget_degrades_to_bdd_widened():
    program = load_program(DEGRADE_PROGRAM)
    reset_global_manager()
    exact = analyze_groundness(program, prop_backend="bdd")
    interned = global_manager().node_count()
    assert interned > 4  # the program actually builds structure

    reset_global_manager()
    degraded = analyze_groundness(
        program,
        prop_backend="bdd",
        budget=Budget(bdd_nodes=interned - 1),
        bdd_widen_nodes=1,
    )
    assert degraded.completeness == "bdd-widened"
    assert degraded.backend == "bdd"
    assert [e.kind for e in degraded.events] == ["bdd_nodes"]
    for indicator, info in exact.predicates.items():
        widened = degraded.predicates[indicator]
        # sound: the widened success set contains the exact one
        assert info.success <= widened.success
    # the ladder bottoms out at top when even widening cannot fit
    reset_global_manager()
    floored = analyze_groundness(
        program, prop_backend="bdd", budget=Budget(bdd_nodes=1)
    )
    assert floored.completeness == "top"
    for info in floored.predicates.values():
        assert info.ground_on_success == tuple(
            False for _ in range(info.arity)
        )


def _jumping_governor():
    """A 1 s deadline whose clock jumps past it once, on its third read.

    The jump lands inside the exact stage; the widened stage's
    restarted governor starts after it and never expires.
    """
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) < 3 else 2.0

    return ResourceGovernor(Budget(deadline=1.0), clock=clock, poll_interval=1)


@pytest.mark.parametrize("name", ["qsort", "cs", "press1"])
def test_deadline_trip_is_collected_under_the_widened_stage(name):
    program = load_prolog_benchmark(name)
    reset_global_manager()  # fresh nodes: collection must charge
    result = analyze_groundness(
        program, governor=_jumping_governor(), prop_backend="bdd"
    )
    assert result.completeness == "widened"
    assert [e.kind for e in result.events] == ["deadline"]
    reset_global_manager()
    with pytest.raises(DeadlineExceeded):
        analyze_groundness(
            program, governor=_jumping_governor(), prop_backend="bdd",
            degrade=False,
        )


def test_apply_cache_is_bounded():
    manager = BDDManager(max_cache_entries=16)
    rng = random.Random(7)
    universe = list(product((False, True), repeat=5))
    acc = manager.constant(False)
    for _ in range(40):
        rows = set(rng.sample(universe, 8))
        acc = manager.disj(acc, manager.from_rows(rows, range(5)))
    assert manager.cache_clears > 0
    assert len(manager._apply_cache) <= 16
    assert manager.apply_cache_hits + manager.apply_cache_misses > 0


def test_bdd_gauges_published():
    from repro.obs import Observer, use_observer

    reset_global_manager()
    program = load_program("p(a). q(X) :- p(X).")
    with use_observer(Observer()) as obs:
        analyze_groundness(program, prop_backend="bdd")
        gauges = {
            name: obs.registry.gauge(name).value
            for name in (
                "bdd.nodes",
                "bdd.peak_nodes",
                "bdd.apply_cache_hits",
                "bdd.apply_cache_misses",
                "bdd.exists_cache_hits",
                "bdd.cache_clears",
            )
        }
    assert gauges["bdd.nodes"] > 0
    assert gauges["bdd.peak_nodes"] >= gauges["bdd.nodes"]


# ----------------------------------------------------------------------
# summary store: backend-independent persistence


STORE_PROGRAM = """\
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
rev([], []).
rev([X|Xs], R) :- rev(Xs, T), app(T, [X], R).
main(Xs, Ys) :- rev(Xs, Ys).
"""


@pytest.mark.parametrize("cold,warm", [("enum", "bdd"), ("bdd", "enum")])
def test_summary_store_roundtrips_across_backends(tmp_path, cold, warm):
    program = load_program(STORE_PROGRAM)
    store = SummaryStore(str(tmp_path / f"store-{cold}"))
    first = groundness_via_summaries(program, store, prop_backend=cold)
    populated = store.stats()
    assert populated["stores"] > 0 and populated["hits"] == 0

    second = groundness_via_summaries(program, store, prop_backend=warm)
    warmed = store.stats()
    # every component hits: the keys and digests written under one
    # backend are exactly what the other backend computes
    assert warmed["misses"] == populated["misses"]
    assert warmed["stores"] == populated["stores"]
    assert warmed["hits"] == populated["hits"] + populated["stores"]

    assert set(first.predicates) == set(second.predicates)
    for indicator, info in first.predicates.items():
        other = second.predicates[indicator]
        assert info.success == other.success
        assert info.ground_on_success == other.ground_on_success
        for pattern in product((True, False), repeat=indicator[1]):
            assert first.ground_on_success_for(indicator, pattern) == (
                second.ground_on_success_for(indicator, pattern)
            )


# ----------------------------------------------------------------------
# corpus-wide zero-diff parity


@pytest.mark.parametrize("name", prolog_benchmark_names())
def test_corpus_groundness_parity(name):
    program = load_prolog_benchmark(name)
    via_bdd = analyze_groundness(program, prop_backend="bdd")
    via_enum = analyze_groundness(program, prop_backend="enum")
    assert via_bdd.backend == "bdd" and via_enum.backend == "enum"
    assert via_bdd.completeness == via_enum.completeness
    assert set(via_bdd.predicates) == set(via_enum.predicates)
    for indicator, bdd_info in via_bdd.predicates.items():
        enum_info = via_enum.predicates[indicator]
        assert isinstance(bdd_info.success, BddPropFunction)
        assert bdd_info.success == enum_info.success
        assert bdd_info.ground_on_success == enum_info.ground_on_success
        assert bdd_info.ground_at_call == enum_info.ground_at_call
        assert bdd_info.answer_count == enum_info.answer_count
        arity = indicator[1]
        patterns = (
            product((True, False), repeat=arity)
            if arity <= 8
            else [
                tuple(True for _ in range(arity)),
                tuple(False for _ in range(arity)),
            ]
        )
        for pattern in patterns:
            assert via_bdd.ground_on_success_for(indicator, pattern) == (
                via_enum.ground_on_success_for(indicator, pattern)
            )


@pytest.mark.parametrize("name", prolog_benchmark_names())
def test_corpus_modecheck_parity(name):
    program = load_prolog_benchmark(name)
    via_bdd = check_modes(program, prop_backend="bdd")
    via_enum = check_modes(program, prop_backend="enum")
    key = lambda d: (d.line, d.rule, d.message)
    assert [key(d) for d in sorted(via_bdd.diagnostics, key=key)] == [
        key(d) for d in sorted(via_enum.diagnostics, key=key)
    ]
