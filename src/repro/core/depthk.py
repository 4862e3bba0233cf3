"""Groundness analysis with depth-k term abstraction (paper section 5).

The abstract domain is the set of terms of depth k or less over the
program's function symbols, a special 0-ary symbol ``gamma``
(representing the set of *all ground terms*) and variables.  An
abstract term is a constraint: ``gamma`` is a membership constraint,
other symbols are equality constraints.

Abstract unification differs from the engine's built-in unification
(``gamma`` must unify with any ground term, and the paper's version
performs the occur check), so — exactly as the paper does in XSB — it
is implemented "at a higher level": here as the ``$aunify`` builtin plus
the engine's call/answer abstraction hooks (depth-k truncation) and the
pluggable answer-feed unification.

The generated abstract program keeps the source program's shape but
with flat heads::

    gpk$p(A1, ..., An) :- '$aunify'(A1, t1), ..., gpk$q(s1, ...), ...

Evaluation is ordinary tabled evaluation; variant checking over the
finite depth-k domain guarantees termination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from repro.engine.builtins import DET_BUILTINS, is_builtin
from repro.engine.clausedb import ClauseDB
from repro.engine.tabling import TabledEngine
from repro.prolog.parser import Clause
from repro.prolog.program import (
    Indicator,
    Program,
    conjunction,
    entry_points,
    open_goal,
)
from repro.runtime.degrade import AnalysisResult
from repro.terms.subst import Subst
from repro.terms.term import Struct, Term, Var, fresh_var, term_to_str, term_variables
from repro.terms.unify import occurs_in

GAMMA = "$gamma"
GPK_PREFIX = "gpk$"
AUNIFY = "$aunify"


def gpk_name(name: str) -> str:
    return GPK_PREFIX + name


# ----------------------------------------------------------------------
# Abstract unification (with occur check and the gamma rules)


def abstract_unify(t1: Term, t2: Term, subst: Subst) -> Subst | None:
    """Unify abstract terms: ``gamma`` matches any *ground* term.

    Unifying ``gamma`` against a structure binds every variable below
    the structure to ``gamma`` (the structure's concretizations that
    are ground).  Performs the occur check, as the paper's version does.
    """
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = subst.walk(a)
        b = subst.walk(b)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.id == a.id:
                continue
            if occurs_in(a, b, subst):
                return None
            subst = subst.bind(a, b)
            continue
        if isinstance(b, Var):
            if occurs_in(b, a, subst):
                return None
            subst = subst.bind(b, a)
            continue
        if a == GAMMA:
            subst = _groundify(b, subst)
            if subst is None:
                return None
            continue
        if b == GAMMA:
            subst = _groundify(a, subst)
            if subst is None:
                return None
            continue
        if isinstance(a, Struct):
            if (
                not isinstance(b, Struct)
                or a.functor != b.functor
                or len(a.args) != len(b.args)
            ):
                return None
            stack.extend(zip(a.args, b.args))
            continue
        if a != b:
            return None
    return subst


def _groundify(term: Term, subst: Subst) -> Subst | None:
    """Bind every variable under ``term`` to gamma (meet with gamma)."""
    stack = [term]
    while stack:
        t = subst.walk(stack.pop())
        if isinstance(t, Var):
            subst = subst.bind(t, GAMMA)
        elif isinstance(t, Struct):
            stack.extend(t.args)
    return subst


def _bi_aunify(args, subst):
    return abstract_unify(args[0], args[1], subst)


DET_BUILTINS[(AUNIFY, 2)] = _bi_aunify


# ----------------------------------------------------------------------
# Depth-k truncation


def is_abstractly_ground(term: Term) -> bool:
    """Ground in the abstract domain: no variables (gamma counts ground)."""
    return not term_variables(term)


def depth_truncate(term: Term, k: int, abstract_integers: bool = True) -> Term:
    """Replace subterms below depth ``k`` by gamma (ground) / fresh vars.

    This is the abstraction keeping the domain finite; replacing a
    ground subtree by ``gamma`` keeps its groundness, replacing a
    non-ground one by a fresh variable over-approximates it.  With
    ``abstract_integers`` every integer constant maps to gamma as well
    (still within the domain — gamma is the set of all ground terms):
    programs that thread numeric parameters around (Read's operator
    precedences!) otherwise spawn one call table per constant.
    """
    if abstract_integers and isinstance(term, int):
        return GAMMA
    if k <= 0:
        return GAMMA if is_abstractly_ground(term) else fresh_var()
    if isinstance(term, Struct):
        args = tuple(depth_truncate(a, k - 1, abstract_integers) for a in term.args)
        if args == term.args:
            return term
        return Struct(term.functor, args)
    return term


def truncate_goal(goal: Term, k: int, abstract_integers: bool = True) -> Term:
    """Truncate each *argument* of a call to depth k."""
    if isinstance(goal, Struct):
        return Struct(
            goal.functor,
            tuple(depth_truncate(a, k, abstract_integers) for a in goal.args),
        )
    return goal


# ----------------------------------------------------------------------
# Abstract compilation


class _DepthKAbstraction:
    def __init__(self, program: Program):
        self.program = program
        self.literals: list[Term] = []
        self.warnings: list[str] = []

    def head(self, head: Term) -> Term:
        if not isinstance(head, Struct):
            return gpk_name(head)
        fresh = tuple(fresh_var() for _ in head.args)
        for var, arg in zip(fresh, head.args):
            self.literals.append(Struct(AUNIFY, (var, arg)))
        return Struct(gpk_name(head.functor), fresh)

    def body(self, goal: Term) -> None:
        if goal in ("true", "!", "otherwise"):
            return
        if goal == "fail" or goal == "false":
            self.literals.append("fail")
            return
        if isinstance(goal, str):
            if self.program.clauses_for((goal, 0)):
                self.literals.append(gpk_name(goal))
            return
        if isinstance(goal, Var):
            return
        name, arity = goal.indicator
        if name == "," and arity == 2:
            self.body(goal.args[0])
            self.body(goal.args[1])
            return
        if name == ";" and arity == 2:
            left, right = goal.args
            if isinstance(left, Struct) and left.indicator == ("->", 2):
                left = Struct(",", left.args)
            self.literals.append(
                Struct(";", (self._subgoal(left), self._subgoal(right)))
            )
            return
        if name == "->" and arity == 2:
            self.body(goal.args[0])
            self.body(goal.args[1])
            return
        if (name == "\\+" or name == "not") and arity == 1:
            return  # no bindings on success
        if name == "call" and arity >= 1:
            target = goal.args[0]
            if isinstance(target, Struct) or isinstance(target, str):
                if arity > 1:
                    if isinstance(target, str):
                        target = Struct(target, tuple(goal.args[1:]))
                    else:
                        target = Struct(
                            target.functor, target.args + tuple(goal.args[1:])
                        )
                self.body(target)
            return
        if self.program.clauses_for((name, arity)):
            self.literals.append(Struct(gpk_name(name), goal.args))
            return
        if is_builtin((name, arity)):
            self._builtin(goal, name, arity)
            return
        self.warnings.append(f"unknown predicate {name}/{arity}")

    def _subgoal(self, goal: Term) -> Term:
        saved = self.literals
        self.literals = []
        self.body(goal)
        inner = self.literals
        self.literals = saved
        return conjunction(inner)

    def _builtin(self, goal: Struct, name: str, arity: int) -> None:
        if name == "=" and arity == 2:
            self.literals.append(Struct(AUNIFY, goal.args))
            return
        grounding = {
            "is": (0, 1),
            "<": (0, 1),
            ">": (0, 1),
            "=<": (0, 1),
            ">=": (0, 1),
            "=:=": (0, 1),
            "=\\=": (0, 1),
            "atom": (0,),
            "number": (0,),
            "integer": (0,),
            "atomic": (0,),
            "between": (0, 1, 2),
        }.get(name)
        if grounding is not None:
            for index in grounding:
                for var in term_variables(goal.args[index]):
                    self.literals.append(Struct(AUNIFY, (var, GAMMA)))
        # all other builtins: no constraint (sound over-approximation)


def depthk_program(program: Program) -> tuple[Program, list[str]]:
    """Transform ``program`` into its depth-k abstract program."""
    out = Program()
    warnings: list[str] = []
    for indicator in program.predicates():
        name, arity = indicator
        out.tabled.add((gpk_name(name), arity))
        for clause in program.clauses_for(indicator):
            abstraction = _DepthKAbstraction(program)
            new_head = abstraction.head(clause.head)
            head_literals = list(abstraction.literals)
            abstraction.literals = []
            abstraction.body(clause.body)
            body = head_literals + abstraction.literals
            out.add_clause(Clause(new_head, conjunction(body), {}, clause.line))
            warnings.extend(abstraction.warnings)
    return out, warnings


# ----------------------------------------------------------------------
# Driver


@dataclass
class PredicateShapes:
    """Depth-k results for one predicate: answer shapes + groundness."""

    name: str
    arity: int
    answers: list[Term]
    call_patterns: list[Term]

    @property
    def ground_on_success(self) -> tuple:
        if not self.answers:
            return tuple(True for _ in range(self.arity))
        flags = []
        for i in range(self.arity):
            flags.append(
                all(
                    isinstance(a, Struct) and is_abstractly_ground(a.args[i])
                    for a in self.answers
                )
            )
        return tuple(flags)

    def shapes(self) -> list[str]:
        return [term_to_str(a) for a in self.answers]


@dataclass
class DepthKResult(AnalysisResult):
    """``depth`` is the requested bound, ``effective_depth`` the bound
    of the run that produced the result (smaller after a ``reduced-k``
    degradation); ``completeness`` names the ladder stage (``"exact"``,
    ``"widened"``, ``"reduced-k(j)"`` or ``"top"``)."""

    predicates: dict[Indicator, PredicateShapes]
    depth: int
    warnings: list[str]
    abstract: Program | None = None
    effective_depth: int | None = None

    def __getitem__(self, indicator: Indicator) -> PredicateShapes:
        return self.predicates[indicator]


def depthk_engine(
    db: ClauseDB,
    depth: int,
    governor,
    scheduling: str = "lifo",
    abstract_integers: bool = True,
    answer_join=None,
) -> TabledEngine:
    """The tabled engine that evaluates depth-``depth`` abstract clauses.

    Calls and answers are truncated to ``depth``, answers are fed back
    to their consumers by abstract unification, and answer subsumption
    is on.
    """

    def truncate(term: Term) -> Term:
        return truncate_goal(term, depth, abstract_integers)

    return TabledEngine(
        db,
        scheduling=scheduling,
        governor=governor,
        call_abstraction=truncate,
        answer_abstraction=truncate,
        feed_unify=abstract_unify,
        answer_join=answer_join,
        # subsumed answers denote no extra instances: merging is sound
        answer_subsumption=True,
    )


def analyze_depthk(
    program: Program,
    depth: int = 2,
    entries: list[Term] | None = None,
    compiled: bool = False,
    scheduling: str = "lifo",
    keep_abstract: bool = False,
    abstract_integers: bool = True,
    budget=None,
    governor=None,
    fault=None,
    degrade: bool = True,
    widen_threshold: int = 8,
) -> DepthKResult:
    """Depth-k groundness/shape analysis via the tabled engine.

    Entry goals use the source predicate names (``gpk$`` is added); the
    ``:- entry_point(p(g, any))`` directives of the source program are
    honoured with ``g`` mapping to ``gamma``.

    Anytime mode: under a ``budget``/``governor``, a budget trip with
    ``degrade=True`` walks the ladder — (1) retry with in-table
    widening to ⊤, (2) retry with reduced depth bounds ``depth-1 .. 0``
    (each a coarser, cheaper abstract domain), (3) bail to the all-top
    result.  Every stage restarts the budget; the injected ``fault``
    (if any) keeps its global fire count across stages.
    """
    from repro.obs.observer import get_observer
    from repro.runtime.budget import governor_for
    from repro.runtime.degrade import (
        Stage,
        publish_run,
        run_ladder,
        top_widening_join,
    )

    obs = get_observer()
    t0 = time.perf_counter()
    with obs.maybe_span("analysis.depthk.preprocess"):
        abstract, warnings = depthk_program(program)
        db = ClauseDB(abstract, compiled=compiled)
    t1 = time.perf_counter()

    goals = entries
    if goals is None:
        goals = entry_points(program, gpk_name, GAMMA)
    if not goals:
        goals = [
            open_goal(gpk_name(name), arity) for name, arity in program.predicates()
        ]

    def evaluate(k, stage_gov, answer_join=None):
        engine = depthk_engine(db, k, stage_gov, scheduling=scheduling,
                               abstract_integers=abstract_integers,
                               answer_join=answer_join)
        for goal in goals:
            engine.solve(goal)
        for name, arity in program.predicates():
            if not engine.tables_by_pred.get((gpk_name(name), arity)):
                engine.solve(open_goal(gpk_name(name), arity))
        return engine

    widen = top_widening_join(widen_threshold, metric="analysis.depthk.widenings")
    ladder = run_ladder("depthk", [
        Stage("exact", partial(evaluate, depth), {"depth": depth}),
        Stage("widened", partial(evaluate, depth, answer_join=widen), {"depth": depth}),
        *(Stage(f"reduced-k({k})", partial(evaluate, k), {"depth": k})
          for k in range(depth - 1, -1, -1)),
    ], governor_for(budget, governor, fault), degrade)
    engine = ladder.value
    t2 = time.perf_counter()

    predicates = {}
    table_completeness = {}
    for indicator in program.predicates():
        name, arity = indicator
        if engine is None:
            top = open_goal(gpk_name(name), arity)
            predicates[indicator] = PredicateShapes(name, arity, [top], [])
            table_completeness[indicator] = False
            continue
        answers: list[Term] = []
        calls: list[Term] = []
        complete = True
        for table in engine.tables_by_pred.get((gpk_name(name), arity), []):
            calls.append(table.call)
            answers.extend(table.answers)
            complete = complete and table.complete
        predicates[indicator] = PredicateShapes(name, arity, answers, calls)
        table_completeness[indicator] = complete
    t3 = time.perf_counter()

    result = DepthKResult(
        predicates=predicates,
        depth=depth,
        times={
            "preprocess": t1 - t0,
            "analysis": t2 - t1,
            "collection": t3 - t2,
        },
        table_space=0 if engine is None else engine.table_space_bytes(),
        stats={} if engine is None else engine.stats.as_dict(),
        warnings=warnings,
        abstract=abstract if keep_abstract else None,
        completeness=ladder.completeness,
        effective_depth=None if engine is None else ladder.stage.attrs["depth"],
        events=ladder.events,
        table_completeness=table_completeness,
    )
    publish_run("depthk", result)
    return result
