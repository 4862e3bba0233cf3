"""Strictness analysis by demand propagation (paper section 3.2).

Demands form the lattice ``n < d < e``: *null* (the value is not
needed), *head-normal-form* (evaluated to a constructor/number) and
*normal-form* (fully evaluated).  Each function ``f/k`` of the input
program yields a tabled predicate ``sp$f(D, X1, ..., Xk)`` relating a
demand ``D`` on ``f``'s output to the demands ``Xi`` it propagates to
its arguments (Figure 3):

* the demand on the rhs flows *top-down* through applications
  (``sp$g`` literals), so those literals come first;
* evaluation extents flow *bottom-up* through the lhs patterns
  (``pm$c`` literals), which come last — the literal order the paper
  notes "significantly improves efficiency by reducing backtracking";
* one extra clause ``sp$f(n, _, ..., _)`` accounts for non-strict use.

Non-linear right-hand sides (a variable used twice) are handled with
fresh demand variables joined through ``lub$/3`` — sharing one variable
for both occurrences (the naive reading of the figure) would *unify*
the demands and can lose answers, which is unsound for the collected
meet; the join encoding keeps the analysis sound.

Collection: for output demand ``delta`` in {e, d}, the per-argument
guaranteed demand is the lattice *meet* of that argument over all
answers of ``sp$f(delta, ...)`` (an unbound answer variable reads as
``n``).  The paper's ``ap`` example: meet under ``e`` is ``(e, e)``
("ee-strict in both arguments"), under ``d`` it is ``(d, n)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import product

from repro.core.propdom import DEFAULT_MAX_ENUM_ARITY  # reuse the same knob
from repro.engine.tabling import TabledEngine
from repro.funlang.ast import (
    EBottom,
    ECall,
    ECons,
    ELit,
    EPrim,
    EVar,
    FunProgram,
    PCons,
    PLit,
    PVar,
)
from repro.prolog.parser import Clause
from repro.prolog.program import Program, conjunction
from repro.runtime.degrade import AnalysisResult
from repro.terms.term import Struct, Term, Var, fresh_var, make_list

SP_PREFIX = "sp$"
PM_PREFIX = "pm$"
LUB = "lub$"
SP_PRIM = "sp$prim"
PM_LIST = "pm$list"
PM_JOIN = "pm$join"
PM_DEM = "pm$dem"

DEMANDS = ("e", "d", "n")
_RANK = {"n": 0, "d": 1, "e": 2}


def demand_meet(a: str, b: str) -> str:
    return a if _RANK[a] <= _RANK[b] else b


def demand_join(a: str, b: str) -> str:
    return a if _RANK[a] >= _RANK[b] else b


def sp_name(fname: str) -> str:
    return SP_PREFIX + fname


def pm_name(cname: str) -> str:
    return PM_PREFIX + cname


# ----------------------------------------------------------------------
# Support tables


def lub_facts() -> list[Clause]:
    """lub$(D1, D2, D): least upper bound in the demand lattice.

    Compact form: ``e`` on either side dominates regardless of the
    other (two most-general rows), the remaining four combinations are
    concrete.  Same success set as the 9-row table.
    """
    facts = [
        Clause(Struct(LUB, ("e", fresh_var(), "e")), "true"),
        Clause(Struct(LUB, (fresh_var(), "e", "e")), "true"),
    ]
    for a in ("d", "n"):
        for b in ("d", "n"):
            facts.append(Clause(Struct(LUB, (a, b, demand_join(a, b))), "true"))
    return facts


def prim_facts() -> list[Clause]:
    """Demand propagation of strict flat primitives (+, <, ...).

    Any non-null demand on the result forces full evaluation of both
    integer arguments (flat domain: d and e coincide on the arguments).
    """
    facts = [
        Clause(Struct(SP_PRIM, ("e", "e", "e")), "true"),
        Clause(Struct(SP_PRIM, ("d", "e", "e")), "true"),
        Clause(Struct(SP_PRIM, ("n", fresh_var(), fresh_var())), "true"),
    ]
    return facts


def sp_constructor_clauses(cname: str, arity: int) -> list[Clause]:
    """Demand propagation of a constructor application (paper: sp_cons).

    ``e`` demand on ``C(...)`` places ``e`` on every component; ``d``
    and ``n`` demands place no demand (most general answers).
    """
    name = sp_name(cname)
    clauses = [Clause(Struct(name, ("e", *("e",) * arity)), "true")]
    for demand in ("d", "n"):
        args = (demand, *(fresh_var() for _ in range(arity)))
        clauses.append(Clause(Struct(name, args), "true"))
    return clauses


def pm_constructor_clauses(
    cname: str, arity: int, max_enum: int = 6, encoding: str = "compact"
) -> list[Clause]:
    """Pattern-extent table of a constructor (paper: pm_cons).

    ``pm$c(E, A1, ..., Ak)``: matching pattern ``c(p1...pk)`` whose
    sub-extents are the ``Ai`` gives the position extent ``E = e`` iff
    every ``Ai = e``, else ``E = d`` (the match itself always evaluates
    to a constructor, hence at least head-normal form).

    ``encoding="compact"`` (default) emits the 2k+1 most-general facts
    with the same success set — the all-e row plus, per position, one
    fact pinning that position to ``d`` (resp. ``n``) and leaving the
    rest free.  ``"enumerated"`` emits the full 3^k rows (ablation),
    with a linear recursive fallback above ``max_enum``.
    """
    name = pm_name(cname)
    if arity == 0:
        return [Clause(Struct(name, ("e",)), "true")]
    if encoding == "compact":
        clauses = [Clause(Struct(name, ("e", *("e",) * arity)), "true")]
        for position in range(arity):
            for demand in ("d", "n"):
                args = [fresh_var() for _ in range(arity)]
                args[position] = demand
                clauses.append(Clause(Struct(name, ("d", *args)), "true"))
        return clauses
    if arity <= max_enum:
        clauses = []
        for combo in product(DEMANDS, repeat=arity):
            extent = "e" if all(c == "e" for c in combo) else "d"
            clauses.append(Clause(Struct(name, (extent, *combo)), "true"))
        return clauses
    # linear fallback for very wide constructors
    head_vars = [fresh_var(f"A{i}") for i in range(arity)]
    extent = fresh_var("E")
    head = Struct(name, (extent, *head_vars))
    body = Struct(PM_LIST, (extent, make_list(head_vars)))
    return [Clause(head, body)]


def pm_support_clauses() -> list[Clause]:
    """Shared helpers for the linear pm encoding."""
    clauses = [Clause(Struct(PM_LIST, ("e", "[]")), "true")]
    a, e1, e = fresh_var("A"), fresh_var("E1"), fresh_var("E")
    tail = fresh_var("As")
    head = Struct(PM_LIST, (e, Struct(".", (a, tail))))
    body = Struct(
        ",",
        (
            Struct(PM_DEM, (a,)),
            Struct(
                ",",
                (Struct(PM_LIST, (e1, tail)), Struct(PM_JOIN, (a, e1, e))),
            ),
        ),
    )
    clauses.append(Clause(head, body))
    for demand in DEMANDS:
        clauses.append(Clause(Struct(PM_DEM, (demand,)), "true"))
    for a_val in DEMANDS:
        for rest in ("e", "d"):
            extent = "e" if (a_val == "e" and rest == "e") else "d"
            clauses.append(Clause(Struct(PM_JOIN, (a_val, rest, extent)), "true"))
    return clauses


# ----------------------------------------------------------------------
# The Figure-3 compilation


class _EquationCompiler:
    def __init__(self):
        self.literals: list[Term] = []
        self.tau: dict[str, Term] = {}

    # demand flow through the rhs (top-down)
    def expr(self, expr, demand: Term) -> None:
        if isinstance(expr, EVar):
            # join demands of repeated occurrences *at the occurrence
            # site*: emitting the lub immediately keeps the previous
            # occurrence's demand variable from staying live across the
            # rest of the clause (important for supplementary tabling)
            accumulated = self.tau.get(expr.name)
            if accumulated is None:
                self.tau[expr.name] = demand
            else:
                joined = fresh_var()
                self.literals.append(Struct(LUB, (accumulated, demand, joined)))
                self.tau[expr.name] = joined
            return
        if isinstance(expr, (ELit, EBottom)):
            return
        if isinstance(expr, ECons):
            if not expr.args:
                return
            self._application(sp_name(expr.cname), expr.args, demand)
            return
        if isinstance(expr, ECall):
            self._application(sp_name(expr.fname), expr.args, demand)
            return
        if isinstance(expr, EPrim):
            self._application(SP_PRIM, expr.args, demand)
            return
        raise TypeError(f"cannot compile {expr!r}")

    def _application(self, pname: str, args: tuple, demand: Term) -> None:
        arg_demands = [fresh_var() for _ in args]
        self.literals.append(Struct(pname, (demand, *arg_demands)))
        for sub, sub_demand in zip(args, arg_demands):
            self.expr(sub, sub_demand)

    # extent flow through the lhs patterns (bottom-up)
    def pattern(self, pattern) -> Term:
        if isinstance(pattern, PVar):
            tau = self.tau.get(pattern.name)
            if tau is None:
                tau = fresh_var(f"T{pattern.name}")
                self.tau[pattern.name] = tau
            return tau
        if isinstance(pattern, PLit):
            return "e"  # a matched literal is already in normal form
        assert isinstance(pattern, PCons)
        subs = tuple(self.pattern(p) for p in pattern.args)
        extent = fresh_var()
        self.literals.append(Struct(pm_name(pattern.cname), (extent, *subs)))
        return extent


def strictness_program(
    program: FunProgram, max_enum: int = 6, encoding: str = "compact"
) -> tuple[Program, list[tuple[str, int]]]:
    """Compile a functional program into its demand-propagation program.

    Returns the logic program (all ``sp$f`` predicates tabled) and the
    list of source functions.
    """
    out = Program()
    functions = program.functions()
    used_sp_constructors: set[tuple[str, int]] = set()
    used_pm_constructors: set[tuple[str, int]] = set()
    uses_prim = False
    needs_pm_support = False

    for fname, arity in functions:
        out.tabled.add((sp_name(fname), arity + 1))
        for equation in program.equations_for(fname, arity):
            compiler = _EquationCompiler()
            demand = fresh_var("D")
            compiler.expr(equation.rhs, demand)
            head_args = tuple(compiler.pattern(p) for p in equation.patterns)
            head = Struct(sp_name(fname), (demand, *head_args))
            body = conjunction(compiler.literals)
            out.add_clause(Clause(head, body, {}, equation.line))
            # track support tables needed
            for literal in compiler.literals:
                if isinstance(literal, Struct):
                    if literal.functor == SP_PRIM:
                        uses_prim = True
                    elif literal.functor.startswith(SP_PREFIX):
                        base = literal.functor[len(SP_PREFIX) :]
                        if base in program.constructors:
                            used_sp_constructors.add((base, literal.arity - 1))
                    elif literal.functor.startswith(PM_PREFIX) and literal.functor not in (
                        PM_LIST,
                        PM_JOIN,
                        PM_DEM,
                    ):
                        base = literal.functor[len(PM_PREFIX) :]
                        used_pm_constructors.add((base, literal.arity - 1))
        # the n-demand clause: non-strict contexts place no demand
        blanks = tuple(fresh_var() for _ in range(arity))
        out.add_clause(Clause(Struct(sp_name(fname), ("n", *blanks)), "true"))

    for cname, arity in sorted(used_sp_constructors):
        out.add_clauses(sp_constructor_clauses(cname, arity))
    for cname, arity in sorted(used_pm_constructors):
        clauses = pm_constructor_clauses(cname, arity, max_enum, encoding)
        out.add_clauses(clauses)
        if encoding != "compact" and arity > max_enum:
            needs_pm_support = True
    if needs_pm_support:
        out.add_clauses(pm_support_clauses())
    if uses_prim:
        out.add_clauses(prim_facts())
    out.add_clauses(lub_facts())  # 9 facts; needed for non-linear rhs
    return out, functions


# ----------------------------------------------------------------------
# Driver and collection


@dataclass
class FunctionStrictness:
    """Strictness of one function under e- and d- output demands."""

    name: str
    arity: int
    demand_e: tuple  # guaranteed demand per argument when output demand is e
    demand_d: tuple  # ... when output demand is d

    def is_strict(self, index: int) -> bool:
        """Classic strictness: argument needed whenever the result is."""
        return _RANK[self.demand_d[index]] >= _RANK["d"]

    def is_ee_strict(self, index: int) -> bool:
        """NF demand on the result forces NF evaluation of the argument."""
        return self.demand_e[index] == "e"

    def describe(self) -> str:
        pairs = ", ".join(
            f"arg{i + 1}: e->{self.demand_e[i]}, d->{self.demand_d[i]}"
            for i in range(self.arity)
        )
        return f"{self.name}/{self.arity} [{pairs}]"


@dataclass
class StrictnessResult(AnalysisResult):
    """``completeness`` names the degradation stage that produced the
    result (``"exact"``, ``"widened"`` or ``"top"``); degraded results
    only *weaken* demands (toward ``n``), so they stay sound."""

    functions: dict[tuple[str, int], FunctionStrictness]
    abstract: Program | None = None

    def __getitem__(self, key: tuple[str, int]) -> FunctionStrictness:
        return self.functions[key]


def analyze_strictness(
    program: FunProgram,
    compiled: bool = False,
    scheduling: str = "lifo",
    keep_abstract: bool = False,
    max_enum: int = 6,
    encoding: str = "compact",
    supplementary: bool = True,
    budget=None,
    governor=None,
    fault=None,
    degrade: bool = True,
    widen_threshold: int = 8,
) -> StrictnessResult:
    """Full strictness pipeline: compile, evaluate tabled, collect.

    ``supplementary`` applies supplementary tabling (paper section 4.2)
    to the generated clauses — tabling intermediate joins to eliminate
    the existentially quantified demand variables; without it, deeply
    nested equations (pcprove!) backtrack multiplicatively.

    Anytime mode: under a ``budget``/``governor``, a budget trip with
    ``degrade=True`` retries with in-table widening to ⊤ and finally
    bails to the all-``n`` (no claim) result, which is trivially sound.
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
    with obs.maybe_span("analysis.strictness.preprocess"):
        abstract, functions = strictness_program(program, max_enum, encoding)
        if supplementary:
            from repro.magic.supptab import supplementary_tables

            abstract = supplementary_tables(abstract)
        from repro.engine.clausedb import ClauseDB

        db = ClauseDB(abstract, compiled=compiled)
    t1 = time.perf_counter()

    def evaluate(stage_gov, answer_join=None):
        # Answer subsumption collapses the overlapping most-general
        # answers of the compact encoding (an XSB-style engine option;
        # section 6.2).  Early completion is sound here because only
        # *answer* tables are read out — call-pattern side effects are
        # not part of the result.
        engine = TabledEngine(
            db,
            scheduling=scheduling,
            answer_subsumption=True,
            early_completion=True,
            governor=stage_gov,
            answer_join=answer_join,
        )
        queries: dict[tuple[str, int, str], Term] = {}
        for fname, arity in functions:
            for demand in ("e", "d"):
                goal = Struct(
                    sp_name(fname), (demand, *(fresh_var() for _ in range(arity)))
                )
                queries[(fname, arity, demand)] = goal
                engine.solve(goal)
        return engine, queries

    ladder = run_ladder("strictness", [
        Stage("exact", evaluate),
        Stage("widened", partial(evaluate, answer_join=top_widening_join(
            widen_threshold, metric="analysis.strictness.widenings"))),
    ], governor_for(budget, governor, fault), degrade)
    engine, queries = ladder.value or (None, None)
    t2 = time.perf_counter()

    results: dict[tuple[str, int], FunctionStrictness] = {}
    table_completeness: dict = {}
    for fname, arity in functions:
        if engine is None:
            # all-top: no demand claims at all (``n`` everywhere)
            results[(fname, arity)] = FunctionStrictness(
                fname, arity, ("n",) * arity, ("n",) * arity
            )
            table_completeness[(fname, arity)] = False
            continue
        per_demand = {}
        complete = True
        for demand in ("e", "d"):
            table = engine.table_for(queries[(fname, arity, demand)])
            answers = table.answers if table is not None else []
            complete = complete and table is not None and table.complete
            per_demand[demand] = _meet_answers(answers, arity)
        results[(fname, arity)] = FunctionStrictness(
            fname, arity, per_demand["e"], per_demand["d"]
        )
        table_completeness[(fname, arity)] = complete
    t3 = time.perf_counter()

    result = StrictnessResult(
        functions=results,
        times={
            "preprocess": t1 - t0,
            "analysis": t2 - t1,
            "collection": t3 - t2,
        },
        table_space=0 if engine is None else engine.table_space_bytes(),
        stats={} if engine is None else engine.stats.as_dict(),
        abstract=abstract if keep_abstract else None,
        completeness=ladder.completeness,
        events=ladder.events,
        table_completeness=table_completeness,
    )
    publish_run("strictness", result)
    return result


def _meet_answers(answers, arity: int) -> tuple:
    """Per-argument demand meet over a table's answers (unbound -> n)."""
    if not answers:
        # no successful propagation: the function never yields a value
        # under this demand, so any claim is vacuously safe
        return tuple("e" for _ in range(arity))
    meets = ["e"] * arity
    for answer in answers:
        assert isinstance(answer, Struct)
        for i, arg in enumerate(answer.args[1:]):
            value = arg if isinstance(arg, str) else "n"  # unbound -> n
            meets[i] = demand_meet(meets[i], value)
    return tuple(meets)
