"""Predicate dependency graph with Tarjan SCC condensation.

The graph the whole subsystem hangs off: one node per predicate
indicator, one edge ``p -> q`` when a clause of ``p`` calls ``q``.
Edges remember the *call sites* that induced them (clause index, source
line, polarity), so lint rules can report precise locations and the
stratification check can tell a benign cycle from a negative one.

Tarjan's algorithm yields the strongly connected components in reverse
topological order of the condensation — callees before callers — which
is exactly the evaluation order the SCC-guided bottom-up engine wants
(:mod:`repro.engine.bottomup`) and the order the magic transformation
uses to prune query-irrelevant predicates (:mod:`repro.magic.magic`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.builtins import is_builtin
from repro.prolog.program import Indicator, Program
from repro.terms.term import Struct, Term, Var
from repro.terms.variant import clause_key

#: control constructs handled by walking into their argument goals
_NEGATION = {("\\+", 1), ("not", 1)}
_TRANSPARENT = {(",", 2), (";", 2), ("->", 2)}
#: all-solutions builtins: argument 1 is a goal, bindings do not escape
_GOAL_ARG1 = {("findall", 3), ("bagof", 3), ("setof", 3)}


@dataclass(frozen=True)
class CallSite:
    """One body occurrence of a callable literal."""

    caller: Indicator
    callee: Indicator | None  # None: dynamic goal (variable under call/N)
    negative: bool
    clause_index: int
    line: int
    goal: Term = field(compare=False, hash=False, default=None)


class DependencyGraph:
    """Call graph over predicate indicators, with SCC condensation."""

    def __init__(self, program: Program):
        self.program = program
        self.nodes: set[Indicator] = set(program.predicates())
        self.succ: dict[Indicator, set[Indicator]] = {}
        self.neg_succ: dict[Indicator, set[Indicator]] = {}
        self.call_sites: list[CallSite] = []
        self._sccs: list[list[Indicator]] | None = None
        for indicator in program.predicates():
            self.succ.setdefault(indicator, set())
            for index, clause in enumerate(program.clauses_for(indicator)):
                for site in body_call_sites(clause.body, indicator, index, clause.line):
                    self.call_sites.append(site)
                    if site.callee is None or is_builtin(site.callee):
                        continue
                    self.nodes.add(site.callee)
                    self.succ.setdefault(site.callee, set())
                    self.succ[indicator].add(site.callee)
                    if site.negative:
                        self.neg_succ.setdefault(indicator, set()).add(site.callee)

    # ------------------------------------------------------------------
    def successors(self, indicator: Indicator) -> set[Indicator]:
        return self.succ.get(indicator, set())

    def defined(self, indicator: Indicator) -> bool:
        return bool(self.program.clauses_for(indicator))

    def sccs(self) -> list[list[Indicator]]:
        """Strongly connected components, callees before callers.

        Tarjan emits each component only after everything it can reach,
        so evaluating components in this order sees every dependency
        already complete (a topological order of the condensation,
        reversed).
        """
        if self._sccs is None:
            self._sccs = _tarjan(sorted(self.nodes), self.succ)
        return self._sccs

    def scc_index(self) -> dict[Indicator, int]:
        """Predicate -> position of its component in :meth:`sccs`."""
        return {
            node: position
            for position, component in enumerate(self.sccs())
            for node in component
        }

    def is_recursive(self, component: list[Indicator]) -> bool:
        """True for multi-predicate components and direct self-loops."""
        if len(component) > 1:
            return True
        node = component[0]
        return node in self.succ.get(node, ())

    def condensation_edges(self) -> dict[int, set[int]]:
        """Edges between SCC indices (caller component -> callee)."""
        index = self.scc_index()
        edges: dict[int, set[int]] = {i: set() for i in range(len(self.sccs()))}
        for node, targets in self.succ.items():
            for target in targets:
                if index[node] != index[target]:
                    edges[index[node]].add(index[target])
        return edges

    def reachable(self, roots) -> set[Indicator]:
        """All predicates reachable from ``roots`` (roots included)."""
        seen: set[Indicator] = set()
        stack = [r for r in roots]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.succ.get(node, ()))
        return seen


def build_dependency_graph(program: Program) -> DependencyGraph:
    """Build the predicate call graph of ``program``."""
    return DependencyGraph(program)


def component_clause_keys(program: Program, component) -> tuple:
    """The clause fingerprints of one component.

    One :func:`~repro.terms.variant.clause_key` per clause, predicates
    in sorted order, so renaming variables or moving predicates around
    leaves the fingerprints unchanged.  The summary store keys
    components by them (:func:`repro.analysis.summaries.component_key`).
    """
    return tuple(
        clause_key(clause)
        for indicator in sorted(component)
        for clause in program.clauses_for(indicator)
    )


def prune_unreachable(program: Program, query: Term) -> Program:
    """Program restricted to predicates the query's call graph reaches.

    Used by the magic transformations: predicates the query cannot reach
    contribute nothing to the rewritten program, so dropping them up
    front keeps adornment and the generated magic rules proportional to
    the relevant slice.  Returns ``program`` itself when nothing can be
    dropped.
    """
    root = _goal_indicator(query)
    if root is None:
        return program
    graph = DependencyGraph(program)
    keep = graph.reachable([root])
    if all(indicator in keep for indicator in program.predicates()):
        return program
    pruned = Program()
    pruned.order = [ind for ind in program.order if ind in keep]
    pruned.clauses = {ind: list(program.clauses[ind]) for ind in pruned.order}
    pruned.tabled = {ind for ind in program.tabled if ind in keep}
    pruned.table_all = program.table_all
    pruned.directives = list(program.directives)
    pruned.source_lines = program.source_lines
    return pruned


# ----------------------------------------------------------------------
# Body traversal


def body_call_sites(
    body: Term, caller: Indicator, clause_index: int, line: int
) -> list[CallSite]:
    """The call sites of one clause body, control constructs interpreted."""
    return list(_walk_goal(body, caller, clause_index, line, False))


def _goal_indicator(goal: Term) -> Indicator | None:
    if isinstance(goal, Struct):
        return goal.indicator
    if isinstance(goal, str):
        return (goal, 0)
    return None


def _walk_goal(goal: Term, caller: Indicator, clause_index: int, line: int,
               negative: bool):
    """Yield the :class:`CallSite` list of one body goal."""
    if isinstance(goal, Var):
        yield CallSite(caller, None, negative, clause_index, line, goal)
        return
    indicator = _goal_indicator(goal)
    if indicator is None:  # integer etc. — ill-formed, surfaced by safety lint
        return
    name, arity = indicator
    if indicator in _TRANSPARENT:
        for arg in goal.args:
            yield from _walk_goal(arg, caller, clause_index, line, negative)
        return
    if indicator in _NEGATION:
        yield from _walk_goal(goal.args[0], caller, clause_index, line, True)
        return
    if indicator in _GOAL_ARG1:
        yield from _walk_goal(goal.args[1], caller, clause_index, line, negative)
        return
    if name == "call" and arity >= 1:
        target = goal.args[0]
        if isinstance(target, Var):
            yield CallSite(caller, None, negative, clause_index, line, goal)
            return
        if arity > 1:
            if isinstance(target, str):
                target = Struct(target, tuple(goal.args[1:]))
            elif isinstance(target, Struct):
                target = Struct(target.functor, target.args + tuple(goal.args[1:]))
        yield from _walk_goal(target, caller, clause_index, line, negative)
        return
    if name in ("true", "fail", "false", "!", "otherwise") and arity == 0:
        return
    yield CallSite(caller, indicator, negative, clause_index, line, goal)


# ----------------------------------------------------------------------
# Tarjan's strongly connected components (iterative)


def _tarjan(nodes, succ) -> list[list[Indicator]]:
    index_of: dict[Indicator, int] = {}
    lowlink: dict[Indicator, int] = {}
    on_stack: set[Indicator] = set()
    stack: list[Indicator] = []
    components: list[list[Indicator]] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        # explicit DFS machine: (node, iterator over successors)
        work = [(root, iter(sorted(succ.get(root, ()))))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for target in successors:
                if target not in index_of:
                    index_of[target] = lowlink[target] = counter[0]
                    counter[0] += 1
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(sorted(succ.get(target, ())))))
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.reverse()
                components.append(component)
    return components
