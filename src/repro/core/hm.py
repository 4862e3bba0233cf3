"""Hindley-Milner type analysis of the functional language (section 6.1).

The paper's "Constraints" discussion observes that Hindley-Milner type
inference is the solution of *nonrecursive type equations over equality
constraints*, needing no tabling — only unification **with the occur
check**.  This module implements exactly that on top of
:func:`repro.terms.unify.unify` with ``occur_check=True``.

Types are first-order terms:

* ``int`` and ``bool`` atoms;
* ``adt$<group>(p1, ..., pn)`` for algebraic data.  Datatype *groups*
  are reconstructed from the program (no declarations in the language):
  constructors are unioned when they appear in the same argument
  position of the same function or as alternative results of one
  function's equations.  Each constructor field gets its own type
  parameter slot, giving the free-est polynomial datatype consistent
  with the grouping.

Functions are generalized per equation group (let-polymorphism;
recursion is monomorphic within the group, as in standard HM).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    PRIM_COMPARISONS,
)
from repro.terms.subst import EMPTY_SUBST, Subst
from repro.terms.term import Struct, Term, Var, fresh_var, term_to_str
from repro.terms.unify import unify
from repro.terms.variant import canonical

INT = "int"
BOOL = "bool"


class TypeInferenceError(Exception):
    """Unification failure during inference."""


def _unify_rational(t1: Term, t2: Term, subst: Subst) -> Subst | None:
    """Unification over rational trees: no occur check, loop-safe."""
    visited: set[tuple[int, int]] = set()
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = subst.walk(a)
        b = subst.walk(b)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.id == a.id:
                continue
            subst = subst.bind(a, b)
        elif isinstance(b, Var):
            subst = subst.bind(b, a)
        elif isinstance(a, Struct):
            if (
                not isinstance(b, Struct)
                or a.functor != b.functor
                or len(a.args) != len(b.args)
            ):
                return None
            pair = (id(a), id(b))
            if pair in visited:
                continue
            visited.add(pair)
            stack.extend(zip(a.args, b.args))
        else:
            if a != b:
                return None
    return subst


# ----------------------------------------------------------------------
# Datatype reconstruction


class _Groups:
    """Union-find over constructor names -> datatype groups."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, name: str) -> str:
        self.parent.setdefault(name, name)
        root = name
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[name] != root:
            self.parent[name], name = root, self.parent[name]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class DatatypeInfo:
    """One reconstructed datatype: its constructors and field slots."""

    group: str
    constructors: dict[str, int]  # name -> arity
    field_slot: dict[tuple[str, int], int]  # (constructor, field) -> param

    @property
    def nparams(self) -> int:
        return len(self.field_slot)


def reconstruct_datatypes(program: FunProgram) -> dict[str, DatatypeInfo]:
    """Group constructors into datatypes; returns name -> info."""
    groups = _Groups()
    for cname in program.constructors:
        groups.find(cname)
    # constructors matched at the same argument position of one function
    for (fname, arity), equations in program.equations.items():
        for position in range(arity):
            first = None
            for equation in equations:
                pattern = equation.patterns[position]
                if isinstance(pattern, PCons):
                    if first is None:
                        first = pattern.cname
                    else:
                        groups.union(first, pattern.cname)
        # constructors appearing as alternative results
        first = None
        for equation in equations:
            if isinstance(equation.rhs, ECons):
                if first is None:
                    first = equation.rhs.cname
                else:
                    groups.union(first, equation.rhs.cname)
    # nested pattern positions: sub-patterns of the same constructor field
    for equations in program.equations.values():
        for equation in equations:
            for pattern in equation.patterns:
                _union_nested(pattern, groups)

    members: dict[str, dict[str, int]] = {}
    for cname, arity in program.constructors.items():
        members.setdefault(groups.find(cname), {})[cname] = arity
    infos: dict[str, DatatypeInfo] = {}
    for group, constructors in members.items():
        field_slot: dict[tuple[str, int], int] = {}
        for cname in sorted(constructors):
            for position in range(constructors[cname]):
                field_slot[(cname, position)] = len(field_slot)
        info = DatatypeInfo(group, constructors, field_slot)
        for cname in constructors:
            infos[cname] = info
    return infos


def _union_nested(pattern, groups: _Groups) -> None:
    if isinstance(pattern, PCons):
        for sub in pattern.args:
            _union_nested(sub, groups)


# ----------------------------------------------------------------------
# Inference proper


class _MutSubst(Subst):
    """A mutable substitution for single-threaded monotone inference.

    The engine needs persistence (suspended consumers share bindings);
    HM inference does not, and a persistent substitution's flattening
    copies (every few unifications, of every binding so far) grow
    quadratic on big programs.  ``bind`` mutates in place and returns
    ``self``, which every caller here treats as the extended subst.
    """

    def bind(self, var, value):
        self._bindings[var.id] = value
        return self


class _Inferencer:
    def __init__(self, program: FunProgram):
        self.program = program
        self.datatypes = reconstruct_datatypes(program)
        self.subst: Subst = _MutSubst()
        # function name/arity -> type: fn(arg types..., result)
        self.signatures: dict[tuple[str, int], Term] = {}

    # -- helpers --------------------------------------------------------
    def fail(self, message: str):
        raise TypeInferenceError(message)

    def unify(self, t1: Term, t2: Term, context: str) -> None:
        # Datatypes are *reconstructed* (the language has no data
        # declarations), so their recursion shows up as rational-tree
        # bindings: unification here is rational-tree unification
        # (OCaml's -rectypes regime) — no occur check, plus a
        # visited-pair set so cyclic types unify in finite time.  The
        # paper's occur-check point is exercised by the depth-k
        # abstract unification and by tests/test_hm.py.
        extended = _unify_rational(t1, t2, self.subst)
        if extended is None:
            self.fail(
                f"{context}: cannot unify "
                f"{self.render(t1)} with {self.render(t2)}"
            )
        self.subst = extended

    def render(self, t: Term, limit: int = 40) -> str:
        """Cycle-safe rendering: recursive positions print as ``rec``.

        Completed subtrees are memoized so shared DAGs render in linear
        time; nodes on the current path render as ``rec``.
        """
        on_path: set[int] = set()
        done: dict[int, str] = {}

        def go(term: Term, depth: int) -> str:
            term = self.subst.walk(term)
            if isinstance(term, Var):
                return term.display()
            if isinstance(term, Struct):
                cached = done.get(id(term))
                if cached is not None:
                    return cached
                if id(term) in on_path or depth > limit:
                    return "rec"
                on_path.add(id(term))
                inner = ",".join(go(a, depth + 1) for a in term.args)
                on_path.discard(id(term))
                text = f"{term.functor}({inner})"
                done[id(term)] = text
                return text
            return str(term)

        return go(t, 0)

    def constructor_type(self, cname: str) -> tuple[list[Term], Term]:
        """(fresh field types, fresh result type) of a constructor."""
        info = self.datatypes[cname]
        if "True" in info.constructors or "False" in info.constructors:
            # the builtin Bool type, produced by comparison primitives
            if info.constructors[cname]:
                self.fail(f"constructor {cname} mixes with Bool but has fields")
            return [], BOOL
        params = [fresh_var() for _ in range(info.nparams)]
        result = (
            Struct(f"adt${info.group}", tuple(params))
            if params
            else f"adt${info.group}"
        )
        arity = info.constructors[cname]
        fields = [params[info.field_slot[(cname, i)]] for i in range(arity)]
        return fields, result

    def signature(self, fname: str, arity: int) -> Term:
        sig = self.signatures.get((fname, arity))
        if sig is None:
            sig = Struct("fn", (*(fresh_var() for _ in range(arity)), fresh_var()))
            self.signatures[(fname, arity)] = sig
        return sig

    def instantiated_signature(self, fname: str, arity: int, generalized: set) -> Term:
        """Fresh instance if the function is already generalized.

        Copying must preserve rational-tree structure: every cycle
        passes through a bound variable, so a variable-id memo keeps
        the copy finite and re-ties the knot with fresh bindings.
        """
        sig = self.signature(fname, arity)
        if (fname, arity) not in generalized:
            return sig
        memo: dict[int, Var] = {}
        struct_memo: dict[int, Term] = {}  # preserve DAG sharing

        def copy(term: Term) -> Term:
            if isinstance(term, Var):
                cached = memo.get(term.id)
                if cached is not None:
                    return cached
                fresh = fresh_var()
                memo[term.id] = fresh
                value = self.subst.lookup(term)
                if value is not None:
                    # copy() first: it may extend self.subst, and the
                    # bind must land on the extended substitution
                    copied = copy(value)
                    self.subst = self.subst.bind(fresh, copied)
                return fresh
            if isinstance(term, Struct):
                cached = struct_memo.get(id(term))
                if cached is not None:
                    return cached
                copied = Struct(term.functor, tuple(copy(a) for a in term.args))
                struct_memo[id(term)] = copied
                return copied
            return term

        return copy(sig)

    # -- patterns and expressions ---------------------------------------
    def pattern(self, pattern, env: dict, generalized: set) -> Term:
        if isinstance(pattern, PVar):
            t = fresh_var()
            env[pattern.name] = t
            return t
        if isinstance(pattern, PLit):
            return INT
        assert isinstance(pattern, PCons)
        fields, result = self.constructor_type(pattern.cname)
        for sub, field_type in zip(pattern.args, fields):
            sub_type = self.pattern(sub, env, generalized)
            self.unify(sub_type, field_type, f"pattern {pattern.cname}")
        return result

    def expr(self, expr, env: dict, generalized: set) -> Term:
        if isinstance(expr, ELit):
            return INT
        if isinstance(expr, EBottom):
            return fresh_var()
        if isinstance(expr, EVar):
            t = env.get(expr.name)
            if t is None:
                self.fail(f"unbound variable {expr.name}")
            return t
        if isinstance(expr, EPrim):
            for arg in expr.args:
                self.unify(self.expr(arg, env, generalized), INT, f"primitive {expr.op}")
            return BOOL if expr.op in PRIM_COMPARISONS else INT
        if isinstance(expr, ECons):
            fields, result = self.constructor_type(expr.cname)
            for sub, field_type in zip(expr.args, fields):
                self.unify(
                    self.expr(sub, env, generalized),
                    field_type,
                    f"constructor {expr.cname}",
                )
            return result
        assert isinstance(expr, ECall)
        arity = len(expr.args)
        if not self.program.defines(expr.fname, arity):
            self.fail(f"undefined function {expr.fname}/{arity}")
        sig = self.instantiated_signature(expr.fname, arity, generalized)
        assert isinstance(sig, Struct)
        for sub, arg_type in zip(expr.args, sig.args[:-1]):
            self.unify(
                self.expr(sub, env, generalized), arg_type, f"call {expr.fname}"
            )
        return sig.args[-1]

    # -- driver ----------------------------------------------------------
    def run(self) -> dict[tuple[str, int], str]:
        generalized: set = set()
        for component in self._scc_order():
            for fname, arity in component:
                sig = self.signature(fname, arity)
                assert isinstance(sig, Struct)
                for equation in self.program.equations_for(fname, arity):
                    env: dict = {}
                    for pattern, arg_type in zip(equation.patterns, sig.args[:-1]):
                        self.unify(
                            self.pattern(pattern, env, generalized),
                            arg_type,
                            f"{fname}: pattern",
                        )
                    rhs_type = self.expr(equation.rhs, env, generalized)
                    self.unify(rhs_type, sig.args[-1], f"{fname}: result")
            generalized.update(component)
        return {key: self.render(sig) for key, sig in self.signatures.items()}

    def _scc_order(self) -> list[list[tuple[str, int]]]:
        """Strongly connected components of the call graph, callees first.

        Generalizing each SCC before its callers gives standard
        let-polymorphism with monomorphic recursion inside an SCC.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for key in self.program.functions():
            graph.add_node(key)
        for key in self.program.functions():
            for equation in self.program.equations_for(*key):
                for callee in _calls_of(equation.rhs):
                    if self.program.defines(*callee):
                        graph.add_edge(key, callee)
        condensation = nx.condensation(graph)
        order = list(nx.topological_sort(condensation))
        order.reverse()  # callees before callers
        return [condensation.nodes[n]["members"] for n in order]


def _calls_of(expr) -> list[tuple[str, int]]:
    calls: list[tuple[str, int]] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ECall):
            calls.append((node.fname, len(node.args)))
        if isinstance(node, (ECall, ECons, EPrim)):
            stack.extend(node.args)
    return calls


def infer_program(program: FunProgram) -> dict[tuple[str, int], str]:
    """Infer a type for every function (rendered strings, ``fn(args..., result)``).

    Raises :class:`TypeInferenceError` on clashes.
    """
    return _Inferencer(program).run()
