"""Output checks: each workload's results against independent computations.

Every check returns a list of problems (empty when the result is
right), so a self-test can feed it a deliberately wrong result and see
it rejected.  The references are independent of the code path being
measured:

* groundness — the GAIA stand-in (:mod:`repro.baselines.gaia`), a
  separate BDD abstract interpreter with its own fixpoint;
* strictness — the call-by-need interpreter of :mod:`repro.funlang`
  (a claimed-strict argument must be forced) and the enumerated
  encoding's demands, stored in ``reference/strictness-enumerated.json``
  by ``make_reference.py``;
* depth-k — concrete SLD runs of the source program: every answer must
  be an instance of some abstract shape;
* serve — an in-process lint of the same text outside the daemon, and
  whole-program lint with no summary store.
"""

from __future__ import annotations

import random

from repro.terms.term import Struct, Var, term_depth

# ----------------------------------------------------------------------
# groundness-t1


def check_groundness(program, result, gaia, independent) -> list[str]:
    """``result``: entry-directed run; ``gaia``: GAIA stand-in with call
    patterns; ``independent``: the tabled run with ``entries=[]``."""
    problems = []
    if result.completeness != "exact" or not all(result.table_completeness.values()):
        problems.append(f"not exact: {result.completeness}")
    for indicator in program.predicates():
        label = f"{indicator[0]}/{indicator[1]}"
        mine, ref = result.predicates[indicator], gaia.predicates[indicator]
        if not mine.success <= ref.success:
            problems.append(f"{label}: success does not entail GAIA's")
        for index, ground in enumerate(ref.ground_at_call):
            if ground and not mine.ground_at_call[index]:
                problems.append(f"{label}: arg {index + 1} ground at call in GAIA only")
        if independent.predicates[indicator].success != ref.success:
            problems.append(f"{label}: goal-independent success differs from GAIA")
    return problems


# ----------------------------------------------------------------------
# strictness-t3

#: interpreter fuel per probe call, and probe calls per strict argument
PROBE_FUEL = 5000
PROBES_PER_ARGUMENT = 4


def strictness_demands(result) -> dict:
    return {
        f"{name}/{arity}": [list(fn.demand_e), list(fn.demand_d)]
        for (name, arity), fn in sorted(result.functions.items())
    }


def _probe_values(program, rng: random.Random) -> list:
    """Argument expressions built from the program's constructors."""
    from repro.funlang.ast import ECons, ELit

    leaves = [ELit(0), ELit(1), ELit(2)] + [
        ECons(name, ()) for name, arity in sorted(program.constructors.items())
        if arity == 0
    ]
    values = list(leaves)
    for name, arity in sorted(program.constructors.items()):
        if arity:
            values.append(ECons(name, tuple(rng.choice(leaves) for _ in range(arity))))
            # a second level, so list/tree-consuming equations see a spine
            inner = values[-1]
            values.append(ECons(name, tuple(
                inner if rng.random() < 0.5 else rng.choice(leaves)
                for _ in range(arity)
            )))
    return values


def probe_strictness(program, result, seed: int) -> tuple[list[str], dict]:
    """Call each function with ⊥ in every argument it claims d-strict.

    Evaluating the call to weak head normal form must force ⊥
    (:class:`~repro.funlang.interp.Divergence`).  A call that returns a
    value refutes the claim.  Calls that stop on a pattern-match
    failure, a type error or the fuel limit decide nothing and are
    counted as inconclusive.
    """
    from repro.funlang.interp import Divergence, LazyInterpreter, Thunk
    from repro.runtime.budget import FuelExhausted

    rng = random.Random(seed)
    values = _probe_values(program, rng)
    problems = []
    counts = {"forced": 0, "inconclusive": 0}
    for (name, arity), fn in sorted(result.functions.items()):
        for index in range(arity):
            if not fn.is_strict(index):
                continue
            for _ in range(PROBES_PER_ARGUMENT):
                thunks = tuple(
                    Thunk.bottom() if position == index
                    else Thunk(rng.choice(values), {})
                    for position in range(arity)
                )
                interp = LazyInterpreter(program, fuel=PROBE_FUEL)
                try:
                    interp.call(name, thunks)
                except Divergence:
                    counts["forced"] += 1
                    continue
                except (ValueError, TypeError, KeyError, FuelExhausted,
                        RecursionError):
                    counts["inconclusive"] += 1
                    continue
                problems.append(
                    f"{name}/{arity}: returned a value with ⊥ in strict arg {index + 1}"
                )
    return problems, counts


def check_strictness(program, result, reference: dict, seed: int) -> tuple[list[str], dict]:
    problems = []
    if result.completeness != "exact" or not all(result.table_completeness.values()):
        problems.append(f"not exact: {result.completeness}")
    demands = strictness_demands(result)
    if demands != reference:
        differing = sorted(
            key for key in set(demands) | set(reference)
            if demands.get(key) != reference.get(key)
        )
        problems.append(f"demands differ from the enumerated encoding: {differing}")
    probe_problems, counts = probe_strictness(program, result, seed)
    return problems + probe_problems, counts


# ----------------------------------------------------------------------
# depthk-t4

#: SLD resolution steps per concrete call, and answers kept per call
SLD_STEPS = 400
SLD_ANSWERS = 8


def covers(shape, term, gamma: str, bindings: dict) -> bool:
    """One-way matching: is ``term`` an instance of the abstract ``shape``?

    Shape variables bind to subterms of ``term`` (consistently); the
    term's own variables are rigid.  ``gamma`` in the shape stands for
    every ground term.  Written here, not taken from the program, so
    that the check does not share the code it checks.
    """
    if isinstance(shape, Var):
        bound = bindings.get(shape.id)
        if bound is None:
            bindings[shape.id] = term
            return True
        return bound == term
    if shape == gamma:
        return _ground(term)
    if isinstance(shape, Struct):
        return (
            isinstance(term, Struct)
            and term.functor == shape.functor
            and len(term.args) == len(shape.args)
            and all(covers(s, t, gamma, bindings) for s, t in zip(shape.args, term.args))
        )
    return shape == term


def _ground(term) -> bool:
    if isinstance(term, Var):
        return False
    if isinstance(term, Struct):
        return all(_ground(arg) for arg in term.args)
    return True


def _ground_terms(program) -> list:
    """Constants of the program, in a fixed order: the stand-ins for γ."""
    atoms, ints = set(), set()
    stack = []
    for indicator in program.predicates():
        for clause in program.clauses_for(indicator):
            stack.extend([clause.head, clause.body])
    while stack:
        term = stack.pop()
        if isinstance(term, Struct):
            stack.extend(term.args)
        elif isinstance(term, str) and term not in ("true", "!", "[]"):
            atoms.add(term)
        elif isinstance(term, int):
            ints.add(term)
    return sorted(atoms)[:3] + sorted(ints)[:2] + ["[]"]


def _concretise(term, gamma: str, pool: list, counter: list):
    if term == gamma:
        counter[0] += 1
        return pool[counter[0] % len(pool)]
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(
            _concretise(arg, gamma, pool, counter) for arg in term.args
        ))
    return term


def check_depthk(program, result, depth: int) -> tuple[list[str], dict]:
    """Exactness, depth bound, and SLD answers covered by the shapes."""
    from repro.core.depthk import GAMMA
    from repro.engine.builtins import PrologError
    from repro.engine.sld import SLDEngine

    problems = []
    if result.completeness != "exact" or not all(result.table_completeness.values()):
        problems.append(f"not exact or incomplete tables: {result.completeness}")
    pool = _ground_terms(program)
    counts = {"calls": 0, "answers": 0, "uncovered": 0}
    uncovered = []
    for indicator, shapes in sorted(result.predicates.items()):
        name, arity = indicator
        for answer in shapes.answers:
            if isinstance(answer, Struct) and any(
                term_depth(arg) > depth for arg in answer.args
            ):
                problems.append(f"{name}/{arity}: shape deeper than {depth}")
        for variant, call in enumerate(shapes.call_patterns):
            args = call.args if isinstance(call, Struct) else ()
            goal_args = _concretise(Struct("g", args), GAMMA, pool, [variant]).args if args else ()
            goal = Struct(name, goal_args) if goal_args else name
            counts["calls"] += 1
            engine = SLDEngine(program, max_steps=SLD_STEPS, unknown="fail")
            found = []
            try:
                for subst in engine.solve(goal):
                    found.append(subst.resolve(goal))
                    if len(found) >= SLD_ANSWERS:
                        break
            except (PrologError, RecursionError):
                pass  # step budget or an unsupported builtin: keep what was found
            for concrete in found:
                counts["answers"] += 1
                concrete_args = concrete.args if isinstance(concrete, Struct) else ()
                if not any(
                    covers(Struct("s", shape.args), Struct("s", concrete_args), GAMMA, {})
                    if isinstance(shape, Struct) else not concrete_args
                    for shape in shapes.answers
                ):
                    counts["uncovered"] += 1
                    uncovered.append(f"{name}/{arity}")
    counts["uncovered_in"] = sorted(set(uncovered))
    if uncovered:
        problems.append(
            f"{counts['uncovered']} SLD answers covered by no shape, in "
            f"{counts['uncovered_in']}"
        )
    return problems, counts
