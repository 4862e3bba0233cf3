"""Shape analysis with depth-k abstract terms (paper section 5).

Beyond yes/no groundness, the depth-k domain's answers are *abstract
terms* describing the shapes predicates compute: the gamma symbol
stands for "any ground term" and variables for "anything".  We analyze
a small interpreter-style program and print the inferred shapes.

Run:  python examples/depthk_shapes.py
"""

from repro.core.depthk import analyze_depthk
from repro.prolog import load_program

SOURCE = """
    :- entry_point(eval(g, any)).

    eval(lit(N), num(N)).
    eval(add(A, B), num(S)) :-
        eval(A, num(X)), eval(B, num(Y)), S is X + Y.
    eval(pair(A, B), tuple(VA, VB)) :-
        eval(A, VA), eval(B, VB).
    eval(fst(E), V) :- eval(E, tuple(V, _)).

    wrap(X, boxed(X)).
"""


def main() -> None:
    program = load_program(SOURCE)
    result = analyze_depthk(program, depth=3)

    for indicator, shapes in result.predicates.items():
        name, arity = indicator
        if not result.reached(shapes):
            # the entry goal never calls it, so no table was built
            print(f"{name}/{arity}: not reached")
            continue
        print(f"{name}/{arity}: ground on success = {shapes.ground_on_success}, "
              f"{len(shapes.answers)} shapes over "
              f"{len(shapes.call_patterns)} call patterns")
        for shape in sorted(shapes.shapes()):
            print("   answer shape:", shape)

    ev = result[("eval", 2)]
    # every result of eval on a ground expression is ground
    assert ev.ground_on_success == (True, True)
    # eval's call patterns share answers; each shape is listed once
    assert len(set(ev.shapes())) == len(ev.shapes())
    assert not result.reached(result[("wrap", 2)])
    # and the analysis knows results are num/tuple-shaped
    assert any("num(" in s for s in ev.shapes())
    assert any("tuple(" in s for s in ev.shapes())
    print("\neval/2 computes ground num(...)/tuple(...) shapes — inferred")
    print("without running the program, by tabled abstract evaluation.")


if __name__ == "__main__":
    main()
