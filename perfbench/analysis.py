"""The three paper-table workloads: one pass analyses a whole corpus.

Each program of a pass is one *unit*: parse the source afresh, run the
analysis through its public entry point, keep the result.  The gauge
samples around every unit (and ticks inside it), so each unit gets a
host-normalised duration.  A run repeats whole passes until the
requested time is used up; the first pass's results are checked
against the independent references in :mod:`checks`, and every later
pass must reproduce them exactly.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import checks

REFERENCE = Path(__file__).parent / "reference" / "strictness-enumerated.json"
DEPTH = 2
#: predicates whose depth-k answers the `match` fault drops today
KNOWN_MATCH_FAULT = {"member_config/2", "member_state/2"}


class AnalysisWorkload:
    """A corpus, how to parse and analyse one program, and how to check it."""

    #: the ``repro`` language of the corpus: "prolog" or "funlang"
    language = "prolog"
    #: modules the analysis and its checks load
    modules: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.names = self.corpus()
        self.sources = [self.source(name) for name in self.names]
        # module loading belongs to set-up, not to the first measured unit
        for module in self.modules:
            importlib.import_module(module)

    # -- the program under test ----------------------------------------
    def parse(self, text):
        if self.language == "prolog":
            import repro.prolog.program as prolog

            return prolog.load_program(text)
        import repro.funlang.parser as funlang

        return funlang.parse_fun_program(text)

    def source(self, name: str) -> str:
        from repro.benchdata import loader

        if self.language == "prolog":
            return loader.prolog_benchmark_source(name)
        return loader.funlang_benchmark_source(name)

    def unit(self, index: int):
        """Parse and analyse one program: the timed operation."""
        program = self.parse(self.sources[index])
        return program, self.analyse(program)

    # -- per workload --------------------------------------------------
    def corpus(self) -> list[str]:
        raise NotImplementedError

    def analyse(self, program):
        raise NotImplementedError

    def digest(self, result):
        """What a later pass must reproduce (no timings, no variable names)."""
        raise NotImplementedError

    def check(self, name: str, program, result) -> tuple[list[str], dict]:
        raise NotImplementedError

    def known_fault(self, problems: list[str], counts: dict) -> bool:
        """Whether a failed check is a known, recorded fault of the program."""
        return False


class GroundnessT1(AnalysisWorkload):
    """Table 1: entry-directed Prop groundness, BDD backend, 12 programs."""

    modules = ("repro.core.groundness", "repro.bdd.propfn", "repro.prolog.program")

    def corpus(self):
        from repro.benchdata.loader import prolog_benchmark_names

        return prolog_benchmark_names()

    def analyse(self, program):
        from repro.core.groundness import analyze_groundness

        return analyze_groundness(program, prop_backend="bdd")

    def digest(self, result):
        return (result.completeness, tuple(
            (indicator, info.formula(), info.ground_at_call,
             tuple(sorted(map(repr, info.call_patterns))))
            for indicator, info in sorted(result.predicates.items())
        ))

    def check(self, name, program, result):
        from repro.baselines.gaia import analyze_gaia
        from repro.core.groundness import analyze_groundness

        gaia = analyze_gaia(program, prop_backend="bdd")
        independent = analyze_groundness(program, entries=[], prop_backend="bdd")
        problems = checks.check_groundness(program, result, gaia, independent)
        return problems, {"predicates": len(program.predicates())}


class StrictnessT3(AnalysisWorkload):
    """Table 3: strictness with the compact encoding and supplementary tables."""

    language = "funlang"
    modules = ("repro.core.strictness", "repro.magic.supptab", "repro.funlang.parser")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reference: dict = {}
        with open(REFERENCE, encoding="utf-8") as handle:
            for key, demands in json.load(handle).items():
                name, function = key.split(":", 1)
                self.reference.setdefault(name, {})[function] = demands

    def corpus(self):
        from repro.benchdata.loader import funlang_benchmark_names

        return funlang_benchmark_names()

    def analyse(self, program):
        from repro.core.strictness import analyze_strictness

        return analyze_strictness(program)

    def digest(self, result):
        return (result.completeness, json.dumps(checks.strictness_demands(result)))

    def check(self, name, program, result):
        return checks.check_strictness(
            program, result, self.reference[name], self.seed
        )


class DepthkT4(AnalysisWorkload):
    """Table 4: depth-2 term-shape analysis of the Table 4 subset, less read.

    One pass of read takes 55-100 s here, 99% of the table; its runs
    alone would use most of the benchmark's time budget, so the read
    target needs a measurement of its own.
    """

    modules = ("repro.core.depthk", "repro.prolog.program")

    def corpus(self):
        from repro.benchdata.loader import PAPER_TABLE4

        return sorted(name for name in PAPER_TABLE4 if name != "read")

    def analyse(self, program):
        from repro.core.depthk import analyze_depthk

        return analyze_depthk(program, depth=DEPTH)

    def digest(self, result):
        from repro.terms.variant import variant_key

        return (result.completeness, tuple(
            (indicator, tuple(sorted(repr(variant_key(a)) for a in shapes.answers)))
            for indicator, shapes in sorted(result.predicates.items())
        ))

    def check(self, name, program, result):
        return checks.check_depthk(program, result, DEPTH)

    def known_fault(self, problems, counts):
        # `match` in terms/unify.py binds term variables, so answer
        # subsumption drops answers of these two predicates (CHANGES.md)
        return len(problems) == 1 and set(counts["uncovered_in"]) <= KNOWN_MATCH_FAULT


WORKLOADS = {
    "groundness-t1": GroundnessT1,
    "strictness-t3": StrictnessT3,
    "depthk-t4": DepthkT4,
}
