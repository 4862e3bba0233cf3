"""Table 4 — groundness with depth-k term abstraction (section 5).

The paper runs the non-enumerative, abstract-term analysis on a
9-program subset of the Table 1 suite.  Shape claims: totals are
smaller than the Prop totals on most programs (the constraint
representation avoids the truth-table joins) while Read — whose answer
shapes are big — is the heaviest, and compile-time increases stay
below 100%.
"""

import pytest

from repro.benchdata import PAPER_TABLE4, prolog_benchmark_source
from repro.harness import depthk_row

TABLE4_PROGRAMS = sorted(PAPER_TABLE4)


@pytest.mark.table("4")
@pytest.mark.parametrize("name", TABLE4_PROGRAMS)
def test_table4_depthk(benchmark, bench_record, name):
    source = prolog_benchmark_source(name)

    def run():
        return depthk_row(name, source, depth=2)

    rounds = 1 if name == "read" else 2  # read's shape tables are large
    row, result = benchmark.pedantic(run, rounds=rounds, iterations=1)
    bench_record("4", row, result)
    benchmark.extra_info.update(
        {
            "lines": row.lines,
            "preprocess_ms": round(row.preprocess * 1000, 2),
            "analysis_ms": round(row.analysis * 1000, 2),
            "collection_ms": round(row.collection * 1000, 2),
            "compile_increase_pct": round(row.compile_increase_pct or 0, 1),
            "table_space_bytes": row.table_space,
            "paper_total_s": PAPER_TABLE4[name][3],
            "paper_space_bytes": PAPER_TABLE4[name][5],
        }
    )
    assert result.predicates
    # answers come only from tables: a predicate the entry goals do not
    # reach has neither
    for shapes in result.predicates.values():
        assert shapes.call_patterns or shapes.answers == []
