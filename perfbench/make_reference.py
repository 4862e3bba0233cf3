"""Recompute the stored strictness reference: ``python3 perfbench/make_reference.py``.

The strictness workload checks the compact encoding's demands against
the enumerated encoding (``encoding="enumerated"``), an independent
abstract compilation of the same analysis.  The enumerated runs take
longer than a whole measured pass, so their demands are stored in
``reference/strictness-enumerated.json`` (one ``"program:function"``
entry per line: demands under output demand e, then d) and recomputed by this script
whenever the strictness analysis changes on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import strictness_demands  # noqa: E402
from repro.benchdata.loader import funlang_benchmark_names, load_funlang_benchmark  # noqa: E402
from repro.core.strictness import analyze_strictness  # noqa: E402


def main() -> int:
    reference = {}
    for name in funlang_benchmark_names():
        result = analyze_strictness(load_funlang_benchmark(name), encoding="enumerated")
        if result.completeness != "exact":
            print(f"{name}: enumerated run is {result.completeness}", file=sys.stderr)
            return 1
        reference[name] = strictness_demands(result)
    path = HERE / "reference" / "strictness-enumerated.json"
    lines = [
        f"  {json.dumps(f'{name}:{function}')}: {json.dumps(demands)}"
        for name, functions in sorted(reference.items())
        for function, demands in sorted(functions.items())
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
