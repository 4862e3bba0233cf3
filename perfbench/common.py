"""Workload and metric names, and small helpers shared by the workloads."""

from __future__ import annotations

import json
from pathlib import Path

#: where runs write their span files and scratch directories
OUT = Path(__file__).resolve().parent / "out"

#: the checkout's root; ``BENCHMARK.json`` there names the workloads
#: and metrics
ROOT = Path(__file__).resolve().parent.parent
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in _BENCHMARK["workloads"])
#: metric name -> unit; a run prints every one of them, per-layer
#: metrics 0 where the workload does not use the layer
END_TO_END = {metric["name"]: metric["unit"] for metric in _BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _BENCHMARK["per_layer"]}


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")
