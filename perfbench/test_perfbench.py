"""Self-tests of the benchmark: its checks reject wrong results, and its
generator is a function of the seed.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import analysis  # noqa: E402
import checks  # noqa: E402
import gauge  # noqa: E402
import serve_edits  # noqa: E402
from corpus import generate  # noqa: E402
from repro.terms.term import Struct, Var  # noqa: E402


def _first_pass(workload_class, name):
    workload = workload_class(seed=1)
    index = workload.names.index(name)
    program, result = workload.unit(index)
    return workload, program, result


def test_groundness_check_rejects_a_flipped_ground_bit():
    workload, program, result = _first_pass(analysis.GroundnessT1, "qsort")
    assert workload.check("qsort", program, result)[0] == []
    from repro.baselines.gaia import analyze_gaia

    gaia = analyze_gaia(program, prop_backend="bdd")
    indicator, index = next(
        (ind, i)
        for ind, info in gaia.predicates.items()
        for i, ground in enumerate(info.ground_at_call)
        if ground
    )
    info = result.predicates[indicator]
    flipped = list(info.ground_at_call)
    flipped[index] = False
    result.predicates[indicator] = dataclasses.replace(
        info, call_patterns=[tuple(None if i == index else p for i, p in enumerate(pat))
                             for pat in info.call_patterns]
    )
    assert result.predicates[indicator].ground_at_call == tuple(flipped)
    problems, _ = workload.check("qsort", program, result)
    assert any("ground at call in GAIA only" in p for p in problems)


def test_strictness_check_rejects_an_extra_strict_claim():
    workload, program, result = _first_pass(analysis.StrictnessT3, "quicksort")
    assert workload.check("quicksort", program, result)[0] == []
    key, fn, index = next(
        (key, fn, i)
        for key, fn in sorted(result.functions.items())
        for i, demand in enumerate(fn.demand_d)
        if demand == "n"
    )
    demand_d = list(fn.demand_d)
    demand_d[index] = "d"
    result.functions[key] = dataclasses.replace(fn, demand_d=tuple(demand_d))
    problems, _ = workload.check("quicksort", program, result)
    assert any("enumerated encoding" in p for p in problems)


def test_depthk_check_rejects_a_dropped_shape():
    workload, program, result = _first_pass(analysis.DepthkT4, "qsort")
    problems, counts = workload.check("qsort", program, result)
    assert problems == [] and counts["answers"] > 0
    # depth-k shape sets overlap, so drop a predicate's shapes one by one
    # until the last one that covers its concrete answers goes
    indicator = max(result.predicates, key=lambda ind: len(result.predicates[ind].answers))
    shapes = result.predicates[indicator]
    for keep in range(len(shapes.answers) - 1, -1, -1):
        result.predicates[indicator] = dataclasses.replace(
            shapes, answers=shapes.answers[:keep])
        problems, counts = workload.check("qsort", program, result)
        if counts["uncovered"]:
            break
    assert counts["uncovered"] and not workload.known_fault(problems, counts)


def test_depthk_matching_is_one_way():
    # the case `repro.terms.unify.match` gets wrong: the shape's X is bound
    # to the term's C, so the second C must be the same variable
    x, t, c, y, t2 = (Var(i) for i in (-1, -2, -3, -4, -5))
    shape = Struct("m", (x, Struct(".", (x, t))))
    term = Struct("m", (c, Struct(".", (y, Struct(".", (c, t2))))))
    assert not checks.covers(shape, term, "$gamma", {})
    assert checks.covers(shape, Struct("m", (c, Struct(".", (c, t2)))), "$gamma", {})
    assert checks.covers(Struct("p", ("$gamma",)), Struct("p", (Struct("f", (1,)),)), "$gamma", {})
    assert not checks.covers(Struct("p", ("$gamma",)), Struct("p", (Struct("f", (y,)),)), "$gamma", {})


def test_serve_check_rejects_a_stale_cached_reply(tmp_path):
    from repro.analysis.cli import lint_payload

    files = tmp_path / "files"
    files.mkdir()
    path = str(files / "a.pl")
    old = "p(X) :- q(X).\nq(a).\n"
    new = "p(X) :- q(X).\nq(a).\nr(X) :- q(X), s(X).\n"
    (files / "a.pl").write_text(old)
    stale = lint_payload(path, None)
    (files / "a.pl").write_text(new)
    fresh = lint_payload(path, None)
    assert serve_edits.diagnostics(stale) != serve_edits.diagnostics(fresh)
    client = SimpleNamespace(
        files=str(files),
        run=SimpleNamespace(seed=1),
        exchanges=[
            ("cold", path, old, False, {"ok": True, "cached": False, "payload": stale}, 0.0, 0.0),
            ("driver", path, new, False, {"ok": True, "cached": False, "payload": fresh}, 0.0, 0.0),
        ],
    )
    assert serve_edits.check_replies(client) == []
    client.exchanges.append(
        ("driver", path, new, False, {"ok": True, "cached": True, "payload": stale}, 0.0, 0.0)
    )
    problems = serve_edits.check_replies(client)
    assert any("cached=True, expected False" in p for p in problems)
    assert any("diagnostics differ" in p for p in problems)


def test_generator_is_a_function_of_the_seed():
    def stream_texts(seed, rounds=3):
        corpus = generate.make_corpus(seed)
        stream = generate.Stream(seed)
        texts = [corpus.render(i) for i in range(generate.FILES)]
        for _ in range(rounds):
            for request in stream.next_round():
                generate.apply(corpus, request)
                texts.append((request.kind, corpus.render(request.file)))
        return texts

    assert stream_texts(3) == stream_texts(3)
    assert stream_texts(3) != stream_texts(4)


def test_every_round_has_the_same_mix():
    stream = generate.Stream(5)
    for _ in range(4):
        kinds = [request.kind for request in stream.next_round()]
        assert {kind: kinds.count(kind) for kind in generate.ROUND} == generate.ROUND


def test_rename_keeps_clauses_up_to_variables():
    from repro.prolog.program import load_program
    from repro.serve.cache import fingerprint_program

    corpus = generate.make_corpus(2)
    before = corpus.render(0)
    generate.apply(corpus, generate.Request(0, "rename"))
    after = corpus.render(0)
    assert before != after
    assert (fingerprint_program(load_program(before)).whole
            == fingerprint_program(load_program(after)).whole)


def test_normalise_scales_gaps_by_measured_speed():
    speed = gauge.SpeedGauge()
    nominal = gauge.NOMINAL_KERNEL_S
    # three samples; the host runs at half speed, then at nominal speed
    speed.samples = [(0.0, 0.1, 2 * nominal), (1.1, 1.2, 2 * nominal), (2.2, 2.3, nominal)]
    work, normalised = speed.normalise(0, 2)
    assert abs(work - 2.0) < 1e-9
    assert abs(normalised - (1.0 / 2 + 1.0 / 1.5)) < 1e-9


def test_tree_cpu_counts_threads_and_children():
    import subprocess
    import threading
    import time

    def spin(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    before = gauge.tree_cpu_seconds()
    worker = threading.Thread(target=spin, args=(0.2,))
    worker.start()
    worker.join()
    # a finished thread's CPU time still counts
    assert gauge.tree_cpu_seconds() - before >= 0.19
    child = subprocess.Popen([sys.executable, "-c", (
        "import sys, time\n"
        "end = time.thread_time() + 0.2\n"
        "while time.thread_time() < end: pass\n"
        "sys.stdin.read()\n")], stdin=subprocess.PIPE)
    try:
        time.sleep(0.1)
        deadline = time.monotonic() + 10
        while gauge.tree_cpu_seconds(child.pid) < 0.2 and time.monotonic() < deadline:
            time.sleep(0.05)
        middle = gauge.tree_cpu_seconds()
        assert middle - before >= 0.39  # the live child is counted
    finally:
        child.communicate(b"")
    # once waited for, the child's time stays counted (in clock ticks)
    assert gauge.tree_cpu_seconds() >= middle - 0.02


def test_requests_per_s_weights_every_kind_alike():
    def exchange(kind, seconds):
        return [kind, "", "", False, {}, seconds, seconds]

    stream = [exchange("resubmit", 0.002), exchange("driver", 0.02),
              exchange("lib-cutoff-leaf", 0.01), exchange("lib-cutoff-top", 0.03)]
    assert serve_edits.kind_rates(stream) == {
        "resubmit": 500.0, "driver": 50.0, "lib-cutoff": 50.0}
    # more requests of one kind do not move its rate
    assert serve_edits.kind_rates(stream + [exchange("resubmit", 0.002)]) == \
        serve_edits.kind_rates(stream)
