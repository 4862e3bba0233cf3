"""Corpus fan-out, the metrics fold across processes, the key memo.

``map_corpus`` payloads and merged metrics must be independent of the
process count, the ``--jobs`` CLI path must emit byte-identical output,
and ``MetricsRegistry.merge_snapshot`` must fold every instrument kind.
The ``variant_key`` ground-term memo must never cache a key that
depends on variables or on a substitution.  A stratified program's
bottom-up evaluation must come out the same in any worker process.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.engine.bottomup import BottomUpEngine, UnstratifiedProgramError
from repro.obs import Observer
from repro.obs.registry import MetricsRegistry
from repro.parallel import map_corpus, resolve_jobs
from repro.prolog import load_program
from repro.terms import variant_key
from repro.terms.subst import EMPTY_SUBST
from repro.terms.term import Struct, fresh_var

# ----------------------------------------------------------------------
# variant_key memoization (ground-term caching)


def test_variant_key_caches_ground_structs():
    term = Struct("f", (Struct("g", ("a",)), 3))
    key = variant_key(term)
    assert term._vkey == key
    assert term.args[0]._vkey == ("s", "g", (("a", "a"),))
    # the cached key equals a fresh structurally-equal term's key
    assert variant_key(Struct("f", (Struct("g", ("a",)), 3))) == key


def test_variant_key_never_caches_var_containing_terms():
    x = fresh_var()
    inner = Struct("g", (x,))
    term = Struct("f", (x, inner))
    key = variant_key(term)
    assert key == ("s", "f", (("v", 0), ("s", "g", (("v", 0),))))
    assert term._vkey is None and inner._vkey is None
    # repeated-variable structure is still distinguished from fresh vars
    y, z = fresh_var(), fresh_var()
    assert variant_key(Struct("f", (y, Struct("g", (z,))))) != key


def test_variant_key_substitution_bound_var_is_not_cached():
    """A var bound to a ground term must not poison the cache: the key
    is substitution-dependent even though the *walked* tree is ground."""
    x = fresh_var()
    term = Struct("f", (x,))
    subst = EMPTY_SUBST.bind(x, "a")
    assert variant_key(term, subst) == variant_key(Struct("f", ("a",)))
    assert term._vkey is None
    # under the empty substitution the same term keys as open again
    assert variant_key(term) == ("s", "f", (("v", 0),))


# ----------------------------------------------------------------------
# Corpus fan-out


def corpus_paths(tmp_path):
    clean = tmp_path / "clean.pl"
    clean.write_text("p(1).\np(2).\nq(X) :- p(X).\n")
    buggy = tmp_path / "buggy.pl"
    buggy.write_text("r(X) :- missing(X).\n")
    broken = tmp_path / "broken.pl"
    broken.write_text("p(1 :- .\n")
    return [str(clean), str(buggy), str(broken)]


def strip_timings(payload):
    if payload is None:
        return None
    return {k: v for k, v in payload.items() if k != "timings"}


@pytest.mark.parametrize("task", ["lint", "groundness", "depthk"])
def test_map_corpus_payloads_independent_of_jobs(task, tmp_path):
    paths = corpus_paths(tmp_path)[:2]  # parseable files for the analyses
    serial = map_corpus(paths, task=task, jobs=1)
    fanned = map_corpus(paths, task=task, jobs=2)
    assert [r.path for r in serial] == [r.path for r in fanned] == paths
    for a, b in zip(serial, fanned):
        assert a.error == b.error
        assert strip_timings(a.payload) == strip_timings(b.payload)


def test_map_corpus_captures_worker_errors(tmp_path):
    bad = tmp_path / "missing_dir" / "nope.pl"
    results = map_corpus([str(bad)], task="groundness", jobs=1)
    assert not results[0].ok
    assert "FileNotFoundError" in results[0].error


#: app/3 is the entry; nothing calls wrap/2
UNREACHED = str(Path(__file__).parent / "data" / "unreached.pl")


def test_groundness_task_claims_nothing_about_an_unreached_predicate():
    [result] = map_corpus([UNREACHED], task="groundness", jobs=1)
    predicates = result.payload["predicates"]
    assert predicates["wrap/2"] == {
        "reached": False,
        "ground_on_success": [False, False],
        "ground_at_call": [False, False],
        "answers": 0,
    }
    assert predicates["app/3"]["reached"]
    assert predicates["app/3"]["ground_on_success"] == [True, True, True]


def test_map_corpus_merged_metrics_equal_serial(tmp_path):
    paths = corpus_paths(tmp_path)[:2]
    observers = {}
    for jobs in (1, 2):
        observers[jobs] = Observer()
        map_corpus(paths, task="lint", jobs=jobs, observer=observers[jobs])
    counters = {
        jobs: {n: c.value for n, c in obs.registry.counters.items()}
        for jobs, obs in observers.items()
    }
    assert counters[1] == counters[2]
    assert counters[1]["parallel.corpus.files"] == 2
    assert counters[1]["lint.runs"] == 2
    # timers: same observation counts (durations legitimately differ)
    timer_counts = {
        jobs: {n: t.count for n, t in obs.registry.timers.items()}
        for jobs, obs in observers.items()
    }
    assert timer_counts[1] == timer_counts[2]


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_resolve_jobs_clamps_to_corpus_size():
    assert resolve_jobs(8, limit=2) == 2
    assert resolve_jobs(None, limit=1) == 1
    assert resolve_jobs(0, limit=3) <= 3
    assert resolve_jobs(2, limit=0) == 1  # empty corpus still gets a worker
    assert resolve_jobs(2, limit=5) == 2  # a small request is not inflated


@pytest.mark.parametrize("bad", [2.5, "2", True, [2]])
def test_resolve_jobs_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="integer process count"):
        resolve_jobs(bad)


def four_files_with_a_killer(tmp_path):
    paths = []
    for name in ("a.pl", "killer.pl", "b.pl", "c.pl"):
        path = tmp_path / name
        path.write_text("p(1).\nq(X) :- p(X).\n")
        paths.append(str(path))
    return paths, {"inject": {paths[1]: {"kind": "abort"}}}


def test_map_corpus_survives_hard_worker_death(tmp_path):
    """A worker dying mid-sweep (os._exit / OOM kill) must not sink it.

    The killer file is reported as its own per-file error; the other
    files' results are those of a clean run.
    """
    paths, options = four_files_with_a_killer(tmp_path)

    results = map_corpus(paths, task="groundness", jobs=2, options=options)

    assert [r.path for r in results] == paths  # order preserved
    assert [r.ok for r in results] == [True, False, True, True]
    assert "WorkerCrashed" in results[1].error
    clean = map_corpus([paths[0]], task="groundness", jobs=1)
    assert strip_timings(results[0].payload) == strip_timings(clean[0].payload)


def test_map_corpus_worker_death_costs_only_its_file(tmp_path):
    """The killer file is retried once on the respawned worker and then
    reported; no other file is re-run, so the pool respawns exactly
    twice, both times for the killer."""
    paths, options = four_files_with_a_killer(tmp_path)
    observer = Observer()

    results = map_corpus(paths, task="groundness", jobs=2, options=options,
                         observer=observer)

    assert [r.path for r in results] == paths
    assert [r.error is None for r in results] == [True, False, True, True]
    assert results[1].error.startswith("WorkerCrashed: ")
    counters = {n: c.value for n, c in observer.registry.counters.items()}
    assert counters["serve.pool.respawns"] == 2
    assert counters["parallel.corpus.errors"] == 1
    assert counters["parallel.corpus.files"] == 4


def test_map_corpus_counts_every_death_under_thread_switching(tmp_path):
    """Four submitting threads (more than the cores CI has) replace dead
    workers concurrently; with a tiny switch interval a lost update of
    the respawn count would show as fewer than two deaths per file."""
    paths = []
    for index in range(8):
        path = tmp_path / f"k{index}.pl"
        path.write_text("p(1).\n")
        paths.append(str(path))
    options = {"inject": {path: {"kind": "abort"} for path in paths}}
    observer = Observer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = map_corpus(paths, task="groundness", jobs=4,
                             options=options, observer=observer)
    finally:
        sys.setswitchinterval(interval)
    assert [r.path for r in results] == paths
    assert all(r.error.startswith("WorkerCrashed: ") for r in results)
    assert observer.registry.counter("serve.pool.respawns").value == 16


def test_cli_jobs_rejects_non_integer_with_clear_message(tmp_path, capsys):
    path = tmp_path / "p.pl"
    path.write_text("p(1).\n")
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(path), "--jobs", "two"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "expected an integer process count, got 'two'" in err
    with pytest.raises(SystemExit):
        lint_main([str(path), "--jobs", "-3"])
    assert "process count" in capsys.readouterr().err


def test_cli_jobs_over_corpus_size_matches_serial(tmp_path):
    import io

    paths = corpus_paths(tmp_path)[:2]
    outputs = {}
    for jobs in ("1", "64"):  # 64 workers for 2 files: clamped, identical
        out = io.StringIO()
        code = lint_main(paths + ["--summary", "--jobs", jobs], out=out)
        outputs[jobs] = (code, out.getvalue())
    assert outputs["1"] == outputs["64"]


def test_map_corpus_rejects_unknown_task(tmp_path):
    with pytest.raises(ValueError, match="unknown corpus task"):
        map_corpus([], task="frobnicate")


def test_cli_jobs_output_and_exit_code_match_serial(tmp_path):
    import io

    paths = corpus_paths(tmp_path)[:2]
    outputs = {}
    for argv in (paths + ["--summary"], paths + ["--summary", "--jobs", "2"]):
        out = io.StringIO()
        code = lint_main(argv, out=out)
        outputs[tuple(argv)] = (code, out.getvalue())
    (serial, fanned) = outputs.values()
    assert serial == fanned
    assert serial[0] == 1  # buggy.pl has an undefined-call error


def test_cli_jobs_fatal_file_matches_serial(tmp_path):
    import io

    paths = corpus_paths(tmp_path)  # includes the syntax-error file
    results = {}
    for jobs in ("1", "2"):
        out = io.StringIO()
        code = lint_main(paths + ["--jobs", jobs], out=out)
        results[jobs] = (code, out.getvalue())
    assert results["1"] == results["2"]
    assert results["1"][0] == 2  # EXIT_USAGE on the unparseable file
    assert "syntax error" in results["1"][1]


#: two corpus files whose lints each keep a worker busy for seconds
SLOW_LINTS = ("press1.pl", "press2.pl")


def _group_members(pgid: int) -> dict:
    """Live (non-zombie) members of process group ``pgid``: pid -> CPU
    seconds used so far."""
    ticks = os.sysconf("SC_CLK_TCK")
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # after the command name: state ppid pgrp ... utime(11) stime(12)
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members[int(entry)] = (int(fields[11]) + int(fields[12])) / ticks
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process groups from /proc")
def test_cli_jobs_interrupt_is_reported_by_the_supervisor_alone(tmp_path):
    """A terminal's Ctrl-C reaches the whole process group: the busy
    workers must ignore it, the supervisor alone reports it, and no
    member of the group outlives the interrupt by 5 s."""
    bench = REPO_ROOT / "src" / "repro" / "benchdata" / "prolog"
    stderr_path = tmp_path / "stderr.txt"
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.lint",
             *(str(bench / name) for name in SLOW_LINTS), "--jobs", "2"],
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            start_new_session=True,
        )
    try:
        # both workers are busy once each has spent CPU time on its file
        deadline = time.monotonic() + 60.0
        while True:
            workers = _group_members(proc.pid)
            workers.pop(proc.pid, None)
            if len(workers) == 2 and min(workers.values()) >= 0.3:
                break
            assert proc.poll() is None, "the lint ended before its workers ran"
            assert time.monotonic() < deadline, "the workers never got busy"
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        deadline = time.monotonic() + 5.0
        while _group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _group_members(proc.pid), "the group outlived the interrupt"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    assert stderr_path.read_text().count("KeyboardInterrupt") <= 1


# ----------------------------------------------------------------------
# MetricsRegistry.merge_snapshot (the process-boundary fold)


def test_merge_snapshot_folds_all_instrument_kinds():
    source = MetricsRegistry()
    source.counter("work.items").inc(5)
    source.gauge("work.depth").set(7)
    source.timer("work.seconds").observe(0.5)
    source.timer("work.seconds").observe(1.5)
    source.record_event("degradation", stage="exact")

    target = MetricsRegistry()
    target.counter("work.items").inc(2)
    target.timer("work.seconds").observe(3.0)
    target.merge_snapshot(source.snapshot())

    assert target.counter("work.items").value == 7
    assert target.gauge("work.depth").value == 7
    timer = target.timer("work.seconds")
    assert timer.count == 3
    assert timer.total == pytest.approx(5.0)
    assert timer.min == pytest.approx(0.5)
    assert timer.max == pytest.approx(3.0)
    assert target.events_of("degradation") == [
        {"kind": "degradation", "stage": "exact"}
    ]


def test_merge_snapshot_respects_event_bound():
    source = MetricsRegistry()
    for i in range(5):
        source.record_event("tick", i=i)
    target = MetricsRegistry(max_events=3)
    target.merge_snapshot(source.snapshot())
    assert len(target.events) == 3
    assert target.dropped_events == 2


# ----------------------------------------------------------------------
# Stratified programs: the same evaluation in every worker process


STRATIFIED_PROGRAMS = {
    "unreachable": """
        edge(a,b). edge(b,c). edge(c,d). edge(d,b). edge(e,f).
        node(a). node(b). node(c). node(d). node(e). node(f). node(g).
        reach(a).
        reach(Y) :- reach(X), edge(X,Y).
        unreachable(X) :- node(X), \\+ reach(X).
    """,
    # three strata with several independent components per stratum
    "three_strata": """
        p(1). p(2). p(3). q(2). q(4). r(3). r(5).
        s(X) :- p(X), \\+ q(X).
        t(X) :- p(X), \\+ r(X).
        u(X) :- p(X), \\+ s(X), \\+ t(X).
        v(X) :- q(X), \\+ p(X).
    """,
    # nested negation and a conjunction under \+
    "nested": """
        a(1). a(2). a(3). b(2). c(3).
        d(X) :- a(X), \\+ (b(X) ; c(X)).
        e(X) :- a(X), \\+ \\+ b(X).
        f(X) :- a(X), \\+ (b(X), \\+ c(X)).
    """,
}

UNSTRATIFIED = "move(a,b). move(b,a).\nwin(X) :- move(X,Y), \\+ win(Y)."

#: string-hash seeds of the worker interpreters; 0 turns hashing
#: randomization off, the others pick fixed randomized orders
WORKER_HASH_SEEDS = (0, 1, 2)

REPO_ROOT = Path(__file__).resolve().parent.parent


def stratified_fingerprint(source: str):
    """Stores, fact order and every work counter of one bottom-up
    evaluation, or the rule and predicates of its rejection."""
    engine = BottomUpEngine(load_program(source))
    try:
        engine.evaluate()
    except UnstratifiedProgramError as error:
        return (
            "rejected",
            error.rule,
            [diagnostic.predicate for diagnostic in error.diagnostics],
        )
    return (
        {
            indicator: [variant_key(fact) for fact in relation.facts]
            for indicator, relation in engine.relations.items()
        },
        engine.rounds,
        engine.rule_firings,
        engine.derivations,
        engine.scc_count,
        engine.neg_checks,
    )


def worker_fingerprint(source: str, hash_seed: int) -> str:
    """``repr`` of :func:`stratified_fingerprint` computed in a fresh
    interpreter with its own string-hash seed, as a spawned corpus
    worker would compute it."""
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "from tests.test_parallel import stratified_fingerprint\n"
            "print(repr(stratified_fingerprint(sys.stdin.read())))",
        ],
        input=source,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ,
             "PYTHONPATH": str(REPO_ROOT / "src"),
             "PYTHONHASHSEED": str(hash_seed)},
        timeout=60,
        check=True,
    )
    return completed.stdout.strip()


@pytest.mark.parametrize("name", sorted(STRATIFIED_PROGRAMS))
def test_stratified_workers_are_bit_for_bit_deterministic(name):
    """A ``\\+``-bearing program evaluates to the same stores, fact
    order and work counters (negation checks included) in this process
    and in worker processes with other string-hash seeds, so a corpus
    sweep's answers cannot depend on which worker ran the file."""
    serial = stratified_fingerprint(STRATIFIED_PROGRAMS[name])
    assert serial[0] != "rejected"
    for seed in WORKER_HASH_SEEDS:
        assert worker_fingerprint(STRATIFIED_PROGRAMS[name], seed) == repr(
            serial
        ), f"worker with PYTHONHASHSEED={seed} diverged on {name}"


def test_unstratified_program_rejected_any_worker_count():
    with pytest.raises(UnstratifiedProgramError, match="unstratified-negation"):
        BottomUpEngine(load_program(UNSTRATIFIED)).evaluate()
    serial = stratified_fingerprint(UNSTRATIFIED)
    assert serial[:2] == ("rejected", "unstratified-negation")
    assert serial[2]  # the offending predicates are named
    for seed in WORKER_HASH_SEEDS:
        assert worker_fingerprint(UNSTRATIFIED, seed) == repr(serial), (
            f"worker with PYTHONHASHSEED={seed} rejected differently"
        )
