"""The daemon request path: protocol, cache keying, pool supervision.

The slow pieces (real worker processes) are concentrated in a
module-scoped daemon fixture; everything else — protocol validation,
fingerprinting, cache probing — is pure and fast.
"""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.parallel.corpus import TASKS
from repro.prolog.program import load_program
from repro.serve import (
    AnalysisDaemon,
    ResultCache,
    WorkerCorrupt,
    WorkerCrashed,
    WorkerFailure,
    WorkerHung,
    WorkerPool,
    check_reply,
    fingerprint_program,
    parse_request,
)
from repro.serve.protocol import ProtocolError, error_reply, ok_reply
from repro.serve.retry import RetryPolicy

QSORT = "src/repro/benchdata/prolog/qsort.pl"


# ----------------------------------------------------------------------
# Protocol


def test_parse_request_defaults_and_validation():
    request = parse_request({"task": "lint", "path": "p.pl"}, TASKS)
    assert request.id is None
    assert request.options == {}
    assert request.deadline > 0
    assert request.inject is None


@pytest.mark.parametrize(
    "data,code",
    [
        ("not a dict", "bad-request"),
        ({}, "bad-request"),
        ({"task": "lint"}, "bad-request"),
        ({"task": "lint", "path": ""}, "bad-request"),
        ({"task": "lint", "path": "p.pl", "options": 3}, "bad-request"),
        ({"task": "lint", "path": "p.pl", "deadline": 0}, "bad-request"),
        ({"task": "lint", "path": "p.pl", "deadline": True}, "bad-request"),
        ({"task": "lint", "path": "p.pl", "inject": "x"}, "bad-request"),
        ({"task": "frobnicate", "path": "p.pl"}, "unknown-task"),
    ],
)
def test_parse_request_rejections_carry_codes(data, code):
    with pytest.raises(ProtocolError) as excinfo:
        parse_request(data, TASKS)
    assert excinfo.value.code == code


def test_request_key_ignores_id_and_inject():
    base = {"task": "lint", "path": "p.pl", "options": {"a": [1, {"b": 2}]}}
    one = parse_request({**base, "id": 1}, TASKS)
    two = parse_request({**base, "id": 2, "inject": {"kind": "abort"}}, TASKS)
    assert one.key == two.key
    other = parse_request({**base, "options": {"a": [1]}}, TASKS)
    assert other.key != one.key


def test_check_reply_contract():
    assert check_reply(ok_reply(1, {"x": 1})) == "ok"
    assert check_reply(ok_reply(1, {"x": 1}, degraded=True)) == "degraded"
    assert check_reply(error_reply(1, "deadline", "too slow")) == "error"
    with pytest.raises(ProtocolError):
        check_reply({"ok": True})  # missing fields
    with pytest.raises(ProtocolError):
        check_reply(ok_reply(1, None))  # success without payload
    bad = error_reply(1, "deadline", "m")
    bad["error"]["code"] = "made-up"
    with pytest.raises(ProtocolError):
        check_reply(bad)


# ----------------------------------------------------------------------
# Fingerprinting and cache probing


def _program(text):
    return load_program(textwrap.dedent(text))


def test_fingerprint_is_a_variant_key_not_a_text_hash():
    one = _program("""
        p(X) :- q(X).
        q(a).
    """)
    renamed = _program("""
        p(Zed) :-  q(Zed).  % a comment, whitespace, renamed variables
        q(a).
    """)
    assert fingerprint_program(one).whole == fingerprint_program(renamed).whole
    changed = _program("""
        p(X) :- q(X).
        q(b).
    """)
    assert fingerprint_program(one).whole != fingerprint_program(changed).whole


def test_cache_probe_hit_miss_partial_and_eviction():
    cache = ResultCache(max_entries=2)
    program = _program("p(X) :- q(X).\nq(a).\nr(b).")
    probe = cache.probe(("lint", "f.pl", ()), program)
    assert not probe.hit
    cache.store(("lint", "f.pl", ()), probe, {"answer": 1})

    again = cache.probe(("lint", "f.pl", ()), program)
    assert again.hit and again.payload == {"answer": 1}

    edited = _program("p(X) :- q(X).\nq(a).\nr(c).")  # only r/1 changed
    assert not cache.probe(("lint", "f.pl", ()), edited).hit

    # eviction: two fresh keys push the oldest out
    for name in ("g.pl", "h.pl"):
        fresh = cache.probe(("lint", name, ()), program)
        cache.store(("lint", name, ()), fresh, {})
    assert len(cache) == 2
    assert not cache.probe(("lint", "f.pl", ()), program).hit


# ----------------------------------------------------------------------
# Worker pool supervision


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(size=2) as pool:
        yield pool


def test_pool_runs_a_task(pool):
    record = pool.submit(1, "depthk", QSORT, {}, deadline=30.0)
    assert record["error"] is None
    assert record["payload"]["completeness"] == "exact"
    assert record["metrics"]["counters"]


def test_pool_survives_worker_abort(pool):
    before = pool.respawns
    with pytest.raises(WorkerCrashed):
        pool.submit(2, "depthk", QSORT, {}, deadline=30.0,
                    inject={"kind": "abort"})
    assert pool.respawns == before + 1
    # the pool is immediately serviceable again
    record = pool.submit(3, "depthk", QSORT, {}, deadline=30.0)
    assert record["error"] is None


def test_pool_kills_hung_worker_at_deadline(pool):
    before = pool.respawns
    with pytest.raises(WorkerHung):
        pool.submit(4, "depthk", QSORT, {}, deadline=0.5,
                    inject={"kind": "hang", "seconds": 600})
    assert pool.respawns == before + 1
    record = pool.submit(5, "depthk", QSORT, {}, deadline=30.0)
    assert record["error"] is None


def test_pool_rejects_corrupt_reply(pool):
    before = pool.respawns
    with pytest.raises(WorkerCorrupt):
        pool.submit(6, "depthk", QSORT, {}, deadline=30.0,
                    inject={"kind": "corrupt"})
    assert pool.respawns == before + 1


def test_pool_submit_without_deadline_waits_for_the_reply(pool):
    record = pool.submit(8, "depthk", QSORT, {}, deadline=None)
    assert record["error"] is None
    assert record["payload"]["completeness"] == "exact"


def test_closing_the_pool_releases_a_submit_without_deadline():
    """One hung job holds the only worker and a second submit waits for
    a checkout without a deadline; closing the pool must end both."""
    import threading

    outcomes = []

    def submit(job_id):
        try:
            pool.submit(job_id, "depthk", QSORT, {}, deadline=None,
                        inject={"kind": "hang", "seconds": 600})
        except Exception as exc:  # noqa: BLE001 — the outcome under test
            outcomes.append(type(exc))

    pool = WorkerPool(size=1)
    threads = [threading.Thread(target=submit, args=(n,), daemon=True)
               for n in (1, 2)]
    for thread in threads:
        thread.start()
        time.sleep(0.3)
    pool.close()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(outcomes, key=lambda kind: kind.__name__) == [
        RuntimeError, WorkerCrashed,
    ]


def test_closing_the_pool_stops_busy_workers_together():
    """Three wedged workers share one grace period before the kill, so
    closing takes about a second, not a second per worker."""
    import threading

    pool = WorkerPool(size=3)
    workers = list(pool._workers)

    def submit(job_id):
        with contextlib.suppress(Exception):
            pool.submit(job_id, "depthk", QSORT, {}, deadline=None,
                        inject={"kind": "hang"})

    threads = [threading.Thread(target=submit, args=(n,), daemon=True)
               for n in range(3)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 30.0
    while not pool._idle.empty() and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.3)  # every checked-out worker has read its hang
    started = time.monotonic()
    pool.close()
    assert time.monotonic() - started < 2.0
    assert not any(worker.alive for worker in workers)
    for thread in threads:
        thread.join(timeout=30)


def test_two_threads_stopping_one_worker_release_it_once():
    """``close`` and a submitting thread that saw the kill can stop the
    same worker at once; neither may fail, and the worker ends reaped.

    A tiny switch interval makes the threads interleave inside ``stop``;
    without its lock the pipe is closed twice (``EBADF``) in most rounds.
    """
    import multiprocessing
    import threading

    from repro.serve.pool import _Worker

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    failures = []
    try:
        for _ in range(20):
            worker = _Worker(multiprocessing.get_context())
            barrier = threading.Barrier(2)
            errors = []

            def stop():
                barrier.wait()
                try:
                    worker.stop()
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=stop) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            stuck = any(thread.is_alive() for thread in threads)
            if errors or stuck or worker.alive:
                failures.append((errors, stuck, worker.alive))
    finally:
        sys.setswitchinterval(previous)
    assert failures == []


def test_workers_spawned_at_once_each_hold_only_their_own_pipe():
    """Threads replacing dead workers fork concurrently.  A worker forked
    while another's pipe was half set up would keep that pipe's child end
    open, so the other worker's death would never reach its supervisor
    as EOF, and a submit without a deadline would wait forever."""
    import multiprocessing
    import threading

    from repro.serve.pool import _Worker

    context = multiprocessing.get_context()
    workers = []
    lock = threading.Lock()

    def spawn():
        for _ in range(3):
            worker = _Worker(context)
            with lock:
                workers.append(worker)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=spawn) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    unseen = []
    try:
        for worker in workers:
            worker.process.kill()
            worker.process.join(timeout=5)
            if not worker.conn.poll(2.0):  # EOF is readable at once
                unseen.append(worker.id)
    finally:
        for worker in workers:
            worker.stop()
    assert len(workers) == 9 and unseen == []


def test_pool_reports_analysis_errors_as_records(pool):
    record = pool.submit(7, "depthk", "no-such-file.pl", {}, deadline=30.0)
    assert record["error"] is not None
    assert "FileNotFoundError" in record["error"]


#: builds a daemon, prints its worker pids, and dies without closing it
ORPHANING_DAEMON = """
import os
from repro.serve import AnalysisDaemon
daemon = AnalysisDaemon(pool_size=2)
print(*(worker.process.pid for worker in daemon.pool._workers), flush=True)
os._exit(0)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads worker states from /proc")
def test_workers_exit_when_daemon_dies_without_closing_pool(tmp_path):
    stdout = tmp_path / "stdout.txt"
    with open(stdout, "w") as sink:
        subprocess.run(
            [sys.executable, "-c", ORPHANING_DAEMON],
            stdout=sink,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
            timeout=60,
            check=True,
        )
    pids = [int(pid) for pid in stdout.read_text().split()]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)], (
            "serve workers outlived their daemon"
        )
    finally:
        for pid in pids:
            if _running(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# Daemon end to end


@pytest.fixture(scope="module")
def daemon():
    with AnalysisDaemon(pool_size=2, queue_limit=4,
                        retry=RetryPolicy(max_attempts=3, base=0.01,
                                          max_delay=0.1),
                        poison_threshold=2) as daemon:
        yield daemon


def test_daemon_serves_and_caches(daemon):
    first = daemon.handle({"id": 1, "task": "groundness", "path": QSORT,
                           "deadline": 30})
    assert check_reply(first) == "ok" and not first["cached"]
    second = daemon.handle({"id": 2, "task": "groundness", "path": QSORT,
                            "deadline": 30})
    assert check_reply(second) == "ok" and second["cached"]
    assert second["payload"] == first["payload"]
    assert daemon.cache.hits >= 1


APP = """\
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
"""


def _ground_at_call(reply) -> list:
    return reply["payload"]["predicates"]["app/3"]["ground_at_call"]


def test_daemon_misses_when_only_a_directive_changed(daemon, tmp_path):
    path = tmp_path / "app.pl"
    request = {"task": "groundness", "path": str(path), "deadline": 30}
    path.write_text(":- entry_point(app(g, g, any)).\n" + APP)
    first = daemon.handle(request)
    assert check_reply(first) == "ok" and not first["cached"]
    assert _ground_at_call(first) == [True, True, False]
    assert daemon.handle(request)["cached"]

    path.write_text(":- entry_point(app(any, any, g)).\n" + APP)
    edited = daemon.handle(request)
    assert check_reply(edited) == "ok" and not edited["cached"]
    assert _ground_at_call(edited) == [False, False, True]

    # a declaration after the clause: no clause moves, yet lint changes
    lint = {"task": "lint", "path": str(path), "deadline": 30}
    path.write_text("p(X) :- seen(X).\n")
    rules = {row["rule"] for row in daemon.handle(lint)["payload"]["rows"]}
    assert {"undefined-call", "dead-predicate"} <= rules
    path.write_text("p(X) :- seen(X).\n:- dynamic seen/1.\n")
    declared = daemon.handle(lint)
    assert not declared["cached"]
    assert declared["payload"]["rows"] == []


def test_daemon_lint_reply_follows_moved_lines(daemon, tmp_path):
    path = tmp_path / "moved.pl"
    lint = {"task": "lint", "path": str(path), "deadline": 30}
    path.write_text("q(a).\np(X) :- seen(X).\n")
    first = daemon.handle(lint)
    assert {row["line"] for row in first["payload"]["rows"]} == {2}
    path.write_text("% two comment lines\n%\nq(a).\np(X) :- seen(X).\n")
    moved = daemon.handle(lint)
    assert not moved["cached"]
    assert {row["line"] for row in moved["payload"]["rows"]} == {4}
    # renaming a variable moves nothing: still a hit
    path.write_text("% two comment lines\n%\nq(a).\np(Y) :- seen(Y).\n")
    assert daemon.handle(lint)["cached"]


def test_daemon_retries_transient_crash_to_success(daemon):
    reply = daemon.handle({"id": 3, "task": "depthk", "path": QSORT,
                           "deadline": 30, "inject": {"kind": "abort"}})
    assert check_reply(reply) == "ok"
    assert reply["attempts"] == 2


def test_daemon_success_resets_the_poison_count():
    # two requests on one key, each losing a worker once before
    # recovering: the kill count must reset on success, or transient
    # crashes on a popular key would add up to a false quarantine
    # (poison_threshold is 2 here; own daemon — these crashes would
    # push the shared fixture's breaker toward open)
    with AnalysisDaemon(pool_size=2, queue_limit=4,
                        retry=RetryPolicy(max_attempts=3, base=0.01,
                                          max_delay=0.1),
                        poison_threshold=2) as daemon:
        for request_id in (30, 31):
            reply = daemon.handle({"id": request_id, "task": "depthk",
                                   "path": QSORT, "options": {"hot": True},
                                   "deadline": 30,
                                   "inject": {"kind": "abort"}})
            assert check_reply(reply) == "ok"
            assert reply["attempts"] == 2


def test_daemon_answers_structured_analysis_error(daemon):
    reply = daemon.handle({"id": 4, "task": "depthk", "path": "missing.pl",
                           "deadline": 30})
    assert check_reply(reply) == "error"
    assert reply["error"]["code"] == "analysis-error"
    assert reply["attempts"] == 1  # deterministic failures are not retried


def test_daemon_quarantines_poison_request(daemon):
    data = {"id": 5, "task": "depthk", "path": QSORT,
            "options": {"chaos": "poison"}, "deadline": 30,
            "inject": {"kind": "abort", "every": True}}
    first = daemon.handle(dict(data))
    assert check_reply(first) == "error"
    assert first["error"]["code"] == "poisoned"
    # resubmitted (new id, no inject): still quarantined, served instantly
    resubmit = daemon.handle({"id": 6, "task": "depthk", "path": QSORT,
                              "options": {"chaos": "poison"}, "deadline": 30})
    assert resubmit["error"]["code"] == "poisoned"
    assert resubmit["attempts"] == 0


def test_daemon_bad_requests_keep_their_id(daemon):
    reply = daemon.handle_line('{"id": 99, "task": "nope", "path": "p.pl"}')
    assert reply["error"]["code"] == "unknown-task"
    assert reply["id"] == 99
    reply = daemon.handle_line("{not json")
    assert reply["error"]["code"] == "bad-request"


def test_daemon_degrades_in_process_when_breaker_open(daemon, monkeypatch):
    def refuse():
        return False

    monkeypatch.setattr(daemon.breaker, "allow", refuse)
    reply = daemon.handle({"id": 7, "task": "groundness", "path": QSORT,
                           "options": {"fresh": True}, "deadline": 30})
    assert check_reply(reply) == "degraded"
    assert reply["payload"]["predicates"]


def test_daemon_metrics_exported(daemon):
    counters = daemon.observer.registry.snapshot()["counters"]
    assert counters.get("serve.requests", 0) >= 5
    assert counters.get("serve.cache.hits", 0) >= 1
    assert counters.get("serve.retries", 0) >= 1
    assert counters.get("serve.pool.faults.crash", 0) >= 1
    timers = daemon.observer.registry.snapshot()["timers"]
    assert timers["serve.request_seconds"]["count"] >= 5


def test_daemon_drain_refuses_new_work():
    with AnalysisDaemon(pool_size=1, queue_limit=2) as daemon:
        ok = daemon.handle({"id": 1, "task": "depthk", "path": QSORT,
                            "deadline": 30})
        assert check_reply(ok) == "ok"
        assert daemon.drain(timeout=10.0)
        late = daemon.handle({"id": 2, "task": "depthk", "path": QSORT,
                              "deadline": 30})
        assert late["error"]["code"] == "shutting-down"


def test_worker_failure_kinds():
    assert issubclass(WorkerCrashed, WorkerFailure)
    assert issubclass(WorkerHung, WorkerFailure)
    assert issubclass(WorkerCorrupt, WorkerFailure)
    assert {WorkerCrashed.kind, WorkerHung.kind, WorkerCorrupt.kind} == {
        "crash", "hang", "corrupt"
    }
