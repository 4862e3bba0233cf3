"""The daemon request path: protocol, cache keying, pool supervision.

The slow pieces (real worker processes) are concentrated in a
module-scoped daemon fixture; everything else — protocol validation,
fingerprinting, cache invalidation — is pure and fast.
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
from repro.serve.cache import dirty_components
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
# Fingerprinting and cache invalidation


def _program(text):
    return load_program(textwrap.dedent(text))


def test_fingerprint_is_a_variant_key_not_a_text_hash():
    one = _program("""
        p(X) :- q(X).
        q(a).
    """)
    renamed = _program("""
        % a comment, different whitespace, renamed variables
        p(Zed) :-  q(Zed).
        q(a).
    """)
    assert fingerprint_program(one).whole == fingerprint_program(renamed).whole
    changed = _program("""
        p(X) :- q(X).
        q(b).
    """)
    assert fingerprint_program(one).whole != fingerprint_program(changed).whole


def test_dirty_set_closes_over_callers_only():
    # chain: main -> mid -> leaf, plus bystander
    program = _program("""
        main(X) :- mid(X).
        mid(X) :- leaf(X).
        leaf(a).
        bystander(b).
    """)
    fingerprint = fingerprint_program(program)
    leaf = next(c for c in fingerprint.components if ("leaf", 1) in c)
    dirty = dirty_components(fingerprint, [leaf])
    names = {name for component in dirty for name, _ in component}
    assert names == {"leaf", "mid", "main"}  # callers dirty, bystander not
    main = next(c for c in fingerprint.components if ("main", 1) in c)
    assert dirty_components(fingerprint, [main]) == {main}


def test_cache_probe_hit_miss_partial_and_eviction():
    cache = ResultCache(max_entries=2)
    program = _program("p(X) :- q(X).\nq(a).\nr(b).")
    probe = cache.probe(("lint", "f.pl", ()), program)
    assert not probe.hit and not probe.partial
    cache.store(("lint", "f.pl", ()), probe, {"answer": 1})

    again = cache.probe(("lint", "f.pl", ()), program)
    assert again.hit and again.payload == {"answer": 1}

    edited = _program("p(X) :- q(X).\nq(a).\nr(c).")  # only r/1 changed
    partial = cache.probe(("lint", "f.pl", ()), edited)
    assert not partial.hit and partial.partial
    assert [sorted(c) for c in partial.changed] == [[("r", 1)]]
    assert [sorted(c) for c in partial.dirty] == [[("r", 1)]]

    # eviction: two fresh keys push the oldest out
    for name in ("g.pl", "h.pl"):
        fresh = cache.probe(("lint", name, ()), program)
        cache.store(("lint", name, ()), fresh, {})
    assert len(cache) == 2
    assert not cache.probe(("lint", "f.pl", ()), program).hit


def test_cache_invalidate_by_path():
    cache = ResultCache()
    program = _program("p(a).")
    for task in ("lint", "groundness"):
        probe = cache.probe((task, "f.pl", ()), program)
        cache.store((task, "f.pl", ()), probe, {})
    assert cache.invalidate("f.pl") == 2
    assert len(cache) == 0


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
