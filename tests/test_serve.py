"""The scenario service: protocol, policies, fleet, dedup, fronts.

The serve contract under test, front to back:

* the wire protocol parses/renders without a framework and keeps the
  canonical-JSON byte-equality promise with ``repro run --json``;
* the dispatch policies are deterministic adapters of the paper's
  strategies over live per-worker backlogs;
* the fleet stays warm across requests and ships failures home as data;
* the service dedups three ways — coalesced requests share the
  *identical* result object, warm hits never touch the fleet, and the
  content hash is stable across spec spellings and submission order;
* both fronts (HTTP, stdin) drain gracefully.
"""

from __future__ import annotations

import asyncio
import io
import json
import sys
import time

import pytest

from repro.parallel import result_json
from repro.parallel.cache import ResultCache
from repro.parallel.pool import task_json
from repro.scenario import Arrivals, Scenario
from repro.serve import (
    POLICY_NAMES,
    Busy,
    ComputeError,
    ReplayRequest,
    ScenarioService,
    WorkerFleet,
    build_server,
    error_body,
    http_response,
    make_policy,
    read_http_request,
    render_replay,
    request_spec,
    response_body,
    run_replay,
    serve_stdin,
)
from repro.serve.protocol import BadRequest

SPEC = "fib:8 @ grid:2x2 / cwn"
#: specs that parse but name PEs outside the 2x2 machine
OUT_OF_RANGE = ("fib:9 @ grid:2x2 / cwn?start=7", "fib:9 @ grid:2x2 / cwn?queries=2&pes=0;9")
OTHER = "fib:9 @ grid:2x2 / cwn"


# -- protocol --------------------------------------------------------------------


class TestProtocol:
    def test_request_spec_accepts_json_and_bare_text(self):
        assert request_spec(b'{"spec": "fib:8 @ grid:2x2 / cwn"}') == SPEC
        assert request_spec(b"fib:8 @ grid:2x2 / cwn\n") == SPEC

    @pytest.mark.parametrize(
        "body",
        [b"", b"   ", b"{not json", b'{"spec": 7}', b'["fib:8"]', b'{"nope": "x"}'],
    )
    def test_request_spec_rejects_malformed(self, body):
        with pytest.raises(ValueError):
            request_spec(body)

    def test_response_and_error_bodies(self):
        body = response_body(SPEC, "abc123", "computed", {"x": 1}, 12.3456)
        assert body["v"] == 1
        assert body["source"] == "computed"
        assert body["wall_ms"] == 12.346
        err = error_body("too busy", status="busy")
        assert err["status"] == "busy"

    def test_http_response_is_canonical_json(self):
        raw = http_response(200, {"b": 2, "a": 1}, keep_alive=False)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert f"Content-Length: {len(body)}".encode() in head
        # Sorted keys + compact separators: the result_json convention.
        assert body == b'{"a":1,"b":2}'

    def _parse(self, raw: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_http_request(reader)

        return asyncio.run(go())

    def test_read_http_request_round_trip(self):
        body = b'{"spec": "fib:8 @ grid:2x2 / cwn"}'
        raw = (
            b"POST /run HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = self._parse(raw)
        assert request.method == "POST"
        assert request.path == "/run"
        assert request.body == body
        assert request.keep_alive  # HTTP/1.1 default

    def test_read_http_request_eof_is_none(self):
        assert self._parse(b"") is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"NOT A REQUEST\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
            b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ],
    )
    def test_read_http_request_rejects_malformed(self, raw):
        with pytest.raises(BadRequest):
            self._parse(raw)

    def test_connection_close_disables_keep_alive(self):
        request = self._parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive


# -- dispatch policies -----------------------------------------------------------


class TestPolicies:
    def test_policy_names_are_registered_strategies(self):
        from repro.core import STRATEGIES

        assert set(POLICY_NAMES) <= set(STRATEGIES.names())
        assert {"central", "random", "roundrobin", "cwn", "gm"} == set(POLICY_NAMES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("not-a-policy", 2)

    def test_central_picks_least_loaded(self):
        policy = make_policy("central", 4)
        assert policy.pick([3, 0, 2, 5]) == 1
        assert policy.pick([1, 1, 0, 0]) == 2  # first argmin wins ties

    def test_roundrobin_cycles(self):
        policy = make_policy("roundrobin", 3)
        assert [policy.pick([0, 0, 0]) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_random_is_seed_deterministic(self):
        a = make_policy("random", 4, seed=9)
        b = make_policy("random", 4, seed=9)
        picks_a = [a.pick([0, 0, 0, 0]) for _ in range(16)]
        picks_b = [b.pick([0, 0, 0, 0]) for _ in range(16)]
        assert picks_a == picks_b
        assert set(picks_a) <= {0, 1, 2, 3}

    def test_cwn_contracts_to_a_neighborhood(self):
        policy = make_policy("cwn", 8, seed=1)
        pointer = 0
        for _ in range(16):
            outstanding = [1] * 8
            pick = policy.pick(outstanding)
            radius = 4  # workers // 2
            distance = min((pick - pointer) % 8, (pointer - pick) % 8)
            assert distance <= radius
            pointer = pick  # the window recenters on the chosen worker

    def test_gm_beliefs_go_stale_then_refresh(self):
        policy = make_policy("gm", 2, seed=1)
        # All beliefs start equal; the policy self-increments on pick,
        # so consecutive picks spread without seeing real completions.
        picks = [policy.pick([0, 0]) for _ in range(4)]
        assert set(picks) == {0, 1}, "stale beliefs must still spread load"


# -- the fleet -------------------------------------------------------------------


class TestFleet:
    def test_runs_a_spec_and_matches_direct_run(self):
        spec = Scenario("fib:8", "grid:2x2", "cwn", seed=1)
        from repro.parallel.cache import result_to_dict

        with WorkerFleet(workers=1) as fleet:
            fleet.submit(0, 7, task_json(spec))
            task_id, worker, ok, payload = fleet.next_result(timeout=60)
        assert (task_id, worker, ok) == (7, 0, True)
        assert payload == result_to_dict(spec.run())
        assert fleet.outstanding == [0]

    def test_failure_travels_home_as_data_and_worker_survives(self):
        spec = Scenario("fib:8", "grid:2x2", "cwn", seed=1)
        with WorkerFleet(workers=1) as fleet:
            fleet.submit(0, 1, "NOT VALID JSON")
            task_id, _worker, ok, payload = fleet.next_result(timeout=60)
            assert task_id == 1 and not ok
            assert "Traceback" in payload
            # The worker must stay warm after a poisoned task.
            fleet.submit(0, 2, task_json(spec))
            task_id, _worker, ok, _payload = fleet.next_result(timeout=60)
            assert task_id == 2 and ok
            assert fleet.alive() == [True]

    def test_tasks_and_results_larger_than_a_pipe_never_block(self, wall_clock_guard):
        # Each task and each result overflows a 64 KiB pipe.  A task past
        # the write-ahead budget waits until its worker's pipe is empty, so
        # submit never blocks on a worker that is blocked sending a result.
        wall_clock_guard(60)
        times = tuple(float(t) for t in range(9000))
        specs = [
            Scenario("fib:1", "grid:2x2", "cwn", seed=seed, arrivals=Arrivals(len(times), times=times))
            for seed in (1, 2)
        ]
        from repro.parallel.cache import result_to_dict

        with WorkerFleet(workers=1) as fleet:
            for task_id, spec in enumerate(specs):
                fleet.submit(0, task_id, task_json(spec))
            answers = [fleet.next_result(timeout=60) for _ in specs]
        assert [answer[:3] for answer in answers] == [(0, 0, True), (1, 0, True)]
        assert answers[1][3] == result_to_dict(specs[1].run())

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            WorkerFleet(workers=0)
        with pytest.raises(ValueError):
            WorkerFleet(workers=1, queue_depth=0)
        fleet = WorkerFleet(workers=1)
        with pytest.raises(RuntimeError):
            fleet.submit(0, 1, "{}")


# -- the service -----------------------------------------------------------------


def _service(tmp_path=None, **kw):
    cache = None if tmp_path is None else ResultCache(tmp_path)
    fleet = WorkerFleet(workers=kw.pop("workers", 1), queue_depth=kw.pop("queue_depth", 64))
    return ScenarioService(
        fleet, make_policy(kw.pop("policy", "central"), fleet.workers), cache=cache, **kw
    )


class _Parked(list):
    """Holds every task dispatched to ``fleet`` until :meth:`release`."""

    def __init__(self, fleet: WorkerFleet) -> None:
        super().__init__()
        self._submit = fleet.submit
        fleet.submit = lambda *task: self.append(task)

    def release(self) -> None:
        for task in self:
            self._submit(*task)
        self.clear()


class TestService:
    def test_coalesced_requests_share_the_identical_result_object(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            try:
                a, b, c = await asyncio.gather(
                    service.submit(SPEC), service.submit(SPEC), service.submit(SPEC)
                )
            finally:
                await service.stop()
            return a, b, c, service.stats

        a, b, c, stats = asyncio.run(go())
        sources = sorted((a.source, b.source, c.source))
        assert sources == ["coalesced", "coalesced", "computed"]
        # The singleflight promise: not equal copies — the same object.
        assert a.result is b.result is c.result
        assert a.key == b.key == c.key
        assert stats.computed == 1 and stats.coalesced == 2

    def test_warm_cache_answers_without_the_fleet(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            try:
                first = await service.submit(SPEC)
                second = await service.submit(SPEC)
            finally:
                await service.stop()
            dispatched = service.stats.dispatched
            # A fresh service over the same cache directory starts warm.
            other = _service(tmp_path)
            await other.start()
            try:
                third = await other.submit(SPEC)
            finally:
                await other.stop()
            return first, second, third, dispatched, other.stats

        first, second, third, dispatched, other_stats = asyncio.run(go())
        assert (first.source, second.source, third.source) == (
            "computed", "cache", "cache",
        )
        assert first.result == second.result == third.result
        assert dispatched == 1
        assert other_stats.dispatched == 0, "warm hit must not touch the fleet"

    def test_served_miss_writes_the_entry_a_direct_put_writes(self, tmp_path):
        # The worker's result dict goes to put() as sent, unrevived: the
        # entry is byte for byte the one put() writes for a direct run.
        async def go():
            service = _service(tmp_path / "served")
            await service.start()
            try:
                return await service.submit(SPEC)
            finally:
                await service.stop()

        answer = asyncio.run(go())
        assert answer.source == "computed"
        scenario = Scenario.from_spec(SPEC).seeded()
        served = ResultCache(tmp_path / "served").path_for(scenario)
        direct = ResultCache(tmp_path / "direct").put(scenario, scenario.run())
        assert served.read_bytes() == direct.read_bytes()

    def test_failed_cache_write_still_answers(self, tmp_path, wall_clock_guard):
        # A cache write that fails (here: a full disk) must not end the
        # pump: every computed request is still answered, and stop()
        # finds nothing left in flight.
        import errno
        import time

        from repro.obs import telemetry

        wall_clock_guard(60)

        class FullDisk(ResultCache):
            def put(self, scenario, result):
                raise OSError(errno.ENOSPC, "No space left on device")

        async def go():
            service = _service()
            service.cache = FullDisk(tmp_path)
            await service.start()
            try:
                first = await asyncio.wait_for(service.submit(SPEC), 20)
                second = await asyncio.wait_for(service.submit(OTHER), 20)
            finally:
                start = time.perf_counter()
                await service.stop()
            return first, second, time.perf_counter() - start

        stream = tmp_path / "serve.jsonl"
        with telemetry.capture(stream):
            first, second, stop_s = asyncio.run(go())
        for spec, answer in ((SPEC, first), (OTHER, second)):
            assert answer.source == "computed"
            assert json.dumps(answer.result, sort_keys=True, separators=(",", ":")) == _direct(spec)
        assert stop_s < 5.0
        errors = [e for e in telemetry.read_events(stream) if e["ev"] == "serve.cache_error"]
        assert len(errors) == 2 and "No space left" in errors[0]["error"]

    def test_result_matches_direct_scenario_run_byte_for_byte(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            try:
                return await service.submit(SPEC)
            finally:
                await service.stop()

        answer = asyncio.run(go())
        direct = Scenario.from_spec(SPEC).seeded().run()
        served = json.dumps(answer.result, sort_keys=True, separators=(",", ":"))
        assert served == result_json(direct)

    def test_bad_spec_is_a_value_error_not_a_dead_task(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            try:
                with pytest.raises(ValueError):
                    await service.submit("total nonsense")
                with pytest.raises(ValueError):
                    await service.submit("fib:8 @ grid:2x2 / no-such-strategy")
                # PEs outside the machine are client errors too, caught
                # before dispatch rather than failing in a worker.
                for spec in OUT_OF_RANGE:
                    with pytest.raises(ValueError):
                        await service.submit(spec)
                # The service keeps serving after rejected specs.
                return await service.submit(SPEC)
            finally:
                await service.stop()

        assert asyncio.run(go()).source == "computed"

    def test_a_miss_is_dispatched_before_submit_first_yields(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            sent = []
            submit = service.fleet.submit
            service.fleet.submit = lambda *task: (sent.append(task), submit(*task))
            try:
                pending = asyncio.ensure_future(service.submit(SPEC))
                await asyncio.sleep(0)  # one step of the submit task
                return list(sent), await pending
            finally:
                await service.stop()

        sent, answer = asyncio.run(go())
        assert [spec_json for _, _, spec_json in sent] == [
            task_json(Scenario.from_spec(SPEC).seeded())
        ]
        assert answer.source == "computed"

    def test_high_water_turns_away_excess_load(self, tmp_path):
        async def go():
            service = _service(tmp_path, high_water=1)
            await service.start()
            parked = _Parked(service.fleet)
            try:
                first = asyncio.ensure_future(service.submit(SPEC))
                await asyncio.sleep(0)  # admitted; its task is parked
                assert len(parked) == 1
                with pytest.raises(Busy):
                    await service.submit(OTHER)
                busy_stat = service.stats.rejected
                # The duplicate of an in-flight spec still coalesces —
                # dedup is cheaper than admission and bypasses the gate.
                dup = asyncio.ensure_future(service.submit(SPEC))
                await asyncio.sleep(0)
                parked.release()
                return await first, await dup, busy_stat
            finally:
                await service.stop()

        first, dup, rejected = asyncio.run(go())
        assert first.source == "computed"
        assert dup.source == "coalesced"
        assert rejected == 1

    def test_full_fleet_queue_turns_a_miss_away(self, tmp_path):
        # One worker holding one task: a second, distinct miss finds
        # every queue full while the first is in flight.
        other_key = Scenario.from_spec(OTHER).seeded().content_hash()

        async def go():
            service = _service(tmp_path, queue_depth=1)
            await service.start()

            async def turned_away():
                with pytest.raises(Busy, match="every fleet queue is at capacity"):
                    await service.submit(OTHER)
                return other_key in service._inflight

            try:
                first, still_inflight, dup = await asyncio.gather(
                    service.submit(SPEC), turned_away(), service.submit(SPEC)
                )
                rejected = service.stats.rejected
                retry = await service.submit(OTHER)
            finally:
                await service.stop()
            return first, still_inflight, dup, rejected, retry

        first, still_inflight, dup, rejected, retry = asyncio.run(go())
        assert (first.source, dup.source) == ("computed", "coalesced")
        assert dup.result is first.result
        assert rejected == 1 and not still_inflight
        assert retry.source == "computed" and retry.key == other_key

    def test_stop_drains_admitted_work(self, tmp_path):
        async def go():
            service = _service(tmp_path)
            await service.start()
            pending = asyncio.ensure_future(service.submit(SPEC))
            await asyncio.sleep(0.05)
            await service.stop()  # must wait for the admitted request
            answer = await pending
            with pytest.raises(Busy):
                await service.submit(OTHER)
            return answer

        assert asyncio.run(go()).source == "computed"

    def test_content_hash_is_stable_across_spellings_and_order(self):
        spellings = [
            "fib:10 @ grid:4x4 / cwn?seed=3&start=0",
            "fib:10 @ grid:4x4 / cwn?start=0&seed=3",
            "  fib:10   @ grid:4x4 /   cwn?start=0&seed=3  ",
        ]
        hashes = {Scenario.from_spec(s).seeded().content_hash() for s in spellings}
        assert len(hashes) == 1

    def test_keys_independent_of_submission_order(self, tmp_path):
        specs = [SPEC, OTHER, "fib:8 @ grid:2x2 / gm"]

        def keys_for(order):
            async def go():
                service = _service(tmp_path, workers=2)
                await service.start()
                try:
                    answers = await asyncio.gather(
                        *(service.submit(s) for s in order)
                    )
                finally:
                    await service.stop()
                return {a.spec: a.key for a in answers}

            return asyncio.run(go())

        forward = keys_for(specs)
        backward = keys_for(list(reversed(specs)))
        assert forward == backward

    def test_validates_knobs(self):
        fleet = WorkerFleet(workers=1)
        policy = make_policy("central", 1)
        with pytest.raises(ValueError):
            ScenarioService(fleet, policy, high_water=0)


# -- a worker killed mid-request -------------------------------------------------

#: the seed of the one request whose run SIGKILLs its worker
KILL_SEED = 3


@pytest.fixture
def killing(kill_in_child, wall_clock_guard):
    """A request with seed ``KILL_SEED`` SIGKILLs the worker running it."""
    wall_clock_guard(120)
    kill_in_child(Scenario, "run", lambda spec: spec.seed == KILL_SEED)


def _direct(spec: str) -> str:
    return result_json(Scenario.from_spec(spec).seeded().run())


@pytest.mark.usefixtures("killing")
class TestKilledWorker:
    def test_respawned_worker_serves_the_requests_that_follow(self, tmp_path):
        specs = [f"fib:7 @ grid:2x2 / cwn?seed={seed}" for seed in range(1, 20)]
        killed = specs.index(f"fib:7 @ grid:2x2 / cwn?seed={KILL_SEED}")

        async def go():
            server = build_server(port=0, workers=2)
            server.service.cache = ResultCache(tmp_path)
            fleet = server.service.fleet
            answered = []  # (worker, ok) of every task, in fleet order
            next_result = fleet.next_result

            def watch(timeout=None):
                item = next_result(timeout)
                if item is not None:
                    answered.append(item[1:3])
                return item

            fleet.next_result = watch
            await server.start()
            try:
                replies = [
                    await _http(server.port, "POST", "/run", spec.encode()) for spec in specs
                ]
                alive = fleet.alive()
            finally:
                await server.stop()
            return replies, answered, alive

        replies, answered, alive = asyncio.run(go())
        status, body = replies[killed]
        assert status == 500 and "worker process died" in body["error"]
        for spec, (status, body) in zip(specs, replies):
            if spec != specs[killed]:
                assert status == 200
                assert json.dumps(body["result"], sort_keys=True, separators=(",", ":")) == (
                    _direct(spec)
                )
        # Sequential requests all go to the least-loaded worker 0, the
        # one that died: its successor answers all 16 that follow.
        assert answered[killed] == (0, False)
        assert answered[killed + 1 :] == [(0, True)] * 16
        assert alive == [True, True]

    def test_burst_loses_only_the_killed_request(self, tmp_path):
        specs = [f"fib:5 @ grid:2x2 / cwn?seed={seed}" for seed in range(1, 401)]
        killer = f"fib:5 @ grid:2x2 / cwn?seed={KILL_SEED}"

        async def go():
            service = _service(tmp_path, workers=2, queue_depth=512, high_water=512)
            finished = []  # (spec, answer or error), in the order they end

            async def one(spec):
                try:
                    finished.append((spec, await service.submit(spec)))
                except ComputeError as exc:
                    finished.append((spec, exc))

            await service.start()
            try:
                await asyncio.gather(*(one(spec) for spec in specs))
            finally:
                await service.stop()
            return finished

        # The event loop submits while the pump thread takes results and
        # respawns: switch threads often to shake out unguarded fleet state.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            finished = asyncio.run(go())
        finally:
            sys.setswitchinterval(interval)
        failed = [spec for spec, outcome in finished if isinstance(outcome, ComputeError)]
        assert failed == [killer]
        assert "worker process died" in str(dict(finished)[killer])
        # The death is handled when it happens, not when the burst goes quiet.
        assert [spec for spec, _ in finished].index(killer) < len(specs) - 1
        for spec, outcome in finished:
            if spec != killer:
                served = json.dumps(outcome.result, sort_keys=True, separators=(",", ":"))
                assert served == _direct(spec)


# -- the HTTP front --------------------------------------------------------------


async def _http(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    status = int(raw.split(b" ", 2)[1])
    payload = json.loads(raw.partition(b"\r\n\r\n")[2])
    return status, payload


class TestHttpFront:
    def test_end_to_end(self, tmp_path):
        async def go():
            server = build_server(port=0, workers=1)
            server.service.cache = ResultCache(tmp_path)
            await server.start()
            port = server.port
            try:
                ok, health = await _http(port, "GET", "/healthz")
                run1 = await _http(
                    port, "POST", "/run", json.dumps({"spec": SPEC}).encode()
                )
                run2 = await _http(port, "POST", "/run", SPEC.encode())
                bad = [
                    await _http(port, "POST", "/run", body.encode())
                    for body in ("garbage !!!", *OUT_OF_RANGE)
                ]
                missing = await _http(port, "GET", "/nowhere")
                wrong_method = await _http(port, "GET", "/run")
                stats = await _http(port, "GET", "/stats")
            finally:
                await server.stop()
            return ok, health, run1, run2, bad, missing, wrong_method, stats

        ok, health, run1, run2, bad, missing, wrong_method, stats = asyncio.run(go())
        assert ok == 200 and health["ok"] and health["workers"] == 1
        assert run1[0] == 200 and run1[1]["source"] == "computed"
        assert run2[0] == 200 and run2[1]["source"] == "cache"
        assert run1[1]["result"] == run2[1]["result"]
        assert all(status == 400 and "error" in body for status, body in bad)
        assert missing[0] == 404
        assert wrong_method[0] == 405
        # The bad specs fail at parse or hash, before the counter: only
        # the two served runs count.
        assert stats[0] == 200 and stats[1]["requests"] == 2

    def test_keep_alive_serves_many_requests_per_connection(self, tmp_path):
        async def go():
            server = build_server(port=0, workers=1)
            server.service.cache = ResultCache(tmp_path)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    statuses = []
                    for _ in range(2):
                        body = json.dumps({"spec": SPEC}).encode()
                        writer.write(
                            b"POST /run HTTP/1.1\r\nHost: t\r\n"
                            + f"Content-Length: {len(body)}\r\n\r\n".encode()
                            + body
                        )
                        await writer.drain()
                        status_line = await reader.readline()
                        statuses.append(int(status_line.split(b" ")[1]))
                        length = 0
                        while True:
                            line = await reader.readline()
                            if line in (b"\r\n", b"\n"):
                                break
                            if line.lower().startswith(b"content-length:"):
                                length = int(line.split(b":")[1])
                        await reader.readexactly(length)
                    return statuses
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.stop()

        assert asyncio.run(go()) == [200, 200]

    def test_shutdown_request_drains_and_stops(self, tmp_path):
        async def go():
            server = build_server(port=0, workers=1)
            server.service.cache = ResultCache(tmp_path)
            await server.start()
            pending = asyncio.ensure_future(
                _http(server.port, "POST", "/run", SPEC.encode())
            )
            await asyncio.sleep(0.05)
            server.request_shutdown()
            await server.wait_closed()
            status, payload = await pending
            return status, payload, server.service.accepting

        status, payload, accepting = asyncio.run(go())
        assert status == 200 and payload["source"] == "computed"
        assert not accepting


# -- the stdin front -------------------------------------------------------------


class TestStdinFront:
    def test_lines_in_jsonl_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        lines = io.StringIO(
            f"{SPEC}\n# a comment\n\n{SPEC}\n{OTHER}\n"
        )
        out = io.StringIO()
        code = serve_stdin(lines=lines, out=out, workers=1)
        assert code == 0
        answers = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(answers) == 3
        by_spec: dict[str, list[dict]] = {}
        for answer in answers:
            by_spec.setdefault(answer["spec"], []).append(answer)
        assert len(by_spec[SPEC]) == 2
        first, second = by_spec[SPEC]
        assert first["result"] == second["result"]
        assert {a["source"] for a in answers} <= {"computed", "coalesced", "cache"}

    def test_unwritable_cache_dir_still_answers(self, tmp_path, monkeypatch, wall_clock_guard):
        # REPRO_CACHE_DIR beneath a regular file: every cache write fails,
        # for root too, yet the request is answered and the front exits.
        wall_clock_guard(60)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        spec = "fib:5 @ grid:2x2 / cwn"
        out = io.StringIO()
        assert serve_stdin(lines=io.StringIO(spec + "\n"), out=out, workers=1) == 0
        answers = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [a["source"] for a in answers] == ["computed"]
        assert json.dumps(answers[0]["result"], sort_keys=True, separators=(",", ":")) == _direct(spec)

    def test_bad_lines_answer_errors_without_dying(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        lines = io.StringIO(f"not a spec\n{SPEC}\n")
        out = io.StringIO()
        assert serve_stdin(lines=lines, out=out, workers=1) == 0
        answers = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(answers) == 2
        errors = [a for a in answers if a.get("status") == "error"]
        served = [a for a in answers if "result" in a]
        assert len(errors) == 1 and len(served) == 1


# -- replay ----------------------------------------------------------------------


class TestReplay:
    def test_load_stream_specs_comments_and_json_lines(self, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "# recorded\n"
            f"{SPEC}\n"
            "\n"
            f'{{"spec": "{OTHER}", "at": 0.25}}\n'
        )
        requests = __import__("repro.serve", fromlist=["load_stream"]).load_stream(
            stream
        )
        assert [r.spec for r in requests] == [SPEC, OTHER]
        assert requests[1].at == 0.25

    def test_load_stream_rejects_bad_json_line_and_empty(self, tmp_path):
        from repro.serve import load_stream

        bad = tmp_path / "bad.txt"
        bad.write_text('{"no_spec": 1}\n')
        with pytest.raises(ValueError):
            load_stream(bad)
        empty = tmp_path / "empty.txt"
        empty.write_text("# only comments\n")
        with pytest.raises(ValueError):
            load_stream(empty)

    def test_replay_compares_three_policies_on_one_stream(self):
        stream = [ReplayRequest(s) for s in (SPEC, SPEC, OTHER, SPEC)]
        stats = run_replay(
            stream, policies=("central", "cwn", "gm"), workers=2
        )
        assert [s.policy for s in stats] == ["central", "cwn", "gm"]
        for s in stats:
            assert s.requests == 4
            assert s.errors == 0
            # 4 requests, 2 distinct: at least one request deduped.
            assert s.coalesced + s.cache_hits >= 1
            assert s.computed == 2
            assert s.p50_ms > 0 and s.p99_ms >= s.p50_ms
            assert s.requests_per_s > 0
        table = render_replay(stats)
        for name in ("central", "cwn", "gm"):
            assert name in table
        assert "best tail latency" in table

    def test_replay_rejects_empty(self):
        with pytest.raises(ValueError):
            run_replay([], policies=("central",))

    def test_replay_admits_a_stream_longer_than_a_worker_queue(self):
        # 150 distinct misses at once on one worker: more than the
        # fleet's default queue depth (64), all computed, none turned away.
        start = time.perf_counter()
        stream = [ReplayRequest(f"fib:5 @ grid:2x2 / cwn?seed={i}") for i in range(150)]
        (stats,) = run_replay(stream, policies=("central",), workers=1)
        assert (stats.errors, stats.computed) == (0, 150)
        assert time.perf_counter() - start < 2.0


# -- the CLI surface -------------------------------------------------------------


class TestServeCli:
    def test_run_json_matches_service_result_bytes(self, capsys):
        from repro.cli import main

        assert main(["run", SPEC, "--json", "--quiet", "--no-cache"]) == 0
        printed = capsys.readouterr().out.strip()
        direct = Scenario.from_spec(SPEC).seeded().run()
        assert printed == result_json(direct)

    def test_serve_replay_cli_renders_the_table(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stream = tmp_path / "stream.txt"
        stream.write_text(f"{SPEC}\n{SPEC}\n{OTHER}\n")
        code = main(
            [
                "serve", "--replay", str(stream),
                "--policies", "central,cwn,gm", "--workers", "2",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        for name in ("central", "cwn", "gm"):
            assert name in table

    def test_serve_rejects_unknown_policy(self, capsys):
        from repro.cli import main

        assert main(["serve", "--policy", "bogus", "--stdin"]) == 2
        assert "unknown serve policy" in capsys.readouterr().err

    def test_replay_rejects_unknown_policy(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "stream.txt"
        stream.write_text(f"{SPEC}\n")
        assert main(["serve", "--replay", str(stream), "--policies", "x,central"]) == 2
        assert "unknown serve polic" in capsys.readouterr().err

    def test_submit_reports_missing_server(self, capsys):
        from repro.cli import main

        # Port 1 is never listening; the client must fail fast and clean.
        assert main(["submit", SPEC, "--port", "1", "--timeout", "2"]) == 2
        assert "no serve instance" in capsys.readouterr().err
