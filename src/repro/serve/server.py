"""``repro serve``: the asyncio front doors (HTTP and stdin).

:class:`ServeServer` wraps a :class:`~repro.serve.service.ScenarioService`
in a minimal HTTP/1.1 listener (stdlib asyncio streams — no framework,
no new dependencies) and an optional stdin line protocol.  Endpoints:

* ``POST /run`` — body ``{"spec": "fib:15 @ grid:8x8 / cwn?seed=3"}``
  (or a bare plain-text spec); 200 with the canonical result JSON,
  400 on a malformed spec, 429 past the backpressure high-water mark,
  500 when the scenario fails in a worker;
* ``GET /healthz`` — liveness (``{"ok": true, ...}``);
* ``GET /stats`` — the live dedup/batch/dispatch counters.

Shutdown is graceful by contract: SIGTERM (or SIGINT) stops accepting,
drains every in-flight computation, stops the fleet, and only then
exits — a client that got a 200 admission always gets its result.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Any, TextIO

from ..obs import telemetry as _telemetry
from ..parallel.cache import ResultCache
from ..parallel.pool import WorkerFleet
from .policy import make_policy
from .protocol import (
    BadRequest,
    HttpRequest,
    error_body,
    http_response,
    read_http_request,
    request_spec,
    response_body,
)
from .service import Busy, ComputeError, ScenarioService

__all__ = ["ServeServer", "serve_forever", "serve_stdin"]


class ServeServer:
    """One service plus its HTTP listener (testable without a process)."""

    def __init__(
        self,
        service: ScenarioService,
        host: str = "127.0.0.1",
        port: int = 8023,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Start the service loops and bind the listener."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            # An ephemeral bind (port 0) resolves here.
            self.port = sockets[0].getsockname()[1]
        tele = _telemetry.sink()
        if tele is not None:
            tele.emit(
                "serve.start",
                host=self.host,
                port=self.port,
                workers=self.service.fleet.workers,
                policy=self.service.policy.name,
            )

    def request_shutdown(self) -> None:
        """Signal-safe: begin the graceful drain."""
        self._shutdown.set()

    async def wait_closed(self) -> None:
        """Block until a shutdown is requested, then drain and stop."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop listening, drain in-flight work, stop the fleet."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()
        tele = _telemetry.sink()
        if tele is not None:
            tele.emit("serve.stop", **self.service.stats.to_dict())

    # -- the HTTP handler --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except BadRequest as exc:
                    writer.write(
                        http_response(400, error_body(str(exc)), keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self._route(request)
                keep_alive = request.keep_alive and not self._shutdown.is_set()
                writer.write(http_response(status, payload, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _route(self, request: HttpRequest) -> tuple[int, dict[str, Any]]:
        if request.path == "/healthz":
            if request.method != "GET":
                return 405, error_body("use GET /healthz")
            return 200, {
                "ok": True,
                "accepting": self.service.accepting,
                "workers": self.service.fleet.workers,
                "policy": self.service.policy.name,
            }
        if request.path == "/stats":
            if request.method != "GET":
                return 405, error_body("use GET /stats")
            stats = dict(self.service.stats.to_dict())
            stats["inflight"] = len(self.service._inflight)
            stats["outstanding"] = list(self.service.fleet.outstanding)
            return 200, stats
        if request.path == "/run":
            if request.method != "POST":
                return 405, error_body("use POST /run")
            return await self._run(request)
        return 404, error_body(f"no such endpoint: {request.path}")

    async def _run(self, request: HttpRequest) -> tuple[int, dict[str, Any]]:
        try:
            spec = request_spec(request.body)
        except ValueError as exc:
            return 400, error_body(str(exc))
        try:
            answer = await self.service.submit(spec)
        except ValueError as exc:
            return 400, error_body(str(exc))
        except Busy as exc:
            return 429, error_body(str(exc), status="busy")
        except ComputeError as exc:
            return 500, error_body(str(exc))
        return 200, response_body(
            answer.spec, answer.key, answer.source, answer.result, answer.wall_ms
        )


# -- entry points ----------------------------------------------------------------

def build_server(
    host: str = "127.0.0.1",
    port: int = 8023,
    workers: int = 2,
    policy: str = "central",
    window: float = 0.01,
    max_batch: int = 16,
    high_water: int = 256,
    queue_depth: int = 64,
    no_cache: bool = False,
    seed: int = 1,
) -> ServeServer:
    """Wire fleet + policy + cache + service + listener from knob values."""
    fleet = WorkerFleet(workers=workers, queue_depth=queue_depth)
    service = ScenarioService(
        fleet,
        make_policy(policy, workers, seed=seed),
        cache=None if no_cache else ResultCache(),
        window=window,
        max_batch=max_batch,
        high_water=high_water,
    )
    return ServeServer(service, host=host, port=port)


async def _install_signal_handlers(server: ServeServer) -> None:
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass


async def _serve_http(server: ServeServer, out: TextIO) -> None:
    await server.start()
    await _install_signal_handlers(server)
    print(
        f"repro serve · http://{server.host}:{server.port} · "
        f"{server.service.fleet.workers} worker(s) · "
        f"policy {server.service.policy.name} · SIGTERM drains",
        file=out,
        flush=True,
    )
    await server.wait_closed()
    stats = server.service.stats
    print(
        f"repro serve · drained: {stats.requests} requests "
        f"({stats.cache_hits} cache hits, {stats.coalesced} coalesced, "
        f"{stats.computed} computed, {stats.rejected} rejected)",
        file=out,
        flush=True,
    )


def serve_forever(out: TextIO | None = None, **knobs: Any) -> int:
    """The blocking ``repro serve`` body (HTTP mode); returns exit code."""
    server = build_server(**knobs)
    asyncio.run(_serve_http(server, sys.stderr if out is None else out))
    return 0


async def _serve_stdin_async(
    server: ServeServer, lines: TextIO, out: TextIO
) -> None:
    import threading

    await server.service.start()
    await _install_signal_handlers(server)
    loop = asyncio.get_running_loop()

    # A daemon reader thread feeds lines into the loop: stdin has no
    # async interface, and a thread blocked in readline() must not be
    # able to wedge a signal-triggered shutdown (daemon = it cannot).
    incoming: "asyncio.Queue[str | None]" = asyncio.Queue()

    def _pump_lines() -> None:
        try:
            for line in lines:
                loop.call_soon_threadsafe(incoming.put_nowait, line)
        except (ValueError, OSError):  # pragma: no cover - closed stream
            pass
        try:
            loop.call_soon_threadsafe(incoming.put_nowait, None)
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    threading.Thread(
        target=_pump_lines, name="repro-serve-stdin", daemon=True
    ).start()

    pending: set["asyncio.Task[None]"] = set()

    async def _answer(spec: str) -> None:
        try:
            answer = await server.service.submit(spec)
            payload = response_body(
                answer.spec, answer.key, answer.source, answer.result, answer.wall_ms
            )
        except ValueError as exc:
            payload = error_body(str(exc))
        except Busy as exc:
            payload = error_body(str(exc), status="busy")
        except ComputeError as exc:
            payload = error_body(str(exc))
        print(
            json.dumps(payload, sort_keys=True, separators=(",", ":")),
            file=out,
            flush=True,
        )

    shutdown = asyncio.ensure_future(server._shutdown.wait())
    while True:
        getter: "asyncio.Task[str | None]" = asyncio.ensure_future(incoming.get())
        done, _ = await asyncio.wait(
            {getter, shutdown}, return_when=asyncio.FIRST_COMPLETED
        )
        if getter not in done:
            getter.cancel()
            break  # signal-triggered drain
        line = getter.result()
        if line is None:
            break  # EOF drain
        spec = line.strip()
        if not spec or spec.startswith("#"):
            continue
        task = asyncio.ensure_future(_answer(spec))
        pending.add(task)
        task.add_done_callback(pending.discard)
    shutdown.cancel()
    if pending:
        await asyncio.wait(pending)
    await server.service.stop()


def serve_stdin(
    lines: TextIO | None = None, out: TextIO | None = None, **knobs: Any
) -> int:
    """The ``repro serve --stdin`` body: specs in, JSONL responses out.

    Requests on consecutive lines are submitted concurrently (so
    duplicates coalesce and batches fill), but each response is printed
    as one whole line the moment it resolves.
    """
    knobs.pop("host", None)
    knobs.pop("port", None)
    server = build_server(**knobs)
    asyncio.run(
        _serve_stdin_async(
            server,
            sys.stdin if lines is None else lines,
            sys.stdout if out is None else out,
        )
    )
    return 0
