"""The timed paths of one run, with tracing off.

Each function times one repeat of its path and returns its samples by
metric name; ``run.py`` interleaves the repeats and reduces the samples
to medians.  Every operation's result is checked against the stored digests through
the :class:`Ledger`, and an exception, refusal or mismatch counts as a
failed operation instead of ending the run.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict, deque
from pathlib import Path

import tree
from inputs import Digests, Inputs, Request

#: the command line of the service under test (2 workers: one per core);
#: the high-water mark and the fleet's queues hold the whole burst, so the
#: burst measures the drain rate, not refusals
SERVE_ARGS = (
    "serve", "--stdin", "--workers", "2", "--high-water", "1024", "--queue-depth", "512",
)
#: the burst's drain rate is taken between these shares of its answers,
#: leaving out the ramps at either end
STEADY = (0.1, 0.9)
#: warm reruns timed after each cold sweep
WARM_RERUNS = 2
#: fresh processes timed per run for ``setup_s`` (its median is reported)
COLD_STARTS = 7
COLD_START = (
    "import sys; from repro.scenario import Scenario; "
    "Scenario.from_spec(sys.argv[1]).build()"
)


class Ledger:
    """Attempted and failed operations, each checked against its digest."""

    def __init__(self, digests: Digests) -> None:
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def check(self, spec: str, result_json: str | None) -> None:
        self.attempted += 1
        if result_json is None or not self.digests.matches(spec, result_json):
            self.failed += 1

    def fail(self, count: int = 1) -> None:
        self.attempted += count
        self.failed += count


def canonical(result: dict) -> str:
    """A served result dict in ``result_json``'s spelling."""
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def settle() -> None:
    """Untimed: reap exiting worker processes and collect garbage.

    The farm shuts its pool down without waiting, so its workers may still
    be exiting when the next operation starts; and a collection triggered
    by the previous path's garbage should not land in the next one's time.
    """
    import multiprocessing

    deadline = time.perf_counter() + 2.0
    while multiprocessing.active_children() and time.perf_counter() < deadline:
        time.sleep(0.01)
    gc.collect()


def work_dir() -> Path:
    tree.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=tree.WORK))


def setup_seconds(spec: str) -> float:
    """Wall time of a fresh process that imports, parses and builds ``spec``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, spec], env=tree.child_env(), check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def paper(inputs: Inputs, ledger: Ledger) -> dict[str, list[float]]:
    """Events/s of one run of the paper scenario, parse to result."""
    from repro.parallel.cache import result_json
    from repro.scenario import Scenario

    start = time.perf_counter()
    try:
        result = Scenario.from_spec(inputs.paper).run()
    except Exception:
        ledger.fail()
        return {}
    rate = result.events_executed / (time.perf_counter() - start)
    ledger.check(inputs.paper, result_json(result))
    return {"paper_events_per_s": [rate]}


class Sweep:
    """The farmed sweep: a cold batch into a fresh cache, then warm reruns.

    :meth:`cold` and :meth:`warm` are two paths, so each is bracketed by
    its own host-speed passes.  A warm rerun is all cache reads and takes
    a few tens of ms, so each cold batch is followed by ``WARM_RERUNS`` of
    them, each through a fresh ``ResultCache`` on the cold batch's root.
    """

    def __init__(self) -> None:
        self.root: Path | None = None

    def cold(self, inputs: Inputs, ledger: Ledger) -> dict[str, list[float]]:
        """Runs/s of the sweep farmed with ``jobs=2`` into a fresh cache."""
        self.close()
        self.root = work_dir()
        rate = self._batch(inputs, ledger, expect_hits=0)
        return {"sweep_runs_per_s": [rate]} if rate else {}

    def warm(self, inputs: Inputs, ledger: Ledger) -> dict[str, list[float]]:
        """Runs/s of reruns of the last cold sweep, all from its cache."""
        if self.root is None:
            return {}
        rates = [self._batch(inputs, ledger, len(inputs.sweep)) for _ in range(WARM_RERUNS)]
        self.close()
        return {"warm_runs_per_s": [r for r in rates if r]}

    def _batch(self, inputs: Inputs, ledger: Ledger, expect_hits: int) -> float | None:
        from repro.parallel import ResultCache, RunSpec, run_batch
        from repro.parallel.cache import result_json
        from repro.scenario import Scenario

        try:
            start = time.perf_counter()
            specs = [RunSpec.from_scenario(Scenario.from_spec(s)) for s in inputs.sweep]
            report = run_batch(specs, jobs=2, cache=ResultCache(self.root))
            rate = len(specs) / (time.perf_counter() - start)
        except Exception:
            ledger.fail(len(inputs.sweep))
            return None
        if report.hits != expect_hits:
            ledger.fail()
        for spec, result in zip(inputs.sweep, report.results):
            ledger.check(spec, None if result is None else result_json(result))
        return rate

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


class ServeProcess:
    """``repro serve --stdin`` in a child process, fed and read line by line.

    The service lives for the whole run: it answers its probe first (so it
    is up), takes one small burst per round of the closed-loop paths, and
    ends with the open-loop stream.  A reader thread timestamps every
    response line as it arrives; nothing is parsed until the run is over.
    """

    def __init__(self, probe: str) -> None:
        self.root = work_dir()
        self._stderr = open(self.root / "serve.stderr", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *SERVE_ARGS],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=tree.child_env(REPRO_CACHE_DIR=str(self.root)),
            text=True,
            bufsize=1,
        )
        self.lines: list[tuple[float, str]] = []
        #: every request sent after the probe: (spec, due time)
        self.sent: list[tuple[str, float]] = []
        self._arrived = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._send(probe + "\n")
        if not self._wait_for(1, timeout=120):
            self.close()
            raise RuntimeError("repro serve never answered its first request")

    def _read(self) -> None:
        for line in self.proc.stdout:
            now = time.perf_counter()
            with self._arrived:
                self.lines.append((now, line))
                self._arrived.notify_all()
        with self._arrived:
            self._arrived.notify_all()

    def _send(self, text: str) -> None:
        self.proc.stdin.write(text)
        self.proc.stdin.flush()

    def _wait_for(self, count: int, timeout: float) -> bool:
        """Block until ``count`` response lines have arrived (or timeout)."""
        with self._arrived:
            return self._arrived.wait_for(
                lambda: len(self.lines) >= count or not self._reader.is_alive(),
                timeout,
            ) and len(self.lines) >= count

    def burst(self, specs: list[str]) -> dict[str, list[float]]:
        """Send ``specs`` at once; their drain rate over the steady middle."""
        before = len(self.lines)
        start = time.perf_counter()
        self.sent += [(spec, start) for spec in specs]
        self._send("".join(spec + "\n" for spec in specs))
        if not self._wait_for(before + len(specs), timeout=60):
            return {}
        first, last = (before + int(share * (len(specs) - 1)) for share in STEADY)
        drain_s = self.lines[last][0] - self.lines[first][0]
        return {"serve_capacity_rps": [(last - first) / drain_s]}

    def stream(self, requests: list[Request]) -> list[int]:
        """Send each request at its due time (open loop); their indices in ``sent``.

        ``requests`` may be any slice of the stream: due times count from
        its first request.
        """
        first = len(self.sent)
        t0 = time.perf_counter() - requests[0].due
        for request in requests:
            when = t0 + request.due
            pause = when - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            self._send(request.spec + "\n")
            self.sent.append((request.spec, when))
        self._wait_for(1 + len(self.sent), timeout=60)
        return list(range(first, len(self.sent)))

    def close(self) -> None:
        """EOF drains the service; wait for it, killing it if it hangs."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._stderr.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def latencies(self, ledger: Ledger) -> dict[int, float]:
        """Check every answer; the latency of each answered request, by index.

        Latency is timed from each request's due time, so a stalled
        service also charges the requests queued behind the stall.
        Responses are charged to the oldest open request for their spec;
        identical specs carry identical results, so the match is exact
        up to which of two equal requests is charged which wait.  An
        error or refusal names no spec and counts as failed, as does a
        request never answered.
        """
        waiting: dict[str, deque[int]] = defaultdict(deque)
        for index, (spec, _due) in enumerate(self.sent):
            waiting[spec].append(index)
        latency = {}
        for arrived, line in self.lines[1:]:
            payload = json.loads(line)
            queue = waiting.get(payload.get("spec"))
            if not queue:
                ledger.fail()
                continue
            index = queue.popleft()
            spec, due = self.sent[index]
            latency[index] = arrived - due
            ledger.check(spec, canonical(payload["result"]))
        ledger.fail(sum(len(q) for q in waiting.values()))
        return latency
