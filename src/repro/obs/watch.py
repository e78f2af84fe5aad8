"""``repro watch``: a live dashboard over a telemetry stream.

The spiritual successor of ORACLE's graphics monitor, rebuilt over the
:mod:`repro.obs.telemetry` JSONL stream instead of a dedicated output
format: point it at the file a running farm/sweep is appending to
(``REPRO_TELEMETRY=/tmp/run.jsonl repro table2 --jobs 4`` in one
terminal, ``repro watch --file /tmp/run.jsonl`` in another) and it
renders

* a farm panel — runs done/total, cache hits/misses, failures;
* an aggregate throughput panel — events/s summed over finished runs;
* the latest per-PE utilization sample as a red/blue heat frame,
  reusing :func:`repro.oracle.monitor.render_frame`'s character ramp
  (frames require a run sampled with ``SimConfig(sample_interval=...,
  sample_per_pe=True)``).

Rendering degrades gracefully: a real TTY gets a full-screen ANSI
dashboard refreshed in place (keys: ``q`` quits); a pipe gets one
status line per refresh; ``--once`` renders a single snapshot and
exits (the testable path, and handy for CI artifacts).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Iterator, TextIO

from ..oracle.monitor import _grid_shape, render_frame
from . import telemetry as _telemetry

__all__ = ["WatchState", "follow_lines", "watch_live", "watch_once"]


class WatchState:
    """Aggregated view of a telemetry stream, fed one event at a time."""

    def __init__(self) -> None:
        self.runs_total = 0
        self.runs_done = 0
        self.simulated = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.failures = 0
        self.finished_runs = 0
        self.sim_events = 0
        self.sim_wall = 0.0
        self.last_run: dict[str, Any] | None = None
        self.last_finish: dict[str, Any] | None = None
        self.last_sample: dict[str, Any] | None = None
        self.last_plan: dict[str, Any] | None = None
        #: conservative-parallel progress (repro run --shards N)
        self.shard_run: dict[str, Any] | None = None
        self.shard_window: dict[str, Any] | None = None
        self.shard_events = 0
        self.shard_sync_ms = 0.0
        self.shard_windows = 0
        self.shard_finish: dict[str, Any] | None = None
        #: scenario-service progress (repro serve)
        self.serve_info: dict[str, Any] | None = None
        self.serve_requests = 0
        self.serve_cache_hits = 0
        self.serve_coalesced = 0
        self.serve_misses = 0
        self.serve_dispatched = 0
        self.serve_completed = 0
        self.serve_errors = 0
        self.serve_busy = 0
        self.serve_wall_ms = 0.0
        self.serve_outstanding: list[int] | None = None
        self.serve_stop: dict[str, Any] | None = None
        self.events_seen = 0

    # -- ingestion ---------------------------------------------------------------

    def feed(self, event: dict[str, Any]) -> None:
        """Fold one telemetry record into the dashboard state."""
        self.events_seen += 1
        kind = event.get("ev")
        if kind == "batch.start":
            self.runs_total += int(event.get("total", 0))
        elif kind == "batch.progress":
            self.runs_done += 1
            if event.get("source") in ("sim", "local"):
                self.simulated += 1
        elif kind == "batch.finish":
            self.failures += int(event.get("failures", 0))
        elif kind == "cache.hit":
            self.cache_hits += 1
        elif kind == "cache.miss":
            self.cache_misses += 1
        elif kind == "run.start":
            self.last_run = event
        elif kind == "run.finish":
            self.last_finish = event
            self.finished_runs += 1
            self.sim_events += int(event.get("events", 0))
            self.sim_wall += float(event.get("wall_s", 0.0))
        elif kind == "sample":
            self.last_sample = event
        elif kind == "plan.report":
            self.last_plan = event
        elif kind == "shard.start":
            self.shard_run = event
            self.shard_window = None
            self.shard_events = 0
            self.shard_sync_ms = 0.0
            self.shard_windows = 0
            self.shard_finish = None
        elif kind == "shard.window":
            self.shard_window = event
            self.shard_windows = int(event.get("window", self.shard_windows + 1))
            self.shard_events += int(event.get("events", 0))
        elif kind == "shard.sync":
            self.shard_sync_ms += float(event.get("wall_ms", 0.0))
        elif kind == "shard.finish":
            self.shard_finish = event
        elif kind == "serve.start":
            self.serve_info = event
            self.serve_stop = None
        elif kind == "serve.request":
            self.serve_requests += 1
            if event.get("source") == "cache":
                self.serve_cache_hits += 1
            else:
                self.serve_misses += 1
        elif kind == "serve.coalesce":
            self.serve_requests += 1
            self.serve_coalesced += 1
        elif kind == "serve.dispatch":
            self.serve_dispatched += 1
            outstanding = event.get("outstanding")
            if isinstance(outstanding, list):
                self.serve_outstanding = [int(v) for v in outstanding]
        elif kind == "serve.complete":
            self.serve_completed += 1
            self.serve_wall_ms += float(event.get("wall_ms", 0.0))
            if not event.get("ok", True):
                self.serve_errors += 1
        elif kind == "serve.busy":
            self.serve_busy += 1
        elif kind == "serve.stop":
            self.serve_stop = event

    def feed_line(self, line: str) -> None:
        for event in _telemetry.read_events(_StringSource(line)):
            self.feed(event)

    # -- derived -----------------------------------------------------------------

    @property
    def events_per_s(self) -> float:
        """Aggregate simulated events/s over all finished runs."""
        return self.sim_events / self.sim_wall if self.sim_wall > 0 else 0.0

    # -- rendering ---------------------------------------------------------------

    def status_line(self) -> str:
        """One compact line (the non-TTY live mode)."""
        line = (
            f"runs {self.runs_done}/{self.runs_total}"
            f" · cache {self.cache_hits}h/{self.cache_misses}m"
            f" · {self.events_per_s / 1000:.0f}k evt/s"
            f" · failures {self.failures}"
        )
        if self.serve_requests:
            line += (
                f" · serve {self.serve_requests} req "
                f"({self.serve_cache_hits + self.serve_coalesced} dedup)"
            )
        return line

    def render(self, color: bool = False, cols: int | None = None) -> str:
        """The full dashboard as text (one frame of the live view)."""
        lines = [
            f"runs       : {self.runs_done} done / {self.runs_total} planned "
            f"({self.simulated} simulated, {self.failures} failed)",
            f"cache      : {self.cache_hits} hits / {self.cache_misses} misses",
        ]
        if self.finished_runs:
            lines.append(
                f"throughput : {self.events_per_s:,.0f} events/s "
                f"over {self.finished_runs} finished run(s)"
            )
        current = self.last_run
        if current is not None:
            lines.append(
                "last run   : "
                f"{current.get('workload')} @ {current.get('topology')} "
                f"/ {current.get('strategy')} ({current.get('n_pes')} PEs)"
            )
        if self.last_plan is not None:
            plan = self.last_plan
            lines.append(
                f"last plan  : {plan.get('plan')} — {plan.get('runs')} runs, "
                f"{plan.get('hits')} hits, {plan.get('simulated')} simulated"
            )
        if self.shard_run is not None:
            run = self.shard_run
            head = (
                f"shards     : {run.get('shards')} x "
                f"{run.get('workload')} @ {run.get('topology')} "
                f"/ {run.get('strategy')} "
                f"(lookahead {run.get('lookahead')}, "
                f"{run.get('boundary_channels')} boundary channels)"
            )
            lines.append(head)
            if self.shard_finish is not None:
                fin = self.shard_finish
                lines.append(
                    f"  done     : {fin.get('windows')} windows, "
                    f"{fin.get('events'):,} events, "
                    f"{float(fin.get('events_per_s', 0.0)):,.0f} events/s"
                )
            elif self.shard_window is not None:
                win = self.shard_window
                lines.append(
                    f"  window {self.shard_windows}: "
                    f"horizon {float(win.get('horizon', 0.0)):.1f}, "
                    f"{win.get('shards_active')} shard(s) active, "
                    f"{self.shard_events:,} events, "
                    f"sync {self.shard_sync_ms:.0f} ms"
                )
        if self.serve_info is not None or self.serve_requests:
            info = self.serve_info or {}
            where = (
                f"http://{info.get('host')}:{info.get('port')} · "
                if info.get("host") is not None
                else ""
            )
            lines.append(
                f"serve      : {where}{info.get('workers', '?')} worker(s) · "
                f"policy {info.get('policy', '?')}"
                + (" · stopped" if self.serve_stop is not None else "")
            )
            dedup = self.serve_cache_hits + self.serve_coalesced
            lines.append(
                f"  requests : {self.serve_requests} "
                f"({self.serve_cache_hits} cache, {self.serve_coalesced} "
                f"coalesced, {self.serve_misses} computed) · "
                f"{self.serve_busy} busy · {self.serve_errors} errors"
                + (
                    f" · dedup {100 * dedup / self.serve_requests:.0f}%"
                    if self.serve_requests
                    else ""
                )
            )
            if self.serve_dispatched:
                mean_ms = (
                    self.serve_wall_ms / self.serve_completed
                    if self.serve_completed
                    else 0.0
                )
                outstanding = (
                    " ".join(str(v) for v in self.serve_outstanding)
                    if self.serve_outstanding is not None
                    else "?"
                )
                lines.append(
                    f"  fleet    : {self.serve_dispatched} dispatched · "
                    f"{self.serve_completed} done · "
                    f"mean {mean_ms:.0f} ms · outstanding [{outstanding}]"
                )
        sample = self.last_sample
        if sample is not None:
            per_pe = sample.get("per_pe")
            head = (
                f"sample     : t={sample.get('sim_time', 0.0):.1f} "
                f"util={100 * float(sample.get('utilization', 0.0)):.1f}% "
                f"queue={sample.get('queue_depth', '?')}"
            )
            lines.append(head)
            if per_pe:
                frame_cols = cols if cols is not None else sample.get("cols")
                rows, ncols = _grid_shape(len(per_pe), frame_cols)
                lines.append(f"PE heat ({rows}x{ncols}, {len(per_pe)} PEs):")
                lines.append(render_frame(per_pe, frame_cols, color))
        if self.events_seen == 0:
            lines.append("(no telemetry events yet)")
        return "\n".join(lines)


class _StringSource:
    """Minimal read()-able wrapper so feed_line reuses read_events."""

    __slots__ = ("_text",)

    def __init__(self, text: str) -> None:
        self._text = text

    def read(self) -> str:
        return self._text


# -- stream plumbing -------------------------------------------------------------

def _resolve_stream(path: str | Path | None) -> Path:
    """The stream to watch: ``--file``, else ``$REPRO_TELEMETRY``."""
    import os

    if path is None:
        path = os.environ.get(_telemetry.ENV_VAR)
    if not path or path == "-":
        raise ValueError(
            "no telemetry stream: pass --file or set REPRO_TELEMETRY to a path"
        )
    return Path(path)


def follow_lines(
    path: Path,
    interval: float = 0.5,
    stop: Any = None,
) -> Iterator[list[str]]:
    """``tail -f`` as a generator: yields each poll's batch of new lines.

    Yields an empty list on quiet polls so the caller can refresh clocks
    or poll the keyboard; ``stop`` (a callable) ends the follow when it
    returns True.  A not-yet-created file is awaited, not an error.
    """
    offset = 0
    while True:
        if stop is not None and stop():
            return
        batch: list[str] = []
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(offset)
                text = fh.read()
                # Hold back a trailing partial line until its newline lands.
                complete = text.rfind("\n") + 1
                offset += len(text[:complete].encode("utf-8"))
                batch = text[:complete].splitlines()
        yield batch
        time.sleep(interval)


# -- entry points ----------------------------------------------------------------

def watch_once(
    path: str | Path | None,
    color: bool = False,
    cols: int | None = None,
) -> str:
    """Snapshot the whole stream and render one dashboard frame."""
    stream = _resolve_stream(path)
    state = WatchState()
    if stream.exists():
        for event in _telemetry.read_events(stream):
            state.feed(event)
    return f"repro watch · {stream}\n" + state.render(color=color, cols=cols)


def _watch_tty(
    stream: Path,
    interval: float,
    color: bool,
    cols: int | None,
    out: TextIO,
) -> None:
    """Full-screen ANSI refresh loop; ``q`` (or Ctrl-C) quits."""
    import select
    import termios
    import tty

    fd = sys.stdin.fileno()
    saved = termios.tcgetattr(fd)
    quit_requested = [False]

    def poll_quit() -> bool:
        while select.select([sys.stdin], [], [], 0)[0]:
            if sys.stdin.read(1).lower() == "q":
                quit_requested[0] = True
        return quit_requested[0]

    state = WatchState()
    try:
        tty.setcbreak(fd)
        for batch in follow_lines(stream, interval, stop=poll_quit):
            for line in batch:
                state.feed_line(line)
            frame = state.render(color=color, cols=cols)
            out.write(
                "\x1b[H\x1b[2J"  # home + clear
                f"repro watch · {stream} · q quits\n{frame}\n"
            )
            out.flush()
    finally:
        termios.tcsetattr(fd, termios.TCSADRAIN, saved)


def _watch_lines(
    stream: Path,
    interval: float,
    out: TextIO,
) -> None:
    """Plain line mode for pipes/redirects: one status line per change."""
    state = WatchState()
    last = ""
    for batch in follow_lines(stream, interval):
        for line in batch:
            state.feed_line(line)
        status = state.status_line()
        if batch and status != last:
            out.write(status + "\n")
            out.flush()
            last = status


def watch_live(
    path: str | Path | None,
    interval: float = 0.5,
    color: bool = False,
    cols: int | None = None,
    out: TextIO | None = None,
) -> None:
    """Follow the stream until interrupted (TTY dashboard or line mode)."""
    stream = _resolve_stream(path)
    out = sys.stdout if out is None else out
    is_tty = getattr(out, "isatty", lambda: False)() and sys.stdin.isatty()
    try:
        if is_tty:
            _watch_tty(stream, interval, color, cols, out)
        else:
            _watch_lines(stream, interval, out)
    except KeyboardInterrupt:
        pass
