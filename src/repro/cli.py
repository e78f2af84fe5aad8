"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands map one-to-one onto the experiment modules:

* ``repro run "fib:15 @ grid:10x10 / cwn?seed=3"`` — one simulation,
  summary line (the legacy ``repro run fib:15 grid:10x10 cwn`` three-part
  form still works);
* ``repro list [strategies|topologies|workloads]`` — the registered
  vocabularies the scenario spec grammar draws from;
* ``repro table1`` — the parameter-optimization sweep (Table 1);
* ``repro table2`` — the CWN/GM speedup grid (Table 2);
* ``repro table3`` — the hop-distance histogram (Table 3);
* ``repro plots [--kind dc|fib]`` — utilization-vs-goals curves (Plots 1-10);
* ``repro timeseries`` — utilization-vs-time traces (Plots 11-16);
* ``repro hypercube`` — the Appendix I experiments;
* ``repro scaling`` — CWN's edge vs machine size (the diameter conjecture);
* ``repro large`` — the same conjecture on 1024-4096-PE machines;
* ``repro grainsize`` — the medium-grain argument, measured;
* ``repro stream`` — the open-system query-stream study;
* ``repro zoo`` — every implemented strategy on one scenario;
* ``repro bounds fib:15 grid:10x10`` — analytic completion-time bounds;
* ``repro monitor fib:13 grid:8x8 cwn`` — the red/blue load film;
* ``repro cache stats|clear`` — the on-disk simulation result cache
  (``stats --json`` for machine consumption);
* ``repro bench`` — the perf-trajectory harness: canonical benches into
  a schema-versioned ``BENCH_<n>.json``, ``--compare`` as a CI gate;
* ``repro watch`` — live dashboard over a ``REPRO_TELEMETRY`` stream;
* ``repro serve`` — long-lived scenario service: HTTP/stdin fronts,
  batching + three-way dedup, a warm worker fleet scheduled by the
  paper's own dispatch policies (``--replay FILE`` races the policies
  on a recorded stream instead of serving);
* ``repro submit "fib:15 @ grid:8x8 / cwn"`` — client for a running
  ``repro serve`` (prints the same canonical JSON as ``run --json``);
* ``repro lint`` — the determinism & invariant linter
  (:mod:`repro.lint`): machine-checks the code shape the repo's
  guarantees rest on (exit 0 clean / 1 findings / 2 usage error).

All experiment commands accept ``--full`` to run at paper scale
(equivalently, set ``REPRO_FULL=1``), plus the global farm flags
``--jobs N`` (fan simulations out over N worker processes; 0 = all
cores; default serial, or ``REPRO_JOBS``) and ``--no-cache``.  Every
command routes its simulations through the declarative plan pipeline
(:mod:`repro.experiments.plan`), so the flags are honored uniformly:
results are cached by default (reruns and interrupted sweeps resume for
free) and each invocation prints one ``[farm]`` hit/miss line on
stderr, leaving stdout diff-identical to serial runs.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from contextlib import contextmanager

__all__ = ["main"]


def _jobs_count(raw: str) -> int:
    """argparse type for --jobs: a non-negative integer."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = all cores)")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Kale (ICPP 1988): CWN vs the Gradient Model",
    )
    # Farm flags shared by every command (argparse "parents" idiom, so
    # they are accepted after the subcommand: `repro table2 --jobs 4`).
    farm = argparse.ArgumentParser(add_help=False)
    farm.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help="fan simulations out over N worker processes "
        "(0 = all cores; default: serial, or REPRO_JOBS)",
    )
    farm.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache (runs otherwise skip "
        "previously computed cells and persist fresh ones)",
    )
    farm.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the [farm] hit/miss summary line on stderr "
        "(the structured farm.summary telemetry event still fires)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run one simulation",
        parents=[farm],
        description="Run one simulation, described either as a single "
        "scenario spec ('fib:15 @ grid:10x10 / cwn?seed=3') or as the "
        "legacy three positionals (workload topology strategy).",
    )
    run.add_argument(
        "scenario",
        nargs="+",
        metavar="SPEC",
        help="one scenario spec '<workload> @ <topology> / <strategy>[?k=v&...]', "
        "or three parts: workload (fib:15, dc:1:987) topology (grid:10x10) "
        "strategy (cwn, gm, acwn, ...)",
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed override; when omitted, the spec's seed=/cfg.seed= "
        "override applies, else 1",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run the one machine across N worker processes with the "
        "conservative parallel engine (bit-identical result; the "
        "scenario must be shardable — see docs/pdes.md)",
    )
    run.add_argument("--verbose", action="store_true", help="print per-PE stats")
    run.add_argument(
        "--json",
        action="store_true",
        help="print the result as canonical JSON (sorted keys, compact "
        "separators) — byte-identical to the 'result' field a running "
        "`repro serve` returns for the same spec",
    )

    lst = sub.add_parser(
        "list",
        help="list the registered strategies/topologies/workloads",
        description="Print the registries the spec grammar draws from "
        "(plugins registered via @register or entry points included).",
    )
    lst.add_argument(
        "what",
        nargs="?",
        choices=("strategies", "topologies", "workloads", "all"),
        default="all",
    )

    for name, help_text in (
        ("table1", "parameter optimization sweep (Table 1)"),
        ("table2", "CWN/GM speedup comparison grid (Table 2)"),
        ("table3", "hop-distance histogram (Table 3)"),
        ("plots", "utilization vs problem size (Plots 1-10)"),
        ("timeseries", "utilization vs time (Plots 11-16)"),
        ("hypercube", "Appendix I hypercube experiments"),
        ("scaling", "CWN's edge vs machine size (diameter conjecture)"),
        ("large", "large-machine study: 1024-4096 PEs (grid/torus3d/hypercube)"),
        ("grainsize", "grain-size sweep (the medium-grain argument)"),
        ("stream", "open-system query-stream study"),
        ("zoo", "all strategies on one scenario"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[farm])
        p.add_argument("--full", action="store_true", help="paper-scale grids")
        p.add_argument("--seed", type=int, default=1)
        if name == "plots":
            p.add_argument("--kind", choices=("dc", "fib"), default="dc")
        if name == "stream":
            p.add_argument("--queries", type=int, default=8)
            p.add_argument("--spacing", type=float, default=200.0)
        if name == "table2":
            p.add_argument("--kind", choices=("dc", "fib", "both"), default="both")
            p.add_argument(
                "--report",
                action="store_true",
                help="append a Markdown claims report (sign test, gmean CI)",
            )

    bounds = sub.add_parser("bounds", help="analytic completion-time bounds", parents=[farm])
    bounds.add_argument("workload", help="e.g. fib:15, dc:1:987")
    bounds.add_argument("topology", help="e.g. grid:10x10 (only n matters)")
    bounds.add_argument(
        "--strategy",
        default=None,
        help="also run this strategy and score it against the bounds",
    )
    bounds.add_argument("--seed", type=int, default=1)

    mon = sub.add_parser("monitor", help="replay a run as a PE-activity film", parents=[farm])
    mon.add_argument("workload")
    mon.add_argument("topology")
    mon.add_argument("strategy")
    mon.add_argument("--seed", type=int, default=1)
    mon.add_argument("--frames", type=int, default=12, help="number of frames")
    mon.add_argument("--color", action="store_true", help="ANSI 256-color output")

    cachep = sub.add_parser("cache", help="inspect or clear the result cache")
    cachep.add_argument("action", choices=("stats", "clear"))
    cachep.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: REPRO_CACHE_DIR or ~/.cache/repro-kale88)",
    )
    cachep.add_argument(
        "--json",
        action="store_true",
        help="machine-readable stats (entries, bytes, schema) on stdout",
    )

    bench = sub.add_parser(
        "bench",
        help="perf-trajectory harness: run the canonical benches, "
        "write BENCH_<n>.json, optionally gate against a baseline",
        description="Run the canonical kernel/construction/farm benches "
        "and write a schema-versioned BENCH_<n>.json trajectory point. "
        "With --compare, exit nonzero when any metric is worse than the "
        "baseline by more than the tolerance factor.",
    )
    bench.add_argument(
        "--quick", action="store_true", help="fewer repeats (the CI setting)"
    )
    bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="where to write the trajectory point (default: ./BENCH_<n>.json)",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="previous BENCH_*.json to gate against (loaded before --out "
        "is written, so both may name the same file)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        metavar="FACTOR",
        help="allowed worsening factor per metric (default 2.0; CI uses "
        "10.0 — the repo's cross-machine margin convention)",
    )
    bench.add_argument(
        "--json", action="store_true", help="print the metrics as JSON on stdout"
    )

    watch = sub.add_parser(
        "watch",
        help="live dashboard over a telemetry stream (ORACLE's monitor, "
        "rebuilt over REPRO_TELEMETRY)",
        description="Tail a telemetry JSONL stream from a running farm or "
        "sweep and render per-PE heat frames plus farm panels.  Keys in "
        "the live TTY view: q quits.  Without a TTY, prints one status "
        "line per refresh; --once renders a single snapshot and exits.",
    )
    watch.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="telemetry stream to follow (default: $REPRO_TELEMETRY)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot of the whole stream and exit",
    )
    watch.add_argument(
        "--interval", type=float, default=0.5, help="refresh period in seconds"
    )
    watch.add_argument(
        "--cols", type=int, default=None, help="heat-frame width override"
    )
    watch.add_argument("--color", action="store_true", help="ANSI 256-color frames")

    serve = sub.add_parser(
        "serve",
        help="long-lived scenario service (HTTP/stdin) over a warm "
        "worker fleet, dispatch scheduled by the paper's own policies",
        description="Serve scenario specs over HTTP (POST /run, GET "
        "/healthz, GET /stats) or stdin lines.  Identical concurrent "
        "requests coalesce onto one computation, warm results come from "
        "the shared on-disk cache, and each genuine miss is dispatched "
        "to a persistent worker fleet as it arrives.  SIGTERM drains "
        "gracefully.  --replay races a recorded request stream through "
        "several dispatch policies and reports latency percentiles and "
        "throughput per policy instead of serving.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8023, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--stdin",
        action="store_true",
        help="serve spec lines from stdin (JSONL responses on stdout) "
        "instead of HTTP",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N", help="fleet size"
    )
    serve.add_argument(
        "--policy",
        default="central",
        help="dispatch policy: central, random, roundrobin, cwn, gm "
        "(adapters of the paper's strategies; default central)",
    )
    serve.add_argument(
        "--high-water",
        type=int,
        default=256,
        metavar="N",
        help="max admitted-but-unfinished computations before 429",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="per-worker bounded task-queue depth",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the shared on-disk result cache (coalescing still on)",
    )
    serve.add_argument("--seed", type=int, default=1, help="policy RNG seed")
    serve.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay this recorded request stream through each --policies "
        "entry and print a per-policy latency/throughput table",
    )
    serve.add_argument(
        "--policies",
        default="central,random,cwn,gm",
        metavar="NAMES",
        help="comma-separated policies for --replay "
        "(default central,random,cwn,gm)",
    )
    serve.add_argument(
        "--speed",
        type=float,
        default=0.0,
        metavar="FACTOR",
        help="replay pacing: honor recorded arrival offsets scaled by "
        "FACTOR (0 = as fast as admission allows)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit one scenario spec to a running `repro serve`",
        description="POST the spec to a running serve instance and print "
        "the result as canonical JSON — byte-identical to `repro run "
        "--json` for the same spec.",
    )
    submit.add_argument("spec", help="scenario spec, e.g. 'fib:15 @ grid:8x8 / cwn'")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8023)
    submit.add_argument(
        "--timeout", type=float, default=120.0, help="client socket timeout"
    )
    submit.add_argument(
        "--envelope",
        action="store_true",
        help="print the full response envelope (key, source, wall_ms) "
        "instead of just the result JSON",
    )

    lint = sub.add_parser(
        "lint",
        help="determinism & invariant linter over the repro package",
        description="Run the AST-based rule engine (repro.lint) over the "
        "given paths (default: the installed repro package).  Exit codes: "
        "0 = clean (every finding fixed, waived inline, or baselined), "
        "1 = findings remain, 2 = usage/environment error.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text; 'github' emits ::error "
        "workflow-command annotations for CI)",
    )
    lint.add_argument(
        "--explain",
        action="store_true",
        help="print each finding's propagation trace (source→sink chain "
        "or hook→effect call path) indented under its line",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file of grandfathered findings "
        "(default: ./lint-baseline.json or the repo's copy, if present)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report grandfathered findings too)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to cover the current findings "
        "(reasons left as TODO placeholders to fill in) and exit 0",
    )
    lint.add_argument(
        "--prune-baseline",
        action="store_true",
        help="drop baseline entries that matched no finding this pass "
        "(stale debt), rewrite the file, and exit 0",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated subset of rule ids to run",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules with their one-line summaries",
    )
    return parser


def _farm_args(args: argparse.Namespace) -> tuple["int | None", object]:
    """Resolve the shared ``--jobs`` / ``--no-cache`` flags.

    ``jobs`` comes from ``--jobs`` or the ``REPRO_JOBS`` environment
    variable (``None`` = serial in-process); the content-addressed
    result cache is on by default — ``--no-cache`` opts out.
    """
    from .experiments.scale import default_jobs

    try:
        jobs = default_jobs(getattr(args, "jobs", None))
    except ValueError as exc:
        # A malformed REPRO_JOBS gets the same one-line treatment as a
        # malformed --jobs (which argparse already validates).
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if getattr(args, "no_cache", False):
        return jobs, None
    from .parallel import ResultCache

    return jobs, ResultCache()


@contextmanager
def _farmed(args: argparse.Namespace):
    """Resolve the farm flags and print one ``[farm]`` summary line.

    Yields ``(jobs, cache)`` for the experiment call and, when the body
    completes, sums the telemetry of every plan executed inside it onto
    stderr (stdout stays diff-identical to a serial, uncached run).
    The same summary is emitted as a structured ``farm.summary``
    telemetry event; ``--quiet`` suppresses only the human line.
    """
    from .experiments.plan import collect_reports
    from .obs import telemetry

    jobs, cache = _farm_args(args)
    with collect_reports() as reports:
        yield jobs, cache
    hits = sum(r.hits for r in reports)
    simulated = sum(r.executed for r in reports)
    tele = telemetry.sink()
    if tele is not None:
        tele.emit(
            "farm.summary", hits=hits, simulated=simulated, plans=len(reports)
        )
    if not getattr(args, "quiet", False):
        print(f"[farm] {hits} cache hits, {simulated} simulated", file=sys.stderr)


def _scenario_from_args(args: argparse.Namespace):
    """The ``run`` command's positionals as one Scenario.

    One positional is the scenario spec grammar; three are the legacy
    ``workload topology strategy`` form.  An explicit ``--seed`` wins;
    otherwise the spec's ``?seed=`` / ``?cfg.seed=`` override applies,
    and a run with no seed anywhere defaults to 1.
    """
    from dataclasses import replace

    from .scenario import Scenario

    parts = args.scenario
    if len(parts) == 1:
        scenario = Scenario.from_spec(parts[0])
    elif len(parts) == 3:
        scenario = Scenario(parts[0], parts[1], parts[2])
    else:
        print(
            "repro: error: run takes one scenario spec "
            "('fib:15 @ grid:10x10 / cwn') or three parts "
            "(workload topology strategy)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if args.seed is not None:
        return replace(scenario, seed=args.seed)
    return scenario.seeded()


def _plan_scenario(scenario, jobs: "int | None", cache: object):
    """Run one Scenario through the plan engine."""
    from .experiments.plan import ExperimentPlan, execute

    plan = ExperimentPlan("run", (scenario,), lambda results, _meta: results[0])
    return execute(plan, jobs=jobs, cache=cache)


def _cmd_run(args: argparse.Namespace) -> None:
    # A mistyped spec gets the registry's one-line diagnosis (names +
    # nearest match), not a traceback.  Canonicalizing eagerly resolves
    # every name through the registries, so all spec mistakes surface
    # here; errors raised later, mid-simulation, are genuine bugs and
    # propagate with their tracebacks.
    try:
        scenario = _scenario_from_args(args)
        scenario.canonical()
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if args.shards != 1:
        # The conservative parallel engine is a runtime choice, not part
        # of the scenario's identity: it bypasses the plan/cache layer
        # (a cache hit would defeat the point of running sharded) and
        # returns the bit-identical SimResult directly.
        from .pdes import NotShardable, run_sharded

        try:
            res = run_sharded(scenario, args.shards)
        except (NotShardable, ValueError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    else:
        with _farmed(args) as (jobs, cache):
            res = _plan_scenario(scenario, jobs, cache)
    if getattr(args, "json", False):
        from .parallel import result_json

        # Canonical JSON — the exact bytes a running `repro serve`
        # returns in its "result" field, so the two can be diffed.
        print(result_json(res))
        return
    print(res.summary())
    if args.verbose:
        import numpy as np

        util = res.per_pe_utilization
        print(f"result value       : {res.result_value}")
        print(f"goals executed     : {res.total_goals}")
        print(f"goal messages      : {res.goal_messages_sent}")
        print(f"response messages  : {res.response_messages_sent}")
        print(f"control words      : {res.control_words_sent}")
        print(f"events executed    : {res.events_executed}")
        print(
            "per-PE util        : "
            f"min={util.min():.2f} median={np.median(util):.2f} max={util.max():.2f}"
        )
        print(f"load balance CV    : {res.load_balance_cv:.3f}")
        print(f"busiest channel    : {res.channel_utilization.max():.2f}")


def _cmd_table1(args: argparse.Namespace) -> None:
    from .experiments.optimization import render_table1, run_optimization

    with _farmed(args) as (jobs, cache):
        results = run_optimization(
            small=not args.full, seed=args.seed, jobs=jobs, cache=cache
        )
        print(render_table1(results))


def _cmd_table2(args: argparse.Namespace) -> None:
    from .experiments.comparison import render_table2, run_comparison, summarize_claims

    with _farmed(args) as (jobs, cache):
        cells = run_comparison(
            kind=args.kind, full=args.full or None, seed=args.seed, jobs=jobs, cache=cache
        )
        print(render_table2(cells))
        print()
        print(summarize_claims(cells))
        if getattr(args, "report", False):
            from .analysis import paired_summary, render_report

            summary = paired_summary([cell.ratio for cell in cells])
            print()
            print(
                render_report(
                    "Table 2 — speedup of CWN over GM",
                    summary,
                    paper_claims={"wins": "118/120", "wins by >10%": "110/120"},
                    notes=[
                        f"{len(cells)} cells at "
                        + ("paper scale" if args.full else "reduced scale"),
                    ],
                )
            )


def _cmd_table3(args: argparse.Namespace) -> None:
    from .experiments.hops import render_table3, run_hop_study

    with _farmed(args) as (jobs, cache):
        study = run_hop_study(
            fib_n=18 if args.full else 15, seed=args.seed, jobs=jobs, cache=cache
        )
        print(render_table3(study))
        print(
            f"\ncommunication ratio (CWN/GM mean distance): {study.communication_ratio:.2f}"
        )


def _cmd_plots(args: argparse.Namespace) -> None:
    from .experiments.utilization_curves import render_curve, run_all_curves

    with _farmed(args) as (jobs, cache):
        for plot_no, curve in run_all_curves(
            kind=args.kind, full=args.full or None, seed=args.seed, jobs=jobs, cache=cache
        ):
            print(render_curve(curve, plot_no))
            print()


def _cmd_timeseries(args: argparse.Namespace) -> None:
    from .experiments.timeseries import render_timeseries, run_paper_timeseries

    with _farmed(args) as (jobs, cache):
        for plot_no, study in run_paper_timeseries(
            full=args.full or None, seed=args.seed, jobs=jobs, cache=cache
        ):
            print(render_timeseries(study, plot_no))
            print()


def _cmd_hypercube(args: argparse.Namespace) -> None:
    from .experiments.hypercube_appendix import (
        run_hypercube_curves,
        run_hypercube_timeseries,
    )
    from .experiments.timeseries import render_timeseries
    from .experiments.utilization_curves import render_curve

    with _farmed(args) as (jobs, cache):
        for _dim, curve in run_hypercube_curves(
            full=args.full or None, seed=args.seed, jobs=jobs, cache=cache
        ):
            print(render_curve(curve))
            print()
        for _n, study in run_hypercube_timeseries(
            full=args.full or None, seed=args.seed, jobs=jobs, cache=cache
        ):
            print(render_timeseries(study))
            print()


def _cmd_scaling(args: argparse.Namespace) -> None:
    from .experiments.scaling import render_scaling, run_scaling

    with _farmed(args) as (jobs, cache):
        print(
            render_scaling(
                run_scaling(full=args.full or None, seed=args.seed, jobs=jobs, cache=cache)
            )
        )


def _cmd_large(args: argparse.Namespace) -> None:
    from .experiments.large_machines import render_large_machines, run_large_machines

    with _farmed(args) as (jobs, cache):
        print(
            render_large_machines(
                run_large_machines(
                    full=args.full or None, seed=args.seed, jobs=jobs, cache=cache
                )
            )
        )


def _cmd_grainsize(args: argparse.Namespace) -> None:
    from .experiments.grainsize import render_grainsize, run_grainsize

    with _farmed(args) as (jobs, cache):
        print(render_grainsize(run_grainsize(seed=args.seed, jobs=jobs, cache=cache)))


def _cmd_stream(args: argparse.Namespace) -> None:
    from .experiments.query_stream import render_stream, run_stream

    with _farmed(args) as (jobs, cache):
        results = run_stream(
            queries=args.queries,
            spacing=args.spacing,
            seed=args.seed,
            jobs=jobs,
            cache=cache,
        )
        print(render_stream(results))


def _cmd_zoo(args: argparse.Namespace) -> None:
    from .experiments.plan import ExperimentPlan, execute
    from .scenario import Scenario

    fib_n = 15 if args.full else 13
    strategy_specs = (
        "cwn", "gm", "acwn", "gm-event", "gm-batch", "threshold", "stealing",
        "symmetric", "bidding", "diffusion", "randomwalk", "central",
        "random", "roundrobin", "local",
    )
    plan = ExperimentPlan(
        "zoo",
        tuple(
            Scenario(f"fib:{fib_n}", "grid:8x8", spec, seed=args.seed)
            for spec in strategy_specs
        ),
        lambda results, _meta: list(results),
        tuple(strategy_specs),
    )
    with _farmed(args) as (jobs, cache):
        for res in execute(plan, jobs=jobs, cache=cache):
            print(res.summary())


def _cmd_bounds(args: argparse.Namespace) -> None:
    from .scenario import Scenario
    from .validation import completion_bounds

    machine = Scenario(args.workload, args.topology, args.strategy or "local").build()
    bounds = completion_bounds(machine.program, machine.config.costs, machine.topology.n)
    print(f"{args.workload} on {machine.topology.name}:")
    print(f"  total work T1                : {bounds.work:,.0f}")
    print(f"  critical path T_inf          : {bounds.span:,.0f}")
    print(f"  lower bound max(T1/P, T_inf) : {bounds.lower:,.0f}")
    print(f"  greedy envelope T1/P + T_inf : {bounds.brent_upper:,.0f}")
    print(f"  best possible speedup        : {bounds.max_speedup:.1f}")
    if args.strategy:
        with _farmed(args) as (jobs, cache):
            res = _plan_scenario(
                Scenario(args.workload, args.topology, args.strategy, seed=args.seed),
                jobs,
                cache,
            )
        print(f"\n{res.summary()}")
        print(f"  x lower bound  : {res.completion_time / bounds.lower:.2f}")
        print(f"  x greedy bound : {bounds.quality(res.completion_time):.2f}")


def _cmd_monitor(args: argparse.Namespace) -> None:
    from .oracle.config import SimConfig
    from .oracle.monitor import render_film
    from .scenario import Scenario

    pilot = Scenario(args.workload, args.topology, args.strategy, seed=args.seed)
    with _farmed(args) as (jobs, cache):
        interval = max(_plan_scenario(pilot, jobs, cache).completion_time / args.frames, 1.0)
        cfg = SimConfig(sample_interval=interval, sample_per_pe=True, seed=args.seed)
        res = _plan_scenario(
            Scenario(args.workload, args.topology, args.strategy, cfg), jobs, cache
        )
    cols = getattr(pilot.resolve_topology(), "cols", None)
    print(res.summary())
    print(render_film(res, cols=cols, color=args.color))


def _cmd_list(args: argparse.Namespace) -> None:
    from .core import STRATEGIES
    from .topology import TOPOLOGIES
    from .workload import WORKLOADS

    sections = {
        "strategies": STRATEGIES,
        "topologies": TOPOLOGIES,
        "workloads": WORKLOADS,
    }
    wanted = sections if args.what == "all" else {args.what: sections[args.what]}
    for index, (title, registry) in enumerate(wanted.items()):
        if index:
            print()
        print(f"{title}:")
        for name in registry.names():
            meta = registry.metadata(name)
            example = str(meta.get("example", name))
            summary = str(meta.get("summary", ""))
            print(f"  {name:<12} {example:<36} {summary}".rstrip())


def _cmd_cache(args: argparse.Namespace) -> None:
    from .parallel import ResultCache

    cache = ResultCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        if getattr(args, "json", False):
            import json

            print(
                json.dumps(
                    {
                        "root": str(stats.root),
                        "schema": stats.schema,
                        "entries": stats.entries,
                        "total_bytes": stats.total_bytes,
                    },
                    indent=2,
                )
            )
            return
        print(f"cache dir    : {stats.root}")
        print(f"schema       : v{stats.schema}")
        print(f"entries      : {stats.entries}")
        print(f"size on disk : {stats.total_bytes / 1024:.1f} KiB")
    else:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")


def _cmd_bench(args: argparse.Namespace) -> None:
    from .obs import bench

    code = bench.main(
        quick=args.quick,
        out=args.out,
        compare=args.compare,
        tolerance=args.tolerance,
        as_json=args.json,
    )
    if code:
        raise SystemExit(code)


def _cmd_watch(args: argparse.Namespace) -> None:
    from .obs import watch

    try:
        if args.once:
            print(watch.watch_once(args.file, color=args.color, cols=args.cols))
        else:
            watch.watch_live(
                args.file, interval=args.interval, color=args.color, cols=args.cols
            )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import POLICY_NAMES

    if args.replay is not None:
        from .serve import render_replay, run_replay

        policies = [p.strip() for p in args.policies.split(",") if p.strip()]
        unknown = sorted(set(policies) - set(POLICY_NAMES))
        if unknown:
            print(
                f"repro: error: unknown serve polic"
                f"{'y' if len(unknown) == 1 else 'ies'}: {', '.join(unknown)} "
                f"(have: {', '.join(POLICY_NAMES)})",
                file=sys.stderr,
            )
            return 2
        try:
            stats = run_replay(
                args.replay,
                policies=policies,
                workers=args.workers,
                seed=args.seed,
                speed=args.speed,
                use_cache=not args.no_cache,
            )
        except (OSError, ValueError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        print(render_replay(stats))
        return 0

    if args.policy not in POLICY_NAMES:
        print(
            f"repro: error: unknown serve policy {args.policy!r} "
            f"(have: {', '.join(POLICY_NAMES)})",
            file=sys.stderr,
        )
        return 2
    knobs = dict(
        workers=args.workers,
        policy=args.policy,
        high_water=args.high_water,
        queue_depth=args.queue_depth,
        no_cache=args.no_cache,
        seed=args.seed,
    )
    if args.stdin:
        from .serve import serve_stdin

        return serve_stdin(**knobs)
    from .serve import serve_forever

    return serve_forever(host=args.host, port=args.port, **knobs)


def _cmd_submit(args: argparse.Namespace) -> int:
    import http.client
    import json

    conn = http.client.HTTPConnection(args.host, args.port, timeout=args.timeout)
    body = json.dumps({"spec": args.spec})
    try:
        conn.request(
            "POST", "/run", body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
    except (OSError, ValueError) as exc:
        print(
            f"repro: error: no serve instance at "
            f"http://{args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 2
    finally:
        conn.close()
    if response.status != 200:
        print(
            f"repro: error: serve answered {response.status}: "
            f"{payload.get('error', payload)}",
            file=sys.stderr,
        )
        return 1
    shown = payload if args.envelope else payload["result"]
    # Same canonical rendering as `repro run --json`, so the outputs of
    # a direct run and a served run diff byte-for-byte.
    print(json.dumps(shown, sort_keys=True, separators=(",", ":")))
    return 0


def _default_baseline() -> "str | None":
    """The baseline file ``repro lint`` uses when ``--baseline`` is absent.

    Checked in order: ``lint-baseline.json`` in the current directory,
    then next to the source checkout (two levels above the package, the
    repo root when running from ``src/``).
    """
    from pathlib import Path

    from .lint import default_root

    for candidate in (
        Path.cwd() / "lint-baseline.json",
        default_root().parent.parent / "lint-baseline.json",
    ):
        if candidate.is_file():
            return str(candidate)
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import Baseline, run_lint
    from .lint.engine import anchors_for
    from .lint.rules import RULES

    if args.list_rules:
        for name in RULES.names():
            entry = RULES.entry(name)
            summary = entry.metadata.get("summary", "")
            print(f"{name}: {summary}" if summary else name)
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(rules) - set(RULES.names()))
        if unknown:
            print(
                f"repro: error: unknown lint rule(s): {', '.join(unknown)} "
                f"(see `repro lint --list-rules`)",
                file=sys.stderr,
            )
            return 2

    from pathlib import Path

    baseline_path = args.baseline if args.baseline else _default_baseline()
    baseline = None
    if (
        not args.no_baseline
        and baseline_path is not None
        # --write-baseline may target a file that does not exist yet
        and not (args.write_baseline and not Path(baseline_path).is_file())
    ):
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2

    paths = args.paths or None
    try:
        result = run_lint(paths, baseline=baseline, rules=rules)
    except FileNotFoundError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path or "lint-baseline.json"
        anchors = anchors_for(result, paths)
        fresh = Baseline.from_findings(result.findings, anchors)
        kept = baseline.entries if baseline is not None else ()
        kept = tuple(e for e in kept if e in baseline.used) if baseline else ()
        Baseline(entries=kept + fresh.entries).save(target)
        print(
            f"[lint] wrote {len(kept) + len(fresh.entries)} entries to "
            f"{target} — fill in the TODO reasons",
            file=sys.stderr,
        )
        return 0

    if args.prune_baseline:
        if baseline is None or baseline_path is None:
            print(
                "repro: error: --prune-baseline needs a baseline file "
                "(none found, or --no-baseline given)",
                file=sys.stderr,
            )
            return 2
        kept = tuple(e for e in baseline.entries if e in baseline.used)
        dropped = len(baseline.entries) - len(kept)
        Baseline(entries=kept).save(baseline_path)
        print(
            f"[lint] pruned {dropped} stale entr"
            f"{'y' if dropped == 1 else 'ies'} from {baseline_path} "
            f"({len(kept)} kept)",
            file=sys.stderr,
        )
        return 0

    if args.format == "json":
        print(result.render_json())
    elif args.format == "github":
        print(result.render_github())
    else:
        print(result.render_text(explain=args.explain))
    return 0 if result.clean else 1


_COMMANDS = {
    "run": _cmd_run,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "plots": _cmd_plots,
    "timeseries": _cmd_timeseries,
    "hypercube": _cmd_hypercube,
    "scaling": _cmd_scaling,
    "large": _cmd_large,
    "grainsize": _cmd_grainsize,
    "stream": _cmd_stream,
    "zoo": _cmd_zoo,
    "bounds": _cmd_bounds,
    "monitor": _cmd_monitor,
    "cache": _cmd_cache,
    "list": _cmd_list,
    "bench": _cmd_bench,
    "watch": _cmd_watch,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from .obs import telemetry

    telemetry.init_from_env()
    args = _build_parser().parse_args(argv)
    if getattr(args, "full", False):
        import os

        os.environ["REPRO_FULL"] = "1"
    code = _COMMANDS[args.command](args)
    return 0 if code is None else int(code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
