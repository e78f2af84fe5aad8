"""CI gate: the registries, the CLI listing, the spec grammar and the
cache keys agree.

The first two checks drive the real console entry points so a wiring
regression (registry entry without a working example, `repro list`
output drifting from the registries, a broken `repro run` scenario
path) fails the build; the third pins every cache key the benchmark
can touch:

1. every line of ``repro list`` output names a registered entry whose
   advertised example spec actually constructs (and nothing registered
   is missing from the listing);
2. ``repro run "fib:10 @ grid:4x4 / cwn"`` exits 0;
3. every spec of ``perfbench/inputs.py``'s ``all_specs()`` hashes to
   the stored digest of its 6,484 keys, once through emptied registry
   memos and once more, warm, through fresh ``Scenario`` objects; on
   both passes each spec's hashed text (``Scenario.canonical_json``,
   spliced from memoized parts) must equal ``json.dumps`` of its
   ``canonical_dict()`` with sorted keys and compact separators.

Run me as ``PYTHONPATH=src python scripts/registry_smoke.py``.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

#: sha256 prefix over the content hashes of every perfbench spec, in
#: ``all_specs()`` order; it moves only when a change means to move keys
PERFBENCH_KEYS_DIGEST = "46f96b8e8f1aa8ba"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SECTION_FACTORIES = {
    "strategies": lambda spec: __import__("repro.core", fromlist=["make_strategy"]).make_strategy(spec),
    "topologies": lambda spec: __import__("repro.topology", fromlist=["make"]).make(spec),
    "workloads": lambda spec: __import__("repro.workload", fromlist=["make"]).make(spec),
}

#: an entry line: two-space indent, name, whitespace, example spec, ...
ENTRY = re.compile(r"^  (\S+)\s+(\S+)")


def main() -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list"], capture_output=True, text=True
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print("FAIL: `repro list` exited nonzero", file=sys.stderr)
        return 1

    section = None
    seen: dict[str, set[str]] = {name: set() for name in SECTION_FACTORIES}
    built = 0
    for line in proc.stdout.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            section = line[:-1]
            continue
        match = ENTRY.match(line)
        if not match or section not in SECTION_FACTORIES:
            continue
        name, example = match.groups()
        try:
            obj = SECTION_FACTORIES[section](example)
        except ValueError as exc:
            print(f"FAIL: {section} entry {name!r}: example {example!r} "
                  f"does not construct: {exc}", file=sys.stderr)
            return 1
        assert obj is not None
        seen[section].add(name)
        built += 1

    from repro.core import STRATEGIES
    from repro.topology import TOPOLOGIES
    from repro.workload import WORKLOADS

    for section, registry in (
        ("strategies", STRATEGIES), ("topologies", TOPOLOGIES), ("workloads", WORKLOADS)
    ):
        missing = set(registry.names()) - seen[section]
        if missing:
            print(f"FAIL: registered {section} missing from `repro list`: "
                  f"{sorted(missing)}", file=sys.stderr)
            return 1
    print(f"ok: constructed {built} registry entries from `repro list` output")

    spec = "fib:10 @ grid:4x4 / cwn"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", spec, "--no-cache"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"FAIL: `repro run {spec!r}` exited {proc.returncode}", file=sys.stderr)
        return 1
    print(f"ok: repro run {spec!r} -> {proc.stdout.strip().splitlines()[-1]}")
    return check_perfbench_keys()


def keys_digest(specs: list[str]) -> tuple[str, list[str]]:
    """The digest of the specs' keys, and the specs whose hashed text is
    not their canonical dict through ``json.dumps``."""
    from repro.scenario import Scenario

    digest = hashlib.sha256()
    drifted = []
    for spec in specs:
        scenario = Scenario.from_spec(spec)
        digest.update(scenario.content_hash().encode())
        dumped = json.dumps(scenario.canonical_dict(), sort_keys=True, separators=(",", ":"))
        if scenario.canonical_json() != dumped:
            drifted.append(spec)
    return digest.hexdigest()[:16], drifted


def check_perfbench_keys() -> int:
    """Hash every perfbench spec cold, then warm; both must give the digest."""
    from repro.core import STRATEGIES
    from repro.topology import TOPOLOGIES
    from repro.workload import WORKLOADS

    # Read perfbench's input module without writing into its directory.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    specs = inputs.all_specs()
    for registry in (STRATEGIES, TOPOLOGIES, WORKLOADS):
        registry._canonical = {}
    for memo in ("cold", "warm"):
        found, drifted = keys_digest(specs)
        if found != PERFBENCH_KEYS_DIGEST:
            print(f"FAIL: the {len(specs)} perfbench keys hash to {found} through a "
                  f"{memo} memo, not {PERFBENCH_KEYS_DIGEST}", file=sys.stderr)
            return 1
        if drifted:
            print(f"FAIL: {len(drifted)} perfbench specs hash text that is not their "
                  f"dumped canonical dict through a {memo} memo, e.g. {drifted[0]!r}",
                  file=sys.stderr)
            return 1
    print(f"ok: {len(specs)} perfbench keys digest to {PERFBENCH_KEYS_DIGEST}, and each "
          f"hashed text is its dumped canonical dict, cold and warm")
    return 0


if __name__ == "__main__":
    sys.exit(main())
