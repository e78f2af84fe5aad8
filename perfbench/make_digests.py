"""Regenerate ``digests.json``: the reference result of every benchmark scenario.

Run from the root of a checkout of the commit whose results are the
reference (serial, in process, about a minute on 2 cores)::

    python3 perfbench/make_digests.py

Each entry is the 128-bit sha256 prefix of ``result_json`` of the serial
run, keyed by scenario shape and seed.  A later commit must reproduce
every one of them byte for byte.
"""

from __future__ import annotations

import json

import inputs
import tree


def main() -> None:
    tree.import_program()
    from repro.parallel.cache import result_json
    from repro.scenario import Scenario

    table: dict[str, dict[str, str]] = {}
    for spec in inputs.all_specs():
        base, _, seed = spec.partition("?seed=")
        result = Scenario.from_spec(spec).run()
        table.setdefault(base, {})[seed] = inputs.digest(result_json(result))
    inputs.DIGESTS_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{sum(len(v) for v in table.values())} digests -> {inputs.DIGESTS_PATH}")


if __name__ == "__main__":
    main()
