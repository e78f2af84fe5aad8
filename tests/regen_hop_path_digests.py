"""Record ``tests/golden/hop_path_digests.json``.

Run on the commit *before* an intentional change to the machine's hop
path, so the golden file holds what the change must reproduce::

    PYTHONPATH=src python tests/regen_hop_path_digests.py

Rerunning it after the change must leave the file byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_hop_path import CASES, GOLDEN, digest  # noqa: E402


def main() -> None:
    golden = {case: digest(build()) for case, build in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} — {len(golden)} result digests")


if __name__ == "__main__":
    main()
