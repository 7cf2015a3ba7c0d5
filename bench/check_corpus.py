"""Check that the benchmark's corpus generator reproduces the test corpus.

Run from the repository root:

    python3 bench/check_corpus.py

Compares ``workloads.corpus(202408)`` with ``tests/conftest.py::build_corpus``
instance for instance through their serialized documents.  Exits 0 when all
200 match and 1 otherwise.  The benchmark itself never imports ``tests/``;
this check does, so it needs the test dependencies (pytest).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from binprice import serialize_instance  # noqa: E402
from conftest import build_corpus  # noqa: E402
from workloads import DEFAULT_CORPUS_SEED, corpus  # noqa: E402


def main() -> int:
    ours = corpus(DEFAULT_CORPUS_SEED)
    theirs = build_corpus(DEFAULT_CORPUS_SEED)
    bad = []
    for i, (a, b) in enumerate(zip(ours, theirs)):
        want = b.production if b.production is not None else b.laminar
        if (json.dumps(serialize_instance(a), sort_keys=True)
                != json.dumps(serialize_instance(want), sort_keys=True)):
            bad.append(i)
    if len(ours) != len(theirs) or bad:
        print(f"corpus mismatch: {len(ours)} vs {len(theirs)} instances, "
              f"differing at {bad[:10]}", file=sys.stderr)
        return 1
    print(f"corpus seed {DEFAULT_CORPUS_SEED}: all {len(ours)} instances "
          f"match build_corpus()")
    return 0


if __name__ == "__main__":
    sys.exit(main())
