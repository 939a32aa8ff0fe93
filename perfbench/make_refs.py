"""Regenerate refs.json: the sha256 of every certificate the benchmark
expects, computed with the current sources.

    python3 perfbench/make_refs.py [--seeds 100]

Instances whose inputs do not depend on the seed get one reference
("any"); seeded instances get one per seed in 0..seeds-1.  Run it only
when a change declares a certificate format change; otherwise the
references are the check that certificates stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, REFS, SRC, VERIFY_REPEATS, sha256

sys.path[:0] = [str(SRC), str(HERE)]

import chromcert  # noqa: E402
from workloads import CERT, build  # noqa: E402


def cert_hash(inst) -> str:
    return sha256(chromcert.extract(inst.graph, inst.cfg).to_json())


def main() -> int:
    ap = argparse.ArgumentParser(description="regenerate refs.json")
    ap.add_argument("--seeds", type=int, default=100)
    args = ap.parse_args()
    doc: dict[str, dict] = {}
    for workload in sorted(VERIFY_REPEATS):
        refs: dict[str, dict] = {}
        for seed in range(args.seeds):
            for inst in build(workload, seed):
                if inst.expected != CERT or inst.known_defect is not None:
                    continue
                if not inst.seeded:
                    if seed == 0:
                        refs[inst.name] = {"any": cert_hash(inst)}
                    continue
                refs.setdefault(inst.name, {"seeds": {}})["seeds"][str(seed)] = cert_hash(inst)
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
        doc[workload] = refs
    REFS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
