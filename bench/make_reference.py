"""Write the reference report of each workload at its default seed.

Usage: PYTHONPATH=src python3 bench/make_reference.py [WORKLOAD ...]

The reference holds the rows (check id, inputs, status, measured values) and
the tolerances that ``workloads.compare_rows`` judges later reports by.  Run
it only when a change is meant to alter the report.
"""

import hashlib
import json
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, ROW_ATOL, WORKLOADS, config_doc


def reference_doc(workload: str) -> dict:
    from lce import harness

    cfg = harness.ExperimentConfig.from_doc(config_doc(workload, DEFAULT_SEED))
    doc = harness.run_config(cfg)
    rows = [
        {"check_id": r.check_id, "inputs": r.inputs, "status": r.status, "measured": r.measured}
        for r in doc.results
    ]
    return {
        "workload": workload,
        "seed": DEFAULT_SEED,
        "config": cfg.to_doc(),
        "canonical_sha256": hashlib.sha256(doc.canonical_bytes()).hexdigest(),
        "tolerances": {name: cfg.tol(name) for name in sorted(set(ROW_ATOL.values()))},
        "summary": doc.summary,
        "rows": rows,
    }


def main(names) -> int:
    out_dir = Path(__file__).resolve().parent / "reference"
    out_dir.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        doc = reference_doc(name)
        (out_dir / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"{name}: {doc['summary']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
