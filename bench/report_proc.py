"""Produce one ``lce`` report in this process, the way ``lce verify`` does, and
print its timings as one JSON line.

Usage: python3 report_proc.py CONFIG OUT_JSON SPAWNED [--trace]

SPAWNED is the ``time.monotonic()`` reading the parent took just before it
started this process; ``setup_s`` runs from there to the first check.  With
``--trace`` the report runs with the per-module wrappers of ``layers.py``
installed, and their raw counts and times are part of the output.
"""

import hashlib
import json
import resource
import sys
import time


def main(argv) -> int:
    config_path, out_path, spawned = argv[0], argv[1], float(argv[2])
    trace = "--trace" in argv[3:]

    from lce import harness

    tracer = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    cfg = harness.load_config(config_path)
    t_start = time.monotonic()
    try:
        doc = harness.run_config(cfg)
        harness.emit_report(doc, out_path, out_path.rsplit(".", 1)[0] + ".csv")
        t_end = time.monotonic()
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "setup_s": t_start - spawned,
        "report_s": t_end - t_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "canonical_sha256": hashlib.sha256(doc.canonical_bytes()).hexdigest(),
        "exit_code": doc.exit_code(),
    }
    if tracer is not None:
        result["trace"] = layers.snapshot(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
