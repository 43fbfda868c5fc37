"""One workload run in a fresh process (spawned by ``run.py``).

    python bench/worker.py --workload NAME --seed N --seconds S
        --spawned-at T [--trace] [--smoke] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn (the clock is system-wide), so ``setup_s`` counts interpreter
start and imports.  The result document is the one line this process
writes to standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import SRC, peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.smoke, tracer)
    workload.setup()
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        result.update(workload.run(args.seconds))
    if tracer is not None and not args.setup_only:
        result["spans"], result["counts_traced"] = tracer.totals()
    result["peak_rss_mb"] = peak_rss_mb()
    result["tail_pct"] = workload.tail_pct
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
