"""Run one workload of the benchmark and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kcore-cold --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics (a metric of a layer this
workload does not reach reads 0).  The line before it gives the host
fingerprint, the per-layer values measured (the exact counters in every
run) and details such as the tail percentile and sample count.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = {
    "kcore-cold": "kcore_cold",
    "table1-batch": "table1_batch",
    "iblt-stream": "iblt_stream",
    "serve-recon": "serve_recon",
}


def _metric_specs(trace: bool):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from harness import check_ledger, host_fingerprint

    trace = bool(args.trace)
    module = importlib.import_module(MODULES[args.workload])
    report = module.run(args.seed, args.seconds, trace)

    problems = list(report.problems)
    mismatched = check_ledger(src, args.workload, args.seed, report.counters)
    if mismatched:
        problems.append(f"exact counters differ from an earlier run at ops {mismatched[:10]}")
    if report.failed:
        problems.append(f"{report.failed} of {report.attempted} ops failed verification")

    values = report.per_layer if trace else report.end_to_end
    metrics = {}
    for spec in _metric_specs(trace):
        name = spec["name"]
        if name not in values and not trace:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}

    print(json.dumps({"host": host_fingerprint(), "workload": args.workload,
                      "seed": args.seed, "trace": trace, "details": report.details,
                      "per_layer": report.per_layer, "problems": problems}))
    print(json.dumps({
        "correct": not problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
