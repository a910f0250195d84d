"""Run workloads over several seeds and summarise the spread.

    python3 perfbench/report.py --seeds 10 [--seconds 25] [--workloads suite,cli] [--trace]

By default it runs the workloads BENCHMARK.json gates, for its run_seconds.
For each workload it runs run.py once per seed (1..N) with tracing off and
prints, for each end-to-end metric, the median, the quartile spread
(q3 - q1) / median and the bound from BENCHMARK.json, and the operations
attempted and failed.  With --trace it then makes one traced run per workload
(seed 1) and prints the per-layer metrics side by side.  Everything it
printed is also written to .perfbench_out/report.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    report = {"seconds": args.seconds, "end_to_end": {}, "per_layer": {}}
    for workload in workloads:
        results = [run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {args.seeds} seeds, correct {all(r['correct'] for r in results)}, "
              f"attempted {attempted}, failed {failed}, failed share per run {shares}")
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = name == "setup_s" or spread < metric["bound"] / 3
            flag = "" if steady else "  <-- above bound/3"
            print(f"  {name:20s} {median:12.5g} {metric['unit']:4s} spread {spread:6.3f}"
                  f"  bound {metric['bound']}{flag}")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "values": values}
        report["end_to_end"][workload] = {"failed_share": shares, "metrics": rows}

    if args.trace:
        traced = {w: run(w, 1, args.seconds, 1)["metrics"] for w in workloads}
        print("\nper-layer, seed 1:" + "".join(f"{w:>12s}" for w in workloads))
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = [traced[w][name]["value"] for w in workloads]
            print(f"  {name:54s}" + "".join(f"{v:12.5g}" for v in values))
        report["per_layer"] = {w: {k: v["value"] for k, v in m.items()} for w, m in traced.items()}

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
