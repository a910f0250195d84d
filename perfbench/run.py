"""singlink benchmark: run one workload, check every output, print one JSON line.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its src/.
--trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
run and prints the per-layer metrics.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}.  perfbench/README.md
describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads
from workloads import ROOT, SRC, KnownFault, Mismatch

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
IMPORT_RUNS = 7  # fresh interpreters each for the bare start and the import
REFERENCE_S = 1.0e-3  # fastest time of reference_loop on the reference machine
REFERENCE_RUNS = 5  # reference loops after each pass and each set-up

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("families_per_s", "1/s"),
    ("family_p50_ms", "ms"),
    ("family_p97_ms", "ms"),
    ("diagrams_per_s", "1/s"),
    ("cold_start_p50_ms", "ms"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_spawn(argv: list[str], env: dict):
    """Run a fresh process to completion: (seconds, exit code, stdout, stderr, max RSS KB)."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        # stderr carries at most a one-line diagnostic, so reading stdout
        # first cannot fill the stderr pipe; wait4 reaps the child and
        # returns its own resource usage.
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, proc.returncode, out, err, usage.ru_maxrss


class Runner:
    """Runs the workload's ops, checks their outputs, keeps the counts."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.child_rss_kb = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self._verdicts: dict[tuple, tuple] = {}  # (op, call) -> (first digest, verdict)

    def _call(self, call, fresh: bool, trace: tracer.Tracer | None):
        if fresh:
            argv = [sys.executable, "-m", "singlink", *call.argv]
            if trace is not None:
                spans_file = OUT_DIR / "child-spans.jsonl"
                argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans_file),
                        *call.argv]
            _, code, out, err, rss = timed_spawn(argv, self.env)
            self.child_rss_kb = max(self.child_rss_kb, rss)
            if trace is not None:
                with open(spans_file) as f:
                    spans = [json.loads(line) for line in f]
                for span in spans:
                    span[2] = trace.op
                trace.extend(spans)
            return code, out, err
        try:
            code, out = self.cli.run(call.request)  # attribute lookup: traced when installed
        except Exception:  # the program raised: a failed op, reported with its traceback
            return None, b"", traceback.format_exc().encode()
        return code, out, b""

    def run_op(self, key, op: workloads.Op, fresh: bool,
               trace: tracer.Tracer | None = None) -> float:
        """Run one op; return its latency in seconds.  Checks run after the clock stops."""
        if trace is not None:
            trace.op = key
        t0 = time.perf_counter()
        results = [self._call(call, fresh, trace) for call in op.calls]
        latency = time.perf_counter() - t0
        self.attempted += 1
        for i, (call, result) in enumerate(zip(op.calls, results)):
            failure = self._verdict((id(op), i), call, *result)
            if failure is not None:
                self.failed += 1
                if not isinstance(failure, KnownFault):
                    self.correct = False
                    print(f"FAILED {op.label}: {type(failure).__name__}: {failure}",
                          file=sys.stderr)
                break
        return latency

    def _verdict(self, key, call, code, out, err) -> Exception | None:
        """Check one call's output.  A call must give the same exit code and
        stdout on every pass; once it has, its first verdict stands."""
        digest = (code, hashlib.sha256(out).digest())
        if key in self._verdicts:
            first, verdict = self._verdicts[key]
            if digest != first:
                return Mismatch(f"{' '.join(call.argv)}: output differs from its first run")
            return verdict
        try:
            call.check(code, out, err)
            verdict = None
        except (KnownFault, Mismatch, LookupError, TypeError, ValueError, AttributeError) as exc:
            verdict = exc
        self._verdicts[key] = (digest, verdict)
        return verdict

    def pin(self, number: int) -> None:
        """Run on one allowed CPU, a different one for each consecutive number.

        On a shared machine the slow phases of the CPUs overlap only in part, so
        passes that take turns on them give each op more chances of a pass
        at full speed (see ``fastest``).
        """
        os.sched_setaffinity(0, {self.cpus[number % len(self.cpus)]})

    def run_pass(self, number: int, trace: tracer.Tracer | None = None) -> list[float]:
        fresh = self.workload.fresh_process
        if trace is not None and not fresh:
            trace.install()
        try:
            return [self.run_op((number, i), op, fresh, trace)
                    for i, op in enumerate(self.workload.ops)]
        finally:
            if trace is not None:
                trace.uninstall()


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fastest(passes: list[list[float]]) -> list[float]:
    """Each op's fastest latency over the passes.

    The reference machine (2 cores shared with other tenants) runs the same
    pure-Python loop at two speeds 30-40% apart, switching every few
    seconds.  Whichever speed holds for most of a run sets a median, so
    medians of repeated runs scatter by the whole gap; the fastest pass of
    each op does not, as long as the op is short next to those phases.
    """
    return [min(column) for column in zip(*passes)]


def reference_loop() -> int:
    """A fixed pure-Python job that runs no singlink code: integer
    arithmetic, str and tuple building, a dict.  About 1 ms at full speed."""
    acc, rows = 0, []
    for i in range(4000):
        row = (i, i * i, -i)
        rows.append(row)
        acc += row[1] % 7 + len(str(i))
    return acc + len({row[0]: row for row in rows})


def reference_time() -> float:
    best = float("inf")
    for _ in range(REFERENCE_RUNS):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def end_to_end(args, runner: Runner) -> dict[str, float]:
    workload = runner.workload
    setup_argv = [sys.executable, str(HERE / "child.py"), "setup", args.workload, str(args.seed)]
    setups, cold, passes, references = [], [], [], []

    def set_up():
        """One fresh set-up, timed from launch to exit."""
        runner.pin(len(setups))
        seconds, code, _, err, _ = timed_spawn(setup_argv, runner.env)
        if code != 0:
            sys.exit(f"perfbench: set-up failed: {err.decode(errors='replace')}")
        setups.append(seconds)
        references.append(reference_time())

    # Set-ups at the start, the middle and the end; one cold-start probe after
    # each pass, so that both sample the whole run.
    start = time.perf_counter()
    set_up()
    while len(passes) < workload.min_passes or time.perf_counter() - start < args.seconds:
        runner.pin(len(passes))
        passes.append(runner.run_pass(len(passes)))
        references.append(reference_time())
        if workload.cold is not None:
            cold.append(runner.run_op(("cold", len(cold)), workload.cold, fresh=True))
        if len(setups) == 1 and time.perf_counter() - start >= args.seconds / 2:
            set_up()
    set_up()

    # Times at the reference speed: a slow phase that outlasts the run slows
    # the reference loop about as much as the program, so the ratio holds.
    scale = REFERENCE_S / min(references)
    typical = [t * scale for t in fastest(passes)]
    wall = sum(typical)
    rss_kb = (runner.child_rss_kb if workload.fresh_process
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(f"{workload.name}: {len(passes)} passes of {len(workload.ops)} ops, "
          f"{len(cold)} cold-start probes, {len(setups)} set-ups; reference loop "
          f"{min(references) * 1e3:.4f} ms, so times are scaled by {scale:.4f}")
    return {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": wall,
        "peak_rss_mb": rss_kb / 1024,
        "families_per_s": len(typical) / wall,
        "family_p50_ms": quantile(typical, 50) * 1e3,
        "family_p97_ms": quantile(typical, 97) * 1e3,
        "diagrams_per_s": sum(op.diagrams for op in workload.ops) / wall,
        # on cli every op is a fresh-interpreter call; elsewhere, the probe's fastest
        "cold_start_p50_ms": (min(cold) * scale if cold else quantile(typical, 50)) * 1e3,
    }


def import_ms(env: dict) -> float:
    """Import of singlink.cli in a fresh interpreter, minus a bare interpreter
    start; the fastest of IMPORT_RUNS each (see ``fastest``)."""
    bare, imported = [], []
    for _ in range(IMPORT_RUNS):
        bare.append(timed_spawn([sys.executable, "-c", "pass"], env)[0])
        imported.append(timed_spawn([sys.executable, "-c", "import singlink.cli"], env)[0])
    return (min(imported) - min(bare)) * 1e3


def per_layer(args, runner: Runner) -> dict[str, float]:
    """Untraced and traced passes in turn; layer figures come from the traced ones."""
    OUT_DIR.mkdir(exist_ok=True)
    trace = tracer.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        runner.pin(len(traced))  # each pair on one CPU, so the CPUs do not bias the overhead
        plain.append(runner.run_pass(len(plain)))
        traced.append(runner.run_pass(len(traced), trace))
    trace.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    print(f"{runner.workload.name}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{len(trace.spans)} spans")
    metrics = tracer.layer_metrics(trace.spans, len(traced))
    metrics["cli.import_ms"] = import_ms(runner.env)
    metrics["trace.overhead_s"] = sum(fastest(traced)) - sum(fastest(plain))
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli, workload = workloads.set_up(args.workload, args.seed)
    runner = Runner(cli, workload)
    if args.trace:
        values = per_layer(args, runner)
        units = [(name, unit) for name, unit, _ in tracer.METRICS]
    else:
        values = end_to_end(args, runner)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, unit in units:
        print(f"  {name:55s} {values[name]:14.6g} {unit}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}, correct {runner.correct}")
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
