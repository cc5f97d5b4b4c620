"""neutrolab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it uses the neutrolab sources under
src/ and writes scratch files under .perfbench/. With `--trace 0` it prints
the end-to-end metrics, with `--trace 1` the per-layer ones; see
perfbench/README.md for what each means and which layer it should move.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("verify-suite", "structure-queries", "formal-sums")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "1",
    "cli_cold_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "claims.setup.busy_ms": "ms",
    "engine.run_claim.prop.busy_ms": "ms",
    "engine.run_claim.remark.busy_ms": "ms",
    "engine.run_claim.example.busy_ms": "ms",
    "engine.run_claim.classification.busy_ms": "ms",
    "engine.run_claim.trials": "count",
    "subsets.enumerate_subs.scan.calls": "count",
    "subsets.enumerate_subs.scan.busy_ms": "ms",
    "subsets.enumerate_subs.scan.subsets": "count",
    "subsets.enumerate_subs.scan.failed": "count",
    "subsets.enumerate_subs.generate.calls": "count",
    "subsets.enumerate_subs.generate.busy_ms": "ms",
    "subsets.enumerate_subs.generate.subsets": "count",
    "subsets.enumerate_subs.generate.failed": "count",
    "subsets.closure.calls": "count",
    "subsets.closure.busy_ms": "ms",
    "subsets.classify_lagrange.busy_ms": "ms",
    "subsets.check_predicate.magma.busy_ms": "ms",
    "subsets.check_predicate.ring.busy_ms": "ms",
    "ncollect.check.busy_ms": "ms",
    "softsets.op.calls": "count",
    "softsets.op.busy_ms": "ms",
    "softsets.soft_is.busy_ms": "ms",
    "engine.run_remark_hunt.calls": "count",
    "engine.run_remark_hunt.busy_ms": "ms",
    "engine.run_remark_hunt.trials": "count",
    "engine.run_remark_hunt.us_per_trial": "us",
    "io.load_structure.busy_ms": "ms",
    "structures.verify_kind.busy_ms": "ms",
    "scalars.ring_axiom_violations.busy_ms": "ms",
    "groupring.mul.calls": "count",
    "groupring.mul.us_per_call": "us",
    "groupring.add.calls": "count",
    "groupring.add.us_per_call": "us",
    "subsets.gr_predicate.busy_ms": "ms",
    "groupring.triples.busy_ms": "ms",
    "groupring.codec.calls": "count",
    "groupring.codec.busy_ms": "ms",
    "groupring.codec.failed": "count",
    "io.soft_roundtrip.busy_ms": "ms",
    "groupring.generated_ideal.calls": "count",
    "groupring.generated_ideal.busy_ms": "ms",
    "groupring.generated_ideal.failed": "count",
    "groupring.mul.z2c4.us_per_call": "us",
    "groupring.add.z2c4.us_per_call": "us",
    "subsets.enumerate_subs.g421-scan.busy_ms": "ms",
    "subsets.enumerate_subs.g421-generate.busy_ms": "ms",
    "subsets.enumerate_subs.g832-generate.busy_ms": "ms",
    "structures.neutro_ring.z6.busy_ms": "ms",
    "engine.run_claim.prop-4.1.1.busy_ms": "ms",
    "bench.failed_ratio": "1",
    "bench.trace_overhead_ratio": "1",
}

# setup_s is the median over SETUP_PROBES fresh processes that only set up
# and the measuring worker. cli_cold_s is the median wall time of fresh CLI
# processes: one after each set-up probe, then more after the worker while
# they take under CLI_BUDGET_S in all, up to CLI_MAX_RUNS. The host's speed
# drifts by tens of percent over tens of seconds, so the samples are spread
# over the whole run, and each is scaled to reference seconds by the kernel
# timed just before and just after it.
SETUP_PROBES = 6
CLI_MAX_RUNS = 15
CLI_BUDGET_S = 4.0
DEADLINE_S = 170  # every child is stopped in time for a result within 180 s


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # fixed string hashing, so set iteration order is the same on every run
    env["PYTHONHASHSEED"] = "0"
    return env


def child(argv, deadline):
    """Run a child process to completion, or stop it at the deadline."""
    try:
        return subprocess.run(argv, cwd=ROOT, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()),
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in time" % " ".join(argv[1:3]))


def worker(args, mode, workdir, deadline):
    proc = child([sys.executable, WORKER, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--mode", mode,
                  "--workdir", workdir], deadline)
    if proc.returncode != 0:
        raise BenchError("worker (%s) exited %d:\n%s"
                         % (mode, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ColdCli:
    """Fresh `neutrolab <argv>` processes: their wall times, and the first
    reason an output was wrong (None while every run was right)."""

    def __init__(self, spec, deadline):
        self.spec = spec
        self.deadline = deadline
        self.times = []  # reference seconds, see calibrate.py
        self.measured = []
        self.wrong = None

    def run(self):
        for _ in range(3):  # the parent has idled: warm it up first
            before = calibrate.sample()
        t = time.perf_counter()
        proc = child([sys.executable, "-m", "neutrolab.cli"] + self.spec["argv"],
                     self.deadline)
        self.measured.append(time.perf_counter() - t)
        self.times.append(self.measured[-1]
                          * calibrate.factor([before, calibrate.sample()]))
        self.wrong = self.wrong or cli_wrong(self.spec, proc)


def cli_wrong(spec, proc):
    if proc.returncode != spec["returncode"]:
        return "cli exited %d: %s" % (proc.returncode, proc.stderr[-300:])
    lines = proc.stdout.strip().splitlines()
    if "last_line" in spec and (not lines or lines[-1] != spec["last_line"]):
        return "cli printed %r, want %r" % (lines[-1:] or "", spec["last_line"])
    if "json_reports" in spec:
        if len(json.loads(proc.stdout)) != spec["json_reports"]:
            return "cli reported another number of claims"
    return None


def measure(args, workdir):
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        out = worker(args, "run", workdir, deadline)
        metrics = {name: {"value": out["per_layer"].get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        return out, metrics, out["unexpected"]
    setups, cli = [], None
    for _ in range(SETUP_PROBES):
        setups.append(worker(args, "setup", workdir, deadline))
        cli = cli or ColdCli(setups[0]["cli"], deadline)
        cli.run()
    out = worker(args, "run", workdir, deadline)
    setups.append(out)
    while sum(cli.measured) < CLI_BUDGET_S and len(cli.times) < CLI_MAX_RUNS:
        cli.run()
    values = {k: out[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms",
                                  "peak_rss_mb")}
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    values["ok_ratio"] = 1 - out["failed"] / out["attempted"]
    values["cli_cold_s"] = statistics.median(cli.times)
    measured = dict(out["measured"], cli_cold_s=statistics.median(cli.measured),
                    setup_s=
                    statistics.median(s["measured"]["setup_s"] for s in setups))
    print("measured: " + " ".join("%s=%.6g" % kv for kv in sorted(measured.items())))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return out, metrics, out["unexpected"] + ([cli.wrong] if cli.wrong else [])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "neutrolab", "__init__.py")):
        print("error: no neutrolab sources under %s" % SRC, file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(workdir, exist_ok=True)
    try:
        out, metrics, wrong = measure(args, workdir)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for reason in wrong:
        print("wrong: %s" % reason, file=sys.stderr)
    print("rounds=%d attempted=%d failed=%d" % (out["rounds"], out["attempted"],
                                               out["failed"]))
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        # a p90 latency is infinite when 10% or more of the operations failed
        print("error: no finite value for %s" % ", ".join(bad), file=sys.stderr)
        return 1
    print(json.dumps({"correct": not wrong, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
