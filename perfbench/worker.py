"""One benchmark worker process: import neutrolab from the checkout, set a
workload up, run it, check every output, and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run --workdir DIR

Times are reported in reference seconds (see calibrate.py); the measured
ones are reported beside them under "measured".

`--mode setup` stops after set-up and reports its duration and the
workload's CLI command (with its input files written to --workdir). `--mode
run` runs whole rounds (one round is one deck of operations) until
`--seconds` of operation time have passed. With `--trace 1` it runs rounds
untraced for half the time, replays the same rounds traced, and reports
per-layer figures per round plus the fixed baseline probes.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
from ops import execute  # noqa: E402
from spans import (NullTracer, Tracer, aggregate, percentile, windows,  # noqa: E402
                   write_spans)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "verify-suite": "wl_verify",
    "structure-queries": "wl_structures",
    "formal-sums": "wl_formal",
}


def import_neutrolab():
    """Import the package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import neutrolab

    path = os.path.realpath(neutrolab.__file__)
    if not path.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("neutrolab imported from %s, not from %s" % (path, SRC))
    return neutrolab


def run_rounds(wl, tracer, seconds=None, decks=None, keep=False):
    """Run decks until `seconds` of op time have passed, or replay `decks`.

    Deck generation, host-speed samples and output checks happen between
    operations, outside the measured time. Returns (rounds, the decks run
    when `keep`), a round being (records, host factor over the round);
    checked outputs and unkept decks are dropped, so memory does not grow
    with the number of rounds."""
    rounds, ran, timed = [], [], 0.0
    while True:
        i = len(rounds)
        if decks is not None:
            if i == len(decks):
                break
            deck = decks[i]
        else:
            if timed >= seconds:
                break
            deck = wl.deck(i)
        done, speed = [], [calibrate.sample()]
        last = time.perf_counter()
        for j, op in enumerate(deck):
            if time.perf_counter() - last >= calibrate.SAMPLE_EVERY_S:
                speed.append(calibrate.sample())
                last = time.perf_counter()
            tracer.op = "%d.%d" % (i, j)
            rec = execute(op, tracer)
            timed += rec.seconds
            done.append(rec)
        tracer.op = None
        speed.append(calibrate.sample())
        for r in done:
            r.verify()
        rounds.append((done, calibrate.factor(speed)))
        if keep:
            ran.append(deck)
    return rounds, ran


def op_seconds(rounds, reference=True):
    return sum(r.seconds * (f if reference else 1)
               for done, f in rounds for r in done)


def summarize(rounds, reference=True):
    """Throughput and latency percentiles per window of at least
    MIN_WINDOW_OPS operations, then the median over the windows, so that a
    burst of load on the host moves one window, not the result. A failed op
    is infinitely slow."""
    def lat(r, f):
        return math.inf if r.failure else r.seconds * (f if reference else 1)

    wins = windows([([lat(r, f) for r in done], op_seconds([(done, f)], reference))
                    for done, f in rounds])
    return {
        "ops_per_s": statistics.median(
            sum(1 for x in w if x != math.inf) / secs for w, secs in wins),
        "op_p50_ms": statistics.median(percentile(w, 50) for w, _ in wins) * 1000,
        "op_p90_ms": statistics.median(percentile(w, 90) for w, _ in wins) * 1000,
    }


def counts(rounds):
    records = [r for done, _ in rounds for r in done]
    failed = [r for r in records if r.failure]
    unexpected = [r for r in failed if r.failure != r.defect]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "unexpected": ["%s: %s" % (r.kind, r.reason) for r in unexpected][:10],
        "rounds": len(rounds),
    }


def per_layer(stats, rounds=1, factor=1.0):
    """Metrics `<span name>.<stat>` from aggregated spans; counts and busy
    time are per round so that they do not depend on how many rounds ran.
    `factor` turns measured into reference time."""
    out = {}
    for name, st in stats.items():
        calls = st["calls"]
        busy_us = st["self_ns"] / 1e3 * factor
        out[name + ".calls"] = calls / rounds
        out[name + ".busy_ms"] = busy_us / 1e3 / rounds
        out[name + ".us_per_call"] = busy_us / calls if calls else 0.0
        for key, val in st.items():
            if key not in ("calls", "self_ns"):
                out["%s.%s" % (name, key)] = val / rounds
    return out


def traced(wl, setup_tracer, setup_factor, args):
    """Untraced rounds for half the time, then the same decks traced."""
    base, decks = run_rounds(wl, NullTracer(), seconds=args.seconds / 2,
                             keep=True)
    tracer = Tracer()
    rounds, _ = run_rounds(wl, tracer, decks=decks)
    layers = per_layer(aggregate(setup_tracer.spans), factor=setup_factor)
    layers.update(per_layer(aggregate(tracer.spans), len(rounds),
                            statistics.median(f for _, f in rounds)))
    layers["engine.run_claim.trials"] = sum(
        v for k, v in layers.items()
        if k.startswith("engine.run_claim.") and k.endswith(".trials"))
    trials = layers.get("engine.run_remark_hunt.trials")
    if trials:
        layers["engine.run_remark_hunt.us_per_trial"] = \
            layers["engine.run_remark_hunt.busy_ms"] * 1000 / trials

    import baselines  # it imports neutrolab, so only after import_neutrolab()

    probe_tracer = Tracer()
    before = calibrate.sample()
    baselines.run(probe_tracer)
    layers.update(per_layer(aggregate(probe_tracer.spans), factor=calibrate.factor(
        [before, calibrate.sample()])))
    # identical decks on both sides, so their op times compare directly
    layers["bench.trace_overhead_ratio"] = op_seconds(base) / op_seconds(rounds)
    out = counts(rounds)
    layers["bench.failed_ratio"] = out["failed"] / out["attempted"]
    out["per_layer"] = layers
    for part, tr in (("setup", setup_tracer), ("rounds", tracer),
                     ("baselines", probe_tracer)):
        write_spans(os.path.join(args.workdir, "spans-%s.jsonl" % part), tr.spans)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import_neutrolab()
    module = __import__(WORKLOADS[args.workload])
    setup_tracer = Tracer() if args.trace else NullTracer()
    wl = module.Workload(args.seed)
    wl.setup(setup_tracer)
    setup_s = time.perf_counter() - _T0
    setup_factor = calibrate.factor([calibrate.sample() for _ in range(3)])
    out = {"setup_s": setup_s * setup_factor, "measured": {"setup_s": setup_s}}
    if args.mode == "setup":
        out["cli"] = wl.cli(args.workdir)
    elif args.trace:
        out.update(traced(wl, setup_tracer, setup_factor, args))
    else:
        rounds, _ = run_rounds(wl, NullTracer(), seconds=args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(counts(rounds))
        out.update(summarize(rounds))
        out["measured"].update(summarize(rounds, reference=False))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
