"""Decision-time benchmark for lcol3.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up builds the workload's inputs from
the seed and settles each one's expected answer with the benchmark's own
search, then a separate process imports the solver from the checkout's
`src`, warms up and decides the whole input set in order, pass after pass.
An untraced run does this in five segments of S/5 seconds each, a traced
run in one of S seconds.  Every output is checked here against the
benchmark's own graph.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics (end-to-end ones
with --trace 0, per-layer ones with --trace 1).  Details go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads  # noqa: E402

SEGMENTS = 5  # set-up and decider, this many times in an untraced run
MIN_PASSES = 3
TRACED_MIN_PASSES = 5  # untraced and traced passes alternate
CHILD_TIMEOUT_S = 150


def setup(workload, seed):
    """The workload's inputs and the time each took to build and answer."""
    instances, took = [], []
    last = time.perf_counter()
    for inst in workloads.generate(workload, seed):
        now = time.perf_counter()
        instances.append(inst)
        took.append(now - last)
        last = now
    return took, instances


def run_decider(instances, seconds, min_passes, trace, spans_out):
    request = {
        "src": SRC,
        "instances": [{"text": i.text, "mode": i.mode} for i in instances],
        "seconds": seconds,
        "min_passes": min_passes,
        "trace": bool(trace),
        "spans_out": spans_out,
    }
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "decider.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(json.dumps(request), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("decider did not finish in time")
    if proc.returncode != 0:
        sys.exit(f"decider exited with code {proc.returncode}")
    return json.loads(out)


def run_segments(workload, seed, seconds, trace, spans_out):
    """Set up and decide SEGMENTS times, each decider for an equal share of
    the run (once for a traced run).  Returns the inputs, each set-up's time and the deciders'
    replies merged: times and pass counts added up, each decider's warm-up
    kept, the first outputs kept and any later difference marked unsteady,
    the highest peak memory."""
    segments = 1 if trace else SEGMENTS
    min_passes = TRACED_MIN_PASSES if trace else MIN_PASSES
    instances, setup_times, merged = None, [], None
    for _ in range(segments):
        took, built = setup(workload, seed)
        setup_times.append(took)
        if instances is None:
            instances = built
        elif [i.text for i in built] != [i.text for i in instances]:
            sys.exit("the same seed gave different inputs")
        reply = run_decider(instances, seconds / segments,
                            -(-min_passes // segments), trace, spans_out)
        reply["warmup_s"] = [reply["warmup_s"]]
        if merged is None:
            merged = reply
            continue
        for idx, per in enumerate(reply["times"]):
            merged["times"][idx].extend(per)
            if (reply["outputs"][idx] != merged["outputs"][idx]
                    or reply["errors"][idx] != merged["errors"][idx]):
                reply["unsteady"].append(idx)
        merged["unsteady"] = sorted(set(merged["unsteady"]) | set(reply["unsteady"]))
        merged["passes"] += reply["passes"]
        merged["warmup_s"] += reply["warmup_s"]
        merged["peak_rss_kb"] = max(merged["peak_rss_kb"], reply["peak_rss_kb"])
    return instances, setup_times, merged


def check(instances, reply):
    """Reasons the run is not correct; empty when every output checks.

    A decision that raises is counted as failed; it is a problem as well
    unless the input is the one named with that exception as a known fault.
    """
    problems = []
    for idx, inst in enumerate(instances):
        error = reply["errors"][idx]
        if error is not None:
            if error != inst.known_fault:
                problems.append(f"{inst.name}: decision raised {error}")
            continue
        reason = checker.check_output(inst, reply["outputs"][idx])
        if reason is not None:
            problems.append(f"{inst.name}: {reason}")
    for idx in reply["unsteady"]:
        problems.append(f"{instances[idx].name}: output differs between passes")
    return problems


def twin_ratio(instances):
    ratios = [i.n / len(checker.false_twin_classes(i.bits)) for i in instances]
    return statistics.mean(ratios)


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lcol3", "__init__.py")):
        sys.exit(f"no lcol3 sources under {SRC}: run from a checkout of the repository")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    instances, setup_times, reply = run_segments(
        args.workload, args.seed, args.seconds, args.trace, stem + ".spans.jsonl")

    problems = check(instances, reply)
    times = reply["times"]
    attempted = sum(len(t) for t in times)
    failed = sum(len(t) for t, e in zip(times, reply["errors"]) if e is not None)
    all_ms = [t * 1000.0 for per in times for t in per]
    # Each piece of set-up (building and answering one input; the
    # decider's start, its import of the solver and its warm-up decision)
    # is taken at its best over the segments and the pieces are added up,
    # for the reason given at the decision times below.
    setup_s = (sum(map(min, zip(*setup_times)))
               + sum(map(min, zip(*reply["warmup_s"]))))

    if args.trace:
        metrics = dict(reply["layers"])
        units = {}
        for name in metrics:
            units[name] = ("ms" if name.endswith("ms") else
                           "%" if name.endswith("pct") else "count")
        if metrics["sat2.solve_2sat.calls"] != metrics["stats.sat_instances"]:
            problems.append("sat2.solve_2sat calls differ from stats.sat_instances")
        for name in reply["missing"]:
            print(f"traced name missing from the program: {name}", file=sys.stderr)
    else:
        # Each input's best time over the run's passes: the machine's speed
        # jumps by tens of percent from one second to the next, and the
        # fastest pass is the least disturbed sample of what the program
        # itself costs.
        best = [min(t) for t in times]
        metrics = {
            "decide_ms_p50": statistics.median(best) * 1000.0,
            "instances_per_s": len(instances) / sum(best),
            "peak_rss_mb": reply["peak_rss_kb"] / 1024.0,
            "setup_s": setup_s,
        }
        units = {"decide_ms_p50": "ms", "instances_per_s": "1/s",
                 "peak_rss_mb": "MB", "setup_s": "s"}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": reply["passes"], "instances": len(instances),
        "decisions": attempted, "decide_ms_p90": p90(all_ms),
        "failures": {inst.name: err for inst, err in zip(instances, reply["errors"]) if err},
        "expected": {i.name: i.expected for i in instances},
        "problems": problems, "metrics": metrics,
        "setup_s_each": [sum(t) for t in setup_times],
        "warmup_s_each": reply["warmup_s"],
        "twin_ratio": twin_ratio(instances),
        "missing": reply.get("missing", []),
        "pass_ms": reply.get("pass_ms"),
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(instances)} inputs, "
          f"{reply['passes']} passes, {attempted} decisions, {failed} failed, "
          f"p90 {detail['decide_ms_p90']:.3f} ms")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
