"""The process that makes the decisions; started by run.py.

It reads one JSON request on stdin (the checkout's `src` directory, the
instance texts with their modes, the run length and whether to trace),
imports the solver from that `src`, decides one instance to warm up, then
decides the whole set in order, pass after pass, until the run length is
reached.  One decision is cli.parse_instance -> engine.solve -> cli.emit_result.
It writes one JSON reply on stdout.  Its peak resident memory is the
benchmark's memory figure, so instance generation happens elsewhere.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SPANS_KEPT = 200_000
STATS = ("branches", "branches_survived", "propagations", "sat_instances",
         "fallback_used")


def main():
    req = json.load(sys.stdin)
    loaded = time.perf_counter()
    src = req["src"]
    sys.path.insert(0, src)
    import lcol3
    if not os.path.abspath(lcol3.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"lcol3 imported from {lcol3.__file__}, not from {src}")
    from lcol3 import cli, engine, graph, recognition, sat2, skeleton, testkit
    imported = time.perf_counter()

    texts = [inst["text"] for inst in req["instances"]]
    modes = [inst["mode"] for inst in req["instances"]]
    n_inst = len(texts)

    def decide(i):
        start = time.perf_counter()
        try:
            graph_, masks = cli.parse_instance(texts[i])
            outcome = engine.solve(graph_, masks, mode=modes[i])
            text = cli.emit_result(outcome)
        except Exception as exc:  # counted as a failed decision
            return time.perf_counter() - start, None, type(exc).__name__, None
        return time.perf_counter() - start, text, None, outcome

    decide(0)
    # Start and request, import of the solver, first decision.
    warmup_s = [loaded - STARTED, imported - loaded, time.perf_counter() - imported]

    tracer = None
    if req["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import Tracer
        tracer = Tracer({"cli": cli, "engine": engine, "graph": graph,
                         "recognition": recognition, "sat2": sat2,
                         "skeleton": skeleton})

    times = [[] for _ in range(n_inst)]
    first = [None] * n_inst
    errors = [None] * n_inst
    unsteady = set()  # instances whose output or failure changed between passes
    pass_ms = {False: [], True: []}
    layer_passes = []
    spans = None
    passes = 0
    begin = time.perf_counter()
    while passes < req["min_passes"] or time.perf_counter() - begin < req["seconds"]:
        # With tracing, pass 0 is untraced and warms up; then traced and
        # untraced passes alternate.
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.reset(keep_spans=0 if spans is not None else SPANS_KEPT)
            tracer.install()
        stats = dict.fromkeys(STATS, 0)
        pass_start = time.perf_counter()
        for i in range(n_inst):
            if traced:
                tracer.decision = i
            elapsed, text, error, outcome = decide(i)
            times[i].append(elapsed)
            if passes == 0:
                first[i], errors[i] = text, error
            elif text != first[i] or error != errors[i]:
                unsteady.add(i)
            if outcome is not None:
                for name in STATS:
                    stats[name] += getattr(outcome.stats, name)
        if passes > 0:
            pass_ms[traced].append((time.perf_counter() - pass_start) * 1000.0)
        if traced:
            tracer.uninstall()
            totals = tracer.pass_totals()
            totals.update({"stats." + k: v for k, v in stats.items()})
            layer_passes.append(totals)
            if spans is None:
                # One string, so later passes' garbage collections do not
                # walk the kept spans.
                spans = "".join(
                    json.dumps({"name": label, "parent": parent,
                                "decision": decision, "start": start,
                                "end": end}) + "\n"
                    for label, parent, start, end, decision in tracer.spans)
        passes += 1

    reply = {
        "times": times,
        "outputs": first,
        "errors": errors,
        "unsteady": sorted(unsteady),
        "passes": passes,
        "warmup_s": warmup_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layer = {k: statistics.median(p[k] for p in layer_passes)
                 for k in layer_passes[0]}
        untraced = statistics.median(pass_ms[False])
        traced = statistics.median(pass_ms[True])
        layer["trace.untraced_pass_ms"] = untraced
        layer["trace.traced_pass_ms"] = traced
        layer["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        oracle_ms = 0.0
        for text in texts:
            graph_, masks = cli.parse_instance(text)
            start = time.perf_counter()
            testkit.oracle_solve(graph_, masks)
            oracle_ms += (time.perf_counter() - start) * 1000.0
        layer["testkit.oracle_solve.ms"] = oracle_ms
        reply["layers"] = layer
        reply["missing"] = tracer.missing
        reply["pass_ms"] = pass_ms
        with open(req["spans_out"], "w", encoding="utf-8") as fh:
            fh.write(spans)
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
