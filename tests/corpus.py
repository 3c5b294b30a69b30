"""The behaviour corpus: one line per decision of the solver on a fixed set
of inputs, committed as tests/corpus.txt, so that a refactor shows on which
decisions, if any, it changes the answer, the colouring or a counter.

A line holds the input's id, the mode, the answer, every SolveStats counter
but millis in the clear, and an 8-digit digest of the colouring (SAT) or the
witness (INVALID); "-" for UNSAT.  A decision that raises reads RAISED, with
the exception's type as its digest.  The inputs:

  sample/NAME/tokens, sample/NAME/lines  each sample under instances/, read
      by the token parser (a line "declined" where it refuses the text) and
      by the line parser;
  tf/SEED   random triangle-free graphs: n in 8..18, each vertex pair in
      order an edge with one probability p unless the two share a
      neighbour, each list full with probability q, else 12, 13 or 23;
  any/SEED  test_properties.arbitrary_instance on at most 12 vertices;
  gen/...   seeded testkit.generate requests with random lists;
  bench/WORKLOAD/SEED/INDEX  seeds 1-3 of the benchmark's four workloads,
      generated by perfbench/workloads.py (the sweep part).

Each input is decided in both modes.  Rewrite the corpus with

    PYTHONPATH=src python tests/corpus.py

or write it elsewhere with -o PATH; two runs write the same bytes.
"""

import argparse
import hashlib
import pathlib
import random
import sys

from lcol3 import solve
from lcol3.cli import _parse_lines, _parse_tokens, parse_instance
from lcol3.engine import SolveStats
from lcol3.graph import build_graph
from lcol3.testkit import GenSpec, generate
from test_properties import arbitrary_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus.txt"
COUNTERS = [name for name in SolveStats._fields if name != "millis"]
HEADER = " ".join(["#", "id", "mode", "answer", *COUNTERS, "digest"])
MODES = ("trust", "verify")
BENCH_SEEDS = (1, 2, 3)
PINNED_SKELETONS = ((12, 2914), (12, 2180), (25, 763))


def _digest(text):
    return hashlib.blake2b(text.encode(), digest_size=4).hexdigest()


def decision_line(ident, graph, masks, mode):
    """The corpus line of solve(graph, masks, mode)."""
    try:
        out = solve(graph, masks, mode=mode)
    except Exception as exc:  # a line of its own, so that a diff shows it
        return f"{ident} {mode} RAISED {' '.join('-' * len(COUNTERS))} {type(exc).__name__}"
    if out.is_sat:
        digest = _digest(" ".join(map(str, out.colouring)))
    elif out.is_invalid:
        digest = _digest(f"{out.violation.kind} {out.violation.vertices}")
    else:
        digest = "-"
    counters = " ".join(str(getattr(out.stats, name)) for name in COUNTERS)
    return f"{ident} {mode} {out.kind.upper()} {counters} {digest}"


def triangle_free_instance(seed):
    """(graph, masks) of the tf/ family for one seed."""
    rng = random.Random(seed)
    n = rng.randint(8, 18)
    p = rng.uniform(0.2, 0.6)
    rows = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p and not rows[u] & rows[v]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                edges.append((u, v))
    q = rng.random()
    masks = [7 if rng.random() < q else rng.choice((3, 5, 6)) for _ in range(n)]
    return build_graph(n, edges), masks


def tier1_inputs():
    """(id, (graph, masks)) of every tier-1 input, in corpus order; None
    in place of the pair where the token parser declines a sample."""
    for path in sorted((ROOT / "instances").glob("*.lcol")):
        text = path.read_text()
        yield f"sample/{path.name}/tokens", _parse_tokens(text)
        yield f"sample/{path.name}/lines", _parse_lines(text.splitlines())
    for seed in range(3000):
        yield f"tf/{seed}", triangle_free_instance(seed)
    for seed in range(500):
        yield f"any/{seed}", arbitrary_instance(random.Random(seed), 12)
    for scale, seed in PINNED_SKELETONS:
        yield (f"gen/skeleton_built/{scale}/{seed}",
               generate(GenSpec("skeleton_built", seed=seed, scale=scale,
                                lists="random")))
    for seed in range(150):
        yield (f"gen/skeleton_built/25/{seed}",
               generate(GenSpec("skeleton_built", seed=seed, scale=25,
                                lists="random")))
        yield (f"gen/blownup_c7/{seed}",
               generate(GenSpec("blownup_c7", seed=seed, lists="random")))
    for seed in range(30):
        yield (f"gen/blownup_c5/{seed}",
               generate(GenSpec("blownup_c5", seed=seed, lists="random")))
    for k in range(5):
        yield f"gen/spider/{k}", generate(GenSpec("spider", scale=k))


def sweep_inputs():
    """(id, (graph, masks)) of the benchmark workloads' inputs, seeds
    1-3.  perfbench/ is imported without writing bytecode there."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(ROOT / "perfbench"))
    for name in sorted(workloads.WORKLOADS):
        for seed in BENCH_SEEDS:
            for i, inst in enumerate(workloads.generate(name, seed)):
                yield f"bench/{name}/{seed}/{i}", parse_instance(inst.text)


def corpus_lines(inputs):
    for ident, parsed in inputs:
        if parsed is None:
            yield f"{ident} - declined"
            continue
        for mode in MODES:
            yield decision_line(ident, *parsed, mode)


def committed(sweep):
    """The committed corpus lines of one part: the bench/ lines if sweep,
    else the others."""
    lines = CORPUS.read_text().splitlines()[1:]
    return [line for line in lines if line.startswith("bench/") == sweep]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=str(CORPUS),
                        help="where to write the corpus (default: %(default)s)")
    args = parser.parse_args(argv)
    lines = [HEADER, *corpus_lines(tier1_inputs()),
             *corpus_lines(sweep_inputs())]
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
