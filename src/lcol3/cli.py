"""Command-line front end: instance file parsing, result emission, and the
solve / verify / check-promise / generate / oracle subcommands.

Instance grammar (one item per line, `c` lines are comments)::

    p lcol <n> <m>
    e <u> <v>          # 1-indexed, undirected, no duplicates
    l <v> <digits>     # optional; digits over {1,2,3}, non-empty, ascending

Exit codes: 0 = decided (SAT or UNSAT), 2 = promise violation (INVALID),
1 = usage, parse, or internal error.
"""

import json
import os
import sys
from operator import add, itemgetter

from .engine import FULL_MASK, colours_of, solve, verify_colouring
from .errors import InternalError
from .graph import Graph, GraphError
from .recognition import check_promise


class ParseError(ValueError):
    """A fault in an instance or colouring text, at its line (0: after the
    last line)."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


# The largest vertex count a problem line may declare, ten times the
# n = 2 000 blow-up of the acceptance tests.  On either parser path the
# problem line alone allocates a mask and a bit row per vertex (16 bytes
# per vertex, 0.3 MB here) and a table of the n powers of two that the
# edges are ORed in with, about n * n / 15 bytes (27 MB here, freed when
# the parse returns), before any edge is read, and the token path grows
# the per-process vertex tables below (3.4 MB here, kept).  Each vertex
# then keeps an int bit row of up to n bits: n * (n / 8 + 28) bytes when
# dense, 50 MB at this limit and 0.5 MB at n = 2 000.  `generate` refuses
# a request whose vertex bound is above the limit, before building it.
MAX_VERTICES = 20_000

# The seven valid colour lists, as their ascending digit strings.
_LIST_MASKS = {"".join(map(str, colours_of(m))): m for m in range(1, FULL_MASK + 1)}


# Token-stream blocks: about this many characters, ending at a line end.
_BLOCK = 1 << 16

# The ASCII characters other than "\n" at which str.splitlines breaks.
_LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")

# Tables that depend only on the vertex count, kept for the life of the
# process and grown to the largest count seen: _IDS maps the canonical
# vertex token "i" to i - 1, and _PREFIX[i - 1] is "v i ", the start of
# vertex i's line in a text SAT answer.  _IDS always holds the first
# len(_PREFIX) tokens: its entries are only added, each with the one value
# its token has, before _PREFIX is rebound to a longer tuple, so callers
# in several threads need no lock.
_IDS = {}
_PREFIX = ()

# Each colour's text in a `v` line, with the line end.
_COLOUR_LINE = {c: f"{c}\n" for c in (1, 2, 3)}


def _grow_tables(n):
    """Grow _IDS and _PREFIX to cover vertices 1..n; return the prefixes."""
    global _PREFIX
    prefix = _PREFIX
    have = len(prefix)
    if have < n:
        names = tuple(map(str, range(have + 1, n + 1)))
        _IDS.update(zip(names, range(have, n)))
        prefix = _PREFIX = prefix + tuple(map("v {} ".format, names))
    return prefix


def _lookup(table, keys):
    """table[key] for every key of the list `keys`, as a tuple, in one C
    call; itemgetter of a single key returns the bare value instead."""
    if len(keys) > 1:
        return itemgetter(*keys)(table)
    return tuple(map(table.__getitem__, keys))


def parse_instance(text):
    """Parse an instance file into a Graph and per-vertex colour masks.

    A text in the canonical layout (the one emit_instance writes) is read
    as one token stream by _parse_tokens; any other text, and every text
    with an error, goes to the line parser, which reads each kind of line
    one way, with all its checks.  The token path looks vertex tokens up
    in _IDS, the table of canonical spellings kept per process and grown to
    the largest n read, so the table is built once, not per file, and each
    column of a block's tokens is looked up in one C call; the line parser
    reads every vertex with int() and a range check.  The problem line may
    declare at most MAX_VERTICES vertices.  Errors are reported at the
    first offending line, a repeated edge included.  Both paths give the
    same graph and lists on every text the token path accepts.
    """
    return _parse_tokens(text) or _parse_lines(text.splitlines())


def _parse_tokens(text):
    """(Graph, masks) of a text in the canonical layout, or None.

    The text is accepted when it is ASCII, ends in a line end and holds no
    other character at which splitlines breaks; its first line is exactly
    `p lcol N M` with N and M decimal and N at most MAX_VERTICES; every
    other line starts with `e ` or `l `, M of them `e ` and all before
    the first `l `; and every line holds three tokens: a kind, a vertex
    found in the table of canonical spellings `1`..`N`, and a second,
    different vertex (after `e`) or one of the seven list strings (after
    `l`).  No vertex may be listed twice and no edge repeated.  Each edge
    is ORed into its two bit rows through a table of powers of two local to
    the call, so a repeated edge sets no new bit and a self-loop sets one
    bit for two: either leaves the rows' popcounts summing to less than
    2M, the one check that finds them.  The line parser reads each such
    text without error, to the same graph and lists.

    The line layout is checked by whole-text scans, not line by line: the
    counts of `\\ne ` and `\\nl ` against the count of line ends, and the
    last `\\ne ` before the first `\\nl `.  The body is then split in
    blocks of about _BLOCK characters, each ending at a line end, and a
    block of k lines must split into 3k tokens, read as triples.  Every
    line starts with a token `e` or `l`, and a token read as a triple's
    second or third fails its lookup when it is `e` or `l`.  So once the
    lookups pass, the block holds exactly k such tokens, all in the
    triples' first places: they are the k line starts, so line i of the
    block starts at token 3i and holds three tokens.  A failed lookup or
    check gives None, and the line parser then reads the text and reports
    its first error.  _IDS also holds the tokens above N of any larger n
    read before; their ids index past the bit rows and masks, and that
    IndexError counts as a failed lookup.
    """
    if (not text.isascii() or not text.endswith("\n")
            or any(map(text.__contains__, _LINE_BREAKS))):
        return None
    end = text.index("\n")
    head = text[:end].split(" ")
    if (len(head) != 4 or head[0] != "p" or head[1] != "lcol"
            or not head[2].isdigit() or not head[3].isdigit()):
        return None
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:  # more digits than int() reads
        return None
    body_lines = text.count("\n") - 1
    if (n > MAX_VERTICES or text.count("\ne ", end) != m
            or text.count("\nl ", end) != body_lines - m
            or 0 < m < body_lines
            and text.rfind("\ne ") > text.find("\nl ", end)):
        return None
    _grow_tables(n)
    power = [1 << v for v in range(n)]
    bits = [0] * n
    masks = [FULL_MASK] * n
    listed = []
    start = end + 1
    try:
        while start < len(text):
            stop = text.find("\n", start + _BLOCK) + 1 or len(text)
            tokens = text[start:stop].split()
            if len(tokens) != 3 * text.count("\n", start, stop):
                return None
            start = stop
            k = tokens[::3].count("e")
            for u, v in zip(_lookup(_IDS, tokens[1:3 * k:3]),
                            _lookup(_IDS, tokens[2:3 * k:3])):
                bits[u] |= power[v]
                bits[v] |= power[u]
            vs = _lookup(_IDS, tokens[3 * k + 1::3])
            for v, mask in zip(vs, _lookup(_LIST_MASKS, tokens[3 * k + 2::3])):
                masks[v] = mask
            listed += vs
    except (KeyError, IndexError):  # a failed lookup, as above
        return None
    if (len(set(listed)) != len(listed)
            or sum(map(int.bit_count, bits)) != 2 * m):
        return None
    return Graph(n, bits, m), masks


def _parse_lines(lines):
    """(Graph, masks) of the instance given as its lines, or a ParseError
    at the first faulty line.  From the problem line on, each checked edge
    is ORed into its two bit rows through a table of powers of two local
    to the call, as on the token path; an edge whose bit is already set in
    its first end's row repeats an earlier one."""
    n = m_declared = bits = power = masks = None
    m = 0
    listed = set()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise ParseError(lineno, "edge before problem line")
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise ParseError(lineno, "non-integer endpoints") from None
            if not (0 <= u < n) or not (0 <= v < n):
                raise ParseError(lineno, f"vertex outside 1..{n}")
            if u == v:
                raise ParseError(lineno, "self-loop")
            if bits[u] & power[v]:
                raise ParseError(lineno, f"duplicate edge {u + 1} {v + 1}")
            bits[u] |= power[v]
            bits[v] |= power[u]
            m += 1
        elif kind.startswith("c"):
            continue
        elif kind == "p":
            if n is not None:
                raise ParseError(lineno, "repeated problem line")
            if len(parts) != 4 or parts[1] != "lcol":
                raise ParseError(lineno, "expected 'p lcol <n> <m>'")
            try:
                n, m_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(lineno, "non-integer problem sizes") from None
            if n < 0 or m_declared < 0:
                raise ParseError(lineno, "negative problem sizes")
            if n > MAX_VERTICES:
                raise ParseError(lineno, f"{n} vertices, more than the "
                                         f"limit of {MAX_VERTICES}")
            power = [1 << v for v in range(n)]
            bits = [0] * n
            masks = [FULL_MASK] * n
        elif kind == "l":
            if n is None:
                raise ParseError(lineno, "list before problem line")
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'l <v> <digits>'")
            try:
                v = int(parts[1]) - 1
            except ValueError:
                raise ParseError(lineno, "non-integer vertex") from None
            if not 0 <= v < n:
                raise ParseError(lineno, f"vertex outside 1..{n}")
            if v in listed:
                raise ParseError(lineno, f"second list for vertex {v + 1}")
            listed.add(v)
            digits = parts[2]
            mask = _LIST_MASKS.get(digits)
            if mask is None:
                # Not one of the seven valid lists: report its first fault.
                prev = "0"
                for ch in digits:
                    if ch not in "123":
                        raise ParseError(lineno, f"colour '{ch}' outside {{1,2,3}}")
                    if ch <= prev:
                        raise ParseError(lineno, "digits must be ascending")
                    prev = ch
                raise ParseError(lineno, "empty colour list")
            masks[v] = mask
        else:
            raise ParseError(lineno, f"unknown line type '{kind}'")
    if n is None:
        raise ParseError(0, "missing problem line")
    if m != m_declared:
        raise ParseError(0, f"problem line declares {m_declared} edges, "
                            f"found {m}")
    return Graph(n, bits, m), masks


def emit_instance(graph, masks=None):
    """Deterministic instance text; parse(emit(x)) == x."""
    lines = [f"p lcol {graph.n} {graph.m}"]
    for u, v in graph.edges():
        lines.append(f"e {u + 1} {v + 1}")
    if masks is not None:
        for v, m in enumerate(masks):
            if m != FULL_MASK:
                digits = "".join(str(c) for c in colours_of(m))
                lines.append(f"l {v + 1} {digits}")
    return "\n".join(lines) + "\n"


def _witness_line(violation):
    verts = " ".join(str(v + 1) for v in violation.vertices)
    return f"witness {violation.kind} {verts}"


def _stats_fields(stats):
    """Every SolveStats field in declaration order, millis rounded to three
    places: one dict for the --stats text and JSON output."""
    fields = {name: getattr(stats, name) for name in stats._fields}
    fields["millis"] = round(stats.millis, 3)
    return fields


def emit_result(outcome, fmt="text", include_stats=False):
    """Render an Outcome; byte-deterministic apart from the optional stats
    (whose millis field is wall-clock time).

    A text SAT answer's `v <vertex> <colour>` lines are joined from the
    per-process "v i " prefixes and one text per colour, with no per-vertex
    formatting.
    """
    if fmt == "text":
        if outcome.is_sat:
            colouring = outcome.colouring
            text = "SAT\n" + "".join(map(add, _grow_tables(len(colouring)),
                                         map(_COLOUR_LINE.__getitem__, colouring)))
        elif outcome.is_unsat:
            text = "UNSAT\n"
        else:
            text = f"INVALID\n{_witness_line(outcome.violation)}\n"
        if include_stats:
            text += "".join(f"s {key} {value}\n"
                            for key, value in _stats_fields(outcome.stats).items())
        return text

    if fmt == "json":
        doc = {"status": "SAT" if outcome.is_sat
               else "UNSAT" if outcome.is_unsat else "INVALID"}
        if outcome.is_sat:
            doc["colouring"] = {str(v + 1): c
                                for v, c in enumerate(outcome.colouring)}
        if outcome.is_invalid:
            doc["witness"] = {"kind": outcome.violation.kind,
                              "vertices": [v + 1 for v in outcome.violation.vertices]}
        if include_stats:
            doc["stats"] = _stats_fields(outcome.stats)
        return json.dumps(doc) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_solve(args):
    graph, masks = parse_instance(_read(args.file))
    outcome = solve(graph, masks, mode=args.mode)
    fmt = "json" if args.json else "text"
    sys.stdout.write(emit_result(outcome, fmt, include_stats=args.stats))
    return 2 if outcome.is_invalid else 0


def _parse_colouring_file(text, n):
    colouring = [0] * n
    # Seen apart from the colour, which is any integer here: verify_colouring
    # judges the values, this parser only that each vertex has one.
    seen = [False] * n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line in ("SAT", "UNSAT"):
            continue
        parts = line.split()
        if parts[0] == "s":
            continue
        if parts[0] != "v" or len(parts) != 3:
            raise ParseError(lineno, "expected 'v <vertex> <colour>'")
        try:
            v, c = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, "non-integer fields") from None
        if not 1 <= v <= n:
            raise ParseError(lineno, f"vertex outside 1..{n}")
        if seen[v - 1]:
            raise ParseError(lineno, f"vertex {v} coloured twice")
        seen[v - 1] = True
        colouring[v - 1] = c
    missing = [v + 1 for v in range(n) if not seen[v]]
    if missing:
        raise ParseError(0, f"vertices without colour: {missing[:5]}")
    return colouring


def _cmd_verify(args):
    graph, masks = parse_instance(_read(args.file))
    colouring = _parse_colouring_file(_read(args.colouring_file), graph.n)
    if verify_colouring(graph, masks, colouring):
        print("OK")
        return 0
    print("BAD colouring (improper edge or colour outside its list)")
    return 1


def _cmd_check_promise(args):
    graph, _ = parse_instance(_read(args.file))
    violation = check_promise(graph)
    if violation is not None:
        print("INVALID")
        print(_witness_line(violation))
        return 2
    print("OK")
    return 0


def _cmd_generate(args):
    from .testkit import GenSpec, RejectionBudgetExceeded, generate, vertex_bound

    try:
        sizes = (None if args.classes is None
                 else tuple(map(int, args.classes.split(","))))
    except ValueError:
        print(f"error: --classes takes comma-separated integers, not "
              f"{args.classes!r}", file=sys.stderr)
        return 1
    spec = GenSpec(kind=args.kind, seed=args.seed, class_sizes=sizes,
                   n=args.n, target_edges=args.edges, scale=args.scale,
                   lists=args.lists)
    try:
        bound = vertex_bound(spec)
        if bound > MAX_VERTICES:
            raise ValueError(f"the request has up to {bound} vertices, more "
                             f"than the limit of {MAX_VERTICES}")
        graph, masks = generate(spec)
    except (ValueError, RejectionBudgetExceeded) as exc:
        # a request over the vertex limit, arguments the kind rejects, or no
        # P7-free sample within the budget
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = emit_instance(graph, masks)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args):
    from .testkit import oracle_solve

    graph, masks = parse_instance(_read(args.file))
    colouring = oracle_solve(graph, masks)
    if colouring is None:
        print("UNSAT")
    else:
        print("SAT")
        for v, c in enumerate(colouring):
            print(f"v {v + 1} {c}")
    return 0


def _build_parser():
    # Imported here, so that importing the package does not pay for it.
    import argparse

    parser = argparse.ArgumentParser(prog="lcol3", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide list 3-colourability of an instance")
    p.add_argument("file")
    p.add_argument("--mode", choices=("trust", "verify"), default="trust")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a colouring file against an instance")
    p.add_argument("file")
    p.add_argument("colouring_file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-promise",
                       help="test the triangle-free / P7-free promise")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_promise)

    p = sub.add_parser("generate", help="emit a generated instance")
    p.add_argument("--kind", required=True,
                   choices=("blownup_c5", "blownup_c7", "skeleton_built",
                            "random_rejection", "spider"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", help="comma-separated class sizes for blow-ups")
    p.add_argument("--n", type=int, help="vertex count for random_rejection")
    p.add_argument("--edges", type=int, help="edge target for random_rejection")
    p.add_argument("--scale", type=int, default=20,
                   help="size hint for skeleton_built; leg count for spider")
    p.add_argument("--lists", choices=("full", "random"), default="full")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="run the brute-force oracle")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    return parser


def dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader left: send what is still buffered to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ParseError, OSError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text ({exc})", file=sys.stderr)
        return 1
    except RecursionError as exc:
        print(f"error: recursion limit reached ({exc})", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
