import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_parse_instance, reference_parse_lines
from lcol3 import cli
from lcol3.cli import (MAX_VERTICES, DuplicateEdgeError, DuplicateListLineError,
                       InstanceSyntaxError, OutOfRangeError, dispatch,
                       emit_instance, emit_result, parse_instance)
from lcol3.engine import (FULL_MASK, InternalError, Outcome, SolveStats,
                          mask_of, solve)
from lcol3.graph import GraphError
from lcol3.testkit import GenSpec, generate, oracle_solve

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def test_parse_k2():
    g, masks = parse_instance("p lcol 2 1\ne 1 2\n")
    assert g.n == 2 and g.has_edge(0, 1)
    assert masks == [FULL_MASK, FULL_MASK]


def test_parse_list_line():
    g, masks = parse_instance("p lcol 2 1\ne 1 2\nl 1 13\n")
    assert masks[0] == mask_of([1, 3])


def test_parse_comments_and_blanks():
    g, masks = parse_instance("c a comment\n\np lcol 1 0\n")
    assert g.n == 1


def test_parse_colour_outside_range_is_syntax_error():
    with pytest.raises(InstanceSyntaxError):
        parse_instance("p lcol 2 1\ne 1 2\nl 1 4\n")


def test_parse_rejects_descending_digits():
    with pytest.raises(InstanceSyntaxError):
        parse_instance("p lcol 2 1\ne 1 2\nl 1 21\n")


def test_parse_duplicate_edge():
    for text in ("p lcol 2 2\ne 1 2\ne 2 1\n", "p lcol 2 2\ne 1 2\ne 1 2\n",
                 "p lcol 3 3\ne 2 3\ne 1 2\nc note\n\ne 3 2\n"):
        with pytest.raises(DuplicateEdgeError) as exc:
            parse_instance(text)
        assert exc.value.line == len(text.splitlines())


def test_parse_duplicate_list_line():
    with pytest.raises(DuplicateListLineError):
        parse_instance("p lcol 2 1\ne 1 2\nl 1 12\nl 1 13\n")


def test_parse_out_of_range_vertex():
    with pytest.raises(OutOfRangeError):
        parse_instance("p lcol 2 1\ne 1 3\n")


def test_parse_edge_count_mismatch():
    with pytest.raises(InstanceSyntaxError):
        parse_instance("p lcol 3 2\ne 1 2\n")


def test_parse_reports_line_numbers():
    # The first error in line order wins, a repeated edge included, although
    # repeats are found only after the other lines have been read.
    cases = [
        ("p lcol 2 1\ne 1 2\nl 1 4\n", InstanceSyntaxError, 3),
        ("p lcol 3 3\ne 1 2\ne 2 1\ne 2 3\nx 1\n", DuplicateEdgeError, 3),
        ("p lcol 3 3\ne 1 2\nx 1\ne 2 3\ne 2 1\n", InstanceSyntaxError, 3),
        ("p lcol 3 3\ne 1 2\ne 2 1\ne 2 4\n", DuplicateEdgeError, 3),
        ("p lcol 3 5\ne 1 2\ne 2 3\ne 2 1\n", DuplicateEdgeError, 4),
        ("p lcol 3 1\ne 1 2\ne 2 1\n", DuplicateEdgeError, 3),
        # canonical tokens that the one-split edge route must pass on
        ("p lcol 3 2\ne 1 2\ne 3 3\n", InstanceSyntaxError, 3),
        ("c x\ne 1 2\np lcol 2 1\n", InstanceSyntaxError, 2),
    ]
    for text, error, line in cases:
        with pytest.raises(error) as exc:
            parse_instance(text)
        assert type(exc.value) is error and exc.value.line == line, text


def test_parse_errors_after_canonical_edges_keep_their_lines():
    # A path's canonical edge lines take the one-split route; the faulty
    # line after them is still reported at its own line.
    edges = "".join(f"e {v} {v + 1}\n" for v in range(1, 40))
    cases = [("e 1 x\n", InstanceSyntaxError, "non-integer endpoints"),
             ("e 1 41\n", OutOfRangeError, "vertex outside 1..40"),
             ("e 2 1\n", DuplicateEdgeError, "duplicate edge 2 1"),
             ("l 1 4\n", InstanceSyntaxError, "colour '4' outside"),
             ("e 1\n", InstanceSyntaxError, "expected 'e <u> <v>'")]
    for fault, error, message in cases:
        text = "p lcol 40 40\n" + edges + fault
        with pytest.raises(error) as exc:
            parse_instance(text)
        assert type(exc.value) is error, fault
        assert exc.value.line == 41 and message in str(exc.value), fault
    with pytest.raises(InstanceSyntaxError) as exc:
        parse_instance("p lcol 40 40\n" + edges)
    assert exc.value.line == 0 and "declares 40 edges, found 39" in str(exc.value)


def test_parse_rejects_more_vertices_than_the_limit():
    assert MAX_VERTICES >= 2_000  # the acceptance tests' n = 2 000 blow-up
    with pytest.raises(OutOfRangeError) as exc:
        parse_instance(f"c big\np lcol {MAX_VERTICES + 1} 0\n")
    assert exc.value.line == 2 and str(MAX_VERTICES) in str(exc.value)
    assert cli._parse_tokens(f"p lcol {MAX_VERTICES + 1} 0\n") is None
    g, masks = parse_instance(f"p lcol {MAX_VERTICES} 0\n")
    assert g.n == len(masks) == MAX_VERTICES


VALID_DIGITS = ["1", "2", "3", "12", "13", "23", "123"]
BAD_DIGITS = ["21", "31", "132", "113", "4", "0", "14", "12a", "\u0663"]


def spellings(v):
    """Ways to write vertex v that int() reads as v: canonical, leading
    zeros, a plus sign, another script's digits."""
    return st.sampled_from([str(v), str(v), "0" + str(v), "00" + str(v),
                            "+" + str(v),
                            "".join(chr(0x660 + int(d)) for d in str(v))])


@st.composite
def instance_texts(draw):
    """Instance texts with odd but valid spellings, in any line order, with
    up to two faulty lines: bad vertices, self-loops, bad digits, repeated
    edges and list lines, unknown or short lines."""
    n = draw(st.integers(0, 8))
    vertex = st.integers(1, n).flatmap(spellings) if n else st.just("1")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=10)) if pairs else []
    body = []
    for u, v in edges:
        a, b = draw(st.permutations([u, v]))
        body.append(("e", draw(spellings(a)), draw(spellings(b))))
    for v in draw(st.lists(st.integers(1, n), unique=True,
                           max_size=n)) if n else []:
        body.append(("l", draw(spellings(v)), draw(st.sampled_from(VALID_DIGITS))))
    body += draw(st.lists(st.sampled_from([("c", "note"), ("cx", "1"), ()]),
                          max_size=3))
    bad_vertex = st.sampled_from(["0", str(n + 1), "x", "-1", "1.0", "1_0",
                                  "0" + str(n + 1)])
    faults = [st.tuples(st.just("e"), bad_vertex, vertex),
              st.tuples(st.just("e"), vertex, bad_vertex),
              st.tuples(st.just("l"), bad_vertex, st.sampled_from(VALID_DIGITS)),
              st.tuples(st.just("l"), vertex, st.sampled_from(BAD_DIGITS)),
              st.sampled_from([("e", "1"), ("l", "1"), ("x", "1", "2"),
                               ("p", "lcol", "2", "1")])]
    if n:
        faults.append(st.integers(1, n).flatmap(
            lambda v: st.tuples(st.just("e"), spellings(v), spellings(v))))
        faults.append(st.tuples(st.just("l"), vertex, st.sampled_from(VALID_DIGITS)))
    if edges:
        faults.append(st.sampled_from(edges).map(
            lambda e: ("e", str(e[1]), "0" + str(e[0]))))
    body += draw(st.lists(st.one_of(faults), max_size=2))
    body = draw(st.permutations(body))
    m = sum(1 for parts in body if parts[:1] == ("e",) and len(parts) == 3)
    m += draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    header = ("p", "lcol", draw(st.sampled_from([str(n), "0" + str(n)])), str(m))
    body.insert(draw(st.sampled_from([0, 0, 0, 0, 1, len(body)])) % (len(body) + 1),
                header)
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(pad + sep.join(parts) for parts in body) + eol


def parse_outcome(parse, source):
    """What parse(source) gives: the graph's n, m, adj and bits and the
    masks, or the error's type, line and message."""
    try:
        g, masks = parse(source)
    except (cli.ParseError, GraphError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return g.n, g.m, g.adj, g.bits, masks


@settings(max_examples=400, deadline=None)
@given(instance_texts())
# a self-loop of two canonical tokens, which the one-split edge route must
# send on to the full checks
@example("p lcol 3 0\ne 3 3\n")
def test_parser_matches_reference_parser(text):
    assert (parse_outcome(cli._parse_lines, text.splitlines())
            == parse_outcome(reference_parse_lines, text.splitlines()))
    assert (parse_outcome(parse_instance, text)
            == parse_outcome(reference_parse_instance, text))


def _respell(rng, lines):
    """Write one token after a kind another way: leading zeros, a plus
    sign, another script's digits, a token outside 1..n or a kind."""
    i = rng.randrange(len(lines))
    parts = lines[i].split(" ")
    if len(parts) < 2:
        return
    j = rng.randrange(1, len(parts))
    tok = parts[j]
    parts[j] = rng.choice(["0" + tok, "00" + tok, "+" + tok, "0", "x", "e",
                           "l", "".join(chr(0x660 + int(d)) for d in tok
                                        if d.isdigit())])
    lines[i] = " ".join(parts)


def _self_loop(rng, lines):
    i = rng.randrange(len(lines))
    parts = lines[i].split(" ")
    if parts[0] == "e":
        lines[i] = f"e {parts[1]} {parts[1]}"


def _repeat_line(rng, lines):
    lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(lines[1:]))


def _move_line(rng, lines):
    lines.insert(rng.randrange(1, len(lines) + 1),
                 lines.pop(rng.randrange(1, len(lines))))


def _regroup_tokens(rng, lines):
    """Two lines of three tokens become lines of two and four, or of four
    and two: three tokens a line on average, line starts kept."""
    i = rng.randrange(1, len(lines) - 1)
    tokens = (lines[i] + " " + lines[i + 1]).split(" ")
    cut = rng.choice([2, 4])
    lines[i:i + 2] = [" ".join(tokens[:cut]), " ".join(tokens[cut:])]


def _whitespace(rng, lines):
    i = rng.randrange(len(lines))
    space = rng.choice(["\t", "\x0b", "\x0c", "\x1c", "\x1f", "  ", "\r",
                        "\x85", "\xa0", "\u2028"])
    parts = lines[i].split(" ")
    if rng.random() < 0.3 or len(parts) < 2:
        lines[i] = lines[i] + rng.choice([" ", "\t"])
    else:
        j = rng.randrange(1, len(parts))
        lines[i] = " ".join(parts[:j]) + space + " ".join(parts[j:])


def _bad_digits(rng, lines):
    i = rng.randrange(len(lines))
    if lines[i].startswith("l "):
        lines[i] = lines[i][:lines[i].rindex(" ") + 1] + rng.choice(BAD_DIGITS)


def _head(rng, lines):
    parts = lines[0].split(" ")
    if len(parts) != 4 or not parts[3].isdigit():
        return
    n, m = parts[2:]
    lines[0] = rng.choice([f"p lcol {n} {int(m) + 1}", f"p lcol {n} {int(m) - 1}",
                           f"p lcol 0{n} {m}", f"p  lcol {n} {m}",
                           f"p lcol {n} {m} ", f"p lcol {n}"])


def _extra_line(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1),
                 rng.choice(["", "c note", "x 1 2", "p lcol 2 1", "e 1 2"]))


LAYOUT_FAULTS = [_respell, _self_loop, _repeat_line, _move_line,
                 _regroup_tokens, _whitespace, _bad_digits, _head, _extra_line]


def canonical_text(rng):
    """A text in the canonical layout (edges in any order, then lists), as
    emit_instance would write it, and then, in most draws, one or two
    faults of layout or content from LAYOUT_FAULTS, other line ends or no
    final line end."""
    n = rng.randint(0, 8)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = rng.sample(pairs, rng.randint(0, min(10, len(pairs))))
    lines = [f"p lcol {n} {len(edges)}"]
    lines += ["e %d %d" % tuple(rng.sample(e, 2)) for e in edges]
    lines += [f"l {v} {rng.choice(VALID_DIGITS)}"
              for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        if len(lines) > 2:
            rng.choice(LAYOUT_FAULTS)(rng, lines)
    eol = rng.choice(["\n"] * 8 + ["\r\n"])
    return eol.join(lines) + rng.choice([eol] * 9 + [""])


@pytest.mark.parametrize("block", [cli._BLOCK, 1, 10])
def test_token_path_matches_the_reference_parser(monkeypatch, block):
    # Small blocks make every text a stream of many blocks.
    monkeypatch.setattr(cli, "_BLOCK", block)
    rng = random.Random(block)
    accepted = 0
    for _ in range(3_000):
        text = canonical_text(rng)
        want = parse_outcome(reference_parse_instance, text)
        assert parse_outcome(parse_instance, text) == want, repr(text)
        if cli._parse_tokens(text) is not None:
            assert parse_outcome(cli._parse_tokens, text) == want, repr(text)
            accepted += 1
    # both paths carry a real share of the texts
    assert 900 <= accepted <= 2_100, accepted


# Texts the token path must leave to the line parser, one per layout rule.
REJECTED_LAYOUTS = {
    "two_and_four_tokens": "p lcol 3 2\ne 1\ne 2 3 1\n",
    "four_and_two_tokens": "p lcol 3 2\ne 1 2 e\n2 3\n",
    "list_before_edge": "p lcol 3 1\nl 1 12\ne 1 2\n",
    "tab_after_kind": "p lcol 3 1\ne\t1 2\n",
    "vertical_tab_inside": "p lcol 3 1\ne 1\x0b2\n",
    "leading_zeros": "p lcol 8 1\ne 007 2\n",
    "self_loop": "p lcol 3 1\ne 3 3\n",
    "repeated_edge": "p lcol 3 2\ne 1 2\ne 2 1\n",
    "repeated_list": "p lcol 2 1\ne 1 2\nl 1 12\nl 1 13\n",
    "wrong_m": "p lcol 3 2\ne 1 2\n",
    "crlf": "p lcol 2 1\r\ne 1 2\r\n",
    "comment": "p lcol 2 1\nc note\ne 1 2\n",
    "blank_line": "p lcol 2 1\n\ne 1 2\n",
    "no_final_line_end": "p lcol 2 1\ne 1 2",
    "non_ascii_digit": "p lcol 2 1\ne 1 \u0662\n",
    "line_separator_inside": "p lcol 2 1\ne 1\u20282\n",
    "head_spacing": "p  lcol 2 1\ne 1 2\n",
    "size_beyond_int": "p lcol 2 " + "9" * 5_000 + "\ne 1 2\n",
}


@pytest.mark.parametrize("text", REJECTED_LAYOUTS.values(), ids=REJECTED_LAYOUTS)
def test_token_path_leaves_other_layouts_to_the_line_parser(text):
    assert cli._parse_tokens(text) is None
    assert (parse_outcome(parse_instance, text)
            == parse_outcome(reference_parse_instance, text))


def test_token_path_reads_texts_of_many_blocks():
    g, _ = generate(GenSpec("blownup_c5", seed=3, class_sizes=(60,) * 5))
    masks = [mask_of([1 + v % 3, 1 + (v + 1) % 3]) if v % 4 else FULL_MASK
             for v in range(g.n)]
    text = emit_instance(g, masks)
    assert text.count("\n") > 10_000 and len(text) > 2 * cli._BLOCK
    want = parse_outcome(reference_parse_instance, text)
    assert parse_outcome(cli._parse_tokens, text) == want
    assert want[:2] == (g.n, g.m) and want[4] == masks
    # one four-token line in the last block sends the text to the line
    # parser, which reports it at its line
    cut = text.rindex("\ne ") + 1
    bad = text[:cut] + "e 1 2 3\n" + text[cut:]
    assert cli._parse_tokens(bad) is None
    assert parse_outcome(parse_instance, bad)[:2] == (
        InstanceSyntaxError, text.count("\n", 0, cut) + 1)


def test_commented_c5_instance_reads_like_c5():
    raw = (INSTANCES / "c5_commented.lcol").read_bytes().decode("utf-8")
    assert "\r\n" in raw and "\nc " in raw and " 005" in raw
    assert raw.index("\nl ") < raw.index("\ne ")
    assert cli._parse_tokens(raw) is None
    plain = (INSTANCES / "c5.lcol").read_text()
    assert cli._parse_tokens(plain) is not None
    assert parse_outcome(parse_instance, raw) == parse_outcome(parse_instance, plain)


# A token above n is in the per-process id table once a larger n has been
# read, and must still be an error at its line.
AFTER_LARGER_N = [
    ("p lcol 3 1\ne 1 5\n", 2),
    ("p lcol 3 1\ne 5 1\n", 2),
    ("p lcol 3 0\nl 7 12\n", 2),
    ("p lcol 3 2\ne 1 2\ne 2 4\nl 1 12\n", 3),
    ("p lcol 0 0\nl 1 1\n", 2),
]


@pytest.mark.parametrize("text, line", AFTER_LARGER_N)
def test_vertices_above_n_stay_out_of_range_after_a_larger_n(text, line):
    parse_instance(emit_instance(*generate(GenSpec("blownup_c5", seed=1,
                                                   class_sizes=(2,) * 5))))
    assert cli._IDS["10"] == 9
    # the canonical text, then one that only the line parser reads
    for source, at in ((text, line), ("c note\n" + text, line + 1)):
        assert cli._parse_tokens(source) is None
        with pytest.raises(OutOfRangeError) as exc:
            parse_instance(source)
        assert exc.value.line == at, source
        assert (parse_outcome(parse_instance, source)
                == parse_outcome(reference_parse_instance, source))


def test_a_small_text_after_a_large_one_parses_like_the_reference():
    small = "p lcol 5 4\ne 1 2\ne 2 3\ne 3 4\ne 5 1\nl 4 13\nl 1 2\n"
    for text in (emit_instance(*generate(GenSpec("blownup_c5", seed=2,
                                                 class_sizes=(40,) * 5))),
                 small, "c x\n" + small, "p lcol 0 0\n"):
        want = parse_outcome(reference_parse_lines, text.splitlines())
        assert parse_outcome(parse_instance, text) == want
        assert parse_outcome(cli._parse_lines, text.splitlines()) == want
        if not text.startswith("c"):
            assert parse_outcome(cli._parse_tokens, text) == want


def test_vertex_tables_are_kept_and_grow_only_past_the_largest_n(monkeypatch):
    monkeypatch.setattr(cli, "_IDS", {})
    monkeypatch.setattr(cli, "_PREFIX", ())

    def tables(n):
        return ({str(i): i - 1 for i in range(1, n + 1)},
                tuple(f"v {i} " for i in range(1, n + 1)))

    parse_instance("p lcol 10 0\n")
    prefix = cli._PREFIX
    assert (cli._IDS, prefix) == tables(10)
    parse_instance("p lcol 3 0\n")
    parse_instance("c x\np lcol 3 0\n")
    emit_result(Outcome("sat", [1, 2, 3], None, SolveStats()))
    assert cli._PREFIX is prefix
    # each path grows them: the line parser, the token path and emit_result
    parse_instance("c x\np lcol 12 0\n")
    assert (cli._IDS, cli._PREFIX) == tables(12)
    parse_instance("p lcol 13 0\n")
    assert (cli._IDS, cli._PREFIX) == tables(13)
    emit_result(Outcome("sat", [1] * 15, None, SolveStats()))
    assert (cli._IDS, cli._PREFIX) == tables(15)


def test_lookup_returns_a_tuple_for_any_number_of_keys():
    table = {"a": 1, "b": 2}
    assert cli._lookup(table, []) == ()
    assert cli._lookup(table, ["b"]) == (2,)
    assert cli._lookup(table, ["b", "a"]) == (2, 1)
    for keys in (["c"], ["a", "c"]):
        with pytest.raises(KeyError):
            cli._lookup(table, keys)


@pytest.mark.parametrize("block", [1, 7, 13])
def test_token_path_reads_blocks_of_zero_one_and_two_edges(monkeypatch, block):
    # Lines of six characters: a block is one line at _BLOCK = 1, two at 7
    # and three at 13, so blocks hold from 0 to 3 edges and lists, and
    # _lookup gets columns of 0, 1 and 2 tokens.
    monkeypatch.setattr(cli, "_BLOCK", block)
    sizes = []
    real = cli._lookup
    monkeypatch.setattr(cli, "_lookup",
                        lambda table, keys: sizes.append(len(keys)) or real(table, keys))
    text = ("p lcol 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
            "l 1 12\nl 2 13\nl 3 23\nl 4 1\n")
    want = parse_outcome(reference_parse_instance, text)
    assert parse_outcome(cli._parse_tokens, text) == want
    if block == 1:
        assert set(sizes) == {0, 1}
    else:
        assert {0, 1, 2} <= set(sizes)
    # an unknown or out-of-range token in any place of a block
    for old, new in (("e 5 1", "e 5 6"), ("e 1 2", "e 9 2"), ("l 4 1", "l 6 1"),
                     ("l 1 12", "l 1 21"), ("e 3 4", "e 3 x")):
        bad = text.replace(old, new)
        assert cli._parse_tokens(bad) is None, bad
        assert (parse_outcome(parse_instance, bad)
                == parse_outcome(reference_parse_instance, bad))


def test_round_trip_generator_outputs():
    for seed in range(20):
        g, masks = generate(GenSpec("skeleton_built", seed=seed, scale=25,
                                    lists="random"))
        text = emit_instance(g, masks)
        g2, masks2 = parse_instance(text)
        assert list(g.edges()) == list(g2.edges())
        assert masks == masks2
        assert emit_instance(g2, masks2) == text


def test_emit_result_sat_text():
    # both ends are peeled, and vertex 2, peeled last, is coloured first
    out = solve(parse_instance("p lcol 2 1\ne 1 2\n")[0])
    assert emit_result(out) == "SAT\nv 1 2\nv 2 1\n"


def test_emit_result_unsat_text():
    g, masks = parse_instance("p lcol 2 1\ne 1 2\nl 1 1\nl 2 1\n")
    assert emit_result(solve(g, masks)) == "UNSAT\n"


def test_emit_result_invalid_text():
    g, _ = parse_instance((INSTANCES / "triangle.lcol").read_text())
    out = solve(g, mode="verify")
    assert emit_result(out) == "INVALID\nwitness triangle 1 2 3\n"


def test_emit_result_json_schema():
    g, masks = parse_instance((INSTANCES / "c5.lcol").read_text())
    doc = json.loads(emit_result(solve(g, masks), fmt="json",
                                 include_stats=True))
    assert doc["status"] == "SAT"
    assert doc["colouring"]["1"] in (1, 2, 3)
    assert list(doc["stats"]) == ["branches", "branches_survived",
                                  "propagations", "sat_instances",
                                  "fallback_used", "fallback_nodes", "peeled",
                                  "dominated", "settled", "millis"]


def test_emit_result_stats_text_and_json_agree():
    g, masks = parse_instance((INSTANCES / "c5.lcol").read_text())
    out = solve(g, masks)
    # distinct values, so a key printed with another counter's value shows
    want = {"branches": 11, "branches_survived": 7, "propagations": 13,
            "sat_instances": 5, "fallback_used": 3, "fallback_nodes": 17,
            "peeled": 19, "dominated": 23, "settled": 29, "millis": 2.5}
    for key, value in want.items():
        setattr(out.stats, key, value)
    text = emit_result(out, include_stats=True)
    doc = json.loads(emit_result(out, fmt="json", include_stats=True))
    from_text = {}
    for line in text.splitlines():
        if line.startswith("s "):
            _, key, value = line.split()
            from_text[key] = float(value)
    assert from_text == doc["stats"] == want


def reference_emit_text(outcome, include_stats=False):
    """emit_result's text format as it stood before its line-prefix table:
    one formatted string per line."""
    if outcome.is_sat:
        lines = ["SAT"]
        lines.extend(f"v {v + 1} {c}" for v, c in enumerate(outcome.colouring))
    elif outcome.is_unsat:
        lines = ["UNSAT"]
    else:
        lines = ["INVALID", cli._witness_line(outcome.violation)]
    if include_stats:
        lines.extend(f"s {key} {value}"
                     for key, value in cli._stats_fields(outcome.stats).items())
    return "\n".join(lines) + "\n"


def test_emit_result_text_matches_the_per_line_form_for_any_size():
    rng = random.Random(3)
    colourings = {n: [rng.choice((1, 2, 3)) for _ in range(n)]
                  for n in (0, 1, 5, 120)}
    # n = 0, 1 and 5, then each again after the larger n = 120
    for n in (0, 1, 5, 120, 0, 1, 5):
        out = Outcome("sat", colourings[n], None, SolveStats())
        for stats in (False, True):
            assert (emit_result(out, include_stats=stats)
                    == reference_emit_text(out, stats)), (n, stats)
    assert emit_result(Outcome("sat", [], None, SolveStats())) == "SAT\n"


def test_emit_result_other_answers_and_json_keep_their_form():
    stats = SolveStats()
    stats.branches, stats.millis = 4, 1.23456
    g, _ = parse_instance((INSTANCES / "p8.lcol").read_text())
    invalid = solve(g, mode="verify")
    assert invalid.is_invalid
    for out in (Outcome("unsat", None, None, stats), invalid._replace(stats=stats)):
        for flag in (False, True):
            assert emit_result(out, include_stats=flag) == reference_emit_text(out, flag)
    sat = Outcome("sat", [2, 1, 3], None, stats)
    doc = {"status": "SAT", "colouring": {"1": 2, "2": 1, "3": 3},
           "stats": cli._stats_fields(stats)}
    assert emit_result(sat, "json", include_stats=True) == json.dumps(doc) + "\n"
    assert doc["stats"]["millis"] == 1.235


def test_dispatch_solve_exit_codes(capsys):
    assert dispatch(["solve", str(INSTANCES / "c5.lcol")]) == 0
    assert capsys.readouterr().out.startswith("SAT")
    assert dispatch(["solve", str(INSTANCES / "c5_unsat.lcol")]) == 0
    assert capsys.readouterr().out == "UNSAT\n"
    assert dispatch(["solve", "--mode", "verify",
                     str(INSTANCES / "triangle.lcol")]) == 2
    assert capsys.readouterr().out.startswith("INVALID")


def test_dispatch_unknown_flag():
    assert dispatch(["solve", "--frobnicate", "x"]) == 1


def test_dispatch_missing_file(capsys):
    assert dispatch(["solve", "no_such_file.lcol"]) == 1
    assert "error" in capsys.readouterr().err


def test_dispatch_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.lcol"
    bad.write_text("p lcol 2 1\ne 1 5\n")
    assert dispatch(["solve", str(bad)]) == 1


@pytest.mark.parametrize("args", [["solve", "BAD"], ["check-promise", "BAD"],
                                  ["oracle", "BAD"], ["verify", "BAD", "C5"],
                                  ["verify", "C5", "BAD"]],
                         ids=["solve", "check-promise", "oracle", "verify",
                              "verify-colouring-file"])
def test_dispatch_non_utf8_file_exits_1_with_one_line(tmp_path, capsys, args):
    bad = tmp_path / "latin1.lcol"
    bad.write_bytes(b"c caf\xe9\n" + (INSTANCES / "c5.lcol").read_bytes())
    paths = {"BAD": str(bad), "C5": str(INSTANCES / "c5.lcol")}
    assert dispatch([paths.get(arg, arg) for arg in args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "UTF-8" in lines[0]


@pytest.mark.parametrize("error", [GraphError("bad graph"),
                                   RecursionError("too deep"),
                                   InternalError("broken guarantee")],
                         ids=["GraphError", "RecursionError", "InternalError"])
def test_dispatch_solver_errors_exit_1_with_one_line(monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve", failing)
    assert dispatch(["solve", str(INSTANCES / "c5.lcol")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "error" in lines[0] and str(error) in lines[0]


def test_check_promise_exit_codes(capsys):
    assert dispatch(["check-promise", str(INSTANCES / "c5.lcol")]) == 0
    assert capsys.readouterr().out == "OK\n"
    assert dispatch(["check-promise", str(INSTANCES / "triangle.lcol")]) == 2
    out = capsys.readouterr().out
    assert "witness triangle" in out
    assert dispatch(["check-promise", str(INSTANCES / "p8.lcol")]) == 2
    assert "witness induced_p7" in capsys.readouterr().out


def test_check_promise_explain(capsys):
    assert dispatch(["check-promise", "--explain",
                     str(INSTANCES / "skeleton_small.lcol")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["promise"] == "ok"
    assert report["components"]


def test_check_promise_explain_dot(capsys):
    assert dispatch(["check-promise", "--explain", "--dot",
                     str(INSTANCES / "c5.lcol")]) == 0
    out = capsys.readouterr().out
    assert "graph skeleton {" in out


def test_check_promise_dot_without_explain_is_a_usage_error(capsys):
    assert dispatch(["check-promise", "--dot", str(INSTANCES / "c5.lcol")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "--dot needs --explain" in lines[0]


def test_verify_subcommand(tmp_path, capsys):
    inst = INSTANCES / "c5.lcol"
    col = tmp_path / "col.txt"
    dispatch(["solve", str(inst)])
    col.write_text(capsys.readouterr().out)
    assert dispatch(["verify", str(inst), str(col)]) == 0
    assert capsys.readouterr().out == "OK\n"
    col.write_text("v 1 1\nv 2 1\nv 3 1\nv 4 2\nv 5 3\n")
    assert dispatch(["verify", str(inst), str(col)]) == 1


@pytest.mark.parametrize("text, code, out, err", [
    ("v 1 0\nv 1 2\nv 2 1\n", 1, "", "line 2: vertex 1 coloured twice"),
    ("v 1 0\nv 2 1\n", 1, "BAD", ""),
    ("v 1 4\nv 2 1\n", 1, "BAD", ""),
    ("v 1 1\n", 1, "", "vertices without colour: [2]"),
    ("SAT\nv 2 1\nv 1 2\ns peeled 0\n", 0, "OK", ""),
])
def test_verify_reads_each_vertex_once(tmp_path, capsys, text, code, out, err):
    inst = tmp_path / "k2.lcol"
    inst.write_text("p lcol 2 1\ne 1 2\n")
    col = tmp_path / "col.txt"
    col.write_text(text)
    assert dispatch(["verify", str(inst), str(col)]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith(out) and (out or not captured.out)
    assert err in captured.err and (err or not captured.err)


def test_generate_subcommand(tmp_path, capsys):
    out_file = tmp_path / "gen.lcol"
    assert dispatch(["generate", "--kind", "blownup_c5", "--seed", "5",
                     "--classes", "2,1,2,1,2", "-o", str(out_file)]) == 0
    g, masks = parse_instance(out_file.read_text())
    assert g.n == 8
    assert dispatch(["generate", "--kind", "skeleton_built", "--seed", "4",
                     "--lists", "random"]) == 0
    text = capsys.readouterr().out
    parse_instance(text)


def test_oracle_subcommand(capsys):
    assert dispatch(["oracle", str(INSTANCES / "c5_unsat.lcol")]) == 0
    assert capsys.readouterr().out == "UNSAT\n"
    assert dispatch(["oracle", str(INSTANCES / "c5.lcol")]) == 0
    assert capsys.readouterr().out.startswith("SAT")


def test_solve_oracle_agree_on_corpus():
    for path in sorted(INSTANCES.glob("*.lcol")):
        g, masks = parse_instance(path.read_text())
        out = solve(g, masks)
        if out.is_invalid:
            continue  # non-promise demo instances
        assert out.is_sat == (oracle_solve(g, masks) is not None), path.name


def test_output_byte_determinism_across_runs(capsys):
    inst = str(INSTANCES / "skeleton_lists.lcol")
    outputs = []
    for args in (["solve", inst], ["solve", inst]):
        assert dispatch(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    outputs_json = []
    for args in (["solve", "--json", inst], ["solve", "--json", inst]):
        assert dispatch(args) == 0
        outputs_json.append(capsys.readouterr().out)
    assert outputs_json[0] == outputs_json[1]


def _python(*args):
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)


def test_import_loads_no_heavy_stdlib_modules():
    # Module bodies generate no code, argparse waits for the parser and the
    # test kit for its first use. -S keeps the site hooks of the host
    # interpreter, which may import random themselves, out of the count.
    proc = _python("-S", "-c", "import sys, lcol3, lcol3.cli; print(sorted("
                   "{'dataclasses', 'inspect', 'argparse', 'lcol3.testkit', "
                   "'random'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_help_exits_zero():
    proc = _python("-m", "lcol3.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lcol3")
