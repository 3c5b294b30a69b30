import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_parse_lines
from lcol3 import cli
from lcol3.cli import (MAX_VERTICES, DuplicateEdgeError, DuplicateListLineError,
                       InstanceSyntaxError, OutOfRangeError, dispatch,
                       emit_instance, emit_result, parse_instance)
from lcol3.engine import FULL_MASK, InternalError, mask_of, solve
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


def parse_outcome(parse, text):
    try:
        g, masks = parse(text.splitlines())
    except (cli.ParseError, GraphError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return g.n, g.m, g.adj, g.bits, masks


@settings(max_examples=400, deadline=None)
@given(instance_texts())
# a self-loop of two canonical tokens, which the one-split edge route must
# send on to the full checks
@example("p lcol 3 0\ne 3 3\n")
def test_parser_matches_reference_parser(text):
    assert (parse_outcome(cli._parse_lines, text)
            == parse_outcome(reference_parse_lines, text))


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
                                  "dominated", "millis"]


def test_emit_result_stats_text_and_json_agree():
    g, masks = parse_instance((INSTANCES / "c5.lcol").read_text())
    out = solve(g, masks)
    # distinct values, so a key printed with another counter's value shows
    want = {"branches": 11, "branches_survived": 7, "propagations": 13,
            "sat_instances": 5, "fallback_used": 3, "fallback_nodes": 17,
            "peeled": 19, "dominated": 23, "millis": 2.5}
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
