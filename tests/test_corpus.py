"""The solver's decisions match the committed behaviour corpus,
tests/corpus.txt (see tests/corpus.py, which rewrites it)."""

import pytest

from corpus import (HEADER, committed, corpus_lines, sweep_inputs,
                    tier1_inputs)

COLUMNS = HEADER.split()[1:]


def _changes(got, want):
    """One line per decision whose corpus line differs, naming what differs:
    the answer, the digest (colouring or witness) or the counters."""
    old = {tuple(line.split()[:2]): line.split() for line in want}
    new = {tuple(line.split()[:2]): line.split() for line in got}
    out = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            out.append(f"{' '.join(key)}: {'new' if a is None else 'missing'}")
        elif a != b:
            names = [name for name, x, y in zip(COLUMNS, a, b) if x != y]
            out.append(f"{' '.join(key)}: {', '.join(names)}")
    return out or ["the same lines in another order"]


def _match(got, want):
    if got != want:
        changes = _changes(got, want)
        pytest.fail(f"{len(changes)} decisions differ from tests/corpus.txt; "
                    f"rewrite it with `PYTHONPATH=src python tests/corpus.py` "
                    f"and list them in CHANGES.md:\n" + "\n".join(changes[:40]))


def test_tier1_decisions_match_the_corpus():
    _match(list(corpus_lines(tier1_inputs())), committed(sweep=False))


def test_tier1_corpus_reaches_every_path():
    # enough decisions reach each search and give each answer that a change
    # to any of them shows in the corpus
    rows = [dict(zip(COLUMNS, line.split())) for line in committed(sweep=False)
            if " - declined" not in line]
    assert len(rows) >= 1500
    assert sum(int(row["branches"]) > 0 for row in rows) >= 500
    assert sum(int(row["fallback_used"]) > 0 for row in rows) >= 50
    for answer in ("INVALID", "UNSAT"):
        assert sum(row["answer"] == answer for row in rows) >= 100
    assert not any(row["answer"] == "RAISED" for row in rows)


@pytest.mark.sweep
def test_benchmark_decisions_match_the_corpus():
    _match(list(corpus_lines(sweep_inputs())), committed(sweep=True))
