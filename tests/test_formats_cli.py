import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homdual.catalog import GraphFilters, generate_all_graphs
from homdual import cli, formats, graphs
from homdual.cli import main
from homdual.coloring import make_coloring, verify_low_td
from homdual.duality import (
    POWER_ORDER_CAP,
    build_dual,
    representatives,
    truncated_power,
    verify_duality,
)
from homdual.errors import GraphError, SizeLimitError
from homdual.formats import (
    ParseError,
    parse_edge_list,
    parse_graph6,
    parse_graph_lines,
    to_graph6,
)
from homdual.graphs import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from homdual.homs import is_isomorphic
from homdual.powers import exact_power

import oracles
from oracles import (
    brute_homomorphism,
    brute_tree_depth,
    matches_checked_constructor,
    naive_graph6,
    naive_mirror,
    per_line_edge_list,
)


# --- graph6 -------------------------------------------------------------------

def test_parse_graph6_examples():
    assert parse_graph6("@") == complete_graph(0).__class__(1, [0])
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("A?").edge_count() == 0
    assert parse_graph6(">>graph6<<A_") == complete_graph(2)


def test_to_graph6_examples():
    assert to_graph6(complete_graph(1)) == "@"
    assert to_graph6(complete_graph(2)) == "A_"


def test_graph6_roundtrip(catalog6):
    for G in catalog6:
        assert parse_graph6(to_graph6(G)) == G


def test_graph6_roundtrip_extended_size():
    rng = random.Random(5)
    n = 100
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.05]
    G = build_graph(n, edges)
    line = to_graph6(G)
    assert line.startswith("~")
    assert parse_graph6(line) == G


def test_parse_graph6_rejects_malformed():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("B")  # payload too short for n = 3
    with pytest.raises(ParseError):
        parse_graph6("A_extra")
    with pytest.raises(ParseError):
        parse_graph6("A\x19")  # byte below the graph6 alphabet
    with pytest.raises(ParseError):
        parse_graph6("@~")  # nonzero padding / trailing garbage
    with pytest.raises(ParseError):
        parse_graph6("A\u00e9")  # non-ASCII, not a UnicodeEncodeError


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 47, 48, 49, 62, 63, 64, 96, 97, 98,
                               255, 256, 257, 300, 512, 513, 769, 770, 1000, 1057, 1058])
def test_graph6_roundtrip_sizes(n):
    """Around the 48-column steps, on each side of the first and second
    column-block boundaries (columns 769 and 1057), and of one and two
    whole 256-bit mirror tiles."""
    rng = random.Random(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    sparse = build_graph(n, [e for e in pairs if rng.random() < 0.05])
    dense = build_graph(n, [e for e in pairs if rng.random() < 0.5])
    for G in (sparse, dense, complete_graph(n)):
        line = to_graph6(G)
        assert line == naive_graph6(G)
        assert parse_graph6(line) == G


def test_graph6_roundtrip_wide_peeled_columns():
    """Parts of formats._PEEL_COLUMNS columns of over 4,096 bits each, in
    the 5,000-column blocks of a sparse graph, come back whole."""
    n = 5000
    G = build_graph(n, [(0, n - 1), (n - 2, n - 1), (1, 2), (5, n - 3), (4095, 4096)])
    assert parse_graph6(to_graph6(G)) == G


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257,
                               511, 512, 513])
def test_graph6_mirror_matches_naive(n, monkeypatch):
    """The tiled transpose, ``graphs._mirror`` on whichever branch it picks,
    and parse_graph6 through it give the per-pair mirror of seeded lower
    triangles, at tile sides 8 to 256 with whole, partial and padded tiles.
    Empty and 1% graphs keep the per-edge mirror; complete graphs from 15
    vertices take the tiles."""
    rng = random.Random(n)
    taken = []
    tiled = graphs._mirror_tiles

    def counted(rows):
        taken.append(len(rows))
        tiled(rows)

    monkeypatch.setattr(graphs, "_mirror_tiles", counted)
    for density in (0, 0.01, 0.3, 1.0):
        lower = [sum(1 << i for i in range(j) if rng.random() < density) for j in range(n)]
        expected = naive_mirror(lower)
        rows = list(lower)
        tiled(rows)
        assert rows == expected, density
        taken.clear()
        rows = list(lower)
        graphs._mirror(rows)
        assert rows == expected, density
        line = naive_graph6(types.SimpleNamespace(n=n, rows=lower))
        assert list(parse_graph6(line).rows) == expected, density
        if density < 0.1 or n < 15:
            assert not taken, density
        elif density == 1.0:
            assert taken == [n, n], density


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=70), st.integers(min_value=0, max_value=2 ** 16),
       st.sampled_from((0.0, 0.05, 0.3, 0.7, 1.0)))
@example(62, 0, 0.3)
@example(63, 0, 0.3)
def test_codecs_roundtrip_random_graphs(n, seed, density):
    """graph6 and edge-list text both give back the graph, on either side
    of the 62/63 boundary where graph6 switches to the 4-byte header."""
    rng = random.Random(seed)
    G = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < density])
    line = to_graph6(G)
    assert line.startswith("~") == (n >= 63)
    assert parse_graph6(line) == G
    text = "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in G.edges()])
    assert parse_edge_list(text) == G


@pytest.mark.parametrize("line, message, offset", [
    ("", "empty graph6 string", 0),
    ("\x19", "invalid header byte 25", 0),
    ("B", "expected 1 payload bytes for n=3, got 0", 1),
    ("A_extra", "expected 1 payload bytes for n=2, got 6", 1),
    ("@~", "expected 0 payload bytes for n=1, got 1", 1),
    ("Ex?", "expected 3 payload bytes for n=6, got 2", 1),
    ("A\x19", "invalid payload byte 25", 1),
    ("E?\x7f?", "invalid payload byte 127", 2),
    ("E??\x19", "invalid payload byte 25", 3),
    ("A`", "nonzero padding bits", 1),
    ("D?@", "nonzero padding bits", 2),
    ("~?", "truncated 4-byte size header", 2),
    ("~\x19??", "invalid size byte", 1),
    ("~~??", "truncated 8-byte size header", 4),
    ("~~?\x19????", "invalid size byte", 2),
    ("A\u00e9", "non-ASCII character '\u00e9'", 1),
    ("Bw\u00e9", "non-ASCII character '\u00e9'", 2),
])
def test_parse_graph6_error_offsets(line, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_graph6(line)
    assert str(exc.value) == f"{message} (at {offset})"
    assert exc.value.offset == offset


def test_parse_graph6_dual_decodes_in_small_memory():
    """The 3,645-vertex criterion-9 dual (830 KB of adjacency bits) decodes
    under a 10 MB allocation peak: the payload is read as one integer, not
    as a string of one character per bit. Coded block by block, writing
    it peaks under 3.5 MB (5.15 MB as one stream) and reading it under
    4 MB (6.62 MB as one stream)."""
    U = disjoint_union([complete_graph(1), complete_graph(2)])
    D = truncated_power(U, complete_graph(5), 3).D
    tracemalloc.start()
    try:
        line = to_graph6(D)
        write_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        G = parse_graph6(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G == D
    assert peak < 10_000_000, peak
    assert write_peak < 3_500_000, write_peak
    assert peak < 4_000_000, peak


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
def test_parse_graph6_returns_graph_or_graph_error(line):
    try:
        G = parse_graph6(line)
    except GraphError:
        return
    assert isinstance(G, Graph)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.text(max_size=30) | st.text(alphabet="n 0123456789+-_#\n\t\u0663\u00b2x", max_size=30))
@example("n \u00b2\n")  # a digit to str.isdigit, but no decimal to int()
@example("n " + "1" * 5000)  # over int()'s digit limit
def test_parse_edge_list_returns_graph_or_graph_error(text):
    try:
        G = parse_edge_list(text)
    except GraphError:
        return
    assert isinstance(G, Graph)


# --- edge lists ------------------------------------------------------------------

def _edge_list_outcome(parse, text):
    """(n, rows) or (exception name, message) of one edge-list reader."""
    try:
        n, rows = parse(text)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not raised
        return type(exc).__name__, str(exc)
    return n, list(rows)


def _library_edge_list(text):
    G = parse_edge_list(text)
    return G.n, G.rows


def _assert_matches_per_line(text):
    assert _edge_list_outcome(_library_edge_list, text) \
        == _edge_list_outcome(per_line_edge_list, text), text


_ODD_LINES = ("# note\n", "\n", "3 4\r\n", "3 4\r5 6\n", "n 5\n", "7 7\n", "{n} 1\n",
              "-1 3\n", "1 2 3\n", "+3 4\n", "\u0663 4\n", "1\t2\n", "1 2 \n", "  \n",
              "007 3\n", "0 00\n")


_EDGE_LINE_TEXTS = st.tuples(
    st.sampled_from(("", "n 10\n", "n 4\n")),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)).map("{0[0]} {0[1]}\n".format)
             | st.sampled_from(_ODD_LINES).map(lambda line: line.format(n=10)), max_size=12),
).map(lambda parts: parts[0] + "".join(parts[1]))


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(st.text(max_size=30) | st.text(alphabet="n 0123456789+-_#\n\t\u0663\u00b2x", max_size=30)
       | _EDGE_LINE_TEXTS,
       st.sampled_from((1, 2, 5, 16, formats._EDGE_WINDOW)))
@example("n " + "1" * 5000, formats._EDGE_WINDOW)
@example("1 " + "1" * 5000 + "\n", formats._EDGE_WINDOW)  # over int()'s digit limit
@example("n 10\n1 2\n007 3\n4 5\n", formats._EDGE_WINDOW)  # leading zeros: no JSON integer
@example("1 2\n0 00\n", formats._EDGE_WINDOW)
@example("n 10\r\n1 2\r\n3 4\r\n5 5\r\n", formats._EDGE_WINDOW)
def test_parse_edge_list_matches_per_line_reference(text, window):
    """The windowed bulk decoder gives the per-line reader's graph, or its
    exception type and message, on the hypothesis alphabets and on texts of
    plain and odd lines, under windows down to one character, so that runs
    and windows end anywhere."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_EDGE_WINDOW", window)
        _assert_matches_per_line(text)


def _plain_edge_lines(rng, n, count):
    lines = []
    while len(lines) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            lines.append(f"{u} {v}\n")
    return lines


def _windows(text):
    """``text`` cut by the parser's window rule: the first line alone, then
    each window up to the first newline at least ``_EDGE_WINDOW`` characters
    past its start, or the end of the text."""
    pos, stop = 0, text.find("\n") + 1 or len(text)
    while pos < len(text):
        yield text[pos:stop]
        pos, stop = stop, text.find("\n", stop + formats._EDGE_WINDOW) + 1 or len(text)


def _window_ends(lines, header):
    """Indices i such that a scan window of the plain text ends just
    before ``lines[i]``, found by the parser's cut rule."""
    starts = list(itertools.accumulate(map(len, lines), initial=len(header)))
    return [starts.index(end)
            for end in itertools.accumulate(map(len, _windows(header + "".join(lines))))]


@pytest.mark.parametrize("header", [True, False])
def test_parse_edge_list_odd_lines_at_window_ends(header):
    """Seeded texts over at least three scan windows, with one odd line
    (comment, blank, CRLF, lone CR, header, loop, endpoint >= n, negative,
    three tokens, sign, non-ASCII digit, tab, trailing blanks, leading
    zeros) inserted at, just before and just after each window end, and a
    few at once: the bulk decoder agrees with the per-line reader on every
    text, on texts opening with a comment or a plain edge line, without a
    final newline or with one odd line in the last window, and on the plain
    text with CRLF line ends, whose every window it decodes in bulk."""
    rng = random.Random(28 + header)
    n = 300
    head = f"n {n}\n" if header else ""
    lines = _plain_edge_lines(rng, n, 4000)
    ends = _window_ends(lines, head)
    assert len(ends) >= 4 and len(head + "".join(lines)) > 3 * formats._EDGE_WINDOW
    body = head + "".join(lines)
    last = (ends[-2] + len(lines)) // 2  # inside the last window
    for text in (body, "# note\n" + body, "".join(lines), body.rstrip("\n"),
                 head + "".join(lines[:last] + ["# note\n"] + lines[last:])):
        _assert_matches_per_line(text)
    crlf = "".join(lines).replace("\n", "\r\n")
    windows = list(_windows(crlf))
    assert all(formats._PLAIN_LINES.fullmatch(w) for w in windows)
    bulk = []

    def add_plain_edges(window, rows, limit, add=formats._add_plain_edges):
        bulk.append(window if add(window, rows, limit) else None)
        return bulk[-1] is not None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_add_plain_edges", add_plain_edges)
        _assert_matches_per_line(crlf)
    assert bulk == windows
    _assert_matches_per_line(head.replace("\n", "\r\n") + crlf)
    for odd in _ODD_LINES:
        odd = odd.format(n=n)
        for end in ends:
            for at in range(max(end - 1, 0), end + 2):
                _assert_matches_per_line(head + "".join(lines[:at] + [odd] + lines[at:]))
    for _ in range(20):
        mixed = list(lines)
        for at in sorted(rng.sample(range(len(lines)), 4), reverse=True):
            mixed.insert(at, rng.choice(_ODD_LINES).format(n=n))
        _assert_matches_per_line(head + "".join(mixed))
        _assert_matches_per_line(head + "".join(mixed).rstrip("\n"))


def test_parsers_and_build_graph_match_checked_constructor(catalog6, mixed_density_graphs):
    """graph6, edge lists and ``build_graph`` set both bits of each edge
    and skip the constructor's checks; each must give the graph the checked
    constructor makes, triangle mask included."""
    for G in catalog6 + mixed_density_graphs:
        edges = G.edges()
        text = "".join(f"{u} {v}\n" for u, v in edges)
        for H in (parse_graph6(to_graph6(G)), parse_edge_list(f"n {G.n}\n{text}"),
                  build_graph(G.n, edges)):
            assert H == G and matches_checked_constructor(H), G
        if edges and max(map(max, edges)) == G.n - 1:  # no header needed
            assert matches_checked_constructor(parse_edge_list(text)), G


def test_parse_edge_list():
    G = parse_edge_list("n 4\n0 1\n# middle\n1 2\n2 3\n")
    assert G == path_graph(4)
    # headerless form sizes by the largest endpoint
    G = parse_edge_list("0 1\n1 2\n2 0\n")
    assert G == complete_graph(3)


def test_parse_edge_list_errors():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("0 1\n2 2\n")
    assert "2" in str(exc.value)
    with pytest.raises(ParseError):
        parse_edge_list("0 one\n")


@pytest.mark.parametrize("text, error, message", [
    ("n 3\n0 5\n", GraphError, "edge (0,5) out of range for n=3"),
    ("n 3\n0 5\n1 7\n", GraphError, "edge (0,5) out of range for n=3"),
    ("n 5\n0 5\n0 1\n", GraphError, "edge (0,5) out of range for n=5"),
    # a malformed line after an out-of-range edge is reported first
    ("n 3\n0 5\nbad line here\n", ParseError, "line 3: expected 'u v' (at 3)"),
    ("n 2\n5 7\nx y\n", ParseError, "line 3: non-integer endpoint (at 3)"),
    ("n 3\n0 9\n0 0\n", ParseError, "line 3: loop edge 0 0 (at 3)"),
    # a huge order is not allocated before the lines are read
    ("n 1000000000000\nbad\n", ParseError, "line 2: expected 'u v' (at 2)"),
    ("n 3\n0 1\nn 4\n", ParseError, "line 3: stray size header (at 3)"),
    # a negative endpoint is refused where it stands, not read as out of range
    ("n 3\n0 1\n2 -1\n0 5\n", ParseError, "line 3: negative endpoint (at 3)"),
])
def test_parse_edge_list_error_precedence(text, error, message):
    with pytest.raises(GraphError) as exc:
        parse_edge_list(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_parse_edge_list_order_cap(monkeypatch):
    """The order, from the header or the largest endpoint, may not pass the
    cap; a malformed line is still reported first."""
    assert formats.EDGE_LIST_ORDER_CAP >= POWER_ORDER_CAP  # built duals read back
    assert oracles.EDGE_LIST_ORDER_CAP == formats.EDGE_LIST_ORDER_CAP  # the per-line reference's
    monkeypatch.setattr(formats, "EDGE_LIST_ORDER_CAP", 5)
    assert parse_edge_list("n 5\n0 4\n") == build_graph(5, [(0, 4)])
    assert parse_edge_list("3 4\n") == build_graph(5, [(3, 4)])
    for text, order in (("n 6\n", 6), ("0 5\n", 6), ("0 9\n1 2\n7 0\n", 10)):
        with pytest.raises(SizeLimitError, match=f"edge list order {order} exceeds cap 5"):
            parse_edge_list(text)
    with pytest.raises(ParseError, match="line 2: expected 'u v'"):
        parse_edge_list("0 9\nbad\n")
    with pytest.raises(ParseError, match="line 2: stray size header"):
        parse_edge_list("0 9\nn 3\n")  # an edge beyond the cap comes first


def test_parse_edge_list_matches_build_graph():
    assert parse_edge_list("n 5\n0 1  # c\n\t3 4\n") == build_graph(5, [(0, 1), (3, 4)])
    assert parse_edge_list("+1 2\n1_0 2\n") == build_graph(11, [(1, 2), (10, 2)])
    assert parse_edge_list("n \u0663\n0 \u0662\n") == build_graph(3, [(0, 2)])
    assert parse_edge_list("0 1\n0 1\n1 0\n") == complete_graph(2)
    assert parse_edge_list("n 3\n") == build_graph(3, [])
    assert parse_edge_list("# nothing\n") == build_graph(0, [])
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 30)
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.2]
        header = f"n {n}\n" if rng.random() < 0.5 else ""
        text = header + "".join(f"{u} {v}\n" for u, v in edges)
        size = n if header else max((max(e) for e in edges), default=-1) + 1
        assert parse_edge_list(text) == build_graph(size, edges)


def test_parse_graph_lines():
    text = to_graph6(complete_graph(3)) + "\n\n" + to_graph6(path_graph(2)) + "\n"
    got = parse_graph_lines(text)
    assert got == [complete_graph(3), path_graph(2)]


@pytest.mark.parametrize("text, message, line", [
    ("Bw\nA_\nBx!\n", "line 3, byte 1: expected 1 payload bytes for n=3, got 2", 3),
    ("# corpus\n\n  A`\n", "line 3, byte 1: nonzero padding bits", 3),
    ("A_\n\x19\n", "line 2, byte 0: invalid header byte 25", 2),
])
def test_parse_graph_lines_names_the_line(text, message, line):
    """A bad graph6 line is reported by its 1-based line, as in edge lists,
    with parse_graph6's own message and byte offset in the line."""
    with pytest.raises(ParseError) as exc:
        parse_graph_lines(text)
    assert str(exc.value) == f"{message} (at {line})"
    assert exc.value.offset == line


def test_cli_corpus_error_names_the_line(tmp_path, capsys):
    path = tmp_path / "multi.g6"
    path.write_text("Bw\nA_\nBx!\n")
    assert main(["dual-verify", "--in", str(path), "--forbid", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: line 3, byte 1: expected 1 payload bytes for n=3, got 2 (at 3)\n"


# --- catalog ----------------------------------------------------------------------

def test_generate_counts():
    gs = generate_all_graphs(5)
    by_n = {}
    for G in gs:
        by_n[G.n] = by_n.get(G.n, 0) + 1
    assert by_n == {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34}


def test_generate_connected_counts():
    gs = generate_all_graphs(5, GraphFilters(connected=True))
    by_n = {}
    for G in gs:
        by_n[G.n] = by_n.get(G.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


# sha256 over the rows of generate_all_graphs(7, f), graph by graph, for each
# filter setting below, recorded with the bucket key that also counted the
# edges on a triangle: a coarser key changes only which bucket a class's
# first graph lands in, so every setting keeps the same graphs in order.
CATALOG7_DIGEST = "88a574ce327a3343ad56f384b5809199ec0427b915fc81a51886d8c769d06666"
_CATALOG7_FILTERS = (GraphFilters(), GraphFilters(connected=True), GraphFilters(max_degree=3),
                     GraphFilters(max_degree=3, connected=True),
                     GraphFilters(triangle_free=True),
                     GraphFilters(connected=True, triangle_free=True))


def test_generate_catalog7_pinned(catalog7):
    """The six catalogs on at most 7 vertices are those pinned by digest, and
    the unfiltered and connected ones have the class counts of OEIS A000088
    and A001349 at each order."""
    catalogs = [catalog7] + [generate_all_graphs(7, f) for f in _CATALOG7_FILTERS[1:]]
    h = hashlib.sha256()
    for f, gs in zip(_CATALOG7_FILTERS, catalogs):
        h.update(f"{f}\n".encode())
        for G in gs:
            h.update(f"{G.rows}\n".encode())
    assert h.hexdigest() == CATALOG7_DIGEST
    assert [sum(G.n == n for G in catalogs[0]) for n in range(8)] \
        == [1, 1, 2, 4, 11, 34, 156, 1044]
    assert [sum(G.n == n for G in catalogs[1]) for n in range(1, 8)] \
        == [1, 1, 2, 6, 21, 112, 853]


def _reach_of_0(rows):
    """The vertex mask of vertex 0's component, grown edge by edge."""
    reach = 1
    while True:
        grown = reach
        for v in range(len(rows)):
            if reach >> v & 1:
                grown |= rows[v]
        if grown == reach:
            return reach
        reach = grown


def _max_degree_triangle_connected(rows):
    """(maximum degree, has a triangle, is connected and nonempty) of the
    graph with these row bitmasks."""
    n = len(rows)
    triangle = any(rows[u] & rows[v] for u in range(n) for v in range(n) if rows[u] >> v & 1)
    connected = n > 0 and _reach_of_0(rows) == (1 << n) - 1
    return max((r.bit_count() for r in rows), default=0), triangle, connected


def test_generate_filters_match_post_filter(catalog7):
    """Every filtered catalog on at most 7 vertices is the unfiltered one
    filtered afterwards, graph by graph and in order: generation prunes only
    extensions the filters reject, and keeps the first graph of each class."""
    facts = [_max_degree_triangle_connected(G.rows) for G in catalog7]
    for max_degree in (None, 2, 3):
        for connected in (False, True):
            for triangle_free in (False, True):
                want = [G for G, (deg, triangle, conn) in zip(catalog7, facts)
                        if (max_degree is None or deg <= max_degree)
                        and (conn or not connected) and not (triangle and triangle_free)]
                got = generate_all_graphs(7, GraphFilters(max_degree, connected, triangle_free))
                assert got == want, (max_degree, connected, triangle_free)


def _induced_rows(rows, S):
    """The rows of the subgraph induced on the vertex mask S, relabelled 0, 1, ..."""
    idx = [v for v in range(len(rows)) if S >> v & 1]
    return tuple(sum(1 << j for j, u in enumerate(idx) if rows[v] >> u & 1) for v in idx)


@functools.lru_cache(maxsize=None)
def _oracle_tree_depth(rows):
    """Tree-depth by its recursive definition over ``brute_tree_depth``'s
    rooted-forest scan on at most 4 vertices: the deepest component of a
    disconnected graph, and 1 + the least over v of G - v on a connected one."""
    n = len(rows)
    if n <= 4:
        return brute_tree_depth(Graph(n, rows))
    full, reach = (1 << n) - 1, _reach_of_0(rows)
    if reach != full:
        return max(_oracle_tree_depth(_induced_rows(rows, reach)),
                   _oracle_tree_depth(_induced_rows(rows, full ^ reach)))
    return 1 + min(_oracle_tree_depth(_induced_rows(rows, full ^ 1 << v)) for v in range(n))


@functools.lru_cache(maxsize=None)
def _oracle_maps(F, G):
    """F -> G by exhaustive map search; C5 maps to K3, so a graph with a
    triangle takes C5 without the 7^5-map scan."""
    if F == cycle_graph(5) and _oracle_maps(complete_graph(3), G):
        return True
    return brute_homomorphism(F, G) is not None


def test_generate_keep_matches_post_filter(catalog7):
    """Pruning by a predicate closed under induced subgraphs gives the
    catalog filtered afterwards, graph by graph and in order, with every
    filter setting; the predicates come from the brute-force oracles."""
    keeps = [lambda G, p=p: _oracle_tree_depth(G.rows) <= p for p in range(1, 5)]
    keeps += [lambda G, F=F: not _oracle_maps(F, G)
              for F in (complete_graph(3), cycle_graph(5), complete_graph(4))]
    for filters in (None, GraphFilters(connected=True), GraphFilters(max_degree=3)):
        full = catalog7 if filters is None else generate_all_graphs(7, filters)
        for keep in keeps:
            assert generate_all_graphs(7, filters, keep) == [G for G in full if keep(G)]


def test_generate_size_cap():
    with pytest.raises(SizeLimitError):
        generate_all_graphs(9)


# --- CLI ---------------------------------------------------------------------------

@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.g6"
    path.write_text(to_graph6(path_graph(4)) + "\n")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_cli_td(p4_file, capsys):
    code, doc = run_cli(["td", "--in", p4_file], capsys)
    assert code == 0
    assert doc["schema"] == "sd-report/1"
    assert doc["results"]["value"] == 3 and doc["results"]["optimal"]
    assert doc["verdict"] == "pass"
    assert doc["wall_time_ms"] is None
    assert doc["provenance"] == {"version": doc["provenance"]["version"],
                                 "limit_nodes": None}


def test_cli_td_deep_path(tmp_path, capsys):
    """The greedy witness for graphs above the exact limit keeps no call
    stack, so a long path gets a report, not a RecursionError."""
    path = tmp_path / "p1200.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1199)))
    code, doc = run_cli(["td", "--in", str(path), "--format", "edges"], capsys)
    assert code == 0
    assert doc["results"]["optimal"] is False
    assert doc["results"]["value"] == 601
    assert doc["verdict"] == "pass"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(("td", "grad")), st.sampled_from(("g6", "edges")),
       st.text(max_size=40) | st.binary(max_size=40))
@example("td", "edges", "0 1\n1 2\n")
@example("grad", "g6", "C~\n")
@example("td", "g6", "C~\u00e9")
@example("grad", "edges", b"0 1\xff\n")
def test_cli_exit_code_contract_on_arbitrary_input(command, fmt, data):
    """Whatever the file holds, ASCII or not, td and grad exit 0 with a JSON
    report or 2 with a single error line, and raise nothing."""
    raw = data.encode() if isinstance(data, str) else data
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph")
        with open(path, "wb") as fh:
            fh.write(raw)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--in", path, "--format", fmt])
    assert code in (0, 2), (raw, code)
    if code == 0:
        assert json.loads(out.getvalue())["verdict"] == "pass"
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (raw, lines)


def test_cli_grad(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text(to_graph6(complete_graph(4)) + "\n")
    code, doc = run_cli(["grad", "--in", str(path), "--rank", "0"], capsys)
    assert code == 0
    assert doc["results"]["value"] == "3/2"
    assert doc["results"]["exact"]


def test_cli_grad_negative_rank(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text(to_graph6(complete_graph(4)) + "\n")
    assert main(["grad", "--in", str(path), "--rank", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rank must be nonnegative (got -1)\n"


def test_cli_orient(p4_file, capsys):
    code, doc = run_cli(["orient", "--in", p4_file], capsys)
    assert code == 0
    assert doc["results"]["max_indegree"] == 1
    assert doc["results"]["degeneracy"] == 1


def test_cli_centered_verify_failure_exit_code(p4_file, capsys):
    code, doc = run_cli(["centered-verify", "--in", p4_file, "--p", "3",
                         "--coloring", "0,1,0,1"], capsys)
    assert code == 1
    assert doc["verdict"] == "fail"
    assert doc["results"]["counterexample"] is not None


@pytest.mark.parametrize("argv", [
    ["centered-verify", "--p", "0", "--coloring", "0,1,0,1"],
    ["lowtd-find", "--p", "0"],
])
def test_cli_rejects_nonpositive_p(p4_file, capsys, argv):
    assert main([argv[0], "--in", p4_file] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p must be at least 1 (got 0)\n"


def test_cli_lowtd_find(p4_file, capsys):
    code, doc = run_cli(["lowtd-find", "--in", p4_file, "--p", "2",
                         "--exhaustive"], capsys)
    assert code == 0
    assert doc["results"]["k"] == 3 and doc["results"]["exhaustive"]


def test_cli_lowtd_find_threshold_above_order(tmp_path, capsys):
    """p above the order still finds the (rainbow) greedy coloring."""
    path = tmp_path / "p12.g6"
    path.write_text(to_graph6(path_graph(12)) + "\n")
    code, doc = run_cli(["lowtd-find", "--in", str(path), "--p", "13"], capsys)
    assert code == 0
    results = doc["results"]
    assert results["k"] == 12 and not results["exhaustive"]
    c = make_coloring(path_graph(12), results["colors"])
    assert verify_low_td(path_graph(12), c, 13) == (True, None)


def test_cli_power(tmp_path, capsys):
    u = tmp_path / "u.g6"
    u.write_text(to_graph6(complete_graph(2)) + "\n")
    h = tmp_path / "h.g6"
    h.write_text(to_graph6(complete_graph(3)) + "\n")
    code, doc = run_cli(["power", "--in", str(u), "--template", str(h),
                         "--p", "2"], capsys)
    assert code == 0
    assert doc["results"]["order"] == 12
    assert parse_graph6(doc["results"]["graph6"]).n == 12


def test_cli_power_edge_list_base_graph6_template(tmp_path, capsys):
    """``--format`` describes ``--in`` only: an edge-list base with a graph6
    template gives the report of the same base read as graph6."""
    U = path_graph(3)
    g6 = tmp_path / "u.g6"
    g6.write_text(to_graph6(U) + "\n")
    edges = tmp_path / "u.txt"
    edges.write_text("n 3\n" + "".join(f"{u} {v}\n" for u, v in U.edges()))
    h = tmp_path / "h.g6"
    h.write_text(to_graph6(complete_graph(3)) + "\n")
    tail = ["--template", str(h), "--p", "2"]
    code, doc = run_cli(["power", "--format", "edges", "--in", str(edges)] + tail, capsys)
    assert code == 0
    assert (code, doc) == run_cli(["power", "--in", str(g6)] + tail, capsys)
    assert doc["results"]["order"] == 3 * 3 ** 2


def test_cli_power_checks_local_property(tmp_path, capsys, monkeypatch):
    """A power that fails the local property is an internal error (exit 2,
    one ``error:`` line), not a report."""
    u = tmp_path / "u.g6"
    u.write_text(to_graph6(complete_graph(2)) + "\n")
    h = tmp_path / "h.g6"
    h.write_text(to_graph6(complete_graph(3)) + "\n")
    monkeypatch.setattr(cli, "power_local_property", lambda TP: False)
    code = main(["power", "--in", str(u), "--template", str(h), "--p", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: the truncated power fails the local property\n"


def test_cli_power_one_vertex_base_is_refused(tmp_path, capsys):
    """Over K1, K200 at p = 3 has order 200 but 200 * C(199, 2) coordinates:
    exit 2 with one ``error:`` line naming the cap, before the table is built."""
    u = tmp_path / "k1.g6"
    u.write_text(to_graph6(complete_graph(1)) + "\n")
    h = tmp_path / "k200.g6"
    h.write_text(to_graph6(complete_graph(200)) + "\n")
    assert main(["power", "--in", str(u), "--template", str(h), "--p", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: power coordinate table 200 * 19701 exceeds cap 100000\n"


def test_cli_exact_power(p4_file, capsys):
    code, doc = run_cli(["exact-power", "--in", p4_file, "--p", "2",
                         "--kind", "distance"], capsys)
    assert code == 0
    got = parse_graph6(doc["results"]["graph6"])
    assert got == build_graph(4, [(0, 2), (1, 3)])
    assert doc["results"]["odd_girth"] == "infinity"


def test_cli_dual_build_and_verify(tmp_path, capsys):
    forbid = tmp_path / "forbid.g6"
    forbid.write_text(to_graph6(complete_graph(3)) + "\n")
    dual = tmp_path / "dual.g6"
    code, doc = run_cli(["dual-build", "--gen", "--n-max", "4", "--connected",
                         "--forbid", str(forbid), "--dual-out", str(dual)], capsys)
    assert code == 0
    assert doc["results"]["provenance"]["p"] == 3
    D = parse_graph6(dual.read_text().strip())
    assert D.n == doc["results"]["provenance"]["dual_order"]
    code, doc = run_cli(["dual-verify", "--gen", "--n-max", "4", "--connected",
                         "--forbid", str(forbid), "--dual", str(dual)], capsys)
    assert code == 0
    assert doc["results"]["verdict"] == "pass"


def test_cli_c5_dual_over_subcubic7(tmp_path, capsys):
    """With C5 forbidden on the connected subcubic graphs on at most 7
    vertices, both commands exit 0: the 50-vertex dual over K1 + K2 + C7
    takes C7. A dual small enough to emit is written as the emitted
    string and a newline."""
    forbid = tmp_path / "c5.g6"
    forbid.write_text(to_graph6(cycle_graph(5)) + "\n")
    dual = tmp_path / "dual.g6"
    corpus = ["--gen", "--n-max", "7", "--max-degree", "3", "--connected",
              "--forbid", str(forbid)]
    code, doc = run_cli(["dual-build", *corpus, "--dual-out", str(dual)], capsys)
    assert code == 0 and doc["results"]["provenance"]["dual_order"] == 50
    assert dual.read_text() == doc["results"]["dual_graph6"] + "\n"
    code, doc = run_cli(["dual-verify", *corpus, "--dual", str(dual)], capsys)
    assert code == 0 and doc["results"]["verdict"] == "pass"


def test_cli_dual_verify_reads_criterion9_dual(tmp_path, capsys, subcubic7):
    """The 3,645-vertex dual of the connected subcubic graphs on at most 7
    vertices survives a graph6 round trip through the CLI, and verifies
    within 100 search nodes per question. The dual file, written block by
    block, is to_graph6's string and a newline."""
    forbid = tmp_path / "k3.g6"
    forbid.write_text(to_graph6(complete_graph(3)) + "\n")
    dual = tmp_path / "dual.g6"
    corpus = ["--gen", "--n-max", "7", "--max-degree", "3", "--connected",
              "--forbid", str(forbid)]
    code, doc = run_cli(["dual-build", *corpus, "--dual-out", str(dual)], capsys)
    assert code == 0
    assert doc["results"]["provenance"]["dual_order"] == 3645
    D = build_dual(subcubic7, [complete_graph(3)]).D
    assert dual.read_bytes() == (to_graph6(D) + "\n").encode("ascii")
    code, doc = run_cli(["dual-verify", *corpus, "--dual", str(dual)], capsys)
    assert code == 0
    assert doc["results"]["verdict"] == "pass"
    code, doc = run_cli(["dual-verify", *corpus, "--dual", str(dual),
                         "--limit-nodes", "100"], capsys)
    assert code == 0
    assert doc["results"]["verdict"] == "pass"


def test_cli_limit_nodes_only_on_dual_verify(tmp_path, p4_file, capsys):
    """Only dual-verify reads a search budget, so only it takes one, and
    only a positive one."""
    assert main(["td", "--in", p4_file, "--limit-nodes", "5"]) == 2
    capsys.readouterr()
    forbid = tmp_path / "k3.g6"
    forbid.write_text(to_graph6(complete_graph(3)) + "\n")
    argv = ["dual-verify", "--gen", "--n-max", "4", "--connected", "--forbid", str(forbid)]
    code, doc = run_cli(argv + ["--limit-nodes", "100000"], capsys)
    assert code == 0
    assert doc["provenance"]["limit_nodes"] == 100000
    for bad in ("-3", "0"):
        assert main(argv + ["--limit-nodes", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--limit-nodes" in captured.err


def test_cli_budget_stop_exits_2_never_1(tmp_path, capsys, subcubic7):
    """A search stopped at its node budget decides nothing, so on the
    criterion-9 corpus dual-verify exits 2 with one ``error:`` line that
    names the stage and the budget, or exits 0 with the results of the run
    without a budget; never 1. At library level, ``verify_duality`` raises
    ``SizeLimitError`` or returns the report of the run without a budget."""
    f_set = [complete_graph(3)]
    D = build_dual(subcubic7, f_set).D
    forbid = tmp_path / "k3.g6"
    forbid.write_text(to_graph6(complete_graph(3)) + "\n")
    dual = tmp_path / "dual.g6"
    dual.write_text(to_graph6(D) + "\n")
    argv = ["dual-verify", "--gen", "--n-max", "7", "--max-degree", "3", "--connected",
            "--forbid", str(forbid), "--dual", str(dual)]
    code, doc = run_cli(argv, capsys)
    full = verify_duality(subcubic7, f_set, D)
    assert code == 0 and doc["results"] == full.to_dict()
    stage = r"(forbidden graph \d+ into the dual|forbidden graphs into corpus graph \d+" \
            r"|corpus graph \d+ into the dual)"
    codes = set()
    for budget in (1, 2, 5, 10, 20, 50, 100):
        code = main(argv + ["--limit-nodes", str(budget)])
        captured = capsys.readouterr()
        codes.add(code)
        if code == 2:
            assert captured.out == ""
            assert re.fullmatch(f"error: {stage}: search stopped at its budget of "
                                f"{budget} nodes\n", captured.err), (budget, captured.err)
        else:
            assert code == 0, budget
            assert json.loads(captured.out)["results"] == doc["results"], budget
        try:
            report = verify_duality(subcubic7, f_set, D, budget)
        except SizeLimitError:
            assert code == 2, budget
        else:
            assert code == 0 and report == full, budget
    assert codes == {0, 2}


def test_cli_regular_partition(p4_file, capsys):
    code, doc = run_cli(["regular-partition", "--in", p4_file, "--p", "2",
                         "--coloring", "0,1,2,0", "--n-rep", "3"], capsys)
    assert code == 0
    assert doc["results"]["ok"]


def test_cli_regular_partition_n_rep_must_be_positive(p4_file, capsys):
    """An --n-rep below 1 leaves no representative to match, so it is a
    usage error (exit 2), not a failed verdict."""
    argv = ["regular-partition", "--in", p4_file, "--p", "2", "--coloring", "0,1,2,0"]
    for bad in ("0", "-3"):
        assert main(argv + ["--n-rep", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--n-rep" in captured.err


@pytest.mark.parametrize("n, colors, p, message", [
    (20, [v % 5 for v in range(20)], 5, "greedy tree-depth bound 11 exceeds 5"),
    (40, list(range(40)), 20, "capped at 65536 color sets"),
])
def test_cli_regular_partition_unproved_exits_2(tmp_path, capsys, n, colors, p, message):
    """A greedy tree-depth bound proves no violation, and too many class
    sets are refused at once: exit 2 with one line, not a failed verdict."""
    path = tmp_path / "path.g6"
    path.write_text(to_graph6(path_graph(n)) + "\n")
    assert main(["regular-partition", "--in", str(path), "--p", str(p), "--coloring",
                 ",".join(map(str, colors)), "--n-rep", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err and captured.err.count("\n") == 1


def test_cli_experiment(capsys):
    code, doc = run_cli(["experiment-odd-power", "--gen", "--n-max", "5",
                         "--connected", "--p", "3", "--n-claim", "30"], capsys)
    assert code == 0
    assert doc["results"]["claim_holds"]


@pytest.mark.parametrize("argv", [
    ["dual-build", "--forbid", "{k3}"],
    ["dual-verify", "--forbid", "{k3}"],
    ["experiment-odd-power", "--p", "3", "--n-claim", "30"],
])
def test_cli_corpus_from_file_matches_generator(tmp_path, capsys, argv):
    """A corpus read with --in, as graph6 lines, gives the report the
    generator gives for the same graphs; an edge list is a corpus of one
    graph, as its graph6 line is."""
    k3 = tmp_path / "k3.g6"
    k3.write_text(to_graph6(complete_graph(3)) + "\n")
    argv = [a.format(k3=k3) for a in argv]
    corpus = generate_all_graphs(5, GraphFilters(connected=True))
    g6 = tmp_path / "corpus.g6"
    g6.write_text("# connected graphs on at most 5 vertices\n"
                  + "".join(to_graph6(G) + "\n" for G in corpus))
    want = run_cli(argv + ["--gen", "--n-max", "5", "--connected"], capsys)
    assert run_cli(argv + ["--in", str(g6)], capsys) == want
    assert want[1]["parameters"]["corpus"] == len(corpus)
    C5 = cycle_graph(5)
    edges = tmp_path / "c5.txt"
    edges.write_text("".join(f"{u} {v}\n" for u, v in C5.edges()))
    one = tmp_path / "c5.g6"
    one.write_text(to_graph6(C5) + "\n")
    want = run_cli(argv + ["--in", str(one)], capsys)
    assert run_cli(argv + ["--in", str(edges), "--format", "edges"], capsys) == want
    assert want[1]["parameters"]["corpus"] == 1


def test_cli_regular_partition_reads_reps(p4_file, tmp_path, capsys):
    """--reps reads the representatives from a graph6 file in place of
    generating them: the same ones give the same report."""
    reps = tmp_path / "reps.g6"
    reps.write_text("".join(to_graph6(R) + "\n" for R in representatives(2, 3)))
    argv = ["regular-partition", "--in", p4_file, "--p", "2", "--coloring", "0,1,2,0"]
    want = run_cli(argv + ["--n-rep", "3"], capsys)
    assert want[0] == 0
    assert run_cli(argv + ["--reps", str(reps)], capsys) == want
    reps.write_text(to_graph6(complete_graph(1)) + "\n")  # K1 matches no edge
    code, doc = run_cli(argv + ["--reps", str(reps)], capsys)
    assert code == 1 and not doc["results"]["ok"] and doc["results"]["unmatched"]


def test_cli_exact_power_defaults_to_path_kind(p4_file, capsys):
    code, doc = run_cli(["exact-power", "--in", p4_file, "--p", "3"], capsys)
    assert code == 0
    assert doc["results"]["kind"] == "path"
    assert parse_graph6(doc["results"]["graph6"]) == exact_power(path_graph(4), 3)


@pytest.mark.parametrize("kind, message", [("path", "power"), ("distance", "distance")])
def test_cli_exact_power_bad_p_is_an_error(p4_file, capsys, kind, message):
    assert main(["exact-power", "--in", p4_file, "--p", "0", "--kind", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} must be >= 1\n"


@pytest.mark.parametrize("command", [
    ["centered-verify", "--p", "2"],
    ["regular-partition", "--p", "2", "--n-rep", "3"],
])
def test_cli_coloring_length_must_match_order(p4_file, capsys, command):
    assert main(command + ["--in", p4_file, "--coloring", "0,1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coloring has 3 entries for 4 vertices\n"


def test_cli_out_file(p4_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["td", "--in", p4_file, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["results"]["value"] == 3


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["td", "--in", str(tmp_path / "missing.g6")]) == 2
    capsys.readouterr()
    assert main(["td"]) == 2  # no input at all
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.g6"
    bad.write_text("A_extra\n")
    assert main(["td", "--in", str(bad)]) == 2
    capsys.readouterr()
    good = tmp_path / "p4.g6"
    good.write_text(to_graph6(path_graph(4)) + "\n")
    assert main(["td", "--in", str(good), "--seed", "1"]) == 2  # no such option


def test_cli_graph6_input_skips_comment_lines(tmp_path, capsys):
    """A single-graph command reads graph6 as a corpus does: a line
    starting with '#' is a comment."""
    path = tmp_path / "p4.g6"
    path.write_text("# the path on 4 vertices\n" + to_graph6(path_graph(4)) + "\n")
    code, doc = run_cli(["td", "--in", str(path)], capsys)
    assert code == 0 and doc["results"]["value"] == 3


@pytest.mark.parametrize("text, count", [
    ("A_\nBw\n", 2),
    ("# no graph here\n\n", 0),
])
@pytest.mark.parametrize("argv", [
    ["td", "--in", "{bad}"],
    ["power", "--in", "{k3}", "--template", "{bad}", "--p", "2"],
    ["dual-verify", "--gen", "--n-max", "3", "--forbid", "{k3}", "--dual", "{bad}"],
])
def test_cli_single_graph_inputs_refuse_other_counts(tmp_path, capsys, argv, text, count):
    """--in, --template and --dual each name one graph: a graph6 file
    holding none or several exits 2 with one line, not a silent first."""
    bad = tmp_path / "bad.g6"
    bad.write_text(text)
    k3 = tmp_path / "k3.g6"
    k3.write_text(to_graph6(complete_graph(3)) + "\n")
    files = {"bad": str(bad), "k3": str(k3)}
    assert main([a.format(**files) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad} holds {count} graphs, expected one\n"


def test_cli_search_errors_exit_2(p4_file, capsys, monkeypatch):
    """An exhausted call stack is an error, exit 2 with a one-line
    message, not a traceback and the verdict-fail exit 1."""
    def fail(G):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "tree_depth", fail)
    assert main(["td", "--in", p4_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: maximum recursion depth exceeded\n"


def test_cli_huge_edge_list_exits_2(tmp_path):
    """An endpoint of 10^12 asks for more memory than there is: a one-line
    error and exit 2, not a traceback and the verdict-fail exit 1. The
    child's address space is capped at 2 GiB so the attempt fails fast."""
    path = tmp_path / "huge.txt"
    path.write_text("0 1000000000000\n")
    cap = 2 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "homdual.cli", "td", "--format", "edges", "--in", str(path)],
        capture_output=True, text=True, preexec_fn=limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("text, message", [
    ("0 1000000000\n", "edge list order 1000000001 exceeds cap 100000"),
    ("n 1000000000\n", "edge list order 1000000000 exceeds cap 100000"),
    ("0 1000000000\nbad\n", "line 2: expected 'u v' (at 2)"),
])
def test_cli_edge_list_order_cap(tmp_path, text, message):
    """An order of 10^9 is refused before any row is allocated: exit 2 with
    the cap's message. The child's address space is capped at 1 GiB, so an
    attempt to allocate the rows would fail with a different message."""
    path = tmp_path / "huge.txt"
    path.write_text(text)
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "homdual.cli", "td", "--format", "edges", "--in", str(path)],
        capture_output=True, text=True, preexec_fn=limit_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_cli_entrypoint_subprocess(p4_file):
    proc = subprocess.run(
        [sys.executable, "-m", "homdual.cli", "td", "--in", p4_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["value"] == 3


def test_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, homdual; sys.exit(3 if 'numpy' in sys.modules else 0)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_timing_flag(p4_file, capsys, monkeypatch):
    def no_wall_clock():
        raise AssertionError("--timing read the wall clock")

    monkeypatch.setattr(time, "time", no_wall_clock)  # the monotonic clock only
    code, doc = run_cli(["td", "--in", p4_file, "--timing"], capsys)
    assert code == 0
    assert isinstance(doc["wall_time_ms"], int)
