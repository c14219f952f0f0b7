"""graph6 and edge-list interchange formats."""

from __future__ import annotations

import base64
import json
import operator
import re
from typing import Iterator

from .errors import GraphError, SizeLimitError
from .graphs import Graph, _mirror

EDGE_LIST_ORDER_CAP = 100_000  # no less than duality.POWER_ORDER_CAP


class ParseError(GraphError):
    """Input rejected; ``offset`` is a byte offset (one graph6 string) or a
    line (edge lists, files of graph6 lines)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at {offset})")
        self.reason, self.offset = message, offset


def _read_g6_size(data: bytes) -> tuple[int, int]:
    """Decode the graph6 size header; returns (n, bytes consumed)."""
    if not data:
        raise ParseError("empty graph6 string", 0)
    c = data[0]
    if c == 126:  # '~': extended sizes, '~' + 3 bytes or '~~' + 6 bytes
        start, end = (2, 8) if len(data) >= 2 and data[1] == 126 else (1, 4)
        if len(data) < end:
            raise ParseError(f"truncated {end}-byte size header", len(data))
        vals = [b - 63 for b in data[start:end]]
        if any(v < 0 or v > 63 for v in vals):
            raise ParseError("invalid size byte", start)
        n = 0
        for v in vals:
            n = n << 6 | v
        return n, end
    if not 63 <= c <= 126:
        raise ParseError(f"invalid header byte {c}", 0)
    return c - 63, 1


# graph6 packs six bits per byte as chr(63 + value); base64 packs six bits
# per byte too, so the standard codec does the bit packing at C speed.
_G6_CHARS = bytes(range(63, 127))
_B64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_G6 = bytes.maketrans(_G6_CHARS, _B64_CHARS)
_TO_G6 = bytes.maketrans(_B64_CHARS, _G6_CHARS)
# little-endian bytes, bit order reversed: stream bit 0 first, as the MSB
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


_BLOCK_BITS = 1 << 18  # one block up to 769 vertices, a few dozen KB of temporaries
_PEEL_COLUMNS = 16  # parts this narrow lose less to shifts than to splitting


def _column_blocks(n: int) -> Iterator[tuple[int, int]]:
    """Ranges lo..hi-1 of whole columns that cut the upper-triangle stream
    into blocks of at least ``_BLOCK_BITS`` bits (the last may hold fewer).

    Column j holds the bits of pairs (0, j), ..., (j - 1, j), at stream
    offset j(j-1)/2. Each block starts at a column j = 1 (mod 48), whose
    offset is a multiple of 24 bits, four graph6 characters, so the blocks
    are coded one at a time with no temporaries the size of the stream.
    """
    lo = 1
    while lo < n:
        hi = lo + 48
        while hi < n and (hi * (hi - 1) - lo * (lo - 1)) // 2 < _BLOCK_BITS:
            hi += 48
        yield lo, min(hi, n)
        lo = hi


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' prefix tolerated).

    Each column j is placed as row j's lower part, bits i < j, as its block
    is decoded, and ``graphs._mirror`` adds every row's upper part once all
    columns are placed.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError(f"non-ASCII character {s[exc.start]!r}", exc.start) from None
    n, pos = _read_g6_size(data)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != need:
        raise ParseError(
            f"expected {need} payload bytes for n={n}, got {len(data) - pos}", pos)
    bad = data.lstrip(_G6_CHARS)  # the size header is in the alphabet too
    if bad:
        raise ParseError(f"invalid payload byte {bad[0]}", len(data) - len(bad))
    rows = [0] * n
    for a, b in _column_blocks(n):
        first, stop = a * (a - 1) // 2, b * (b - 1) // 2  # the block's stream bits
        chunk = data[pos + first // 6:pos + (stop + 5) // 6].translate(_FROM_G6)
        raw = base64.b64decode(chunk + b"A" * (-len(chunk) % 4)).translate(_BIT_REVERSED)
        packed = int.from_bytes(raw, "little")  # block bit k is bit k
        if packed >> (stop - first):
            raise ParseError("nonzero padding bits", len(data) - 1)
        # split the block in halves, the inverse of the writer's join, so
        # that each bit is shifted O(log n) times, down to parts of at most
        # _PEEL_COLUMNS columns, which are peeled off one shift at a time
        stack = [(packed, a, b)]  # (columns lo..hi-1, lo, hi)
        while stack:
            part, lo, hi = stack.pop()
            if hi - lo > _PEEL_COLUMNS:
                mid = (lo + hi) // 2
                width = (mid * (mid - 1) - lo * (lo - 1)) // 2
                stack.append((part & ((1 << width) - 1), lo, mid))
                stack.append((part >> width, mid, hi))
                continue
            for j in range(lo, hi - 1):  # peel column j off; the last is what is left
                rows[j] = part & ((1 << j) - 1)  # column j is row j's lower part
                part >>= j
            rows[hi - 1] = part
    del data  # the rows hold the payload now
    _mirror(rows)
    return Graph._symmetric(n, rows)


def graph6_pieces(G: Graph) -> Iterator[str]:
    """G's graph6 string in pieces, one at a time: the size header, then
    one per column block (see ``_column_blocks``); ``to_graph6`` joins them."""
    n = G.n
    if n <= 62:
        header = bytes([n + 63])
    elif n <= 258047:
        header = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    else:
        header = bytes([126, 126] + [(n >> (6 * k) & 63) + 63 for k in range(5, -1, -1)])
    yield header.decode("ascii")
    for lo, hi in _column_blocks(n):
        # pack block bit k as bit k of one integer, joining the columns
        # pairwise so that each bit is shifted O(log n) times
        parts = [(G.rows[j] & ((1 << j) - 1), j) for j in range(lo, hi)]
        while len(parts) > 1:
            joined = [(a | b << wa, wa + wb)
                      for (a, wa), (b, wb) in zip(parts[::2], parts[1::2])]
            parts = joined + parts[2 * len(joined):]
        packed, nbits = parts[0]
        raw = packed.to_bytes((nbits + 23) // 24 * 3, "little").translate(_BIT_REVERSED)
        body = base64.b64encode(raw).translate(_TO_G6)[:(nbits + 5) // 6]
        yield body.decode("ascii")


def to_graph6(G: Graph) -> str:
    return "".join(graph6_pieces(G))


_EDGE_WINDOW = 8192  # characters scanned at a time, so no split of the whole text
# a JSON integer: ASCII digits, no leading zero (a lookahead, faster in re than 0|[1-9][0-9]*)
_JSON_INT = r"(?!0[0-9])[0-9]+"
_PLAIN_LINES = re.compile(rf"(?:{_JSON_INT} {_JSON_INT}\r?\n)*")


def _add_plain_edges(window: str, rows: list[int], limit: int) -> bool:
    """Add the edges of a window of plain lines to ``rows`` and return True;
    or return False, leaving ``rows`` as it was, if some line holds a loop,
    an endpoint at or above ``limit`` or more digits than ``int`` converts.

    The JSON scanner reads the window's tokens as one array: its integers
    are those of the plain lines, and it refuses an integer that ``int``
    would refuse."""
    array = window.rstrip().replace("\r", "").replace(" ", ",").replace("\n", ",")
    try:
        ends = json.loads(f"[{array}]")
    except ValueError:
        return False
    us, vs = ends[::2], ends[1::2]
    top = max(ends)
    if top >= limit or any(map(operator.eq, us, vs)):
        return False
    if top >= len(rows):
        rows.extend([0] * (top + 1 - len(rows)))
    for u, v in zip(us, vs):
        rows[u] |= 1 << v
        rows[v] |= 1 << u  # both bits of each edge: the rows are symmetric
    return True


def parse_edge_list(text: str) -> Graph:
    """Lines "u v"; an optional first line "n <count>" fixes the order.

    Rows grow as vertices appear and are padded to n only at the end, so a
    malformed line is reported before an edge outside 0..n-1, and an order
    above ``EDGE_LIST_ORDER_CAP`` (from the header or an endpoint) raises
    ``SizeLimitError`` before any row is allocated for it.

    The text is read in windows cut just after newlines, so that
    ``str.splitlines`` finds the same lines in them as in the whole text:
    the first line alone, so a size header never costs a whole window, then
    each window up to the first newline at least ``_EDGE_WINDOW`` characters
    past its start, or the end of the text. A window of plain lines only,
    "u v\\n" or "u v\\r\\n" with two JSON integers (ASCII digits, no
    leading zero) and one space, is decoded in bulk, its integers read by
    the JSON scanner (``_add_plain_edges``), when every edge in it is in
    range and no loop; every other window is read by the per-line loop
    below, so errors and their line numbers are those it gives.
    """
    n = None
    rows: list[int] = []
    outside = None
    beyond = 0  # order asked for by endpoints at or above the cap
    lineno = 0
    pos, size = 0, len(text)
    stop = text.find("\n") + 1 or size
    while pos < size:
        window = text[pos:stop]
        pos, stop = stop, text.find("\n", stop + _EDGE_WINDOW) + 1 or size
        if _PLAIN_LINES.fullmatch(window):
            limit = EDGE_LIST_ORDER_CAP if n is None else min(n, EDGE_LIST_ORDER_CAP)
            if _add_plain_edges(window, rows, limit):
                lineno += window.count("\n")
                continue
        for raw in window.splitlines():
            lineno += 1
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "n":
                if n is not None or rows or beyond:
                    raise ParseError(f"line {lineno}: stray size header", lineno)
                try:  # int() also refuses more digits than its conversion limit
                    if len(parts) != 2 or not parts[1].isdecimal():
                        raise ValueError
                    n = int(parts[1])
                except ValueError:
                    raise ParseError(f"line {lineno}: malformed size header", lineno) from None
                continue
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'u v'", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint", lineno) from None
            if u < 0 or v < 0:
                raise ParseError(f"line {lineno}: negative endpoint", lineno)
            if u == v:
                raise ParseError(f"line {lineno}: loop edge {u} {v}", lineno)
            top = u if u > v else v
            if n is not None and top >= n:
                outside = outside or (u, v)
                continue
            if top >= len(rows):
                if top >= EDGE_LIST_ORDER_CAP:
                    beyond = max(beyond, top + 1)
                    continue
                rows.extend([0] * (top + 1 - len(rows)))
            rows[u] |= 1 << v
            rows[v] |= 1 << u  # both bits of each edge: the rows are symmetric
    order = n if n is not None else max(len(rows), beyond)
    if order > EDGE_LIST_ORDER_CAP:
        raise SizeLimitError(f"edge list order {order} exceeds cap {EDGE_LIST_ORDER_CAP}")
    if outside:
        u, v = outside
        raise GraphError(f"edge ({u},{v}) out of range for n={n}")
    if n is not None:
        rows.extend([0] * (n - len(rows)))
    return Graph._symmetric(len(rows), rows)


def parse_graph_lines(text: str) -> list[Graph]:
    """One graph6 string per nonempty line; an error names its 1-based line
    as the offset, and the byte of the stripped line in its message."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                out.append(parse_graph6(line))
            except ParseError as exc:
                raise ParseError(
                    f"line {lineno}, byte {exc.offset}: {exc.reason}", lineno) from None
    return out
