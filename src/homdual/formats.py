"""graph6 and edge-list interchange formats."""

from __future__ import annotations

import base64
import json
import operator
import re
import struct
from itertools import chain, islice, repeat
from typing import Iterator

from .errors import GraphError, SizeLimitError
from .graphs import Graph

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


def _tile_bits(n: int) -> int:
    """Side T of the square tiles in which ``_mirror_tiles`` transposes an
    n-vertex graph: the power of two at or above n, from 8 to 256."""
    return min(256, max(8, 1 << (n - 1).bit_length()))


def _tiles_pay(n: int, edges: int) -> bool:
    """Whether ``_mirror_tiles`` beats the per-edge mirror on an n-vertex
    graph: above n^2/(2T) + 4n edges. Its n^2/(2T) strip rows and n
    unpacked rows cost about what one and four edges cost the per-edge
    walk, measured from 9 to 12,000 vertices."""
    T = _tile_bits(n)
    return 2 * T * edges > n * (n + 8 * T)


def _transpose_rounds(T: int) -> list[tuple[int, int]]:
    """(distance, mask) of each round of the mask-swap transpose of a T x T
    bit matrix held as one integer, entry (r, c) at bit rT + c (Warren,
    Hacker's Delight, 7-3). The round of width s swaps the upper right and
    lower left s x s blocks of every 2s x 2s block: its mask marks the
    entries with r & s = 0 and c & s != 0, and each one's partner, entry
    (r + s, c - s), lies s(T - 1) bits above it."""
    rounds = []
    s = T // 2
    while s:
        row = int(("1" * s + "0" * s) * (T // (2 * s)), 2).to_bytes(T // 8, "little")
        mask = (row * s + bytes(T // 8 * s)) * (T // (2 * s))
        rounds.append((s * (T - 1), int.from_bytes(mask, "little")))
        s //= 2
    return rounds


_TRANSPOSE_ROUNDS = {1 << k: _transpose_rounds(1 << k) for k in range(3, 9)}


def _mirror_tiles(rows: list[int]) -> None:
    """Add to each row its upper part, given every row's lower part, by
    transposing the lower triangle in T x T tiles (T = ``_tile_bits(n)``),
    a strip of T columns at a time.

    The strip at column lo packs bits lo..lo+T-1 of rows lo, ..., n-1, T
    bits a row, into whole tiles, and each tile is transposed in place by
    the rounds of ``_transpose_rounds``. Row r of the transposed tile of
    rows lo + JT.. then holds bits lo + JT.. of row lo + r's upper part, so
    row r of every tile, joined, is that upper part from bit lo on. The
    strip's T rows get it at once; later strips read only later rows,
    which are still lower parts.
    """
    n = len(rows)
    T = _tile_bits(n)
    width, area = T // 8, T * T // 8  # bytes of a tile row, of a tile
    rounds, low = _TRANSPOSE_ROUNDS[T], (1 << T) - 1
    for lo in range(0, n, T):
        tiles = -(-(n - lo) // T)
        cut = map(operator.and_, map(operator.rshift, islice(rows, lo, None), repeat(lo)),
                  repeat(low))
        strip = bytearray().join(chain(map(int.to_bytes, cut, repeat(width), repeat("little")),
                                       repeat(bytes(width), tiles * T - (n - lo))))
        for at in range(0, len(strip), area):
            x = int.from_bytes(strip[at:at + area], "little")
            for d, m in rounds:
                t = (x ^ x >> d) & m
                x ^= t ^ t << d
            strip[at:at + area] = x.to_bytes(area, "little")
        # row r of every tile, read from byte r * width on
        row = struct.Struct(f"{width}s{area - width}x" * (tiles - 1) + f"{width}s").unpack_from
        hi = min(lo + T, n)
        joined = map(b"".join, map(row, repeat(strip), range(0, (hi - lo) * width, width)))
        upper = map(operator.lshift, map(int.from_bytes, joined, repeat("little")), repeat(lo))
        rows[lo:hi] = map(operator.or_, rows[lo:hi], upper)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' prefix tolerated).

    Each column j is placed as row j's lower part, bits i < j. A sparse
    graph (see ``_tiles_pay``) mirrors each column's bits into the rows
    above as it is placed, one set bit at a time; any other gets every
    row's upper part from ``_mirror_tiles`` once all columns are placed.
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
    blocks, edges = [], 0
    for a, b in _column_blocks(n):
        first, stop = a * (a - 1) // 2, b * (b - 1) // 2  # the block's stream bits
        chunk = data[pos + first // 6:pos + (stop + 5) // 6].translate(_FROM_G6)
        raw = base64.b64decode(chunk + b"A" * (-len(chunk) % 4)).translate(_BIT_REVERSED)
        packed = int.from_bytes(raw, "little")  # block bit k is bit k
        if packed >> (stop - first):
            raise ParseError("nonzero padding bits", len(data) - 1)
        blocks.append((packed, a, b))
        edges += packed.bit_count()
    del data  # the blocks hold the payload now
    tiles = edges > 4 * n and _tiles_pay(n, edges)  # no call for fewer: they never pay
    rows = [0] * n
    for block in blocks:
        # split the block in halves, the inverse of the writer's join, so
        # that each bit is shifted O(log n) times, down to parts of at most
        # _PEEL_COLUMNS columns, which are peeled off one shift at a time
        stack = [block]  # (columns lo..hi-1, lo, hi)
        while stack:
            part, lo, hi = stack.pop()
            if hi - lo > _PEEL_COLUMNS:
                mid = (lo + hi) // 2
                width = (mid * (mid - 1) - lo * (lo - 1)) // 2
                stack.append((part & ((1 << width) - 1), lo, mid))
                stack.append((part >> width, mid, hi))
                continue
            for j in range(lo, hi):
                column = part
                if j + 1 < hi:  # peel column j off; the last is what is left
                    column &= (1 << j) - 1
                    part >>= j
                rows[j] |= column  # column j is row j's lower part
                if not tiles:  # mirror it one set bit at a time
                    bit = 1 << j
                    while column:
                        low = column & -column
                        rows[low.bit_length() - 1] |= bit
                        column ^= low
    del blocks  # the rows hold them now
    if tiles:
        _mirror_tiles(rows)
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
_BEFORE_PLAIN_LINE = re.compile(rf"\n(?={_JSON_INT} {_JSON_INT}\r?\n)")


def _edge_list_pieces(text: str) -> Iterator[tuple[str, bool]]:
    """``text`` cut just after newlines into (piece, plain) pairs, in order.

    The text is scanned in windows of about ``_EDGE_WINDOW`` characters,
    each ending just after a newline. A plain piece is the longest run of
    whole lines "u v\\n" (or "u v\\r\\n") of two JSON integers, ASCII
    digits with no leading zero, and one space at that point of its window;
    any other piece runs from there to the window's next plain line, so a
    file of commented edges is cut once per window, not once per line.
    Only newlines cut, so ``str.splitlines`` finds the same lines in the
    pieces as in the whole text.
    """
    pos, size = 0, len(text)
    while pos < size:
        stop = text.find("\n", pos + _EDGE_WINDOW) + 1 or size
        while pos < stop:
            end = _PLAIN_LINES.match(text, pos, stop).end()
            if end > pos:
                yield text[pos:end], True
                pos = end
            if pos < stop:
                plain = _BEFORE_PLAIN_LINE.search(text, pos, stop)
                end = plain.end() if plain else stop
                yield text[pos:end], False
                pos = end


def _add_plain_edges(piece: str, rows: list[int], limit: int) -> bool:
    """Add the edges of a plain piece to ``rows`` and return True; or return
    False, leaving ``rows`` as it was, if some line holds a loop, an endpoint
    at or above ``limit`` or more digits than ``int`` converts.

    The JSON scanner reads the piece's tokens as one array: its integers
    are those of the plain lines, and it refuses an integer that ``int``
    would refuse."""
    array = piece.rstrip().replace("\r", "").replace(" ", ",").replace("\n", ",")
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

    Runs of plain lines (see ``_edge_list_pieces``) are decoded in bulk,
    their integers read by the JSON scanner (``_add_plain_edges``), when
    every edge in them is in range and no loop; any other line, and
    every line of a run that fails those checks, is read by the per-line
    loop below, so errors and their line numbers are those it gives.
    """
    n = None
    rows: list[int] = []
    outside = None
    beyond = 0  # order asked for by endpoints at or above the cap
    lineno = 0
    for piece, plain in _edge_list_pieces(text):
        if plain:
            limit = EDGE_LIST_ORDER_CAP if n is None else min(n, EDGE_LIST_ORDER_CAP)
            if _add_plain_edges(piece, rows, limit):
                lineno += piece.count("\n")
                continue
        for raw in piece.splitlines():
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
