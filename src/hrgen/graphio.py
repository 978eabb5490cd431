"""Reading and writing graphs as plain-text files.

The native format is an edge list: one optional header line
`# n m seed R alpha`, then one `u v` line per edge with 0-based ids, u < v,
sorted lexicographically. Identical graphs and headers produce byte-identical
files. A METIS adjacency writer is included for interoperability. Both
writers build their digits in numpy and write the file in binary mode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import Graph, pair_keys

# Writers format this many edge lines, or METIS values, per block: a block
# of lines is a digit matrix and a mask of 2 * _WRITE_BLOCK bytes per decimal
# place and separator, 1.8 MB each for 6-digit ids, compressed once.
_WRITE_BLOCK = 131_072

# Edge files are parsed in blocks of about this many bytes, cut at line ends.
_READ_BLOCK = 1 << 18

# Longest decimal id accepted; 18 digits cannot overflow int64.
_MAX_DIGITS = 18


@dataclass(frozen=True)
class EdgeListHeader:
    n: int
    m: int
    seed: int
    radius: float
    alpha: float

    def line(self) -> str:
        return f"# {self.n} {self.m} {self.seed} {self.radius!r} {self.alpha!r}\n"


def _format_ids(ids, seps, *, blank_zero=False):
    """Bytes of each id in decimal, then its separator byte; with
    `blank_zero`, an id 0 gives its separator alone. Ids are divided as
    uint32 (every id < `MAX_N` < 2**32), several times cheaper than int64.
    Rows of one digit per decimal place and a separator, without leading
    zeros, are the text."""
    rest = ids.astype(np.uint32)
    width = len(str(int(rest.max())))
    lead = width - len(str(int(rest.min())))  # columns that hold leading zeros
    text = np.empty((rest.size, width + 1), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    if blank_zero:
        np.greater(rest, 0, out=keep[:, width - 1])
    for col in range(width - 1, -1, -1):
        if col < lead:
            np.greater(rest, 0, out=keep[:, col])
        quot = rest // 10
        np.subtract(rest, quot * 10, out=text[:, col], casting="unsafe")
        rest = quot
    text += ord("0")
    text[:, width] = seps
    return text[keep]


def write_edgelist(graph: Graph, path, header: EdgeListHeader | None = None):
    """Writes the edges of `graph.keys` one block at a time, so the file
    costs no memory per edge. Raises ValueError, before opening the file, on
    a header whose n or m is not the graph's."""
    if header is not None and (header.n, header.m) != (graph.n, graph.m):
        raise ValueError(f"header n, m = {header.n}, {header.m} contradicts the graph")
    seps = np.tile(np.frombuffer(b" \n", dtype=np.uint8), min(graph.m, _WRITE_BLOCK))
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.line().encode())
        for lo in range(0, graph.m, _WRITE_BLOCK):
            ids = graph.edge_array(lo, lo + _WRITE_BLOCK).ravel()
            fh.write(_format_ids(ids, seps[: ids.size]))


def _parse_pairs(buf):
    """Integers of a block of whole edge lines, as a flat int64 array.

    The inverse of `_format_ids`: the bytes between two separators are one
    value, summed from its digits one decimal place per pass, from the last
    digit of every value to its first. Raises ValueError for a byte other
    than a digit, blank or line end, and for a non-blank line that does not
    hold exactly two values.
    """
    text = np.frombuffer(buf, dtype=np.uint8)
    sep = np.flatnonzero(text - ord("0") >= 10)
    sep_byte = text[sep]
    newline = sep_byte == ord("\n")
    if not np.all(
        newline | (sep_byte == ord(" ")) | (sep_byte == ord("\t")) | (sep_byte == ord("\r"))
    ):
        raise ValueError("edge lines may hold only decimal vertex ids")
    bounds = np.concatenate(([-1], sep, [text.size]))
    value_at = np.diff(bounds) > 1
    starts = bounds[:-1][value_at] + 1
    ends = bounds[1:][value_at]
    # values pair up on one line each, and each pair has a line of its own
    line = np.concatenate(([0], np.cumsum(newline)))[value_at]
    if (
        starts.size % 2
        or np.any(line[0::2] != line[1::2])
        or np.any(line[2::2] == line[1:-1:2])
    ):
        raise ValueError("every edge line must hold two vertex ids")
    width = ends - starts
    places = int(width.max(initial=0))
    if places > _MAX_DIGITS:
        raise ValueError(f"vertex id longer than {_MAX_DIGITS} digits")
    values = np.zeros(starts.size, dtype=np.int64)
    at = ends - 1
    for place in range(places):
        digit = text[at] - np.uint8(ord("0"))
        digit[width <= place] = 0
        values += digit * np.int64(10**place)
        at -= 1
    return values


def read_edgelist(path):
    """Returns (graph, header-or-None); without a header, n is the largest id
    plus one. Each non-blank line after the header must hold two decimal ids,
    else ValueError. Lines may come in any order; sorted ones skip a sort.
    After a header each block of lines becomes keys at once, in one array of
    the m it announces; without one the ids are held until n is known. Every
    ValueError about the file's content names the file."""
    try:
        header = None
        ids = []
        with open(path, "rb") as fh:
            first = fh.readline().decode("utf-8", errors="replace")
            if first.startswith("#"):
                parts = first[1:].split()
                if len(parts) != 5:
                    raise ValueError(f"malformed header line: {first!r}")
                header = EdgeListHeader(*map(int, parts[:3]), *map(float, parts[3:]))
            else:
                fh.seek(0)
            # an edge line takes 3 bytes or more, so no header makes this exceed the file
            cap = min(max(header.m, 0), os.fstat(fh.fileno()).st_size // 3) if header else 0
            keys = np.empty(cap, dtype=np.int64)
            size = 0
            rest = b""
            while True:
                chunk = fh.read(_READ_BLOCK)
                block = rest + chunk
                # cut at the last line end; the last line may lack its newline
                cut = block.rfind(b"\n") + 1 if chunk else len(block)
                block, rest = block[:cut], block[cut:]
                values = _parse_pairs(block)
                count = values.size // 2
                if header is None:
                    ids.append(values)
                elif size + count > keys.size:
                    raise ValueError(f"header announces {header.m} edges, file holds more")
                else:
                    # one array: blocks of keys kept between the parser's temporaries
                    # made glibc fault in fresh pages per block (30 k faults, not 9 k)
                    keys[size : size + count] = pair_keys(header.n, values[0::2], values[1::2])
                    size += count
                if not chunk:
                    break
        if header is None:
            ids = np.concatenate(ids)
            n = int(ids.max()) + 1 if ids.size else 0
            keys = pair_keys(n, ids[0::2], ids[1::2])
            del ids
        else:
            n, keys = header.n, keys[:size]
        graph = Graph.from_edge_arrays(n, keys)
        if header is not None and graph.m != header.m:
            raise ValueError(f"header announces {header.m} edges, file holds {graph.m}")
        return graph, header
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_metis(graph: Graph, path):
    """METIS adjacency format: header `n m`, then per-vertex neighbor lists
    with 1-based ids; a 0 entry writes an isolated vertex's empty line."""
    deg = graph.degrees()
    values = np.insert(graph.indices + 1, graph.indptr[:-1][deg == 0], 0)
    seps = np.full(values.size, ord(" "), dtype=np.uint8)
    seps[np.cumsum(np.maximum(deg, 1)) - 1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"{graph.n} {graph.m}\n".encode())
        for lo in range(0, values.size, _WRITE_BLOCK):
            hi = lo + _WRITE_BLOCK
            fh.write(_format_ids(values[lo:hi], seps[lo:hi], blank_zero=True))
