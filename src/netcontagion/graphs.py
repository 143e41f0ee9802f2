"""Undirected simple graphs: representation, scale-free generation, and I/O.

A :class:`Network` stores its neighbour lists as the CSR arrays
``(indptr, indices)`` and validates them in one vectorized pass; the lists
as Python tuples are built only when a caller first reads ``adjacency``.
:meth:`Network.from_edges` works on numpy arrays of endpoints, and
:func:`load_edge_list` parses a plain-ASCII document as one byte array, so
loading a graph costs a few array passes, not a Python object per node,
edge or token.  In a document whose tokens are each separated by one
byte, as :func:`dump_edge_list` writes them, that byte alone tells a
blank within a line from a break between lines; ids of up to 9 digits are
read in int32.  The passes write into buffers they allocate once, so the
transient bytes stay within a small multiple of the CSR's 16 B per edge:
tracemalloc peaks on the 149,985 edges of ``generate_ba(30000, 5, 1)`` are
51.6 B per edge for ``from_edges`` (validation included), 70.9 B for
``load_edge_list`` of its dump with its header and 67.6 B for all of
``generate_ba``, which frees its endpoint lists before ``from_edges`` runs.
:meth:`Network.edges` and :func:`dump_edge_list` turn ``_CHUNK`` CSR slots
at a time into Python ints.

Randomness convention: every generator in this package draws from
``numpy.random.Generator(numpy.random.PCG64(seed))``, so a seed pins the
produced graph bit-for-bit.  :func:`generate_ba` takes the bit generator's
raw outputs in blocks and makes each pick as ``Generator.integers(0, k)``
does, by numpy's bounded-integer method (Lemire's).  numpy promises no
stable stream across versions (NEP 19); the tests compare it with one
``Generator.integers`` call per draw and pin a digest, so a change shows.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EdgeListParseError, ParameterError
from .rational import as_integer

# Largest node count whose packed edge keys ``u * n + v`` fit in int64.
_MAX_NODES = math.isqrt(2**63 - 1)
# The line boundaries of ``str.splitlines``; ``\r\n`` is ``\r`` then ``\n``.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = re.compile(f"#[^{_LINE_BREAKS}]*")
# Byte classes for _parse_plain: a digit's value, a blank, a line break of
# ``str.splitlines``, or any other byte.
_BLANK, _BREAK, _OTHER = 16, 32, 255
_BYTE_CLASS = bytes(c - 48 if 48 <= c <= 57 else _BLANK if c in b" \t"
                    else _BREAK if chr(c) in _LINE_BREAKS else _OTHER for c in range(256))
# 64-bit words that generate_ba draws at a time.
_DRAW_BLOCK = 1024
# Entries that a chunked pass takes at a time: CSR slots that Network.edges
# and dump_edge_list turn into Python ints, or bytes that _parse_plain scans.
_CHUNK = 2**16
# Peak bytes of building a network, per node and per edge, and per edge
# that generate_ba draws (its endpoint lists hold a Python int per entry):
# rounded up from least-squares fits of tracemalloc peaks at n = 20,000 and
# 60,000, m = 1 to 10: 8 B per node and 50 B per edge for from_edges, 44 B
# per node and 91 B per edge for all of generate_ba, fitted while it still
# held its endpoint lists through from_edges, so now a loose bound.  At
# generate_ba(30000, 5, 1) the peaks are 51.6 and 67.6 B per edge.
_NODE_BYTES, _EDGE_BYTES, _DRAWN_EDGE_BYTES = 48, 64, 32


def _node_id(value) -> int:
    return as_integer(value, "node id")


def _flat_ints(rows: Iterable[Iterable[int]], count: int) -> np.ndarray:
    """The node ids of ``rows``, flattened into int64, each read by the one
    integer rule (:func:`~netcontagion.rational.as_integer`).

    An integer beyond int64 keeps the whole array as Python ints (object);
    no valid node id is that large, so only an error message reads them.
    """
    try:
        return np.fromiter(map(_node_id, chain.from_iterable(rows)),
                           dtype=np.int64, count=count)
    except OverflowError:
        return np.fromiter(map(_node_id, chain.from_iterable(rows)),
                           dtype=object, count=count)


def _physical_memory() -> int | None:
    """The machine's physical memory in bytes, None where it cannot be read."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    return memory if memory > 0 else None  # -1: no value on this system


def _check_size(n: int, edges: int, drawn: bool = False) -> None:
    """Refuse a network of ``n`` nodes and ``edges`` edges (``drawn`` by
    generate_ba) whose construction would need more than physical memory,
    before anything that large is allocated."""
    need = _NODE_BYTES * n + (_EDGE_BYTES + _DRAWN_EDGE_BYTES * drawn) * edges
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ParameterError(
            f"a network of {n} nodes and {edges} edges needs about {need / 2**30:.1f} GiB, "
            f"more than the {memory / 2**30:.1f} GiB of physical memory")


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _check_csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise ParameterError unless the CSR holds a simple undirected graph.

    ``indptr`` has one entry per node plus one; row ``i`` is
    ``indices[indptr[i]:indptr[i+1]]``.  Every row must be sorted and
    unique, hold no self-loop and only nodes in range, and every edge must
    appear in both rows.  The first offending node is reported, as the rows
    read.
    """
    if n < 1:
        raise ParameterError(f"node_count must be positive; got {n}")
    if n > _MAX_NODES:
        raise ParameterError(f"node_count must be at most {_MAX_NODES}; got {n}")
    if len(indptr) != n + 1:
        raise ParameterError("adjacency length must equal node_count")
    row = np.repeat(np.arange(n), np.diff(indptr))
    # Every pass writes into the check's own buffers: two bool flags here,
    # ``row`` and ``mirrored`` below.  The caller's arrays are read-only.
    flag, tmp = np.zeros(len(indices), dtype=bool), np.zeros(len(indices), dtype=bool)
    # Checked node by node as the lists read: a row out of order is
    # reported at its first slot, before any bad neighbor in it.  Slot p
    # steps down when it is in the row of slot p - 1 and its neighbor is
    # not above the one before.
    np.less_equal(indices[1:], indices[:-1], out=flag[1:])
    flag[1:] &= np.equal(row[1:], row[:-1], out=tmp[1:])
    unordered = indptr[row[np.flatnonzero(flag)]]
    flag[:] = False
    flag[unordered] = True
    for test, bound in ((np.equal, row), (np.less, 0), (np.greater_equal, n)):
        flag |= test(indices, bound, out=tmp)
    bad = _first(flag)
    if bad is not None:
        i, j = int(row[bad]), int(indices[bad])
        if bad in unordered:
            raise ParameterError(f"neighbor list of {i} is not sorted/unique")
        if j == i:
            raise ParameterError(f"self-loop at node {i}")
        raise ParameterError(f"neighbor {j} of node {i} out of range")
    del flag
    # Rows sorted, unique and in range make the packed keys i*n + j of
    # the CSR strictly increasing; the graph is symmetric iff they equal
    # the sorted keys j*n + i of the mirrored pairs.  At the first
    # difference, the smaller key is a pair without its mirror.
    mirrored = indices * n
    mirrored += row
    mirrored.sort()
    key = row
    key *= n
    key += indices
    at = _first(np.not_equal(mirrored, key, out=tmp))
    if at is not None:
        u, v = sorted(divmod(min(int(key[at]), int(mirrored[at])), n))
        raise ParameterError(f"edge {u}-{v} is not symmetric")


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Network:
    """Immutable undirected simple graph over nodes ``0..node_count-1``.

    Its state is ``csr``, the read-only ``(indptr, indices)`` arrays of the
    sorted neighbour lists, which the engines traverse.  ``Network(n,
    adjacency)`` takes the lists as sequences and flattens them;
    :meth:`from_edges` builds the arrays directly.  Either way one
    vectorized pass validates them: every row is sorted and unique, no node
    is its own neighbor, every neighbor is in range, and every edge appears
    in both rows.  ``adjacency``, the lists as tuples, is built on first
    read.  Two networks are equal when their node counts and neighbour
    lists are; ``meta`` does not count.
    """

    node_count: int
    csr: tuple[np.ndarray, np.ndarray]
    meta: dict

    def __init__(self, node_count: int, adjacency: Sequence[Sequence[int]],
                 meta: dict | None = None):
        degree = np.fromiter(map(len, adjacency), dtype=np.int64, count=len(adjacency))
        indptr = np.zeros(len(degree) + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        self.__post_init__(node_count, indptr, _flat_ints(adjacency, int(indptr[-1])), meta)

    def __post_init__(self, node_count: int, indptr: np.ndarray, indices: np.ndarray,
                      meta: dict | None):
        # Every constructor ends here, so every network is validated.
        node_count = as_integer(node_count, "node_count")
        _check_csr(node_count, indptr, indices)
        indptr.flags.writeable = indices.flags.writeable = False
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "csr", (indptr, indices))
        object.__setattr__(self, "meta", {} if meta is None else meta)

    @classmethod
    def _from_csr(cls, node_count: int, indptr: np.ndarray, indices: np.ndarray,
                  meta: dict | None) -> "Network":
        net = cls.__new__(cls)
        net.__post_init__(node_count, indptr, indices, meta)
        return net

    def __reduce__(self):
        return self._from_csr, (self.node_count, *self.csr, self.meta)

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]] | np.ndarray,
                   meta: dict | None = None) -> "Network":
        """The network on ``node_count`` nodes with the given undirected edges.

        ``edges`` is an iterable of ``(u, v)`` pairs or an ``(E, 2)`` integer
        array; repeated and reversed pairs collapse into one edge.
        """
        node_count = as_integer(node_count, "node_count")
        ends = _endpoints(edges)
        u, v = ends[:, 0], ends[:, 1]
        bad = _first((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= node_count))
        if bad is not None:
            a, b = ends[bad].tolist()
            raise ParameterError(f"self-loop at node {a}" if a == b
                                 else f"edge {a}-{b} out of range")
        if node_count > _MAX_NODES:
            raise ParameterError(f"node_count must be at most {_MAX_NODES}; got {node_count}")
        _check_size(node_count, len(ends))
        n, count = node_count, len(ends)
        # Both directions of each pair as a packed key a*n + b, in one
        # buffer sorted in place; a key unlike the one before it is new.
        key = np.empty(2 * count, dtype=np.int64)
        np.multiply(u, n, out=key[:count])
        key[:count] += v
        np.multiply(v, n, out=key[count:])
        key[count:] += u
        del ends, u, v
        key.sort()
        new = np.empty(len(key), dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        indices = key[new]
        del key, new
        # Row i's keys are those in [i*n, (i+1)*n), and a key's column is its remainder.
        indptr = np.searchsorted(indices, np.arange(n + 1) * n)
        np.remainder(indices, n, out=indices)
        return cls._from_csr(n, indptr, indices, meta)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency[i]`` is the sorted tuple of neighbors of node ``i``."""
        indptr, indices = self.csr
        # One int object per node, shared by every row that lists it.
        flat = np.arange(self.node_count).astype(object)[indices].tolist()
        bounds = indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.node_count == other.node_count
                and all(map(np.array_equal, self.csr, other.csr)))

    def __hash__(self):
        return hash((self.node_count, *(a.tobytes() for a in self.csr)))

    def __repr__(self):
        return f"Network(node_count={self.node_count!r}, adjacency={self.adjacency!r})"

    def neighbors(self, i: int) -> tuple[int, ...]:
        """``adjacency[i]``, read off the CSR without building ``adjacency``."""
        indptr, indices = self.csr
        i = range(self.node_count)[i]  # the tuple's indexing: negatives count back
        return tuple(indices[indptr[i]:indptr[i + 1]].tolist())

    def degree(self, i: int) -> int:
        """``len(adjacency[i])``, read off the CSR."""
        indptr = self.csr[0]
        i = range(self.node_count)[i]
        return int(indptr[i + 1] - indptr[i])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self.csr[0]).tolist())

    @property
    def edge_count(self) -> int:
        return len(self.csr[1]) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, lexicographically."""
        return chain.from_iterable(zip(u.tolist(), v.tolist()) for u, v in self._upper())

    def _upper(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The edges as (u, v) arrays with u < v, lexicographically, in
        chunks of at most ``_CHUNK`` CSR slots."""
        indptr, indices = self.csr
        for lo in range(0, len(indices), _CHUNK):
            hi = min(lo + _CHUNK, len(indices))
            # The rows that hold slots lo..hi-1, each cut to those slots.
            first = int(np.searchsorted(indptr, lo, side="right")) - 1
            stop = int(np.searchsorted(indptr, hi))
            row = np.repeat(np.arange(first, stop),
                            np.diff(np.clip(indptr[first:stop + 1], lo, hi)))
            col = indices[lo:hi]
            upper = row < col
            yield row[upper], col[upper]

    @cached_property
    def _connected(self) -> bool:
        # Breadth-first from node 0, one array gather per level: the CSR
        # slots of the frontier's lists, then their unseen neighbours.
        indptr, indices = self.csr
        seen = np.zeros(self.node_count, dtype=bool)
        seen[0] = True
        # A node reached several times keeps the one position that its
        # scattered write in ``slot`` left, whichever write that was.
        slot = np.empty(self.node_count, dtype=np.int64)
        frontier = np.zeros(1, dtype=np.int64)
        while len(frontier):
            starts, lens = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
            slots = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
            reached = indices[slots]
            reached = reached[~seen[reached]]
            order = np.arange(len(reached))
            slot[reached] = order
            frontier = reached[slot[reached] == order]
            seen[frontier] = True
        return bool(seen.all())


def _endpoints(edges) -> np.ndarray:
    """``edges`` as an ``(E, 2)`` array of endpoints."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind == "i":
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ParameterError(f"an edge array must have shape (E, 2); got {edges.shape}")
        return edges.astype(np.int64, copy=False)
    pairs = list(edges)
    if set(map(len, pairs)) - {2}:
        raise ParameterError("every edge must be a (u, v) pair")
    return _flat_ints(pairs, 2 * len(pairs)).reshape(-1, 2)


def _uint32_halves(bitgen: np.random.BitGenerator) -> list[int]:
    """The next block of ``bitgen``'s 32-bit outputs: each 64-bit word split
    into its halves, low half first, as ``Generator.integers`` consumes them."""
    words = bitgen.random_raw(_DRAW_BLOCK)
    return np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel().tolist()


def generate_ba(n: int, m: int, seed: int) -> Network:
    """Grow a scale-free network by preferential attachment.

    The seed component is a complete graph on nodes ``0..m-1``; every later
    node attaches to ``m`` distinct existing nodes, each chosen with
    probability proportional to current degree (repeated uniform draws from
    a degree-weighted endpoint list, rejecting duplicates).  Identical
    ``(n, m, seed)`` always produce the identical edge set.

    Each uniform draw over the ``k`` endpoints is the one that
    ``Generator.integers(0, k)`` makes for ``k <= 2**32`` (any endpoint list
    that fits in memory): Lemire's method on the next 32-bit output ``x``,
    whose pick is ``(x*k) >> 32``, redrawn while ``(x*k) mod 2**32 < 2**32
    mod k``.  The outputs are drawn in blocks, not one call per draw.
    """
    n, m, seed = as_integer(n, "n"), as_integer(m, "m"), as_integer(seed, "seed")
    if n > _MAX_NODES:
        raise ParameterError(f"node_count must be at most {_MAX_NODES}; got {n}")
    if m < 1:
        raise ParameterError(f"m must be at least 1; got {m}")
    if m >= n:
        raise ParameterError(f"m must be smaller than n; got m={m}, n={n}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative; got {seed}")
    _check_size(n, n * m, drawn=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    # The generator is local, so drawing ahead of the picks is invisible.
    halves = chain.from_iterable(map(_uint32_halves, repeat(rng.bit_generator)))

    # Endpoint list: node id repeated once per unit of degree.
    repeated: list[int] = [i for i in range(m) for _ in range(m - 1)]
    # Node m's targets are forced: only m nodes exist.
    targets: list[int] = list(range(m))
    repeated.extend(targets)
    repeated.extend([m] * m)
    for v in range(m + 1, n):
        k = len(repeated)
        reject = 2**32 % k
        chosen: set[int] = set()
        while len(chosen) < m:
            x = next(halves) * k
            if x & 0xFFFFFFFF >= reject:
                chosen.add(repeated[x >> 32])
        picked = sorted(chosen)
        targets.extend(picked)
        repeated.extend(picked)
        repeated.extend([v] * m)
    del repeated, halves

    core = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = np.concatenate([
        np.array(core, dtype=np.int64).reshape(-1, 2),
        np.column_stack((targets, np.repeat(np.arange(m, n), m)))])
    del targets
    meta = {
        "generator": "preferential-attachment",
        "n": n,
        "m": m,
        "seed": seed,
        "core": "complete-graph-on-m-nodes",
        "rng": "numpy-pcg64",
    }
    return Network.from_edges(n, edges, meta)


def is_connected(net: Network) -> bool:
    """True iff every pair of nodes is joined by a path."""
    return net._connected


def load_edge_list(text: str) -> Network:
    """Parse an edge-list document into a Network.

    Lines hold whitespace-separated ``u v`` integer pairs; blank lines and
    ``#`` comments are ignored.  Nodes are ``0..max_index``; duplicate edges
    collapse; self-loops, negative indices, indices that no network can
    hold (see ``_MAX_NODES``) and non-integer tokens raise
    :class:`EdgeListParseError` with the 1-based line number.

    A document whose text outside comments is only ASCII digits, spaces,
    tabs and the ASCII line breaks of ``str.splitlines``, in lines of two
    tokens of at most 18 digits, is parsed as one byte array
    (:func:`_parse_plain`).  Every other
    document, and one whose endpoints fail a check, goes through the
    per-line loop (:func:`_parse_lines`), which parses what ``int``
    accepts and raises at the first bad line.
    """
    ends = _parse_plain(_COMMENT.sub("", text))
    if ends is None or int(ends.max()) >= _MAX_NODES or (ends[:, 0] == ends[:, 1]).any():
        ends = _parse_lines(text)
    return Network.from_edges(int(ends.max()) + 1, ends)


def _parse_plain(body: str) -> np.ndarray | None:
    """The ``(E, 2)`` endpoints of a comment-free plain-ASCII document.

    None when ``body`` holds any other character, no token, a line of
    other than two tokens, or a token of more than 18 digits; the per-line
    loop parses those.  The bytes are classified first, then the work is on token
    positions, not on strings: each line's shape is read from the gaps
    between tokens (:func:`_two_per_line`), and the values from digit
    columns, in int32 while no token has more than 9 digits, else int64.
    """
    if not body.isascii():
        return None
    # Padded by a blank on each side: every digit run has a non-digit
    # byte before and after it.  ``translate`` classifies in one C pass
    # and keeps one byte per byte.
    classes = f" {body} ".encode("ascii").translate(_BYTE_CLASS)
    if bytes((_OTHER,)) in classes:
        return None
    cls = np.frombuffer(classes, np.uint8)
    # Byte positions, in int32 while the text is short enough.
    position = np.int32 if len(cls) < 2**31 else np.int64
    digit = cls < 10
    change = np.not_equal(digit[1:], digit[:-1])
    del digit
    # Alternating: the non-digit byte before each digit run, then its last
    # digit; copied apart, as the passes below run faster on contiguous rows.
    runs = _flatnonzero(change, position)
    del change
    before, last = runs.reshape(-1, 2).T.copy()
    del runs
    width = int((last - before).max(initial=0))
    if not width or len(before) % 2 or width > 18:
        return None
    if not _two_per_line(cls, before, last, position):
        return None
    # Digit columns, left-aligned to the widest token.  Until its digits
    # begin, a shorter token reads its ``before`` byte, a blank or a break,
    # which ``& 15`` turns into 0.  Nine digits fit in int32.
    # ``at`` is in numpy's index type, which ``take`` would otherwise copy it into.
    value = np.zeros(len(before), dtype=np.int32 if width <= 9 else np.int64)
    column = last - (width - 1)
    at = np.empty(len(before), dtype=np.intp)
    digits = np.empty(len(before), dtype=np.uint8)
    for _ in range(width):
        np.maximum(column, before, out=at)
        np.take(cls, at, out=digits, mode="clip")  # in range: no checked copy
        digits &= 15
        value *= 10
        value += digits
        column += 1
    return value.reshape(-1, 2)


def _two_per_line(cls: np.ndarray, before: np.ndarray, last: np.ndarray, position) -> bool:
    """Whether the tokens, an even number, run two to a line: the gap
    before each odd-indexed token holds no line break, and the gap before
    each later even-indexed one holds at least one.

    Every gap is at least one byte, so when the gaps add up to one byte
    per gap, each is the lone byte before its token, a blank within a line
    or a break between two, as ``dump_edge_list`` writes them.  Otherwise a
    break in the gap before token j sorts after every earlier token's
    bytes and not after token j's ``before``.
    """
    gaps = int(before[1:].sum(dtype=np.int64)) - int(last[:-1].sum(dtype=np.int64))
    if gaps == len(before) - 1:
        separator = cls[before]
        return bool((separator[1::2] == _BLANK).all() and (separator[2::2] == _BREAK).all())
    gap_breaks = np.zeros(len(before) + 1, dtype=bool)
    gap_breaks[np.searchsorted(before, _flatnonzero(cls == _BREAK, position))] = True
    return bool(not gap_breaks[1::2].any() and gap_breaks[2:-1:2].all())


def _flatnonzero(mask: np.ndarray, dtype) -> np.ndarray:
    """``np.flatnonzero(mask)`` as ``dtype``, found ``_CHUNK`` entries at a
    time, so no whole-mask array of int64 positions is built."""
    hits = np.empty(np.count_nonzero(mask), dtype=dtype)
    at = 0
    for lo in range(0, len(mask), _CHUNK):
        found = np.flatnonzero(mask[lo:lo + _CHUNK])
        found += lo
        hits[at:at + len(found)] = found
        at += len(found)
    return hits


def _parse_lines(text: str) -> np.ndarray:
    """The ``(E, 2)`` endpoints of a document, line by line; raises
    :class:`EdgeListParseError` at the first bad line, or when it has no edge."""
    ends: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two tokens, got {len(tokens)}: {raw!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {raw!r}", lineno) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"negative node index in {raw!r}", lineno)
        if max(u, v) >= _MAX_NODES:
            raise EdgeListParseError(
                f"node index above {_MAX_NODES - 1} in {raw!r}", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop {u}-{v}", lineno)
        ends.append((u, v))
    if not ends:
        raise EdgeListParseError("document contains no edges", 1)
    return np.array(ends, dtype=np.int64)


def dump_edge_list(net: Network, header: bool = False) -> str:
    """Canonical edge-list text: one ``u v`` per line, u < v, sorted.

    With ``header=True``, generator metadata is emitted as ``#`` comments,
    which :func:`load_edge_list` ignores on the way back in.
    """
    parts = [f"# {key}: {net.meta[key]}\n" for key in sorted(net.meta)] if header else []
    for u, v in net._upper():
        parts.append(("%d %d\n" * len(u)) % tuple(np.column_stack((u, v)).ravel().tolist()))
    return "".join(parts) or "\n"
