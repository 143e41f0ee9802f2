import dataclasses
import hashlib
import pickle
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcontagion import graphs
from netcontagion.errors import EdgeListParseError, ParameterError
from netcontagion.graphs import (
    _COMMENT,
    _LINE_BREAKS,
    _MAX_NODES,
    Network,
    _parse_lines,
    _parse_plain,
    dump_edge_list,
    generate_ba,
    is_connected,
    load_edge_list,
)


def test_generate_two_nodes_is_single_edge():
    # Only one graph is possible.
    for seed in (0, 1, 99):
        net = generate_ba(2, 1, seed)
        assert list(net.edges()) == [(0, 1)]


def test_generate_n_equal_m_plus_one_is_complete():
    # The complete seed core plus one node forced to attach everywhere.
    for seed in (0, 7):
        net = generate_ba(6, 5, seed)
        assert net.edge_count == 15
        assert all(net.degree(i) == 5 for i in range(6))


def test_generate_deterministic_for_seed():
    a = generate_ba(1000, 5, 42)
    b = generate_ba(1000, 5, 42)
    assert list(a.edges()) == list(b.edges())
    assert a.degrees == b.degrees
    c = generate_ba(1000, 5, 43)
    assert list(a.edges()) != list(c.edges())


def test_generate_edge_count_formula():
    # m*(n - m) attachment edges plus the complete core on m nodes.
    for n, m in ((50, 1), (100, 3), (200, 7)):
        net = generate_ba(n, m, 5)
        assert net.edge_count == m * (n - m) + m * (m - 1) // 2


def test_generate_parameter_errors():
    with pytest.raises(ParameterError):
        generate_ba(5, 5, 0)
    with pytest.raises(ParameterError):
        generate_ba(5, 0, 0)


def test_generate_ba_checks_the_node_cap_before_drawing(monkeypatch):
    # The cap is checked before anything is drawn: no bit generator is built.
    def no_draws(seed):
        raise AssertionError("a bit generator was built")

    monkeypatch.setattr(np.random, "PCG64", no_draws)
    for n in (_MAX_NODES + 1, 10**10):
        with pytest.raises(ParameterError, match="at most"):
            generate_ba(n, 5, 0)


def test_sizes_beyond_physical_memory_are_refused_before_allocating(monkeypatch):
    # The probe reads 1 MiB, so on any machine the refused sizes are never
    # allocated: generate_ba's endpoint lists and from_edges' indptr alike.
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 2**20)
    assert generate_ba(100, 3, 0).node_count == 100
    monkeypatch.setattr(np.random, "PCG64", lambda seed: pytest.fail("drew a network"))
    with pytest.raises(ParameterError, match="physical memory"):
        generate_ba(2_000_000_000, 5, 0)
    for text in ("0 2999999999\n", "0 99999\n"):
        with pytest.raises(ParameterError, match="physical memory"):
            load_edge_list(text)
    # Where the memory cannot be read, nothing is refused.
    monkeypatch.setattr(graphs, "_physical_memory", lambda: None)
    assert load_edge_list("0 99999\n").node_count == 100_000


def test_size_guard_is_at_least_the_measured_peak(monkeypatch):
    # A machine with one byte less than the tracemalloc peak of building the
    # network is refused: the guard's estimate, for the sizes that
    # from_edges and generate_ba pass it, bounds the peak from above.
    generate_ba(100, 5, 1)  # a first call's one-time allocations stay out of the peaks
    n, m = 20000, 5
    edges = np.array(list(generate_ba(n, m, 1).edges()))
    peaks = []
    for build in (lambda: Network.from_edges(n, edges), lambda: generate_ba(n, m, 1)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    for peak, sizes in zip(peaks, [(n, len(edges)), (n, n * m, True)]):
        monkeypatch.setattr(graphs, "_physical_memory", lambda: peak - 1)
        with pytest.raises(ParameterError, match="physical memory"):
            graphs._check_size(*sizes)


def test_generated_networks_connected():
    for seed in range(100):
        assert is_connected(generate_ba(30, 2, seed))


def test_load_path_graph():
    net = load_edge_list("0 1\n1 2")
    assert net.node_count == 3
    assert net.degrees == (1, 2, 1)


def test_load_collapses_duplicates():
    net = load_edge_list("0 1\n1 0")
    assert list(net.edges()) == [(0, 1)]


def test_load_rejects_self_loop():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list("0 0")
    assert err.value.line == 1


def test_load_reports_line_numbers():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list("0 1\n1 x")
    assert err.value.line == 2
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list("0 1\n\n2 -1")
    assert err.value.line == 3


def test_load_ignores_comments_and_blanks():
    net = load_edge_list("# a path\n0 1   # first\n\n1 2\n")
    assert net.degrees == (1, 2, 1)


def test_round_trip_exact():
    for seed in range(5):
        net = generate_ba(60, 3, seed)
        again = load_edge_list(dump_edge_list(net))
        assert again.node_count == net.node_count
        assert again.adjacency == net.adjacency
    assert load_edge_list(dump_edge_list(net, header=True)).adjacency == net.adjacency


def test_dump_is_sorted_canonical():
    net = Network.from_edges(4, [(3, 2), (1, 0), (2, 0)])
    assert dump_edge_list(net) == "0 1\n0 2\n2 3\n"


def test_connectivity():
    assert is_connected(load_edge_list("0 1\n1 2"))
    assert not is_connected(load_edge_list("0 1\n2 3"))
    assert is_connected(Network(1, ((),)))


def test_network_validation():
    with pytest.raises(ParameterError):
        Network(2, ((1,), ()))  # asymmetric
    with pytest.raises(ParameterError):
        Network.from_edges(2, [(0, 0)])
    with pytest.raises(ParameterError):
        Network.from_edges(2, [(0, 5)])
    with pytest.raises(ParameterError):
        Network(0, ())


# ---------------------------------------------------------------------------
# Reference loops: the graph layer as it was written before it moved to numpy
# arrays, kept here to check the vectorized code against.


def reference_validate(n, adjacency):
    """Raise ParameterError as the per-node loop validation did (edges sorted)."""
    if n < 1:
        raise ParameterError(f"node_count must be positive; got {n}")
    if len(adjacency) != n:
        raise ParameterError("adjacency length must equal node_count")
    seen = set()
    for i, nbrs in enumerate(adjacency):
        if list(nbrs) != sorted(set(nbrs)):
            raise ParameterError(f"neighbor list of {i} is not sorted/unique")
        for j in nbrs:
            if j == i:
                raise ParameterError(f"self-loop at node {i}")
            if not 0 <= j < n:
                raise ParameterError(f"neighbor {j} of node {i} out of range")
            seen.add((min(i, j), max(i, j)))
    for u, v in sorted(seen):
        if u not in adjacency[v] or v not in adjacency[u]:
            raise ParameterError(f"edge {u}-{v} is not symmetric")


def reference_from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ParameterError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge {u}-{v} out of range")
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(s)) for s in adj)


def reference_load(text):
    """(node_count, adjacency) of a document, or the per-line loop's error."""
    edges = set()
    max_index = -1
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
            raise EdgeListParseError(f"non-integer token in {raw!r}", lineno)
        if u < 0 or v < 0:
            raise EdgeListParseError(f"negative node index in {raw!r}", lineno)
        if max(u, v) >= _MAX_NODES:
            raise EdgeListParseError(f"node index above {_MAX_NODES - 1} in {raw!r}", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop {u}-{v}", lineno)
        edges.add((min(u, v), max(u, v)))
        max_index = max(max_index, u, v)
    if max_index < 0:
        raise EdgeListParseError("document contains no edges", 1)
    return max_index + 1, reference_from_edges(max_index + 1, edges)


def reference_dump(net, header):
    """The edge-list text as dump_edge_list rendered it, one line at a time."""
    lines = [f"# {key}: {net.meta[key]}" for key in sorted(net.meta)] if header else []
    lines += [f"{i} {j}" for i, row in enumerate(net.adjacency) for j in row if i < j]
    return "\n".join(lines) + "\n"


def read_only_csr(adjacency):
    """The CSR arrays of ``adjacency``, read-only as a network's are."""
    indptr = np.cumsum([0, *map(len, adjacency)])
    indices = np.array([j for row in adjacency for j in row], dtype=np.int64)
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def reference_generate_ba(n, m, seed):
    """The preferential-attachment loop with one ``rng.integers`` call per draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    repeated = [i for i in range(m) for _ in range(m - 1)]
    for v in range(m, n):
        if v == m:
            targets = list(range(m))
        else:
            chosen = set()
            while len(chosen) < m:
                chosen.add(repeated[int(rng.integers(0, len(repeated)))])
            targets = sorted(chosen)
        edges.extend((t, v) for t in targets)
        repeated.extend(targets)
        repeated.extend([v] * m)
    return Network.from_edges(n, edges)


def reference_connected(adjacency):
    """The breadth-first loop over neighbour tuples that is_connected ran."""
    seen = {0}
    queue = deque([0])
    while queue:
        for v in adjacency[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adjacency)


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (EdgeListParseError, ParameterError) as err:
        return type(err), getattr(err, "line", None), str(err)
    if isinstance(result, Network):
        return result.node_count, result.adjacency
    return result


SEPARATORS = [" ", "  ", "\t", " \t ", "\xa0", "　"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0c", " "]
BAD_LINES = ["7", "1 2 3", "x 1", "1.5 2", "1 -2", "4 4", "1 2 3 # three", "0x1 2"]


def random_token(rng, value):
    style = rng.integers(0, 6)
    if style == 1:
        return f"+{value}"
    if style == 2:
        return f"00{value}"
    if style == 3 and value >= 1000:
        return f"{value:_}"
    if style == 4 and value < 10:
        return "٠١٢٣٤٥٦٧٨٩"[value]  # Arabic-Indic digits parse as int() does
    return str(value)


def random_document(rng):
    n = int(rng.integers(2, 30))
    lines = []
    for _ in range(int(rng.integers(0, 25))):
        kind = rng.random()
        if kind < 0.1:
            lines.append("")
        elif kind < 0.2:
            lines.append(f"# comment {int(rng.integers(0, 99))} 1 2 3")
        elif kind < 0.25:
            lines.append(" \t ")
        else:
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            if rng.random() < 0.05:  # an isolated run of high indices
                u, v = u + 1000, v + 1000
            sep = SEPARATORS[int(rng.integers(0, len(SEPARATORS)))]
            line = f"{random_token(rng, u)}{sep}{random_token(rng, v)}"
            if rng.random() < 0.2:
                line = f"{sep}{line}{sep}# trailing note"
            lines.append(line)
            if rng.random() < 0.1:
                lines.append(f"{v} {u}")  # the same edge reversed
    if lines and rng.random() < 0.35:
        lines.insert(int(rng.integers(0, len(lines) + 1)),
                     BAD_LINES[int(rng.integers(0, len(BAD_LINES)))])
    return "".join(line + LINE_ENDS[int(rng.integers(0, len(LINE_ENDS)))]
                   for line in lines)


@pytest.mark.parametrize("chunk", range(8))
def test_load_matches_reference_loop(chunk):
    rng = np.random.default_rng([2026, chunk])
    for _ in range(25):
        text = random_document(rng)
        assert outcome(load_edge_list, text) == outcome(reference_load, text), repr(text)


def test_random_documents_cover_both_outcomes():
    rng = np.random.default_rng([2026, 0])
    kinds = [outcome(reference_load, random_document(rng))[0] for _ in range(25)]
    assert EdgeListParseError in kinds and any(isinstance(k, int) for k in kinds)


PLAIN_SEPARATORS = [" ", "  ", "\t", " \t "]
PLAIN_LINE_ENDS = ["\n", "\n", "\r\n", "\r"]
PLAIN_BAD_LINES = ["7", "1 2 3", "4 4", "1 2 3 # three", "\t5\t", f"{_MAX_NODES} 1",
                   f"0 {_MAX_NODES}", f"{2**64 + 1} 2"]


def random_plain_document(rng):
    """A document of ASCII digits, blanks, line breaks and comments only."""
    n = int(rng.integers(2, 30))
    lines = []
    for _ in range(int(rng.integers(0, 25))):
        kind = rng.random()
        if kind < 0.08:
            lines.append("")
        elif kind < 0.16:
            lines.append(f"# comment {int(rng.integers(0, 99))} 1 2 3")
        elif kind < 0.2:
            lines.append(" \t ")
        else:
            tokens = [str(int(x)) for x in rng.choice(n, size=2, replace=False)]
            if rng.random() < 0.02:  # more than 18 digits, still a valid index
                i = int(rng.integers(0, 2))
                tokens[i] = "0" * 19 + tokens[i]
            sep = PLAIN_SEPARATORS[int(rng.integers(0, len(PLAIN_SEPARATORS)))]
            line = sep.join(tokens)
            if rng.random() < 0.2:
                line = f"{sep}{line}{sep}# trailing note"
            lines.append(line)
    draw = rng.random()
    if lines and draw < 0.3:
        # One or two bad lines: two lines of one token, or of one and of
        # three, hold an even number of tokens.
        for _ in range(1 + (draw < 0.1)):
            at = int(rng.integers(0, len(lines) + 1))
            lines.insert(at, PLAIN_BAD_LINES[int(rng.integers(0, len(PLAIN_BAD_LINES)))])
        if draw < 0.05:
            # The largest index a network can hold, rejected at a later
            # line before any network of that size is built.
            lines.insert(at, f"{_MAX_NODES - 1} 0")
    ends = [PLAIN_LINE_ENDS[int(rng.integers(0, len(PLAIN_LINE_ENDS)))] for _ in lines]
    if ends and rng.random() < 0.3:
        ends[-1] = ""  # no line break after the last line
    return "".join(map(str.__add__, lines, ends))


PLAIN_DOCUMENTS = ["", "\n", "\r\n\r", "# only a comment", " \t\n", "0 1", "0 1\r",
                   "0\t1\r\n1 2", "0 1\n\n\r\n1 2 # x\r", f"0 1\n{_MAX_NODES - 1} 1\n1\n",
                   "7\n8\n", "7\r8", "1 2 3 4\n", "0 1\n7", "0 1\n7\n", "1 2 3\n4\n"]


@pytest.mark.parametrize("chunk", range(4))
def test_load_matches_reference_loop_on_plain_documents(chunk, monkeypatch):
    rng = np.random.default_rng([2027, chunk])
    texts = [random_plain_document(rng) for _ in range(50)] + (PLAIN_DOCUMENTS if chunk == 0 else [])
    whole = [_parse_plain(_COMMENT.sub("", text)) for text in texts]
    # Scanned a few bytes at a time, a document parses as it does in one piece.
    monkeypatch.setattr(graphs, "_CHUNK", [graphs._CHUNK, 1, 3, 8][chunk])
    for text, ends in zip(texts, whole):
        assert outcome(load_edge_list, text) == outcome(reference_load, text), repr(text)
        again = _parse_plain(_COMMENT.sub("", text))
        assert (again is None) == (ends is None) and (ends is None or np.array_equal(again, ends))


def test_plain_documents_mostly_take_the_array_path():
    rng = np.random.default_rng([2027, 0])
    texts = [random_plain_document(rng) for _ in range(50)]
    kinds = [outcome(reference_load, text)[0] for text in texts]
    assert EdgeListParseError in kinds
    assert sum(isinstance(kind, int) for kind in kinds) > len(texts) / 2
    parsed = [_parse_plain(_COMMENT.sub("", text)) is not None for text in texts]
    assert sum(parsed) > len(texts) / 2


# Gaps within a line and breaks between lines: the one-byte forms that
# dump_edge_list writes, listed often, and longer ones.
GAPS = [" "] * 4 + ["\t", "  ", " \t", "\t\t "]
BREAKS = ["\n"] * 4 + ["\r", "\x0b", "\x0c", "\x1c", "\r\n", "\n\n", " \n", "\n\t"]


@st.composite
def edge_tokens(draw):
    """An id of 1-2 digits, or of 9, 10, 18 or 19 digits: zero-padded or not."""
    value = draw(st.integers(0, 40))
    if draw(st.booleans()):
        return str(value)
    digits = draw(st.sampled_from([9, 10, 18, 19]))
    if draw(st.booleans()):
        return str(value).zfill(digits)
    return str(draw(st.integers(10 ** (digits - 1), 10**digits - 1)))


@st.composite
def edge_documents(draw):
    """Edge lines of mostly two tokens, else of one, three or four, with
    blank and comment lines, leading and trailing whitespace, and every
    gap and break one byte or drawn from the longer forms."""
    one_byte = draw(st.booleans())
    gap = (lambda: " ") if one_byte else (lambda: draw(st.sampled_from(GAPS)))
    brk = (lambda: "\n") if one_byte else (lambda: draw(st.sampled_from(BREAKS)))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["edge"] * 4 + ["one", "three", "four", "blank", "comment"]))
        if kind == "blank":
            lines.append("")
        elif kind == "comment":
            lines.append("# 1 2 3")
        else:
            count = {"edge": 2, "one": 1, "three": 3, "four": 4}[kind]
            line = gap().join(draw(edge_tokens()) for _ in range(count))
            if not one_byte and draw(st.integers(0, 4)) == 0:
                line = f"{gap()}{line}{gap()}"
            if draw(st.integers(0, 9)) == 0:
                line += f"{gap()}# note"
            lines.append(line)
    text = "".join(line + brk() for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def line_loop_outcome(text):
    """The node count and endpoints that the per-line loop reads, or its error."""
    try:
        ends = _parse_lines(text)
    except EdgeListParseError as err:
        return EdgeListParseError, err.line, str(err)
    return int(ends.max()) + 1, ends.tolist()


def check_load_against_the_line_loop(text):
    # The endpoints that load_edge_list hands to from_edges, so that a
    # document of 10-digit ids allocates no network.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "from_edges",
                      classmethod(lambda cls, n, ends: (n, np.asarray(ends).tolist())))
        got = outcome(load_edge_list, text)
    want = line_loop_outcome(text)
    assert got == want, repr(text)
    if isinstance(want[0], int) and want[0] <= 100:
        assert load_edge_list(text) == Network.from_edges(*want)


@settings(max_examples=300, deadline=None)
@given(edge_documents())
def test_load_reads_what_the_line_loop_reads(text):
    check_load_against_the_line_loop(text)


# (document, whether the array parse reads it): both parses' paths, the
# one-byte gaps and the longer ones, each read or refused.
EDGE_DOCUMENTS = [
    ("0 1\n1 2\n2 3\n", True),
    ("0 1\n1 2 3\n2 3\n", False),  # one-byte gaps, a line of three tokens
    ("0 1\n1\n2 3", False),  # and of one
    ("1 2 3\n4 5 6\n", False),  # an even number of tokens, not two to a line
    ("0 1\n2\n3 4 5\n", False),
    ("0 1 2\n3\n4 5", False),
    ("0 1\n2\n3\n", False),
    ("0 1 2 3\n", False),
    ("0 1\n000000002 1\n0000000003 2\n999999999 0", True),  # 9 and 10 digits
    ("0\t1\r\n1  2\x0b 2 3 \x1c3 4\x0c", True),
    ("0\t1\r\n1  2\x0b 2 \x1c3 4\x0c", False),
    ("# c\n\n 0 1 \n1 2 # x\n", True),
    ("0 1\n\n1 2", True),
    ("000000000000000001 2\n0 1", True),  # 18 digits
    ("123456789012345678 0\n", True),  # 18 digits, past any network: the line loop refuses
    ("0000000000000000001 2\n0 1", False),  # 19 digits
    ("9999999999999999999 0\n", False),
]


@pytest.mark.parametrize("text, plain", EDGE_DOCUMENTS)
def test_load_reads_what_the_line_loop_reads_on_fixed_documents(text, plain):
    assert (_parse_plain(_COMMENT.sub("", text)) is not None) == plain
    check_load_against_the_line_loop(text)


@pytest.mark.parametrize("seed", range(4))
def test_network_validation_matches_reference_loop(seed):
    rng = np.random.default_rng([7, seed])
    for _ in range(50):
        n = int(rng.integers(1, 12))
        adj = [list(row) for row in reference_from_edges(
            n, [tuple(rng.choice(n, 2, replace=False)) for _ in range(n)] if n > 1 else [])]
        for _ in range(int(rng.integers(0, 3))):
            i = int(rng.integers(0, n))
            edit = int(rng.integers(0, 5))
            if edit == 0 and len(adj[i]) > 1:
                adj[i].reverse()
            elif edit == 1:
                adj[i].append(adj[i][-1] if adj[i] else i)
            elif edit == 2 and adj[i]:
                adj[i].pop(int(rng.integers(0, len(adj[i]))))
            elif edit == 3:
                adj[i] = sorted(adj[i] + [int(rng.choice([-1, n, n + 3]))])
            else:
                adj[i] = sorted(set(adj[i]) | {int(rng.integers(0, n))})
        adjacency = tuple(tuple(row) for row in adj)
        want = outcome(reference_validate, n, adjacency)
        got = outcome(Network, n, adjacency)
        assert got == (want if want is not None else (n, adjacency)), adjacency
        # Unpickling takes the same checks, on arrays it cannot write.
        indptr, indices = read_only_csr(adjacency)
        before = indices.copy()
        assert outcome(Network._from_csr, n, indptr, indices, None) == got
        assert np.array_equal(indices, before)


def test_connectivity_matches_reference_loop():
    rng = np.random.Generator(np.random.PCG64(21))
    # Long paths take one BFS level per node, a star one level in all.
    label = np.random.Generator(np.random.PCG64(5)).permutation(3000).tolist()
    path = list(zip(label, label[1:]))
    star = [(7, i) for i in range(3000) if i != 7]
    networks = [Network(1, ((),)), Network(2, ((), ())), Network.from_edges(2, [(0, 1)]),
                Network.from_edges(5, [(1, 2), (2, 3), (3, 4)]),  # node 0 isolated
                Network.from_edges(5, [(0, 1), (1, 2), (2, 3)]),  # node 4 isolated
                generate_ba(300, 1, 4),
                Network.from_edges(3000, path), Network.from_edges(3000, path[:1200] + path[1201:]),
                Network.from_edges(3000, star), Network.from_edges(3000, star[:-1]),
                Network.from_edges(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)])]
    for _ in range(300):
        n = int(rng.integers(1, 40))
        # Sparse to dense: from many components down to a single one.
        count = int(rng.integers(0, 2 * n + 1))
        pairs = rng.integers(0, n, size=(count, 2))
        networks.append(Network.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]]))
    answers = [is_connected(net) for net in networks]
    assert answers == [reference_connected(net.adjacency) for net in networks]
    assert answers[:11] == [True, False, True, False, False, True,
                            True, False, True, False, False]
    assert 50 < sum(answers) < len(answers) - 50


@st.composite
def edge_lists(draw):
    """(n, edges, form): edges with duplicate and reversed pairs and
    isolated nodes, as an int32 or int64 array or as Python pairs.  The
    node counts include 46,340 and 46,341, the last for which n*n fits in
    int32 and the first for which it does not, with few edges, whose ids
    come from both ends of the range."""
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from([46_340, 46_341])))
    ids = (st.integers(0, n - 1) if n <= 40
           else st.one_of(st.integers(0, 30), st.integers(n - 30, n - 1)))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                          max_size=0 if n == 1 else 30))
    # Repeat some pairs as they are and some reversed.
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    edges = pairs + [(v, u) if draw(st.booleans()) else (u, v) for u, v in repeats]
    edges = draw(st.permutations(edges))
    form = draw(st.sampled_from(["int32", "int64", "pairs"]))
    return n, edges, form


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_from_edges_builds_a_valid_csr(case):
    # from_edges stores its CSR without _check_csr; this test carries that check.
    n, edges, form = case
    given_edges = edges if form == "pairs" else np.array(edges, dtype=form).reshape(-1, 2)
    net = Network.from_edges(n, given_edges)
    graphs._check_csr(net.node_count, *net.csr)
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in net.csr)
    ref = Network(n, reference_from_edges(n, edges))
    assert net == ref and all(map(np.array_equal, net.csr, ref.csr))


@pytest.mark.parametrize("seed", range(4))
def test_from_edges_matches_reference_loop(seed, monkeypatch):
    # Chunks of 1 to 4 CSR slots: edges() and dump_edge_list cut rows apart.
    monkeypatch.setattr(graphs, "_CHUNK", seed + 1)
    rng = np.random.default_rng([11, seed])
    for _ in range(50):
        n = int(rng.integers(1, 15))
        edges = [tuple(int(x) for x in rng.integers(-1, n + 1, size=2))
                 for _ in range(int(rng.integers(0, 20)))]
        if rng.random() < 0.7:  # mostly valid lists
            edges = [(u, v) for u, v in edges if u != v and 0 <= min(u, v) and max(u, v) < n]
        want = outcome(reference_from_edges, n, edges)
        if not isinstance(want[0], type):
            want = (n, want)
        assert outcome(Network.from_edges, n, edges) == want, edges
        array = np.array(edges, dtype=np.int64).reshape(-1, 2)
        assert outcome(Network.from_edges, n, array) == want
        assert array.tolist() == [list(e) for e in edges]  # the caller's array is unchanged
        if isinstance(want[0], int):
            net, ref = Network.from_edges(n, edges), Network(n, want[1])
            assert net == ref and hash(net) == hash(ref)
            assert net.adjacency == ref.adjacency and net.degrees == ref.degrees
            assert list(net.edges()) == [(i, j) for i, row in enumerate(want[1])
                                         for j in row if i < j]
            assert dump_edge_list(net) == reference_dump(ref, False)
            assert all(map(np.array_equal, net.csr, ref.csr))


@pytest.mark.parametrize("n, m, seed", [
    (1000, 5, 42), (300, 20, 7), (2000, 1, 3), (30000, 5, 1), (50000, 5, 1), (300, 5, 123),
    (40, 39, 5), (2, 1, 0),
])
def test_generate_ba_matches_scalar_draws(n, m, seed):
    assert generate_ba(n, m, seed) == reference_generate_ba(n, m, seed)


def test_generate_ba_pinned_digest():
    # Recorded from the per-edge loop implementation of the graph layer.
    text = dump_edge_list(generate_ba(1000, 5, 42))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a3b3e48db6499de3659839dea37deba1d5fc2796aab8cae3886baddf76cf1640")


@pytest.mark.parametrize("net, header", [
    (generate_ba(2000, 3, 1), True),
    (generate_ba(2000, 3, 1), False),
    (Network.from_edges(3, [], {"source": "none"}), True),
    (Network(3, ((), (), ())), False),
], ids=["header", "no-header", "no-edges-header", "no-edges"])
@pytest.mark.parametrize("chunk", [graphs._CHUNK, 7])
def test_dump_matches_the_per_line_rendering(net, header, chunk, monkeypatch):
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    assert dump_edge_list(net, header) == reference_dump(net, header)
    assert list(net.edges()) == [(i, j) for i, row in enumerate(net.adjacency)
                                 for j in row if i < j]


def test_round_trip_30k_nodes():
    net = generate_ba(30000, 5, 3)
    again = load_edge_list(dump_edge_list(net, header=True))
    assert again == net
    assert pickle.loads(pickle.dumps(net, protocol=5)) == net
    assert again.edge_count == net.edge_count == 5 * (30000 - 5) + 10
    for a, b in zip(again.csr, net.csr):
        assert np.array_equal(a, b)


def test_network_value_semantics():
    net = Network.from_edges(4, [(0, 1), (1, 2), (3, 2)], {"source": "test"})
    same = Network(4, ((1,), (0, 2), (1, 3), (2,)), {"source": "other"})
    assert net == same and hash(net) == hash(same) and net.meta != same.meta
    assert net != Network(4, ((1,), (0,), (3,), (2,))) and net != Network(5, net.adjacency + ((),))
    assert repr(net) == "Network(node_count=4, adjacency=((1,), (0, 2), (1, 3), (2,)))"
    for attr, value in (("node_count", 5), ("csr", same.csr), ("adjacency", ()), ("meta", {})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net, attr, value)
    again = pickle.loads(pickle.dumps(net))
    assert again == net and again.meta == net.meta
    assert not any(a.flags.writeable for a in again.csr)


def test_adjacency_is_built_once_on_first_read():
    net = generate_ba(500, 3, 8)
    assert "adjacency" not in vars(net)
    adjacency = net.adjacency
    assert net.adjacency is adjacency
    indptr, indices = net.csr
    assert adjacency == tuple(tuple(indices[a:b].tolist()) for a, b in zip(indptr, indptr[1:]))
    assert all(type(j) is int for row in adjacency for j in row)
    # One int object per node, shared by every row that lists it.
    assert len({id(j) for row in adjacency for j in row}) == net.node_count


def test_degree_and_neighbors_read_the_csr():
    net = generate_ba(300, 3, 4)
    for i in [*range(net.node_count), -1, -300, np.int64(7)]:
        assert type(net.degree(i)) is int
        assert all(type(j) is int for j in net.neighbors(i))
    assert "adjacency" not in vars(net)  # neither builds the neighbour tuples
    for i in [*range(net.node_count), -1, -300, np.int64(7)]:
        assert net.neighbors(i) == net.adjacency[i]
        assert net.degree(i) == len(net.adjacency[i])
    for i in (300, -301):
        for read in (net.neighbors, net.degree):
            with pytest.raises(IndexError):
                read(i)


def test_csr_matches_adjacency_and_is_read_only():
    net = load_edge_list("0 3\n3 1\n1 2\n2 3\n5 4")
    indptr, indices = net.csr
    assert indptr.tolist() == [0, 1, 3, 5, 8, 9, 10]
    assert indices.tolist() == [3, 2, 3, 1, 3, 0, 1, 2, 5, 4]
    with pytest.raises(ValueError):
        indices[0] = 1
    assert net.degrees == (1, 2, 2, 3, 1, 1)
    assert list(net.edges()) == [(0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]


@pytest.mark.parametrize("adjacency, n, message", [
    (((2, 1), (0,), (0,)), 3, "neighbor list of 0 is not sorted/unique"),
    (((1, 1), (0,)), 2, "neighbor list of 0 is not sorted/unique"),
    (((1,), (0, 1)), 2, "self-loop at node 1"),
    (((-1, 1), (0,)), 2, "neighbor -1 of node 0 out of range"),
    (((1,), (0, 2)), 2, "neighbor 2 of node 1 out of range"),
    (((1, 2), (0,), ()), 3, "edge 0-2 is not symmetric"),
    (((1,), (0,)), 3, "adjacency length must equal node_count"),
    ((), 0, "node_count must be positive"),
], ids=["unsorted", "duplicate", "self-loop", "minus-one", "equal-to-n",
        "asymmetric", "wrong-length", "no-nodes"])
def test_network_rejects(adjacency, n, message):
    with pytest.raises(ParameterError, match=message):
        Network(n, adjacency)


def test_network_reports_first_offending_node():
    # Node 1's bad order comes before node 2's self-loop; a later row's
    # range error does not hide an earlier row's order error.
    with pytest.raises(ParameterError, match="neighbor list of 1 "):
        Network(3, ((), (2, 0), (2,)))
    with pytest.raises(ParameterError, match="neighbor 7 of node 0 out of range"):
        Network(3, ((7,), (2, 0), ()))
    with pytest.raises(ParameterError, match="neighbor 99999999999999999999 of node 1"):
        Network(2, ((), (99999999999999999999,)))


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2)], "self-loop at node 2"),
    ([(0, 1), (1, 3)], "edge 1-3 out of range"),
    ([(0, 1), (-1, 2)], "edge -1-2 out of range"),
    ([(0, 1), (0, 2**70)], f"edge 0-{2**70} out of range"),
], ids=["self-loop", "out-of-range", "negative", "beyond-int64"])
def test_from_edges_rejects(edges, message):
    with pytest.raises(ParameterError, match=message):
        Network.from_edges(3, edges)
    if max(map(max, edges)) < 2**63:
        with pytest.raises(ParameterError, match=message):
            Network.from_edges(3, np.array(edges))


def test_from_edges_accepts_arrays_and_rejects_non_pairs():
    want = Network.from_edges(4, [(0, 1), (2, 1), (1, 0), (3, 2)])
    for dtype in (np.int64, np.int32, np.int8):
        assert Network.from_edges(4, np.array([[0, 1], [2, 1], [1, 0], [3, 2]], dtype=dtype)) == want
    assert Network.from_edges(4, iter([(0, 1), (2, 1), (1, 0), (3, 2)])) == want
    with pytest.raises(ParameterError):
        Network.from_edges(4, [(0, 1, 2)])
    with pytest.raises(ParameterError):
        Network.from_edges(4, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ParameterError, match="node id must be an integer"):
        Network.from_edges(4, [(0, 1.5)])
    with pytest.raises(ParameterError, match="node id must be an integer"):
        Network.from_edges(4, np.array([[0.0, 1.0]]))


def test_node_count_beyond_packed_keys_is_rejected():
    assert _MAX_NODES**2 < 2**63 <= (_MAX_NODES + 1)**2
    with pytest.raises(ParameterError, match="at most"):
        Network(_MAX_NODES + 1, ())
    with pytest.raises(ParameterError, match="at most"):
        Network.from_edges(_MAX_NODES + 1, [(0, 1)])


@pytest.mark.parametrize("bad, message", [
    ("5", "expected two tokens, got 1"),
    ("1 2 3", "expected two tokens, got 3"),
    ("1 a", "non-integer token"),
    ("1 -2", "negative node index"),
    ("3 3", "self-loop 3-3"),
], ids=["one-token", "three-tokens", "non-integer", "negative", "self-loop"])
def test_load_error_lines_count_comments_and_blanks(bad, message):
    text = f"# header\n\n0 1\n{bad}  # note\n1 2\n"
    with pytest.raises(EdgeListParseError, match=message) as err:
        load_edge_list(text)
    assert err.value.line == 4
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(text.replace("\n", "\r\n"))
    assert err.value.line == 4


def test_load_rejects_index_beyond_int64():
    with pytest.raises(EdgeListParseError, match="node index") as err:
        load_edge_list("0 1\n0 99999999999999999999")
    assert err.value.line == 2
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list("0 1\n\n9223372036854775807 0\n")
    assert err.value.line == 3


def test_load_rejects_documents_without_edges():
    for text in ("", "# only a comment\n", "\n \t\n"):
        with pytest.raises(EdgeListParseError, match="no edges") as err:
            load_edge_list(text)
        assert err.value.line == 1


def test_comment_stripping_stops_at_every_line_break():
    breaks = "".join(c for c in map(chr, range(0x110000))
                     if len(f"a{c}b".splitlines()) == 2)
    assert set(breaks) == set(_LINE_BREAKS)
    for brk in breaks:
        text = f"0 1 # note{brk}1 2"
        assert load_edge_list(text).degrees == (1, 2, 1)


def test_every_ascii_line_break_takes_the_array_path():
    for brk in filter(str.isascii, _LINE_BREAKS):
        text = f"0 1{brk}1 2{brk}"
        assert _parse_plain(text).tolist() == [[0, 1], [1, 2]], repr(brk)
        assert load_edge_list(text).degrees == (1, 2, 1)
