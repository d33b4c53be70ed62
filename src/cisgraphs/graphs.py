"""Small-graph core: bitset graphs, graph6 I/O, complement/union/join,
canonical form and isomorphism.

Vertices are 0..n-1.  Adjacency rows and vertex sets are plain Python ints
used as bitmasks; ints are arbitrary-precision, so one representation serves
every order, from the small scan graphs to the 330-vertex gallery item LLbar.
"""

from __future__ import annotations

import itertools
import random


class GraphError(ValueError):
    pass


# The largest graph6 order with the four-byte "~" header; the eight-byte
# "~~" form for larger graphs is not supported.
MAX_ORDER = 258047


def bits(mask: int):
    """Iterate over the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Undirected simple graph, immutable."""

    __slots__ = ("n", "adj", "_hash", "_facts")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise GraphError(f"vertex count {n} below 1")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) outside vertex range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._hash = None
        self._facts = None

    @classmethod
    def from_adj(cls, adj) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = tuple(adj)
        g._hash = None
        g._facts = None
        return g

    @property
    def full(self) -> int:
        """Mask with all n vertex bits set."""
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self):
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def closed_nbhd(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def is_clique(self, mask: int) -> bool:
        for v in bits(mask):
            if mask & ~self.closed_nbhd(v):
                return False
        return True

    def is_stable(self, mask: int) -> bool:
        for v in bits(mask):
            if self.adj[v] & mask:
                return False
        return True

    def memo(self, key: str, compute):
        """``compute(self)``, evaluated on the first call for ``key`` and
        kept for the graph's lifetime; sound because a graph never changes."""
        if self._facts is None:
            self._facts = {}
        if key not in self._facts:
            self._facts[key] = compute(self)
        return self._facts[key]

    def known(self, key: str):
        """The fact ``memo`` keeps for ``key``, or None if not computed."""
        return self._facts.get(key) if self._facts is not None else None

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.adj)
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def complement(g: Graph) -> Graph:
    """The complement, built once per graph and paired both ways, so
    ``complement(complement(g)) is g``."""
    return g.memo("complement", _complement)


def _complement(g: Graph) -> Graph:
    co = Graph.from_adj([g.full & ~g.closed_nbhd(v) for v in range(g.n)])
    co._facts = {"complement": g}
    return co


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    adj = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph.from_adj(adj)


def join(g1: Graph, g2: Graph) -> Graph:
    m1 = (1 << g1.n) - 1
    m2 = ((1 << g2.n) - 1) << g1.n
    adj = [row | m2 for row in g1.adj]
    adj += [(row << g1.n) | m1 for row in g2.adj]
    return Graph.from_adj(adj)


# ---------------------------------------------------------------------------
# graph6 encoding (standard format: 6-bit groups, MSB first, upper triangle
# column-major)

_G6_HEADER = ">>graph6<<"


def _g6_order(text: str):
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise GraphError("empty graph6 string")
    c = ord(text[0])
    if c == 126:  # '~': extended order
        if len(text) < 4:
            raise GraphError("truncated graph6 order")
        if ord(text[1]) == 126:
            raise GraphError(f"graph6 order above {MAX_ORDER} not supported")
        n = 0
        for ch in text[1:4]:
            d = ord(ch) - 63
            if not 0 <= d < 64:
                raise GraphError(f"bad graph6 order byte {ch!r}")
            n = n << 6 | d
        return n, text[4:]
    if not 63 <= c <= 125:
        raise GraphError(f"bad graph6 order byte {text[0]!r}")
    return c - 63, text[1:]


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string."""
    n, payload = _g6_order(text.strip())
    if n < 1:
        raise GraphError("graph6 order must be at least 1")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(payload) < need:
        raise GraphError("truncated graph6 bit payload")
    if len(payload) > need:
        raise GraphError("trailing bytes after graph6 payload")
    bitstream = 0
    for ch in payload:
        d = ord(ch) - 63
        if not 0 <= d < 64:
            raise GraphError(f"bad graph6 payload byte {ch!r}")
        bitstream = bitstream << 6 | d
    bitstream >>= 6 * need - nbits
    edges = []
    k = nbits
    for col in range(1, n):
        for row in range(col):
            k -= 1
            if bitstream >> k & 1:
                edges.append((row, col))
    return Graph(n, edges)


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n > MAX_ORDER:
        raise GraphError(f"graph6 cannot encode order {n} above {MAX_ORDER}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    stream = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            stream = stream << 1 | (g.adj[row] >> col & 1)
            nbits += 1
    pad = (-nbits) % 6
    stream <<= pad
    nbits += pad
    return head + "".join(
        chr((stream >> s & 63) + 63) for s in range(nbits - 6, -1, -6)
    )


def parse_edge_list(text: str) -> Graph:
    """Edge-list fallback format: one "u v" pair per line, 0-based.

    An optional first line with a single integer fixes the vertex count
    (needed when trailing vertices are isolated).
    """
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1 and n is None and not edges:
            n = _int_token(parts[0], lineno)
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        edges.append((_int_token(parts[0], lineno),
                      _int_token(parts[1], lineno)))
    if n is None:
        if not edges:
            raise GraphError("empty edge list and no vertex count")
        n = max(max(u, v) for u, v in edges) + 1
    if n > MAX_ORDER:
        raise GraphError(f"vertex count {n} above {MAX_ORDER}")
    return Graph(n, edges)


def _int_token(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"line {lineno}: {token!r} is not an integer") from None


def parse_graph(text: str) -> Graph:
    """Parse graph6 if the input looks like it, else fall back to edge list."""
    stripped = text.strip()
    if "\n" not in stripped and (
        stripped.startswith(_G6_HEADER) or not any(c.isspace() for c in stripped)
    ):
        return parse_graph6(stripped)
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# canonical form (colour refinement plus individualisation, after McKay,
# "Practical Graph Isomorphism", 1981).  Each connected component gets its
# own form, so many copies of one component cost one small search each.
# Within a component only twin swaps prune the search, so it can still grow
# exponentially on a connected graph with many symmetric non-twin parts; it
# serves the small-graph scans.


def components(g: Graph) -> list:
    """Vertex masks of the connected components, by smallest vertex."""
    adj = g.adj
    comps = []
    rest = g.full
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~comp
            comp |= reach
        comps.append(comp)
        rest &= ~comp
    return comps


def _relabel(rows, pos) -> tuple:
    """Each row with vertex v replaced by the bit ``pos[v]``."""
    out = []
    for row in rows:
        new = 0
        while row:
            low = row & -row
            new |= pos[low.bit_length() - 1]
            row ^= low
        out.append(new)
    return tuple(out)


def _refine(adj, cells):
    """Split the ordered cells (vertex masks) until the partition is
    equitable: every vertex of a cell has the same number of neighbours
    in each cell.  A cell splits by that count vector, in ascending
    order, so the result depends on the labelling only through ``cells``."""
    while True:
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            groups = {}
            rest = cell
            while rest:
                low = rest & -rest
                row = adj[low.bit_length() - 1]
                key = tuple([(row & c).bit_count() for c in cells])
                groups[key] = groups.get(key, 0) | low
                rest ^= low
            if len(groups) == 1:
                split.append(cell)
            else:
                split.extend(groups[key] for key in sorted(groups))
        if len(split) == len(cells):
            return cells
        cells = split


def _connected_form(adj) -> tuple:
    """The smallest leaf form of the search over ``adj`` (see
    ``canonical_form``)."""

    def leaves(cells):
        cells = _refine(adj, cells)
        if len(cells) == len(adj):
            pos = [0] * len(adj)
            for i, c in enumerate(cells):
                pos[c.bit_length() - 1] = 1 << i
            yield _relabel([adj[c.bit_length() - 1] for c in cells], pos)
            return
        i, cell = next((i, c) for i, c in enumerate(cells) if c & (c - 1))
        tried = []
        for v in bits(cell):
            if all(adj[u] & ~(1 << v) != adj[v] & ~(1 << u) for u in tried):
                tried.append(v)
                rest = cell & ~(1 << v)
                yield from leaves(cells[:i] + [1 << v, rest] + cells[i + 1:])

    return min(leaves([(1 << len(adj)) - 1]))


def canonical_form(g: Graph) -> tuple:
    """Adjacency rows of a canonical relabelling of ``g``: two graphs
    have the same form iff they are isomorphic.

    A connected graph's form is the smallest leaf of a search: each leaf
    is a discrete partition reached by refining and then individualising,
    in turn, each vertex of the first non-singleton cell, and its form is
    the graph's rows relabelled in cell order.  A vertex that is a twin
    of one already tried is skipped: swapping two twins is an
    automorphism that fixes the partition, so its subtree has the same
    leaves.  A disconnected graph's form joins its components' forms as
    diagonal blocks, sorted by (order, form): two graphs are isomorphic
    iff their components are, class by class.
    """
    comps = components(g)
    if len(comps) == 1:
        return _connected_form(g.adj)
    forms = []
    for comp in comps:
        pos = [0] * g.n
        verts = list(bits(comp))
        for i, v in enumerate(verts):
            pos[v] = 1 << i
        forms.append(_connected_form(_relabel([g.adj[v] for v in verts], pos)))
    forms.sort(key=lambda form: (len(form), form))
    out = []
    for form in forms:
        shift = len(out)
        out.extend(row << shift for row in form)
    return tuple(out)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return (g1.n == g2.n and g1.edge_count() == g2.edge_count()
            and canonical_form(g1) == canonical_form(g2))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return Graph(n, edges)
