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
    co = Graph.from_adj(_complement_rows(g.adj))
    co._facts = {"complement": g}
    return co


def _complement_rows(rows) -> tuple:
    """The adjacency rows of the complement of the graph with ``rows``."""
    full = (1 << len(rows)) - 1
    return tuple([full & ~(row | 1 << v) for v, row in enumerate(rows)])


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
_G6_BITS = [format(d, "06b") for d in range(64)]  # a payload byte's bits


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
    groups = []
    for ch in payload:
        d = ord(ch) - 63
        if not 0 <= d < 64:
            raise GraphError(f"bad graph6 payload byte {ch!r}")
        groups.append(_G6_BITS[d])
    stream = "".join(groups)
    adj = [0] * n
    start = 0
    for col in range(1, n):
        # the column's bits, row 0 first; reversed, row 0 is the low bit
        below = int(stream[start:start + col][::-1], 2)
        start += col
        adj[col] = below
        bit = 1 << col
        while below:
            low = below & -below
            below ^= low
            adj[low.bit_length() - 1] |= bit
    return Graph.from_adj(adj)


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
    """Parse graph6 if the input looks like it, else fall back to edge list.

    A graph6 order byte is 63..126, so an input that starts with a digit
    is an edge list, such as a lone vertex count.
    """
    stripped = text.strip()
    if "\n" not in stripped and not stripped[:1].isdigit() and (
        stripped.startswith(_G6_HEADER) or not any(c.isspace() for c in stripped)
    ):
        return parse_graph6(stripped)
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# canonical form (colour refinement plus individualisation, after McKay,
# "Practical Graph Isomorphism", 1981).  The search prunes by the
# automorphisms it finds: two leaves with one form give one, and so do two
# twins.  At each node only one child per orbit of the automorphisms found
# so far that fix the node's individualised vertices is tried, and a leaf
# that repeats an earlier form ends its branch back to the node where the
# two paths part.  A disconnected graph, or one with a disconnected
# complement, needs no search of its own: swapping two isomorphic
# components is an automorphism like swapping two twins, and the search
# finds it from two equal leaves.  A graph with more than half of the
# possible edges is searched on its complement's rows, and its form is the
# complement of the form found, so that the forms of a graph and of its
# complement are each other's complements unless the graph has exactly
# half of the edges.


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


def _positions(n: int, order) -> list:
    """``pos`` for ``_relabel``: the bit of each vertex's place in order."""
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = 1 << i
    return pos


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


def _image(perm, mask: int) -> int:
    """The vertex set ``mask`` moved by the permutation ``perm``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def orbit(mask: int, generators) -> list:
    """The images of the vertex set ``mask`` under the group that the
    permutations ``generators`` generate, ``mask`` first."""
    out = [mask]
    met = {mask}
    for m in out:
        for perm in generators:
            image = _image(perm, m)
            if image not in met:
                met.add(image)
                out.append(image)
    return out


def _search(adj) -> tuple:
    """``canonical_search`` on the rows ``adj``."""
    n = len(adj)
    leaves = {}  # leaf form -> (its order, its individualised vertices)
    found = []   # automorphisms found: (permutation, mask of vertices moved)
    best = None

    def search(cells, path, fixed):
        """Search below the node that individualised ``path`` (``fixed``
        as a mask); returns the depth at which the search resumes."""
        nonlocal best
        cells = _refine(adj, cells)
        depth = len(path)
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            form = _relabel([adj[v] for v in order], _positions(n, order))
            seen = leaves.get(form)
            if seen is None:
                leaves[form] = (order, path)
                if best is None or form < best[0]:
                    best = (form, order)
                return n
            # both leaves have one form, so o1[i] -> o2[i] is an
            # automorphism; it maps the branch of the earlier leaf at the
            # node where the two paths part onto this one
            perm = [0] * n
            moved = 0
            for v, w in zip(seen[0], order):
                perm[v] = w
                if v != w:
                    moved |= 1 << v
            found.append((tuple(perm), moved))
            k = 0
            while seen[1][k] == path[k]:
                k += 1
            return k
        i, cell = next((i, c) for i, c in enumerate(cells) if c & (c - 1))
        # done: the children tried, closed under gens, the automorphisms
        # found by the last closure that fix the node.  A closure applies
        # the automorphisms found since to all of done, and gens only to
        # fresh, the vertices added since
        done = fresh = 0
        gens = []
        known = 0  # automorphisms found when done was last closed
        for v in bits(cell):
            if fresh or known < len(found):
                reach = 0
                for p, moved in found[known:]:
                    if not fixed & moved:
                        gens.append(p)
                        reach |= _image(p, done)
                known = len(found)
                fresh |= reach & ~done
                done |= reach
                while fresh:
                    reach = 0
                    for p in gens:
                        reach |= _image(p, fresh)
                    fresh = reach & ~done
                    done |= fresh
            bit = 1 << v
            if done & bit:
                continue
            row = adj[v]
            rest = done
            done |= bit
            fresh = bit
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if adj[u] & ~bit == row & ~low:
                    # twins: swapping them is an automorphism
                    perm = list(range(n))
                    perm[v], perm[u] = u, v
                    found.append((tuple(perm), bit | low))
                    break
                rest ^= low
            else:
                back = search(cells[:i] + [bit, cell & ~bit] + cells[i + 1:],
                              path + (v,), fixed | bit)
                if back < depth:
                    return back
        return n

    search([(1 << n) - 1], (), 0)
    return best[0], best[1], tuple([p for p, _ in found])


def _canonical(adj) -> tuple:
    """``canonical_search`` on the rows ``adj``: ``_search`` on them, or
    on the complement's rows if they hold more than half of the edges."""
    n = len(adj)
    if 2 * sum([row.bit_count() for row in adj]) <= n * (n - 1):
        return _search(adj)
    form, order, generators = _search(_complement_rows(adj))
    return _complement_rows(form), order, generators


def canonical_search(g: Graph) -> tuple:
    """(form, order, generators): the canonical form of ``g``, a vertex
    order that relabels ``g`` to it (vertex ``order[i]`` becomes ``i``),
    and permutations (``perm[v]`` is the image of v) that generate the
    automorphism group of ``g``.

    With E = n(n - 1)/2, a graph with more than E/2 edges is searched
    on its complement, and its form is the complement of the form found.
    The order carries over, since relabelling commutes with complement:
    the order that relabels the complement to the form found relabels
    ``g`` to that form's complement.  So do the generators, since a graph
    and its complement have one automorphism group.  So the form of
    ``complement(g)`` is the complement of the form of ``g`` unless ``g``
    has exactly E/2 edges; then both are searched as they are, and no
    rule could make the two commute, since a self-complementary graph
    would need a form equal to its own complement.

    The form of a graph with at most E/2 edges is the smallest leaf of a
    search: each leaf is a discrete partition reached by refining and
    then individualising, in turn, each vertex of the first
    non-singleton cell, and its form is the graph's rows relabelled in
    cell order.  Two leaves with one form give an automorphism, and so
    does a twin of a vertex already tried.  A node tries one child per
    orbit of the automorphisms found so far that fix its individualised
    vertices, and a leaf that repeats a form returns to the node where
    its path parts from the earlier leaf's: an automorphism that fixes a
    node maps the subtree of one child onto the subtree of the other,
    leaf form for leaf form, so every pruned subtree is an image of an
    explored one and the smallest form is unchanged.  The automorphisms
    found generate the whole group (McKay 1981): at each node of the
    first path, below every child tried that an automorphism fixing the
    node maps the first path's child to, there is a leaf with the first
    leaf's form, and the automorphism that leaf gives does the same.
    This holds for every graph: swapping two isomorphic components of
    the graph or of its complement is an automorphism like swapping two
    twins, found from two equal leaves.
    """
    return _canonical(g.adj)


def canonical_form(g: Graph) -> tuple:
    """Adjacency rows of a canonical relabelling of ``g``: two graphs
    have the same form iff they are isomorphic, and the form of the
    complement is the complement of the form unless ``g`` has exactly
    half of the possible edges (see ``canonical_search``)."""
    return _canonical(g.adj)[0]


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
