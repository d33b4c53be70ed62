"""Maximum weight matching by Edmonds' blossom algorithm, for integer
weights, with a check of the optimum against the dual solution.

``linegraph.max_weight_matching_blossom`` imports this module on first
use and is its only caller.
"""

from __future__ import annotations

from .graphs import Graph, bits


def twice_weights(h: Graph, weight):
    """2 w(u, v) per vertex u and neighbour v.  The solver keeps doubled
    duals, so integer weights stay integers throughout; other weights
    are refused rather than rounded."""
    twice = [{} for _ in range(h.n)]
    for u, v in h.edges():
        w = weight((u, v))
        if type(w) is not int:
            raise ValueError(
                f"blossom matching needs integer weights, not {w!r} on "
                f"edge ({u}, {v})")
        twice[u][v] = twice[v][u] = 2 * w
    return twice


class Blossom:
    """A non-trivial blossom.  ``childs`` lists its sub-blossoms from the
    base round the odd cycle; ``edges[i]`` joins a vertex of
    ``childs[i]`` to one of the next child.  While it is a top-level
    S-blossom, ``mybestedges`` lists its least-slack edges to other
    S-blossoms (None until computed)."""

    __slots__ = ("childs", "edges", "mybestedges")

    def leaves(self):
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, Blossom):
                stack.extend(t.childs)
            else:
                yield t


def blossom_matching(h: Graph, twice):
    """Maximum weight matching by Edmonds' primal-dual blossom method,
    after Galil, "Efficient algorithms for finding maximum matching in
    graphs" (1986).

    The steps are those of the common Python implementation (Van
    Rantwijk's, in its dictionary-based form), without maximum
    cardinality, in the same order: vertices ascending, each vertex's
    neighbours ascending, blossoms in the order they were made.  Ties
    then resolve to the same matching, which the oracle tests check.
    Its generator trampolines are plain recursive calls here; blossoms
    nest at most n / 2 deep.

    Returns (mate, dualvar, blossomdual, blossomparent): mate maps each
    matched vertex to its partner; dualvar holds 2 u(v) per vertex;
    blossomdual holds z(b) per remaining blossom; blossomparent maps each
    vertex and blossom to its enclosing blossom or None.
    """
    n = h.n
    nbrs = [tuple(bits(a)) for a in h.adj]
    top = max((w for t in twice for w in t.values()), default=0)
    mate = {}
    # label of a top-level blossom (and of a vertex reached inside a
    # T-blossom): 1 for S, 2 for T, absent or None for free; 5 marks a
    # breadcrumb of scan_blossom
    label = {}
    # the edge (v, w) through which a labelled blossom or vertex w got its
    # label, or None for a single base
    labeledge = {}
    inblossom = list(range(n))  # top-level blossom of each vertex
    blossomparent = dict.fromkeys(range(n))
    blossombase = {v: v for v in range(n)}
    # least-slack edge from an S-vertex to a free vertex, or from a
    # top-level S-blossom to another S-blossom
    bestedge = {}
    dualvar = [max(top, 0) // 2] * n
    blossomdual = {}
    allowedge = set()  # edges known to have zero slack, both directions
    queue = []  # S-vertices to scan

    def slack(v, w):
        return dualvar[v] + dualvar[w] - twice[v][w]

    def assign_label(w, t, v):
        """Label t for the top-level blossom of w, reached from v."""
        b = inblossom[w]
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = None if v is None else (v, w)
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if isinstance(b, Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        else:
            # a T-blossom's base is its only vertex with an outside mate
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        """Trace back from v and w in turn: the base of a new blossom, or
        None when the two paths end at different single vertices."""
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = None
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                v = labeledge[b][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        """A new S-blossom with this base, closed by the edge (v, w)."""
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                # a T-vertex inside an S-blossom becomes an S-vertex
                queue.append(v)
            inblossom[v] = b
        bestedgeto = {}
        for bv in path:
            if isinstance(bv, Blossom):
                if bv.mybestedges is not None:
                    nblist = bv.mybestedges
                    bv.mybestedges = None
                else:
                    nblist = [(v, w) for v in bv.leaves() for w in nbrs[v]]
            else:
                nblist = [(bv, w) for w in nbrs[bv]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (bj != b and label.get(bj) == 1
                        and (bj not in bestedgeto
                             or slack(i, j) < slack(*bestedgeto[bj]))):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        b.mybestedges = list(bestedgeto.values())
        best = None
        for k in b.mybestedges:
            kslack = slack(*k)
            if best is None or kslack < bestslack:
                best = k
                bestslack = kslack
        bestedge[b] = best

    def expand_blossom(b, endstage):
        """Make the children of top-level blossom b top-level.  At the
        end of a stage, children with zero dual are expanded too; during
        a stage, an expanded T-blossom's children are relabelled."""
        for s in b.childs:
            blossomparent[s] = None
            if isinstance(s, Blossom):
                if endstage and blossomdual[s] == 0:
                    expand_blossom(s, endstage)
                else:
                    for v in s.leaves():
                        inblossom[v] = s
            else:
                inblossom[s] = s
        if not endstage and label.get(b) == 2:
            # from the child where b got its label, go round the odd
            # side to the base, relabelling T and S alternately
            entrychild = inblossom[labeledge[b][1]]
            j = b.childs.index(entrychild)
            if j & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = b.edges[j]
                else:
                    q, p = b.edges[j - 1]
                label[w] = None
                label[q] = None
                assign_label(w, 2, v)
                allowedge.update(((p, q), (q, p)))
                j += jstep
                if jstep == 1:
                    v, w = b.edges[j]
                else:
                    w, v = b.edges[j - 1]
                allowedge.update(((v, w), (w, v)))
                j += jstep
            # the base child becomes T without passing on to its mate
            bw = b.childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            # on the even side, a child with a vertex reached from
            # outside becomes T
            j += jstep
            while b.childs[j] != entrychild:
                bv = b.childs[j]
                if label.get(bv) == 1:
                    j += jstep
                    continue
                if isinstance(bv, Blossom):
                    for v in bv.leaves():
                        if label.get(v):
                            break
                else:
                    v = bv
                if label.get(v):
                    label[v] = None
                    label[mate[blossombase[bv]]] = None
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        label.pop(b, None)
        labeledge.pop(b, None)
        bestedge.pop(b, None)
        del blossomparent[b]
        del blossombase[b]
        del blossomdual[b]

    def augment_blossom(b, v):
        """Swap matched and unmatched edges along the even path from
        vertex v to the base of blossom b, and make v the base."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if isinstance(t, Blossom):
            augment_blossom(t, v)
        i = j = b.childs.index(t)
        if i & 1:
            j -= len(b.childs)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = b.childs[j]
            if jstep == 1:
                w, x = b.edges[j]
            else:
                x, w = b.edges[j - 1]
            if isinstance(t, Blossom):
                augment_blossom(t, w)
            j += jstep
            t = b.childs[j]
            if isinstance(t, Blossom):
                augment_blossom(t, x)
            mate[w] = x
            mate[x] = w
        b.childs = b.childs[i:] + b.childs[:i]
        b.edges = b.edges[i:] + b.edges[:i]
        blossombase[b] = blossombase[b.childs[0]]

    def augment_matching(v, w):
        """Augment along the path through the S-vertices v and w and back
        to the single vertex at each end."""
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if isinstance(bs, Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if isinstance(bt, Blossom):
                    augment_blossom(bt, j)
                mate[j] = s

    while True:
        # a stage: grow alternating trees from the single vertices until
        # a path augments, or the duals show the matching optimal
        label.clear()
        labeledge.clear()
        bestedge.clear()
        for b in blossomdual:
            b.mybestedges = None
        allowedge.clear()
        queue.clear()
        for v in range(n):
            if v not in mate and label.get(inblossom[v]) is None:
                assign_label(v, 1, None)
        augmented = False
        while True:
            # a substage: label along zero-slack edges, then move the duals
            while queue and not augmented:
                v = queue.pop()
                for w in nbrs[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue  # inside one blossom
                    if (v, w) not in allowedge:
                        kslack = slack(v, w)
                        if kslack <= 0:
                            allowedge.update(((v, w), (w, v)))
                    if (v, w) in allowedge:
                        if label.get(bw) is None:
                            # w is free: T for w, S for its mate
                            assign_label(w, 2, v)
                        elif label.get(bw) == 1:
                            base = scan_blossom(v, w)
                            if base is not None:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label.get(w) is None:
                            # w is reached inside a T-blossom
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label.get(bw) == 1:
                        if bestedge.get(bv) is None or kslack < slack(
                                *bestedge[bv]):
                            bestedge[bv] = (v, w)
                    elif label.get(w) is None:
                        if bestedge.get(w) is None or kslack < slack(
                                *bestedge[w]):
                            bestedge[w] = (v, w)
            if augmented:
                break
            # the least of: delta1, the least vertex dual; delta2, the
            # least slack from an S-vertex to a free vertex; delta3, half
            # the least slack between two S-blossoms; delta4, the least
            # dual of a T-blossom (all doubled)
            deltatype = 1
            delta = min(dualvar)
            deltaedge = deltablossom = None
            for v in range(n):
                if (label.get(inblossom[v]) is None
                        and bestedge.get(v) is not None):
                    d = slack(*bestedge[v])
                    if d < delta:
                        delta, deltatype, deltaedge = d, 2, bestedge[v]
            for b in blossomparent:
                if (blossomparent[b] is None and label.get(b) == 1
                        and bestedge.get(b) is not None):
                    d = slack(*bestedge[b]) // 2
                    if d < delta:
                        delta, deltatype, deltaedge = d, 3, bestedge[b]
            for b in blossomdual:
                if (blossomparent[b] is None and label.get(b) == 2
                        and blossomdual[b] < delta):
                    delta, deltatype, deltablossom = blossomdual[b], 4, b
            for v in range(n):
                t = label.get(inblossom[v])
                if t == 1:
                    dualvar[v] -= delta
                elif t == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    t = label.get(b)
                    if t == 1:
                        blossomdual[b] += delta
                    elif t == 2:
                        blossomdual[b] -= delta
            if deltatype == 1:
                break  # a single vertex's dual reached 0: optimal
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                v, w = deltaedge
                allowedge.update(((v, w), (w, v)))
                queue.append(v)
        if not augmented:
            return mate, dualvar, blossomdual, blossomparent
        for b in list(blossomdual):
            if (b in blossomdual and blossomparent[b] is None
                    and label.get(b) == 1 and blossomdual[b] == 0):
                expand_blossom(b, True)


def check_optimum(h: Graph, twice, mate, dualvar, blossomdual,
                  blossomparent):
    """Raise RuntimeError unless the duals of ``blossom_matching``
    prove its matching optimal: the mates pair up along edges; the duals
    are feasible, every vertex and blossom dual and every edge's slack
    at least 0; and complementary slackness holds, every matched edge at
    slack 0, every single vertex at dual 0, and every blossom of
    positive dual full.
    """
    for v, w in mate.items():
        if mate.get(w) != v or w not in twice[v]:
            raise RuntimeError(f"mate {w} of {v} is not a matched edge")
    if min(dualvar) < 0 or min(blossomdual.values(), default=0) < 0:
        raise RuntimeError("negative dual")

    def holders(v):
        """The blossoms holding vertex v, outermost first."""
        chain = []
        while blossomparent[v] is not None:
            v = blossomparent[v]
            chain.append(v)
        return chain[::-1]

    for u, v in h.edges():
        s = dualvar[u] + dualvar[v] - twice[u][v]
        for bu, bv in zip(holders(u), holders(v)):
            if bu is not bv:
                break
            s += 2 * blossomdual[bu]
        if s < 0:
            raise RuntimeError(f"edge ({u}, {v}) has slack {s}")
        if s and mate.get(u) == v:
            raise RuntimeError(f"matched edge ({u}, {v}) has slack {s}")
    for v in range(h.n):
        if v not in mate and dualvar[v]:
            raise RuntimeError(f"single vertex {v} has dual {dualvar[v]}")
    for b, z in blossomdual.items():
        if z > 0 and (len(b.edges) % 2 == 0 or any(
                mate.get(i) != j for i, j in b.edges[1::2])):
            raise RuntimeError("a blossom of positive dual is not full")
