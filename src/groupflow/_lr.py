"""The left-right planarity test (Brandes, "The Left-Right Planarity Test",
2009, after de Fraysseix & Rosenstiehl's LR criterion).

``lr_planarity`` walks an adjacency mapping in the order it is given,
vertices and neighbour lists alike, so one mapping always gets one answer.
Its phases are depth-first searches on explicit stacks, none recursive:

1. orientation: every edge is oriented away from the root (a tree edge) or
   towards an ancestor (a back edge), with its lowpoint, second lowpoint
   and nesting depth;
2. testing: the out-edges of each vertex, in nesting order, merge their
   return edges into a stack of conflict pairs, each a left and a right
   interval of return edges; a pair that needs both intervals on one side
   proves the graph non-planar;
3. embedding (``embed`` only): each edge's side is resolved along its
   ``ref`` chain, out-edges are ordered by signed nesting depth, and a last
   search inserts every incoming half-edge beside its target's reference
   edges.

Vertices and edges are numbered: edge ``e`` runs from ``src[e]`` to
``dst[e]``, and its half-edges are ``2e`` at ``src[e]`` and ``2e + 1`` at
``dst[e]``.  A conflict pair is the list ``[left.low, left.high,
right.low, right.high]`` of edge numbers, ``None`` marking an empty end.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Union


def lr_planarity(adj: Mapping[Hashable, Iterable[Hashable]], embed: bool = False
                 ) -> Union[bool, Optional[dict]]:
    """Planarity of the simple graph with the symmetric adjacency ``adj``.

    Without ``embed``, True or False.  With ``embed``, a planar rotation
    system ``{vertex: neighbours in cyclic order}``, or None when the graph
    is not planar.
    """
    verts = list(adj)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in adj[v]] for v in verts]
    m = sum(map(len, nbrs)) // 2
    if n > 2 and m > 3 * n - 6:
        return None if embed else False

    # -- orientation ----------------------------------------------------------
    height = [-1] * n
    parent = [-1] * n          # the tree edge into each vertex, -1 at a root
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    nesting: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    oriented: set[int] = set()  # v * n + w for each edge oriented v -> w
    roots = []

    def finish(e: int) -> None:
        """Nesting depth of the out-edge e of v, and v's parent edge lowpoints."""
        v = src[e]
        lo, lo2 = lowpt[e], lowpt2[e]
        nesting[e] = 2 * lo + (lo2 < height[v])
        pe = parent[v]
        if pe >= 0:
            if lo < lowpt[pe]:
                lowpt2[pe] = min(lowpt[pe], lo2)
                lowpt[pe] = lo
            elif lo > lowpt[pe]:
                lowpt2[pe] = min(lowpt2[pe], lo)
            else:
                lowpt2[pe] = min(lowpt2[pe], lo2)

    pos = [0] * n
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            i = pos[v]
            if i == len(nbrs[v]):
                stack.pop()
                if parent[v] >= 0:
                    finish(parent[v])
                continue
            pos[v] = i + 1
            w = nbrs[v][i]
            if w * n + v in oriented:
                continue
            oriented.add(v * n + w)
            e = len(src)
            src.append(v)
            dst.append(w)
            out[v].append(e)
            lowpt.append(height[v])
            lowpt2.append(height[v])
            nesting.append(0)
            if height[w] < 0:
                parent[w] = e
                height[w] = height[v] + 1
                stack.append(w)
            else:
                lowpt[e] = height[w]
                finish(e)

    # -- testing ----------------------------------------------------------------
    order = [sorted(es, key=nesting.__getitem__) for es in out]
    ref: list[Optional[int]] = [None] * m
    side = [1] * m
    lowpt_edge = [0] * m
    bottom: list[Optional[list]] = [None] * m
    S: list[list] = []

    def add_constraints(ei: int, e: int) -> bool:
        P: list = [None, None, None, None]
        b = bottom[ei]
        # merge the return edges of ei into P.right
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                if Q[0] is not None or Q[1] is not None:
                    return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                elif P[2] is not None:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is b:
                break
        # merge the conflicting return edges of earlier siblings into P.left
        lo = lowpt[ei]
        while S:
            Q = S[-1]
            left = (Q[0] is not None or Q[1] is not None) and lowpt[Q[1]] > lo
            if not (left or ((Q[2] is not None or Q[3] is not None) and lowpt[Q[3]] > lo)):
                break
            S.pop()
            if not left:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if (Q[2] is not None or Q[3] is not None) and lowpt[Q[3]] > lo:
                return False
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            elif P[0] is not None:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def lowest(P: list) -> int:
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e: int) -> None:
        u = src[e]
        hu = height[u]
        # drop the conflict pairs whose return edges all end at u
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:
            # trim the return edges ending at u off the next pair
            P = S[-1]
            while P[1] is not None and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        # e goes on the side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    pos = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            i = pos[v]
            if i < len(order[v]):
                ei = order[v][i]
                bottom[ei] = S[-1] if S else None
                if parent[dst[ei]] == ei:
                    stack.append(dst[ei])
                    continue
                lowpt_edge[ei] = ei
                S.append([None, None, ei, ei])
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                remove_back_edges(ei)
                v = src[ei]
                i = pos[v]
            # integrate the return edges of ei, the i-th out-edge of v
            if lowpt[ei] < height[v]:
                if i == 0:
                    lowpt_edge[parent[v]] = lowpt_edge[ei]
                elif not add_constraints(ei, parent[v]):
                    return None if embed else False
            pos[v] = i + 1
    if not embed:
        return True

    # -- embedding --------------------------------------------------------------
    for e in range(m):
        path = []
        f = e
        while ref[f] is not None:
            path.append(f)
            f = ref[f]
        s = side[f]
        for g in reversed(path):
            s = side[g] = side[g] * s
            ref[g] = None
        nesting[e] *= side[e]
    order = [sorted(es, key=nesting.__getitem__) for es in out]
    nxt = [0] * (2 * m)
    prv = [0] * (2 * m)
    first = [-1] * n
    for v, es in enumerate(order):
        if es:
            hs = [2 * e for e in es]
            for a, b in zip(hs, hs[1:] + hs[:1]):
                nxt[a] = b
                prv[b] = a
            first[v] = hs[0]

    def insert_after(a: int, h: int) -> None:
        b = nxt[a]
        nxt[a], prv[h], nxt[h], prv[b] = h, a, b, h

    left_ref = [0] * n
    right_ref = [0] * n
    pos = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            i = pos[v]
            if i == len(order[v]):
                stack.pop()
                continue
            pos[v] = i + 1
            e = order[v][i]
            w = dst[e]
            h = 2 * e + 1
            if parent[w] == e:
                # the tree edge comes first at w; v's refs point down it
                if first[w] < 0:
                    nxt[h] = prv[h] = h
                else:
                    insert_after(prv[first[w]], h)
                first[w] = h
                left_ref[v] = right_ref[v] = 2 * e
                stack.append(w)
            elif side[e] == 1:
                insert_after(right_ref[w], h)
            else:
                insert_after(prv[left_ref[w]], h)
                left_ref[w] = h

    tip = [0] * (2 * m)
    tip[0::2] = dst
    tip[1::2] = src
    rotation = {}
    for v in range(n):
        ring = []
        h = first[v]
        if h >= 0:
            while True:
                ring.append(verts[tip[h]])
                h = nxt[h]
                if h == first[v]:
                    break
        rotation[verts[v]] = tuple(ring)
    return rotation
