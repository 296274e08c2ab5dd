"""Exact minimum linear arrangement of free trees in polynomial time.

The solver follows F. R. K. Chung, "On optimal linear arrangements of
trees" (1984).  Alongside the free problem (the minimum total edge length
D(T) of a tree T) it solves the anchored one: for T rooted at r, the
minimum of D plus the number of vertices between r and one chosen end,
i.e. the in-interval length of an edge from r to a vertex beyond that end.

Chung's structure: with u a centroid of T and T_0 >= T_1 >= ... the
components of T - u, some optimal arrangement either puts T_0 beside
T - T_0, both anchored at the edge joining them (case A), or, for some
p >= 1, lays T_0, T_2, ... T_{2p-2} inward from the left end and T_1, T_3,
... T_{2p-1} inward from the right end, each anchored toward a freely
arranged centre T - T_0 - ... - T_{2p-1} (case B).  A tree anchored at its
root r decomposes the same way around r, with 2p + 1 outer blocks, T_0
outermost on the side away from the anchor.

Two facts collapse the case analysis.  In case B, u meets as many outer
edges on its left as on its right (the anchor edge counts on its side),
so where u sits in the centre adds a constant; any arrangement of the
centre is admissible, including case B with p = 1 around u, which turns
p into p + 1.  With the centre solved exactly, p = 1 is thus never worse
than a larger p, and the anchored case is decided at p = 0.  Anchoring
T - T_0 at u then puts T_1 at its far end around a free centre, so case
A is the same arrangement as p = 1.  Hence

    D(T)    = A(T_0) + A(T_1) + D(T') + |T'| + 1,  T' = T - T_0 - T_1,
    A(T, r) = A(T_0) + D(T') + |T'|,               T' = T - T_0,

where A anchors each T_i at its vertex next to u (or r), T_0 in the second
line is the largest component of T - r, and a single vertex costs 0 (two
vertices, free, cost 1).  Each step splits its vertex set into disjoint
parts, so the minimum is a sum of one term per step.  The solver keeps a
work list instead of recursing (a path anchored at one end would nest n
calls), cuts edges instead of copying subtrees, and keeps subtree sizes
rooted at each pending part's root; moving a root to a centroid rewrites
the sizes on the path between them only.  A step costs at most
O(m log m) for a part of m vertices, and there are fewer than 2n steps.

The tests check it against two independent oracles in ``tests/oracles.py``:
a subset DP, exact for any connected graph, and a brute force.
"""

from __future__ import annotations


def min_arrangement_cost(edges: list[tuple[int, int]], n: int) -> int:
    """Minimum of sum |pi(u) - pi(v)| over all vertex orderings pi.

    Vertices are 0..n-1 and the edges must form a tree (as every
    dependency tree does); anything else raises ValueError.
    """
    if n <= 1:
        return 0
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    parent = [-1] * n
    order = [0]
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                if parent[y] != -1 or y == 0:
                    raise ValueError("edges do not form a tree")
                parent[y] = x
                order.append(y)
    if len(order) != n or len(edges) != n - 1:
        raise ValueError("edges do not form a tree")
    size = [1] * n
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]

    def cut(root: int, child: int) -> None:
        adj[root].discard(child)
        adj[child].discard(root)
        parent[child] = -1
        size[root] -= size[child]

    # Pending parts, each a component of the cut forest named by its root.
    # Sizes and parents inside a part are relative to that root.
    cost = 0
    work = [(0, False)]
    while work:
        r, anchored = work.pop()
        m = size[r]
        if m == 1:
            continue
        if anchored:
            c0 = max(adj[r], key=size.__getitem__)
            cost += m - size[c0]
            cut(r, c0)
            work += [(c0, True), (r, False)]
            continue
        u = r
        while True:  # walk down to the centroid
            heavy = [c for c in adj[u] if c != parent[u] and 2 * size[c] > m]
            if not heavy:
                break
            u = heavy[0]
        below, x = -1, u  # re-root the part at the centroid
        while x != -1:
            parent[x], below, x = below, x, parent[x]
        x = r
        while x != u:
            size[x] = m - size[parent[x]]
            x = parent[x]
        size[u] = m
        if m == 2:
            cost += 1
            continue
        c0, c1 = sorted(adj[u], key=size.__getitem__)[-2:]
        cut(u, c0)
        cut(u, c1)
        cost += size[u] + 1
        work += [(c0, True), (c1, True), (u, False)]
    return cost
