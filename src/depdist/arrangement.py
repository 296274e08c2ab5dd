"""Exact minimum linear arrangement of a dependency tree in polynomial time.

The solver reads one sentence's 1-based head vector and follows F. R. K.
Chung, "On optimal linear arrangements of trees" (1984).  Alongside the
free problem (the minimum total edge length D(T) of a tree T) it solves
the anchored one: for T rooted at r, A(T, r) is the minimum of D plus the
number of vertices between r and one chosen end, i.e. the in-interval
length of an edge from r to a vertex beyond that end.

Let h be a centroid of T (free) or r (anchored), and T_0 >= T_1 >= ... the
components of T - h, each anchored at its vertex next to h.  Some optimal
arrangement either puts T_0 at an end beside the rest of T (case A;
anchored, at the end away from the anchor):

    D(T)    = A(T_0) + A(T - T_0, h) + 1,
    A(T, r) = A(T_0) + D(T - T_0) + |T - T_0|,

or keeps T_0 in a free centre C = T - T_1 - ... - T_j and lays T_1 ... T_j
at the two ends, anchored toward C, largest outermost: T_1 and T_2
(anchored: T_1 alone, the anchor edge evening the sides), then one pair
per step inward (case B).  With j even (free) or odd (anchored), where h
sits in C adds a constant, and the edges from h cross the blocks inside
theirs and half of C:

    sum of A(T_i) + D(C) + ceil(j/2) |C| + floor(j/2)
        + sum of floor((i - 1 + a)/2) |T_i|,   a = 1 if anchored, else 0.

Case B needs outer blocks that are large against the centre; the solver
takes the largest j with 2|T_j| > |C| and solves case B only where it may
beat case A.  Without case B the minimum comes out too high, first on an
anchored tree of 11 vertices with two components of 5.

Each step splits its vertex set into disjoint parts, so the minimum is a
sum of one term per step.  The solver keeps a work list instead of
recursing (a path anchored at one end would nest n calls) and one copy of
the tree: adjacency sets, from which it cuts edges instead of copying
subtrees, and subtree sizes rooted at each pending part's root, so a
vertex's children are its smaller neighbours.  Moving a root to a centroid
rewrites the sizes on the walk between them only.  A step costs at most
O(m log m) for a part of m vertices.  Where case B may hold, the step
marks the log of cut edges, which records cuts while a mark waits.  Once
the work list has solved case A, case B is tried unless its lower bound
(each part at least its size less one) rules it out: the edges cut since
the mark are re-joined, the part is re-rooted at h, and a nested work
list solves case B's parts.  So only case B work actually done costs a
pass over the part.  Case B's parts hold under two thirds of theirs, so
work lists nest at most log_1.5(n) deep.  The tests check the solver
against a subset DP and a brute force (``tests/oracles.py``) and against
itself from every root.
"""

from __future__ import annotations

from .treebank import integer_heads


def min_arrangement_cost(heads) -> int:
    """Minimum of sum |pi(u) - pi(v)| over all orderings pi of a sentence.

    ``heads`` is one sentence's head vector (a tuple, a list, an array or a
    slice of ``Treebank.heads``): token i depends on token ``heads[i - 1]``,
    and 0 marks the root.  Heads are read as :class:`DepTree` reads them.
    Anything but a tree (integral heads, one root, heads in range, no
    self-loop, no cycle) raises ValueError.
    """
    # An integer array's tolist() holds ints already: no check per token.
    kind = getattr(getattr(heads, "dtype", None), "kind", None)
    heads = heads.tolist() if kind in ("i", "u") else integer_heads(heads)
    n = len(heads)
    if heads.count(0) != 1:
        raise ValueError("a tree has exactly one root")
    adj: list[set[int]] = [set() for _ in range(n)]
    for dependent, head in enumerate(heads):
        if head:
            if not 0 < head <= n or head == dependent + 1:
                raise ValueError(f"token {dependent + 1} has head {head}")
            adj[dependent].add(head - 1)
            adj[head - 1].add(dependent)
    # With one root and one head per token, the root's component is a
    # tree, and it holds every token unless the heads form a cycle.
    root = heads.index(0)
    size = [1] * n
    if _rooted(adj, size, root) != n:
        raise ValueError("the heads form a cycle")
    # The edges cut while case B markers wait on the work lists, in order.
    cuts: list[tuple[int, int]] = []
    pending = 0  # waiting case B markers

    def cut(h: int, c: int) -> None:
        adj[h].discard(c)
        adj[c].discard(h)
        size[h] -= size[c]
        if pending:
            cuts.append((h, c))

    # Pending parts, each a component of the cut forest named by its root.
    # Sizes inside a part are relative to that root, so a vertex's children
    # are its smaller neighbours.
    def solve(work: list[tuple]) -> int:
        nonlocal pending
        cost = 0
        while work:
            item = work.pop()
            if len(item) > 2:  # case A of this part is solved: try case B
                h, m, blocks, crossing, mark, start = item
                pending -= 1
                # Each part of case B costs at least its size less one.
                if crossing + m - len(blocks) - 1 < cost - start:
                    for x, y in cuts[mark:]:  # re-join the part, root it at h
                        adj[x].add(y)
                        adj[y].add(x)
                    del cuts[mark:]
                    _rooted(adj, size, h)
                    for c in blocks:
                        cut(h, c)
                    cost = min(cost, start + crossing + solve(
                        [(c, True) for c in blocks] + [(h, False)]))
                continue
            h, anchored = item
            m = size[h]
            if m <= 2:
                cost += m - 1
                continue
            if not anchored:
                # Walk down to the centroid, re-rooting: a vertex left
                # behind holds under m/2 from then on, so the walk never
                # turns back.
                while True:
                    for c in adj[h]:
                        if 2 * size[c] > m:
                            size[h] = m - size[c]
                            h = c
                            break
                    else:
                        break
                size[h] = m
            c0, s0, s1, s2 = -1, 0, 0, 0  # T_0 and the sizes of T_0 ... T_2
            for c in adj[h]:
                if size[c] > s2:
                    if size[c] > s1:
                        if size[c] > s0:
                            c0, s0, s1, s2 = c, size[c], s0, s1
                        else:
                            s1, s2 = size[c], s1
                    else:
                        s2 = size[c]
            # Case B's centre holds T_0 and h; with j = 1, 2|T_1| > m - |T_1|;
            # with more blocks, all but T_1 are at most T_2.
            blocks, crossing = (
                _case_b(adj[h] - {c0}, m, anchored, size)
                if 2 * s1 > s0 + 1 and (anchored and 3 * s1 > m
                                        or s1 + len(adj[h]) * s2 > m)
                else ((), 0))
            if blocks:  # lay out case B once case A's cost is known
                work.append((h, m, blocks, crossing, len(cuts), cost))
                pending += 1
            cut(h, c0)
            cost += size[h] if anchored else 1
            work += [(c0, True), (h, not anchored)]
        return cost

    return solve([(root, False)])


def _rooted(adj: list[set[int]], size: list[int], r: int) -> int:
    """Set the subtree sizes of r's component rooted at r; return its
    number of vertices."""
    order, up = [r], [-1]
    for x, p in zip(order, up):
        size[x] = 1
        for y in adj[x]:
            if y != p:
                order.append(y)
                up.append(x)
    for i in range(len(order) - 1, 0, -1):
        size[up[i]] += size[order[i]]
    return len(order)


def _case_b(near: set[int], m: int, anchored: bool,
            size: list[int]) -> tuple[list[int], int]:
    """Case B's outer blocks T_1 ... T_j among ``near`` (h's neighbours
    but T_0's) in a part of ``m`` vertices, for the largest j of its parity
    with 2|T_j| > |C|, and what the edges from h cross; no blocks if there
    is no such j."""
    ranked = sorted(near, key=size.__getitem__, reverse=True)
    centre, j = m, 0
    for i, c in enumerate(ranked, start=1):
        centre -= size[c]
        if i % 2 == anchored and 2 * size[c] > centre:
            j, crossing = i, (i + 1) // 2 * centre + i // 2
    if not j:
        return [], 0
    return ranked[:j], crossing + sum(
        (i - 1 + anchored) // 2 * size[c]
        for i, c in enumerate(ranked[:j], start=1))
