"""Exact minimum linear arrangement of dependency trees in polynomial time,
for a whole treebank at once.

The solver follows F. R. K. Chung, "On optimal linear arrangements of
trees" (1984).  Alongside the free problem (the minimum total edge length
D(T) of a tree T) it solves the anchored one: for T rooted at r, A(T, r)
is the minimum of D plus the number of vertices between r and one chosen
end, i.e. the in-interval length of an edge from r to a vertex beyond that
end.

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
anchored tree of 11 vertices with two components of 5.  Two shapes close
at once: a path has D = n - 1, and a star whose hub h has k single-word
components has D = s(k), the leaves split around h, s(k) = l(l + 1)/2 +
r(r + 1)/2 with l = floor(k/2), r = k - l; anchored at h it has
A = s(k - 1) + k (case A takes one leaf; case B needs a component of two
words).

The treebank is one forest of adjacency arrays (CSR, both directions of
each edge, each row's alive entries first) with subtree sizes relative to
each pending part's root, so a vertex's children are its smaller
neighbours.  Each round steps every pending part of every sentence with
numpy: the free parts walk to their centroids in an inner loop (moving a
root rewrites the sizes on the walk only), a sort of each root's alive
neighbours by size gives T_0, T_1 and T_2, a cut moves an entry past its
row's alive prefix, and the step's cost goes to the part's account.  Each
step opens two accounts, one per new part, under its own; parts of one or
two words and stars settle their words in theirs.

Case B waits for the end of the phase (the rounds until no part is
pending).  A step where it may hold records a marker: its lower bound
(each part at least its size less one) and what case B's edges cross.
Folding the accounts bottom-up gives each marker's case A cost; a marker
whose bound is below it becomes an instance of the next phase: the tree's
edges among the words settled under its account, rooted at h, with its
blocks cut.  Once that phase is solved, the accounts fold again as
min(A, crossing + B).  Case B's parts hold under two thirds of theirs, so
phases nest at most log_1.5(n) deep.  The tests check the solver against
a subset DP, a brute force and the sequential solver it replaced
(``tests/oracles.py``), and against itself from every root.
"""

from __future__ import annotations

import numpy as np

from .treebank import tree_arrays


def min_arrangement_cost(heads, sizes=None) -> np.ndarray:
    """Minimum of sum |pi(u) - pi(v)| over all orderings pi of each
    sentence, as an int64 array.

    ``heads`` holds the sentences' head vectors back to back (as
    ``Treebank.heads``) and ``sizes`` their lengths; None reads ``heads``
    as one sentence.  Token i of a sentence depends on its token
    ``heads[i - 1]``, and 0 marks the root.  Reads and checks the arrays,
    and raises, as ``Treebank(heads, sizes)`` does (:func:`.tree_arrays`).
    """
    heads, sizes, parent = tree_arrays(
        heads, [len(heads)] if sizes is None else sizes)
    roots = np.flatnonzero(parent < 0)
    # A sentence whose words have at most two neighbours each is a path.
    degree = np.bincount(parent[parent >= 0], minlength=len(heads)) \
        + (parent >= 0)
    sentence = np.repeat(np.arange(len(sizes)), sizes)
    branched = np.bincount(sentence[degree > 2], minlength=len(sizes)) > 0
    minima = sizes - 1
    if branched.any():
        words = branched[sentence]
        local = np.cumsum(words) - 1  # the words' numbers in the forest
        child = np.flatnonzero(words & (parent >= 0))
        count = int(branched.sum())
        minima[branched] = _phase(
            int(words.sum()), local[child], local[parent[child]],
            local[roots[branched]], sizes[branched], np.full(count, -1),
            np.zeros(count, np.int64), np.zeros(count, np.int64))
    return minima


def _star(k):
    """D of a star of k leaves: the leaves split around the hub."""
    left = k // 2
    return (left * (left + 1) + (k - left) * (k - left + 1)) // 2


def _spans(lo, count):
    """The indices lo[i] ... lo[i] + count[i] - 1 for every i, and each
    one's i."""
    owner = np.repeat(np.arange(len(lo)), count)
    return np.arange(len(owner)) + np.repeat(lo - (np.cumsum(count) - count),
                                             count), owner


def _adjacency(n, u, v):
    """The forest with edges u -> v (each u once) as CSR rows, both
    directions: a vertex's children (the u of each edge into it), then its
    parent; each entry's reverse; and each vertex's number of children."""
    children = np.bincount(v, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(children + np.bincount(u, minlength=n), out=indptr[1:])
    by = np.argsort(v, kind="stable")
    into = v[by]
    down = indptr[into] + np.arange(len(by)) - (
        np.cumsum(children) - children)[into]
    upward = indptr[u[by] + 1] - 1
    nbr = np.empty(2 * len(u), dtype=np.int64)
    rev = np.empty_like(nbr)
    nbr[down], nbr[upward] = u[by], into
    rev[down], rev[upward] = upward, down
    return indptr, nbr, rev, children


def _cut(indptr, alive, nbr, rev, rows, entries):
    """Remove one alive entry from each of ``rows`` (distinct): swap it
    with the row's last alive entry and shorten the row."""
    last = indptr[rows] + alive[rows] - 1
    near, far = nbr[entries], nbr[last]
    back, away = rev[entries], rev[last]
    nbr[entries], nbr[last] = far, near
    rev[entries], rev[last] = away, back
    rev[away], rev[back] = entries, last
    alive[rows] -= 1


def _phase(n, u, v, roots, whole, centre, blocks, crossing) -> np.ndarray:
    """Minimum arrangement cost of each instance of a phase.

    The forest has ``n`` vertices and the edges u -> v; instance i is the
    tree of ``roots[i]``, of ``whole[i]`` vertices.  Without blocks it is
    solved free.  Otherwise it is case B at h = ``roots[i]``: T_0, the
    component of T - h at ``centre[i]``, stays, the ``blocks[i]`` largest
    of the others are cut off and solved anchored, the rest free, and
    ``crossing[i]`` is added.
    """
    indptr, nbr, rev, children = _adjacency(n, u, v)
    alive = np.diff(indptr)  # a row's alive entries come first
    par = np.full(n, -1)
    par[u] = v
    size = _sizes(indptr, nbr, children, par)
    # The sizes hang from each tree's top; re-root them at the instance's
    # root, which changes only the sizes on the path up to the top.
    at, below, left = roots, size[roots], whole
    size[roots] = whole
    while True:
        up = par[at]
        inside = up >= 0
        if not inside.any():
            break
        at, below, left = up[inside], below[inside], left[inside]
        below, size[at] = size[at], left - below

    # Accounts: 0 ... I - 1 are the instances, then one generation per
    # round: the parts that it steps.  The first generation's parents are
    # instances; later ones come in pairs (T_0, then the rest of the part),
    # each pair's parent the step that made it.
    instances = len(roots)
    parents = [None]
    cost, own = [crossing], [np.zeros(instances, dtype=np.int64)]
    settle, slot = np.full(n, -1), np.zeros(n, dtype=np.int64)
    markers = []  # (account, h, T_0's root, j, crossing, bound) per round

    # Open each instance: cut its blocks off h, the largest components
    # but T_0, which its marker named: the centre keeps the T_0 of case A.
    entry, owner = _spans(indptr[roots], alive[roots])
    entry, child, weight, owner, rank, _, _ = _ranked(
        entry, owner, instances, size, nbr, centre)
    cut = (rank >= 1) & (rank <= blocks[owner])
    far = rev[entry[cut]]
    for r in range(1, int(blocks.max(initial=0)) + 1):
        ring = far[rank[cut] == r]
        _cut(indptr, alive, nbr, rev, nbr[ring], rev[ring])
    _cut(indptr, alive, nbr, rev, child[cut], far)
    np.subtract.at(size, roots[owner[cut]], weight[cut])
    up = np.concatenate([owner[cut], np.arange(instances)])
    order = np.argsort(up, kind="stable")
    h = np.concatenate([child[cut], roots])[order]
    anchored = np.concatenate([np.ones(len(far), dtype=bool),
                               np.zeros(instances, dtype=bool)])[order]
    parents.append(up[order])
    start = instances

    while len(h):
        # This round's accounts.  Parts of one or two words settle at
        # once: a row's first entry is alive if any is.
        account = start + np.arange(len(h))
        start += len(h)
        m = size[h]
        small = m <= 2
        settle[h[small]] = account[small]
        pair = np.flatnonzero(m == 2)
        partner = nbr[indptr[h[pair]]]
        settle[partner] = account[pair]
        slot[partner] = 1
        cost.append(np.where(small, m - 1, 0))
        own.append(np.where(small, m, 0))
        live = np.flatnonzero(~small)
        h, anchored, account, m = (
            h[live], anchored[live], account[live], m[live])
        index = live  # into this generation's columns
        parts = len(h)
        if not parts:
            break

        # Free parts walk to their centroids: a vertex left behind holds
        # under m/2 from then on, so the walk never turns back.  A part's
        # entries at the vertex where it stops are its root's neighbours.
        free = ~anchored
        at, active, found = h.copy(), np.arange(parts), []
        while len(active):
            entry, owner = _spans(indptr[at[active]], alive[at[active]])
            near, owner = nbr[entry], active[owner]
            hit = free[owner] & (2 * size[near] > m[owner])
            if not hit.any():
                found.append((entry, owner))
                break
            moved = owner[hit]
            going = np.zeros(parts, dtype=bool)
            going[moved] = True
            stays = ~going[owner]
            found.append((entry[stays], owner[stays]))
            size[at[moved]] = m[moved] - size[near[hit]]
            at[moved] = near[hit]
            active = moved
        h = at
        size[h] = m
        entry, child, weight, owner, rank, first, degree = _ranked(
            *map(np.concatenate, zip(*found)), parts, size, nbr)
        last = len(weight) - 1
        s0 = weight[first]
        s1 = np.where(degree > 1, weight[np.minimum(first + 1, last)], 0)
        s2 = np.where(degree > 2, weight[np.minimum(first + 2, last)], 0)

        # Stars settle their words here.
        done = s0 == 1
        if done.any():
            settle[h[done]] = account[done]
            words = done[owner]
            settle[child[words]] = account[owner[words]]
            slot[child[words]] = rank[words] + 1
            own[-1][index[done]] = m[done]
            k = m[done] - 1
            cost[-1][index[done]] = np.where(anchored[done],
                                             _star(k - 1) + k, _star(k))

        # Case B's centre holds T_0 and h; with j = 1, 2|T_1| > m - |T_1|;
        # with more blocks, all but T_1 are at most T_2.
        step = ~done
        maybe = step & (2 * s1 > s0 + 1) & (
            anchored & (3 * s1 > m) | (s1 + degree * s2 > m))
        if maybe.any():
            markers.append(_case_b(np.flatnonzero(maybe[owner]), owner, rank,
                                   child, weight, m, anchored, account, h))

        # Case A: cut T_0 off h.
        part = np.flatnonzero(step)
        gone, c0, h = entry[first[part]], child[first[part]], h[part]
        far = rev[gone]
        _cut(indptr, alive, nbr, rev, h, gone)
        _cut(indptr, alive, nbr, rev, c0, far)
        size[h] -= s0[part]
        cost[-1][index[part]] = np.where(anchored[part], size[h], 1)
        parents.append(account[part])
        h = np.stack([c0, h], axis=1).ravel()
        anchored = np.stack([np.ones(len(part), dtype=bool),
                             ~anchored[part]], axis=1).ravel()
    del parents[len(cost):]  # a round that made no parts

    generations = np.cumsum([0] + [len(c) for c in cost])
    cost = np.concatenate(cost)
    value = _fold(cost.copy(), parents, generations)
    if not markers:
        return value[:instances]
    account, h, c0, j, crosses, bound = map(np.concatenate, zip(*markers))
    chosen = bound < value[account]
    if not chosen.any():
        return value[:instances]
    account, h, c0, j, crosses = (
        account[chosen], h[chosen], c0[chosen], j[chosen], crosses[chosen])

    # The words settled under each account, in one order where every
    # account's words are a run: runs of siblings follow each other, and
    # an account that settles words holds them in its slots.
    count = _fold(np.concatenate(own), parents, generations)
    offset = np.zeros(len(count), dtype=np.int64)
    offset[:instances] = np.cumsum(count[:instances]) - count[:instances]
    for g in range(1, len(parents)):
        a, b, p = generations[g], generations[g + 1], parents[g]
        if g == 1:
            before = np.cumsum(count[a:b]) - count[a:b]
            new = np.concatenate([[True], p[1:] != p[:-1]])
            offset[a:b] = offset[p] + before - before[new][np.cumsum(new) - 1]
        else:
            offset[a:b:2] = offset[p]
            offset[a + 1:b:2] = offset[p] + count[a:b:2]
    pos = offset[settle] + slot
    order = np.empty_like(pos)
    order[pos] = np.arange(n)

    # Each chosen marker's part is an instance of the next phase: the
    # tree's edges among its words, rooted at h, its blocks cut.
    lo, whole = offset[account], count[account]
    base = np.cumsum(whole) - whole
    which = np.repeat(np.arange(len(account)), whole)
    t = np.arange(int(whole.sum())) - base[which]
    above = par[order[lo[which] + t]]
    tp = pos[above] - lo[which]
    inner = (above >= 0) & (tp >= 0) & (tp < whole[which])
    best = np.full(len(count), np.iinfo(np.int64).max)
    best[account] = _phase(
        len(t), (base[which] + t)[inner], (base[which] + tp)[inner],
        base + pos[h] - lo, whole, base + pos[c0] - lo, j, crosses)
    return _fold(cost, parents, generations, best)[:instances]


def _ranked(entry, owner, count, size, nbr, first_of=None):
    """Adjacency entries of ``count`` roots, each root's alive neighbours
    largest component first (``first_of[i]`` first of all for root i):
    entries, neighbours, their sizes, owners, ranks, and each root's first
    index and number of neighbours."""
    child = nbr[entry]
    weight = size[child]
    key = owner * (2 * len(size) + 1) - weight
    if first_of is not None:
        key -= len(size) * (child == first_of[owner])
    order = np.argsort(key, kind="stable")
    entry, child, weight, owner = (
        entry[order], child[order], weight[order], owner[order])
    degree = np.bincount(owner, minlength=count)
    first = np.cumsum(degree) - degree
    return (entry, child, weight, owner, np.arange(len(entry)) - first[owner],
            first, degree)


def _case_b(sel, owner, rank, child, weight, m, anchored, account, h):
    """Markers of the parts whose ranked entries are ``sel``: case B's
    outer blocks T_1 ... T_j, for the largest j of its parity with
    2|T_j| > |C|, and what the edges from h cross; (account, h, T_0's
    root, j, crossing, lower bound) of each part with such a j."""
    owner, rank, child, weight = owner[sel], rank[sel], child[sel], weight[sel]
    tilt = anchored[owner]
    starts = np.flatnonzero(rank == 0)
    group = np.cumsum(rank == 0) - 1
    outer = rank >= 1
    inside = np.cumsum(np.where(outer, weight, 0))
    centre = m[owner] - (inside - inside[starts][group])
    fits = outer & (rank % 2 == tilt) & (2 * weight > centre)
    j = np.zeros(len(starts), dtype=np.int64)
    np.maximum.at(j, group[fits], rank[fits])
    crosses = (j + 1) // 2 * centre[starts + j] + j // 2
    laid = outer & (rank <= j[group])
    np.add.at(crosses, group[laid],
              (rank[laid] - 1 + tilt[laid]) // 2 * weight[laid])
    marked = j > 0
    part, c0 = owner[starts][marked], child[starts][marked]
    j, crosses = j[marked], crosses[marked]
    return account[part], h[part], c0, j, crosses, crosses + m[part] - j - 1


def _sizes(indptr, nbr, children, par):
    """Subtree sizes in the forest of ``par`` (-1 at a tree's top), whose
    CSR rows start with each vertex's children."""
    size = np.ones(len(par), dtype=np.int64)
    levels = [np.flatnonzero(par < 0)]
    while len(levels[-1]):
        entry, _ = _spans(indptr[levels[-1]], children[levels[-1]])
        levels.append(nbr[entry])
    for level in reversed(levels[1:]):
        np.add.at(size, par[level], size[level])
    return size


def _fold(value, parents, generations, best=None):
    """Add each account's value to its parent's, last generation first;
    with ``best``, an account takes the smaller of its sum and its entry
    there once its children are in."""
    for g in range(len(parents) - 1, 0, -1):
        a, b = generations[g], generations[g + 1]
        if best is not None:
            np.minimum(value[a:b], best[a:b], out=value[a:b])
        if g == 1:
            np.add.at(value, parents[1], value[a:b])
        else:
            value[parents[g]] += value[a:b:2] + value[a + 1:b:2]
    return value
