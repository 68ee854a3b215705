"""Planarity of an ordinary graph by the left-right test.

The left-right criterion (de Fraysseix, Ossona de Mendez and
Rosenstiehl, "Trémaux trees and planarity", 2006) in Brandes'
formulation ("The Left-Right Planarity Test", 2009).  A depth-first
search orients every edge away from the root: tree edges down, back
edges up to an ancestor.  The graph is planar exactly when the back
edges can be split into a left and a right class so that, at every fork
of the tree, return edges that would cross lie on opposite sides.  The
test only decides that partition exists; it builds no embedding.

Phases.

1. Orientation.  One depth-first search records each vertex's height,
   its tree edge from its parent, and each edge's target.  Each edge's
   lowpoint is the least height its subtree returns to; its second
   lowpoint, and whether the two differ, give its nesting depth, by which
   every vertex's outgoing edges are then ordered.
2. Testing.  A second search in that order keeps a stack of conflict
   pairs: two intervals of return edges that must lie on opposite sides.
   An interval is its lowest and highest return edge; ``ref`` links each
   return edge to the next lower one of its interval.  Leaving an edge
   (u, v) trims the return edges that end at u from the top of the stack.
   Adding the return edges of a later outgoing edge of v to the stack
   merges them into one side and every interval they conflict with into
   the other; a pair with return edges on both sides that must move to
   one side means the graph is not planar.

Both searches keep their state on explicit stacks, so the depth is not
bounded by Python recursion.  Vertices are 0..n-1 and edges are numbered
in the order the orientation finds them; this module imports nothing from
the package.
"""

from __future__ import annotations


def is_planar(adjacency: list[list[int]]) -> bool:
    """True when the simple graph with these adjacency lists is planar.

    ``adjacency[v]`` lists v's neighbours: w appears in ``adjacency[v]``
    exactly when v appears in ``adjacency[w]``, once, and never v itself.
    """
    n = len(adjacency)
    if n > 2 and sum(map(len, adjacency)) > 2 * (3 * n - 6):
        return False  # more edges than any planar graph on n vertices

    # orientation: heights, tree edges, lowpoints, nesting order
    height = [-1] * n
    parent_edge = [-1] * n  # the tree edge into each vertex, -1 at a root
    target: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]  # oriented edges leaving v
    preorder: list[int] = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        preorder.append(root)
        path = [root]
        steps = [iter(adjacency[root])]  # neighbours left to try, per path vertex
        while path:
            v = path[-1]
            hv = height[v]
            for w in steps[-1]:
                hw = height[w]
                # visited neighbours are ancestors or finished descendants;
                # the parent is at hv - 1 and its edge is already oriented
                if hw < 0 or hw < hv - 1:
                    k = len(target)
                    target.append(w)
                    out[v].append(k)
                    lowpt2.append(hv)
                    if hw >= 0:  # back edge up to an ancestor
                        lowpt.append(hw)
                        continue
                    lowpt.append(hv)
                    parent_edge[w] = k
                    height[w] = hv + 1
                    preorder.append(w)
                    path.append(w)
                    steps.append(iter(adjacency[w]))
                    break
            else:
                path.pop()
                steps.pop()

    # children before parents: each tree edge's lowpoints are final when its
    # source is reached, and each source orders its edges by nesting depth
    nesting = [0] * len(target)
    for v in reversed(preorder):
        hv = height[v]
        e = parent_edge[v]
        for k in out[v]:
            low = lowpt[k]
            nesting[k] = 2 * low + (lowpt2[k] < hv)  # +1 when chordal
            if e < 0:
                continue
            if low < lowpt[e]:
                lowpt2[e] = min(lowpt[e], lowpt2[k])
                lowpt[e] = low
            elif low > lowpt[e]:
                lowpt2[e] = min(lowpt2[e], low)
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[k])
        out[v].sort(key=nesting.__getitem__)

    # testing: a conflict pair is [left low, left high, right low, right high],
    # each a return edge or None; an interval is empty when its low is None
    m = len(target)
    ref: list[int | None] = [None] * m
    bottom = [0] * m  # stack height when each edge was entered
    pairs: list[list[int | None]] = []
    next_out = [0] * n
    for root in preorder:
        if parent_edge[root] >= 0:
            continue
        path = [root]
        while path:
            v = path[-1]
            edges = out[v]
            i = next_out[v]
            if i < len(edges):
                next_out[v] = i + 1
                k = edges[i]
                bottom[k] = len(pairs)
                w = target[k]
                if parent_edge[w] == k:
                    path.append(w)
                    continue
                pairs.append([None, None, k, k])
            else:
                path.pop()
                e = parent_edge[v]
                if e < 0:
                    continue
                # leaving e = (u, v): trim the return edges that end at u
                u = path[-1]
                hu = height[u]
                while pairs:
                    ll, _, rl, _ = pairs[-1]
                    if ll is None:
                        lowest = lowpt[rl]
                    elif rl is None:
                        lowest = lowpt[ll]
                    else:
                        lowest = min(lowpt[ll], lowpt[rl])
                    if lowest != hu:
                        break
                    pairs.pop()
                if pairs:
                    p = pairs[-1]
                    for lo in (0, 2):
                        high = p[lo + 1]
                        while high is not None and target[high] == u:
                            high = ref[high]
                        p[lo + 1] = high
                        if high is None:
                            p[lo] = None
                k = e
                v = u
            if lowpt[k] >= height[v]:
                continue  # k returns to nothing above v
            if k == out[v][0]:
                continue  # the first edge out of v constrains nothing yet
            # k's return edges must all go to one side, opposite to every
            # interval of v's earlier edges that reaches above lowpt[k]
            low_e = lowpt[parent_edge[v]]
            new: list[int | None] = [None, None, None, None]
            while True:
                q = pairs.pop()
                if q[0] is not None:
                    q[:] = q[2], q[3], q[0], q[1]
                    if q[0] is not None:
                        return False
                if lowpt[q[2]] > low_e:  # merge into the new right interval
                    if new[2] is None:
                        new[3] = q[3]
                    else:
                        ref[new[2]] = q[3]
                    new[2] = q[2]
                # otherwise it returns as low as v's parent edge does: it
                # takes the side of that edge's lowest return and leaves
                if len(pairs) == bottom[k]:
                    break
            low_k = lowpt[k]
            while True:
                q = pairs[-1]
                if not (
                    q[0] is not None and lowpt[q[1]] > low_k
                    or q[2] is not None and lowpt[q[3]] > low_k
                ):
                    break
                pairs.pop()
                if q[2] is not None and lowpt[q[3]] > low_k:
                    q[:] = q[2], q[3], q[0], q[1]
                    if q[2] is not None and lowpt[q[3]] > low_k:
                        return False
                # the part below lowpt[k] joins the new right interval
                if new[2] is not None:
                    ref[new[2]] = q[3]
                if q[2] is not None:
                    new[2] = q[2]
                # the conflicting part forms the new left interval
                if new[0] is None:
                    new[1] = q[1]
                else:
                    ref[new[0]] = q[1]
                new[0] = q[0]
            if new[0] is not None or new[2] is not None:
                pairs.append(new)
    return True
