"""Transportation simplex over a spanning tree held in flat arrays.

Layout. Sources are nodes 0..n-1 and targets are nodes n..n+m-1. A basis is
a spanning tree of n + m - 1 cells rooted at source 0, stored in arrays over
the nodes (the layout of the network simplex behind POT's ``ot.emd``;
Bonneel et al., SIGGRAPH Asia 2011):

- ``parent[x]``: the node above x, -1 at the root;
- ``flow[x]``: the flow on the basic cell joining x to its parent, so each
  basic cell is stored once, at its lower end;
- ``order``: the nodes in preorder, with ``pos`` its inverse and ``size[x]``
  the node count of x's subtree. The subtree of x is the contiguous block
  ``order[pos[x]:pos[x] + size[x]]``, and a is an ancestor of x exactly when
  ``pos[a] <= pos[x] < pos[a] + size[a]``, so no depth is stored;
- ``potential[x]``: the dual value of x, with potential[0] = 0.

Start. Cells are visited by ascending cost, ties in row-major order. A cell
whose row and column are both live receives the smaller remaining mass of
the two, and the line that runs out is crossed out: one line per cell, so
the start has exactly n + m - 1 cells. The remaining masses are compared as
(mass, epsilon) pairs of the perturbation below, which is what decides the
line to cross out when the masses tie.

Pivot. Every cell is priced against the potentials, and the most negative
reduced cost enters if it is below -OPTIMALITY_TOL (Dantzig). The entering
cell (i, j) closes a cycle through the tree paths from i and from j up to
their apex, found with the interval test. Flow theta moves round it: the
cells above the sources on i's path and above the targets on j's path lose
theta, the others gain it. Among the cells that reach zero, the leaving cell
is the last one met when the cycle is walked from the apex down to i, across
(i, j) and up from j to the apex: the blocking cell on j's path nearest the
apex, or if there is none, the blocking cell on i's path nearest i. The
subtree cut off below the leaving cell is re-rooted at the entering endpoint
(parents and flows shift one step along the path between them), its
preorder block is spliced in behind the other endpoint, and its potentials
shift by the entering reduced cost. These updates are NumPy slices and
fancy indexing over the nodes; subtree sizes outside the moved block change
only along the cycle.

Anti-cycling. Perturb the masses: every source but the root gets epsilon
more supply, every target epsilon less demand, and the root (n + m - 1)
epsilon less supply, which keeps the problem balanced. In any tree the cell
above x then carries f + size[x] epsilon when x is a source and
f - size[x] epsilon when x is a target, which is never zero, so no basis of
the perturbed problem is degenerate. The start allocates the perturbed
masses, compared lexicographically: every remaining mass stays positive in
that order, two lines can run out together only at the last cell, and
every start flow is positive in the perturbed problem. In the unperturbed
problem this says that zero flows sit only on cells above sources: the start
tree is strongly feasible (Cunningham 1976) by construction. The
perturbed ratio test picks, among the blocking cells, the one with the
smallest epsilon part: the cell above a target (part -size) nearest the
apex, else the cell above a source (part +size) nearest i, which is the rule
above. Each pivot therefore moves a positive perturbed amount round a cycle
of negative reduced cost, the perturbed objective falls strictly, no basis
repeats, and no fallback rule such as Bland's is needed. The argument
needs every supply and demand positive; ``solve`` sets zero-mass points
aside before pivoting and gives them dual values afterwards.

The objective is kept up to date as theta times the entering reduced cost,
so the per-pivot callback costs nothing extra. Before stopping, potentials
are derived afresh from the tree and every cell is priced again, so
incremental drift can never mask a profitable cell.
"""

import math

import numpy as np

from .errors import IterationLimitError
from .transport_lp import TransportPlan, TransportProblem, TransportSolution

__all__ = ["SpanningTree", "initial_basis", "pivot_budget", "solve"]

OPTIMALITY_TOL = 1e-9


class SpanningTree:
    """A basis of the transportation simplex in the array layout of the module docstring.

    ``flows`` gives the basic cells as a dict ``(i, j) -> flow``, degenerate
    zeros included.
    """

    def __init__(self, cost: np.ndarray, parent: list, flow: list, order: list):
        n, m = cost.shape
        self.cost = cost
        self.n_sources = n
        self.parent = np.array(parent, dtype=np.intp)
        self.flow = np.array(flow)
        self.order = np.array(order, dtype=np.intp)
        self.slots = np.arange(n + m)
        self.pos = np.empty(n + m, dtype=np.intp)
        self.pos[self.order] = self.slots
        size = [1] * (n + m)
        for x in reversed(order[1:]):
            size[parent[x]] += size[x]
        self.size = np.array(size, dtype=np.intp)
        # +1 on sources, -1 on targets: how a potential shift enters each node
        self.sign = np.where(self.slots < n, 1.0, -1.0)
        self.derive_potentials()

    @property
    def flows(self) -> dict:
        rows, cols = self._cells()
        return dict(zip(zip(rows.tolist(), cols.tolist()), self.flow[1:].tolist()))

    def _cells(self):
        """Row and column arrays of the cell above each node 1..n+m-1, in node order."""
        n = self.n_sources
        nodes = self.slots[1:]
        up = self.parent[1:]
        source = nodes < n
        return np.where(source, nodes, up), np.where(source, up, nodes) - n

    def _edge_costs(self) -> np.ndarray:
        """Cost of the cell above each node, 0 at the root."""
        edge = np.zeros(self.parent.size)
        edge[1:] = self.cost[self._cells()]
        return edge

    def derive_potentials(self):
        """Potentials from scratch, down the preorder from potential[root] = 0."""
        edge = self._edge_costs().tolist()
        parent = self.parent.tolist()
        potential = [0.0] * len(parent)
        for x in self.order[1:].tolist():
            potential[x] = edge[x] - potential[parent[x]]
        self.potential = np.array(potential)

    def _cycle(self, i: int, t: int):
        """Nodes from i and from t up to, not including, their apex; each starts at its endpoint.

        Slot k of the preorder holds an ancestor of the node in slot p exactly
        when k <= p < ends[k], so each path is one filter over a slot range.
        """
        order = self.order
        ends = self.size[order]
        ends += self.slots
        at_i, at_t = int(self.pos[i]), int(self.pos[t])
        below = int(np.flatnonzero(ends[: min(at_i, at_t) + 1] > max(at_i, at_t))[-1]) + 1
        side_i = order[below + np.flatnonzero(ends[below:at_i + 1] > at_i)[::-1]]
        side_t = order[below + np.flatnonzero(ends[below:at_t + 1] > at_t)[::-1]]
        return side_i, side_t

    def pivot(self, i: int, j: int, gain: float) -> float:
        """Bring cell (i, j), of reduced cost ``gain`` < 0, into the basis; returns theta."""
        t = self.n_sources + j
        flow = self.flow
        side_i, side_t = self._cycle(i, t)
        minus_i, minus_t = side_i[0::2], side_t[0::2]
        flow_i, flow_t = flow[minus_i], flow[minus_t]
        theta = float(min(flow_i.min(initial=math.inf), flow_t.min(initial=math.inf)))

        blocking = np.flatnonzero(flow_t == theta)
        if blocking.size:
            # leaving cell on j's path: the block holding j hangs from i
            cut = 2 * int(blocking[-1]) + 1
            path, losing, gaining, new_parent, shift = side_t[:cut], side_t[cut:], side_i, i, -gain
        else:
            cut = 2 * int(np.flatnonzero(flow_i == theta)[0]) + 1
            path, losing, gaining, new_parent, shift = side_i[:cut], side_i[cut:], side_t, t, gain
        if theta > 0.0:
            flow[minus_i] -= theta
            flow[side_i[1::2]] += theta
            flow[minus_t] -= theta
            flow[side_t[1::2]] += theta
        self._reroot(path, new_parent, theta, losing, gaining)
        first = self.pos[path[0]]
        block = self.order[first:first + self.size[path[0]]]
        self.potential[block] += shift * self.sign[block]
        return theta

    def _reroot(self, path, new_parent, theta, losing, gaining):
        """Cut the cell above ``path[-1]`` and hang its subtree from ``new_parent`` by ``path[0]``.

        ``path`` runs up the tree from the entering endpoint to the node below
        the leaving cell. ``losing`` and ``gaining`` are the other cycle nodes
        below the apex whose subtrees lose and gain the moved block.
        """
        order, pos, size = self.order, self.pos, self.size
        starts = pos[path]
        sizes = size[path]
        ends = starts + sizes
        moved = int(sizes[-1])
        # the block re-rooted at path[0]: its old subtree, then each path node
        # with what it kept of its old subtree, in preorder
        pieces = [order[starts[0]:ends[0]]]
        for k in range(1, len(path)):
            pieces.append(order[starts[k]:starts[k - 1]])
            pieces.append(order[ends[k - 1]:ends[k]])

        self.parent[path[1:]] = path[:-1]
        self.flow[path[1:]] = self.flow[path[:-1]]
        self.parent[path[0]] = new_parent
        self.flow[path[0]] = theta
        size[path[1:]] = moved - sizes[:-1]
        size[path[0]] = moved
        size[losing] -= moved
        size[gaining] += moved

        # splice the block in right behind new_parent
        first, anchor = int(starts[-1]), int(pos[new_parent])
        if anchor < first:
            lo, hi = anchor + 1, first + moved
            pieces.append(order[lo:first])
        else:
            lo, hi = first, anchor + 1
            pieces.insert(0, order[first + moved:hi])
        order[lo:hi] = np.concatenate(pieces)
        pos[order[lo:hi]] = self.slots[lo:hi]


def initial_basis(problem: TransportProblem) -> SpanningTree:
    """Strongly feasible starting tree by the cheapest-cell rule (see the module docstring).

    With zero masses the start is still a feasible basis of n + m - 1 cells,
    but not strongly feasible; ``solve`` never passes such a problem.
    """
    n, m = problem.n_sources, problem.n_targets
    total = n + m
    # remaining mass of each line as a (mass, epsilon) pair
    left = problem.supply.tolist() + problem.demand.tolist()
    eps = [1] * n + [-1] * m
    eps[0] = 1 - total
    live = [True] * total
    rows_live, cols_live = n, m
    adjacent = [[] for _ in range(total)]
    ranked = np.argsort(problem.cost, axis=None, kind="stable")
    start, chunk = 0, total
    while rows_live and cols_live:
        rows, cols = np.divmod(ranked[start:start + chunk], m)
        cols += n
        alive = np.array(live)
        candidates = alive[rows] & alive[cols]
        for i, t in zip(rows[candidates].tolist(), cols[candidates].tolist()):
            if not (live[i] and live[t]):
                continue
            # the masses may be out of balance by rounding, so the last live
            # row or column is never crossed out before the last cell, and
            # the cell takes the smaller mass, never a negative one
            if rows_live > 1 and (cols_live == 1 or (left[i], eps[i]) <= (left[t], eps[t])):
                out, kept = i, t
                rows_live -= 1
            else:
                out, kept = t, i
                cols_live -= 1
            amount = min(left[i], left[t])
            live[out] = False
            left[kept] -= amount
            eps[kept] -= eps[out]
            adjacent[i].append((t, amount))
            adjacent[t].append((i, amount))
            if not (rows_live and cols_live):
                break
        start += chunk
        chunk *= 2

    # root the n + m - 1 cells at source 0, depth first, recording preorder
    parent = [-1] * total
    flow = [0.0] * total
    order = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y, f in adjacent[x]:
            if y != parent[x]:
                parent[y] = x
                flow[y] = f
                stack.append(y)
    return SpanningTree(problem.cost, parent, flow, order)


def pivot_budget(n_sources: int, n_targets: int) -> int:
    """Pivot limit of ``solve``: 50 (n+m) log2(n+m) + 1000."""
    total = n_sources + n_targets
    return int(50 * total * math.log2(total) + 1000)


def solve(problem: TransportProblem, callback=None) -> TransportSolution:
    """Minimize total transport cost; returns plan, duals, and objective.

    The start and the pivots run on the rows and columns with positive mass.
    A zero-mass point carries no flow; afterwards each one gets the largest
    dual value that keeps every reduced cost non-negative, which adds nothing
    to the dual objective.

    ``callback(iteration, objective)`` is invoked after every pivot, which
    lets tests watch the objective decrease. Raises IterationLimitError past
    ``pivot_budget`` of the positive-mass sizes, which would indicate a
    cycling bug: these instances are always feasible and bounded.

    ``OPTIMALITY_TOL`` and the duality-gap check of ``solution_distance`` are
    absolute, so costs are expected to be of order one. ``wasserstein_distance``
    scales its costs into [0.5, 1) by a power of two before calling this.
    """
    live_rows, live_cols = problem.supply > 0.0, problem.demand > 0.0
    rows, cols = np.flatnonzero(live_rows), np.flatnonzero(live_cols)
    n, m = rows.size, cols.size
    cost = problem.cost[np.ix_(rows, cols)]
    tree = initial_basis(TransportProblem(cost, problem.supply[rows], problem.demand[cols]))
    pivot_limit = pivot_budget(n, m)
    reduced = np.empty_like(cost)
    objective = float(sum(f * cost[cell] for cell, f in tree.flows.items()))

    iterations = 0
    while True:
        entering = _select_entering(cost, tree.potential, reduced)
        if entering is None:
            # re-certify against freshly derived potentials before stopping,
            # so incremental drift can never mask a profitable cell
            tree.derive_potentials()
            entering = _select_entering(cost, tree.potential, reduced)
            if entering is None:
                break
        enter_i, enter_j = entering

        iterations += 1
        if iterations > pivot_limit:
            raise IterationLimitError(f"exceeded {pivot_limit} pivots on a {n}x{m} instance")

        gain = float(reduced[enter_i, enter_j])
        objective += tree.pivot(enter_i, enter_j, gain) * gain
        if callback is not None:
            callback(iterations, objective)

    cost, n_all = problem.cost, problem.n_sources
    dual = np.empty(n_all + problem.n_targets)
    alpha, beta = dual[:n_all], dual[n_all:]
    alpha[rows], beta[cols] = tree.potential[:n], tree.potential[n:]
    alpha[~live_rows] = (cost[~live_rows][:, cols] - beta[cols]).min(axis=1)
    beta[~live_cols] = (cost[:, ~live_cols] - alpha[:, None]).min(axis=0)
    row_of, col_of = rows.tolist(), cols.tolist()
    plan = TransportPlan(n_all, problem.n_targets, tuple(
        (row_of[i], col_of[j], f) for (i, j), f in sorted(tree.flows.items()) if f > 0.0
    ))
    return TransportSolution(problem, plan, dual, plan.cost(cost), iterations)


def _select_entering(cost: np.ndarray, potential: np.ndarray, reduced: np.ndarray):
    """Cell of the most negative reduced cost, or None when none is below -OPTIMALITY_TOL.

    The reduced costs are written into ``reduced``.
    """
    n = cost.shape[0]
    np.subtract(cost, potential[:n, None], out=reduced)
    reduced -= potential[None, n:]
    cell = divmod(int(np.argmin(reduced)), reduced.shape[1])
    if reduced[cell] >= -OPTIMALITY_TOL:
        return None
    return cell

