"""Transportation simplex over a spanning tree held in flat lists.

Layout. Sources are nodes 0..n-1 and targets are nodes n..n+m-1. A basis is
a spanning tree of n + m - 1 cells rooted at source 0, stored in Python lists
over the nodes (the layout of the network simplex behind POT's ``ot.emd``;
Bonneel et al., SIGGRAPH Asia 2011; Kovács 2015):

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

Pivot. The tree keeps the reduced cost cost[i, j] - potential[i] -
potential[n + j] of every cell in an n x m matrix, ``reduced``, in step with
the potentials. The most negative entry enters if it is below
-OPTIMALITY_TOL (Dantzig), so pricing is one argmin. The entering
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
shift by the entering reduced cost: up on its sources and down on its
targets. Only the rows of those sources and the columns of those targets
change in ``reduced``, so a pivot updates them and leaves the rest, and the
entering cell's reduced cost becomes zero as it joins the tree.

A pivot touches only the cycle (a median of ~31 nodes below the apex on
128 x 128 assignments) and the moved block (a median of 2), so the tree update is
scalar walks over the lists, as in LEMON's network simplex: up from i with
the interval test to the apex, then up from j; the ratio test, flow shifts,
re-rooting and potential shift over the cycle, path or block; and one list
slice assignment for the preorder splice, with ``pos`` rewritten over the
spliced range. Subtree sizes outside the moved block change only along the
cycle. NumPy holds only ``reduced``: a moved block with few rows or columns
updates each as a basic slice, a larger one by one fancy-indexed update.

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
so the per-pivot callback costs nothing extra. The per-pivot updates of the
potentials and of ``reduced`` round, so both may drift from the values the
tree defines. Before stopping, ``derive_potentials`` therefore computes the
potentials afresh from the tree and rebuilds every reduced cost from them,
the only place the whole matrix is rebuilt, and every cell is priced again:
drift can never mask a profitable cell.
"""

import math

import numpy as np

from .errors import IterationLimitError
from .transport_lp import TransportPlan, TransportProblem, TransportSolution

__all__ = ["SpanningTree", "initial_basis", "pivot_budget", "solve"]

OPTIMALITY_TOL = 1e-9
# A moved subtree with at most this many rows (or columns) updates ``reduced``
# one basic slice per line, with no temporary; past it, by one fancy-indexed
# update. On 128 x 128 and 160 x 120 matrices a slice costs ~1.6-2 us per line
# and a fancy update ~7 us plus ~0.3-0.8 us per line: they cross at ~6 lines.
SLICE_LINES = 6


class SpanningTree:
    """A basis of the transportation simplex in the layout of the module docstring.

    ``parent``, ``flow``, ``order``, ``pos``, ``size`` and ``potential`` are
    Python lists, walked one node at a time by ``pivot``. ``reduced`` is the
    one NumPy array: the reduced cost of every cell against ``potential``.
    ``derive_potentials`` rebuilds both from the tree; ``pivot`` updates them
    for the moved subtree only, one row or column slice at a time when the
    subtree has at most ``SLICE_LINES`` of them, else by fancy indexing.
    ``flows`` gives the basic cells as a dict ``(i, j) -> flow`` in node
    order, degenerate zeros included.
    """

    def __init__(self, cost: np.ndarray, parent: list, flow: list, order: list):
        n, m = cost.shape
        self.cost = cost
        self.n_sources = n
        self.parent = parent
        self.flow = flow
        self.order = order
        self.pos = [0] * (n + m)
        for k, x in enumerate(order):
            self.pos[x] = k
        self.size = [1] * (n + m)
        for x in reversed(order[1:]):
            self.size[parent[x]] += self.size[x]
        self.reduced = np.empty_like(cost)
        self.derive_potentials()

    @property
    def flows(self) -> dict:
        rows, cols = self._cells()
        return dict(zip(zip(rows.tolist(), cols.tolist()), self.flow[1:]))

    def _cells(self):
        """Row and column arrays of the cell above each node 1..n+m-1, in node order."""
        n = self.n_sources
        up = np.array(self.parent[1:], dtype=np.intp)
        nodes = np.arange(1, up.size + 1)
        source = nodes < n
        return np.where(source, nodes, up), np.where(source, up, nodes) - n

    def derive_potentials(self):
        """Potentials from scratch, down the preorder from potential[root] = 0, and reduced costs.

        This is the one place the whole ``reduced`` matrix is rebuilt.
        """
        edge = [0.0] + self.cost[self._cells()].tolist()
        parent = self.parent
        potential = [0.0] * len(parent)
        for x in self.order[1:]:
            potential[x] = edge[x] - potential[parent[x]]
        self.potential = potential
        n = self.n_sources
        at = np.array(potential)
        np.subtract(self.cost, at[:n, None], out=self.reduced)
        self.reduced -= at[None, n:]

    def _cycle(self, i: int, t: int):
        """Nodes from i and from t up to, not including, their apex; each starts at its endpoint.

        a is an ancestor of t exactly when pos[a] <= pos[t] < pos[a] + size[a],
        so the walk up from i stops at the apex without knowing depths.
        """
        parent, pos, size = self.parent, self.pos, self.size
        at_t = pos[t]
        side_i = []
        apex = i
        while not pos[apex] <= at_t < pos[apex] + size[apex]:
            side_i.append(apex)
            apex = parent[apex]
        side_t = []
        while t != apex:
            side_t.append(t)
            t = parent[t]
        return side_i, side_t

    def pivot(self, i: int, j: int, gain: float) -> float:
        """Bring cell (i, j), of reduced cost ``gain`` < 0, into the basis; returns theta.

        The potentials and reduced costs of the moved subtree shift with it.
        """
        n = self.n_sources
        flow = self.flow
        side_i, side_t = self._cycle(i, n + j)
        minus_t = [flow[x] for x in side_t[0::2]]
        minus_i = [flow[x] for x in side_i[0::2]]
        theta_t = min(minus_t, default=math.inf)
        theta = min(theta_t, min(minus_i, default=math.inf))

        if theta_t == theta:
            # leaving cell on j's path, the blocking one nearest the apex:
            # the block holding j hangs from i
            cut = 2 * (len(minus_t) - minus_t[::-1].index(theta)) - 1
            path, losing, gaining, new_parent, shift = side_t[:cut], side_t[cut:], side_i, i, -gain
        else:
            cut = 2 * minus_i.index(theta) + 1
            path, losing, gaining, new_parent, shift = side_i[:cut], side_i[cut:], side_t, n + j, gain
        if theta > 0.0:
            for side in (side_i, side_t):
                for x in side[0::2]:
                    flow[x] -= theta
                for x in side[1::2]:
                    flow[x] += theta
        self._reroot(path, new_parent, theta, losing, gaining)

        first = self.pos[path[0]]
        block = self.order[first:first + self.size[path[0]]]
        potential = self.potential
        sources, targets = [], []
        for x in block:
            if x < n:
                potential[x] += shift
                sources.append(x)
            else:
                potential[x] -= shift
                targets.append(x - n)
        reduced = self.reduced
        if len(sources) <= SLICE_LINES:
            for x in sources:
                reduced[x] -= shift
        else:
            reduced[sources] -= shift
        if len(targets) <= SLICE_LINES:
            for y in targets:
                reduced[:, y] += shift
        else:
            reduced[:, targets] += shift
        return theta

    def _reroot(self, path, new_parent, theta, losing, gaining):
        """Cut the cell above ``path[-1]`` and hang its subtree from ``new_parent`` by ``path[0]``.

        ``path`` runs up the tree from the entering endpoint to the node below
        the leaving cell. ``losing`` and ``gaining`` are the other cycle nodes
        below the apex whose subtrees lose and gain the moved block.
        """
        parent, flow, order, pos, size = self.parent, self.flow, self.order, self.pos, self.size
        first = pos[path[-1]]
        moved = size[path[-1]]
        # the block re-rooted at path[0]: its old subtree, then each path node
        # with what it kept of its old subtree, in preorder. Going up, each
        # path node hangs from the one below it by that node's old cell.
        start, end = pos[path[0]], pos[path[0]] + size[path[0]]
        block = order[start:end]
        carried = flow[path[0]]
        for below, x in zip(path, path[1:]):
            up_start, up_end = pos[x], pos[x] + size[x]
            block += order[up_start:start]
            block += order[end:up_end]
            size[x] = moved - (end - start)
            parent[x] = below
            flow[x], carried = carried, flow[x]
            start, end = up_start, up_end
        parent[path[0]] = new_parent
        flow[path[0]] = theta
        size[path[0]] = moved
        for x in losing:
            size[x] -= moved
        for x in gaining:
            size[x] += moved

        # splice the block in right behind new_parent
        anchor = pos[new_parent]
        if anchor < first:
            lo, hi = anchor + 1, first + moved
            block += order[lo:first]
        else:
            lo, hi = first, anchor + 1
            block[:0] = order[first + moved:hi]
        order[lo:hi] = block
        for k, x in enumerate(block, lo):
            pos[x] = k


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

    Each pivot is priced from the reduced costs the tree keeps in step with
    its potentials. When none is below -OPTIMALITY_TOL, the potentials and
    every reduced cost are derived afresh and priced once more, and the solve
    stops only if that pass finds none either.

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
    objective = float(sum(f * cost[cell] for cell, f in tree.flows.items()))

    iterations = 0
    while True:
        entering = _select_entering(tree.reduced)
        if entering is None:
            # re-certify against freshly derived potentials and reduced costs
            # before stopping, so incremental drift can never mask a profitable cell
            tree.derive_potentials()
            entering = _select_entering(tree.reduced)
            if entering is None:
                break
        enter_i, enter_j = entering

        iterations += 1
        if iterations > pivot_limit:
            raise IterationLimitError(f"exceeded {pivot_limit} pivots on a {n}x{m} instance")

        gain = float(tree.reduced[enter_i, enter_j])
        objective += tree.pivot(enter_i, enter_j, gain) * gain
        if callback is not None:
            callback(iterations, objective)

    cost, n_all = problem.cost, problem.n_sources
    dual = np.empty(n_all + problem.n_targets)
    alpha, beta = dual[:n_all], dual[n_all:]
    alpha[rows], beta[cols] = tree.potential[:n], tree.potential[n:]
    alpha[~live_rows] = (cost[~live_rows][:, cols] - beta[cols]).min(axis=1)
    beta[~live_cols] = (cost[:, ~live_cols] - alpha[:, None]).min(axis=0)
    # the positive flows in row-major order, mapped back to the full problem
    at_i, at_j = tree._cells()
    flow = np.array(tree.flow[1:])
    kept = np.flatnonzero(flow > 0.0)
    kept = kept[np.lexsort((at_j[kept], at_i[kept]))]
    plan = TransportPlan(n_all, problem.n_targets, rows[at_i[kept]], cols[at_j[kept]], flow[kept])
    return TransportSolution(problem, plan, dual, plan.cost(cost), iterations)


def _select_entering(reduced: np.ndarray):
    """Cell of the most negative entry of ``reduced``, or None when none is below -OPTIMALITY_TOL.

    ``reduced`` is the matrix a ``SpanningTree`` keeps in step with its
    potentials, so pricing every cell is this one argmin.
    """
    cell = divmod(int(reduced.argmin()), reduced.shape[1])
    if reduced[cell] >= -OPTIMALITY_TOL:
        return None
    return cell
