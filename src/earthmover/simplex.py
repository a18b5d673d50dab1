"""Transportation simplex over a spanning tree held in flat lists.

Layout. Sources are nodes 0..n-1 and targets are nodes n..n+m-1. A basis is
a spanning tree of n + m - 1 cells rooted at source 0, stored in Python lists
over the nodes (the tree indices of Ahuja, Magnanti & Orlin, *Network Flows*,
1993, ch. 11):

- ``parent[x]``: the node above x, -1 at the root;
- ``flow[x]``: the flow on the basic cell joining x to its parent, so each
  basic cell is stored once, at its lower end;
- ``kids[x]``: the nodes whose parent is x, in no particular order (node
  order when the tree is built);
- ``depth[x]``: the number of cells between x and the root;
- ``edge[x]``: the cost of the cell above x, 0.0 at the root.

The dual values, ``potential[x]``, are a NumPy vector over the nodes, a
view of an ``array.array`` of doubles that the tree walks read and write
as Python floats: potential[0] = 0 and potential[x] = edge[x] -
potential[parent[x]], so the cost of every basic cell is the sum of the
potentials of its two ends. Each
potential is only ever set by that expression, from the parent down, and
never shifted: ``SpanningTree(cost, parent, flow)`` derives ``kids``,
``edge``, ``depth`` and all the potentials from the parent list, from the
root down, and a pivot sets those of the subtree it moved.

Start. Cells are visited by ascending cost, ties in row-major order. A cell
whose row and column are both live receives the smaller remaining mass of
the two, and the line that runs out is crossed out: one line per cell, so
the start has exactly n + m - 1 cells. The remaining masses are compared as
(mass, epsilon) pairs of the perturbation below, which is what decides the
line to cross out when the masses tie. No ranking of all n * m cells is
built: the walk goes in rounds over the block of live rows and columns, as
in the matrix-minimum start of network simplex codes (Kovacs, *Minimum-cost
flow algorithms: an experimental evaluation*, 2015). A round partitions out
the block's n + m cheapest cells, adds every cell tied with the last of
them, and sorts only these, stably, in the block's row-major order, which
is the global one. The walk is the same as over a full ranking: a cell
outside the block has a crossed-out line, and lines never come back to life,
so it would be skipped; and every cell of the block up to the round's last
cost is visited and either crosses out a line or meets one already crossed
out, so the next round's block holds only costlier cells. The walk builds the
parent list as it goes. A crossed-out line gets no more cells, so it hangs
from the line kept, by the cell that crossed it out, which is its last. The
one line never crossed out, the last live row, is the root. The path from
source 0 up to it is then turned round, as a pivot re-roots a moved subtree,
so that the tree hangs from source 0, as the anti-cycling argument below
requires.

Pivot. Pricing reads the reduced cost cost[i, j] - potential[i] -
potential[n + j] of a block of rows at a time, computed from the potentials
the tree keeps in step with its pivots. Each block is BLOCK_CELLS / m rows,
rounded up, and the last one is cut at row n. The scan goes round the blocks
in order, from the first one, and keeps its place between pivots; a block
holding a reduced cost below -OPTIMALITY_TOL gives its most negative cell,
which enters, and the scan goes on at the next block (block search, as in
LEMON's network simplex; Kovacs 2015). It ends after a full round of blocks
gives no cell. The entering cell (i, j) closes a cycle through the tree
paths from i and from j up to their apex. Flow theta moves round it: the
cells above the sources on i's path and above the targets on j's path lose
theta, the others gain it. Among the cells that reach zero, the leaving cell
is the last one met when the cycle is walked from the apex down to i, across
(i, j) and up from j to the apex: the blocking cell on j's path nearest the
apex, or if there is none, the blocking cell on i's path nearest i. One walk
finds both the apex and that cell. It steps up from whichever of i and j is
deeper, from i when they are equally deep, and keeps on each side the
smallest flow among the cells losing theta: on i's side the first one met
(strictly smaller), on j's side the last one met (smaller or equal), so that
j's side wins a tie between the two. A second walk shifts theta round the
cycle only when theta is positive. The subtree cut off below the leaving
cell is re-rooted at the entering endpoint: going up from it to the leaving
cell, parents, flows and edge costs shift one step along the path, each path
node moves from its old parent's ``kids`` to the ``kids`` of the node below
it, and the entering endpoint hangs from the other one by the entering cell.
The potentials of the moved subtree are then set from their new parents,
down from the entering endpoint, so the entering cell's reduced cost becomes
zero as it joins the tree. No other node's path to the root changes, so
neither does its potential, and every potential stays equal, bit for bit, to
the one a fresh ``SpanningTree(cost, parent, flow)`` would derive.

A pivot touches only the cycle and the moved subtree, measured per pivot on
the benchmark's seed-1 and seed-7 pools: on 128 x 128 assignments, a cycle of
a median of 19 to 21 nodes below the apex (mean 22 to 24) and a moved
subtree of a median of 2 nodes (mean 18 to 20); on the weighted points of an
8 x 8 grid, which reach the solver as residual problems of 27 to 41 sources
and 22 to 37 sinks, a median of 9 (mean 10) and of 11 to 12 (mean 17). So
the tree update is scalar walks over the lists, as in LEMON's network
simplex: the walk up the cycle by depth, which also makes the ratio test;
the flow shift over the cycle and the re-rooting over the path; and one walk
of the moved subtree down ``kids``, which sets its depths and potentials (no
other depth or potential changes). That walk stays scalar
however large the subtree, because each potential is computed from its
parent's. NumPy does only the pricing, one block of at most about
BLOCK_CELLS cells at a time.

Anti-cycling. Perturb the masses: every source but the root gets epsilon
more supply, every target epsilon less demand, and the root (n + m - 1)
epsilon less supply, which keeps the problem balanced. In any tree, with s
the number of nodes in x's subtree, the cell above x then carries
f + s epsilon when x is a source and f - s epsilon when x is a target, which
is never zero, so no basis of the perturbed problem is degenerate. The start
allocates the perturbed masses, compared lexicographically: every remaining
mass stays positive in that order, two lines can run out together only at
the last cell, and every start flow is positive in the perturbed problem. In
the unperturbed problem this says that zero flows sit only on cells above
sources: the start tree is strongly feasible (Cunningham 1976) by
construction. The perturbed ratio test picks, among the blocking cells, the
one with the smallest epsilon part: the cell above a target (part -s)
nearest the apex, whose subtree is the largest, else the cell above a source
(part +s) nearest i, whose subtree is the smallest, which is the rule above.
Each pivot therefore moves a positive perturbed amount round a cycle of
negative reduced cost, the perturbed objective falls strictly, no basis
repeats, and no fallback rule such as Bland's is needed. Any negative
entering cost will do, not only the most negative, so block search keeps
the argument. It needs every supply and demand positive, which
``build_problem`` guarantees.

The objective is kept up to date as theta times the entering reduced cost,
so the per-pivot callback costs nothing extra.
"""

import math
from array import array

import numpy as np

from .errors import IterationLimitError, SolverError
from .transport_lp import TransportPlan, TransportProblem, TransportSolution

__all__ = ["SpanningTree", "initial_basis", "pivot_budget", "solve"]

# Relative to the cost scale: solve compares reduced costs with OPTIMALITY_TOL
# times 2^e, e the math.frexp exponent of the largest |cost|. That is the same
# test on the costs scaled by 2^-e, whose largest magnitude lies in [0.5, 1),
# and the rest of this comment speaks of those. A potential is edge -
# potential[parent], so it is off by at most half an ulp of each potential on
# its path to the root: depth * 2^-54 while potentials stay below 1. A
# reduced cost adds two of these and two roundings of its own, so its noise
# stays below this tolerance in trees up to ~900 deep. Depths and potentials
# are measured at every pivot, not bounded: the deepest tree seen was 491,
# with potentials below 0.95 (uniform 2048 x 2048 from default_rng(5)); on
# the bench pools of lp_assignment and lp_weighted (seeds 1 and 7) 101, with
# potentials below 0.91 and within 3.3e-16 of their exact values. On the
# pools every entering cell had a negative exact reduced cost, the smallest
# in magnitude 5.1e-7, so no zero-gain cell entered.
OPTIMALITY_TOL = 1e-13
# Cells priced per block, as whole rows: ceil(BLOCK_CELLS / m) of them. A
# small block pays NumPy's fixed cost per call more often and takes more
# pivots; one as large as the matrix recomputes every reduced cost on every
# pivot. Of 1024, 2048, 3072 and 4096 cells, 2048 gave the fastest 128 x 128
# solves on a 2-vCPU VM, and 2048 x 2048 solves there in ~2 s.
BLOCK_CELLS = 2048


class SpanningTree:
    """A basis of the transportation simplex in the layout of the module docstring.

    ``parent``, ``flow``, ``kids``, ``depth`` and ``edge`` are Python lists,
    walked one node at a time by ``pivot``. ``potential`` is a NumPy view of
    the dual value of every node, held in an ``array.array`` that ``_hang``
    writes, so pricing reads the potentials with no copy. The tree is given
    by ``parent`` and ``flow`` alone, rooted at node 0; the constructor
    derives ``kids``, in node order, and ``edge``, ``depth`` and
    ``potential``, down from the root. ``pivot`` updates ``parent``,
    ``flow``, ``edge`` and ``kids``, and sets the depths and potentials of
    the moved subtree only, by the same walk from the parent down, so it
    leaves the potentials a fresh ``SpanningTree(cost, parent, flow)`` would
    derive. ``flows`` gives the basic cells as a dict ``(i, j) -> flow`` in
    node order, degenerate zeros included.
    """

    def __init__(self, cost: np.ndarray, parent: list, flow: list):
        self.cost = cost
        self.n_sources = cost.shape[0]
        self.parent = parent
        self.flow = flow
        total = len(parent)
        self.kids = [[] for _ in range(total)]
        for x in range(1, total):
            self.kids[parent[x]].append(x)
        self.edge = [0.0] + cost[self._cells()].tolist()
        self.depth = [0] * total
        self._potential = array("d", bytes(8 * total))
        self.potential = np.frombuffer(self._potential)
        self._hang(list(self.kids[0]))

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

    def _hang(self, stack: list):
        """Set depth and potential from the parent, down the subtrees of the nodes on ``stack``.

        The constructor and every pivot set potential[x] = edge[x] -
        potential[parent[x]] here, so a pivot leaves the same floats as a
        fresh tree would.
        """
        parent, kids, edge = self.parent, self.kids, self.edge
        depth, potential = self.depth, self._potential
        while stack:
            x = stack.pop()
            depth[x] = depth[parent[x]] + 1
            # one node at a time: the parent's potential is set first, by
            # this same walk
            potential[x] = edge[x] - potential[parent[x]]
            stack += kids[x]

    def pivot(self, i: int, j: int) -> float:
        """Bring cell (i, j), of negative reduced cost, into the basis; returns theta.

        One walk up from i and from n + j, by depth, finds their apex and the
        leaving cell; the moved subtree's potentials are then set from their
        new parents, so the reduced cost of (i, j) becomes zero.
        """
        n = self.n_sources
        parent, flow, kids, edge, depth = self.parent, self.flow, self.kids, self.edge, self.depth
        a, b = i, n + j
        theta_i = theta_t = math.inf
        # a cycle has at most one node per tree node: more steps mean a wrong
        # depth led a walk past the root (parent -1 indexes the last node)
        for _ in range(len(parent)):
            if a == b:
                break
            if depth[a] >= depth[b]:
                # i's side loses flow above sources: the first minimum is the
                # blocking cell nearest i
                if a < n and flow[a] < theta_i:
                    theta_i, leave_i = flow[a], a
                a = parent[a]
            else:
                # j's side loses flow above targets: the last minimum is the
                # blocking cell nearest the apex
                if b >= n and flow[b] <= theta_t:
                    theta_t, leave_t = flow[b], b
                b = parent[b]
        else:
            raise SolverError("the cycle walk passed the root: the tree's depths are wrong")

        if theta_t <= theta_i:
            # j's side wins a tie: the subtree holding j hangs from i
            theta, leave, start, new_parent = theta_t, leave_t, n + j, i
        else:
            theta, leave, start, new_parent = theta_i, leave_i, i, n + j
        if theta > 0.0:
            # a source's cell on i's path loses theta, a target's gains it;
            # the other way round on j's path (x + -theta is x - theta)
            for x, step in ((i, -theta), (n + j, theta)):
                while x != a:
                    flow[x] += step if x < n else -step
                    x = parent[x]

        # cut the cell above the leaving node; going up from start to it, each
        # node hangs from the one below it by that node's old cell
        kids[parent[leave]].remove(leave)
        below, x = start, parent[start]
        carried, carried_cost = flow[start], edge[start]
        while below != leave:
            kids[x].remove(below)
            kids[below].append(x)
            flow[x], carried = carried, flow[x]
            edge[x], carried_cost = carried_cost, edge[x]
            # parent[x] is read before x moves up
            parent[x], below, x = below, x, parent[x]
        parent[start] = new_parent
        flow[start] = theta
        edge[start] = self.cost.item(i, j)
        kids[new_parent].append(start)
        self._hang([start])
        return theta


def initial_basis(problem: TransportProblem) -> SpanningTree:
    """Strongly feasible starting tree by the cheapest-cell rule (see the module docstring).

    Each crossed-out line hangs from the line kept, so the walk ends with a
    parent list rooted at the last live row; the path from source 0 up to
    that row is turned round, which roots the tree at source 0. The walk
    decides only ``parent`` and ``flow``; ``SpanningTree`` derives the rest.

    Sources are nodes 0 and 1 and targets nodes 2 and 3 of a 2 x 2 problem:

    >>> from earthmover.transport_lp import build_problem
    >>> problem = build_problem(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.75, 0.25], [0.5, 0.5])
    >>> tree = initial_basis(problem)
    >>> tree.parent, tree.kids, tree.depth
    ([-1, 3, 0, 0], [[2, 3], [], [], [1]], [0, 2, 1, 1])
    >>> tree.flows
    {(1, 1): 0.25, (0, 0): 0.5, (0, 1): 0.25}
    """
    n, m = problem.cost.shape
    total = n + m
    # remaining mass of each line as a (mass, epsilon) pair
    left = problem.supply.tolist() + problem.demand.tolist()
    eps = [1] * n + [-1] * m
    eps[0] = 1 - total
    live = [True] * total
    rows_live, cols_live = n, m
    parent, flow = [-1] * total, [0.0] * total
    rows, cols = np.arange(n), np.arange(n, total)
    block = problem.cost.ravel()
    while rows_live and cols_live:
        # the n + m cheapest cells of the live block and every cell tied
        # with the last of them, by ascending cost, ties in row-major order;
        # a NaN there (NaN sorts last) takes the whole block
        k = min(total, block.size) - 1
        kth = np.partition(block, k)[k]
        cells = np.flatnonzero(block <= kth) if kth == kth else np.arange(block.size)
        cells = cells[np.argsort(block[cells], kind="stable")]
        at_row, at_col = np.divmod(cells, cols.size)
        for i, t in zip(rows[at_row].tolist(), cols[at_col].tolist()):
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
            # the crossed-out line gets no more cells, so it hangs from the
            # line kept by this one
            parent[out], flow[out] = kept, amount
            if not (rows_live and cols_live):
                break
        alive = np.array(live)
        rows, cols = rows[alive[rows]], cols[alive[cols]]
        block = problem.cost[np.ix_(rows, cols - n)].ravel()

    # the row never crossed out is the root; turn the path from source 0 up
    # to it round, as a pivot re-roots a moved subtree: each path node hangs
    # from the one below it by that node's old cell
    below, x, carried = 0, parent[0], flow[0]
    while x >= 0:
        flow[x], carried = carried, flow[x]
        # parent[x] is assigned before x moves up
        parent[x], below, x = below, x, parent[x]
    parent[0], flow[0] = -1, 0.0
    return SpanningTree(problem.cost, parent, flow)


def pivot_budget(n_sources: int, n_targets: int) -> int:
    """Pivot limit of ``solve``: 50 (n+m) log2(n+m) + 1000."""
    total = n_sources + n_targets
    return int(50 * total * math.log2(total) + 1000)


def solve(problem: TransportProblem, callback=None) -> TransportSolution:
    """Minimize total transport cost; returns plan, duals, and objective.

    Each entering cell comes from ``_entering``, which prices the blocks
    from the tree's potentials as the pivots change them. A pivot leaves the
    potentials a fresh ``SpanningTree(cost, parent, flow)`` would derive, so
    the solve stops as soon as a full round of blocks holds no reduced cost
    below -OPTIMALITY_TOL times 2^e.

    ``callback(iteration, objective)`` is invoked after every pivot, which
    lets tests watch the objective decrease. Raises IterationLimitError past
    ``pivot_budget``, which would indicate a cycling bug: these instances are
    always feasible and bounded.

    ``OPTIMALITY_TOL`` and the duality-gap check of ``solution_distance`` are
    relative to the cost scale: both are multiplied by 2^e, e the
    ``math.frexp`` exponent of the largest |cost| (``TransportProblem.tolerance``),
    and the duality-gap check also by the supply total. So costs and masses
    of any size are solved alike, and either scaled by a power of two takes
    the same pivots to the same answer, scaled.
    """
    cost, (n, m) = problem.cost, problem.cost.shape
    tree = initial_basis(problem)
    pivot_limit = pivot_budget(n, m)
    tol = problem.tolerance(OPTIMALITY_TOL)
    # the start's cost, added up cell by cell in node order: np.dot may pair
    # the terms differently, and from Python 3.12 builtin sum compensates
    objective = 0.0
    for f, c in zip(tree.flow[1:], tree.edge[1:]):
        objective += f * c

    iterations = 0
    for enter_i, enter_j, gain in _entering(cost, tree.potential, tol):
        iterations += 1
        if iterations > pivot_limit:
            raise IterationLimitError(f"exceeded {pivot_limit} pivots on a {n}x{m} instance")

        objective += tree.pivot(enter_i, enter_j) * gain
        if callback is not None:
            callback(iterations, objective)

    # the positive flows in row-major order
    at_i, at_j = tree._cells()
    flow = np.array(tree.flow[1:])
    kept = np.flatnonzero(flow > 0.0)
    kept = kept[np.lexsort((at_j[kept], at_i[kept]))]
    plan = TransportPlan(n, m, at_i[kept], at_j[kept], flow[kept])
    return TransportSolution(problem, plan, tree.potential.copy(), plan.cost(cost), iterations)


def _entering(cost: np.ndarray, potential: np.ndarray, tol: float):
    """Entering cells by block search: yields (i, j, gain) until a full round of blocks gives none.

    Blocks are ceil(BLOCK_CELLS / m) rows of ``cost``, the last one cut at
    row n, scanned round in order from the first. Each block computes its
    reduced costs ``cost[r0:r1] - u[r0:r1, None] - v`` from the potentials
    ``u`` of the sources and ``v`` of the targets. The slices are views,
    taken once when the scan starts, so each block reads the potentials as
    they stand when it is priced, and a pivot made between two cells is
    seen. A block whose most
    negative cell is below -tol yields that cell and its reduced cost, and
    the scan goes on at the next block.
    """
    n, m = cost.shape
    rows = -(-BLOCK_CELLS // m)
    u, v = potential[:n], potential[n:]
    blocks = [(r0, cost[r0:r0 + rows], u[r0:r0 + rows, None]) for r0 in range(0, n, rows)]
    block = idle = 0
    while idle < len(blocks):
        r0, block_cost, block_u = blocks[block]
        block = (block + 1) % len(blocks)
        idle += 1
        reduced = block_cost - block_u
        reduced -= v
        k = int(reduced.argmin())
        gain = reduced.item(k)
        if gain < -tol:
            i, j = divmod(k, m)
            idle = 0
            yield r0 + i, j, gain
