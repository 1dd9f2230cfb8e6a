"""Guillotine partitions of the unit square and exact tree fitting.

A guillotine tree recursively splits an axis-aligned rectangle with cuts
parallel to the axes; leaves carry a constant mark.  Both tree fits find the
best <=K-leaf tree under squared error, each cell's constant being the mean
of its mass clipped to [m_lo, m_hi], with one dynamic program over a 2-D grid
of atoms (weight, sum, sum of squares).  For fit_tree_empirical the grid
lines are the distinct x1 and x2 values and the atoms are the data points
(1, y, y^2): Gaussian ML with known sigma.  For fit_tree_population they are
the target's elementary intervals and the rectangles between them (area,
area*mark, area*mark^2): the L2(area) projection of the target.

A cell is a box of line-index intervals shrunk to its nonempty lines, which
is also its memo key; its totals come in O(1) from 2-D prefix sums.  A cut
between consecutive nonempty lines a < b sits at 0.5*(hi[a] + lo[b]): the
midpoint of consecutive distinct in-cell coordinates (the objective is flat
between them), or the target's own cut.

A cell's best tree takes one array pass per cut axis for each child budget
below 3.  Both children leaves: every cut at once from the cell's line
totals.  A child with budget 2 (or capped to 2 by depth): the best <=2-leaf
subtree of the low and the high child of every cut in one pass, from pairs of
line totals for splits along the same axis and from the prefix-sum rows at
the cut for splits across the other one.  Only budgets of 3 or more recurse,
once per cut, child and budget, through a memo keyed by (cell, budget,
depth); at depth 2 nothing recurses, and at depth 3 the memo holds O(cuts)
cells.  Memory is O(distinct x1 * distinct x2) for the prefix sums, plus the
memo, plus the pair pass's temporaries, which _PAIR_BLOCK bounds.

Each of the two fits keeps the DP of its last grid, keyed by the exact grid
inputs, so a profile's K = 1, 2, ... of one sample, or every K projected from
one target, reuse one grid, one prefix-sum table and one memo; between calls
one DP per kind stays alive, its O(distinct x1 * distinct x2) prefix sums and
its memo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

UNIT_BOX = (0.0, 1.0, 0.0, 1.0)  # (lo1, hi1, lo2, hi2)


@dataclass(frozen=True)
class Leaf:
    mark: float


@dataclass(frozen=True)
class Split:
    axis: int  # 1 or 2
    cut: float
    low: "Node"
    high: "Node"

    def __post_init__(self):
        if self.axis not in (1, 2):
            raise ValueError(f"split axis must be 1 or 2, got {self.axis}")
        if not 0.0 < self.cut < 1.0:
            raise ValueError(f"cut must lie in (0, 1), got {self.cut}")


Node = Union[Leaf, Split]


def tree_depth(node: Node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.low), tree_depth(node.high))


def leaf_count(node: Node) -> int:
    if isinstance(node, Leaf):
        return 1
    return leaf_count(node.low) + leaf_count(node.high)


def _halves(box, axis: int, cut: float):
    """The low and high box of `box` split at `cut` across `axis`."""
    lo, hi = box[2 * axis - 2:2 * axis]
    if not lo < cut < hi:
        raise ValueError(f"cut {cut} outside cell extent [{lo}, {hi}] on axis {axis}")
    low, high = list(box), list(box)
    low[2 * axis - 1] = high[2 * axis - 2] = cut
    return tuple(low), tuple(high)


def iter_cells(node: Node, box=UNIT_BOX):
    """Yield (lo1, hi1, lo2, hi2, mark) for every leaf cell of the tree."""
    if isinstance(node, Leaf):
        yield (*box, node.mark)
        return
    low, high = _halves(box, node.axis, node.cut)
    yield from iter_cells(node.low, low)
    yield from iter_cells(node.high, high)


def validate_tree(node: Node, box=UNIT_BOX) -> None:
    """Check that every cut lies strictly inside its cell (raises ValueError)."""
    for _ in iter_cells(node, box):
        pass


def eval_tree(node: Node, x: np.ndarray) -> np.ndarray:
    """Evaluate the marked partition at points x of shape (n, 2).

    Points exactly on a cut go to the high cell; the boundary is a null set
    under the uniform design.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return eval_tree(node, x[None, :])[0]
    out = np.empty(x.shape[0])
    _eval_into(node, x, np.arange(x.shape[0]), out)
    return out


def _eval_into(node, x, idx, out):
    if isinstance(node, Leaf):
        out[idx] = node.mark
        return
    coord = x[idx, node.axis - 1]
    low = coord < node.cut
    _eval_into(node.low, x, idx[low], out)
    _eval_into(node.high, x, idx[~low], out)


def split_first_shallow_leaf(node: Node, depth_cap: int, box=UNIT_BOX) -> Node:
    """Return a tree with one leaf split in two equal-mark halves.

    Splits the first (preorder) leaf whose depth allows another cut; the new
    cut bisects the cell's wider side.  Raises ValueError when every leaf
    already sits at the depth cap.
    """
    replaced = _split_first(node, depth_cap, box)
    if replaced is None:
        raise ValueError("no leaf below the depth cap; cannot embed by splitting")
    return replaced


def _split_first(node, depth_left, box):
    if isinstance(node, Leaf):
        if depth_left <= 0:
            return None
        axis = 1 if box[1] - box[0] >= box[3] - box[2] else 2
        lo, hi = box[2 * axis - 2:2 * axis]
        return Split(axis, 0.5 * (lo + hi), Leaf(node.mark), Leaf(node.mark))
    low_box, high_box = _halves(box, node.axis, node.cut)
    low = _split_first(node.low, depth_left - 1, low_box)
    if low is not None:
        return Split(node.axis, node.cut, low, node.high)
    high = _split_first(node.high, depth_left - 1, high_box)
    if high is None:
        return None
    return Split(node.axis, node.cut, node.low, high)


def overlay_sq_integral(tree_a: Node, tree_b: Node) -> float:
    """Integral over the unit square of (f_a - f_b)^2, by rectangle overlay."""
    cells_a = list(iter_cells(tree_a))
    cells_b = list(iter_cells(tree_b))
    total = 0.0
    for a1, b1, a2, b2, ma in cells_a:
        for c1, d1, c2, d2, mb in cells_b:
            w = min(b1, d1) - max(a1, c1)
            h = min(b2, d2) - max(a2, c2)
            if w > 0.0 and h > 0.0:
                total += w * h * (ma - mb) ** 2
    return total


def random_tree(rng: np.random.Generator, k_leaves: int, depth_cap: int,
                m_lo: float, m_hi: float) -> Node:
    """Draw a random tree with exactly min(k_leaves, 2**depth_cap) leaves."""
    k_leaves = min(k_leaves, 2 ** depth_cap)

    def grow(box, depth, leaves):
        if leaves == 1 or depth == 0:
            return Leaf(float(rng.uniform(m_lo, m_hi)))
        axis = int(rng.integers(1, 3))
        lo, hi = box[2 * axis - 2:2 * axis]
        cut = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
        low_box, high_box = _halves(box, axis, cut)
        # children must be able to host their leaf budgets within depth - 1
        cap = 2 ** (depth - 1)
        k_lo = int(rng.integers(max(1, leaves - cap), min(cap, leaves - 1) + 1))
        return Split(axis, cut, grow(low_box, depth - 1, k_lo),
                     grow(high_box, depth - 1, leaves - k_lo))

    return grow(UNIT_BOX, depth_cap, k_leaves)


# ---------------------------------------------------------------------------
# Tree fitting: one DP over a weighted grid
# ---------------------------------------------------------------------------

# (child, line) entries priced per block by the two-leaf child pass, which
# bounds its temporaries at a few MB however many lines the grid has
_PAIR_BLOCK = 1 << 16


def _grid_dp(edges, atoms: np.ndarray, depth_cap: int, m_lo: float, m_hi: float,
             tol: float):
    """A function k -> (best <=k-leaf tree of depth <=depth_cap, its clipped SSE).

    edges = ((lo1, hi1), (lo2, hi2)) are the extents of the grid lines per
    axis; atoms[:, i, j] = (weight, sum, sum of squares) of grid point (i, j),
    and every line carries positive weight.  A candidate replaces the
    incumbent only when its SSE is lower by more than tol.  Calls share one
    memo, so asking for K = 1, 2, ... in turn costs little more than the last.
    """
    pre = np.zeros((3, atoms.shape[1] + 1, atoms.shape[2] + 1))
    pre[:, 1:, 1:] = atoms.cumsum(axis=1).cumsum(axis=2)
    views = (pre, pre.transpose(0, 2, 1))  # lines of the cut axis first
    memo: dict[tuple, tuple[float, Node]] = {}

    def gain(w, s):
        """The sum of squares of a cell less its clipped SSE, and its mark."""
        m = np.minimum(np.maximum(s / w, m_lo), m_hi)
        return m * (2.0 * s - m * w), m

    def leaf(tot):
        g, m = gain(*tot[:2])
        return np.maximum(tot[2] - g, 0.0), m

    @functools.lru_cache(maxsize=2)  # both axes of the last cell: its budgets share them
    def scan(box, axis):
        """Every cut across `axis`: its position; the totals and the clipped
        SSE and mark of its low child, of its high child and (last) of the
        whole box; and the nonempty lines."""
        p = views[axis - 1]
        a0, a1, b0, b1 = box if axis == 1 else box[2:] + box[:2]
        cum = p[:, a0:a1 + 1, b1] - p[:, a0:a1 + 1, b0]
        cum = cum[:, 1:] - cum[:, :1]  # totals of lines a0..a
        # the nonempty lines; the first line of a shrunk box always is one
        lines = a0 + np.flatnonzero(np.concatenate(([True], cum[0, 1:] > cum[0, :-1])))
        low = cum[:, lines[:-1] - a0]
        tots = np.concatenate([low, cum[:, -1:] - low, cum[:, -1:]], axis=1)
        sse, mark = leaf(tots)
        lo, hi = edges[axis - 1]
        return 0.5 * (hi[lines[:-1]] + lo[lines[1:]]), tots, sse, mark, lines

    def kids(box, axis, lines):
        """Shrunk boxes of the low and high child of every cut across `axis`."""
        p = views[axis - 1][0]
        a0, a1, b0, b1 = box if axis == 1 else box[2:] + box[:2]
        out = []
        for t0, t1 in ((a0, lines[:-1] + 1), (lines[1:], a1)):
            wt = ((p[t1, b0 + 1:b1 + 1] - p[t1, b0:b0 + 1])
                  - (p[t0, b0 + 1:b1 + 1] - p[t0, b0:b0 + 1]))  # weight of lines b0..b
            first = b0 + (wt <= 0.0).sum(axis=1)
            last = b0 + 1 + (wt < wt[:, -1:]).sum(axis=1)
            cols = np.broadcast_arrays(t0, t1, first, last)
            cols = cols if axis == 1 else cols[2:] + cols[:2]
            out.append(list(zip(*(c.tolist() for c in cols))))
        return out

    @functools.lru_cache(maxsize=2)
    def pairs(box, axis):
        """The best <=2-leaf subtree of the low and of the high child of every
        cut across `axis`, as (2, cuts) arrays: SSE, split axis (0: a leaf),
        cut position, and the marks of its low and high leaf.

        A split across `axis` parts a child at another cut of the box, so its
        parts are differences of the low children's totals.  A split across
        the other axis takes the child's totals up to each line of `across`
        (the box's nonempty lines on that axis) from the prefix-sum rows at the
        cut; a boundary counts only after a line nonempty in the child and
        before its last one, so each split is priced once.  Both are ranked by
        the gain of gain(); ties go to the first cut."""
        cuts, tots, sse, mark, lines = scan(box, axis)
        m, o = cuts.size, 3 - axis
        across = scan(box, o)[4]
        p = views[axis - 1]
        a0, a1, b0, _ = box if axis == 1 else box[2:] + box[:2]
        lo_o, hi_o = edges[o - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            g_cut = gain(*tots[:2, :2 * m])[0]
        out = []
        step = max(1, _PAIR_BLOCK // max(m, across.size))
        for j0 in range(0, m, step):
            j = np.arange(j0, min(j0 + step, m))
            rows = np.arange(j.size)
            flat = np.arange(2 * j.size)
            pick = lambda a, i: a.reshape(flat.size, -1)[flat, i.ravel()].reshape(i.shape)
            with np.errstate(divide="ignore", invalid="ignore"):
                # across `axis`: the low child j splits at i < j, the high one at i > j
                below, above = np.arange(m) < j[:, None], np.arange(m) > j[:, None]
                diff = tots[:2, j, None] - tots[:2, None, :m]
                g_mid, m_mid = gain(*np.where(below, diff, -diff))
                g = g_mid + np.where(below, g_cut[:m], g_cut[m:])
                g_lo, g_hi = np.where(below, g, -np.inf), np.where(above, g, -np.inf)
                i_lo, i_hi = g_lo.argmax(axis=1), g_hi.argmax(axis=1)
                cand = {axis: (np.stack([g_lo[rows, i_lo], g_hi[rows, i_hi]]),
                               np.stack([cuts[i_lo], cuts[i_hi]]),
                               np.stack([mark[i_lo], m_mid[rows, i_hi]]),
                               np.stack([m_mid[rows, i_lo], mark[m + i_hi]]))}
                # across the other axis, from the prefix-sum rows at the cuts
                r = p[:2].take(np.concatenate([lines[j] + 1, lines[j + 1], [a0, a1]]), axis=1)
                r = r[..., across + 1] - r[..., b0, None]
                part = np.stack([r[:, :j.size] - r[:, -2:-1], r[:, -1:] - r[:, j.size:-2]],
                                axis=1)
                tot = part[..., -1:]
                (g_lo, mk_lo), (g_hi, mk_hi) = gain(*part), gain(*(tot - part))
                full = np.diff(part[0], axis=-1, prepend=0.0) > 0.0
                g = np.where(full & (part[0] < tot[0]), g_lo + g_hi, -np.inf)
                c = g.argmax(axis=-1)
                nxt = (full & (np.arange(across.size) > c[..., None])).argmax(axis=-1)
                cand[o] = (pick(g, c), 0.5 * (hi_o[across[c]] + lo_o[across[nxt]]),
                           pick(mk_lo, c), pick(mk_hi, c))
            # the child's own candidate order: a leaf, a split across axis 1, then axis 2
            q, val = tots[2, :2 * m].reshape(2, m)[:, j], sse[:2 * m].reshape(2, m)[:, j]
            (g1, *at1), (g2, *at2) = cand[1], cand[2]
            v1 = np.maximum(q - g1, 0.0)
            win1 = v1 < val - tol
            val = np.where(win1, v1, val)
            v2 = np.maximum(q - g2, 0.0)
            win2 = v2 < val - tol
            out.append((np.where(win2, v2, val), np.where(win2, 2, win1.astype(int)),
                        *(np.where(win2, b, a) for a, b in zip(at1, at2))))
        return [np.concatenate(arrays, axis=1) for arrays in zip(*out)]

    def best(box, k, depth):
        # depth d holds at most 2**d leaves, and k leaves need depth k - 1 at most
        k = min(k, 2 ** depth)
        depth = min(depth, k - 1)
        key = (box, k, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        scans = [scan(box, axis) for axis in (1, 2)]
        val, node = float(scans[0][2][-1]), Leaf(float(scans[0][3][-1]))
        scans = [(axis, *sc) for axis, sc in zip((1, 2), scans) if k > 1 and sc[0].size]
        for axis, cuts, _, sse, mark, _ in scans:
            m = cuts.size  # both children leaves: every cut position at once
            costs = sse[:m] + sse[m:2 * m]
            j = int(np.argmin(costs))
            if costs[j] < val - tol:
                val = float(costs[j])
                node = Split(axis, float(cuts[j]), Leaf(float(mark[j])), Leaf(float(mark[m + j])))
        cap = 2 ** (depth - 1)  # the largest useful child budget
        budgets = [(min(k_lo, cap), min(k - k_lo, cap)) for k_lo in range(1, k)]
        deep = sorted({b for pair in budgets for b in pair if b > 2})
        for axis, cuts, _, sse, mark, lines in scans if k > 2 else ():
            m = cuts.size
            two = pairs(box, axis)
            vals = {1: sse[:2 * m].reshape(2, m), 2: two[0]}
            if deep:  # budgets >= 3 recurse through the memo, each child's in a row
                children = kids(box, axis, lines)
                got = np.array([[[best(c, b, depth - 1)[0] for b in deep] for c in side]
                                for side in children])
                vals.update((b, got[..., i]) for i, b in enumerate(deep))
            costs = np.stack([vals[b_lo][0] + vals[b_hi][1] for b_lo, b_hi in budgets],
                             axis=1).ravel()
            # in order of cut, then low budget, the last candidate to beat the
            # incumbent by more than tol
            at, start = -1, 0
            while (later := np.flatnonzero(costs[start:] < val - tol)).size:
                at = start + int(later[0])
                val, start = float(costs[at]), at + 1
            if at >= 0:
                j, b = divmod(at, len(budgets))
                sub = []
                for side, budget in enumerate(budgets[b]):
                    if budget == 1:
                        sub.append(Leaf(float(mark[side * m + j])))
                    elif budget == 2:
                        _, split, pos, m_low, m_high = (a[side, j].item() for a in two)
                        sub.append(Split(split, pos, Leaf(m_low), Leaf(m_high)) if split
                                   else Leaf(float(mark[side * m + j])))
                    else:
                        sub.append(best(children[side][j], budget, depth - 1)[1])
                node = Split(axis, float(cuts[j]), *sub)
        memo[key] = (val, node)
        return val, node

    root = (0, atoms.shape[1], 0, atoms.shape[2])
    return lambda k_leaves: best(root, k_leaves, depth_cap)[::-1]


_KEPT: dict[str, tuple] = {}  # per kind of fit, (key, DP) of the last grid asked about


def _kept_dp(kind: str, key, build):
    """The kept DP of this kind if its key is `key`, else build() kept in its place.

    A DP's answers are pure functions of its grid inputs, so whichever K were
    asked before, a kept DP answers as a fresh one would.  The key holds
    those inputs exactly, as array bytes and float reprs (which tell -0.0
    from 0.0), so any change to them builds a new DP.
    """
    kept = _KEPT.get(kind)
    if kept is None or kept[0] != key:
        _KEPT.pop(kind, None)  # the old DP goes before the new one is built
        kept = _KEPT[kind] = (key, build())
    return kept[1]


def fit_tree_empirical(x: np.ndarray, y: np.ndarray, k_leaves: int, depth_cap: int,
                       sigma: float, m_lo: float, m_hi: float) -> tuple[Node, float]:
    """Best <=k_leaves guillotine tree for data (x, y); returns (tree, loglik).

    Ties within 1e-12 of log-likelihood go to the first candidate.  Without
    data the tree is one leaf at the mark nearest 0.  Calls on the same data,
    cap, box and sigma share one DP.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n == 0:
        return Leaf(min(max(0.0, m_lo), m_hi)), 0.0
    tol = 1e-12 * 2.0 * sigma ** 2  # 1e-12 of log-likelihood
    key = (x.shape, y.shape, x.tobytes(), y.tobytes(), repr((depth_cap, m_lo, m_hi, tol)))
    dp = _kept_dp("empirical", key,
                  lambda: _grid_dp(*_data_grid(x, y), depth_cap, m_lo, m_hi, tol))
    tree, sse = dp(k_leaves)
    return tree, n * (-0.5 * LOG_2PI - math.log(sigma)) - sse / (2.0 * sigma ** 2)


def _data_grid(x: np.ndarray, y: np.ndarray):
    """Grid lines at the distinct x1 and x2 values, one atom (1, y, y^2) per point."""
    u1, row = np.unique(x[:, 0], return_inverse=True)
    u2, col = np.unique(x[:, 1], return_inverse=True)
    atoms = np.stack([np.bincount(row * u2.size + col, v, u1.size * u2.size)
                      for v in (np.ones(y.shape[0]), y, y * y)]).reshape(3, u1.size, u2.size)
    return ((u1, u1), (u2, u2)), atoms


def fit_tree_population(target: Node, k_leaves: int, depth_cap: int,
                        m_lo: float, m_hi: float) -> tuple[Node, float]:
    """Best <=k_leaves tree approximating a target tree in L2(area).

    Returns (tree, integral of (f_target - f_tree)^2); candidate cuts are the
    target's own cuts.  Ties within 1e-15 of SSE go to the first candidate.
    """
    return _population_dp(target, depth_cap, m_lo, m_hi)(k_leaves)


def _population_dp(target: Node, depth_cap: int, m_lo: float, m_hi: float):
    return _kept_dp("population", repr((target, depth_cap, m_lo, m_hi)),
                    lambda: _grid_dp(*_target_grid(target), depth_cap, m_lo, m_hi, tol=1e-15))


def _target_grid(target: Node):
    """Grid lines at the target's elementary intervals, one atom (area,
    area*mark, area*mark^2) per rectangle between them."""
    cells = np.array(list(iter_cells(target)))
    e1, e2 = np.unique(cells[:, :2]), np.unique(cells[:, 2:4])
    mid1, mid2 = np.meshgrid(0.5 * (e1[:-1] + e1[1:]), 0.5 * (e2[:-1] + e2[1:]), indexing="ij")
    f = eval_tree(target, np.column_stack([mid1.ravel(), mid2.ravel()])).reshape(mid1.shape)
    area = np.outer(np.diff(e1), np.diff(e2))
    return ((e1[:-1], e1[1:]), (e2[:-1], e2[1:])), np.stack([area, area * f, area * f * f])


def minimal_leaf_count(target: Node, depth_cap: int, m_lo: float, m_hi: float,
                       tol: float = 1e-12) -> int:
    """Smallest leaf budget whose population DP reproduces the target exactly."""
    fit = _population_dp(target, depth_cap, m_lo, m_hi)
    for k in range(1, leaf_count(target) + 1):
        _, sse = fit(k)
        if sse <= tol:
            return k
    return leaf_count(target)
