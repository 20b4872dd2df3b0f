"""Weak learner dictionary: decision stumps, small least-squares CART trees,
and piecewise-constant interval atoms for explicit finite dictionaries.

Stumps and trees are fitted by one split search over a ``SplitIndex``: each
feature of the fixed design matrix is sorted once, and every candidate
split of every feature of a node is scored from one 2-D prefix sum of the
residuals over that node's presorted slice. A split cuts its node's slice
into the slices of its two children, so no node search sorts again or
reads rows outside its node. Fitting minimizes the squared error
against pseudo-residuals, which is the practical surrogate for selecting
the dictionary element with the largest normalized negative-gradient inner
product (for two-leaf partitions the two selections coincide; see tests).

A node search returns its best split's SSE reduction, taken from the prefix
sums it already holds. A tree splits a node only when that reduction is
above ``_MIN_GAIN_REL`` of the node's SSE. One bound per fit,
2 * _MIN_GAIN_REL * (r @ r), lies above that threshold at every node, so a
reduction above the bound is accepted without reading the node's rows; the
rest get the exact SSE check. The bound therefore never changes a decision.

A tree is evaluated by leaf id: each split computes, over all rows and in
integer arithmetic, the id of the leaf each row reaches from its
children's ids, and one gather of the node values gives the outputs. It
takes no row subsets and does no float arithmetic, and it beat a float
select per split and a walk that cuts the rows node by node at every J
from 4 to 64 on 500 to 100,000 rows (see ``RegressionTree.evaluate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from reboost.core import InvalidInputError

# a tree split must reduce the leaf SSE by more than this relative amount;
# a stump splits whenever any feature has two distinct values
_MIN_GAIN_REL = 1e-12


def _design(features, feature: int, kind: str) -> np.ndarray:
    """``features`` as a 2-D float array, which must have column ``feature``."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if feature >= X.shape[1]:
        raise InvalidInputError(f"{kind} uses feature {feature}, input has {X.shape[1]}")
    return X


@dataclass(frozen=True)
class DecisionStump:
    """Two-leaf axis-aligned rule: left value if x[feature] <= threshold."""

    feature: int
    threshold: float
    left_value: float
    right_value: float

    def __post_init__(self):
        if self.feature < 0:  # a negative index would read a column from the end
            raise InvalidInputError(f"stump feature must be >= 0, got {self.feature}")

    def evaluate(self, features) -> np.ndarray:
        X = _design(features, self.feature, "stump")
        return np.where(X[:, self.feature] <= self.threshold,
                        self.left_value, self.right_value)

    def describe(self) -> str:
        return f"stump[f{self.feature}@{self.threshold:.6g}]"


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature >= 0) or leaf (feature == -1, carries value)."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class RegressionTree:
    """Binary regression tree; ``splits``, its count of internal nodes, is
    derived from ``nodes`` (a tree built by ``fit_tree`` has splits + 1 leaves)."""

    nodes: tuple[TreeNode, ...]
    splits: int = field(init=False)
    _max_feature: int = field(init=False, repr=False, compare=False, default=-1)

    def __post_init__(self):
        size = len(self.nodes)  # children follow their parent, so every walk ends
        if not size:
            raise InvalidInputError("tree has no nodes")
        parents = [1] + [0] * (size - 1)  # the root counts as having its one parent
        for i, n in enumerate(self.nodes):
            if n.feature < -1 or not (n.is_leaf or i < n.left < size and i < n.right < size):
                raise InvalidInputError(f"tree node {i} is neither a leaf (feature -1) nor a "
                                        "split on a feature >= 0 whose children follow it")
            if parents[i] != 1:  # every parent of node i precedes it, so all are counted
                raise InvalidInputError(f"tree node {i} has {parents[i]} parents; every "
                                        "node but the root is the child of exactly one split")
            if not n.is_leaf:
                parents[n.left] += 1
                parents[n.right] += 1
        object.__setattr__(self, "splits", sum(not n.is_leaf for n in self.nodes))
        object.__setattr__(self, "_max_feature", max(n.feature for n in self.nodes))

    def evaluate(self, features) -> np.ndarray:
        """The tree's output on every row of ``features``.

        Nodes are visited in reverse index order, so both children of a
        split come before it. A leaf's id is its node index; a split's ids,
        those of the leaf each row reaches, are
        right + (X[:, f] <= t) * (left - right) over all rows, in int16
        (intp above 32,767 nodes). Every ufunc is given its dtype, so no
        value-based cast narrows the ids and wraps them. One ``take`` of the
        node values then gives the outputs, so each output is its leaf's
        value bit for bit. Each node has one parent, so a child's ids are
        dropped as soon as its parent has used them.

        Per tree (best of repeated calls on 20 fitted trees, 10 features,
        column-major X, 2-vCPU x86-64, numpy 2.4), against a float
        ``np.where`` per split and a row walk: J = 4 took 16 µs against 19
        and 36 µs at 500 rows, and 0.45 ms against 1.63 and 3.47 ms at
        100,000; J = 64 took 0.36 ms against 1.08 and 0.70 ms at 5,000 rows,
        and 4.2 ms against 19.2 and 9.2 ms at 100,000.
        """
        X = _design(features, self._max_feature, "tree")
        nodes = self.nodes
        if nodes[0].is_leaf:
            return np.full(X.shape[0], nodes[0].value)
        dtype = np.int16 if len(nodes) <= 32_767 else np.intp
        ids = {}  # node id -> leaf ids of a node whose parent is still to come
        for i in range(len(nodes) - 1, -1, -1):
            n = nodes[i]
            if n.is_leaf:
                ids[i] = i
                continue
            left, right = ids.pop(n.left), ids.pop(n.right)
            go_left = X[:, n.feature] <= n.threshold
            if type(left) is type(right) is int and left - right == -1:
                # sibling leaves as fit_tree numbers them: right + go_left * -1
                ids[i] = np.subtract(right, go_left, dtype=dtype)
            else:
                leaf = np.multiply(go_left, np.subtract(left, right, dtype=dtype), dtype=dtype)
                ids[i] = np.add(leaf, right, out=leaf, dtype=dtype)
        return np.array([n.value for n in nodes], dtype=float).take(ids[0])

    def describe(self) -> str:
        """``tree[J<splits>:f<feature>@<threshold>,...]``, the splits in node
        order; ``tree[J0]`` for a single leaf."""
        splits = ",".join(f"f{n.feature}@{n.threshold:.6g}"
                          for n in self.nodes if not n.is_leaf)
        return f"tree[J{self.splits}:{splits}]" if splits else "tree[J0]"


@dataclass(frozen=True)
class IntervalAtom:
    """Indicator of [low, high) on one feature, scaled by ``value``."""

    low: float
    high: float
    value: float
    feature: int = 0

    def __post_init__(self):
        if self.feature < 0:
            raise InvalidInputError(f"atom feature must be >= 0, got {self.feature}")

    def evaluate(self, features) -> np.ndarray:
        col = _design(features, self.feature, "atom")[:, self.feature]
        return np.where((col >= self.low) & (col < self.high), self.value, 0.0)

    def describe(self) -> str:
        return f"atom[{self.low:.6g},{self.high:.6g})"


class NodeSlice(NamedTuple):
    """The rows of one tree node with every feature presorted over them.

    ``rows`` holds the node's row indices in ascending order; row f of
    ``order`` lists them sorted by feature f (stably), ``values`` holds the
    sorted feature values and ``boundary`` marks where adjacent sorted
    values differ, i.e. the candidate split positions.
    """

    rows: np.ndarray  # (n,)
    order: np.ndarray  # (d, n)
    values: np.ndarray  # (d, n)
    boundary: np.ndarray  # (d, n - 1)


class SplitIndex:
    """Presorted columns of one fixed design matrix for split search.

    Boosting refits a learner to fresh residuals every iteration while the
    design matrix never changes, so each feature is sorted once (stably) up
    front; that sort is the ``root`` slice. When a tree node splits, one
    stable compress of its slice yields the presorted slices of both
    children (SLIQ's partitioned attribute lists), so a node search costs
    O(d * node rows). Filtering a stable sort keeps the tie order of a
    fresh stable sort of the child's rows, so the search picks the same
    split as one that re-sorts at every node.
    """

    def __init__(self, features):
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if X.shape[0] < 2:
            raise InvalidInputError("need at least 2 rows")
        self.columns = np.ascontiguousarray(X.T)  # row f: feature f of every row
        order = np.argsort(self.columns, axis=1, kind="stable")
        values = np.take_along_axis(self.columns, order, axis=1)
        self.root = NodeSlice(np.arange(X.shape[0]), order, values,
                              values[:, :-1] != values[:, 1:])
        # left counts 1..n-1 and right counts n-1..1 of the split positions;
        # a node of m rows uses the first and the last m - 1 of them
        self._left_counts = np.arange(1.0, X.shape[0])  # float: no cast per element
        self._right_counts = self._left_counts[::-1].copy()

    @property
    def n_rows(self) -> int:
        return self.columns.shape[1]

    def partition(self, node: NodeSlice, feature: int,
                  threshold: float) -> tuple[NodeSlice, NodeSlice]:
        """The slices of the rows of ``node`` with x[feature] <= threshold
        (left) and of the rest (right)."""
        rows, order, values, _ = node
        column = self.columns[feature]
        go_left = column[rows] <= threshold
        keep = (column[order] <= threshold).ravel()  # side of each sorted entry
        return (_child_slice(keep, rows[go_left], order, values),
                _child_slice(~keep, rows[~go_left], order, values))

    def best_split(self, r: np.ndarray, node: NodeSlice):
        """Best least-squares split of the rows of ``node`` against
        residuals ``r``, over every feature/midpoint pair.

        Returns (reduction, feature, threshold, left_mean, right_mean), where
        reduction = S_L^2/n_L + S_R^2/n_R - S^2/n is the drop of the node's
        SSE that the split makes: the maximized score less the part every
        split of the node shares. Returns None when no feature has two
        distinct values among the rows. Ties are broken toward the lowest
        feature index, then the lowest threshold.
        """
        rows, order, values, boundary = node
        if not boundary.any():
            return None
        total = r[rows].sum()
        m = order.shape[1]
        left_sums = np.cumsum(r[order], axis=1)[:, :-1]
        # in place: at large m the (d, m) temporaries cost more than the sums
        score = np.multiply(left_sums, left_sums)
        score /= self._left_counts[:m - 1]
        right = np.subtract(total, left_sums)
        right *= right
        right /= self._right_counts[self.n_rows - m:]
        score += right
        score[~boundary] = -np.inf
        j, p = divmod(int(np.argmax(score)), m - 1)
        lo, hi = values[j, p], values[j, p + 1]
        thr = 0.5 * (lo + hi)
        if not (lo <= thr < hi):  # midpoint rounded onto a datum
            thr = lo
        n_left = p + 1
        return (float(score[j, p] - total ** 2 / m), j, float(thr),
                float(left_sums[j, p] / n_left),
                float((total - left_sums[j, p]) / (m - n_left)))


def _child_slice(side: np.ndarray, rows: np.ndarray, order: np.ndarray,
                 values: np.ndarray) -> NodeSlice:
    """The slice of ``rows`` cut from a parent's (d, n) ``order``/``values``
    by the flat flags ``side``: each feature row keeps rows.size entries,
    in their sorted order, so the flat compress reshapes to (d, rows.size).
    """
    shape = (order.shape[0], rows.size)
    order = np.compress(side, order).reshape(shape)
    values = np.compress(side, values).reshape(shape)
    return NodeSlice(rows, order, values, values[:, :-1] != values[:, 1:])


def _one_residual_per_row(index: SplitIndex, residuals) -> np.ndarray:
    r = np.asarray(residuals, dtype=float).ravel()
    if r.shape[0] != index.n_rows:
        raise InvalidInputError(
            f"{r.shape[0]} residuals for {index.n_rows} rows"
        )
    return r


def fit_stump(index: SplitIndex, residuals) -> DecisionStump:
    """Least-squares optimal stump over all (feature, midpoint) candidates.

    With no valid split (all rows identical) both leaves carry the mean.
    """
    r = _one_residual_per_row(index, residuals)
    found = index.best_split(r, index.root)
    if found is None:
        mu = float(r.mean())
        return DecisionStump(0, float(index.columns[0, 0]), mu, mu)
    _, j, thr, _, _ = found
    left = index.columns[j] <= thr
    # leaf means recomputed from the partition masks (not the prefix sums)
    # so they match a direct exhaustive scan bit for bit
    return DecisionStump(j, thr, _mean(r[left]), _mean(r[~left]))


def _mean(values: np.ndarray) -> float:
    """``values.mean()`` by its own arithmetic (a pairwise sum, then one
    division by the count) without its wrapper's checks."""
    return float(np.add.reduce(values) / values.size)


def _leaf_split(index: SplitIndex, r: np.ndarray, node: NodeSlice, bound: float):
    """(SSE reduction, best split, node) of one leaf, or (0.0, None, node)
    when no split reduces its SSE by more than ``_MIN_GAIN_REL`` of it.

    ``bound`` is ``2 * _MIN_GAIN_REL * (r @ r)`` over all rows. A leaf's SSE
    is at most the sum of its squared residuals, so at most r @ r; the
    factor 2 absorbs the rounding of both sums, and rounding a product is
    monotone. So a reduction above ``bound`` is above ``_MIN_GAIN_REL`` of
    the computed SSE too, and is accepted without reading the leaf's rows.
    Any other reduction gets the exact check, so no decision changes. When
    r @ r overflows the bound is inf and every leaf gets the exact check.
    """
    found = index.best_split(r, node)  # None for a one-row leaf too
    if found is not None:
        reduction = found[0]
        if reduction > bound:
            return reduction, found, node
        sub_r = r[node.rows]
        sse = float(np.sum((sub_r - sub_r.mean()) ** 2))
        if reduction > _MIN_GAIN_REL * sse:
            return reduction, found, node
    return 0.0, None, node


def fit_tree(index: SplitIndex, residuals, splits: int) -> RegressionTree:
    """Greedy best-first CART with ``splits`` internal nodes.

    Each round splits the leaf whose best split yields the largest squared
    error reduction; stops early when no leaf offers a positive reduction.
    Leaves carry residual means. A tree with ``splits`` splits makes at most
    2 * splits - 1 node searches: the children of the last split are never
    searched.
    """
    if splits < 1:
        raise InvalidInputError(f"splits must be >= 1, got {splits}")
    r = _one_residual_per_row(index, residuals)
    if index.n_rows < splits + 1:
        raise InvalidInputError(f"need at least {splits + 1} rows for {splits} splits")

    bound = 2 * _MIN_GAIN_REL * float(r @ r)  # accepts a split unchecked; see _leaf_split
    nodes: list[TreeNode] = [TreeNode(value=float(r.mean()))]
    leaves = {0: _leaf_split(index, r, index.root, bound)}  # leaf id -> _leaf_split of it
    while True:
        # max keeps the first largest entry, so the earliest-created leaf wins ties
        target = max(leaves, key=lambda leaf: leaves[leaf][0])
        _, found, node = leaves.pop(target)
        if found is None:
            break
        _, j, thr, left_mean, right_mean = found
        left_id = len(nodes)
        nodes[target] = TreeNode(feature=j, threshold=thr, left=left_id, right=left_id + 1)
        nodes += (TreeNode(value=left_mean), TreeNode(value=right_mean))
        if len(nodes) == 2 * splits + 1:  # the last split: its children go unsearched
            break
        for child_id, child in enumerate(index.partition(node, j, thr), start=left_id):
            leaves[child_id] = _leaf_split(index, r, child, bound)

    return RegressionTree(tuple(nodes))
