"""Weak learner dictionary: decision stumps, small least-squares CART trees,
and piecewise-constant interval atoms for explicit finite dictionaries.

Stumps and trees are fitted by one split search over a ``SplitIndex``: each
feature of the fixed design matrix is sorted once, and every candidate
split of every feature is scored from one 2-D prefix sum of the residuals.
Fitting minimizes the squared error against pseudo-residuals, which is the
practical surrogate for selecting the dictionary element with the largest
normalized negative-gradient inner product (for two-leaf partitions the two
selections coincide; see tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reboost.core import InvalidInputError

# a tree split must reduce the leaf SSE by more than this relative amount;
# a stump splits whenever any feature has two distinct values
_MIN_GAIN_REL = 1e-12


@dataclass(frozen=True)
class DecisionStump:
    """Two-leaf axis-aligned rule: left value if x[feature] <= threshold."""

    feature: int
    threshold: float
    left_value: float
    right_value: float

    def evaluate(self, features) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if self.feature >= X.shape[1]:
            raise InvalidInputError(
                f"stump uses feature {self.feature}, input has {X.shape[1]}"
            )
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
    """Binary regression tree with ``splits`` internal nodes, splits+1 leaves."""

    nodes: tuple[TreeNode, ...]
    splits: int
    _max_feature: int = field(init=False, repr=False, compare=False, default=-1)

    def __post_init__(self):
        internal = [n for n in self.nodes if not n.is_leaf]
        object.__setattr__(
            self, "_max_feature",
            max((n.feature for n in internal), default=-1),
        )
        for n in internal:
            if not (0 <= n.left < len(self.nodes) and 0 <= n.right < len(self.nodes)):
                raise InvalidInputError("tree child index out of range")

    def evaluate(self, features) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if self._max_feature >= X.shape[1]:
            raise InvalidInputError(
                f"tree uses feature {self._max_feature}, input has {X.shape[1]}"
            )
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node_id, rows = stack.pop()
            node = self.nodes[node_id]
            if node.is_leaf:
                out[rows] = node.value
            elif rows.size:
                go_left = X[rows, node.feature] <= node.threshold
                stack.append((node.left, rows[go_left]))
                stack.append((node.right, rows[~go_left]))
        return out

    def describe(self) -> str:
        return f"tree[J{self.splits}]"


@dataclass(frozen=True)
class IntervalAtom:
    """Indicator of [low, high) on one feature, scaled by ``value``."""

    low: float
    high: float
    value: float
    feature: int = 0

    def evaluate(self, features) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if self.feature >= X.shape[1]:
            raise InvalidInputError(
                f"atom uses feature {self.feature}, input has {X.shape[1]}"
            )
        col = X[:, self.feature]
        return np.where((col >= self.low) & (col < self.high), self.value, 0.0)

    def describe(self) -> str:
        return f"atom[{self.low:.6g},{self.high:.6g})"


class SplitIndex:
    """Presorted columns of one fixed design matrix for split search.

    Boosting refits a learner to fresh residuals every iteration while the
    design matrix never changes, so each feature is sorted once (stably) up
    front. A tree node keeps its rows by filtering the presorted order with
    a membership mask; filtering a stable sort keeps the tie order of a
    fresh stable sort of the node's rows, so the search picks the same split
    as one that re-sorts at every node.
    """

    def __init__(self, features):
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if X.shape[0] < 2:
            raise InvalidInputError("need at least 2 rows")
        self.X = X
        columns = np.ascontiguousarray(X.T)
        self.order = np.argsort(columns, axis=1, kind="stable")  # (d, m)
        self.values = np.take_along_axis(columns, self.order, axis=1)
        self.boundary = self.values[:, :-1] != self.values[:, 1:]

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def best_split(self, r: np.ndarray, rows: np.ndarray | None = None):
        """Best least-squares split of the rows ``rows`` (ascending distinct
        indices; None for all rows) against residuals ``r``, over every
        feature/midpoint pair.

        Returns (score, feature, threshold, left_mean, right_mean) where
        score = S_L^2/n_L + S_R^2/n_R; maximizing the score minimizes the
        split SSE. Returns None when no feature has two distinct values
        among the rows. Ties are broken toward the lowest feature index,
        then the lowest threshold.
        """
        order, values, boundary = self.order, self.values, self.boundary
        if rows is None or rows.size == self.n_rows:
            total = r.sum()
        else:
            member = np.zeros(self.n_rows, dtype=bool)
            member[rows] = True
            keep = member[order]
            order = order[keep].reshape(-1, rows.size)
            values = values[keep].reshape(-1, rows.size)
            boundary = values[:, :-1] != values[:, 1:]
            total = r[rows].sum()
        if not boundary.any():
            return None
        m = order.shape[1]
        counts = np.arange(1.0, m)  # float: no int-to-float cast per element
        left_sums = np.cumsum(r[order], axis=1)[:, :-1]
        # in place: at large m the (d, m) temporaries cost more than the sums
        score = np.multiply(left_sums, left_sums)
        score /= counts
        right = np.subtract(total, left_sums)
        right *= right
        right /= m - counts
        score += right
        score[~boundary] = -np.inf
        j, p = divmod(int(np.argmax(score)), m - 1)
        lo, hi = values[j, p], values[j, p + 1]
        thr = 0.5 * (lo + hi)
        if not (lo <= thr < hi):  # midpoint rounded onto a datum
            thr = lo
        n_left = p + 1
        return (float(score[j, p]), j, float(thr),
                float(left_sums[j, p] / n_left),
                float((total - left_sums[j, p]) / (m - n_left)))


def _residuals(index: SplitIndex, residuals) -> np.ndarray:
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
    r = _residuals(index, residuals)
    found = index.best_split(r)
    if found is None:
        mu = float(r.mean())
        return DecisionStump(0, float(index.X[0, 0]), mu, mu)
    _, j, thr, _, _ = found
    left = index.X[:, j] <= thr
    # leaf means recomputed from the partition masks (not the prefix sums)
    # so they match a direct exhaustive scan bit for bit
    return DecisionStump(j, thr, float(r[left].mean()), float(r[~left].mean()))


def fit_tree(index: SplitIndex, residuals, splits: int) -> RegressionTree:
    """Greedy best-first CART with ``splits`` internal nodes.

    Each round splits the leaf whose best split yields the largest squared
    error reduction; stops early when no leaf offers a positive reduction.
    Leaves carry residual means.
    """
    if splits < 1:
        raise InvalidInputError(f"splits must be >= 1, got {splits}")
    r = _residuals(index, residuals)
    X = index.X
    if X.shape[0] < splits + 1:
        raise InvalidInputError(f"need at least {splits + 1} rows for {splits} splits")

    nodes: list[TreeNode] = [TreeNode(value=float(r.mean()))]
    # per-leaf: node id -> (row indices, best-split tuple or None, sse reduction)
    pending: dict[int, tuple[np.ndarray, tuple | None, float]] = {}

    def leaf_candidate(node_id: int, rows: np.ndarray) -> None:
        found = index.best_split(r, rows) if rows.size >= 2 else None
        if found is None:
            pending[node_id] = (rows, None, 0.0)
            return
        sub_r = r[rows]
        sse = float(np.sum((sub_r - sub_r.mean()) ** 2))
        reduction = found[0] - sub_r.sum() ** 2 / rows.size
        if reduction <= _MIN_GAIN_REL * sse:
            pending[node_id] = (rows, None, 0.0)
        else:
            pending[node_id] = (rows, found, float(reduction))

    leaf_candidate(0, np.arange(X.shape[0]))
    done = 0
    while done < splits:
        target, target_red = -1, 0.0
        for node_id in pending:  # insertion order: earliest-created leaf wins ties
            _, found, reduction = pending[node_id]
            if found is not None and reduction > target_red:
                target, target_red = node_id, reduction
        if target < 0:
            break
        rows, found, _ = pending.pop(target)
        _, j, thr, left_mean, right_mean = found
        go_left = X[rows, j] <= thr
        left_id, right_id = len(nodes), len(nodes) + 1
        nodes.append(TreeNode(value=left_mean))
        nodes.append(TreeNode(value=right_mean))
        nodes[target] = TreeNode(feature=j, threshold=thr, left=left_id, right=right_id)
        leaf_candidate(left_id, rows[go_left])
        leaf_candidate(right_id, rows[~go_left])
        done += 1

    return RegressionTree(nodes=tuple(nodes), splits=done)
