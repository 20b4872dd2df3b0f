import json
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reboost.cli.model_io import model_from_text
from reboost.core import InvalidInputError
from reboost.learners import (
    _MIN_GAIN_REL,
    DecisionStump,
    IntervalAtom,
    RegressionTree,
    SplitIndex,
    TreeNode,
    fit_stump,
    fit_tree,
)


def resort_best_split(X, r):
    """Reference split search that sorts the node's rows again for every
    feature: (score, feature, threshold, left_mean, right_mean) or None."""
    m = X.shape[0]
    total = r.sum()
    counts = np.arange(1, m)
    best = None
    for j in range(X.shape[1]):
        v = X[:, j]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        boundary = vs[:-1] != vs[1:]
        if not boundary.any():
            continue
        left_sums = np.cumsum(r[order])[:-1]
        score = np.where(
            boundary,
            left_sums * left_sums / counts
            + (total - left_sums) ** 2 / (m - counts),
            -np.inf,
        )
        p = int(np.argmax(score))
        if best is None or score[p] > best[0]:
            thr = 0.5 * (vs[p] + vs[p + 1])
            if not (vs[p] <= thr < vs[p + 1]):
                thr = vs[p]
            n_left = p + 1
            best = (float(score[p]), j, float(thr),
                    float(left_sums[p] / n_left),
                    float((total - left_sums[p]) / (m - n_left)))
    return best


def resort_tree(X, r, splits):
    """Reference best-first tree built on ``resort_best_split``."""
    nodes = [TreeNode(value=float(r.mean()))]
    pending = {}

    def leaf_candidate(node_id, rows):
        sub_r = r[rows]
        found = resort_best_split(X[rows], sub_r) if rows.size >= 2 else None
        reduction = 0.0
        if found is not None:
            sse = float(np.sum((sub_r - sub_r.mean()) ** 2))
            reduction = found[0] - sub_r.sum() ** 2 / rows.size
            if reduction <= _MIN_GAIN_REL * sse:
                found, reduction = None, 0.0
        pending[node_id] = (rows, found, float(reduction))

    leaf_candidate(0, np.arange(X.shape[0]))
    done = 0
    while done < splits:
        target, target_red = -1, 0.0
        for node_id, (_, found, reduction) in pending.items():
            if found is not None and reduction > target_red:
                target, target_red = node_id, reduction
        if target < 0:
            break
        rows, (_, j, thr, left_mean, right_mean), _ = pending.pop(target)
        go_left = X[rows, j] <= thr
        left_id, right_id = len(nodes), len(nodes) + 1
        nodes += [TreeNode(value=left_mean), TreeNode(value=right_mean)]
        nodes[target] = TreeNode(feature=j, threshold=thr, left=left_id, right=right_id)
        leaf_candidate(left_id, rows[go_left])
        leaf_candidate(right_id, rows[~go_left])
        done += 1
    return tuple(nodes), done


def brute_force_stump(X, r):
    """Independent oracle: try every (feature, midpoint), compute the SSE
    directly from leaf means, return the winning stump and its SSE."""
    m, d = X.shape
    best = None
    for j in range(d):
        vals = np.unique(X[:, j])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            if not (a <= thr < b):
                thr = a
            left = X[:, j] <= thr
            lm, rm = r[left].mean(), r[~left].mean()
            pred = np.where(left, lm, rm)
            sse = float(np.sum((r - pred) ** 2))
            if best is None or sse < best[0]:
                best = (sse, j, thr, lm, rm)
    return best


def stump_sse(stump, X, r):
    return float(np.sum((r - stump.evaluate(X)) ** 2))


def tree_sse(tree, X, r):
    return float(np.sum((r - tree.evaluate(X)) ** 2))


def walked_evaluate(tree, X):
    """Reference tree evaluation that walks a stack of (node, rows) pairs:
    each split gathers its rows' feature and cuts them in two, each leaf
    writes its value to its rows."""
    out = np.empty(X.shape[0])
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node_id, rows = stack.pop()
        node = tree.nodes[node_id]
        if node.is_leaf:
            out[rows] = node.value
        elif rows.size:
            go_left = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))
    return out


def model_text(records, features=2):
    """A checksummed model file with one term of coefficient 1 per record."""
    body = ("reboost-model 1\nloss=squared\ntask=regression\n"
            f"features={features}\nseed=0\nintercept=0\nterms={len(records)}\n"
            + "".join(f"term 1 {record}\n" for record in records))
    return body + f"checksum={zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}\n"


class TestEvaluate:
    def test_tie_goes_left(self):
        s = DecisionStump(0, 1.5, -1.0, 1.0)
        assert np.array_equal(s.evaluate([[1.5], [2.0]]), [-1.0, 1.0])

    def test_feature_out_of_range(self):
        s = DecisionStump(3, 0.0, -1.0, 1.0)
        with pytest.raises(InvalidInputError):
            s.evaluate(np.ones((2, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        t = fit_tree(SplitIndex(X), rng.normal(size=50), 3)
        a, b = t.evaluate(X), t.evaluate(X)
        assert np.array_equal(a, b)

    def test_tree_matches_manual_path_trace(self):
        # depth-2 tree: root on feature 0, children on feature 1
        nodes = (
            dict(feature=0, threshold=0.0, left=1, right=2),
            dict(feature=1, threshold=-0.5, left=3, right=4),
            dict(feature=1, threshold=0.5, left=5, right=6),
            dict(value=1.0), dict(value=2.0), dict(value=3.0), dict(value=4.0),
        )
        tree = RegressionTree(nodes=tuple(TreeNode(**n) for n in nodes))
        assert tree.splits == 3
        assert tree.describe() == "tree[J3:f0@0,f1@-0.5,f1@0.5]"
        assert RegressionTree((TreeNode(value=1.0),)).describe() == "tree[J0]"

        def manual(x):
            if x[0] <= 0.0:
                return 1.0 if x[1] <= -0.5 else 2.0
            return 3.0 if x[1] <= 0.5 else 4.0

        rng = np.random.default_rng(1)
        X = rng.uniform(-1.0, 1.0, size=(10, 2))
        assert np.array_equal(tree.evaluate(X), [manual(x) for x in X])

    def test_legacy_scale_rejected(self):
        # older model files carried a per-learner "scale"; a record is now
        # exactly the keys of its kind, so such a file fails to load rather
        # than predicting without the scale
        stump = '{"kind":"stump","feature":0,"threshold":0.0,"left":-2.0,"right":2.0,"scale":0.5}'
        tree = ('{"kind":"tree","splits":1,"scale":0.25,"nodes":'
                '[[0,0.0,1,2,0.0],[-1,0.0,-1,-1,4.0],[-1,0.0,-1,-1,-8.0]]}')
        for record, kind in ((stump, "stump"), (tree, "tree")):
            with pytest.raises(InvalidInputError,
                               match=rf"{kind} record keys \[.*'scale'.*\] are not exactly"):
                model_from_text(model_text([record], features=1))

    @pytest.mark.parametrize("record, message", [
        ('{"kind":"tree","splits":1,"nodes":[[0,0.5,0,1,0],[-1,0,-1,-1,2]]}', "node 0 "),
        ('{"kind":"tree","splits":2,"nodes":'
         '[[0,0.5,1,2,0],[0,0.5,0,2,0],[-1,0,-1,-1,1]]}', "node 1 "),
        ('{"kind":"tree","splits":1,"nodes":[[0,0.5,1,5,0],[-1,0,-1,-1,2]]}', "node 0 "),
        ('{"kind":"tree","splits":0,"nodes":[]}', "no nodes"),
        ('{"kind":"tree","splits":0,"nodes":[[-2,0,-1,-1,1]]}', "node 0 "),
        ('{"kind":"stump","feature":-1,"threshold":0.0,"left":1.0,"right":2.0}', "stump feature"),
        ('{"kind":"atom","feature":-1,"low":0.0,"high":1.0,"value":1.0}', "atom feature"),
        ('{"kind":"stump","feature":1.9,"threshold":0.0,"left":1.0,"right":2.0}',
         "feature must be an integer, got 1.9"),
        ('{"kind":"stump","feature":true,"threshold":0.0,"left":1.0,"right":2.0}',
         "feature must be an integer, got True"),
        ('{"kind":"atom","feature":0.0,"low":0.0,"high":1.0,"value":1.0}',
         "feature must be an integer"),
        ('{"kind":"tree","splits":1,"nodes":[[0.0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}',
         "node feature must be an integer"),
        ('{"kind":"tree","splits":1,"nodes":[[0,0.5,1.2,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}',
         "node child must be an integer, got 1.2"),
        ('{"kind":"tree","splits":1,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,false,-1,2]]}',
         "node child must be an integer, got False"),
        ('{"kind":"tree","splits":1.0,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}',
         "splits must be an integer"),
        ('{"kind":"tree","splits":true,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}',
         "splits must be an integer"),
        ('{"kind":"tree","splits":7,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}',
         "says 7 splits, its nodes hold 1"),
        ('{"kind":"stump","feature":0,"threshold":"0.5","left":true,"right":"nan"}',
         "threshold must be a number, got '0.5'"),
        ('{"kind":"stump","feature":0,"threshold":0.5,"left":true,"right":1.0}',
         "left must be a number, got True"),
        ('{"kind":"stump","feature":0,"threshold":0.5,"left":1.0,"right":"nan"}',
         "right must be a number, got 'nan'"),
        ('{"kind":"atom","feature":0,"low":"-inf","high":1.0,"value":"1e400"}',
         "low must be a number, got '-inf'"),
        ('{"kind":"atom","feature":0,"low":0.0,"high":1.0,"value":"1e400"}',
         "value must be a number, got '1e400'"),
        ('{"kind":"atom","feature":0,"low":0.0,"high":null,"value":1.0}',
         "high must be a number, got None"),
        ('{"kind":"tree","splits":1,"nodes":[[0,"0.5",1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}',
         "node threshold must be a number"),
        ('{"kind":"tree","splits":1,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,false],[-1,0,-1,-1,2]]}',
         "node value must be a number, got False"),
        ('{"kind":"stump","feature":0,"threshold":0.0,"left":1.0,"right":2.0,"scale":"2"}',
         r"stump record keys \['feature', 'kind', 'left', 'right', 'scale', 'threshold'\] "
         r"are not exactly \['feature', 'kind', 'left', 'right', 'threshold'\]"),
        ('{"kind":"stump","feature":0,"threshold":0.0,"left":1e300,"right":2.0,"scale":1e300}',
         r"stump record keys \[.*'scale'.*\] are not exactly"),
        ('{"kind":"atom","feature":0,"low":0.0,"high":1.0,"value":1.0,"weight":2.0}',
         r"atom record keys \[.*'weight'\] are not exactly"),
        ('{"kind":"stump","feature":0,"threshold":0.0,"left":1.0}',
         r"stump record keys \['feature', 'kind', 'left', 'threshold'\] are not exactly"),
        ('{"kind":"tree","splits":1,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2]],'
         '"depth":1}', r"tree record keys \['depth', 'kind', 'nodes', 'splits'\]"),
        ('{"feature":0,"threshold":0.0,"left":1.0,"right":2.0}', "unknown learner kind None"),
        ('{"kind":"stump","feature":0,"threshold":0.0,"left":1.0,"right":2.0,"left":-5.0}',
         "model record repeats the key 'left'"),
        ('[1,2]', r"model term 1 is not a JSON object: \[1, 2\]"),
        ('"stump"', "model term 1 is not a JSON object: 'stump'"),
        ('{"kind":["stump"]}', r"model term 1 has unknown learner kind \['stump'\]"),
        ('{"kind":"stump","feature":0,"threshold":1%s,"left":1.0,"right":2.0}' % ("0" * 400),
         "OverflowError"),
        ('{"kind":"tree","splits":1,"nodes":[[0,0.5,1,1,0],[-1,0,-1,-1,1]]}',
         "node 1 has 2 parents"),
        ('{"kind":"tree","splits":3,"nodes":[[0,0.5,1,2,0],[0,0.5,3,4,0],[1,0.5,3,4,0],'
         '[-1,0,-1,-1,1],[-1,0,-1,-1,2]]}', "node 3 has 2 parents"),
        ('{"kind":"tree","splits":1,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2],'
         '[-1,0,-1,-1,3]]}', "node 3 has 0 parents"),
        ('{"kind":"tree","splits":2,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],[-1,0,-1,-1,2],'
         '[1,0.5,4,5,0],[-1,0,-1,-1,3],[-1,0,-1,-1,4]]}', "node 3 has 0 parents"),
    ], ids=["tree-self-loop", "tree-back-edge", "tree-child-out-of-range", "tree-empty",
            "tree-feature-below-leaf", "stump-negative-feature", "atom-negative-feature",
            "stump-float-feature", "stump-bool-feature", "atom-float-feature",
            "tree-float-node-feature", "tree-float-child", "tree-bool-child",
            "tree-float-splits", "tree-bool-splits", "tree-splits-not-its-node-count",
            "stump-string-threshold", "stump-bool-value", "stump-string-nan-value",
            "atom-string-infinities", "atom-string-overflow-value", "atom-null-high",
            "tree-string-node-threshold", "tree-bool-node-value", "string-scale",
            "scale-overflows-value", "atom-unknown-key", "stump-missing-key",
            "tree-unknown-key", "no-kind", "repeated-key", "list-record", "string-record",
            "list-kind", "int-too-large-for-a-float",
            "tree-left-equals-right", "tree-child-of-two-splits", "tree-orphan-leaf",
            "tree-orphan-split"])
    def test_malformed_record_rejected_at_load(self, record, message):
        # a tree child that does not follow its parent could loop forever in
        # evaluate, and a node with no parent or two is not part of one tree;
        # a negative feature would read a column from the end
        with pytest.raises(InvalidInputError, match=message):
            model_from_text(model_text([record]))

    @pytest.mark.parametrize("kind, record", [
        ("stump", '{"kind":"stump","feature":%d,"threshold":0.0,"left":1.0,"right":2.0}'),
        ("atom", '{"kind":"atom","feature":%d,"low":0.0,"high":1.0,"value":1.0}'),
        ("tree", '{"kind":"tree","splits":2,"nodes":[[0,0.5,1,2,0],[-1,0,-1,-1,1],'
                 '[%d,0.5,3,4,0],[-1,0,-1,-1,2],[-1,0,-1,-1,3]]}'),
    ])
    def test_feature_beyond_the_declared_count_rejected_at_load(self, kind, record):
        # otherwise the file loads and predict blames a data file that has
        # exactly the declared columns
        features = 3
        with pytest.raises(InvalidInputError, match=rf"model term 2 \({kind}\) uses feature "
                                                     rf"3, but the model declares features=3"):
            model_from_text(model_text([record % 0, record % features], features))
        model, *_ = model_from_text(model_text([record % 0, record % (features - 1)],
                                               features))
        assert model.learners[1].evaluate(np.ones((2, features))).shape == (2,)

    def test_interval_atom(self):
        a = IntervalAtom(0.25, 0.5, 2.0)
        X = np.array([[0.2], [0.25], [0.49], [0.5]])
        assert np.array_equal(a.evaluate(X), [0.0, 2.0, 2.0, 0.0])


class TestFitStump:
    def test_clean_separation(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        r = np.array([1.0, 1.0, -1.0, -1.0])
        s = fit_stump(SplitIndex(X), r)
        assert 1.0 < s.threshold < 2.0
        assert s.left_value == pytest.approx(1.0)
        assert s.right_value == pytest.approx(-1.0)

    def test_constant_residuals(self):
        X = np.arange(6.0).reshape(-1, 1)
        s = fit_stump(SplitIndex(X), np.full(6, 3.2))
        assert s.left_value == pytest.approx(3.2)
        assert s.right_value == pytest.approx(3.2)
        assert stump_sse(s, X, np.full(6, 3.2)) == pytest.approx(0.0, abs=1e-20)

    def test_degenerate_rows(self):
        X = np.ones((5, 2))
        r = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        s = fit_stump(SplitIndex(X), r)
        assert s.left_value == s.right_value == pytest.approx(3.0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(5, 50))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(m, d))
            r = rng.normal(size=m)
            fitted = fit_stump(SplitIndex(X), r)
            oracle_sse = brute_force_stump(X, r)[0]
            assert stump_sse(fitted, X, r) == oracle_sse

    def test_leaf_values_within_residual_range(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        r = rng.normal(size=30)
        s = fit_stump(SplitIndex(X), r)
        assert r.min() <= s.left_value <= r.max()
        assert r.min() <= s.right_value <= r.max()

    def test_selected_split_maximizes_normalized_inner_product(self):
        # the least-squares split also wins the projection-of-gradient
        # criterion <u, g>/|g| over all two-leaf partitions
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = rng.normal(size=(12, 2))
            u = rng.normal(size=12)
            fitted = fit_stump(SplitIndex(X), u)
            g = fitted.evaluate(X)
            best_ip = np.dot(u, g) / np.linalg.norm(g)
            for j in range(2):
                for thr in np.unique(X[:, j])[:-1]:
                    left = X[:, j] <= thr
                    cand = np.where(left, u[left].mean(), u[~left].mean())
                    ip = np.dot(u, cand) / np.linalg.norm(cand)
                    assert ip <= best_ip + 1e-9


class TestSplitIndex:
    def test_reused_index_matches_fresh_index(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            X = rng.normal(size=(25, 3))
            index = SplitIndex(X)
            for _ in range(3):
                r = rng.normal(size=25)
                assert fit_stump(index, r) == fit_stump(SplitIndex(X), r)
                assert fit_tree(index, r, 3) == fit_tree(SplitIndex(X), r, 3)

    def test_handles_duplicate_feature_values(self):
        rng = np.random.default_rng(6)
        X = rng.integers(0, 3, size=(40, 2)).astype(float)
        index = SplitIndex(X)
        for _ in range(3):
            r = rng.normal(size=40)
            assert stump_sse(fit_stump(index, r), X, r) == brute_force_stump(X, r)[0]

    def test_residual_length_mismatch(self):
        index = SplitIndex(np.arange(4.0).reshape(-1, 1))
        with pytest.raises(InvalidInputError):
            fit_stump(index, np.ones(3))

    def test_single_row_rejected(self):
        with pytest.raises(InvalidInputError):
            SplitIndex(np.ones((1, 2)))


def tied_design(rng, m, d):
    """Integer (tied) columns at even feature indices, normal columns at odd
    ones, and a constant last column when d > 2."""
    X = rng.normal(size=(m, d))
    X[:, ::2] = rng.integers(0, 10, size=(m, X[:, ::2].shape[1]))
    if d > 2:
        X[:, -1] = 2.5
    return X


class TestPartition:
    def assert_presorted(self, X, node, rows):
        local = np.argsort(X[rows].T, axis=1, kind="stable")
        assert np.array_equal(node.rows, rows)
        assert np.array_equal(node.order, rows[local])
        assert np.array_equal(node.values, np.take_along_axis(X[rows].T, local, axis=1))
        assert np.array_equal(node.boundary, node.values[:, :-1] != node.values[:, 1:])

    def test_children_equal_fresh_stable_sort(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            m, d = int(rng.integers(4, 80)), int(rng.integers(1, 5))
            X = tied_design(rng, m, d)
            index = SplitIndex(X)
            node = index.root
            for _ in range(3):  # split a child again: a non-root parent
                j = int(rng.integers(d))
                thr = float(rng.choice(X[node.rows, j]))
                left, right = index.partition(node, j, thr)
                go_left = X[node.rows, j] <= thr
                self.assert_presorted(X, left, node.rows[go_left])
                self.assert_presorted(X, right, node.rows[~go_left])
                node = left if left.rows.size >= right.rows.size else right
                if node.rows.size < 2:
                    break

    def test_root_is_the_presorted_design(self):
        X = tied_design(np.random.default_rng(13), 30, 3)
        self.assert_presorted(X, SplitIndex(X).root, np.arange(30))


class TestSearchEffort:
    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = SplitIndex.best_split

        def counted(self, r, node):
            calls.append(node.rows.size)
            return search(self, r, node)

        monkeypatch.setattr(SplitIndex, "best_split", counted)
        return calls

    def test_full_tree_skips_the_last_children(self, searches):
        # four steps of one grid: every split gains and every leaf keeps
        # at least two rows, so each leaf is searched
        grid = np.array([(i, j) for i in range(8) for j in range(8)], dtype=float)
        r = 4.0 * (grid[:, 0] >= 4) + 2.0 * (grid[:, 1] >= 4) + 0.1 * grid[:, 0]
        tree = fit_tree(SplitIndex(grid), r, 4)
        assert tree.splits == 4
        assert len(searches) == 7  # 2J - 1: root, then two per split but the last
        assert searches[0] == 64

    def test_single_split_searches_once(self, searches):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(20, 3))
        assert fit_tree(SplitIndex(X), rng.normal(size=20), 1).splits == 1
        assert searches == [20]

    def test_early_stop_searches_every_leaf_once(self, searches):
        # three residual levels along x: two splits leave no gain, so the
        # children of the second split are searched and the tree stops
        X = np.arange(30.0).reshape(-1, 1)
        r = np.repeat([0.0, 1.0, 3.0], 10)
        tree = fit_tree(SplitIndex(X), r, 4)
        assert tree.splits == 2
        assert len(searches) == 5

    def test_stump_searches_once(self, searches):
        rng = np.random.default_rng(16)
        fit_stump(SplitIndex(rng.normal(size=(25, 2))), rng.normal(size=25))
        assert searches == [25]


@st.composite
def design_and_residuals(draw):
    m = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    kinds = draw(st.lists(st.sampled_from(("real", "ties", "constant")),
                          min_size=d, max_size=d))
    for j, kind in enumerate(kinds):
        if kind == "ties":
            X[:, j] = rng.integers(0, 3, size=m)
        elif kind == "constant":
            X[:, j] = 2.5
    if draw(st.booleans()):
        r = rng.integers(-2, 3, size=m).astype(float)  # tied scores
    else:
        r = rng.normal(size=m)
    return X, r, draw(st.integers(1, 7))


class TestSplitIndexOracle:
    @settings(max_examples=300, deadline=None)
    @given(design_and_residuals())
    def test_tree_equals_resorting_oracle(self, case):
        X, r, splits = case
        if X.shape[0] < splits + 1:
            splits = X.shape[0] - 1
        tree = fit_tree(SplitIndex(X), r, splits)
        nodes, done = resort_tree(X, r, splits)
        assert tree.nodes == nodes
        assert tree.splits == done

    @settings(max_examples=300, deadline=None)
    @given(design_and_residuals())
    def test_stump_equals_resorting_oracle(self, case):
        X, r, _ = case
        stump = fit_stump(SplitIndex(X), r)
        found = resort_best_split(X, r)
        if found is None:
            assert stump.left_value == stump.right_value == float(r.mean())
            return
        _, j, thr, _, _ = found
        left = X[:, j] <= thr
        assert stump == DecisionStump(j, thr, float(r[left].mean()),
                                      float(r[~left].mean()))


class TestGainBound:
    """``fit_tree`` accepts a split without the exact SSE check when its
    reduction is above 2 * _MIN_GAIN_REL * (r @ r); each case must still
    build the resorting oracle's tree."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-160, 1e150], ids=["subnormal", "huge"])
    @settings(max_examples=150, deadline=None)
    @given(case=design_and_residuals())
    def test_scaled_residuals_equal_resorting_oracle(self, scale, case):
        # at 1e-160 every r_i^2, so r @ r, is subnormal and the bound is 0
        X, r, splits = case
        r = scale * r
        splits = min(splits, X.shape[0] - 1)
        assert fit_tree(SplitIndex(X), r, splits).nodes == resort_tree(X, r, splits)[0]

    def test_leaves_with_constant_residuals_equal_resorting_oracle(self):
        # residuals constant on each value of feature 0: once the tree has
        # cut feature 0, a leaf's reduction is rounding noise below the bound
        rng = np.random.default_rng(21)
        for _ in range(150):
            m, d = int(rng.integers(4, 60)), int(rng.integers(1, 4))
            X = tied_design(rng, m, d)
            levels = rng.choice([0.0, 0.1, -3.7, 1e-3, 2.0], size=int(rng.integers(1, 11)))
            r = levels[X[:, 0].astype(int) % levels.size]
            splits = min(4, m - 1)
            assert fit_tree(SplitIndex(X), r, splits).nodes == resort_tree(X, r, splits)[0]

    @staticmethod
    def paired_case(rng):
        """A design whose every value of feature 0 covers two rows, with
        residuals c + delta, c - delta on them: every split leaves both means
        at c, so its reduction is rounding noise that the exact check rejects."""
        pairs = int(rng.integers(2, 20))
        X = np.column_stack([np.repeat(rng.permutation(pairs), 2).astype(float),
                             np.full(2 * pairs, 2.5)])
        delta = rng.normal(size=pairs)
        c = rng.choice([0.1, 0.3, 0.7, 1.1])
        return X, np.column_stack([c + delta, c - delta]).ravel()

    def test_rounding_noise_reductions_stay_rejected(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            X, r = self.paired_case(rng)
            tree = fit_tree(SplitIndex(X), r, 2)
            assert tree.nodes == resort_tree(X, r, 2)[0]
            assert tree.splits == 0

    def test_fits_in_turn_on_one_index_equal_resorting_oracle(self):
        # scaled and rounding-noise residuals in a random order on a shared
        # index: no fit's bound or other state may carry into the next fit
        rng = np.random.default_rng(22)
        for _ in range(40):
            X, noise = self.paired_case(rng)
            index = SplitIndex(X)
            for scale in rng.permutation([1e-160, 1e-3, 1.0, 1e150, 0.0]):
                r = noise if scale == 0.0 else scale * rng.normal(size=X.shape[0])
                assert fit_tree(index, r, 3).nodes == resort_tree(X, r, 3)[0]
                assert fit_stump(index, r) == fit_stump(SplitIndex(X), r)


@st.composite
def tree_and_rows(draw):
    """A fitted tree of 1-8 splits (a single leaf on constant residuals),
    some of its leaves set to +-0.0, its tied design, and 0-12 more rows
    whose cells are design values, thresholds and the floats just above
    the thresholds."""
    X, r, _ = draw(design_and_residuals())
    if draw(st.integers(0, 7)) == 0:
        r = np.full_like(r, r[0])
    tree = fit_tree(SplitIndex(X), r, min(draw(st.integers(1, 8)), X.shape[0] - 1))
    zeros = draw(st.lists(st.sampled_from((None, 0.0, -0.0)),
                          min_size=len(tree.nodes), max_size=len(tree.nodes)))
    tree = RegressionTree(tuple(replace(n, value=z) if n.is_leaf and z is not None else n
                                for n, z in zip(tree.nodes, zeros)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(0, 12))
    columns = []
    for j in range(X.shape[1]):
        thr = np.array([n.threshold for n in tree.nodes if n.feature == j])
        cells = np.concatenate([X[:, j], thr, np.nextafter(thr, np.inf)])
        columns.append(rng.choice(cells, size=n_rows))
    return tree, X, np.column_stack(columns)


class TestEvaluateOracle:
    @settings(max_examples=300, deadline=None)
    @given(tree_and_rows())
    def test_select_equals_row_walk(self, case):
        tree, *inputs = case
        for X in inputs:
            out = tree.evaluate(X)
            assert out.dtype == np.float64 and out.shape == (X.shape[0],)
            assert out.tobytes() == walked_evaluate(tree, X).tobytes()

    def test_single_leaf_and_no_rows(self):
        leaf = RegressionTree((TreeNode(value=-0.0),))
        assert leaf.evaluate(np.ones((3, 2))).tobytes() == np.full(3, -0.0).tobytes()
        split = RegressionTree((TreeNode(0, 0.5, 1, 2), TreeNode(value=1.0),
                                TreeNode(value=2.0)))
        for tree in (leaf, split):
            out = tree.evaluate(np.empty((0, 2)))
            assert out.dtype == np.float64 and out.shape == (0,)

    def test_long_chain_keeps_few_arrays(self):
        # split i (node 2i) sends x <= i / splits to its left leaf, of value
        # i, and the rest to node 2i + 2: the next split, or after the last
        # split a leaf of value ``splits``
        splits, n = 2000, 5000
        nodes = []
        for i in range(splits):
            nodes += [[0, i / splits, 2 * i + 1, 2 * i + 2, 0], [-1, 0, -1, -1, i]]
        nodes.append([-1, 0, -1, -1, splits])
        record = json.dumps({"kind": "tree", "splits": splits, "nodes": nodes})
        model, *_ = model_from_text(model_text([record], features=1))
        tree = model.learners[0]
        X = np.random.default_rng(26).uniform(size=(n, 1))
        tracemalloc.start()
        try:
            out = tree.evaluate(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * X.itemsize
        thresholds = np.arange(splits) / splits
        assert np.array_equal(out, np.searchsorted(thresholds, X[:, 0]))
        assert out.tobytes() == walked_evaluate(tree, X).tobytes()


    @staticmethod
    def chain(splits):
        """A tree whose split i (node 2i) sends x <= i / splits to its left
        leaf, of value -i, and the rest on: its deepest leaf has id 2 * splits."""
        nodes = []
        for i in range(splits):
            nodes += [TreeNode(0, i / splits, 2 * i + 1, 2 * i + 2), TreeNode(value=-float(i))]
        return RegressionTree(tuple(nodes) + (TreeNode(value=float(splits)),))

    @pytest.mark.parametrize("splits", [16_383, 16_384])
    def test_chain_at_the_int16_node_bound(self, splits):
        # 32,767 nodes keep int16 leaf ids; 32,769 need wider ones, or the
        # deepest ids wrap to negative and take reads from the wrong end
        tree = self.chain(splits)
        assert len(tree.nodes) == 2 * splits + 1
        X = np.concatenate([np.random.default_rng(27).uniform(size=(300, 1)),
                            [[1.0], [0.99995], [(splits - 1) / splits], [0.0]]])
        out = tree.evaluate(X)
        assert out.tobytes() == walked_evaluate(tree, X).tobytes()
        assert out[-4] == splits

    def test_model_file_tree_with_children_out_of_order(self):
        # left > right at every split, and the leaves are not numbered in
        # the order fit_tree gives them
        nodes = [[0, 0.0, 3, 1, 0], [1, 0.3, 6, 2, 0], [-1, 0, -1, -1, 2.5],
                 [1, -0.2, 5, 4, 0], [-1, 0, -1, -1, -1.0], [-1, 0, -1, -1, -0.0],
                 [-1, 0, -1, -1, 7.0]]
        record = json.dumps({"kind": "tree", "splits": 3, "nodes": nodes})
        model, *_ = model_from_text(model_text([record]))
        tree = model.learners[0]
        rng = np.random.default_rng(28)
        X = np.concatenate([rng.uniform(-1.0, 1.0, size=(200, 2)),
                            [[0.0, 0.3], [0.0, -0.2], [np.nextafter(0.0, 1.0), 0.3]]])
        out = tree.evaluate(X)
        assert out.tobytes() == walked_evaluate(tree, X).tobytes()
        assert set(out.tolist()) == {2.5, -1.0, 0.0, 7.0}

    def test_renumbered_tree_beyond_the_int8_range(self):
        # a fitted tree of over 300 nodes, renumbered in a random order in
        # which each child still follows its parent: left - right takes both
        # signs, and sibling ids differ by more than 127
        rng = np.random.default_rng(29)
        X = rng.normal(size=(400, 3))
        fitted_tree = fit_tree(SplitIndex(X), rng.normal(size=400), 150)
        fitted = fitted_tree.nodes
        order, frontier = [], [0]
        while frontier:
            i = frontier.pop(int(rng.integers(len(frontier))))
            order.append(i)
            if not fitted[i].is_leaf:
                frontier += [fitted[i].left, fitted[i].right]
        new_id = {old: new for new, old in enumerate(order)}
        tree = RegressionTree(tuple(
            replace(fitted[i], left=new_id[fitted[i].left], right=new_id[fitted[i].right])
            if not fitted[i].is_leaf else fitted[i] for i in order))
        gaps = [n.left - n.right for n in tree.nodes if not n.is_leaf]
        assert len(tree.nodes) > 300 and min(gaps) < 0 < max(gaps)
        assert max(map(abs, gaps)) > 127
        rows = np.concatenate([X, rng.normal(size=(100, 3))])
        out = tree.evaluate(rows)
        assert out.tobytes() == walked_evaluate(tree, rows).tobytes()
        assert out.tobytes() == fitted_tree.evaluate(rows).tobytes()


class TestLargeTreeOracle:
    """Fixed designs larger than the hypothesis cases. The residuals follow
    a tied column, so tie order inside the node slices shows in the leaf
    values; an outlier on a continuous column makes the first split
    isolate one row."""

    @pytest.mark.parametrize("seed, m, d, splits, outlier", [
        (20, 300, 4, 7, False),
        (21, 500, 10, 4, True),
        (22, 1200, 3, 7, True),
        (23, 2000, 6, 5, False),
        (24, 800, 1, 7, False),
        (25, 600, 2, 6, True),
    ])
    def test_tree_equals_resorting_oracle(self, seed, m, d, splits, outlier):
        rng = np.random.default_rng(seed)
        X = tied_design(rng, m, d)
        r = 0.3 * X[:, 0] + np.sin(3.0 * X[:, -1]) + 0.3 * rng.normal(size=m)
        if outlier:
            r[np.argmax(X[:, 1])] += 50.0
        tree = fit_tree(SplitIndex(X), r, splits)
        nodes, done = resort_tree(X, r, splits)
        assert done == splits
        assert tree.nodes == nodes
        assert tree.splits == done
        if outlier:
            first = tree.nodes[0]
            assert first.feature == 1
            assert np.sum(X[:, 1] > first.threshold) == 1


class TestFitTree:
    def test_j1_equals_stump(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        r = rng.normal(size=30)
        tree = fit_tree(SplitIndex(X), r, 1)
        stump = fit_stump(SplitIndex(X), r)
        root = tree.nodes[0]
        assert (root.feature, root.threshold) == (stump.feature, stump.threshold)
        assert np.allclose(tree.evaluate(X), stump.evaluate(X))

    def test_constant_residuals_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        r = np.full(10, 1.5)
        tree = fit_tree(SplitIndex(X), r, 4)
        assert tree.splits == 0
        assert tree_sse(tree, X, r) == pytest.approx(0.0, abs=1e-20)

    def test_invalid_splits(self):
        with pytest.raises(InvalidInputError):
            fit_tree(SplitIndex(np.ones((5, 1))), np.ones(5), 0)

    def test_structure_counts(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(64, 2))
        r = rng.normal(size=64)
        tree = fit_tree(SplitIndex(X), r, 4)
        internal = [n for n in tree.nodes if not n.is_leaf]
        leaves = [n for n in tree.nodes if n.is_leaf]
        assert len(internal) == 4 and len(leaves) == 5

    def test_checkerboard_beats_stump(self):
        rng = np.random.default_rng(9)
        grid = np.array([(i, j) for i in range(8) for j in range(8)], dtype=float)
        r = ((grid[:, 0] // 4 + grid[:, 1] // 4) % 2 * 2.0 - 1.0)
        tree = fit_tree(SplitIndex(grid), r, 4)
        stump = fit_stump(SplitIndex(grid), r)
        assert tree_sse(tree, grid, r) <= stump_sse(stump, grid, r)

    def test_sse_nonincreasing_in_splits(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 3))
        r = rng.normal(size=60)
        sses = [tree_sse(fit_tree(SplitIndex(X), r, j), X, r) for j in range(1, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(sses[:-1], sses[1:]))

    def test_leaf_values_within_residual_range(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 2))
        r = rng.normal(size=40)
        tree = fit_tree(SplitIndex(X), r, 4)
        for n in tree.nodes:
            if n.is_leaf:
                assert r.min() - 1e-12 <= n.value <= r.max() + 1e-12
