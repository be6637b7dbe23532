"""Compiled flat-array inference for the tree-model stack.

The node-graph representations of :mod:`repro.ml.tree` and
:mod:`repro.ml.boosting` are ideal for *fitting* — splits mutate a
linked structure — but terrible for *serving*: a 40-round booster
answers one ``predict`` by visiting thousands of Python ``_Node`` /
``_BNode`` objects, two attribute loads and a tiny numpy op per visit.
On the serving hot path (:mod:`repro.serve`) that Python traffic is the
last un-vectorised loop in the stack.

This module lowers fitted trees into **struct-of-arrays tables** and
fuses whole ensembles into one padded 2-D table per field::

    feature   (T, M) int32    split feature, -1 at leaves
    threshold (T, M) float64  split threshold
    left      (T, M) int32    child row index (leaves self-loop)
    right     (T, M) int32
    values    (T, M, d)       leaf payload (class probs / mean / weight)

where ``T`` is the number of fused trees and ``M`` the padded node
count.  A batch of N rows then traverses *all* T trees simultaneously
in ``max_depth`` vectorised numpy steps — each step gathers the current
node's feature and threshold for every ``(tree, row)`` pair, compares,
and advances — instead of ``O(total_nodes)`` Python visits.  Leaves
self-loop (``left == right == self``), so finished rows idle harmlessly
while deeper trees keep descending and no per-step leaf masking is
needed.

**Bit-identical contract.**  Compiled predictions are exactly the node
walk's: the tables carry the same float64 thresholds and leaf payloads,
the traversal applies the same ``<=`` comparisons, and the ensemble
wrappers accumulate member outputs in the same order with the same
operations.  The tables are the only inference path in the package;
the node-graph walks they replaced live in ``tests/_ml_oracle.py`` as
the oracle of the equivalence tests in ``tests/test_ml_compiled.py``.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["TreeTable", "compile_trees"]


# ---------------------------------------------------------------------------
# Shared index buffer
# ---------------------------------------------------------------------------

_arange_lock = threading.Lock()
_arange_buf = np.empty(0, dtype=np.intp)


def shared_arange(n: int) -> np.ndarray:
    """First ``n`` indices from a shared, read-only arange buffer.

    The table traversal and the boosting fit's per-tree node walk index
    rows with it; this grows one immutable buffer instead of rebuilding
    ``np.arange(N)`` per call.  The returned view is write-protected —
    callers only ever fancy-index it, producing fresh arrays.
    """
    global _arange_buf
    buf = _arange_buf
    if buf.size < n:
        with _arange_lock:
            buf = _arange_buf
            if buf.size < n:
                buf = np.arange(max(n, 2 * buf.size), dtype=np.intp)
                buf.setflags(write=False)
                _arange_buf = buf
    return buf[:n]


# ---------------------------------------------------------------------------
# The fused table
# ---------------------------------------------------------------------------


class TreeTable:
    """Struct-of-arrays form of one or more fused binary trees.

    Construct via :func:`compile_trees`; instances are immutable and
    read-only at inference time, so one table can serve many threads
    concurrently (the serving stack relies on this).
    """

    __slots__ = ("feature", "threshold", "left", "right", "values",
                 "max_depth", "_tree_rows", "_roots", "_feature_flat",
                 "_threshold_flat", "_left_flat", "_right_flat",
                 "_values_flat")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        values: np.ndarray,
        max_depth: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.values = values
        self.max_depth = int(max_depth)
        self._tree_rows = np.arange(feature.shape[0], dtype=np.intp)[:, None]
        # Flat views with *absolute* node addresses (tree t's node j at
        # t*M + j): traversal then runs on 1-D ``take`` gathers with
        # intp indices, which skip the per-step index broadcasting and
        # dtype conversion of 2-D fancy indexing.
        T, M = feature.shape
        offsets = (np.arange(T, dtype=np.intp) * M)[:, None]
        self._roots = offsets                              # (T, 1)
        self._feature_flat = np.ascontiguousarray(feature.reshape(-1))
        self._threshold_flat = np.ascontiguousarray(threshold.reshape(-1))
        self._left_flat = (left.astype(np.intp) + offsets).reshape(-1)
        self._right_flat = (right.astype(np.intp) + offsets).reshape(-1)
        self._values_flat = np.ascontiguousarray(
            values.reshape(T * M, values.shape[2])
        )

    # -- introspection -----------------------------------------------------

    @property
    def n_trees(self) -> int:
        return self.feature.shape[0]

    @property
    def n_nodes(self) -> int:
        """Padded per-tree node capacity (real node counts are ≤ this)."""
        return self.feature.shape[1]

    @property
    def value_width(self) -> int:
        return self.values.shape[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeTable(n_trees={self.n_trees}, n_nodes={self.n_nodes}, "
            f"value_width={self.value_width}, max_depth={self.max_depth})"
        )

    # -- traversal ---------------------------------------------------------

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of every (tree, row) pair; shape ``(T, N)``.

        ``X`` must already be validated float64 ``(N, F)`` — callers
        are the estimators, which check once at their public boundary.
        Every iteration advances all pairs one level: gather the
        current nodes' features/thresholds, compare, step to a child.
        Leaves self-loop so the loop needs no masking; after
        ``max_depth`` steps every pair sits on its leaf.  The returned
        positions are *absolute* flat-table addresses.
        """
        n, n_feat = X.shape
        T = self.feature.shape[0]
        Xflat = X.reshape(-1) if X.flags.c_contiguous else np.ravel(X)
        # Row base of every sample in the flattened X (1, N).
        rows = shared_arange(n)[None, :] * n_feat
        pos = np.broadcast_to(self._roots, (T, n)).copy()
        for _ in range(self.max_depth):
            feat = self._feature_flat.take(pos)  # (T, N)
            # Leaf rows carry feature == -1: the gather below reads the
            # sample's last feature (valid, if meaningless), and their
            # self-looped children make the comparison irrelevant.
            go_left = Xflat.take(rows + feat) <= self._threshold_flat.take(pos)
            pos = np.where(
                go_left, self._left_flat.take(pos), self._right_flat.take(pos)
            )
        return pos

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf payload of every (tree, row) pair; shape ``(T, N, d)``."""
        return self._values_flat[self.apply(X)]

    def leaf_scalars(self, X: np.ndarray) -> np.ndarray:
        """Leaf payload for width-1 tables; shape ``(T, N)``.

        ``take`` reads the ``(T*M, 1)`` payload as flat, so the node
        address doubles as the payload address when the width is 1.
        """
        return self._values_flat.take(self.apply(X))


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _flatten(root, value_of: Callable, width: int, feature, threshold,
             left, right, values) -> int:
    """Preorder-flatten one tree into row 0.. of the given table slices.

    Returns the realised depth.  Leaves get ``feature = -1`` and
    self-looped children; internal nodes also carry their (padded)
    value so the table row layout matches the node graph one-to-one.
    """
    depth = 0
    # (node, parent_row, is_left, depth) — iterative preorder keeps the
    # flattening independent of Python's recursion limit.
    stack = [(root, -1, False, 0)]
    n = 0
    while stack:
        node, parent, is_left, d = stack.pop()
        i = n
        n += 1
        depth = max(depth, d)
        if parent >= 0:
            (left if is_left else right)[parent] = i
        v = value_of(node)
        if v is not None:
            values[i, : len(v)] = v
        if node.is_leaf:
            feature[i] = -1
            threshold[i] = 0.0
            left[i] = i
            right[i] = i
        else:
            feature[i] = node.feature
            threshold[i] = node.threshold
            # Push right first so the left child flattens to the next
            # row (preorder), matching the serializer's layout.
            stack.append((node.right, i, False, d + 1))
            stack.append((node.left, i, True, d + 1))
    return depth


def _count_nodes(root) -> int:
    n = 0
    stack = [root]
    while stack:
        node = stack.pop()
        n += 1
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)
    return n


def compile_trees(
    roots: Sequence,
    value_of: Callable,
    value_width: int,
) -> TreeTable:
    """Lower ``roots`` (CART ``_Node`` or boosting ``_BNode`` graphs)
    into one fused :class:`TreeTable`.

    ``value_of(node)`` returns the node's payload vector (or ``None``
    for payload-free internal nodes); payloads narrower than
    ``value_width`` are zero-padded — ensemble accumulation over the
    padding adds exact zeros, keeping fused sums bit-identical to the
    per-member loops.

    Shorter trees are padded to the widest member's node count; their
    unused rows are self-looped leaves, so fused traversal of a ragged
    ensemble stays a single rectangular gather per step.
    """
    if not roots:
        raise ValueError("compile_trees needs at least one tree")
    counts = [_count_nodes(r) for r in roots]
    T, M = len(roots), max(counts)
    feature = np.full((T, M), -1, dtype=np.int32)
    threshold = np.zeros((T, M), dtype=np.float64)
    # Unused padding rows self-loop in place, like real leaves.
    left = np.tile(np.arange(M, dtype=np.int32), (T, 1))
    right = left.copy()
    values = np.zeros((T, M, value_width), dtype=np.float64)
    max_depth = 0
    for k, root in enumerate(roots):
        d = _flatten(root, value_of, value_width,
                     feature[k], threshold[k], left[k], right[k], values[k])
        max_depth = max(max_depth, d)
    return TreeTable(feature, threshold, left, right, values, max_depth)


def compile_cart(root, value_width: int) -> TreeTable:
    """Lower one fitted CART node graph (``_Node``) to a 1-tree table."""
    return compile_trees([root], lambda n: np.asarray(n.value), value_width)


def compile_cart_forest(trees: Sequence, value_width: int) -> TreeTable:
    """Fuse a bagged forest's CART trees into one table.

    ``value_width`` is the forest-level class count; bootstrap members
    that saw fewer classes get zero-padded probability rows (adding
    exact zeros, see :func:`compile_trees`).
    """
    return compile_trees(
        [t.root_ for t in trees], lambda n: np.asarray(n.value), value_width
    )


def compile_boost(trees: Sequence) -> TreeTable:
    """Fuse a booster's regression trees (``_BNode`` graphs, in
    accumulation order) into one width-1 table."""
    return compile_trees(
        [t.root for t in trees], lambda n: (n.weight,), 1
    )
