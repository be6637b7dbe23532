"""Pure-numpy estimator serialization (the model-registry artifact codec).

Every estimator in the stack persists through three layers:

1. ``BaseEstimator.get_state()`` / ``set_state()`` capture the fitted
   attributes of one estimator instance (see :mod:`repro.ml.base`);
2. :func:`encode` / :func:`decode` turn an arbitrary object graph —
   scalars, numpy arrays, tuples, dicts, nested estimators (pipelines,
   MLP ensembles, forests) and the CART/boosting node structures — into
   a JSON-safe structure plus a flat dict of numpy arrays;
3. :func:`save_estimator` / :func:`load_estimator` write that pair to a
   single ``.npz`` (``allow_pickle=False`` end to end — artifacts
   contain no executable payload, unlike pickles).

Layout (schema v3).  The ``.npz`` holds a ``__state__`` JSON header and
one *pool* member per array dtype: every array of that dtype, flattened
and concatenated.  The header's ``index`` maps each array key to
``[pool, offset, length, shape]``, and the reader checks every entry
(the pool exists, ``offset + length`` fits, the shape holds ``length``
elements) before slicing, raising :class:`SerializationError` otherwise.
All boosting trees of one ensemble form one ``__boost_trees__`` record:
their node rows stacked into one ``(ΣM, 5)`` array with per-tree
offsets, and their gain and split counts as ``(T, n_features)`` arrays.
So an artifact has a handful of members however many trees it holds —
opening a member costs far more than its bytes.

The v2 layout (one member per array, one ``__boost_tree__`` record per
tree) is still read: its header has no ``index`` and its tag ends in
``/v2``.

Round-trips are **bit-identical**: array payloads go through ``.npz``
verbatim, scalar floats go through ``repr``-exact JSON, and tree
structures are rebuilt node-for-node (asserted by
``tests/test_ml_serialize.py`` and the registry round-trip tests).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "SerializationError",
    "STATE_SCHEMA",
    "encode",
    "decode",
    "encode_estimator",
    "decode_estimator",
    "save_estimator",
    "load_estimator",
    "save_payload",
    "load_payload",
]

#: Schema tag written into every artifact; bumped on layout changes.
#: v2 added the ``__tree_table__`` compiled inference tables
#: (:mod:`repro.ml.compiled`); v3 pools the arrays (module docstring).
STATE_SCHEMA = "repro-ml-state/v3"


class SerializationError(RuntimeError):
    """Raised on un-encodable objects or corrupt/unknown artifacts."""


# ---------------------------------------------------------------------------
# Class registry
# ---------------------------------------------------------------------------


def _estimator_classes() -> Dict[str, type]:
    """Name → class map of every serializable estimator (lazy import)."""
    from .boosting import GradientBoostingClassifier, GradientBoostingRegressor
    from .cnn import SimpleCNNClassifier
    from .forest import RandomForestClassifier, RandomForestRegressor
    from .mlp import (
        MLPClassifier,
        MLPEnsembleClassifier,
        MLPEnsembleRegressor,
        MLPRegressor,
    )
    from .preprocessing import LabelEncoder, Log1pTransformer, Pipeline, StandardScaler
    from .svm import SVC, SVR
    from .tree import DecisionTreeClassifier, DecisionTreeRegressor

    classes = (
        DecisionTreeClassifier,
        DecisionTreeRegressor,
        GradientBoostingClassifier,
        GradientBoostingRegressor,
        RandomForestClassifier,
        RandomForestRegressor,
        MLPClassifier,
        MLPRegressor,
        MLPEnsembleClassifier,
        MLPEnsembleRegressor,
        SVC,
        SVR,
        SimpleCNNClassifier,
        StandardScaler,
        Log1pTransformer,
        LabelEncoder,
        Pipeline,
    )
    return {cls.__name__: cls for cls in classes}


# ---------------------------------------------------------------------------
# Tree-structure flattening
# ---------------------------------------------------------------------------
# CART nodes pack into two arrays (preorder):
#   meta   (n, 5)  = [feature, threshold, left, right, n_samples]
#   values (n, d)  = leaf/internal value vectors
# Boosting nodes pack into one (n, 5) array:
#   [feature, threshold, weight, left, right]
# and all trees of one ensemble stack into one (ΣM, 5) array, tree t
# owning rows offsets[t]:offsets[t + 1].
# Child indices are preorder positions within the tree; -1 marks a leaf.
# Integers below 2**53 and float64 payloads survive the float64 packing
# exactly.


def _flatten_cart(root) -> Tuple[np.ndarray, np.ndarray]:
    meta: List[List[float]] = []
    values: List[np.ndarray] = []

    def visit(node) -> int:
        i = len(meta)
        meta.append([float(node.feature), float(node.threshold), -1.0, -1.0,
                     float(node.n_samples)])
        values.append(np.asarray(node.value, dtype=np.float64))
        if not node.is_leaf:
            meta[i][2] = float(visit(node.left))
            meta[i][3] = float(visit(node.right))
        return i

    visit(root)
    return np.array(meta, dtype=np.float64), np.vstack(values)


def _rebuild_cart(meta: np.ndarray, values: np.ndarray):
    from .tree import _Node

    def build(i: int):
        feature, threshold, left, right, n_samples = meta[i]
        node = _Node(
            feature=int(feature),
            threshold=float(threshold),
            value=values[i].copy(),
            n_samples=int(n_samples),
        )
        if node.feature >= 0:
            node.left = build(int(left))
            node.right = build(int(right))
        return node

    return build(0)


def _flatten_boost(roots) -> Tuple[np.ndarray, np.ndarray]:
    """Node rows of every tree, stacked, and the per-tree row offsets."""
    rows: List[List[float]] = []
    offsets = [0]
    for root in roots:
        base = len(rows)
        stack = [(root, -1, 0)]
        while stack:  # preorder: the left child is popped first
            node, parent, side = stack.pop()
            i = len(rows)
            if parent >= 0:
                rows[parent][side] = i - base
            rows.append([node.feature, node.threshold, node.weight, -1, -1])
            if node.feature >= 0:
                stack.append((node.right, i, 4))
                stack.append((node.left, i, 3))
        offsets.append(len(rows))
    return (np.array(rows, dtype=np.float64).reshape(-1, 5),
            np.array(offsets, dtype=np.int64))


def _rebuild_boost(rows: np.ndarray, offsets: np.ndarray) -> list:
    """Root node of each tree packed by :func:`_flatten_boost`."""
    from .boosting import _BNode

    table = rows.tolist()
    bounds = offsets.tolist()
    roots = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if not 0 <= start < stop <= len(table):
            raise SerializationError(
                f"boosting tree rows {start}:{stop} outside {len(table)} nodes")
        nodes = [_BNode(feature=int(f), threshold=t, weight=w)
                 for f, t, w, _, _ in table[start:stop]]
        for node, (_, _, _, left, right) in zip(nodes, table[start:stop]):
            if node.feature >= 0:
                node.left = nodes[int(left)]
                node.right = nodes[int(right)]
        roots.append(nodes[0])
    return roots


def _boost_grid(obj: list) -> Optional[Tuple[list, List[int]]]:
    """``(trees, shape)`` when ``obj`` is a list of boosting trees, or a
    list of equally long lists of them (the classifier's rounds)."""
    from .boosting import _BoostTree

    if all(isinstance(t, _BoostTree) for t in obj):
        return obj, [len(obj)]
    if all(isinstance(r, list) and r and len(r) == len(obj[0]) for r in obj):
        flat = [t for r in obj for t in r]
        if all(isinstance(t, _BoostTree) for t in flat):
            return flat, [len(obj), len(obj[0])]
    return None


def _rebuild_boost_trees(nodes, offsets, gain, splits, params: list,
                         shape: List[int]):
    """Inverse of ``_Encoder._boost_trees``: the trees in ``shape``."""
    from .boosting import _BoostTree

    roots = _rebuild_boost(nodes, offsets)
    n = len(roots)
    if len(params) == 1:
        params = params * n
    if not (len(params) == n == len(gain) == len(splits)
            and int(np.prod(shape)) == n):
        raise SerializationError(
            f"boosting record of shape {shape} holds {n} trees, "
            f"{len(params)} parameter rows, {len(gain)} gain rows")
    trees = []
    for root, p, g, sp in zip(roots, params, gain, splits):
        # Slot 4 is reserved: builds that had a ``presort`` knob stored it.
        max_depth, reg_lambda, gamma, min_child_weight, _, n_features = p
        tree = _BoostTree(int(max_depth), float(reg_lambda), float(gamma),
                          float(min_child_weight))
        tree.n_features = int(n_features)
        tree.root = root
        tree.gain_by_feature = g
        tree.splits_by_feature = sp
        trees.append(tree)
    if not shape:
        return trees[0]
    if len(shape) == 1:
        return trees
    k = shape[1]
    return [trees[i:i + k] for i in range(0, n, k)]


# ---------------------------------------------------------------------------
# Recursive value codec
# ---------------------------------------------------------------------------


class _Encoder:
    """Walks an object graph, spilling arrays into a flat dict."""

    def __init__(self) -> None:
        self.arrays: Dict[str, np.ndarray] = {}

    def _array_ref(self, arr: np.ndarray) -> Dict[str, str]:
        key = f"a{len(self.arrays)}"
        self.arrays[key] = np.ascontiguousarray(arr)
        return {"__nd__": key}

    def encode(self, obj: Any) -> Any:
        from .base import BaseEstimator
        from .boosting import _BoostTree
        from .compiled import TreeTable
        from .tree import _Node

        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return self._array_ref(obj)
        if isinstance(obj, tuple):
            return {"__tuple__": [self.encode(v) for v in obj]}
        if isinstance(obj, list):
            grid = _boost_grid(obj) if obj else None
            if grid is not None:
                return self._boost_trees(*grid)
            return [self.encode(v) for v in obj]
        if isinstance(obj, dict):
            return {"__map__": [[self.encode(k), self.encode(v)]
                                for k, v in obj.items()]}
        if isinstance(obj, BaseEstimator):
            return self.encode_estimator(obj)
        if isinstance(obj, _Node):
            meta, values = _flatten_cart(obj)
            return {"__cart__": [self._array_ref(meta), self._array_ref(values)]}
        if isinstance(obj, _BoostTree):
            return self._boost_trees([obj], [])
        if isinstance(obj, TreeTable):
            # Persisting the table lets registry loads serve straight
            # from the artifact without re-lowering the node graphs.
            return {
                "__tree_table__": {
                    "feature": self._array_ref(obj.feature),
                    "threshold": self._array_ref(obj.threshold),
                    "left": self._array_ref(obj.left),
                    "right": self._array_ref(obj.right),
                    "values": self._array_ref(obj.values),
                    "max_depth": int(obj.max_depth),
                }
            }
        raise SerializationError(
            f"cannot serialize object of type {type(obj).__name__}"
        )

    def _boost_trees(self, trees: list, shape: List[int]) -> Dict[str, Any]:
        """One record for a whole grid of boosting trees."""
        try:
            # Slot 4 stays ``True``, the value builds with a ``presort``
            # knob expect, so they still read what this build writes.
            params = [[t.max_depth, t.reg_lambda, t.gamma, t.min_child_weight,
                       True, int(t.n_features)] for t in trees]
            gain = np.stack([t.gain_by_feature for t in trees])
            splits = np.stack([t.splits_by_feature for t in trees])
        except (AttributeError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"cannot serialize boosting trees: {exc}") from None
        nodes, offsets = _flatten_boost([t.root for t in trees])
        return {
            "__boost_trees__": {
                "shape": shape,
                # One entry when every tree shares its parameters.
                "params": params[:1] if params.count(params[0]) == len(params)
                else params,
                "nodes": self._array_ref(nodes),
                "offsets": self._array_ref(offsets),
                "gain": self._array_ref(gain),
                "splits": self._array_ref(splits),
            }
        }

    def encode_estimator(self, est) -> Dict[str, Any]:
        from .preprocessing import Pipeline

        name = type(est).__name__
        if name not in _estimator_classes():
            raise SerializationError(f"unknown estimator class {name!r}")
        if isinstance(est, Pipeline):
            # get_params() deliberately clones steps (unfitted); a
            # pipeline artifact must instead carry its *fitted* steps.
            return {
                "__est__": "Pipeline",
                "steps": [[n, self.encode_estimator(s)] for n, s in est.steps],
            }
        return {
            "__est__": name,
            "params": self.encode(dict(est.get_params())),
            "state": self.encode(est.get_state()),
        }


class _Decoder:
    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        self.arrays = arrays

    def _deref(self, ref: Dict[str, str]) -> np.ndarray:
        try:
            return self.arrays[ref["__nd__"]]
        except KeyError as exc:
            raise SerializationError(f"missing array payload {exc}") from None

    def decode(self, obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, list):
            return [self.decode(v) for v in obj]
        if not isinstance(obj, dict):
            raise SerializationError(f"malformed structure node: {obj!r}")
        if "__nd__" in obj:
            return self._deref(obj)
        if "__tuple__" in obj:
            return tuple(self.decode(v) for v in obj["__tuple__"])
        if "__map__" in obj:
            return {self.decode(k): self.decode(v) for k, v in obj["__map__"]}
        if "__est__" in obj:
            return self.decode_estimator(obj)
        if "__cart__" in obj:
            meta_ref, values_ref = obj["__cart__"]
            return _rebuild_cart(self._deref(meta_ref), self._deref(values_ref))
        if "__boost_trees__" in obj:
            spec = obj["__boost_trees__"]
            return _rebuild_boost_trees(
                *(self._deref(spec[k]) for k in ("nodes", "offsets", "gain", "splits")),
                spec["params"], spec["shape"])
        if "__boost_tree__" in obj:  # v2: one record per tree
            spec = obj["__boost_tree__"]
            nodes = self._deref(spec["nodes"])
            return _rebuild_boost_trees(
                nodes, np.array([0, len(nodes)]), self._deref(spec["gain"])[None],
                self._deref(spec["splits"])[None],
                [spec["params"] + [spec["n_features"]]], [])
        if "__tree_table__" in obj:
            from .compiled import TreeTable

            spec = obj["__tree_table__"]
            return TreeTable(
                self._deref(spec["feature"]),
                self._deref(spec["threshold"]),
                self._deref(spec["left"]),
                self._deref(spec["right"]),
                self._deref(spec["values"]),
                int(spec["max_depth"]),
            )
        raise SerializationError(f"unrecognised structure tag: {sorted(obj)}")

    def decode_estimator(self, obj: Dict[str, Any]):
        from .preprocessing import Pipeline

        name = obj["__est__"]
        classes = _estimator_classes()
        if name not in classes:
            raise SerializationError(f"unknown estimator class {name!r}")
        if name == "Pipeline":
            return Pipeline([[n, self.decode_estimator(s)]
                             for n, s in obj["steps"]])
        cls = classes[name]
        params = self.decode(obj["params"])
        params.pop("presort", None)  # a retired knob older artifacts store
        est = cls(**params)
        est.set_state(self.decode(obj["state"]))
        return est


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def encode(obj: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Encode an object graph → (JSON-safe structure, array payloads)."""
    enc = _Encoder()
    structure = enc.encode(obj)
    return structure, enc.arrays


def decode(structure: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`encode`."""
    return _Decoder(arrays).decode(structure)


def encode_estimator(est) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Encode one fitted estimator (convenience wrapper)."""
    enc = _Encoder()
    structure = enc.encode_estimator(est)
    return structure, enc.arrays


def decode_estimator(structure: Any, arrays: Dict[str, np.ndarray]):
    """Inverse of :func:`encode_estimator`."""
    return _Decoder(arrays).decode_estimator(structure)


def _pack(arrays: Dict[str, np.ndarray]
          ) -> Tuple[Dict[str, list], Dict[str, np.ndarray]]:
    """Pool the arrays: one flat array per dtype, plus the index
    mapping each key to ``[pool, offset, length, shape]``."""
    names: Dict[str, str] = {}
    parts: Dict[str, List[np.ndarray]] = {}
    sizes: Dict[str, int] = {}
    index: Dict[str, list] = {}
    for key, arr in arrays.items():
        if arr.dtype.hasobject:
            raise SerializationError(f"cannot serialize object array {key!r}")
        pool = names.setdefault(arr.dtype.str, f"pool{len(names)}")
        offset = sizes.get(pool, 0)
        parts.setdefault(pool, []).append(arr.reshape(-1))
        sizes[pool] = offset + arr.size
        index[key] = [pool, offset, arr.size, list(arr.shape)]
    return index, {pool: np.concatenate(p) for pool, p in parts.items()}


def _is_count(v: Any) -> bool:
    return type(v) is int and v >= 0


def _unpack(index: Any, pools: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`_pack`; checks every entry before slicing."""
    if not isinstance(index, dict):
        raise SerializationError("malformed pool index")
    arrays = {}
    for key, entry in index.items():
        try:
            pool, offset, length, shape = entry
            shape = tuple(shape)
        except (TypeError, ValueError):
            raise SerializationError(
                f"malformed index entry for array {key!r}: {entry!r}") from None
        if pool not in pools:
            raise SerializationError(f"array {key!r} refers to missing pool {pool!r}")
        data = pools[pool]
        if not (_is_count(offset) and _is_count(length)
                and all(_is_count(d) for d in shape)):
            raise SerializationError(
                f"malformed index entry for array {key!r}: {entry!r}")
        if data.ndim != 1 or offset + length > data.size:
            raise SerializationError(
                f"array {key!r} overruns pool {pool!r}: "
                f"{offset}+{length} > {data.size}")
        if int(np.prod(shape)) != length:
            raise SerializationError(
                f"array {key!r} of shape {list(shape)} cannot hold {length} elements")
        arrays[key] = data[offset:offset + length].reshape(shape)
    return arrays


def _write_npz(path, structure: Any, arrays: Dict[str, np.ndarray],
               schema: str) -> None:
    index, pools = _pack(arrays)
    header = json.dumps({"schema": schema, "root": structure, "index": index})
    # Through a handle: given a path, numpy appends ".npz" when it lacks
    # that suffix, and the artifact would not be where the caller looks.
    with open(path, "wb") as fh:
        np.savez_compressed(fh, __state__=np.array(header), **pools)


def _read_npz(path, schema: str) -> Tuple[Any, Dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            header = json.loads(str(z["__state__"][()]))
            members = {k: z[k] for k in z.files if k != "__state__"}
    except Exception as exc:
        raise SerializationError(f"unreadable artifact {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise SerializationError(f"malformed artifact header in {path}")
    found = header.get("schema")
    if "index" not in header:
        # v2 layout: one member per array, keyed as the structure refers.
        if found != schema.rpartition("/")[0] + "/v2":
            raise SerializationError(
                f"unsupported artifact schema {found!r}; expected {schema!r}")
        return header.get("root"), members
    if found != schema:
        raise SerializationError(
            f"unsupported artifact schema {found!r}; expected {schema!r}")
    return header.get("root"), _unpack(header["index"], members)


def _load(path, schema: str, decoder):
    structure, arrays = _read_npz(path, schema)
    try:
        return decoder(structure, arrays)
    except (LookupError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed artifact {path}: {exc}") from exc


def save_estimator(est, path) -> None:
    """Serialise a fitted estimator to one ``.npz`` artifact."""
    structure, arrays = encode_estimator(est)
    _write_npz(path, structure, arrays, STATE_SCHEMA)


def load_estimator(path):
    """Load an estimator saved by :func:`save_estimator`.

    Raises :class:`SerializationError` on schema mismatches or corrupt
    payloads; never unpickles.
    """
    return _load(path, STATE_SCHEMA, decode_estimator)


def save_payload(payload: Any, path, *, schema: str = STATE_SCHEMA) -> None:
    """Serialise any encodable object graph to one ``.npz`` artifact.

    The generic sibling of :func:`save_estimator`: ``payload`` may be a
    dict of metadata wrapping one or more nested estimators (what the
    model registry and the core wrappers' ``save`` methods write).  A
    distinct ``schema`` tag namespaces artifact kinds — loading demands
    the same tag back (or its ``/v2`` sibling in the v2 layout).
    """
    structure, arrays = encode(payload)
    _write_npz(path, structure, arrays, schema)


def load_payload(path, *, schema: str = STATE_SCHEMA) -> Any:
    """Load an object graph saved by :func:`save_payload`.

    Raises :class:`SerializationError` on schema mismatches or corrupt
    payloads; never unpickles.
    """
    return _load(path, schema, decode)
