"""Versioned on-disk model registry.

Layout (one directory per model name, one per version)::

    <root>/
      <name>/
        v0001/
          artifact.npz   # pure-numpy model state (repro.ml.serialize)
          meta.json      # metadata + sha256 checksum of artifact.npz
        v0002/
          ...
        PRODUCTION       # version id promoted to production (optional)
        PROMOTIONS.jsonl # audit trail of promote/rollback moves

Artifacts wrap either a fitted :class:`~repro.core.selector.FormatSelector`
(``kind="selector"``) or a :class:`~repro.core.predictor.PerformancePredictor`
(``kind="predictor"``).  ``meta.json`` records the feature set, format
vocabulary, device/precision provenance, the training-dataset content
digest, the artifact schema version and an integrity checksum; loading
verifies schema and checksum before decoding and raises
:class:`RegistryError` on any mismatch — a corrupt or tampered artifact
can never be served silently.

Saves are crash-consistent.  A new version is written into a hidden
``.staging-vNNNN-*`` directory (which no version name matches, so every
reader ignores it), its two files and the directory are fsynced, and
one rename publishes it as ``vNNNN``; the model directory is fsynced
after.  ``PRODUCTION`` is replaced through a temp file and
``os.replace``.  An interrupted save thus leaves the visible registry
as it was.  Artifacts use the pooled v3 layout of
:mod:`repro.ml.serialize`; v2 artifacts still load.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import re
import shutil
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.predictor import PerformancePredictor
from ..core.selector import FormatSelector
from ..features import FEATURE_SETS
from ..ml.serialize import SerializationError, load_payload, save_payload

__all__ = ["ModelRegistry", "ModelRecord", "RegistryError", "ARTIFACT_SCHEMA"]

#: Artifact schema tag written by this build.  v3 pools the arrays
#: into a few ``.npz`` members (see :mod:`repro.ml.serialize`); v2
#: artifacts, one member per array, are still read.
ARTIFACT_SCHEMA = "repro-serve-artifact/v3"

#: Schema tags this build accepts when loading.
_READABLE_SCHEMAS = (ARTIFACT_SCHEMA, "repro-serve-artifact/v2")

_VERSION_RE = re.compile(r"^v(\d{4,})$")


class RegistryError(RuntimeError):
    """Raised on missing models, corrupt artifacts or schema mismatches."""


@dataclass(frozen=True)
class ModelRecord:
    """One registry entry (a model version on disk)."""

    name: str
    version: str
    path: Path
    meta: Dict = field(compare=False)

    @property
    def kind(self) -> str:
        return self.meta.get("kind", "?")

    def describe(self) -> str:
        m = self.meta
        return (
            f"{self.name}:{self.version} [{self.kind}] model={m.get('model_name')} "
            f"features={m.get('feature_set')} device={m.get('device')}"
            f"/{m.get('precision')} created={m.get('created')}"
        )


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _fsync(path: Path) -> None:
    """Flush a file's data, or a directory's entries, to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_synced(path: Path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _hidden(parent: Path, stem: str) -> Path:
    """A fresh dot-name in ``parent`` (default permissions, unlike
    ``tempfile``'s owner-only ones)."""
    return parent / f".{stem}-{uuid.uuid4().hex[:12]}"


def _replace_text(path: Path, text: str) -> None:
    """Swap ``path``'s content atomically: a temp file, then ``os.replace``."""
    tmp = _hidden(path.parent, path.name)
    try:
        _write_synced(tmp, text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync(path.parent)


def feature_names(feature_set) -> Tuple[str, ...]:
    """The ordered feature names of a feature-set name or sequence."""
    if isinstance(feature_set, str):
        return tuple(FEATURE_SETS[feature_set])
    return tuple(feature_set)


def _model_kind(model) -> str:
    if isinstance(model, FormatSelector):
        return "selector"
    if isinstance(model, PerformancePredictor):
        return "predictor"
    raise RegistryError(
        f"registry stores FormatSelector or PerformancePredictor, "
        f"got {type(model).__name__}"
    )


class ModelRegistry:
    """Save, load, list and promote versioned selection models."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- paths -------------------------------------------------------------

    def _model_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise RegistryError(f"invalid model name {name!r}")
        return self.root / name

    def versions(self, name: str) -> List[str]:
        """Sorted version ids of one model (empty if unknown)."""
        mdir = self._model_dir(name)
        if not mdir.is_dir():
            return []
        found = []
        for child in mdir.iterdir():
            if child.is_dir() and _VERSION_RE.match(child.name):
                found.append(child.name)
        return sorted(found)

    # -- save --------------------------------------------------------------

    def save(
        self,
        model,
        name: str,
        *,
        dataset=None,
        extra_meta: Optional[Dict] = None,
        promote: bool = False,
    ) -> ModelRecord:
        """Persist a fitted model as the next version of ``name``.

        Parameters
        ----------
        model:
            A fitted :class:`FormatSelector` or :class:`PerformancePredictor`.
        dataset:
            Optional :class:`~repro.core.dataset.SpMVDataset` the model was
            trained on; records its content digest and device/precision.
        extra_meta:
            Extra JSON-able key/values merged into ``meta.json``.
        promote:
            Also mark the new version as the production alias.
        """
        kind = _model_kind(model)
        if not hasattr(model, "formats_"):
            raise RegistryError(
                f"cannot save an unfitted {type(model).__name__}; call .fit first"
            )
        versions = self.versions(name)
        next_id = 1 + (int(_VERSION_RE.match(versions[-1]).group(1))
                       if versions else 0)
        version = f"v{next_id:04d}"
        mdir = self._model_dir(name)
        mdir.mkdir(parents=True, exist_ok=True)
        # Write the version into a hidden staging directory, then publish
        # it with one rename: a crash before the rename leaves no
        # half-written version, only a directory every reader ignores.
        stage = _hidden(mdir, f"staging-{version}")
        stage.mkdir()
        try:
            meta = self._write_version(model, kind, name, version, stage,
                                       dataset, extra_meta)
            vdir = mdir / version
            try:
                os.rename(stage, vdir)
            except OSError as exc:
                raise RegistryError(
                    f"cannot publish {name}:{version}: {exc}") from exc
        except BaseException:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        _fsync(mdir)
        record = ModelRecord(name=name, version=version, path=vdir, meta=meta)
        if promote:
            self.promote(name, version)
        return record

    def _write_version(self, model, kind: str, name: str, version: str,
                       vdir: Path, dataset, extra_meta: Optional[Dict]) -> Dict:
        """Write ``artifact.npz`` and ``meta.json`` into ``vdir`` and
        flush both (and the directory) to disk; returns the metadata."""
        payload = {"kind": kind, "wrapper": model.get_state()}
        artifact = vdir / "artifact.npz"
        try:
            save_payload(payload, artifact, schema=ARTIFACT_SCHEMA)
        except SerializationError as exc:
            raise RegistryError(f"cannot serialize model: {exc}") from exc
        _fsync(artifact)
        formats = getattr(model, "formats_", None)
        names = feature_names(model.feature_set)
        meta = {
            "schema": ARTIFACT_SCHEMA,
            "name": name,
            "version": version,
            "kind": kind,
            "model_name": model.model_name,
            "feature_set": model.feature_set
            if isinstance(model.feature_set, str) else list(model.feature_set),
            "feature_names": list(names),
            "n_features": len(names),
            "formats": None if formats is None else list(formats),
            "dtype": "float64",
            "device": getattr(dataset, "device", None),
            "precision": getattr(dataset, "precision", None),
            "dataset_digest": dataset.digest() if dataset is not None else None,
            "n_train": len(dataset) if dataset is not None else None,
            "created": _dt.datetime.now(_dt.timezone.utc).isoformat(
                timespec="seconds"),
            "checksum": _sha256(artifact),
        }
        if extra_meta:
            meta.update(extra_meta)
        _write_synced(vdir / "meta.json",
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")
        _fsync(vdir)
        return meta

    # -- load --------------------------------------------------------------

    def resolve(self, name: str, version: Optional[str] = None) -> str:
        """Resolve ``version`` (``None`` → production alias, else latest)."""
        versions = self.versions(name)
        if not versions:
            raise RegistryError(f"unknown model {name!r} under {self.root}")
        if version is None or version in ("production", "prod"):
            prod = self.production_version(name)
            if prod is not None:
                return prod
            if version in ("production", "prod"):
                raise RegistryError(f"model {name!r} has no production version")
            return versions[-1]
        if version == "latest":
            return versions[-1]
        if version not in versions:
            raise RegistryError(
                f"model {name!r} has no version {version!r}; "
                f"available: {versions}"
            )
        return version

    def record(self, name: str, version: Optional[str] = None) -> ModelRecord:
        """Load and validate one version's metadata (no artifact decode)."""
        version = self.resolve(name, version)
        vdir = self._model_dir(name) / version
        meta_path = vdir / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise RegistryError(f"unreadable metadata {meta_path}: {exc}") from exc
        if meta.get("schema") not in _READABLE_SCHEMAS:
            raise RegistryError(
                f"{name}:{version} has artifact schema {meta.get('schema')!r}; "
                f"this build reads {_READABLE_SCHEMAS!r}"
            )
        return ModelRecord(name=name, version=version, path=vdir, meta=meta)

    def load(self, name: str, version: Optional[str] = None):
        """Load a model; returns ``(model, record)``.

        Verifies the schema version and the sha256 checksum of the
        artifact before decoding; raises :class:`RegistryError` if the
        artifact was corrupted, truncated or written by an unknown
        schema.
        """
        record = self.record(name, version)
        artifact = record.path / "artifact.npz"
        if not artifact.exists():
            raise RegistryError(f"missing artifact {artifact}")
        checksum = _sha256(artifact)
        if checksum != record.meta.get("checksum"):
            raise RegistryError(
                f"checksum mismatch for {name}:{record.version} "
                f"(artifact corrupted or tampered with)"
            )
        try:
            payload = load_payload(artifact, schema=ARTIFACT_SCHEMA)
        except SerializationError as exc:
            raise RegistryError(f"cannot load {artifact}: {exc}") from exc
        kind = payload.get("kind")
        if kind == "selector":
            model = FormatSelector.from_state(payload["wrapper"])
        elif kind == "predictor":
            model = PerformancePredictor.from_state(payload["wrapper"])
        else:
            raise RegistryError(f"unknown artifact kind {kind!r}")
        return model, record

    # -- listing / promotion ------------------------------------------------

    def list(self, name: Optional[str] = None) -> List[ModelRecord]:
        """Records of every version (of one model, or the whole registry)."""
        names = [name] if name is not None else sorted(
            p.name for p in self.root.iterdir() if p.is_dir()
        ) if self.root.is_dir() else []
        records = []
        for n in names:
            for v in self.versions(n):
                records.append(self.record(n, v))
        return records

    def production_version(self, name: str) -> Optional[str]:
        """Version id promoted to production, or ``None``."""
        alias = self._model_dir(name) / "PRODUCTION"
        if not alias.exists():
            return None
        version = alias.read_text().strip()
        if version not in self.versions(name):
            raise RegistryError(
                f"production alias of {name!r} points at missing version "
                f"{version!r}"
            )
        return version

    def promote(
        self,
        name: str,
        version: str,
        *,
        action: str = "promote",
        reason: Optional[str] = None,
        stats: Optional[Dict] = None,
    ) -> ModelRecord:
        """Mark ``version`` as the production model for ``name``.

        Every call appends one audit record to the model's
        ``PROMOTIONS.jsonl`` — who moved the alias, from what to what,
        why, and (for gated auto-promotions) the shadow-evaluation
        stats that justified it.  ``action`` distinguishes forward
        promotions from ``"rollback"`` moves; the returned record
        carries the audit entry under ``meta["promotion"]``.
        """
        versions = self.versions(name)
        if version not in versions:
            raise RegistryError(
                f"cannot promote {name}:{version}; available: {versions}"
            )
        previous = self.production_version(name)
        _replace_text(self._model_dir(name) / "PRODUCTION", version + "\n")
        entry = {
            "ts": _dt.datetime.now(_dt.timezone.utc).isoformat(
                timespec="seconds"),
            "action": action,
            "name": name,
            "version": version,
            "previous": previous,
        }
        if reason is not None:
            entry["reason"] = reason
        if stats is not None:
            entry["stats"] = stats
        with open(self._model_dir(name) / "PROMOTIONS.jsonl", "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        record = self.record(name, version)
        record.meta["promotion"] = entry
        return record

    def promotion_history(self, name: str) -> List[Dict]:
        """Audit trail of production-alias moves (oldest first).

        Parsed from ``PROMOTIONS.jsonl``; unreadable lines are skipped
        rather than poisoning the history.
        """
        path = self._model_dir(name) / "PROMOTIONS.jsonl"
        if not path.exists():
            return []
        entries = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
        return entries

    def rollback_target(self, name: str) -> Optional[str]:
        """The version production pointed at before its latest move
        (promotion or rollback), or ``None`` when there is none."""
        for entry in reversed(self.promotion_history(name)):
            if entry.get("action") in ("promote", "rollback"):
                return entry.get("previous")
        return None
