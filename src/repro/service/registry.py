"""Named, versioned registry of trained rule-based classifiers.

Layered directly on the :mod:`repro.classifiers.persistence` JSON format:
registering a model stores it in memory for serving and (when a root
directory is configured) writes the same ``save_classifier`` payload to
``<root>/<name>/v<version>.model.json``, so a restarted server warm
starts from disk into an identical registry.  Versions are dense
integers starting at 1; ``get(name)`` resolves to the newest version.

A model may carry a *pipeline* sidecar — the discretizer cuts, gene
names and class names written by ``repro classify --save`` — which lets
the server accept raw expression values on ``/classify`` and discretize
them on the way in.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

from ..classifiers.cba import CBAClassifier
from ..classifiers.persistence import (
    classifier_from_payload,
    classifier_to_payload,
)
from ..classifiers.rcbt import RCBTClassifier
from ..data.discretize import EntropyDiscretizer

__all__ = ["ModelRecord", "ModelRegistry"]

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

RuleModel = Union[CBAClassifier, RCBTClassifier]


@dataclass
class ModelRecord:
    """One registered model version."""

    name: str
    version: int
    kind: str
    model: RuleModel = field(repr=False)
    pipeline: Optional[dict] = field(default=None, repr=False)

    @cached_property
    def discretizer(self) -> EntropyDiscretizer:
        """The pipeline's discretizer, built on first use and then kept.

        Raises ``KeyError``/``ValueError``/``TypeError`` on a missing or
        malformed pipeline; nothing is kept then.
        """
        pipeline = self.pipeline
        return EntropyDiscretizer.from_cuts(
            {int(g): c for g, c in pipeline["cuts"].items()},
            pipeline["gene_names"],
            pipeline["class_names"],
        )

    def describe(self) -> dict:
        """JSON-safe summary for the ``/models`` endpoint."""
        return {
            "name": self.name,
            "version": self.version,
            "kind": self.kind,
            "has_pipeline": self.pipeline is not None,
        }


class ModelRegistry:
    """Thread-safe in-memory model store with optional disk persistence.

    Args:
        root: directory for persisted models.  When given, existing
            models under it are loaded immediately (warm start) and new
            registrations are written through.  ``None`` keeps the
            registry purely in memory.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self._lock = threading.RLock()
        self._models: dict[str, dict[int, ModelRecord]] = {}
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._warm_start()

    # -- registration ------------------------------------------------------

    def register(
        self,
        name: str,
        model: RuleModel,
        pipeline: Optional[dict] = None,
    ) -> ModelRecord:
        """Store a fitted classifier under ``name`` as a new version.

        Returns the created :class:`ModelRecord`.  Raises
        ``NotFittedError`` for untrained models and ``ValueError`` for
        unusable names.
        """
        payload = classifier_to_payload(model)  # validates fitted + kind
        return self._insert(name, model, payload["kind"], pipeline,
                            persist_payload=payload)

    def register_payload(
        self,
        name: str,
        payload: dict,
        pipeline: Optional[dict] = None,
    ) -> ModelRecord:
        """Store a model from its serialized payload (the wire format)."""
        model = classifier_from_payload(payload)
        return self._insert(name, model, payload["kind"], pipeline,
                            persist_payload=payload)

    def _insert(
        self,
        name: str,
        model: RuleModel,
        kind: str,
        pipeline: Optional[dict],
        persist_payload: dict,
    ) -> ModelRecord:
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"invalid model name {name!r}; use letters, digits, '_', "
                "'.' or '-'"
            )
        with self._lock:
            versions = self._models.setdefault(name, {})
            version = max(versions, default=0) + 1
            record = ModelRecord(
                name=name, version=version, kind=kind,
                model=model, pipeline=pipeline,
            )
            versions[version] = record
            if self.root is not None:
                self._persist(record, persist_payload)
            return record

    # -- lookup ------------------------------------------------------------

    def get(self, name: str, version: Optional[int] = None) -> ModelRecord:
        """The requested (or newest) version of a named model.

        Raises:
            KeyError: unknown name or version.
        """
        with self._lock:
            versions = self._models.get(name)
            if not versions:
                raise KeyError(f"unknown model {name!r}")
            if version is None:
                version = max(versions)
            record = versions.get(version)
            if record is None:
                raise KeyError(f"model {name!r} has no version {version}")
            return record

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def describe(self) -> list[dict]:
        """JSON-safe listing of every model version."""
        with self._lock:
            return [
                self._models[name][version].describe()
                for name in sorted(self._models)
                for version in sorted(self._models[name])
            ]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._models.values())

    # -- persistence -------------------------------------------------------

    def _model_path(self, name: str, version: int) -> Path:
        assert self.root is not None
        return self.root / name / f"v{version}.model.json"

    def _persist(self, record: ModelRecord, payload: dict) -> None:
        path = self._model_path(record.name, record.version)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        if record.pipeline is not None:
            sidecar = path.with_suffix("").with_suffix(".pipeline.json")
            sidecar.write_text(json.dumps(record.pipeline), encoding="utf-8")

    def _warm_start(self) -> None:
        assert self.root is not None
        for model_dir in sorted(self.root.iterdir()):
            if not model_dir.is_dir():
                continue
            name = model_dir.name
            if not _NAME_PATTERN.match(name):
                continue
            versions = self._models.setdefault(name, {})
            for path in sorted(model_dir.glob("v*.model.json")):
                try:
                    version = int(path.name.split(".", 1)[0][1:])
                except ValueError:
                    continue
                payload = json.loads(path.read_text(encoding="utf-8"))
                pipeline = None
                sidecar = path.with_suffix("").with_suffix(".pipeline.json")
                if sidecar.exists():
                    pipeline = json.loads(sidecar.read_text(encoding="utf-8"))
                versions[version] = ModelRecord(
                    name=name,
                    version=version,
                    kind=payload.get("kind", "unknown"),
                    model=classifier_from_payload(payload),
                    pipeline=pipeline,
                )
            if not versions:
                self._models.pop(name, None)
