"""The persistent, content-addressed experiment result store.

Results are stored as JSON, one file per :class:`ScenarioSpec`, keyed by the
spec's content hash.  Because the key is derived from *everything* that
determines the run (generator name and kwargs, policy, seed, config preset),
a cache hit is guaranteed to be the result the run would have produced —
across processes and across sessions — for a given version of the simulator.
Entries record the package version and are invalidated on mismatch; edits to
simulator code *between* version bumps are not detectable, so delete the
store (or bump ``repro.version``) when verifying behavioral changes.
Filenames keep a human-readable
``<policy>-seed<seed>-<hash>`` prefix under a per-scenario directory so the
store can be browsed and selectively deleted by hand.

Writes are atomic (temp file + ``os.replace``) so concurrent workers and
concurrent benchmark processes can share one store directory safely.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.experiments.scenarios import ScenarioSpec
from repro.metrics.collector import ExperimentResult
from repro.version import __version__

# Bump when the serialized result layout changes; mismatched entries are
# treated as misses (and rerun) rather than failing to deserialize.
# Version 2: the latency breakdown refers to the collector's task records
# by index instead of repeating each task's step latencies.
SCHEMA_VERSION = 2

DEFAULT_STORE_ENV = "REPRO_RESULTS_DIR"
DEFAULT_STORE_DIR = ".repro_results"


def default_store_root() -> Path:
    return Path(os.environ.get(DEFAULT_STORE_ENV, DEFAULT_STORE_DIR))


class ResultStore:
    """On-disk JSON store for :class:`ExperimentResult`, keyed by spec hash."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Layout.
    # ------------------------------------------------------------------
    def path_for(self, spec: ScenarioSpec) -> Path:
        filename = f"{spec.policy}-seed{spec.seed}-{spec.spec_hash()}.json"
        return self.root / spec.scenario / filename

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------
    def contains(self, spec: ScenarioSpec) -> bool:
        return self._read_payload(spec) is not None

    def load(self, spec: ScenarioSpec) -> Optional[ExperimentResult]:
        """The cached result for ``spec``, or ``None`` (counted as a miss)."""
        payload = self._read_payload(spec)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return ExperimentResult.from_dict(payload["result"])

    def save(self, spec: ScenarioSpec,
             result: Union[ExperimentResult, Dict[str, object]]) -> Path:
        """Atomically persist ``result`` under the spec's content hash."""
        result_dict = result.to_dict() if isinstance(result, ExperimentResult) \
            else result
        payload = {
            "schema_version": SCHEMA_VERSION,
            "repro_version": __version__,
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "result": result_dict,
        }
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def entries(self) -> Iterator[Tuple[ScenarioSpec, Path]]:
        """Iterate (spec, path) over every valid entry in the store."""
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.json")):
            payload = self._load_json(path)
            if payload is not None:
                yield ScenarioSpec.from_dict(payload["spec"]), path

    # ------------------------------------------------------------------
    # Artifacts (sidecar documents keyed by the same spec hash).
    # ------------------------------------------------------------------
    def artifact_path(self, spec: ScenarioSpec, kind: str) -> Path:
        """Where ``kind`` (e.g. ``"telemetry"``) lives for ``spec``.

        Artifacts sit next to the result entry as
        ``<policy>-seed<seed>-<hash>.<kind>.json``; their envelope has no
        ``result`` key, so :meth:`entries` and result loads skip them.
        """
        result_path = self.path_for(spec)
        return result_path.with_name(f"{result_path.stem}.{kind}.json")

    def save_artifact(self, spec: ScenarioSpec, kind: str,
                      artifact: Dict[str, object]) -> Path:
        """Atomically persist an auxiliary document (telemetry report,
        trace export, ...) alongside the spec's result entry."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "repro_version": __version__,
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "kind": kind,
            "artifact": artifact,
        }
        path = self.artifact_path(spec, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def load_artifact(self, spec: ScenarioSpec,
                      kind: str) -> Optional[Dict[str, object]]:
        """The stored artifact document for ``(spec, kind)``, or ``None``."""
        path = self.artifact_path(spec, kind)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        if payload.get("repro_version") != __version__:
            return None
        if payload.get("spec_hash") != spec.spec_hash():
            return None
        if payload.get("kind") != kind or "artifact" not in payload:
            return None
        return payload["artifact"]

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _read_payload(self, spec: ScenarioSpec) -> Optional[Dict[str, object]]:
        payload = self._load_json(self.path_for(spec))
        if payload is None or payload.get("spec_hash") != spec.spec_hash():
            return None
        return payload

    @staticmethod
    def _load_json(path: Path) -> Optional[Dict[str, object]]:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        # Entries written by an older package version are treated as misses:
        # the spec hash covers experiment *parameters*, not simulator code, so
        # this is the only automatic staleness guard.  Mid-version simulator
        # edits still require deleting the store (see EXPERIMENTS.md).
        if payload.get("repro_version") != __version__:
            return None
        if "spec" not in payload or "result" not in payload:
            return None
        return payload
