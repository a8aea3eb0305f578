"""The streaming front door: validate → commit → drift-check → refresh.

:class:`IngestPipeline` is what ``repro ingest`` and ``repro refresh
--watch`` drive: each incoming batch of graphs is structurally validated
(:class:`~repro.validate.DatasetValidator`, invalid graphs dropped and
counted under the configured policy), committed to the
:class:`DatasetStore` (crash-safe, idempotent), and scored against the
live model's training statistics by a :class:`DriftDetector`. A batch
whose drift crosses the refresh threshold marks a refresh as due; the
attached :class:`RefreshController` (if any) handles it — either
immediately in :meth:`watch` or whenever the operator runs
``repro refresh``.

``K_V`` drift needs the live generator; the pipeline lazily loads it
from the controller's registry (memoised per model name) and degrades
gracefully — before the first refresh there is no reference, so batches
commit without a drift verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..data.io import load_saved_dataset
from ..obs import current
from ..validate import DatasetValidator, ValidationError
from .drift import DriftDetector, DriftReport
from .refresh import RefreshController, read_live
from .store import DatasetStore

__all__ = ["IngestPipeline", "IngestReport"]


@dataclass
class IngestReport:
    """Outcome of one ingested batch."""

    version: int
    num_graphs: int
    dropped: int = 0
    created: bool = True          # False = duplicate batch, no new version
    drift: DriftReport | None = None
    action: str = "ok"            # "ok" | "warn" | "refresh" | "duplicate"

    @property
    def refresh_due(self) -> bool:
        return self.action == "refresh"

    def to_dict(self) -> dict:
        return {"version": self.version, "num_graphs": self.num_graphs,
                "dropped": self.dropped, "created": self.created,
                "action": self.action,
                "drift": self.drift.to_dict() if self.drift else None}


@dataclass
class _GeneratorCache:
    """Live generator, memoised per model name (checkpoint loads are slow)."""

    registry: object = None
    name: str | None = None
    generator: object = field(default=None, repr=False)

    def get(self, registry, name: str | None):
        if registry is None or name is None or name not in registry:
            return None
        if name != self.name:
            from ..serve import load_trainer

            self.registry = registry
            self.name = name
            self.generator = load_trainer(registry.path(name)).model.generator
        return self.generator


class IngestPipeline:
    """Validate, commit and drift-check streaming graph batches.

    Parameters
    ----------
    store:
        Destination :class:`DatasetStore`.
    controller:
        Optional :class:`RefreshController`; supplies the model registry
        for ``K_V`` drift and handles due refreshes in :meth:`watch`.
    policy:
        Validation policy: ``"drop"`` (default — invalid graphs are
        filtered and counted), ``"raise"`` or ``"warn"``.
    warn_threshold / refresh_threshold:
        Drift thresholds (see :class:`DriftDetector`).
    """

    def __init__(self, store: DatasetStore, *,
                 controller: RefreshController | None = None,
                 policy: str = "drop", warn_threshold: float = 0.5,
                 refresh_threshold: float = 2.0, observer=None):
        self.store = store
        self.controller = controller
        self.validator = DatasetValidator(policy=policy, observer=observer)
        self.warn_threshold = warn_threshold
        self.refresh_threshold = refresh_threshold
        self._observer = observer
        self._generator = _GeneratorCache()

    def _obs(self):
        return self._observer if self._observer is not None else current()

    # ------------------------------------------------------------------
    def _live_generator(self, live: dict | None):
        registry = self.controller.registry if self.controller else None
        return self._generator.get(registry,
                                   live["model"] if live else None)

    # ------------------------------------------------------------------
    def ingest(self, graphs, **append_kwargs) -> IngestReport:
        """Validate, commit and drift-score one batch of graphs."""
        graphs = list(graphs)
        report = self.validator.validate(graphs)
        dropped = 0
        if not report.ok:
            if self.validator.policy == "raise":
                raise ValidationError(report)
            if self.validator.policy == "drop":
                invalid = set(report.invalid_indices)
                graphs = [g for i, g in enumerate(graphs)
                          if i not in invalid]
                dropped = len(invalid)
                self._obs().increment("ingest/dropped_graphs", dropped)
        if not graphs:
            raise ValidationError(report)
        # One read of the live pointer per batch: a refresh going live
        # mid-ingest must not pair one model's K_V generator with another
        # model's drift reference.
        live = read_live(self.store.root)
        manifest, created = self.store.append(
            graphs, generator=self._live_generator(live), **append_kwargs)
        if not created:
            self._obs().increment("ingest/duplicate_batches")
            return IngestReport(version=manifest["version"],
                                num_graphs=len(graphs), dropped=dropped,
                                created=False, action="duplicate")
        drift = None
        action = "ok"
        reference = live["statistics"] if live else None
        if reference is not None:
            detector = DriftDetector(
                reference, warn_threshold=self.warn_threshold,
                refresh_threshold=self.refresh_threshold,
                observer=self._observer)
            drift = detector.check(manifest["statistics"])
            action = drift.status
        return IngestReport(version=manifest["version"],
                            num_graphs=len(graphs), dropped=dropped,
                            drift=drift, action=action)

    def ingest_file(self, path: str | Path, **append_kwargs) -> IngestReport:
        """Ingest a batch previously written by :func:`save_dataset`."""
        dataset = load_saved_dataset(path)
        return self.ingest(dataset.graphs, name=dataset.name,
                           num_classes=dataset.num_classes,
                           task=dataset.task, **append_kwargs)

    # ------------------------------------------------------------------
    def process_spool(self, spool_dir: str | Path) -> list[IngestReport]:
        """Ingest every ``*.npz`` batch in a spool directory, in name order.

        Processed files move to ``<spool>/ingested/`` *after* their
        batch commits — a crash mid-batch leaves the file in the spool
        and the next sweep re-ingests it (the store dedupes, so this is
        exactly-once end to end).
        """
        spool = Path(spool_dir)
        done = spool / "ingested"
        reports = []
        for path in sorted(spool.glob("*.npz")):
            reports.append(self.ingest_file(path))
            done.mkdir(parents=True, exist_ok=True)
            path.replace(done / path.name)
        return reports

    def watch(self, spool_dir: str | Path, *, interval: float = 5.0,
              max_cycles: int | None = None, refresh: bool = True,
              sleep=time.sleep) -> list[IngestReport]:
        """Poll a spool directory, ingesting and refreshing continuously.

        Each cycle sweeps the spool; if any batch crossed the refresh
        threshold (or the live model lags the store) and a controller is
        attached, a refresh runs before the next sleep. ``max_cycles``
        bounds the loop for tests/CLIs; ``sleep`` is injectable.
        """
        all_reports: list[IngestReport] = []
        cycles = 0
        while max_cycles is None or cycles < max_cycles:
            cycles += 1
            reports = self.process_spool(spool_dir)
            all_reports.extend(reports)
            if refresh and self.controller is not None \
                    and any(r.refresh_due for r in reports):
                self.controller.refresh()
            if max_cycles is None or cycles < max_cycles:
                sleep(interval)
        return all_reports
