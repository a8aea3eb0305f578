"""Append-only versioned dataset store with crash-safe commits.

A :class:`DatasetStore` turns a directory into a stream-ingestable,
versioned graph corpus:

    <root>/batches/batch-<fingerprint>.npz   content-addressed batch data
                                             (uncompressed ``.npz``)
    <root>/manifests/v000001.json            one manifest per version
    <root>/quarantine/                       corrupt/orphan files, kept

Every :meth:`append` writes the batch file first (content-addressed by
:func:`repro.obs.dataset_fingerprint`, so a retry after a crash rewrites
identical bytes), then atomically renames the version manifest into
place — **the manifest rename is the commit point**. Both writes go
through :func:`repro.data.io.atomic_write` with fsync-before-rename, so
a committed version survives power loss and a crash at any instant
leaves either the previous version or the new one, never a torn state.

Manifests form a hash chain: each carries its batch's content
fingerprint and a version fingerprint derived from the parent's, so
:meth:`resolve` can verify the whole lineage cheaply. Corrupt manifests
or batch files are moved to ``quarantine/`` (never deleted — they are
evidence) and resolution falls back to the newest intact version.
Re-ingesting a batch whose fingerprint is already in the chain is a
no-op by default (``dedupe=True``), which is what makes a crashed-and-
restarted ingest driver idempotent. Because batch files are
content-addressed, dedupe walks the chain only when the batch's file
already exists: with no file, no intact version can reference it, so a
new batch costs one manifest read, and a re-ingest of a batch whose file
went missing rewrites it and commits (repairing the versions that
reference it).

Graphs carry an identity: ``graph.meta["graph_id"]`` if present, else an
implicit ``"v<version>:<index>"``. A later batch may re-submit an id
with different content — :meth:`load` dedupes by id with the **latest
revision winning**, and :meth:`superseded_digests` lists exactly the old
digests a refresh must invalidate from serving caches (unchanged graphs
keep their warm entries).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from ..data import GraphDataset
from ..data.io import atomic_write, load_saved_dataset, save_dataset
from ..obs import current, dataset_fingerprint
from ..serve.service import graph_digest
from ..validate.faults import crash_point
from .drift import combine_statistics, corpus_statistics

__all__ = ["DatasetStore", "StoreCorruptionError"]

_FORMAT = 1
_GENESIS = "0" * 16


class StoreCorruptionError(RuntimeError):
    """A committed batch or manifest failed its integrity check."""


def _chain_fingerprint(parent_fingerprint: str, batch_fingerprint: str) -> str:
    digest = hashlib.sha256(
        f"{parent_fingerprint}:{batch_fingerprint}".encode())
    return digest.hexdigest()[:16]


class DatasetStore:
    """Versioned, append-only on-disk corpus (see module docstring)."""

    def __init__(self, root: str | Path, *, observer=None):
        self.root = Path(root)
        self.batches_dir = self.root / "batches"
        self.manifests_dir = self.root / "manifests"
        self.quarantine_dir = self.root / "quarantine"
        self._observer = observer

    def _obs(self):
        return self._observer if self._observer is not None else current()

    # ------------------------------------------------------------------
    # Paths and raw access
    # ------------------------------------------------------------------
    def manifest_path(self, version: int) -> Path:
        return self.manifests_dir / f"v{version:06d}.json"

    def batch_path(self, batch_fingerprint: str) -> Path:
        return self.batches_dir / f"batch-{batch_fingerprint}.npz"

    def versions(self) -> list[int]:
        """Committed version ids, ascending (unparseable names skipped)."""
        if not self.manifests_dir.is_dir():
            return []
        found = []
        for path in self.manifests_dir.glob("v*.json"):
            try:
                found.append(int(path.stem[1:]))
            except ValueError:
                continue
        return sorted(found)

    def manifest(self, version: int) -> dict:
        """Parsed manifest of ``version`` (raises on missing/corrupt)."""
        path = self.manifest_path(version)
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreCorruptionError(
                f"manifest {path} is missing or corrupt: {exc}") from exc
        if manifest.get("format") != _FORMAT \
                or manifest.get("version") != version:
            raise StoreCorruptionError(
                f"manifest {path} is inconsistent "
                f"(format={manifest.get('format')}, "
                f"version={manifest.get('version')})")
        return manifest

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        stamp = 0
        while target.exists():
            stamp += 1
            target = self.quarantine_dir / f"{path.name}.{stamp}"
        path.replace(target)
        self._obs().increment("ingest/quarantined")
        self._obs().event("quarantine", file=str(path), reason=reason)

    def recover(self) -> dict:
        """Quarantine files a crash may have left half-adopted.

        Orphan batch files (written but never referenced by a committed
        manifest — a crash between the batch write and the manifest
        rename) are quarantined; re-ingesting the same graphs rewrites
        identical bytes, so nothing is lost. Corrupt manifests at the
        head of the chain are quarantined by :meth:`resolve`; this
        method sweeps the batch side and reports both.
        """
        referenced = set()
        corrupt_manifests = []
        for version in self.versions():
            try:
                referenced.add(self.manifest(version)["batch"])
            except StoreCorruptionError:
                path = self.manifest_path(version)
                self._quarantine(path, "unreadable manifest")
                corrupt_manifests.append(path.name)
        orphans = []
        if self.batches_dir.is_dir():
            for path in sorted(self.batches_dir.glob("batch-*.npz")):
                if path.name not in referenced:
                    orphans.append(path.name)
                    self._quarantine(path, "orphan batch (no manifest)")
        return {"quarantined_batches": orphans,
                "quarantined_manifests": corrupt_manifests}

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def append(self, graphs, *, name: str = "stream",
               num_classes: int | None = None, task: str = "classification",
               generator=None, cache=None, workers: int | None = None,
               dedupe: bool = True) -> tuple[dict, bool]:
        """Commit ``graphs`` as a new version; returns ``(manifest, created)``.

        The batch's statistics accumulator (and, with a ``generator``,
        its ``K_V`` moments) is computed before anything touches disk,
        then: batch file write → manifest rename (the commit). If
        ``dedupe`` and the batch's content fingerprint already appears in
        the chain, the existing manifest is returned with
        ``created=False`` — re-running an interrupted ingest is
        therefore idempotent. The chain is walked only when the batch
        file exists; a batch whose file is missing commits anew.
        """
        graphs = list(graphs)
        if not graphs:
            raise ValueError("append requires at least one graph")
        batch_fp = dataset_fingerprint(graphs)
        batch_file = self.batch_path(batch_fp)
        versions = self.versions()
        parent_manifest = self.resolve(verify=False) if versions else None
        parent = parent_manifest["version"] if parent_manifest else 0
        if dedupe and parent_manifest is not None and batch_file.exists():
            for entry in self.chain(parent):
                if entry["batch_fingerprint"] == batch_fp:
                    return entry, False
        version = parent + 1
        parent_fp = parent_manifest["fingerprint"] if parent_manifest \
            else _GENESIS
        statistics = corpus_statistics(graphs, generator=generator,
                                       cache=cache, workers=workers)
        cumulative = statistics if parent_manifest is None else \
            combine_statistics(parent_manifest["cumulative_statistics"],
                               statistics)
        if num_classes is None:
            labels = [g.y for g in graphs if g.y is not None]
            num_classes = len({int(y) for y in labels
                               if isinstance(y, (int, float))}) or 1
        manifest = {
            "format": _FORMAT,
            "version": version,
            "parent": parent,
            "parent_fingerprint": parent_fp,
            "fingerprint": _chain_fingerprint(parent_fp, batch_fp),
            "batch": batch_file.name,
            "batch_fingerprint": batch_fp,
            "num_graphs": len(graphs),
            "total_graphs": (parent_manifest["total_graphs"]
                             if parent_manifest else 0) + len(graphs),
            "graphs": [
                {"id": str(g.meta.get("graph_id", f"v{version}:{i}")),
                 "digest": graph_digest(g)}
                for i, g in enumerate(graphs)],
            "statistics": statistics,
            "cumulative_statistics": cumulative,
            "name": name,
            "num_classes": num_classes,
            "task": task,
            "num_features": statistics["feature_dim"],
            "created": time.time(),
        }
        crash_point("ingest/before_batch_write")
        if not batch_file.exists():
            save_dataset(GraphDataset(name, graphs, num_classes, task),
                         batch_file)
        crash_point("ingest/batch_written")
        with atomic_write(self.manifest_path(version)) as tmp:
            tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        crash_point("ingest/committed")
        obs = self._obs()
        obs.increment("ingest/batches")
        obs.increment("ingest/graphs", len(graphs))
        obs.event("ingest_commit", version=version, graphs=len(graphs),
                  fingerprint=manifest["fingerprint"])
        return manifest, True

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def resolve(self, version: int | None = None, *,
                verify: bool = True) -> dict:
        """Newest intact manifest (or the one for ``version``).

        With ``verify`` the candidate's lineage is checked — every
        ancestor manifest must parse, parent links and the fingerprint
        chain must be consistent, and every referenced batch file must
        exist. A corrupt *head* is quarantined and resolution falls back
        to the previous version; a corrupt *interior* manifest means
        committed data is unreachable and raises
        :class:`StoreCorruptionError`.
        """
        versions = self.versions()
        if version is not None:
            if version not in versions:
                raise KeyError(f"no committed version {version} "
                               f"(have {versions})")
            candidates = [version]
        else:
            candidates = list(reversed(versions))
        last_error: Exception | None = None
        for candidate in candidates:
            try:
                manifest = self.manifest(candidate)
                if verify:
                    self._verify_chain(manifest)
            except StoreCorruptionError as exc:
                last_error = exc
                if version is None and candidate == max(versions):
                    head = self.manifest_path(candidate)
                    if head.exists():
                        try:
                            self.manifest(candidate)
                        except StoreCorruptionError:
                            self._quarantine(head, str(exc))
                continue
            return manifest
        if last_error is not None:
            raise StoreCorruptionError(
                f"no intact version found: {last_error}") from last_error
        raise FileNotFoundError(f"store {self.root} has no committed versions")

    def _verify_chain(self, manifest: dict) -> None:
        entry = manifest
        while True:
            if not self.batch_path(entry["batch_fingerprint"]).exists():
                raise StoreCorruptionError(
                    f"version {entry['version']} references missing batch "
                    f"{entry['batch']}")
            expected = _chain_fingerprint(entry["parent_fingerprint"],
                                          entry["batch_fingerprint"])
            if entry["fingerprint"] != expected:
                raise StoreCorruptionError(
                    f"version {entry['version']} fingerprint mismatch "
                    f"({entry['fingerprint']} != {expected})")
            if entry["parent"] == 0:
                if entry["parent_fingerprint"] != _GENESIS:
                    raise StoreCorruptionError(
                        f"version {entry['version']} claims genesis with "
                        f"parent fingerprint {entry['parent_fingerprint']}")
                return
            parent = self.manifest(entry["parent"])
            if parent["fingerprint"] != entry["parent_fingerprint"]:
                raise StoreCorruptionError(
                    f"version {entry['version']} parent fingerprint does "
                    f"not match version {parent['version']}")
            entry = parent

    def chain(self, version: int) -> list[dict]:
        """Manifests from version 1 up to ``version``, in commit order."""
        entries = []
        entry = self.manifest(version)
        while True:
            entries.append(entry)
            if entry["parent"] == 0:
                break
            entry = self.manifest(entry["parent"])
        return list(reversed(entries))

    def _load_batch(self, entry: dict) -> list:
        path = self.batch_path(entry["batch_fingerprint"])
        try:
            graphs = load_saved_dataset(path).graphs
        except Exception as exc:  # noqa: BLE001 — any unreadable batch is corrupt
            self._quarantine(path, f"unreadable batch: {exc}")
            raise StoreCorruptionError(
                f"batch {path.name} of version {entry['version']} is "
                f"unreadable; quarantined") from exc
        if dataset_fingerprint(graphs) != entry["batch_fingerprint"]:
            self._quarantine(path, "batch content fingerprint mismatch")
            raise StoreCorruptionError(
                f"batch {path.name} content does not match its committed "
                f"fingerprint; quarantined")
        return graphs

    def load(self, version: int | None = None, *,
             window: int | None = None, verify: bool = True) -> GraphDataset:
        """Materialise a version as a :class:`GraphDataset`.

        Batches are loaded in commit order and deduplicated by graph id
        (**latest revision wins**), so re-submitted graphs appear once,
        with their newest content. ``window`` keeps only the last N
        batches — the "new + recent old data" a refresh fine-tunes on.
        Every loaded batch is re-fingerprinted; silent corruption
        quarantines the file and raises :class:`StoreCorruptionError`.
        """
        manifest = self.resolve(version, verify=verify)
        entries = self.chain(manifest["version"])
        if window is not None:
            if window < 1:
                raise ValueError(f"window must be >= 1, got {window}")
            entries = entries[-window:]
        by_id: dict[str, object] = {}
        for entry in entries:
            graphs = self._load_batch(entry)
            for meta, graph in zip(entry["graphs"], graphs):
                by_id[meta["id"]] = graph
        return GraphDataset(
            f"{manifest['name']}-v{manifest['version']:06d}",
            list(by_id.values()), manifest["num_classes"], manifest["task"])

    # ------------------------------------------------------------------
    def id_digests(self, version: int) -> dict[str, str]:
        """graph id → serving digest, after latest-revision dedupe."""
        mapping: dict[str, str] = {}
        for entry in self.chain(version):
            for meta in entry["graphs"]:
                mapping[meta["id"]] = meta["digest"]
        return mapping

    def superseded_digests(self, old_version: int,
                           new_version: int) -> list[str]:
        """Digests served under ``old_version`` that ``new_version`` replaced.

        Exactly the cache entries a refresh must invalidate: ids whose
        content changed between the two versions contribute their *old*
        digest; unchanged graphs (same id, same digest) contribute
        nothing and keep their warm cache rows. One walk of
        ``new_version``'s chain serves both maps when ``old_version`` is
        on its lineage; otherwise (``old_version`` is not one of its
        ancestors, e.g. it is the newer of the two) it gets its own walk.
        """
        new: dict[str, str] = {}
        old = None
        for entry in self.chain(new_version):
            for meta in entry["graphs"]:
                new[meta["id"]] = meta["digest"]
            if entry["version"] == old_version:
                old = dict(new)
        if old is None:
            old = self.id_digests(old_version)
        return sorted(old[gid] for gid in old
                      if gid in new and new[gid] != old[gid])

    def stats(self) -> dict:
        """Store-level summary for CLIs and reports."""
        versions = self.versions()
        if not versions:
            return {"versions": 0, "total_graphs": 0, "latest": None}
        manifest = self.resolve(verify=False)
        quarantined = sum(1 for _ in self.quarantine_dir.iterdir()) \
            if self.quarantine_dir.is_dir() else 0
        return {
            "versions": len(versions),
            "latest": manifest["version"],
            "fingerprint": manifest["fingerprint"],
            "total_graphs": manifest["total_graphs"],
            "distinct_graphs": len(self.id_digests(manifest["version"])),
            "quarantined": quarantined,
        }
