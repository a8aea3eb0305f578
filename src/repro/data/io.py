"""Dataset serialisation: save/load a :class:`GraphDataset` to ``.npz``.

The synthetic generators are deterministic, but saving materialised datasets
is still useful for pinning the exact graphs of a committed experiment run,
sharing them with collaborators, or loading external graphs prepared by
other tooling. The format packs every graph's arrays into one uncompressed
``.npz`` archive plus a small JSON header: float64 node features barely
compress, so zlib would cost about half of a streaming write for a ~17 %
size saving. :func:`load_saved_dataset` reads compressed archives written
by earlier versions unchanged (``np.load`` handles both).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..graph import Graph
from .dataset import GraphDataset

__all__ = ["save_dataset", "load_saved_dataset", "atomic_write"]

_FORMAT_VERSION = 1
# Metadata values that are numpy arrays are persisted; everything else must
# be JSON-encodable.
_META_ARRAY_PREFIX = "metaarr"

# Indirection so tests can observe/deny the flushes without touching the
# real os.fsync that the rest of the process relies on.
_FSYNC = os.fsync


def _fsync_fd_of(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        _FSYNC(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str | Path, suffix: str = "", durable: bool = True):
    """Yield a temporary sibling path; rename onto ``path`` on success.

    Creates parent directories, writes to a pid-unique temporary file and
    atomically renames it into place, so concurrent writers can never leave a
    truncated file at ``path``. ``suffix`` keeps writers that key on the file
    extension happy (``np.savez`` appends ``.npz`` unless already present).

    With ``durable=True`` (the default) the temporary file's data is
    fsynced *before* the rename and the parent directory entry *after*
    it — the POSIX ordering that makes the commit survive power loss:
    a crash can lose the whole write or keep the whole write, but can
    never surface ``path`` pointing at unflushed data. ``durable=False``
    skips both flushes for callers writing disposable scratch files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp{suffix}")
    try:
        yield tmp
        if durable and tmp.exists():
            _fsync_fd_of(tmp)
        os.replace(tmp, path)
        if durable:
            _fsync_fd_of(path.parent)
    finally:
        if tmp.exists():
            tmp.unlink()


def save_dataset(dataset: GraphDataset, path: str | Path) -> Path:
    """Write ``dataset`` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    arrays: dict[str, np.ndarray] = {}
    header: dict = {
        "version": _FORMAT_VERSION,
        "name": dataset.name,
        "num_classes": dataset.num_classes,
        "task": dataset.task,
        "num_graphs": len(dataset),
        "graphs": [],
    }
    for i, graph in enumerate(dataset):
        arrays[f"x{i}"] = graph.x
        arrays[f"e{i}"] = graph.edge_index
        entry: dict = {"meta": {}, "meta_arrays": []}
        if graph.y is None:
            entry["y"] = None
        elif np.isscalar(graph.y) or isinstance(graph.y, (int, float)):
            entry["y"] = float(graph.y)
        else:
            arrays[f"y{i}"] = np.asarray(graph.y, dtype=float)
            entry["y"] = "__array__"
        for key, value in graph.meta.items():
            if isinstance(value, np.ndarray):
                arrays[f"{_META_ARRAY_PREFIX}_{i}_{key}"] = value
                entry["meta_arrays"].append(key)
            else:
                entry["meta"][key] = value
        header["graphs"].append(entry)
    arrays["__header__"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8)
    with atomic_write(path, suffix=".npz") as tmp:
        np.savez(tmp, **arrays)
    return path


def load_saved_dataset(path: str | Path) -> GraphDataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        header = json.loads(bytes(archive["__header__"]).decode())
        if header["version"] != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset format version {header['version']}")
        graphs = []
        for i, entry in enumerate(header["graphs"]):
            if entry["y"] is None:
                y = None
            elif entry["y"] == "__array__":
                y = archive[f"y{i}"]
            else:
                y = entry["y"]
                y = int(y) if header["task"] == "classification" else y
            meta = dict(entry["meta"])
            for key in entry["meta_arrays"]:
                meta[key] = archive[f"{_META_ARRAY_PREFIX}_{i}_{key}"]
            graphs.append(Graph(archive[f"x{i}"], archive[f"e{i}"], y, meta))
    return GraphDataset(header["name"], graphs, header["num_classes"],
                        header["task"])
