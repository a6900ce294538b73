"""Disk-cache and worker-pool primitives owned by the engine layer.

The Engine facade (:mod:`repro.api.engine`) owns cache policy and
concurrency; the batch/fuzz drivers consume these from here.

* :class:`JsonDiskCache` -- a persistent key -> JSON-document store with
  atomic writes and a shared default location.  Subclasses own key
  construction: a key must digest every input that could change the
  stored document, so stale entries become unreachable rather than
  merely suspect.
* :func:`parallel_map` -- the shared thread-pool fan-out.  The analysis
  memo tables (:mod:`repro.symbolic.intern`) are plain dicts guarded by
  the GIL, so concurrent workers share warm caches and at worst
  recompute a value, never corrupt one.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "JsonDiskCache",
    "parallel_map",
]

#: Bump when a cached result schema or the analysis semantics change:
#: every existing on-disk entry is invalidated by construction (new
#: keys).  Shared by the engine's analysis cache, the batch driver and
#: the fuzz harness.
#: v2: reduction soundness fixes (additive-update gate, read-gated
#: EXT-RRED enabling) changed classifications.
#: v3: exposed-read tracking in the dataflow summaries; the EXT-RRED
#: enabling equation now catches plain reads demoted into RW (read-
#: before-write regions), changing reduction classifications.
#: v4: tiered analysis -- responses carry tier-provenance fields and a
#: Tier-0 on/off knob joined the key's knob text, so v3 entries (written
#: before either existed) must never satisfy a v4 request.
#: v5: the Tier-0 screen and its knob are gone; a v4 body may say
#: 'tier0'/'resolved', which no engine answers any more.
CACHE_VERSION = 5

#: Default on-disk cache location (overridable via $REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = ".repro-cache"


class JsonDiskCache:
    """A persistent key -> JSON-document store under one directory.

    The generic layer beneath the engine's :class:`~repro.api.engine.
    AnalysisCache`, the batch driver's ``BatchCache`` and the fuzz
    harness's per-seed cache: atomic writes, key-is-filename, a shared
    default location (``.repro-cache`` / ``$REPRO_CACHE_DIR``).
    Subclasses own key construction -- a key must digest every input
    that could change the stored document, so stale entries become
    unreachable rather than merely suspect.
    """

    def __init__(self, directory: Optional[str] = None):
        root = directory or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.directory = Path(root)

    @staticmethod
    def digest(text: str) -> str:
        """Short stable digest of *text* for use inside keys."""
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load_json(self, key: str) -> Optional[dict]:
        try:
            return json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None

    def store_json(self, key: str, payload: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
        tmp.replace(path)  # atomic: concurrent workers never see partial files

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink()
                removed += 1
        return removed


def parallel_map(fn, items, jobs: Optional[int] = None) -> list:
    """Apply *fn* to *items* on a worker pool, preserving order.

    The shared concurrency layer of the engine, batch and fuzz drivers:
    the analysis memo tables are plain dicts guarded by the GIL, so
    workers share warm caches and at worst recompute a value, never
    corrupt one.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1 (got {jobs})")
    items = list(items)
    workers = jobs or os.cpu_count() or 4
    with ThreadPoolExecutor(max_workers=min(workers, max(len(items), 1))) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]
