"""Content-addressed artifact cache for compilation results.

Every ``repro compile`` used to recompute the full
schedule/allocation pipeline even when the same graph had been
compiled moments earlier with the same options.  The flow is a pure
function of ``(graph document, strategy options, package version)``,
so its result can be addressed by content: :func:`cache_key` hashes
the canonical JSON form of exactly that triple (SHA-256), and
:class:`ArtifactCache` maps keys to stored
:class:`~repro.artifacts.report.CompilationReport` payloads on disk.

Integrity over availability
---------------------------
A cache may be slow, cold, or missing — it must never be *wrong*:

* **atomic writes** — entries are written to a temporary file in the
  cache directory and ``os.replace``-d into place, so a crashed or
  concurrent writer can never leave a half-written entry visible;
* **hash-verified reads** — each entry records the SHA-256 digest of
  its report's canonical form; :meth:`ArtifactCache.get` recomputes
  and compares it (and the key) on every read;
* **corruption tolerance** — an unparseable, mis-keyed, or
  digest-mismatched entry is evicted (unlinked) and reported as a
  miss, so the caller transparently recomputes.  A corrupt entry is
  *never served*; ``repro check --inject`` plants exactly this fault
  (the ``cache_corrupt`` mutation class) and asserts it stays caught.

Layout: ``<root>/<key[:2]>/<key>.json``, one JSON entry per result.
The root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
Maintenance is exposed as ``repro cache {stats,gc,clear}``.

Kernel binaries
---------------
The cache also stores the :mod:`repro.native` compiled kernel shared
objects under ``<root>/kernels/<key>.so`` with a sidecar
``<key>.so.json`` recording the binary's SHA-256.  Kernel reads are
digest-verified the same way report reads are (corruption evicts and
rebuilds, never loads); :meth:`ArtifactCache.stats` reports the two
kinds separately, and :meth:`gc` never touches kernels (they are tiny,
keyed by source+compiler, and rebuilt on demand).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .. import __version__

if TYPE_CHECKING:
    from .report import CompilationReport

__all__ = ["ArtifactCache", "cache_key", "default_cache_dir"]

_ENTRY_SUFFIX = ".json"
_KERNEL_DIRNAME = "kernels"
_KERNEL_SUFFIX = ".so"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro`` when unset."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def cache_key(
    document: Dict[str, Any],
    options: Optional[Dict[str, Any]] = None,
    version: str = __version__,
) -> str:
    """The content address of one compilation.

    SHA-256 over the canonical JSON of ``{graph, options, version}``:
    object keys sorted at every level, fixed separators.  Key order in
    the input JSON therefore cannot change the address, while any
    semantic change — a rate, a delay, a different method or seed, a
    new package version — produces a fresh key (stale results can
    never be served across releases).
    """
    payload = {
        "graph": document,
        "options": dict(options or {}),
        "version": version,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ArtifactCache:
    """A directory of hash-verified compilation reports.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).  Defaults to
        :func:`default_cache_dir`.

    The instance keeps session counters (``hits``, ``misses``,
    ``writes``, ``evictions``) that ``repro serve`` exposes via its
    ``/stats`` endpoint; on-disk figures (entry count, bytes) are
    computed by :meth:`stats` on demand.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0

    # -- addressing -----------------------------------------------------
    def path_for(self, key: str) -> str:
        """Where entry ``key`` lives (two-level fan-out by key prefix)."""
        return os.path.join(self.root, key[:2], key + _ENTRY_SUFFIX)

    def _entries(self) -> List[str]:
        found = []
        if not os.path.isdir(self.root):
            return found
        for sub in sorted(os.listdir(self.root)):
            if sub == _KERNEL_DIRNAME:
                continue  # kernel binaries are a separate kind
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(_ENTRY_SUFFIX):
                    found.append(os.path.join(subdir, name))
        return found

    # -- kernel binaries ------------------------------------------------
    def kernel_path_for(self, key: str) -> str:
        """Where the compiled kernel for ``key`` lives."""
        return os.path.join(
            self.root, _KERNEL_DIRNAME, key + _KERNEL_SUFFIX
        )

    def _kernel_entries(self) -> List[str]:
        """Paths of stored kernel binaries (``.so`` files only)."""
        kdir = os.path.join(self.root, _KERNEL_DIRNAME)
        if not os.path.isdir(kdir):
            return []
        return sorted(
            os.path.join(kdir, name)
            for name in os.listdir(kdir)
            if name.endswith(_KERNEL_SUFFIX)
        )

    def get_kernel(self, key: str) -> Optional[str]:
        """Path of a digest-verified kernel binary, or ``None``.

        The sidecar metadata records the binary's SHA-256; a missing
        sidecar, wrong key, or digest mismatch evicts the pair and
        misses — a corrupt kernel is rebuilt, never ``dlopen``-ed.
        """
        path = self.kernel_path_for(key)
        meta_path = path + _ENTRY_SUFFIX
        try:
            with open(meta_path, encoding="utf-8") as handle:
                entry = json.load(handle)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            if entry["key"] != key or entry["digest"] != digest:
                raise ValueError("kernel entry failed verification")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.evict_kernel(key)
            self.misses += 1
            return None
        self.hits += 1
        return path

    def put_kernel(self, key: str, data: bytes) -> str:
        """Store a kernel binary atomically; returns its path.

        The binary lands first, the sidecar (whose presence makes the
        entry valid) second — a crash between the two reads as a miss.
        """
        path = self.kernel_path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.chmod(tmp, 0o755)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        entry = {
            "key": key,
            "digest": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
        meta_path = path + _ENTRY_SUFFIX
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, meta_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    def evict_kernel(self, key: str) -> bool:
        """Remove a kernel binary and its sidecar if present."""
        path = self.kernel_path_for(key)
        removed = False
        for victim in (path, path + _ENTRY_SUFFIX):
            try:
                os.unlink(victim)
                removed = True
            except OSError:
                pass
        if removed:
            self.evictions += 1
        return removed

    # -- read/write -----------------------------------------------------
    def get(self, key: str) -> Optional[CompilationReport]:
        """The stored report for ``key``, or ``None``.

        Verifies the entry's recorded key and report digest before
        returning; any mismatch (or unreadable/unparseable entry)
        evicts the entry and counts as a miss — corruption is repaired
        by recomputation, never served.
        """
        from .report import CompilationReport

        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
            report = CompilationReport.from_json(entry["report"])
            if entry["key"] != key or report.digest() != entry["digest"]:
                raise ValueError("cache entry failed verification")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.evict(key)
            self.misses += 1
            return None
        self.hits += 1
        report.key = key
        report.cached = True
        return report

    def put(self, key: str, report: CompilationReport) -> str:
        """Store ``report`` under ``key`` atomically; returns the path.

        The entry records the canonical payload (volatile fields
        normalized away) plus its digest, written via a temporary file
        and ``os.replace`` so readers only ever see complete entries.
        """
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "key": key,
            "digest": report.digest(),
            "report": json.loads(report.canonical()),
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    def evict(self, key: str) -> bool:
        """Remove entry ``key`` if present; True when a file was removed."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            return False
        self.evictions += 1
        return True

    # -- maintenance ----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """On-disk entry count/bytes plus this instance's counters.

        ``entries``/``bytes`` cover the compilation-report kind (the
        original meaning, kept for compatibility); ``kinds`` breaks
        the figures out per kind — ``reports`` (compile results) and
        ``kernels`` (native kernel binaries; bytes include the
        digest sidecars).  Tolerates concurrent writers: an entry that
        vanishes between the directory scan and its ``stat`` simply
        drops out of the figures instead of raising.
        """
        count = 0
        total = 0
        for path in self._entries():
            try:
                total += os.path.getsize(path)
            except OSError:
                continue  # vanished mid-scan (concurrent gc/evict)
            count += 1
        kernel_count = 0
        kernel_bytes = 0
        for path in self._kernel_entries():
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            try:
                size += os.path.getsize(path + _ENTRY_SUFFIX)
            except OSError:
                pass  # sidecar missing: entry reads as a miss anyway
            kernel_count += 1
            kernel_bytes += size
        return {
            "root": self.root,
            "entries": count,
            "bytes": total,
            "kinds": {
                "reports": {"entries": count, "bytes": total},
                "kernels": {
                    "entries": kernel_count, "bytes": kernel_bytes
                },
            },
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
        }

    def _remove_if_unchanged(self, path: str, seen_mtime_ns: int) -> bool:
        """Unlink ``path`` only if it still holds the entry we scanned.

        The scan-to-unlink window races concurrent writers two ways:
        the entry may vanish (another gc, an eviction), or it may be
        *rewritten* — ``os.replace`` swaps in a fresh file that no
        longer deserves expiry.  Re-stat first and skip when the
        mtime moved; give up (don't count) when the file is already
        gone.  A writer replacing the file in the remaining stat-to-
        unlink instant loses nothing either: its ``os.replace`` wins
        or the next ``get`` simply misses and recompiles — a removed
        entry is always safe, only *miscounting* or deleting fresh
        work is not.
        """
        try:
            if os.stat(path).st_mtime_ns != seen_mtime_ns:
                return False  # rewritten since the scan: now fresh
            os.unlink(path)
        except FileNotFoundError:
            return False  # someone else removed it; don't count twice
        except OSError:
            return False
        return True

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Expire entries; returns the number removed.

        ``max_age_s`` removes entries older than that many seconds
        (by mtime, i.e. last write); ``max_entries`` then keeps only
        the newest N.  With neither bound this is a no-op.  Safe to
        run concurrently with writers and with other ``gc`` calls:
        in-progress tempfiles are never candidates (only ``*.json``
        entries are scanned), an entry rewritten after the scan is
        left alone, and an entry already removed by a racing gc is
        not double-counted.
        """
        if now is None:
            now = time.time()
        removed = 0
        by_age: List[Tuple[int, str]] = []
        for path in self._entries():
            try:
                by_age.append((os.stat(path).st_mtime_ns, path))
            except OSError:
                continue  # vanished between scan and stat
        by_age.sort()
        if max_age_s is not None:
            fresh = []
            for mtime_ns, path in by_age:
                if now - mtime_ns / 1e9 > max_age_s:
                    if self._remove_if_unchanged(path, mtime_ns):
                        removed += 1
                else:
                    fresh.append((mtime_ns, path))
            by_age = fresh
        if max_entries is not None and len(by_age) > max_entries:
            excess = len(by_age) - max_entries
            for mtime_ns, path in by_age[:excess]:
                if self._remove_if_unchanged(path, mtime_ns):
                    removed += 1
        self.evictions += removed
        return removed

    def clear(self) -> int:
        """Remove every entry (both kinds); returns the number removed.

        Like :meth:`gc`, tolerates entries vanishing underneath it.
        Kernel binaries count one each (their sidecars go silently).
        """
        removed = 0
        for path in self._entries():
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
        for path in self._kernel_entries():
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
            try:
                os.unlink(path + _ENTRY_SUFFIX)
            except OSError:
                pass
        self.evictions += removed
        return removed
