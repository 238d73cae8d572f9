"""Content-addressed on-disk cache of sweep run results.

A run is identified by the SHA-256 of

* the task function's ``module:qualname`` (e.g.
  ``"repro.sweep.spec:_experiment"``),
* the canonical JSON of its parameters (config + seed live there), and
* a fingerprint of the ``repro`` package's source code,

so a cache entry can only be replayed by the exact code and
configuration that produced it. Entries are pickled payloads written
atomically (temp file + rename); a corrupted or unreadable entry is
treated as a miss and re-run, never a crash.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pathlib
import pickle
from typing import Any, Optional

from repro._version import __version__
from repro.sweep.canonical import canonical_json

#: Bump when the payload layout changes; old entries then miss cleanly.
CACHE_SCHEMA = 1


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Any code change — a scheduler tweak, an energy-model constant —
    yields a new fingerprint and therefore cold keys, so stale results
    can never masquerade as current ones.
    """
    import repro

    package_root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    digest.update(f"repro=={__version__};schema={CACHE_SCHEMA}".encode())
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def run_key(task: str, params: dict[str, Any]) -> str:
    """The content address of one run (hex SHA-256)."""
    digest = hashlib.sha256()
    digest.update(task.encode())
    digest.update(b"\x00")
    digest.update(canonical_json(params).encode())
    digest.update(b"\x00")
    digest.update(code_fingerprint().encode())
    return digest.hexdigest()


class ResultCache:
    """Pickle-per-key store under ``cache_dir`` (two-level fan-out)."""

    def __init__(self, cache_dir: os.PathLike | str) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        #: Entries that failed to load this session (observability).
        self.corrupt_entries = 0

    def path_for(self, key: str) -> pathlib.Path:
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[tuple[Any]]:
        """The cached result as a 1-tuple, or None on miss.

        The tuple wrapper distinguishes "miss" from a cached ``None``.
        """
        path = self.path_for(key)
        try:
            payload = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except Exception as exc:
            self.warn_corrupt(path, exc)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or payload.get("key") != key
        ):
            self.warn_corrupt(path, None)
            return None
        return (payload["result"],)

    def put(self, key: str, task: str, result: Any) -> pathlib.Path:
        """Atomically persist ``result`` under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "task": task,
            "result": result,
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, path)
        return path

    def warn_corrupt(self, path: pathlib.Path, exc: Optional[Exception]) -> None:
        """Record (and survive) an unreadable cache entry."""
        self.corrupt_entries += 1
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass  # cache stays degraded but usable

    def __len__(self) -> int:
        if not self.cache_dir.exists():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*/*.pkl"))
