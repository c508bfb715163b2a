"""Content-addressed JSON result cache.

Entries are immutable files named by a hash of (kind, params) together
with ``CACHE_SCHEMA`` and the package version, so a result computed by a
different version of the code is never served.  Each file stores its
params echo plus a hash of the canonicalized payload; on read, both are
re-verified and any mismatch or parse failure makes the entry
invisible — a corrupt cache can cost time, never correctness.  Writes go
through a temp file and an atomic rename, so concurrent readers see
either the old or the new complete entry.

The directory comes from an explicit argument, else the CYCLO_CACHE_DIR
environment variable; when neither is set, caching is off.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from . import __version__

ENV_VAR = "CYCLO_CACHE_DIR"

# Bump when the layout of a payload or the algorithm producing it changes.
CACHE_SCHEMA = 2


def resolve_cache_dir(explicit: str | None = None) -> Path | None:
    """Explicit flag wins; empty string disables caching outright."""
    if explicit is not None:
        return Path(explicit) if explicit else None
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return None


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(kind: str, params: dict) -> str:
    key = {
        "kind": kind,
        "params": params,
        "schema": CACHE_SCHEMA,
        "version": __version__,
    }
    digest = hashlib.sha256(canonical(key).encode())
    return digest.hexdigest()[:40]


def _entry_path(directory: Path, kind: str, params: dict) -> Path:
    return directory / f"{kind}-{content_key(kind, params)}.json"


def load(directory: Path | None, kind: str, params: dict) -> Any | None:
    """The cached payload, or None if absent or untrustworthy."""
    if directory is None:
        return None
    path = _entry_path(directory, kind, params)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("kind") != kind:
            return None
        if canonical(data.get("params")) != canonical(params):
            return None
        payload = data.get("payload")
        digest = hashlib.sha256(canonical(payload).encode()).hexdigest()
        if data.get("hash") != digest:
            return None
        return payload
    except (OSError, ValueError):
        return None


def store(directory: Path | None, kind: str, params: dict, payload: Any) -> None:
    """Write an entry atomically; silently a no-op when caching is off."""
    if directory is None:
        return
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(canonical(payload).encode()).hexdigest()
    body = json.dumps(
        {"kind": kind, "params": params, "hash": digest, "payload": payload},
        sort_keys=True,
        indent=1,
    )
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp_name, _entry_path(directory, kind, params))
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
