"""Content-addressed JSON result cache.

Entries are immutable files named by a hash of (kind, params) together
with ``CACHE_SCHEMA`` and the package version, so a result computed by a
different version of the code is never served.  An entry is one compact
canonical JSON document ``{"hash":…,"kind":…,"params":…,"payload":…}``,
the hash being that of the payload's bytes.  A read hashes and parses
those bytes once; any other header, mismatch or parse failure makes the
entry invisible — a corrupt cache can cost time, never correctness.
Writes go through a temp file and an atomic rename, so concurrent readers
see either the old or the new complete entry.

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
CACHE_SCHEMA = 3


def resolve_cache_dir(explicit: str | None = None) -> Path | None:
    """Explicit flag wins; empty string disables caching outright."""
    if explicit is not None:
        return Path(explicit) if explicit else None
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return None


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


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


def _head(kind: str, params: dict, digest: str) -> bytes:
    """An entry's bytes up to its payload, which comes last in key order."""
    header = canonical({"hash": digest, "kind": kind, "params": params})
    return header[:-1].encode() + b',"payload":'


def load(directory: Path | None, kind: str, params: dict) -> Any | None:
    """The cached payload, or None if absent or untrustworthy."""
    if directory is None:
        return None
    try:
        data = _entry_path(directory, kind, params).read_bytes()
        start = len(_head(kind, params, "0" * 64))
        body = data[start:-1]
        head = _head(kind, params, hashlib.sha256(body).hexdigest())
        if data[:start] != head or data[-1:] != b"}":
            return None
        return json.loads(body)
    except (OSError, ValueError):
        return None


def store(directory: Path | None, kind: str, params: dict, payload: Any) -> None:
    """Write an entry atomically; silently a no-op when caching is off."""
    if directory is None:
        return
    directory.mkdir(parents=True, exist_ok=True)
    body = canonical(payload).encode()
    head = _head(kind, params, hashlib.sha256(body).hexdigest())
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines((head, body, b"}"))
        os.replace(tmp_name, _entry_path(directory, kind, params))
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
