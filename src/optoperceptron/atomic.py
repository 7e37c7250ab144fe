"""Atomic artifact writes: a temp file beside the target, then os.replace."""

from __future__ import annotations

import json
import os
from pathlib import Path


def atomic_write(path: Path, data: str | bytes) -> None:
    """Write data to a temp file beside path, then move it into place. The
    temp file never outlives the call: if the write or the move fails, it is
    removed before the error propagates."""
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    fh = open(tmp, mode)
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: Path, payload) -> None:
    """The one JSON artifact format: sorted keys, two-space indent, final newline."""
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
