"""Atomic artifact writes: a temp file beside the target, then os.replace."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable


def atomic_write(path: Path, data: str | bytes | Iterable[str]) -> None:
    """Write data, or each text piece of an iterable in turn, to a temp file
    beside path, then move it into place. The temp file never outlives the
    call: if the write, the pieces or the move fail, it is removed before the
    error propagates, and path keeps what it held."""
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    fh = open(tmp, mode)
    try:
        with fh:
            if isinstance(data, (str, bytes)):
                fh.write(data)
            else:
                fh.writelines(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: Path, payload) -> None:
    """The one JSON artifact format: sorted keys, two-space indent, final
    newline. It serves the small payloads; jsontext renders the row-heavy
    artifacts in this format piece by piece."""
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
