"""Atomic artifact writes: a temp file beside the target, then os.replace."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write(path: Path, data: str | bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)
