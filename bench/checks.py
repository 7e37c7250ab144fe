"""Output checks, artifact digests and summary statistics for the benchmark.

Everything here is pure stdlib and works on files the CLI left on disk, so
the same checks serve the subprocess passes and the in-process traced pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

CSV_SCHEMA_PREFIX = "# schema=optoperceptron."
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def nearest_rank(ordered, pct: float):
    """The nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, min_beyond: int = 10, ladder=TAIL_LADDER):
    """(percentile, value) of the highest ladder percentile with at least
    `min_beyond` samples strictly beyond its nearest-rank value.

    Returns None when no percentile of the ladder qualifies, i.e. when there
    are too few samples to say anything about the tail.
    """
    ordered = sorted(samples)
    best = None
    for pct in ladder:
        if not ordered:
            break
        value = nearest_rank(ordered, pct)
        beyond = sum(1 for s in ordered if s > value)
        if beyond >= min_beyond:
            best = (pct, value)
    return best


# -- artifacts -----------------------------------------------------------------


def parse_csv(text: str) -> list[dict]:
    """Rows of a schema-tagged CSV as dicts; raises ValueError if malformed."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith(CSV_SCHEMA_PREFIX):
        raise ValueError("missing schema line or header")
    header = lines[1].split(",")
    rows = []
    for n, line in enumerate(lines[2:], start=3):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"line {n}: {len(fields)} fields, header has {len(header)}")
        rows.append(dict(zip(header, fields)))
    return rows


def parse_pgm(data: bytes) -> tuple[int, int]:
    """(width, height) of a 16-bit binary PGM; raises ValueError if malformed."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"65535":
        raise ValueError("not a 16-bit P5 PGM")
    width, height = (int(v) for v in parts[1].split())
    if len(parts[3]) != 2 * width * height:
        raise ValueError(f"pixel data is {len(parts[3])} bytes, expected {2 * width * height}")
    return width, height


def parse_artifact(path: Path):
    """Parse one artifact by its suffix; raises ValueError if it does not parse."""
    data = path.read_bytes()
    if path.suffix == ".pgm":
        return parse_pgm(data)
    text = data.decode("utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        return parse_csv(text)
    if not text.strip():
        raise ValueError("empty file")
    return text


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by its relative path."""
    return {
        p.relative_to(out_dir).as_posix(): sha256_file(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def combined_digest(files: dict[str, str]) -> str:
    """One sha256 over a directory's per-file digests."""
    lines = "".join(f"{name} {digest}\n" for name, digest in sorted(files.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def compare_digests(reference: dict[str, str], current: dict[str, str]) -> list[str]:
    """Problems that make `current` differ from the reference digests."""
    problems = []
    for name in sorted(reference.keys() | current.keys()):
        if name not in current:
            problems.append(f"{name}: missing, present in the reference pass")
        elif name not in reference:
            problems.append(f"{name}: not present in the reference pass")
        elif reference[name] != current[name]:
            problems.append(f"{name}: sha256 differs from the reference pass")
    return problems


def check_call(
    returncode: int,
    stdout: str,
    out_dir: Path,
    artifacts,
    sweep_seeds=None,
) -> tuple[list[str], dict]:
    """Problems with one CLI call, plus its parsed artifacts.

    A call fails when it exits non-zero, an expected artifact is missing or
    does not parse, its stdout JSON differs from summary.json, or sweep.csv
    does not list exactly `sweep_seeds` in ascending order.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    parsed = {}
    for name in artifacts:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        try:
            parsed[name] = parse_artifact(path)
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{name}: does not parse ({exc})")
    if "summary.json" in parsed:
        try:
            printed = json.loads(stdout)
        except ValueError:
            problems.append("stdout is not one JSON summary")
        else:
            if printed != parsed["summary.json"]:
                problems.append("stdout JSON differs from summary.json")
    if sweep_seeds is not None and "sweep.csv" in parsed:
        seeds = [row["seed"] for row in parsed["sweep.csv"]]
        if seeds != [str(s) for s in sweep_seeds]:
            problems.append(
                f"sweep.csv lists {len(seeds)} seeds, expected {len(sweep_seeds)} "
                "in ascending order"
            )
    return problems, parsed


@dataclass
class Tally:
    """Attempted and failed CLI calls, with the reason for every failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
