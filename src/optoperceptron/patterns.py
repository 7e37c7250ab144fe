"""The z/v/n pattern dataset: 3x3 binary glyphs, single-bit noisy variants,
and the 24/3 train/test split used to supervise the network.

Each class contributes its ideal glyph plus eight variants obtained by
flipping one input at a time, starting from the second input (row-wise).
The first variant of every class is held out for testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigurationError

CLASSES = ("z", "v", "n")
GRID_SIDE = 3
N_INPUTS = GRID_SIDE * GRID_SIDE
TRAIN_ROLE = "train"
TEST_ROLE = "test"

# Stylized 3x3 glyphs, one string per grid row. Overridable from a plain-text
# bitmap file; every consumer parameterizes over these, nothing downstream
# hard-codes the shapes.
DEFAULT_BITMAPS: dict[str, tuple[str, str, str]] = {
    "z": ("110", "010", "011"),
    "v": ("101", "101", "010"),
    "n": ("010", "101", "101"),
}


def flatten_grid(grid) -> tuple[int, ...]:
    """Row-wise flattening of a 3x3 grid of 0/1 values."""
    rows = list(grid)
    if len(rows) != GRID_SIDE:
        raise ConfigurationError(f"bitmap must have {GRID_SIDE} rows, got {len(rows)}")
    flat = []
    for row in rows:
        cells = [int(c) for c in row]
        if len(cells) != GRID_SIDE:
            raise ConfigurationError(
                f"bitmap row must have {GRID_SIDE} cells, got {len(cells)}"
            )
        for c in cells:
            if c not in (0, 1):
                raise ConfigurationError(f"bitmap cells must be 0 or 1, got {c}")
            flat.append(c)
    return tuple(flat)


@dataclass(frozen=True)
class Pattern:
    """One 9-input binary pattern with its provenance.

    variant_index 0 is the ideal glyph; index k >= 1 is the ideal with input
    position k+1 (1-based, row-wise) flipped. Variant 1 is the held-out test
    pattern of its class.
    """

    pattern_id: str
    class_label: str
    variant_index: int
    role: str
    inputs: tuple[int, ...]

    def __post_init__(self):
        if self.class_label not in CLASSES:
            raise ValueError(f"unknown class label {self.class_label!r}")
        if not 0 <= self.variant_index <= 8:
            raise ValueError(f"variant_index must be in 0..8, got {self.variant_index}")
        if len(self.inputs) != N_INPUTS or any(x not in (0, 1) for x in self.inputs):
            raise ValueError("inputs must be 9 values, each 0 or 1")
        expected_role = TEST_ROLE if self.variant_index == 1 else TRAIN_ROLE
        if self.role != expected_role:
            raise ValueError(
                f"variant {self.variant_index} must have role {expected_role!r}"
            )

    @cached_property
    def active_indices(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.inputs) if x == 1)


@dataclass(frozen=True)
class Dataset:
    """24 ordered training patterns (class-blocked z, v, n) plus 3 test patterns."""

    training: tuple[Pattern, ...]
    testing: tuple[Pattern, ...]

    def __post_init__(self):
        if len(self.training) != 24 or len(self.testing) != 3:
            raise ValueError("dataset must hold 24 training and 3 testing patterns")
        for cls in CLASSES:
            n_train = sum(1 for p in self.training if p.class_label == cls)
            n_test = sum(1 for p in self.testing if p.class_label == cls)
            if n_train != 8 or n_test != 1:
                raise ValueError(f"class {cls!r} must have 8 train + 1 test patterns")
        train_ids: dict[tuple[int, ...], Pattern] = {}
        for p in self.training:
            first = train_ids.setdefault(p.inputs, p)
            if first.class_label != p.class_label:
                raise ConfigurationError(
                    f"training pattern {p.pattern_id} equals training pattern "
                    f"{first.pattern_id}: one input vector carries two class labels"
                )
        for p in self.testing:
            if p.inputs in train_ids:
                raise ConfigurationError(
                    f"held-out pattern {p.pattern_id} equals training pattern "
                    f"{train_ids[p.inputs].pattern_id}: a pattern appears in both "
                    "training and testing"
                )


def ideal_patterns(bitmaps=None) -> list[Pattern]:
    """One ideal Pattern per class, in z, v, n order."""
    bitmaps = dict(DEFAULT_BITMAPS if bitmaps is None else bitmaps)
    if set(bitmaps) != set(CLASSES):
        raise ConfigurationError(
            f"bitmaps must define exactly the classes {CLASSES}, got {sorted(bitmaps)}"
        )
    return [
        Pattern(
            pattern_id=f"{cls}0",
            class_label=cls,
            variant_index=0,
            role=TRAIN_ROLE,
            inputs=flatten_grid(bitmaps[cls]),
        )
        for cls in CLASSES
    ]


def generate_variants(ideal: Pattern) -> list[Pattern]:
    """The 8 single-bit variants of an ideal pattern, k = 1..8.

    Variant k flips input position k+1 (0-based index k). Variant 1 is the
    test pattern; variants 2..8 train.
    """
    if ideal.variant_index != 0:
        raise ValueError("variants are generated from an ideal pattern only")
    variants = []
    for k in range(1, 9):
        flipped = list(ideal.inputs)
        flipped[k] ^= 1
        variants.append(
            Pattern(
                pattern_id=f"{ideal.class_label}{k}",
                class_label=ideal.class_label,
                variant_index=k,
                role=TEST_ROLE if k == 1 else TRAIN_ROLE,
                inputs=tuple(flipped),
            )
        )
    return variants


def build_dataset(bitmaps=None) -> Dataset:
    """Full 27-pattern dataset with the class-blocked training order."""
    training: list[Pattern] = []
    testing: list[Pattern] = []
    for ideal in ideal_patterns(bitmaps):
        variants = generate_variants(ideal)
        training.append(ideal)
        training.extend(v for v in variants if v.role == TRAIN_ROLE)
        testing.extend(v for v in variants if v.role == TEST_ROLE)
    return Dataset(training=tuple(training), testing=tuple(testing))


def parse_bitmap_text(text: str) -> dict[str, tuple[str, str, str]]:
    """Parse three 3-line blocks of '0'/'1' characters (z, v, n order).

    Blocks are separated by one or more blank lines; '#' lines are comments.
    """
    blocks: list[list[str]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        if set(line) - {"0", "1"}:
            raise ConfigurationError(
                f"bitmap line {lineno}: expected only '0'/'1', got {line!r}"
            )
        blocks[-1].append(line)
    if not blocks[-1]:
        blocks.pop()
    if len(blocks) != len(CLASSES):
        raise ConfigurationError(
            f"expected {len(CLASSES)} bitmap blocks (z, v, n), got {len(blocks)}"
        )
    bitmaps = {}
    for cls, block in zip(CLASSES, blocks):
        if len(block) != GRID_SIDE or any(len(row) != GRID_SIDE for row in block):
            raise ConfigurationError(
                f"bitmap block for class {cls!r} must be {GRID_SIDE} lines of "
                f"{GRID_SIDE} characters"
            )
        bitmaps[cls] = tuple(block)
    return bitmaps

