"""The z/v/n pattern dataset: 3x3 binary glyphs, single-bit noisy variants,
and the 24/3 train/test split used to supervise the network.

Each class contributes its ideal glyph plus eight variants obtained by
flipping one input at a time, starting from the second input (row-wise).
The first variant of every class is held out for testing.

parse_bitmap_text is the one check of a bitmap file: three blocks of three
rows of three '0'/'1' characters. build_dataset trusts that shape (and that
of DEFAULT_BITMAPS) and checks only what depends on the glyphs together: it
refuses a bank whose patterns collide across classes or across the split.
"""

from __future__ import annotations

from typing import NamedTuple

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


class _PatternFields(NamedTuple):
    pattern_id: str
    class_label: str
    variant_index: int
    role: str
    inputs: tuple[int, ...]


class Pattern(_PatternFields):
    """One 9-input binary pattern with its provenance.

    variant_index 0 is the ideal glyph; index k >= 1 is the ideal with input
    position k+1 (1-based, row-wise) flipped. Variant 1 is the held-out test
    pattern of its class. active_indices, the positions of its 1 inputs, is
    derived once, here, since the trainer reads it on every step.
    """

    def __init__(self, *fields, **named):
        self.active_indices = tuple(i for i, x in enumerate(self.inputs) if x == 1)


class Dataset(NamedTuple):
    """24 ordered training patterns (class-blocked z, v, n) plus 3 test patterns."""

    training: tuple[Pattern, ...]
    testing: tuple[Pattern, ...]


def build_dataset(bitmaps=None) -> Dataset:
    """Full 27-pattern dataset with the class-blocked training order.

    bitmaps maps each class to three rows of three '0'/'1' characters, as
    parse_bitmap_text returns them. Variant k of a class is its ideal (k = 0)
    with input k (0-based, row-wise) flipped. Refuses a bank in which one
    input vector carries two class labels or a held-out pattern repeats a
    training pattern.
    """
    bitmaps = DEFAULT_BITMAPS if bitmaps is None else bitmaps
    training: list[Pattern] = []
    testing: list[Pattern] = []
    for cls in CLASSES:
        ideal = tuple(int(c) for row in bitmaps[cls] for c in row)
        for k in range(N_INPUTS):
            inputs = ideal if k == 0 else ideal[:k] + (1 - ideal[k],) + ideal[k + 1 :]
            pattern = Pattern(f"{cls}{k}", cls, k, TEST_ROLE if k == 1 else TRAIN_ROLE, inputs)
            (testing if k == 1 else training).append(pattern)
    train_ids: dict[tuple[int, ...], Pattern] = {}
    for p in training:
        first = train_ids.setdefault(p.inputs, p)
        if first.class_label != p.class_label:
            raise ConfigurationError(
                f"training pattern {p.pattern_id} equals training pattern "
                f"{first.pattern_id}: one input vector carries two class labels"
            )
    for p in testing:
        if p.inputs in train_ids:
            raise ConfigurationError(
                f"held-out pattern {p.pattern_id} equals training pattern "
                f"{train_ids[p.inputs].pattern_id}: a pattern appears in both "
                "training and testing"
            )
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

