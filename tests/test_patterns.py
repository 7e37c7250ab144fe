from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optoperceptron.config import load_config
from optoperceptron.errors import ConfigurationError
from optoperceptron.patterns import (
    CLASSES,
    DEFAULT_BITMAPS,
    Pattern,
    build_dataset,
    parse_bitmap_text,
)


def glyph(bits: int) -> tuple[str, str, str]:
    """The 3x3 glyph whose row-major reading is the 9-bit number bits."""
    flat = format(bits, "09b")
    return (flat[0:3], flat[3:6], flat[6:9])


# Three glyphs at pairwise Hamming distance >= 3: one or two flips cannot
# carry one class's glyph onto another's, so no two patterns collide.
banks = (
    st.lists(st.integers(0, 511), min_size=3, max_size=3)
    .filter(lambda g: all(bin(a ^ b).count("1") >= 3 for a, b in combinations(g, 2)))
    .map(lambda g: dict(zip(CLASSES, map(glyph, g))))
)


# z is a single cell at grid row 2, column 1; v is all ones.
SPARSE_BANK = {"z": ("000", "100", "000"), "v": ("111", "111", "111"), "n": ("011", "011", "011")}


def families(dataset):
    """Each class's nine patterns, by variant index."""
    found = {cls: {} for cls in CLASSES}
    for p in dataset.training + dataset.testing:
        found[p.class_label][p.variant_index] = p
    return found


def test_flatten_all_ones():
    assert families(build_dataset(SPARSE_BANK))["v"][0].inputs == (1,) * 9


def test_flatten_single_cell_row2_col1():
    # grid row 2, column 1 (1-based) lands at flat index 4 (x_4, 0-based 3)
    z0 = families(build_dataset(SPARSE_BANK))["z"][0]
    assert z0.inputs == (0, 0, 0, 1, 0, 0, 0, 0, 0)


@given(banks)
def test_any_bank_builds_each_glyph_its_one_bit_variants_roles_and_ids(bitmaps):
    # per class: nine distinct patterns, the ideal reading back as its glyph's
    # rows and variant k flipping input k alone; variant 1 held out, ids cls+k;
    # each pattern's active indices, derived once when it is built, its 1 inputs
    ds = build_dataset(bitmaps)
    assert all(p.role == "train" and p.variant_index != 1 for p in ds.training)
    assert [(p.pattern_id, p.role) for p in ds.testing] == [(f"{cls}1", "test") for cls in CLASSES]
    for p in ds.training + ds.testing:
        assert p.pattern_id == f"{p.class_label}{p.variant_index}"
        assert p.active_indices == tuple(i for i, x in enumerate(p.inputs) if x == 1)
    for cls, family in families(ds).items():
        assert sorted(family) == list(range(9))
        assert len({p.inputs for p in family.values()}) == 9
        flat = family[0].inputs
        assert tuple("".join(map(str, flat[r * 3 : r * 3 + 3])) for r in range(3)) == bitmaps[cls]
        for k in range(1, 9):
            assert family[k].variant_index == k
            assert [i for i in range(9) if family[k].inputs[i] != flat[i]] == [k]


@pytest.mark.parametrize(
    "bad",
    [["111", "111"], ["111", "111", "11"], ["111", "121", "111"]],
)
def test_bad_bitmap_rejected(bad):
    # a file whose z block is the bad grid, followed by two good blocks
    with pytest.raises(ConfigurationError):
        parse_bitmap_text("\n".join(bad) + "\n\n000\n010\n000\n\n101\n101\n101\n")


def test_default_bank_ideals():
    ds = build_dataset()
    ideals = [p for p in ds.training if p.variant_index == 0]
    assert [p.class_label for p in ideals] == list(CLASSES)
    for p in ideals:
        assert p.role == "train"
        assert p.inputs == tuple(int(c) for row in DEFAULT_BITMAPS[p.class_label] for c in row)


def test_variants_flip_positions():
    bitmaps = {"z": ("000", "000", "000"), "v": ("111", "111", "111"), "n": ("000", "111", "111")}
    found = families(build_dataset(bitmaps))
    assert found["z"][1].inputs == (0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert found["z"][1].role == "test"
    assert found["v"][8].inputs == (1,) * 8 + (0,)


def test_dataset_shape():
    ds = build_dataset()
    assert len(ds.training) == 24
    assert len(ds.testing) == 3
    for cls in CLASSES:
        assert sum(1 for p in ds.training if p.class_label == cls) == 8
    assert all(p.variant_index == 1 for p in ds.testing)


def test_dataset_class_blocked_order():
    ds = build_dataset()
    labels = [p.class_label for p in ds.training]
    assert labels == ["z"] * 8 + ["v"] * 8 + ["n"] * 8
    # within a block: ideal first, variants 2..8 in order
    for offset, cls in zip((0, 8, 16), CLASSES):
        block = ds.training[offset : offset + 8]
        assert [p.variant_index for p in block] == [0, 2, 3, 4, 5, 6, 7, 8]


def test_dataset_27_distinct_patterns():
    ds = build_dataset()
    everything = {p.inputs for p in ds.training + ds.testing}
    assert len(everything) == 27


def test_dataset_deterministic():
    a = build_dataset()
    b = build_dataset()
    assert a == b


def test_bitmap_text_roundtrip():
    text = "\n\n".join("\n".join(DEFAULT_BITMAPS[cls]) for cls in CLASSES) + "\n"
    assert parse_bitmap_text(text) == DEFAULT_BITMAPS


def test_bitmap_text_errors():
    with pytest.raises(ConfigurationError):
        parse_bitmap_text("110\n010\n011\n")  # one block only
    with pytest.raises(ConfigurationError):
        parse_bitmap_text("abc\n010\n011\n\n101\n101\n010\n\n010\n101\n101\n")


def test_bitmap_error_names_its_line_in_the_file(tmp_path):
    # comment lines count: the bad row is the file's third line
    bitmaps = tmp_path / "glyphs.txt"
    bitmaps.write_text("# z\n111\n1x0\n111\n\n000\n010\n000\n\n101\n101\n101\n")
    with pytest.raises(ConfigurationError, match=r"^bitmap line 3: expected only '0'/'1', got '1x0'$"):
        load_config(overrides={"dataset.bitmaps_file": str(bitmaps)})


# Texts over "01# \n2": raw, as free lines, and as three blocks of three
# lines that are mostly glyph rows, so that some of them parse.
junk_lines = st.text(alphabet="01# 2", max_size=5)
lines = st.integers(0, 9).flatmap(
    lambda i: junk_lines if i == 0 else st.text(alphabet="01", min_size=3, max_size=3)
)
bitmap_texts = st.one_of(
    st.text(alphabet="01# \n2", max_size=60),
    st.lists(lines, max_size=14).map("\n".join),
    st.lists(st.lists(lines, min_size=3, max_size=3), min_size=3, max_size=3).map(
        lambda blocks: "\n\n".join("\n".join(block) for block in blocks)
    ),
)


@given(bitmap_texts)
def test_any_bitmap_file_builds_the_bank_or_is_refused(tmp_path_factory, text):
    # parse_bitmap_text is the one check of the file: whatever it passes,
    # build_dataset turns into the 24/3 bank or refuses as a collision
    path = tmp_path_factory.getbasetemp() / "bitmaps.txt"
    path.write_text(text, encoding="utf-8")
    try:
        ds = build_dataset(load_config(overrides={"dataset.bitmaps_file": str(path)}).bitmaps)
    except ConfigurationError:
        return
    assert (len(ds.training), len(ds.testing)) == (24, 3)
    for p in ds.training + ds.testing:
        assert len(p.inputs) == 9 and set(p.inputs) <= {0, 1}


def test_active_indices():
    p = Pattern("v0", "v", 0, "train", (1, 0, 1, 0, 0, 0, 0, 0, 1))
    assert p.active_indices == (0, 2, 8)
