import pytest
from hypothesis import given
from hypothesis import strategies as st

from optoperceptron.errors import ConfigurationError
from optoperceptron.patterns import (
    CLASSES,
    DEFAULT_BITMAPS,
    Pattern,
    build_dataset,
    flatten_grid,
    generate_variants,
    ideal_patterns,
    parse_bitmap_text,
    reduced_training,
)

grids = st.lists(
    st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=3, max_size=3
)


def test_flatten_all_ones():
    assert flatten_grid(["111", "111", "111"]) == (1,) * 9


def test_flatten_single_cell_row2_col1():
    # grid row 2, column 1 (1-based) lands at flat index 4 (x_4, 0-based 3)
    assert flatten_grid(["000", "100", "000"]) == (0, 0, 0, 1, 0, 0, 0, 0, 0)


@given(grids)
def test_flatten_unflatten_roundtrip(grid):
    flat = flatten_grid(grid)
    assert tuple(flat[r * 3 : r * 3 + 3] for r in range(3)) == tuple(tuple(r) for r in grid)


@pytest.mark.parametrize(
    "bad",
    [["111", "111"], ["111", "111", "11"], ["111", "121", "111"]],
)
def test_bad_bitmap_rejected(bad):
    with pytest.raises(ConfigurationError):
        flatten_grid(bad)


def test_ideal_patterns_default():
    ideals = ideal_patterns()
    assert [p.class_label for p in ideals] == list(CLASSES)
    for p in ideals:
        assert p.variant_index == 0
        assert p.role == "train"
        assert p.inputs == flatten_grid(DEFAULT_BITMAPS[p.class_label])


def test_ideal_patterns_wrong_classes():
    with pytest.raises(ConfigurationError):
        ideal_patterns({"a": ("111",) * 3, "b": ("111",) * 3, "c": ("111",) * 3})


def test_variants_flip_positions():
    ideal = Pattern("z0", "z", 0, "train", (0,) * 9)
    variants = generate_variants(ideal)
    assert variants[0].inputs == (0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert variants[0].role == "test"
    ones = Pattern("z0", "z", 0, "train", (1,) * 9)
    assert generate_variants(ones)[7].inputs == (1,) * 8 + (0,)


def test_variants_hamming_distance_one():
    for ideal in ideal_patterns():
        for k, variant in enumerate(generate_variants(ideal), start=1):
            assert variant.variant_index == k
            diffs = [i for i in range(9) if variant.inputs[i] != ideal.inputs[i]]
            assert diffs == [k]


def test_variants_require_ideal():
    variant = generate_variants(ideal_patterns()[0])[2]
    with pytest.raises(ValueError):
        generate_variants(variant)


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


def test_class_family_has_nine_members():
    for ideal in ideal_patterns():
        family = {ideal.inputs} | {v.inputs for v in generate_variants(ideal)}
        assert len(family) == 9


def test_pattern_role_invariant():
    with pytest.raises(ValueError):
        Pattern("z1", "z", 1, "train", (0,) * 9)
    with pytest.raises(ValueError):
        Pattern("z2", "z", 2, "test", (0,) * 9)


def test_pattern_validates_inputs():
    with pytest.raises(ValueError):
        Pattern("z0", "z", 0, "train", (0,) * 8)
    with pytest.raises(ValueError):
        Pattern("z0", "z", 0, "train", (0,) * 8 + (2,))


def test_reduced_training_keeps_block_order():
    ds = build_dataset()
    reduced = reduced_training(ds, per_class=2)
    assert [p.class_label for p in reduced] == ["z", "z", "v", "v", "n", "n"]
    assert [p.variant_index for p in reduced] == [0, 2, 0, 2, 0, 2]


def test_bitmap_text_roundtrip():
    text = "\n\n".join("\n".join(DEFAULT_BITMAPS[cls]) for cls in CLASSES) + "\n"
    assert parse_bitmap_text(text) == DEFAULT_BITMAPS


def test_bitmap_text_errors():
    with pytest.raises(ConfigurationError):
        parse_bitmap_text("110\n010\n011\n")  # one block only
    with pytest.raises(ConfigurationError):
        parse_bitmap_text("abc\n010\n011\n\n101\n101\n010\n\n010\n101\n101\n")


def test_active_indices():
    p = Pattern("v0", "v", 0, "train", (1, 0, 1, 0, 0, 0, 0, 0, 1))
    assert p.active_indices == (0, 2, 8)
