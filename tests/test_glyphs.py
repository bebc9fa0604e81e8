"""Seven-segment geometry: masks, permutations, induced digit maps."""

import pytest

from segmagic.glyphs import (
    DIGIT_MASKS,
    GLYPH_TRANSFORMS,
    MIRROR_H,
    MIRROR_V,
    ROT180,
    SEGMENTS,
    TRANSFORMABLE_DIGITS,
    ascii_glyph,
    digit_from_mask,
    digit_map,
    digit_mask,
    digit_transform,
    mask_from_segments,
    segments_of,
    transform_mask,
)

ALL_MASKS = range(128)


def test_canonical_masks_are_distinct():
    assert len(DIGIT_MASKS) == 10
    assert len(set(DIGIT_MASKS)) == 10


def test_canonical_segment_sets():
    # The standard seven-segment shapes, written out segment by segment.
    expected = {
        0: "abcdef",
        1: "bc",
        2: "abdeg",
        3: "abcdg",
        4: "bcfg",
        5: "acdfg",
        6: "acdefg",
        7: "abc",
        8: "abcdefg",
        9: "abcdfg",
    }
    for digit, segments in expected.items():
        assert segments_of(digit_mask(digit)) == segments, digit


def test_mask_segment_round_trip():
    for mask in ALL_MASKS:
        assert mask_from_segments(segments_of(mask)) == mask
    with pytest.raises(ValueError):
        mask_from_segments("ax")


def test_digit_from_mask_reads_canonical_and_shifted_one():
    for digit in range(10):
        assert digit_from_mask(digit_mask(digit)) == digit
    # A rotated or mirrored "1" occupies the left bar (segments e, f); the
    # reading convention accepts that as a 1 as well.
    assert digit_from_mask(mask_from_segments("ef")) == 1
    assert digit_from_mask(0) is None
    assert digit_from_mask(mask_from_segments("g")) is None


@pytest.mark.parametrize("transform", GLYPH_TRANSFORMS)
def test_transform_mask_is_involution_on_all_masks(transform):
    for mask in ALL_MASKS:
        assert transform_mask(transform_mask(mask, transform), transform) == mask


def test_rot180_is_mirror_h_compose_mirror_v():
    for mask in ALL_MASKS:
        assert transform_mask(mask, ROT180) == transform_mask(
            transform_mask(mask, MIRROR_V), MIRROR_H
        )


def test_transform_mask_preserves_popcount():
    for mask in ALL_MASKS:
        for transform in GLYPH_TRANSFORMS:
            assert bin(transform_mask(mask, transform)).count("1") == bin(
                mask
            ).count("1")


def test_mask_permutation_examples():
    # Rotation turns the 6 (top-left stem) into the 9 (bottom-right stem).
    assert transform_mask(digit_mask(6), ROT180) == digit_mask(9)
    assert transform_mask(digit_mask(9), ROT180) == digit_mask(6)
    # Mirroring swaps the S-shaped 2 and 5.
    assert transform_mask(digit_mask(2), MIRROR_H) == digit_mask(5)
    # A left-right mirrored 1 lands on the left bar; the top-bottom mirror
    # keeps it on the right bar.
    assert transform_mask(digit_mask(1), MIRROR_H) == mask_from_segments("ef")
    assert transform_mask(digit_mask(1), ROT180) == mask_from_segments("ef")
    assert transform_mask(digit_mask(1), MIRROR_V) == digit_mask(1)


def test_rot180_digit_map():
    assert digit_map(ROT180) == (0, 1, 2, None, None, 5, 9, None, 8, 6)


def test_mirror_digit_maps():
    expected = (0, 1, 5, None, None, 2, None, None, 8, None)
    assert digit_map(MIRROR_H) == expected
    assert digit_map(MIRROR_V) == expected


@pytest.mark.parametrize("transform", GLYPH_TRANSFORMS)
def test_digit_transform_matches_map(transform):
    mapping = digit_map(transform)
    for digit in range(10):
        assert digit_transform(digit, transform) == mapping[digit]


@pytest.mark.parametrize("transform", GLYPH_TRANSFORMS)
def test_digit_map_follows_mask_geometry(transform):
    # Wherever the map is defined, the mask permutation must agree with it on
    # the rotation-readable digits; wherever it is None, either the image
    # mask is unreadable or the digit is outside the transformable domain.
    for digit in range(10):
        image_mask = transform_mask(digit_mask(digit), transform)
        image = digit_from_mask(image_mask)
        mapped = digit_transform(digit, transform)
        if mapped is not None:
            assert digit in TRANSFORMABLE_DIGITS
            assert image == mapped
        else:
            assert image is None or digit not in TRANSFORMABLE_DIGITS


@pytest.mark.parametrize("transform", GLYPH_TRANSFORMS)
def test_digit_map_is_self_inverse(transform):
    mapping = digit_map(transform)
    for digit, image in enumerate(mapping):
        if image is not None:
            assert mapping[image] == digit


def test_digit_mask_rejects_non_digits():
    with pytest.raises(ValueError):
        digit_mask(10)
    with pytest.raises(ValueError):
        digit_mask(-1)


def test_unknown_transform_rejected():
    with pytest.raises(ValueError):
        transform_mask(0, "transpose")
    with pytest.raises(ValueError):
        digit_transform(8, "transpose")
    for name in ("spin", "digit-reverse"):
        with pytest.raises(ValueError, match=f"unknown glyph transform '{name}'"):
            digit_map(name)


def test_ascii_glyphs():
    assert ascii_glyph(digit_mask(8)) == (" _ ", "|_|", "|_|")
    assert ascii_glyph(digit_mask(1)) == ("   ", "  |", "  |")
    assert ascii_glyph(digit_mask(2)) == (" _ ", " _|", "|_ ")
    assert ascii_glyph(digit_mask(5)) == (" _ ", "|_ ", " _|")
    # Every glyph is three rows of three characters.
    for mask in ALL_MASKS:
        art = ascii_glyph(mask)
        assert len(art) == 3 and all(len(row) == 3 for row in art)


def test_segments_constant():
    assert SEGMENTS == "abcdefg"
