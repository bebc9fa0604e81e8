"""Seven-segment digit geometry, the digit maps induced by flips and turns,
and the parsing of digit alphabets.

Segments are lettered a-g in the usual order (a = top, then clockwise,
g = middle bar):

     aaa
    f   b
    f   b
     ggg
    e   c
    e   c
     ddd

A glyph is a 7-bit mask, bit i = segment ``"abcdefg"[i]`` lit.  The canonical
digit table, frozen here, is the common watch rendering:

    0 -> abcdef     5 -> acdfg
    1 -> bc         6 -> acdefg   (top bar lit)
    2 -> abdeg      7 -> abc      (no top-left)
    3 -> abcdg      8 -> abcdefg
    4 -> bcfg       9 -> abcdfg   (bottom bar lit)

With 6 carrying its top bar and 9 its bottom bar, a 180-degree turn maps the
two glyphs exactly onto each other.

Three geometric transformations act on masks as segment permutations:

    rot180   (half turn)          a<->d, b<->e, c<->f, g fixed
    mirror-h (left-right mirror)  b<->f, c<->e, a, d, g fixed
    mirror-v (top-bottom flip,    a<->d, b<->c, e<->f, g fixed
              e.g. a water reflection)

Digit-level maps are derived from these permutations, with two deliberate
reading rules rather than raw mask equality:

* A lone vertical bar reads as 1 on whichever side of the cell it sits.
  Turning or mirroring the canonical 1 (segments bc) yields the left-side
  bar ef, which is still the numeral 1 to any reader.
* Only the rotation-readable digits 0, 1, 2, 5, 6, 8, 9 take part in
  transformation; 3, 4 and 7 never map to a digit.  (A top-bottom flip of
  the 3 glyph happens to be segment-identical to itself, but 3 is outside
  the rotation-readable family, so it is excluded all the same.)

The resulting maps:

    rot180:    0, 1, 2, 5, 8 fixed; 6 <-> 9; 3, 4, 7 invalid
    mirror-h:  0, 1, 8 fixed; 2 <-> 5; 3, 4, 6, 7, 9 invalid
    mirror-v:  0, 1, 8 fixed; 2 <-> 5; 3, 4, 6, 7, 9 invalid

An alphabet is a set of distinct decimal digits, written "1258" or given as
any iterable of ints; ``parse_alphabet`` is the one place that checks it,
for the searches (through ``squares``) and the date scans alike.
"""

from __future__ import annotations

from typing import Iterable

SEGMENTS = "abcdefg"

ROT180 = "rot180"
MIRROR_H = "mirror-h"
MIRROR_V = "mirror-v"
GLYPH_TRANSFORMS = (ROT180, MIRROR_H, MIRROR_V)

#: Digits whose half-turned glyph is again a digit; only these are eligible
#: for any glyph transformation.
TRANSFORMABLE_DIGITS = frozenset((0, 1, 2, 5, 6, 8, 9))

_A, _B, _C, _D, _E, _F, _G = (1 << i for i in range(7))

DIGIT_MASKS = (
    _A | _B | _C | _D | _E | _F,            # 0
    _B | _C,                                # 1
    _A | _B | _D | _E | _G,                 # 2
    _A | _B | _C | _D | _G,                 # 3
    _B | _C | _F | _G,                      # 4
    _A | _C | _D | _F | _G,                 # 5
    _A | _C | _D | _E | _F | _G,            # 6
    _A | _B | _C,                           # 7
    _A | _B | _C | _D | _E | _F | _G,       # 8
    _A | _B | _C | _D | _F | _G,            # 9
)

# The numeral 1 drawn on the left-hand segments, as produced by a half turn
# or a left-right mirror of the canonical right-hand form.
_ONE_LEFT_BAR = _E | _F

# perm[i] = index of the segment that segment i lands on.
_PERMUTATIONS = {
    ROT180: (3, 4, 5, 0, 1, 2, 6),
    MIRROR_H: (0, 5, 4, 3, 2, 1, 6),
    MIRROR_V: (3, 2, 1, 0, 5, 4, 6),
}

_MASK_TO_DIGIT = {mask: digit for digit, mask in enumerate(DIGIT_MASKS)}


def digit_mask(digit: int) -> int:
    """Canonical segment mask of a decimal digit."""
    if not 0 <= digit <= 9:
        raise ValueError(f"not a decimal digit: {digit!r}")
    return DIGIT_MASKS[digit]


def mask_from_segments(segments: str) -> int:
    """Mask with the named segments lit, e.g. ``mask_from_segments("bc")``."""
    mask = 0
    for name in segments:
        mask |= 1 << SEGMENTS.index(name)
    return mask


def segments_of(mask: int) -> str:
    """Names of the lit segments, in a-g order."""
    return "".join(name for i, name in enumerate(SEGMENTS) if mask >> i & 1)


def transform_mask(mask: int, transform: str) -> int:
    """Apply a geometric transformation to a mask (pure segment permutation)."""
    try:
        perm = _PERMUTATIONS[transform]
    except KeyError:
        raise ValueError(f"unknown glyph transform {transform!r}") from None
    out = 0
    for i in range(7):
        if mask >> i & 1:
            out |= 1 << perm[i]
    return out


def digit_from_mask(mask: int) -> int | None:
    """Digit whose glyph the mask shows, or None.

    Recognizes the ten canonical masks plus the left-side bar as 1.
    """
    if mask == _ONE_LEFT_BAR:
        return 1
    return _MASK_TO_DIGIT.get(mask)


def digit_transform(digit: int, transform: str) -> int | None:
    """Digit seen after transforming a digit's glyph, or None if unreadable."""
    if not 0 <= digit <= 9:
        raise ValueError(f"not a decimal digit: {digit!r}")
    return digit_map(transform)[digit]


def digit_map(transform: str) -> tuple[int | None, ...]:
    """The full 10-entry digit map of one transformation."""
    try:
        return _DIGIT_MAPS[transform]
    except KeyError:
        raise ValueError(f"unknown glyph transform {transform!r}") from None


def _derive_digit_map(transform: str) -> tuple[int | None, ...]:
    out: list[int | None] = []
    for digit in range(10):
        if digit not in TRANSFORMABLE_DIGITS:
            out.append(None)
            continue
        out.append(digit_from_mask(transform_mask(digit_mask(digit), transform)))
    return tuple(out)


_DIGIT_MAPS = {t: _derive_digit_map(t) for t in GLYPH_TRANSFORMS}


def ascii_glyph(mask: int) -> tuple[str, str, str]:
    """Three-line ASCII art for a mask, 3 characters wide.

    Row 1 holds segment a, row 2 f/g/b, row 3 e/d/c:

        8 ->  _     2 ->  _
             |_|          _|
             |_|         |_
    """
    lit = [bool(mask >> i & 1) for i in range(7)]
    a, b, c, d, e, f, g = lit
    return (
        " " + ("_" if a else " ") + " ",
        ("|" if f else " ") + ("_" if g else " ") + ("|" if b else " "),
        ("|" if e else " ") + ("_" if d else " ") + ("|" if c else " "),
    )


def parse_alphabet(text: str | Iterable[int]) -> tuple[int, ...]:
    """Normalize an alphabet ("1258" or any digit iterable) to ascending digits.

    A string shows itself in the ValueError; any other iterable is read
    once, into a tuple, which the error shows instead.
    """
    if isinstance(text, str):
        digits = [int(ch) if ch.isdigit() and ch.isascii() else -1 for ch in text]
    else:
        try:
            text = tuple(text)
        except TypeError:
            raise ValueError(f"alphabet must be decimal digits, got {text!r}") from None
        digits = text
    if not digits or any(type(d) is not int or d not in range(10) for d in digits):
        raise ValueError(f"alphabet must be decimal digits, got {text!r}")
    if len(set(digits)) != len(digits):
        raise ValueError(f"alphabet has repeated digits: {text!r}")
    return tuple(sorted(digits))
