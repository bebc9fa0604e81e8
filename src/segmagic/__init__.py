"""Universal magic squares over seven-segment digits.

Models the digit maps induced by rotating or mirroring seven-segment glyphs,
verifies and classifies magic squares of fixed-width digit-string cells
(including invariance under rotation, mirrors and per-cell digit reversal),
enumerates combination squares over restricted digit alphabets, and scans
calendar dates for digit-alphabet membership.

The public names below are re-exported lazily (PEP 562): ``import segmagic``
loads no submodule, and the first use of a name loads only the module that
defines it, so a command that never searches never imports ``search``.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "digits_of": "dates",
    "scan": "dates",
    "GLYPH_TRANSFORMS": "glyphs",
    "MIRROR_H": "glyphs",
    "MIRROR_V": "glyphs",
    "ROT180": "glyphs",
    "digit_mask": "glyphs",
    "digit_transform": "glyphs",
    "transform_mask": "glyphs",
    "LatinPair": "search",
    "LatinPairError": "search",
    "decompose_to_latin_pair": "search",
    "enumerate_palindromic": "search",
    "enumerate_squares": "search",
    "from_latin_pair": "search",
    "magic_sum": "search",
    "ATOMIC_TRANSFORMS": "squares",
    "Category": "squares",
    "ClassificationReport": "squares",
    "DIGIT_REVERSE": "squares",
    "InvalidDigitError": "squares",
    "Square": "squares",
    "SquareParseError": "squares",
    "alphabet_of": "squares",
    "apply_transform": "squares",
    "classify": "squares",
    "classify_universal": "squares",
    "magic_constant": "squares",
    "parse_alphabet": "squares",
    "parse_square": "squares",
    "render": "squares",
    "report_to_json": "squares",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
