"""What a JSON number is, the one reader and writer of JSON files, and the
one check every frozen settings class runs.

A settings class is a frozen dataclass that derives from ``Settings`` and
declares each field with ``setting(default, rule)``, where a rule is a
``(check, meaning)`` pair. Construction, ``dataclasses.replace`` and
``from_doc`` all end in ``__post_init__``, which runs each field's check
and names the first value that fails.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import MISSING, field, fields

from .errors import ConfigError, ParseError


def is_int(value) -> bool:
    """An int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


_FLOAT_MAX = sys.float_info.max


def is_number(value) -> bool:
    """An int or float a float can hold: not a bool, NaN, +-inf or an
    integer past float range."""
    return (isinstance(value, float) or is_int(value)) and abs(value) <= _FLOAT_MAX


def _unique_keys(pairs: list) -> dict:
    """One JSON object, refused if it repeats a key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return doc


def read_json(path: str | os.PathLike, error: type[Exception] = ParseError):
    """The JSON document in the UTF-8 file ``path``. A file that cannot be
    opened, is not UTF-8 or not JSON, nests past the decoder's limit or
    repeats a key within one object raises ``error`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from exc


def write_json(doc, path: str | os.PathLike, indent: int = 2) -> None:
    """Write ``doc`` to ``path`` as JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def integer(low: int):
    return (lambda v: is_int(v) and v >= low), f"an integer >= {low}"


def number(low: float, high: float | None = None):
    if high is None:
        return (lambda v: is_number(v) and v >= low), f"a number >= {low}"
    return (lambda v: is_number(v) and low <= v <= high), f"a number in [{low}, {high}]"


def one_of(*options: str):
    meaning = " or ".join(options) if len(options) == 2 else f"one of {', '.join(options)}"
    return (lambda v: isinstance(v, str) and v in options), meaning


def optional(rule):
    check, meaning = rule
    return (lambda v: v is None or check(v)), f"null or {meaning}"


FLAG = (lambda v: isinstance(v, bool)), "true or false"
UNIT = number(0, 1)


def setting(default=MISSING, rule=None, *, default_factory=MISSING):
    """A settings field whose value must pass ``rule``, a (check, meaning) pair."""
    return field(default=default, default_factory=default_factory, metadata={"rule": rule})


class Settings:
    """Base of the frozen settings dataclasses. ``NOUN`` names one value in
    an error message, and ``DOC`` a whole document."""

    NOUN = "setting"
    DOC = "a settings document"

    def __post_init__(self):
        for f in fields(self):
            check, meaning = f.metadata["rule"]
            value = getattr(self, f.name)
            try:
                ok = check(value)
            except ConfigError as exc:  # a nested settings document names its own value
                raise ConfigError(f"{self.NOUN} {f.name!r}: {exc}") from None
            if not ok:
                raise ConfigError(f"{self.NOUN} {f.name!r} must be {meaning}, got {value!r}")

    def to_doc(self) -> dict:
        """The JSON object of every value, tuples as lists."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_doc(cls, doc):
        """Refuse a document that is not an object or names an unknown
        value; a list becomes a tuple where the default is one."""
        if not isinstance(doc, dict):
            raise ConfigError(f"{cls.DOC} must be a JSON object")
        known = {f.name: f.default for f in fields(cls)}
        unknown = set(doc) - set(known)
        if unknown:
            raise ConfigError(f"unknown {cls.NOUN}s: {sorted(unknown)}")
        return cls(**{
            name: tuple(value)
            if isinstance(known[name], tuple) and isinstance(value, list)
            else value
            for name, value in doc.items()
        })
