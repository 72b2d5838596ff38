"""Name normalization and first-initial/last-name blocking.

Blocks are the unit of all downstream work: pairs are only scored inside a
block and clustering never crosses block boundaries. A record with no first
name is keyed under an explicit empty-initial marker instead of being merged
into every initial's block.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import IntegrityError

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import Dataset, Signature

EMPTY_INITIAL = "_"


@dataclass(frozen=True)
class NormalizedName:
    """Lowercased, diacritic-folded, punctuation-free name parts."""

    first: str
    middle: str
    last: str

    @property
    def first_initial(self) -> str:
        return self.first[:1]

    @property
    def full(self) -> str:
        return " ".join(p for p in (self.first, self.middle, self.last) if p)


@dataclass(frozen=True)
class Block:
    """Signatures sharing one blocking key. Members are sorted and unique."""

    key: str
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


def fold_text(text: str) -> str:
    """Fold to lowercase ASCII-ish text: strip diacritics, drop punctuation,
    collapse whitespace. Idempotent."""
    decomposed = unicodedata.normalize("NFKD", text)
    no_marks = "".join(c for c in decomposed if not unicodedata.combining(c))
    kept = "".join(c for c in no_marks if c.isalnum() or c.isspace())
    return " ".join(kept.lower().split())


def normalize_name(
    raw_first: str | None, raw_middle: str | None, raw_last: str
) -> NormalizedName:
    """Normalize the three name parts.

    Raises IntegrityError if the last name is empty after folding; first and
    middle may fold to empty strings.
    """
    last = fold_text(raw_last or "")
    if not last:
        raise IntegrityError(f"last name {raw_last!r} is empty after normalization")
    return NormalizedName(
        first=fold_text(raw_first or ""),
        middle=fold_text(raw_middle or ""),
        last=last,
    )


def block_key(sig: "Signature") -> str:
    """Blocking key of a signature: first initial + space + last name."""
    return f"{sig.name.first_initial or EMPTY_INITIAL} {sig.name.last}"


def build_blocks(dataset: "Dataset") -> list[Block]:
    """Partition all signatures into disjoint blocks, sorted by key."""
    groups: dict[str, list[str]] = {}
    for sig_id in sorted(dataset.signatures):
        sig = dataset.signatures[sig_id]
        groups.setdefault(block_key(sig), []).append(sig_id)
    return [Block(key=k, members=tuple(groups[k])) for k in sorted(groups)]
