"""Squatting-permutation engine.

Generates deceptive variants of brand domains (character addition, omission,
repetition, bit flips, ASCII homoglyphs, hyphenation, prefix insertion, and
TLD swaps) and builds an exact-match index over them for classification.
"""

from __future__ import annotations

import enum
import re
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from .errors import IoFailure, PhishlifeError
from .ingest import MAX_LABEL_LEN, DomainRecord, read_csv

LABEL_RE = re.compile(r"[a-z0-9]([a-z0-9-]*[a-z0-9])?")
ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
LETTERS = "abcdefghijklmnopqrstuvwxyz"
LABEL_CHARS = frozenset(ALNUM + "-")
BITFLIP_MASKS = (1, 2, 4, 8, 16)

# ASCII-only confusable table. Keys of length 2 are substituted as a
# two-character window ("rn" -> "m").
HOMOGLYPHS: dict[str, tuple[str, ...]] = {
    "o": ("0",),
    "0": ("o",),
    "l": ("1", "i"),
    "1": ("l", "i"),
    "i": ("1", "l"),
    "e": ("3",),
    "3": ("e",),
    "a": ("4",),
    "4": ("a",),
    "s": ("5",),
    "5": ("s",),
    "b": ("8",),
    "8": ("b",),
    "g": ("9",),
    "9": ("g",),
    "m": ("rn",),
    "rn": ("m",),
}


class InvalidBrandDomain(PhishlifeError):
    """The brand domain is not a valid registrable domain."""


class Technique(enum.Enum):
    # declaration order doubles as the tie-break order on multiple hits
    ADDITION = "addition"
    OMISSION = "omission"
    REPETITION = "repetition"
    BITFLIP = "bitflip"
    HOMOGLYPH = "homoglyph"
    HYPHENATION = "hyphenation"
    PREFIX_INSERTION = "prefix_insertion"
    TLD_SWAP = "tld_swap"


TECHNIQUE_ORDER = {t: i for i, t in enumerate(Technique)}
# each label character -> the one-bit flips of it that are label characters too
_BITFLIPS = {
    c: tuple(f for f in (chr(ord(c) ^ mask) for mask in BITFLIP_MASKS) if f in LABEL_CHARS)
    for c in LABEL_CHARS
}


class SquatCandidate(NamedTuple):
    label: str
    technique: Technique


class Brand(NamedTuple):
    brand_id: str
    canonical_domain: str
    rank: int

    @property
    def suffix(self) -> str:
        return self.canonical_domain.split(".", 1)[1]


class BrandCatalog:
    """Ranked brand list with the two step cutoffs.

    brand_top_n bounds the brand-in-domain step, squat_top_n the
    squat-generation step; squat_top_n must not exceed brand_top_n.
    """

    # equal when the brands and cutoffs are, and unhashable
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, brands: list[Brand], brand_top_n: int, squat_top_n: int):
        if squat_top_n > brand_top_n:
            raise ValueError("squat_top_n must be <= brand_top_n")
        ranks = [b.rank for b in brands]
        if any(r2 <= r1 for r1, r2 in zip(ranks, ranks[1:])):
            raise ValueError("brand ranks must be strictly increasing")
        ids = [b.brand_id for b in brands]
        if len(set(ids)) != len(ids):
            raise ValueError("a brand_id is listed on two rows")
        self.brands, self.brand_top_n, self.squat_top_n = brands, brand_top_n, squat_top_n

    def __eq__(self, other: object) -> bool:
        if type(other) is not BrandCatalog:
            return NotImplemented
        return ((self.brands, self.brand_top_n, self.squat_top_n)
                == (other.brands, other.brand_top_n, other.squat_top_n))

    def top_brands(self) -> list[Brand]:
        return self.brands[: self.brand_top_n]

    @cached_property
    def brand_positions(self) -> tuple[dict[str, int], dict[str, int], list[int]]:
        """Position in top_brands() of each brand id.

        Returns the ids of 4 or more characters, the shorter ids, and the
        distinct lengths of the longer ones.
        """
        long_ids: dict[str, int] = {}
        short_ids: dict[str, int] = {}
        for position, brand in enumerate(self.top_brands()):
            ids = long_ids if len(brand.brand_id) >= 4 else short_ids
            ids[brand.brand_id] = position
        return long_ids, short_ids, sorted({len(bid) for bid in long_ids})

    def squat_brands(self) -> list[Brand]:
        return self.brands[: self.squat_top_n]


class SquatHit(NamedTuple):
    brand_id: str
    technique: Technique


class SquatIndex(NamedTuple):
    """Exact-match lookup from second-level labels to squat attributions."""

    # variant label -> (rank, technique order, brand_id, technique) of the
    # attribution that wins on that label
    by_label: dict[str, tuple[int, int, str, Technique]]
    # canonical label -> [(brand_id, canonical suffix, rank)]
    tld_swap_labels: dict[str, list[tuple[str, str, int]]]


def _split_brand_domain(brand_domain: str) -> tuple[str, str]:
    domain = brand_domain.strip().lower()
    if "." not in domain:
        raise InvalidBrandDomain(f"{brand_domain!r} has no public suffix")
    label, suffix = domain.split(".", 1)
    if not LABEL_RE.fullmatch(label) or not all(LABEL_RE.fullmatch(l) for l in suffix.split(".")):
        raise InvalidBrandDomain(f"{brand_domain!r} is not a valid registrable domain")
    return label, suffix


def _variants(label: str) -> Iterator[tuple[Technique, list[str]]]:
    """Each technique but tld_swap, in technique order, with its variants of a brand label.

    A variant may come twice, from one technique or from two. Variants that
    are not DNS labels of at most 63 characters are left out; no technique
    returns the label itself.
    """
    n = len(label)
    for technique, variants in (
        (Technique.ADDITION, [label + c for c in ALNUM]),
        (Technique.OMISSION, [label[:i] + label[i + 1:] for i in range(n)]),
        (Technique.REPETITION, [label[:i] + c + label[i:] for i, c in enumerate(label)]),
        (Technique.BITFLIP,
         [label[:i] + f + label[i + 1:] for i, c in enumerate(label) for f in _BITFLIPS[c]]),
        (Technique.HOMOGLYPH,
         [label[:i] + g + label[i + 1:] for i, c in enumerate(label) for g in HOMOGLYPHS.get(c, ())]
         + [label[:i] + g + label[i + 2:]
            for i in range(n - 1) for g in HOMOGLYPHS.get(label[i:i + 2], ())]),
        (Technique.HYPHENATION, [label[:i] + "-" + label[i:] for i in range(1, n)]),
        (Technique.PREFIX_INSERTION, [c + label for c in LETTERS]),
    ):
        # a variant is made of label characters, so it is a label unless it
        # is empty or starts or ends with a hyphen
        yield technique, [v for v in variants
                          if 0 < len(v) <= MAX_LABEL_LEN and v[0] != "-" and v[-1] != "-"]


def generate(brand_domain: str) -> set[SquatCandidate]:
    """Generate all squatting candidates for one brand domain.

    Returns a set of (label, technique) candidates; every label is a valid
    DNS label distinct from the canonical one, except the tld_swap marker
    which carries the canonical label itself.
    """
    label, _suffix = _split_brand_domain(brand_domain)
    candidates = {SquatCandidate(variant, technique)
                  for technique, variants in _variants(label) for variant in variants}
    candidates.add(SquatCandidate(label, Technique.TLD_SWAP))
    return candidates


def load_catalog(path: str | Path, brand_top_n: int, squat_top_n: int) -> BrandCatalog:
    """Load a brand catalog CSV (``rank,brand_id,canonical_domain``, header required)."""
    rows = read_csv(path, ("rank", "brand_id", "canonical_domain"), "brand catalog")
    try:
        brands = [
            Brand(
                brand_id=row["brand_id"].strip().lower(),
                canonical_domain=row["canonical_domain"].strip().lower(),
                rank=int(row["rank"]),
            )
            for row in rows
        ]
        for b in brands:
            if not b.brand_id:
                raise ValueError(f"empty brand_id for rank {b.rank}")
            _split_brand_domain(b.canonical_domain)
        return BrandCatalog(brands=brands, brand_top_n=brand_top_n, squat_top_n=squat_top_n)
    except ValueError as exc:  # a bad rank, an empty or repeated id, or ranks out of order
        raise IoFailure(f"malformed brand catalog {path}: {exc}") from exc


def build_index(catalog: BrandCatalog) -> SquatIndex:
    """Index the squat variants of the first squat_top_n brands.

    A label that several brands or techniques produce keeps the one
    attribution ``match`` picks: the lowest brand rank, then the first
    technique.
    """
    index = SquatIndex({}, {})
    by_label = index.by_label
    for brand in catalog.squat_brands():
        label, _suffix = _split_brand_domain(brand.canonical_domain)
        index.tld_swap_labels.setdefault(label, []).append(
            (brand.brand_id, brand.suffix, brand.rank)
        )
        for technique, variants in _variants(label):
            entry = (brand.rank, TECHNIQUE_ORDER[technique], brand.brand_id, technique)
            for variant in variants:
                best = by_label.get(variant)
                if best is None or entry[:2] < best[:2]:
                    by_label[variant] = entry
    return index


def match(index: SquatIndex, record: DomainRecord) -> Optional[SquatHit]:
    """Exact-match a domain record's second-level label against the index.

    tld_swap additionally fires when the label equals a canonical brand
    label under a different public suffix. On multiple hits the lowest
    brand rank wins, then technique order.
    """
    label = record.registrable.split(".", 1)[0]
    best = index.by_label.get(label)
    for brand_id, suffix, rank in index.tld_swap_labels.get(label, ()):
        swap = (rank, TECHNIQUE_ORDER[Technique.TLD_SWAP], brand_id, Technique.TLD_SWAP)
        if record.public_suffix != suffix and (best is None or swap < best):
            best = swap
    if best is None:
        return None
    return SquatHit(brand_id=best[2], technique=best[3])
