"""Squatting-permutation engine.

Generates deceptive variants of brand domains (character addition, omission,
repetition, bit flips, ASCII homoglyphs, hyphenation, prefix insertion, and
TLD swaps) and builds an exact-match index over them for classification.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import IoFailure, PhishlifeError
from .ingest import DomainRecord, read_csv

LABEL_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")
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


@dataclass(frozen=True)
class SquatCandidate:
    label: str
    technique: Technique


@dataclass(frozen=True)
class Brand:
    brand_id: str
    canonical_domain: str
    rank: int

    @property
    def suffix(self) -> str:
        return self.canonical_domain.split(".", 1)[1]


@dataclass
class BrandCatalog:
    """Ranked brand list with the two step cutoffs.

    brand_top_n bounds the brand-in-domain step, squat_top_n the
    squat-generation step; squat_top_n must not exceed brand_top_n.
    """

    brands: list[Brand]
    brand_top_n: int = 1000
    squat_top_n: int = 200

    def __post_init__(self) -> None:
        if self.squat_top_n > self.brand_top_n:
            raise ValueError("squat_top_n must be <= brand_top_n")
        ranks = [b.rank for b in self.brands]
        if any(r2 <= r1 for r1, r2 in zip(ranks, ranks[1:])):
            raise ValueError("brand ranks must be strictly increasing")

    def top_brands(self) -> list[Brand]:
        return self.brands[: self.brand_top_n]

    def squat_brands(self) -> list[Brand]:
        return self.brands[: self.squat_top_n]


class SquatHit(NamedTuple):
    brand_id: str
    technique: Technique


@dataclass
class SquatIndex:
    """Exact-match lookup from second-level labels to squat attributions."""

    by_label: dict[str, set[tuple[str, Technique]]] = field(default_factory=dict)
    # canonical label -> [(brand_id, canonical suffix, rank)]
    tld_swap_labels: dict[str, list[tuple[str, str, int]]] = field(default_factory=dict)
    brand_rank: dict[str, int] = field(default_factory=dict)


def _split_brand_domain(brand_domain: str) -> tuple[str, str]:
    domain = brand_domain.strip().lower()
    if "." not in domain:
        raise InvalidBrandDomain(f"{brand_domain!r} has no public suffix")
    label, suffix = domain.split(".", 1)
    if not LABEL_RE.match(label) or not all(LABEL_RE.match(l) for l in suffix.split(".")):
        raise InvalidBrandDomain(f"{brand_domain!r} is not a valid registrable domain")
    return label, suffix


def _raw_variants(label: str) -> set[tuple[str, Technique]]:
    out: set[tuple[str, Technique]] = set()

    for c in ALNUM:
        out.add((label + c, Technique.ADDITION))
    for i in range(len(label)):
        out.add((label[:i] + label[i + 1:], Technique.OMISSION))
    for i, c in enumerate(label):
        out.add((label[:i] + c + c + label[i + 1:], Technique.REPETITION))
    for i, c in enumerate(label):
        for mask in BITFLIP_MASKS:
            flipped = chr(ord(c) ^ mask)
            if flipped in LABEL_CHARS:
                out.add((label[:i] + flipped + label[i + 1:], Technique.BITFLIP))
    for i, c in enumerate(label):
        for g in HOMOGLYPHS.get(c, ()):
            out.add((label[:i] + g + label[i + 1:], Technique.HOMOGLYPH))
    for i in range(len(label) - 1):
        win = label[i:i + 2]
        for g in HOMOGLYPHS.get(win, ()):
            out.add((label[:i] + g + label[i + 2:], Technique.HOMOGLYPH))
    for i in range(1, len(label)):
        out.add((label[:i] + "-" + label[i:], Technique.HYPHENATION))
    for c in LETTERS:
        out.add((c + label, Technique.PREFIX_INSERTION))

    return out


def generate(brand_domain: str) -> set[SquatCandidate]:
    """Generate all squatting candidates for one brand domain.

    Returns a set of (label, technique) candidates; every label is a valid
    DNS label distinct from the canonical one, except the tld_swap marker
    which carries the canonical label itself.
    """
    label, _suffix = _split_brand_domain(brand_domain)

    candidates = {
        SquatCandidate(variant, tech)
        for variant, tech in _raw_variants(label)
        if variant != label and len(variant) <= 63 and LABEL_RE.match(variant)
    }
    candidates.add(SquatCandidate(label, Technique.TLD_SWAP))
    return candidates


def load_catalog(path: str | Path, brand_top_n: int = 1000, squat_top_n: int = 200) -> BrandCatalog:
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
            _split_brand_domain(b.canonical_domain)
        return BrandCatalog(brands=brands, brand_top_n=brand_top_n, squat_top_n=squat_top_n)
    except ValueError as exc:  # a rank that is not an integer, or ranks out of order
        raise IoFailure(f"malformed brand catalog {path}: {exc}") from exc


def build_index(catalog: BrandCatalog) -> SquatIndex:
    """Index generate() output for the first squat_top_n brands.

    Label collisions across brands retain all attributions.
    """
    index = SquatIndex()
    for brand in catalog.squat_brands():
        index.brand_rank[brand.brand_id] = brand.rank
        for cand in generate(brand.canonical_domain):
            if cand.technique is Technique.TLD_SWAP:
                index.tld_swap_labels.setdefault(cand.label, []).append(
                    (brand.brand_id, brand.suffix, brand.rank)
                )
            else:
                index.by_label.setdefault(cand.label, set()).add(
                    (brand.brand_id, cand.technique)
                )
    return index


def match(index: SquatIndex, record: DomainRecord) -> Optional[SquatHit]:
    """Exact-match a domain record's second-level label against the index.

    tld_swap additionally fires when the label equals a canonical brand
    label under a different public suffix. On multiple hits the lowest
    brand rank wins, then technique order.
    """
    label = record.registrable.split(".", 1)[0]
    hits: list[tuple[int, int, str, Technique]] = []
    for brand_id, technique in index.by_label.get(label, ()):
        hits.append((index.brand_rank[brand_id], TECHNIQUE_ORDER[technique], brand_id, technique))
    for brand_id, suffix, rank in index.tld_swap_labels.get(label, ()):
        if record.public_suffix != suffix:
            hits.append((rank, TECHNIQUE_ORDER[Technique.TLD_SWAP], brand_id, Technique.TLD_SWAP))
    if not hits:
        return None
    _, _, brand_id, technique = min(hits)
    return SquatHit(brand_id=brand_id, technique=technique)
