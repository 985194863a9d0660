from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from phishlife.ingest import DomainRecord
from phishlife.squatgen import (
    BITFLIP_MASKS,
    HOMOGLYPHS,
    TECHNIQUE_ORDER,
    Brand,
    BrandCatalog,
    InvalidBrandDomain,
    SquatCandidate,
    Technique,
    build_index,
    generate,
    load_catalog,
    match,
)

LABEL_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")
LABEL = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?", fullmatch=True)


def record(registrable: str, suffix: str | None = None) -> DomainRecord:
    suffix = suffix or registrable.split(".", 1)[1]
    return DomainRecord(
        registrable=registrable, public_suffix=suffix, subdomain="",
        subdomain_count=0, first_detections={}, brands=set(), url_count=1,
    )


# ---------------------------------------------------------------- oracle
# The squat engine as it was before the index kept one attribution per label:
# a set of variants per brand, every attribution of a label kept, and the
# winner picked at match time.

ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


def raw_variants_oracle(label: str) -> set[tuple[str, Technique]]:
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
            if flipped in ALNUM + "-":
                out.add((label[:i] + flipped + label[i + 1:], Technique.BITFLIP))
    for i, c in enumerate(label):
        for g in HOMOGLYPHS.get(c, ()):
            out.add((label[:i] + g + label[i + 1:], Technique.HOMOGLYPH))
    for i in range(len(label) - 1):
        for g in HOMOGLYPHS.get(label[i:i + 2], ()):
            out.add((label[:i] + g + label[i + 2:], Technique.HOMOGLYPH))
    for i in range(1, len(label)):
        out.add((label[:i] + "-" + label[i:], Technique.HYPHENATION))
    for c in ALNUM[:26]:
        out.add((c + label, Technique.PREFIX_INSERTION))
    return out


def generate_oracle(label: str) -> set[tuple[str, Technique]]:
    candidates = {(variant, tech) for variant, tech in raw_variants_oracle(label)
                  if variant != label and len(variant) <= 63 and LABEL_RE.match(variant)}
    return candidates | {(label, Technique.TLD_SWAP)}


def build_index_oracle(catalog: BrandCatalog):
    """(by_label with every attribution, tld_swap_labels, brand_rank)."""
    by_label: dict[str, set[tuple[str, Technique]]] = {}
    tld_swap_labels: dict[str, list[tuple[str, str, int]]] = {}
    brand_rank: dict[str, int] = {}
    for brand in catalog.squat_brands():
        brand_rank[brand.brand_id] = brand.rank
        for label, technique in generate_oracle(brand.canonical_domain.split(".", 1)[0]):
            if technique is Technique.TLD_SWAP:
                tld_swap_labels.setdefault(label, []).append(
                    (brand.brand_id, brand.suffix, brand.rank))
            else:
                by_label.setdefault(label, set()).add((brand.brand_id, technique))
    return by_label, tld_swap_labels, brand_rank


def match_oracle(oracle_index, rec: DomainRecord):
    by_label, tld_swap_labels, brand_rank = oracle_index
    label = rec.registrable.split(".", 1)[0]
    hits = [(brand_rank[b], TECHNIQUE_ORDER[t], b, t) for b, t in by_label.get(label, ())]
    hits += [(rank, TECHNIQUE_ORDER[Technique.TLD_SWAP], b, Technique.TLD_SWAP)
             for b, suffix, rank in tld_swap_labels.get(label, ()) if rec.public_suffix != suffix]
    return min(hits)[2:] if hits else None


# short labels over a small alphabet, so that brands' variants collide; it
# holds both halves of the l/1/i and rn/m homoglyph pairs
BRAND_LABEL = st.from_regex(r"[abilmnr1]([abilmnr1-]{0,5}[abilmnr1])?", fullmatch=True)
SUFFIXES = ["com", "net", "co.uk"]
BRAND_IDS = ["one", "two", "ab", "x", "three", "four", "five", "six"]


def labels_for(candidates: set[SquatCandidate], technique: Technique) -> set[str]:
    return {c.label for c in candidates if c.technique is technique}


class TestGenerate:
    def test_cited_examples(self):
        candidates = generate("facebook.com")
        assert "facebook0" in labels_for(candidates, Technique.ADDITION)
        assert "faaebook" in labels_for(candidates, Technique.BITFLIP)  # 'c' ^ 0x02
        assert "faceb0ok" in labels_for(candidates, Technique.HOMOGLYPH)
        assert "face-book" in labels_for(candidates, Technique.HYPHENATION)
        assert "dfacebook" in labels_for(candidates, Technique.PREFIX_INSERTION)

    def test_missing_letter_example(self):
        assert "goole" in labels_for(generate("google.com"), Technique.OMISSION)

    def test_capital_i_homoglyph_family(self):
        # the l/1/i confusable chain
        assert "paypai" in labels_for(generate("paypal.com"), Technique.HOMOGLYPH)
        assert "paypa1" in labels_for(generate("paypal.com"), Technique.HOMOGLYPH)

    def test_rn_window_homoglyph(self):
        homoglyphs = labels_for(generate("modern.com"), Technique.HOMOGLYPH)
        assert "rnodern" in homoglyphs  # m -> rn
        assert "modem" in homoglyphs    # rn -> m

    def test_exhaustive_enumeration_oracle(self):
        # independent re-derivation of every technique rule on a 2-char label
        label = "ab"
        expected: set[tuple[str, Technique]] = set()
        alnum = "abcdefghijklmnopqrstuvwxyz0123456789"
        for c in alnum:
            expected.add((label + c, Technique.ADDITION))
        for i in range(len(label)):
            expected.add((label[:i] + label[i + 1:], Technique.OMISSION))
        for i in range(len(label)):
            expected.add((label[:i] + label[i] + label[i:], Technique.REPETITION))
        for i, ch in enumerate(label):
            for bit in range(5):
                flipped = chr(ord(ch) ^ (1 << bit))
                variant = label[:i] + flipped + label[i + 1:]
                if flipped in set(alnum + "-") and LABEL_RE.match(variant):
                    expected.add((variant, Technique.BITFLIP))
        table = {"a": ["4"], "b": ["8"]}
        for i, ch in enumerate(label):
            for g in table.get(ch, []):
                expected.add((label[:i] + g + label[i + 1:], Technique.HOMOGLYPH))
        expected.add(("a-b", Technique.HYPHENATION))
        for c in "abcdefghijklmnopqrstuvwxyz":
            expected.add((c + label, Technique.PREFIX_INSERTION))
        expected.add(("ab", Technique.TLD_SWAP))

        actual = {(c.label, c.technique) for c in generate("ab.com")}
        assert actual == expected
        assert len(generate("ab.com")) == len(expected)

    def test_identity_excluded(self):
        for cand in generate("facebook.com"):
            if cand.technique is not Technique.TLD_SWAP:
                assert cand.label != "facebook"

    def test_invalid_brand_domain(self):
        with pytest.raises(InvalidBrandDomain):
            generate("nodots")
        with pytest.raises(InvalidBrandDomain):
            generate("-bad.com")

    @given(LABEL)
    def test_validity_property(self, label):
        for cand in generate(f"{label}.com"):
            assert LABEL_RE.match(cand.label), cand
            assert len(cand.label) <= 63

    @given(LABEL)
    def test_determinism(self, label):
        assert generate(f"{label}.com") == generate(f"{label}.com")

    @given(LABEL)
    def test_bitflip_soundness(self, label):
        for cand in generate(f"{label}.com"):
            if cand.technique is not Technique.BITFLIP:
                continue
            assert len(cand.label) == len(label)
            diffs = [(a, b) for a, b in zip(label, cand.label) if a != b]
            assert len(diffs) == 1
            a, b = diffs[0]
            xor = ord(a) ^ ord(b)
            assert xor and (xor & (xor - 1)) == 0  # exactly one bit

    @given(LABEL)
    def test_omission_addition_duality(self, label):
        additions = labels_for(generate(f"{label}.com"), Technique.ADDITION)
        for added in additions:
            omissions = labels_for(generate(f"{added}.com"), Technique.OMISSION)
            assert label in omissions


class TestIndex:
    def test_single_brand_lookup(self):
        catalog = BrandCatalog([Brand("facebook", "facebook.com", 1)],
                               brand_top_n=1, squat_top_n=1)
        index = build_index(catalog)
        assert match(index, record("faceb0ok.com")) == ("facebook", Technique.HOMOGLYPH)
        assert index.by_label["faceb0ok"] == (1, 4, "facebook", Technique.HOMOGLYPH)

    def test_zero_squat_top_n(self):
        catalog = BrandCatalog([Brand("facebook", "facebook.com", 1)],
                               brand_top_n=1, squat_top_n=0)
        index = build_index(catalog)
        assert not index.by_label and not index.tld_swap_labels

    @pytest.mark.parametrize("first, second", [("aab", "abb"), ("abb", "aab")])
    def test_collision_keeps_lowest_rank(self, first, second):
        # "ab" is an omission of both "aab" and "abb": the better-ranked brand wins
        catalog = BrandCatalog(
            [Brand(first, f"{first}.com", 1), Brand(second, f"{second}.com", 2)],
            brand_top_n=2, squat_top_n=2)
        assert match(build_index(catalog), record("ab.com")) == (first, Technique.OMISSION)

    def test_completeness(self):
        catalog = BrandCatalog([Brand("usps", "usps.com", 1)], brand_top_n=1, squat_top_n=1)
        index = build_index(catalog)
        for cand in generate("usps.com"):
            suffix = "top" if cand.technique is Technique.TLD_SWAP else "com"
            hit = match(index, record(f"{cand.label}.{suffix}", suffix))
            assert hit is not None and hit.brand_id == "usps"


class TestIndexOracle:
    @given(brands=st.lists(st.tuples(st.sampled_from(BRAND_IDS), BRAND_LABEL,
                                     st.sampled_from(SUFFIXES)),
                           min_size=1, max_size=8, unique_by=lambda brand: brand[0]),
           squat_top_n=st.integers(0, 8), probes=st.lists(BRAND_LABEL, max_size=5))
    def test_equals_oracle(self, brands, squat_top_n, probes):
        # each brand id once, as a catalog holds it; the labels of different
        # brands collide
        catalog = BrandCatalog(
            [Brand(bid, f"{label}.{suffix}", rank)
             for rank, (bid, label, suffix) in enumerate(brands, 1)],
            brand_top_n=8, squat_top_n=squat_top_n)
        index, oracle = build_index(catalog), build_index_oracle(catalog)
        assert set(index.by_label) == set(oracle[0])
        assert index.tld_swap_labels == oracle[1]
        for label in [*oracle[0], *oracle[1], *probes]:
            for suffix in SUFFIXES:
                rec = record(f"{label}.{suffix}", suffix)
                assert match(index, rec) == match_oracle(oracle, rec), rec

    @given(BRAND_LABEL)
    def test_generate_equals_oracle(self, label):
        assert {(c.label, c.technique) for c in generate(f"{label}.com")} == generate_oracle(label)

    @pytest.mark.parametrize("label", [
        "a" * 62, "a" * 63, "a" * 64, "a-" + "b" * 60 + "-c", "m-" + "rn" * 40 + "-l", "a-b", "a",
    ])
    def test_generate_equals_oracle_at_length_limits(self, label):
        assert {(c.label, c.technique) for c in generate(f"{label}.com")} == generate_oracle(label)


class TestMatch:
    @pytest.fixture()
    def index(self, catalog):
        return build_index(catalog)

    def test_homoglyph_hit(self, index):
        hit = match(index, record("faceb0ok.com"))
        assert hit == ("facebook", Technique.HOMOGLYPH)

    def test_exact_brand_domain_is_not_a_squat(self, index):
        assert match(index, record("facebook.com")) is None

    def test_tld_swap(self, index):
        hit = match(index, record("facebook.top"))
        assert hit == ("facebook", Technique.TLD_SWAP)

    def test_rank_tiebreak(self):
        catalog = BrandCatalog(
            [Brand("one", "aab.com", 1), Brand("two", "abb.com", 2)],
            brand_top_n=2, squat_top_n=2)
        index = build_index(catalog)
        hit = match(index, record("ab.com"))
        assert hit.brand_id == "one"

    def test_technique_tiebreak_within_brand(self):
        # "aabx" is addition from "aab"; also nothing else -> single; craft a
        # label reachable two ways from one brand: "aab" -> repetition of 'a'
        # gives "aaab"; omission from "aaabb"? keep simple: addition vs
        # repetition both produce "aabb" from "aab"
        catalog = BrandCatalog([Brand("one", "aab.com", 1)], brand_top_n=1, squat_top_n=1)
        index = build_index(catalog)
        hit = match(index, record("aabb.com"))
        assert hit == ("one", Technique.ADDITION)  # addition precedes repetition

    def test_no_hit(self, index):
        assert match(index, record("unrelated.com")) is None


class TestCatalog:
    def test_load(self, data_dir):
        catalog = load_catalog(data_dir / "brands.csv", brand_top_n=10, squat_top_n=5)
        assert catalog.brands[0].brand_id == "facebook"
        assert len(catalog.squat_brands()) == 5

    def test_rank_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            BrandCatalog([Brand("a", "a.com", 2), Brand("b", "b.com", 1)],
                         brand_top_n=2, squat_top_n=2)

    def test_cutoff_ordering_enforced(self):
        with pytest.raises(ValueError):
            BrandCatalog([Brand("a", "ab.com", 1)], brand_top_n=1, squat_top_n=2)
