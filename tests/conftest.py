from __future__ import annotations

from datetime import timedelta
from pathlib import Path

import pytest

from phishlife import classifier, ingest, squatgen
from phishlife.classifier import ClassifierContext, bulk_membership, cluster_bulk

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def rules() -> ingest.SuffixRules:
    return ingest.load_suffix_rules(DATA / "suffixes.dat")


@pytest.fixture(scope="session")
def corpus_table(rules) -> ingest.DomainTable:
    feed = ingest.load_feed(DATA / "corpus40_feed.tsv", "lines")
    return ingest.build_domain_table(feed.entries, rules)


@pytest.fixture(scope="session")
def catalog() -> squatgen.BrandCatalog:
    return squatgen.load_catalog(DATA / "brands.csv", brand_top_n=10, squat_top_n=10)


@pytest.fixture(scope="session")
def classifier_ctx(catalog) -> ClassifierContext:
    log = classifier.load_registration_log(DATA / "registration_log.csv")
    clusters = cluster_bulk(log, timedelta(hours=24), max_edit_distance=2, min_cluster_size=3)
    return ClassifierContext(
        allow=classifier.load_allowlist(DATA / "allowlist.csv"),
        catalog=catalog,
        squat_index=squatgen.build_index(catalog),
        word_list=classifier.load_word_list(DATA / "words.txt"),
        bulk_membership=bulk_membership(clusters),
        min_word_len=4,
    )
