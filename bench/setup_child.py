"""Set-up probe: import phishlife and build a workload's reference state.

Run in a fresh process from a generated workload directory, with ``src``
on ``PYTHONPATH``. Prints the seconds from before the import to after the
last loader returned: what a user pays before the first record.
"""

import json
import time

start = time.perf_counter()

from phishlife import classifier, dnsmon, ingest, squatgen  # noqa: E402

with open("config.json", encoding="utf-8") as fh:
    cfg = json.load(fh)
ingest.load_suffix_rules(cfg["suffix_rules"])
catalog = squatgen.load_catalog(cfg["brand_catalog"], brand_top_n=cfg["brand_top_n"],
                                squat_top_n=cfg["squat_top_n"])
squatgen.build_index(catalog)
classifier.load_allowlist(cfg["allowlist"])
classifier.load_word_list(cfg["word_list"])
dnsmon.load_vantages(cfg["vantage_config"])
print(time.perf_counter() - start)
