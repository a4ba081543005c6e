"""Tier-1 byte-identity check: every case of the corpus in `digests.py`
grounds and emits what `tests/data/digests.json` pins."""

import json

import digests


def test_the_corpus_grounds_and_emits_as_pinned():
    want = json.loads(digests.DIGESTS.read_text(encoding="utf-8"))
    got = digests.compute()
    assert not digests.differing(want, got), "cases that differ: " + ", ".join(
        digests.differing(want, got)
    )
