"""tests/output_digest.py still runs, and its toy stages repeat exactly."""
import re

from output_digest import digests


def test_output_digest_toy_stages_repeat():
    first = digests(full=False)
    assert list(first) == ["simp-toy", "augment", "checkpoint", "metrics", "sample",
                           "continuous", "cgan"]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in first.values()), first
    assert digests(full=False) == first
