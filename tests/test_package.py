"""The package's public names."""

from collections import Counter

import xham


def test_every_export_resolves_and_appears_once():
    assert [name for name, count in Counter(xham.__all__).items() if count > 1] == []
    assert [name for name in xham.__all__ if not hasattr(xham, name)] == []
