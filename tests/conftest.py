from collections import Counter

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """A function that counts the calls of each (owner, attribute) in its
    `targets`, by attribute name, until the test ends."""
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def count(targets):
        for owner, name in targets:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        return counts

    return count
