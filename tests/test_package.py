"""The package's public surface."""

import dklab


def test_every_exported_name_resolves():
    missing = [name for name in dklab.__all__ if not hasattr(dklab, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from dklab import *", namespace)
    assert set(dklab.__all__) <= set(namespace)
