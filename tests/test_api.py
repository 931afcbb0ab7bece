import shdh


def test_every_export_resolves():
    missing = [name for name in shdh.__all__ if not hasattr(shdh, name)]
    assert missing == []
    assert len(set(shdh.__all__)) == len(shdh.__all__)


def test_star_import():
    namespace = {}
    exec("from shdh import *", namespace)
    assert set(shdh.__all__) <= set(namespace)
