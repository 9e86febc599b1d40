"""The package's export list."""

import matdecide


def test_every_exported_name_resolves():
    missing = [name for name in matdecide.__all__ if not hasattr(matdecide, name)]
    assert missing == []
    assert len(set(matdecide.__all__)) == len(matdecide.__all__)


def test_star_import_gives_exactly_the_export_list():
    namespace: dict = {}
    exec("from matdecide import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(matdecide.__all__)
