"""The package's public names."""

import qptrim


def test_every_export_resolves():
    assert [n for n in qptrim.__all__ if not hasattr(qptrim, n)] == []
    namespace = {}
    exec("from qptrim import *", namespace)
    assert set(qptrim.__all__) <= namespace.keys()
