"""The package's public names: the export list and the star import agree."""

import sobemb


def test_every_exported_name_resolves():
    missing = [name for name in sobemb.__all__ if not hasattr(sobemb, name)]
    assert missing == []
    assert len(set(sobemb.__all__)) == len(sobemb.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from sobemb import *", namespace)
    assert set(sobemb.__all__) <= set(namespace)
