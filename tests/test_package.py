"""The package's public surface: `__all__` as `from cubeperc import *`
sees it."""

import cubeperc


def test_star_import_exports_all():
    # the star import raises AttributeError on an entry that does not
    # resolve
    namespace = {}
    exec("from cubeperc import *", namespace)
    names = cubeperc.__all__
    assert set(names) <= set(namespace)
    assert len(set(names)) == len(names)
    assert names == sorted(names)
