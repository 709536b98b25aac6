import goldencalc


def test_every_exported_name_resolves():
    assert [name for name in goldencalc.__all__ if not hasattr(goldencalc, name)] == []
    assert len(set(goldencalc.__all__)) == len(goldencalc.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from goldencalc import *", namespace)
    assert set(goldencalc.__all__) <= namespace.keys()
