import primepairs


def test_star_import_resolves_every_exported_name():
    # a name in __all__ that the package does not define fails the import
    namespace = {}
    exec("from primepairs import *", namespace)
    assert len(set(primepairs.__all__)) == len(primepairs.__all__)
    for name in primepairs.__all__:
        assert namespace[name] is getattr(primepairs, name), name
