import importlib

import semiref

LIBRARY = ("errors", "potentials", "specfun", "wkb_reflection",
           "scattering_oracle", "landau_zener")


def test_package_exports_each_module_s_own_names_once():
    modules = [importlib.import_module(f"semiref.{name}") for name in LIBRARY]
    names = semiref.__all__
    assert len(names) == len(set(names))
    assert set(names) == {n for m in modules for n in m.__all__} | {"__version__"}
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(semiref, name) is obj, name
            # A module lists only what it defines, not what it imports.
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
