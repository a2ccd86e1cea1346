import importlib

import rismf

MODULES = ("channel", "signals", "mf", "multiuser", "baselines", "experiments")


def test_package_api_is_the_modules_api():
    # each module's __all__ is the only list of its public names
    exported = {name: importlib.import_module(f"rismf.{name}") for name in MODULES}
    for module in list(exported.values()):
        exported.update((name, getattr(module, name)) for name in module.__all__)
    assert sorted(rismf.__all__) == sorted(exported)
    for name, value in exported.items():
        assert getattr(rismf, name) is value
