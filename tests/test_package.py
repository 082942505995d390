import pytest

MODULES = ("topology", "blockvec", "objectives", "solver", "hardcase", "experiments", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from gossipopt.{name} import *", {})
