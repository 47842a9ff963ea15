"""The package's export list is the union of its submodules' lists."""

import inspect

import bicone
from bicone import continuity, deformations, energy, geometry, moduli, reports

SUBMODULES = (continuity, deformations, energy, geometry, moduli, reports)


def test_the_package_exports_exactly_its_submodules_lists():
    names = [name for module in SUBMODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(bicone.__all__) == sorted([*names, "__version__"])
    assert all(hasattr(bicone, name) for name in bicone.__all__)


def test_every_public_class_and_function_of_the_package_is_exported():
    bound = {name for name, value in vars(bicone).items()
             if not name.startswith("_")
             and (inspect.isclass(value) or inspect.isfunction(value))}
    assert bound <= set(bicone.__all__), sorted(bound - set(bicone.__all__))
