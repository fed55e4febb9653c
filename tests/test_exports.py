"""Every exported name resolves: the package's ``__all__`` and each
submodule's name only what the module defines or imports, once each."""

import importlib
import pkgutil

import pytest

import qbernstein

MODULES = ["qbernstein"] + sorted(
    f"qbernstein.{info.name}" for info in pkgutil.iter_modules(qbernstein.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_the_submodules_are_found():
    assert {"qbernstein.cli", "qbernstein.tables", "qbernstein.verify"} <= set(MODULES)


def test_integrals_exports_one_function_per_route_and_the_p_adic_oracle():
    module = importlib.import_module("qbernstein.integrals")
    assert sorted(module.__all__) == ["fermionic_basis_sum", "integral_direct", "integral_reflected"]
