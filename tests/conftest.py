"""Shared fixtures: run BDD kernel tests against both kernels."""

from unittest import mock

import pytest

from repro.bdd import manager as bdd_manager
from repro.bdd.kernel import PyKernel

KERNEL_NAMES = ("native", "python")


def kernel_class(name):
    """The kernel class behind *name*; skips when the native kernel did
    not build on this host (CI asserts that it does)."""
    if name == "python":
        return PyKernel
    if bdd_manager.KERNEL != "native":
        pytest.skip("native BDD kernel unavailable on this host")
    return bdd_manager._Kernel


def manager_on(cls):
    """A fresh BDDManager running on kernel class *cls*."""
    with mock.patch.object(bdd_manager, "_Kernel", cls):
        return bdd_manager.BDDManager()


@pytest.fixture(scope="module", params=KERNEL_NAMES)
def new_manager(request):
    """Factory of fresh managers, once per kernel."""
    cls = kernel_class(request.param)
    return lambda: manager_on(cls)
