"""Every public name resolves, once: a deletion that leaves a stale entry in
``__all__`` fails here, not in a user's ``from uqmc import *``."""

import pytest

import uqmc
import uqmc.mmmc


@pytest.mark.parametrize("module", [uqmc, uqmc.mmmc], ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    names = module.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(module, n)] == []
