"""Each export list names every public object once, and every name resolves."""

import pytest

import gmkit
import gmkit.protocol


@pytest.mark.parametrize("module", [gmkit, gmkit.protocol], ids=lambda module: module.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert sorted({name for name in names if names.count(name) > 1}) == []
    assert [name for name in names if not hasattr(module, name)] == []
