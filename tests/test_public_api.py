from __future__ import annotations

import types

import sascone


def test_every_exported_name_resolves():
    missing = [name for name in sascone.__all__ if not hasattr(sascone, name)]
    assert missing == []
    assert len(set(sascone.__all__)) == len(sascone.__all__)


def test_all_lists_exactly_the_imported_public_names():
    imported = {
        name for name in dir(sascone)
        if not name.startswith("_") and not isinstance(getattr(sascone, name), types.ModuleType)
    }
    assert imported == set(sascone.__all__)


def test_every_exported_class_has_its_own_docstring():
    # not inherited, and not the `Name(fields)` text that namedtuple and dataclass synthesize
    undocumented = [
        name for name in sascone.__all__
        if isinstance(cls := getattr(sascone, name), type)
        and (not cls.__dict__.get("__doc__") or cls.__doc__.startswith(f"{name}("))
    ]
    assert undocumented == []
