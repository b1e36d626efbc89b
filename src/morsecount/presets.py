"""Bundled worked configurations: abstract parity patterns and analytic
curvature candidates, shipped as JSON files next to this module.

A preset file either carries a ``parities`` key (loaded as a
:class:`~morsecount.indexcount.ParityConfig`) or a ``terms`` key (loaded as a
:class:`~morsecount.kfunc.KFunction`).
"""

from __future__ import annotations

import json
from importlib import resources
from typing import TYPE_CHECKING

from .indexcount import ParityConfig

if TYPE_CHECKING:
    from .kfunc import KFunction



def _preset_dir():
    return resources.files(__package__) / "presets"


def available_presets() -> tuple[str, ...]:
    """Sorted names of every bundled preset."""
    names = [
        entry.name[: -len(".json")]
        for entry in _preset_dir().iterdir()
        if entry.name.endswith(".json")
    ]
    return tuple(sorted(names))


def _read(name: str) -> dict:
    path = _preset_dir() / f"{name}.json"
    try:
        raw = path.read_text()
    except FileNotFoundError:
        known = ", ".join(available_presets())
        raise ValueError(f"unknown preset {name!r}; available: {known}") from None
    return json.loads(raw)


def load_preset(name: str) -> ParityConfig | KFunction:
    """Load a bundled preset by name.

    Returns a ParityConfig for abstract parity patterns and a KFunction for
    analytic curvature candidates.
    """
    data = _read(name)
    if "parities" in data:
        return ParityConfig.from_dict(data)
    if "terms" in data:
        from .kfunc import KFunction  # numpy loads with the first curvature preset

        return KFunction.from_dict(data)
    raise ValueError(
        f"preset {name!r} has neither 'parities' nor 'terms'; cannot load"
    )
