"""The bundled derivations: the storage operators and their building blocks.

The 17 files under ``data/derivations`` are the bundle. Each is a full
derivation tree in the text ``write_derivation`` produces, and the checker
revalidates it when it is loaded; ``tests/builders.py`` reproduces every
file byte for byte from the typecheck module's node constructors.
"""

from __future__ import annotations

import functools
from importlib import resources

from storop.formulas import parse_equations
from storop.typecheck import Derivation, read_derivation

__all__ = [
    "EQ_DEMO_EQUATIONS",
    "prebuilt_names",
    "prebuilt_check_args",
    "load_prebuilt",
]

EQ_DEMO_EQUATIONS = "p0: p(0) = 0\nps: p(s(x)) = x"

_DATA = resources.files("storop").joinpath("data/derivations")


@functools.cache
def prebuilt_names() -> tuple[str, ...]:
    """The stems of the bundled files, sorted; listed on the first call."""
    return tuple(
        sorted(f.name.removesuffix(".deriv") for f in _DATA.iterdir() if f.name.endswith(".deriv"))
    )


def prebuilt_check_args(name: str) -> dict:
    """Keyword arguments the checker needs for a bundled derivation."""
    if name == "eq_demo":
        return {"equations": parse_equations(EQ_DEMO_EQUATIONS)}
    if name in ("t2_fperp", "t2_star", "zero_prop", "succ_prop"):
        return {"fragment": "fperp"}
    return {}


def load_prebuilt(name: str) -> Derivation:
    """Read the bundled golden file for a derivation."""
    if name not in prebuilt_names():
        raise KeyError(f"no bundled derivation named {name!r}")
    return read_derivation(_DATA.joinpath(f"{name}.deriv").read_text(encoding="utf-8"))
