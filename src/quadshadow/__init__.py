"""Exact projective geometry for quadrangle-and-shadow diagrams.

A planar diagram — a center O and two labeled quadrangles seen from it —
either can or cannot be the picture of a spatial quadrangle together
with its shadow.  This package decides which, over exact rationals, and
builds explicit spatial witness scenes for the diagrams that pass.

Importing the package loads the modules that check, lift and render a
diagram and read and write its documents.  The generators and the command
line load on first use of one of their names, so no check or lift compiles
the generators.
"""

import sys
from importlib import import_module

from .kernel import *
from .quadrangle import *
from .perspectivity import *
from .checker import *
from .lift import *
from .render import *
from .documents import *
from . import checker, documents, kernel, lift, perspectivity, quadrangle, render

__version__ = "0.1.0"

#: Public name -> module that defines it, for the modules loaded on first use.
_LAZY = {
    **dict.fromkeys(
        ("SplitMix64", "GenConfig", "RetriesExhausted", "gen_correct_diagram",
         "gen_incorrect_diagram", "gen_general_position_diagram", "gen_degenerate_diagram",
         "gen_point_perspective_triangles", "gen_axis_perspective_triangles"),
        "quadshadow.generators",
    ),
    "run_cli": "quadshadow.cli_io",
}


def __getattr__(name: str):
    # Each call reads the module's current binding, never a copy kept here,
    # so a later rebinding in the module (a patch, a mock) is always seen.
    module = _LAZY.get(name)
    if module is None:
        if name in ("generators", "cli_io"):
            return import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        return getattr(sys.modules[module], name)
    except KeyError:
        return getattr(import_module(module), name)


__all__ = [
    "__version__",
    *kernel.__all__,
    *quadrangle.__all__,
    *perspectivity.__all__,
    *checker.__all__,
    *lift.__all__,
    *render.__all__,
    *documents.__all__,
    *_LAZY,
]
