"""Exact projective geometry for quadrangle-and-shadow diagrams.

A planar diagram — a center O and two labeled quadrangles seen from it —
either can or cannot be the picture of a spatial quadrangle together
with its shadow.  This package decides which, over exact rationals, and
builds explicit spatial witness scenes for the diagrams that pass.
"""

from .kernel import *
from .quadrangle import *
from .perspectivity import *
from .checker import *
from .lift import *
from .generators import *
from .render import *
from .cli_io import *
from . import checker, cli_io, generators, kernel, lift, perspectivity, quadrangle, render

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *kernel.__all__,
    *quadrangle.__all__,
    *perspectivity.__all__,
    *checker.__all__,
    *lift.__all__,
    *generators.__all__,
    *render.__all__,
    *cli_io.__all__,
]
