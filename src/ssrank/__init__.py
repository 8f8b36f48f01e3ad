"""Exact invariants of p-torsion group schemes via their mod-p module structure."""

from . import bt1, build, curves, eo, ffmat, words
from .ffmat import *
from .bt1 import *
from .eo import *
from .words import *
from .build import *
from .curves import *

__all__ = ffmat.__all__ + bt1.__all__ + eo.__all__ + words.__all__ + build.__all__ + curves.__all__
