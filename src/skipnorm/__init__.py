"""skipnorm: residual skip-connection constructions under layer and batch
normalization, with a from-scratch reverse-mode tensor core, an exact
shortcut/residual decomposition analysis, gradient diagnostics, and a
deterministic desk-scale training harness.

Each module's ``__all__`` is its public API; the package republishes
all of them.
"""

from . import blocks, data, diagnostics, errors, normalization, ratio, tensor, training
from .blocks import *  # noqa: F401,F403
from .data import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .normalization import *  # noqa: F401,F403
from .ratio import *  # noqa: F401,F403
from .tensor import *  # noqa: F401,F403
from .training import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (blocks, data, diagnostics, errors, normalization, ratio, tensor, training)
    for name in module.__all__
)
