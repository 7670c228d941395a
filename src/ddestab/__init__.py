"""Stability certificates and simulation for scalar delay differential
equations with positive and negative coefficients.

The package splits into five layers plus a command line front end:

- ``timefn``: time-dependent coefficients, delays, and window integrals.
- ``criteria``: explicit exponential-stability certificates.
- ``models``: Mackey-Glass population models, their linearizations, and
  the built-in example equations.
- ``solver``: method-of-steps RK4 integrator with dense Hermite output,
  fundamental solutions, and numerical identity checks.
- ``diagnostics``: trajectory classification, decay-rate fitting, and
  threshold search.
- ``cli``: the ``ddestab`` command (check / simulate / sweep / reproduce).

The package itself exports the names of the README's quick start; every
other name is imported from its own module.
"""

from .criteria import evaluate_all
from .diagnostics import classify
from .models import make_builtin
from .solver import ConstantHistory, integrate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConstantHistory",
    "classify",
    "evaluate_all",
    "integrate",
    "make_builtin",
]
