"""Storage operators for Church numerals.

Each public name is imported from the module that defines it:
``storop.terms`` (lambda terms, parsing, printing, numerals),
``storop.reduction`` (the head-reduction kernel and ``normalize``),
``storop.storage`` (the symbolic storage certifier and its behavioural
cross-check), ``storop.formulas`` (second-order formulas, equations and the
translations), ``storop.typecheck`` (derivations, their reader, writer and
checker), ``storop.builtins`` (the named terms ``@name`` refers to),
``storop.prebuilt`` (the bundled derivations) and ``storop.cli`` (the
``storop`` command).
"""

# the one re-export: perfbench stamps its results with storop.backend_name()
from storop.reduction import backend_name

__version__ = "0.1.0"

__all__ = ["__version__", "backend_name"]
