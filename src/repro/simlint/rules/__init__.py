"""Concrete simlint rules, grouped by family.

Importing this package populates :data:`repro.simlint.registry.RULES`;
each module registers its rules at import time via the ``@register``
decorator.
"""

from repro.simlint.rules import (  # noqa: F401  (registration side effect)
    bitidentity,
    determinism,
    diagnostics,
    hygiene,
    mutation_surface,
    taint_flow,
    vector,
)
