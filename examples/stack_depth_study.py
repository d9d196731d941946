"""Stack depth study: regenerate the paper's motivation (Figs. 4 and 5).

Traces every benchmark scene and reports per-scene max/avg/median stack
depths plus the aggregate depth distribution — the data that motivates a
two-level stack: an 8-entry primary covers most steps, but 9-16-entry
episodes are frequent enough to matter and the tail reaches ~30.

Run:  python examples/stack_depth_study.py [--quick]
"""

import sys

from repro.experiments import (
    CachedWorkloadCache,
    fig4_stack_depths,
    fig5_depth_distribution,
)
from repro.workloads import DEFAULT_PARAMS


def main() -> int:
    quick = "--quick" in sys.argv
    params = DEFAULT_PARAMS.scaled(0.5) if quick else DEFAULT_PARAMS
    cache = CachedWorkloadCache(params=params)

    print(fig4_stack_depths.render(fig4_stack_depths.run(cache)))
    print()
    result = fig5_depth_distribution.run(cache)
    print(fig5_depth_distribution.render(result))

    low, mid, high = result.fractions
    print(
        f"\nInterpretation: an 8-entry primary stack covers {low:.0%} of "
        f"traversal steps; an 8-entry shared-memory secondary stack covers "
        f"another {mid:.0%}; only {high:.1%} of steps would still spill to "
        f"global memory — the basis for the paper's RB_8+SH_8 design."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
