"""SL204 negative: every counter the oracle declares is written by code
reachable from ``run`` — directly, through a method, or through a
module-level helper — except the exempt ``cycles``."""


class Counters:
    steps: int = 0
    fetches: int = 0
    stalls: int = 0
    cycles: int = 0


def _stall(counters, cycles):
    counters.stalls += cycles


class MiniUnit:
    COUNTER_PARITY_ORACLE = "sl204_good.py"
    COUNTER_PARITY_EXEMPT = ("cycles",)

    def __init__(self, counters):
        self.counters = counters

    def run(self, warps):
        completion = 0
        for warp in warps:
            completion = self._step(warp, completion)
            self.counters.steps += 1
        return completion

    def _step(self, warp, start):
        self.counters.fetches += len(warp)
        _stall(self.counters, 1)
        return start + 1
