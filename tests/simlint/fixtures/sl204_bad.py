"""SL204 positive: the unit names this file's ``Counters`` class as its
counter-parity oracle, but nothing reachable from ``run`` writes the
declared ``stalls`` counter."""


class Counters:
    steps: int = 0
    fetches: int = 0
    stalls: int = 0
    cycles: int = 0


class MiniUnit:
    COUNTER_PARITY_ORACLE = "sl204_bad.py"
    COUNTER_PARITY_EXEMPT = ("cycles",)

    def __init__(self, counters):
        self.counters = counters

    def run(self, warps):
        completion = 0
        for warp in warps:
            completion = self._step(warp, completion)
        return completion

    def _step(self, warp, start):
        counters = self.counters
        counters.steps += 1
        counters.fetches += len(warp)
        return start + 1
