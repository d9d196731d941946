"""Vector plan cache access (good): sanctioned writers and pure reads."""
from repro.gpu.vector.plan import trace_cache


def warp_plan(trace, plan):
    cache = trace_cache(trace)
    cache["plan"] = plan
    return plan


def lookup(trace):
    cache = trace_cache(trace)
    return cache.get("soa")
