"""Vector plan cache mutation (bad): outside the sanctioned writers."""
from repro.gpu.vector.plan import trace_cache


def patch(trace, soa):
    cache = trace._vector_cache
    cache["soa"] = soa


def evict(trace):
    entries = trace_cache(trace)
    entries.pop("soa")
