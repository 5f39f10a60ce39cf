"""Per-worker-process cache for broadcast payloads used by TASK-pool stages.

Pattern: ``ray.put`` the payload once, pass the ObjectRef into a plain
``map_batches`` function, and resolve it through ``cached_get`` — the first
task on each worker deserializes the payload, every later task on that
worker reuses the deserialized object. This keeps the one-copy broadcast
semantics of an actor pool WITHOUT the actor pool: actor spawn costs ~2-3 s
of ramp per query at high concurrency (measured, BASELINE.md round 2),
while tasks reuse the session's warm workers.

The caches hold a FEW entries (FIFO-bounded): composite stages resolve
more than one broadcast ref per batch (e.g. the curation pass reads the
eval-gram table AND the unigram-count table), and a one-entry cache would
ping-pong — re-deserializing each payload every batch. Payloads here are
small by contract (gram tables, vocab tables, centroid matrices), so a
handful of entries keeps worker heaps flat.
"""

from __future__ import annotations

_MAX_ENTRIES = 8

_CACHE: dict = {}


def _evict(cache: dict) -> None:
    while len(cache) >= _MAX_ENTRIES:
        cache.pop(next(iter(cache)))  # FIFO: dicts preserve insertion order


_MISS = object()  # payloads and derivations may legitimately be None


def cached_get(ref):
    v = _CACHE.get(ref, _MISS)
    if v is _MISS:
        import ray

        _evict(_CACHE)
        v = ray.get(ref)
        _CACHE[ref] = v
    return v


_DERIVED: dict = {}


def cached_build(ref, builder, token=None):
    """Like ``cached_get`` but caches ``builder(payload)`` — for stages that
    derive a worker-local structure (a lookup Series, a normalized matrix)
    from the broadcast payload. Keyed by (ref, builder qualname, token): the
    ref alone is the stable identity across a task's batches (closures are
    recreated per task), but two STAGES deriving different structures
    from the SAME broadcast ref must not share the first derivation —
    a ref-only key silently handed stage B stage A's structure. A builder
    that closes over parameters (an n-gram size, a threshold) has one
    qualname for every parameter value, so its caller passes those values
    as ``token``. A ``None`` derivation is cached like any other value."""
    key = (
        ref,
        getattr(builder, "__module__", ""),
        getattr(builder, "__qualname__", repr(builder)),
        token,
    )
    v = _DERIVED.get(key, _MISS)
    if v is _MISS:
        _evict(_DERIVED)
        v = builder(cached_get(ref))
        _DERIVED[key] = v
    return v
