"""Per-worker broadcast cache: None results are cached, and an explicit
token separates derivations whose builders close over parameters."""

from __future__ import annotations


def test_cached_build_caches_none_result(ray_session):
    import ray

    from ocr_suite_ray.stages._bcast import cached_build

    ref = ray.put([1, 2, 3])
    calls = []

    def _none_builder(payload):
        calls.append(payload)
        return None

    assert cached_build(ref, _none_builder) is None
    assert cached_build(ref, _none_builder) is None
    assert len(calls) == 1, "a None derivation must not re-run every batch"


def test_cached_build_token_separates_closures(ray_session):
    import ray

    from ocr_suite_ray.stages._bcast import cached_build

    ref = ray.put(5)

    def make(k):
        def _scaled(payload):
            return payload * k

        return _scaled

    # same ref, same builder qualname, different captured parameter
    assert cached_build(ref, make(2), token=2) == 10
    assert cached_build(ref, make(3), token=3) == 15
    assert cached_build(ref, make(2), token=2) == 10
