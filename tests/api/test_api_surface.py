"""The public surface of ``repro.api`` matches its ``__all__`` exactly."""

import inspect

import repro.api as api


def _importable_names():
    """Non-underscore attributes of the package that are not submodules."""
    return {
        name
        for name in dir(api)
        if not name.startswith("_") and not inspect.ismodule(getattr(api, name))
    }


def test_all_entries_resolve():
    for name in api.__all__:
        assert hasattr(api, name), f"__all__ names missing attribute {name!r}"


def test_surface_matches_all():
    # Everything importable from the package top level is deliberate: the
    # __all__ list IS the public API, with no stray re-exports (internals
    # like group_by_context / atomic_write_json stay on their own modules).
    assert _importable_names() == set(api.__all__)


def test_all_is_sorted_and_unique():
    assert sorted(api.__all__) == list(api.__all__)
    assert len(set(api.__all__)) == len(api.__all__)


def test_internals_stay_importable_from_their_modules():
    from repro.api.executor import group_by_context
    from repro.api.store import atomic_write_json

    assert callable(group_by_context)
    assert callable(atomic_write_json)


def test_new_types_exported():
    assert api.TrajectorySpec is not None
    # A frame's execution has no options object: the renderer chooses its
    # process count, and a smaller image is a scaled camera.
    assert not hasattr(api, "RenderOptions")
