"""Registry error paths.

Complements ``test_registry.py`` / ``test_runner.py``: every failure mode
of the two registries (unknown key, duplicate key, overwrite, unregister of
a missing key).
"""

import pytest

import repro.api as api
from repro.api.backend import BackendNotFoundError, DuplicateBackendError
from repro.api.experiments import (
    DuplicateExperimentError,
    ExperimentNotFoundError,
)


class TestBackendRegistryErrorPaths:
    def test_unknown_key_lists_known_backends(self):
        with pytest.raises(BackendNotFoundError) as excinfo:
            api.get_backend("npu")
        message = str(excinfo.value)
        assert "npu" in message
        for known in ("deepcam", "eyeriss", "cpu"):
            assert known in message

    def test_duplicate_registration_raises_and_keeps_original(self):
        with pytest.raises(DuplicateBackendError):
            api.register_backend("cpu", api.DeepCAMBackend)
        # The original registration must be untouched by the failed attempt.
        assert isinstance(api.get_backend("cpu"), api.SkylakeCPUBackend)

    def test_overwrite_replaces_and_can_be_restored(self):
        original_factory = api.SkylakeCPUBackend

        class FakeCPU(api.SkylakeCPUBackend):
            pass

        try:
            api.register_backend("cpu", FakeCPU, overwrite=True)
            assert isinstance(api.get_backend("cpu"), FakeCPU)
        finally:
            api.register_backend("cpu", original_factory, overwrite=True)
        assert type(api.get_backend("cpu")) is api.SkylakeCPUBackend

    def test_unregister_missing_key_is_a_noop(self):
        api.unregister_backend("definitely-not-registered")
        assert "definitely-not-registered" not in api.list_backends()

    def test_factory_kwargs_errors_propagate(self):
        with pytest.raises(TypeError):
            api.get_backend("eyeriss", bogus_option=1)


class TestExperimentRegistryErrorPaths:
    def test_unknown_experiment_lists_known_keys(self):
        with pytest.raises(ExperimentNotFoundError) as excinfo:
            api.ExperimentRunner().run("fig99_nonexistent")
        message = str(excinfo.value)
        assert "fig99_nonexistent" in message
        assert "fig9_cycles" in message

    def test_duplicate_experiment_registration_raises(self):
        spec = api.get_experiment("fig9_cycles")
        with pytest.raises(DuplicateExperimentError):
            api.register_experiment(spec)

    def test_overwrite_reregisters_cleanly(self):
        spec = api.get_experiment("fig9_cycles")
        api.register_experiment(spec, overwrite=True)  # idempotent re-import path
        assert api.get_experiment("fig9_cycles") is spec

    def test_unregister_missing_experiment_is_a_noop(self):
        api.unregister_experiment("never-registered")
        assert "never-registered" not in api.list_experiments()
