"""The PR-2 ``.device`` aliases are gone: the deprecation cycle ended
(warn → removed), so every former alias now raises ``AttributeError``
and the ``MultiGpuFleet`` shim is no longer importable.  The last
``.device`` (``SimulatedGpuBackend.device``, the wrapped ``GpuDevice``)
went with the device class itself: the backend *is* the substrate."""

import numpy as np
import pytest

from repro import PredictionService, SMiLer, SMiLerConfig
from repro.backend import NativeBackend, SimulatedGpuBackend, as_backend
from repro.core.smiler import predict_many
from repro.harness.search_experiments import SearchScale

CONFIG = SMiLerConfig(
    elv=(8, 16), ekv=(4, 8), rho=2, omega=4, horizons=(1,), predictor="ar",
)


def history(n: int = 300) -> np.ndarray:
    return 50.0 + 10.0 * np.sin(np.arange(n) / 9.0)


class TestDeviceAliasesRemoved:
    def test_prediction_service(self):
        service = PredictionService(
            config=CONFIG, backends=NativeBackend(), min_history=256
        )
        assert not hasattr(service, "device")
        assert service.backends  # the replacement surface

    def test_smiler(self):
        smiler = SMiLer(history(), CONFIG, backend=NativeBackend())
        assert not hasattr(smiler, "device")
        assert smiler.backend is not None

    def test_predict_many(self):
        backend = NativeBackend()
        lane = [SMiLer(history(), CONFIG, backend=backend) for _ in range(2)]
        for sensor, out in zip(lane, predict_many(lane)):
            assert not hasattr(sensor, "device")
            assert not hasattr(out[1], "device")
            assert sensor.backend is backend

    def test_index_layers(self):
        smiler = SMiLer(history(), CONFIG, backend=NativeBackend())
        engine = smiler.engine
        assert not hasattr(engine, "device")
        assert not hasattr(engine.window_index, "device")
        assert engine.backend is engine.window_index.backend

    def test_search_scale(self):
        scale = SearchScale(n_sensors=1, n_points=500, continuous_steps=1)
        assert not hasattr(scale, "device")
        assert isinstance(scale.backend(), SimulatedGpuBackend)

    def test_multi_gpu_fleet_shim_removed(self):
        import repro.core
        import repro.core.scaleout

        assert not hasattr(repro.core, "MultiGpuFleet")
        assert not hasattr(repro.core.scaleout, "MultiGpuFleet")
        with pytest.raises(ImportError):
            from repro.core import MultiGpuFleet  # noqa: F401

    def test_simulated_backend_device_is_gone(self):
        backend = SimulatedGpuBackend()
        assert not hasattr(backend, "device")
        with pytest.raises(TypeError):
            SimulatedGpuBackend(device=object())
        # No device -> backend coercion either: only backends pass.
        with pytest.raises(TypeError):
            as_backend(object())
        with pytest.raises(TypeError):
            as_backend(backend.ledger)
