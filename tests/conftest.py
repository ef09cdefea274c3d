import pytest

from interlacepoly import _workers


@pytest.fixture
def pin_cpus(monkeypatch):
    """Returns pin(cpus): from then on in the test, the process-pool
    helper sees `cpus` available CPUs."""
    def pin(cpus):
        monkeypatch.setattr(_workers, "available_parallelism", lambda: cpus)
    return pin
