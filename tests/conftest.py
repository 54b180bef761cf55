import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (never per test)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def _release_ray_actors():
    """Collect a finished test's garbage at once. Ray Data drops an
    actor pool's handles instead of killing the actors, and Dataset
    objects sit in reference cycles, so without this a test's pool
    actors keep their CPUs until the cyclic GC happens to run, and
    later tests in the shared 4-CPU session can starve."""
    yield
    if "ray" in sys.modules and sys.modules["ray"].is_initialized():
        gc.collect()
