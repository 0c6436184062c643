import os

import pytest
from hypothesis import settings

# Same examples on every run, and no example database carried between runs,
# so the suite's verdict does not depend on the draw.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True, scope="session")
def _isolated_omega_cache(tmp_path_factory):
    # keep the sphere-constant calibration cache out of the user's home
    os.environ["JUMPKERNEL_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    yield
