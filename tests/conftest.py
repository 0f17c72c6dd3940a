import numpy as np
import pytest
from hypothesis import settings

# every property is reproducible and leaves no example database behind;
# a test's own @settings sets only its number of examples
settings.register_profile("mildspec", derandomize=True, deadline=None, database=None)
settings.load_profile("mildspec")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
