import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# any finite float, with signed zero, subnormals and the largest magnitudes made likely
FINITE = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
