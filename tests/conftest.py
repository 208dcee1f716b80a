import pytest
from hypothesis import HealthCheck, settings

from helpers import ALL_ALGEBRAS

settings.register_profile(
    "exact",
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the kernel and element memos of the shared helper algebras
    before each test, so that no test depends on the kernels an earlier
    one solved or the texts it parsed, and every spy sees a cold
    construction and a cold parse unless the test itself repeats them."""
    for algebra in ALL_ALGEBRAS:
        algebra._kernel_memo.clear()
        algebra._element_memo.clear()
