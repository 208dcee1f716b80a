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
def cold_kernel_memos():
    """Empty the kernel memos of the shared helper algebras before each
    test, so that no test depends on the kernels an earlier one solved
    and every spy sees a cold construction unless the test itself
    repeats a kernel."""
    for algebra in ALL_ALGEBRAS:
        algebra._kernel_memo.clear()
