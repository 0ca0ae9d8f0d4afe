import pytest
from hypothesis import settings

from torushom.field import QQ, PrimeField

# Property tests draw the same examples on every run and keep no example
# database, so two runs of the suite (or two commits) test the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(params=["Q", "F2", "F3"], ids=["Q", "F2", "F3"])
def any_field(request):
    if request.param == "Q":
        return QQ
    return PrimeField(int(request.param[1:]))


@pytest.fixture
def field():
    return QQ
