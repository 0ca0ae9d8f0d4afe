import atexit
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from torushom.field import QQ, PrimeField

# Property tests draw the same examples on every run and keep no example
# database, so two runs of the suite (or two commits) test the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Hypothesis still caches literals from the source files under its home
# directory, `.hypothesis/` in the working directory by default; keep that
# out of the checkout and remove it when the run ends.
_hypothesis_home = tempfile.mkdtemp(prefix="torushom-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home)
atexit.register(shutil.rmtree, _hypothesis_home, ignore_errors=True)


@pytest.fixture(params=["Q", "F2", "F3"], ids=["Q", "F2", "F3"])
def any_field(request):
    if request.param == "Q":
        return QQ
    return PrimeField(int(request.param[1:]))


@pytest.fixture
def field():
    return QQ
