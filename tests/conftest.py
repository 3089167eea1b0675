import sys
from pathlib import Path

import numpy as np
import pytest

# Let the test modules import the shared oracles, and the worked-example
# builders of scripts/generate_inputs.py, regardless of cwd.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1] / "scripts"))


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
