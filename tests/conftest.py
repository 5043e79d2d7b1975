import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vmlab import MeasureSpace, NormSpec, SimpleFunction, VectorMeasure, indicator_measure


@pytest.fixture
def s1():
    """Canonical discretized L1: 4 uniform atoms, indicator measure, X = L1(mu)."""
    space = MeasureSpace.uniform(4)
    return space, indicator_measure(space)


@pytest.fixture
def s2():
    """Two atoms into the plane with the sup norm; atom vectors e_0, e_1."""
    space = MeasureSpace.uniform(2)
    X = NormSpec("LINF", 2, 1.0)
    return space, VectorMeasure(space, X, np.eye(2))


@pytest.fixture
def f1(s1):
    space, _ = s1
    return SimpleFunction(space, [1.0, -2.0, 0.0, 3.0])
