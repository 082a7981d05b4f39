import numpy as np
import pytest

from nhjc import ModelParams
from nhjc.params import reference_config


@pytest.fixture
def reference_params():
    """The reference configuration (nhjc.params.reference_config)."""
    return reference_config()


@pytest.fixture
def hermitian_params():
    return reference_config(kappa=0.0, gamma=0.0, Gamma=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def evaluations(monkeypatch):
    """(n, whether over a ModelParams) of every block the kernel evaluates;
    a block read back from the record that keeps it is not an evaluation."""
    import nhjc.spectrum

    original = nhjc.spectrum._evaluate_block
    calls = []

    def counted(params, n):
        calls.append((n, isinstance(params, ModelParams)))
        return original(params, n)

    monkeypatch.setattr(nhjc.spectrum, "_evaluate_block", counted)
    return calls
