import numpy as np
import pytest

from nhjc import ModelParams, coupling_scale

# reference configuration used across the suite: omega = 0.9 in units of
# Omega = 1, coupling at one tenth of the natural scale sqrt(omega*Omega)/2
G_SCALE = coupling_scale(0.9, 1.0)
G_REF = 0.1 * G_SCALE


def make_reference(Gamma=0.1, gamma=0.2, kappa=0.5, g=G_REF):
    return ModelParams(omega=0.9, Omega=1.0, g=g, kappa=kappa, gamma=gamma, Gamma=Gamma)


@pytest.fixture
def reference_params():
    """Dissipative benchmark point: kappa=0.5, gamma=0.2, Gamma=0.1."""
    return make_reference()


@pytest.fixture
def hermitian_params():
    return ModelParams(omega=0.9, Omega=1.0, g=G_REF)


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
