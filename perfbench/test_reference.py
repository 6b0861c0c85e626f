"""Method properties of the benchmark's independent reference.

    python3 -m pytest perfbench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
from dbdsim.strategies import builtin_strategy  # noqa: E402

# Reflection q -> -q swaps the ports +2 <-> -2 and +4 <-> -4.
MIRROR_PORTS = [0, 2, 1, 4, 3]


def _pulses():
    ds = builtin_strategy("ds_dbd")
    return {"ds_bs": ds.bs, "ds_mirror": ds.mirror,
            "oct_mirror": builtin_strategy("oct_hybrid").mirror}


@pytest.mark.parametrize("name", ["ds_bs", "ds_mirror", "oct_mirror"])
def test_unitary(name):
    u = ref.pulse_unitaries([-0.3, 0.0, 0.2], _pulses()[name])
    defect = np.abs(np.conj(np.swapaxes(u, 1, 2)) @ u - np.eye(5)).max()
    assert defect < 1e-9


@pytest.mark.parametrize("name", ["ds_bs", "ds_mirror", "oct_mirror"])
def test_rest_frame_parity(name):
    u = ref.pulse_unitaries(0.0, _pulses()[name])[0]
    assert np.abs(u[np.ix_(MIRROR_PORTS, MIRROR_PORTS)] - u).max() < 1e-9
    assert abs(abs(u[1, 0]) ** 2 - abs(u[2, 0]) ** 2) < 1e-9


def test_parity_is_broken_off_rest_frame():
    u = ref.pulse_unitaries(0.2, _pulses()["ds_bs"])[0]
    assert abs(abs(u[1, 0]) ** 2 - abs(u[2, 0]) ** 2) > 1e-4


def _lossless():
    s = 1.0 / math.sqrt(2.0)
    bs = np.zeros((5, 5), dtype=complex)
    bs[1, 0] = bs[2, 0] = bs[0, 1] = bs[0, 2] = -1j * s
    bs[1, 1] = bs[2, 2] = 0.5
    bs[1, 2] = bs[2, 1] = -0.5
    bs[3, 3] = bs[4, 4] = 1.0
    mirror = np.eye(5, dtype=complex)
    mirror[1, 1] = mirror[2, 2] = 0.0
    mirror[1, 2] = mirror[2, 1] = -1j
    return bs, mirror


@pytest.mark.parametrize("resolved", [False, True])
def test_lossless_fringe(resolved):
    bs, mirror = _lossless()
    p = np.linspace(-0.3, 0.3, 7)
    n = p.size
    for g, T in ((0.000357, 10.0), (0.000357, 57.3), (-0.002, 31.0)):
        out = ref.mz_output(np.tile(bs[:, 0], (n, 1)),
                            np.broadcast_to(mirror, (n, 5, 5)),
                            np.broadcast_to(bs, (n, 5, 5)), p, g, T,
                            resolved)
        pops = np.abs(out) ** 2
        exact = 0.5 * (1.0 - math.cos(4.0 * g * T**2))
        assert np.abs(pops[:, 1] + pops[:, 2] - exact).max() < 1e-12
        assert np.abs(pops.sum(axis=1) - 1.0).max() < 1e-12


def test_packet_quadrature_moments():
    p, w = ref.packet_quadrature(0.1, 0.05, 64)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert w @ p == pytest.approx(0.1, abs=1e-12)
    assert w @ (p - 0.1) ** 2 == pytest.approx(0.05**2, rel=1e-6)
