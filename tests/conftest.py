import math

import numpy as np
import pytest

from relaygap.certifier import ORDERINGS, random_channel, targeted_channels
from relaygap.effective import canonicalize
from relaygap.model import SystemParams


def unit_gain(P=(1.0, 1.0, 1.0, 1.0), sigma2=(1.0, 1.0, 1.0, 1.0),
              PR=1.0, sigmaR2=1.0) -> SystemParams:
    """All-unit-gain system: sigma_bar2 == sigma2, so orderings are explicit."""
    return SystemParams(
        h=(1.0, 1.0, 1.0, 1.0),
        g=(1.0, 1.0, 1.0, 1.0),
        P=tuple(float(p) for p in P),
        sigma2=tuple(float(s) for s in sigma2),
        sigmaR2=float(sigmaR2),
        PR=float(PR),
    )


def channel_sets(n: int = 100) -> dict:
    """Named channel sets the compiled-region tests compare on: ``n``
    seed-1729 draws from the default box, ``n`` seed-7 draws at 1e+-6 dynamic
    range, and the hand-picked `targeted_channels`."""
    wide = (1e-6, 1e6)
    default_rng, wide_rng = np.random.default_rng(1729), np.random.default_rng(7)
    return {
        "seed1729": [random_channel(default_rng) for _ in range(n)],
        "wide_seed7": [random_channel(wide_rng, wide, wide, wide) for _ in range(n)],
        "targeted": targeted_channels(),
    }


def canonical_frames(params: SystemParams):
    """The channel canonicalized under each of the four in-pair leader choices."""
    return [canonicalize(params, rate_order=order).params for order in ORDERINGS]


@pytest.fixture
def unit_params() -> SystemParams:
    return unit_gain()


@pytest.fixture(params=["numpy_log2", "libm_log2"])
def bitwise(request, monkeypatch) -> bool:
    """Which log2 the rate kernels' float path uses in a parity test.

    ``numpy_log2`` routes ``math.log2`` through ``np.log2``, so a float and
    an array see the same log and the kernels must agree bit for bit; what is
    left to differ is the kernel code itself (operation order, interference
    sums, clips, caps).  ``libm_log2`` keeps the real ``math.log2``, which on
    SIMD numpy builds differs from ``np.log2`` by one ULP on a few arguments
    in a thousand, so there the kernels need only agree to rounding.
    Returns True when bit-for-bit equality is expected.
    """
    if request.param == "numpy_log2":
        monkeypatch.setattr(math, "log2", lambda x: float(np.log2(x)))
        return True
    return False


def assert_elementwise_parity(fn, arrays, bitwise: bool) -> None:
    """``fn`` on whole numpy arrays equals ``fn`` on each element as a float.

    ``fn`` returns one value or a tuple of values; every float-path result
    must be a plain ``float``.
    """
    whole = np.atleast_2d(np.array(fn(*arrays), dtype=float))
    for i in range(len(arrays[0])):
        each = fn(*(float(a[i]) for a in arrays))
        each = each if isinstance(each, tuple) else (each,)
        assert all(type(v) is float for v in each), each
        got = np.array(each, dtype=float)
        if bitwise:
            assert got.tobytes() == whole[:, i].tobytes(), (i, got, whole[:, i])
        else:
            np.testing.assert_allclose(got, whole[:, i], rtol=1e-15, atol=0.0)
