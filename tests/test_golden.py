"""Golden digests: a config and a seed must keep giving the same bytes.

Pins the SHA-256 (first 16 hex digits) of ``samples_db.tobytes()``, of
``side_info.tobytes()`` and of the CSV output for a small matrix: every
method, L in {1, 8}, BPSK and QPSK, and PTS over all three partitions, at
N=16 with 100 trials each.  The values were computed with Python 3.11.7
and numpy 2.4.6.  The statistical acceptance tests do not see a last-ulp
change (``np.log10`` and ``math.log10`` differ by one ulp, for example);
these digests do.  A change that moves the bytes on purpose must say so
and re-pin them.
"""

import hashlib
import io

import pytest

from ofdm_papr import (
    ExperimentConfig,
    Method,
    ModulationScheme,
    PartitionScheme,
    run_experiment,
    write_result,
)

SEED = 20260418

# key -> (samples_db, side_info, csv)
DIGESTS = {
    "none-L1-bpsk": ("638ebc5922f20bd8", "67042dfda5683aea", "f408506e35336126"),
    "none-L1-qpsk": ("516caf5346fe9f9f", "67042dfda5683aea", "b3545fb8312d181e"),
    "none-L8-bpsk": ("f4f2164eec751540", "67042dfda5683aea", "ccf7723b6eda1d00"),
    "none-L8-qpsk": ("8728a6cb07afdf7e", "67042dfda5683aea", "62ca4ae1cedaa74b"),
    "slm-L1-bpsk": ("3d6625ad4c543af2", "42079c983312eb91", "c6d17a691f3d890f"),
    "slm-L1-qpsk": ("2ce3007566445272", "ef2dc77c549b57ff", "b28b9274534eba2b"),
    "slm-L8-bpsk": ("7d62dfae2c095c13", "4aaeb057e505b06e", "d2d691ed3c5a720b"),
    "slm-L8-qpsk": ("678d64742049607c", "fbf4aee051dd64ef", "f8b6a4e5aa58468c"),
    "pts-L1-bpsk-adjacent": ("dc240a472079f7b6", "311940f2abe38229", "b78eb6a702cc32d3"),
    "pts-L1-bpsk-interleaved": ("690b2e2cc4db0781", "7d8ca913eec22584", "f229e033343e9994"),
    "pts-L1-bpsk-pseudorandom": ("0b83896209cc471c", "decdf022b4a87c54", "a426aeb2f2e0ccee"),
    "pts-L1-qpsk-adjacent": ("57b4fc0737dc0d78", "153bde28b630120c", "4766c8798b92719e"),
    "pts-L1-qpsk-interleaved": ("4b60f0609dfe4513", "7627e296fc588f0e", "6b28daac9db9d99f"),
    "pts-L1-qpsk-pseudorandom": ("5fed0db9ec699dec", "0798bba7f2f9b107", "ff87f72f9cbacdfc"),
    "pts-L8-bpsk-adjacent": ("efe877be33d5d624", "274cd343c3c57bef", "b2de7ea810091c37"),
    "pts-L8-bpsk-interleaved": ("1da04d79a740f691", "e9729f9541592f4b", "98f52d65270baab2"),
    "pts-L8-bpsk-pseudorandom": ("0f2b151a6d40ef55", "d33330ec95b57429", "d17d61304bc2b080"),
    "pts-L8-qpsk-adjacent": ("49133778585fc156", "7e884348d7141548", "73737959818dcb99"),
    "pts-L8-qpsk-interleaved": ("86a2736e9e643fdc", "dbf0e86a32f62311", "6e951e1155333f8d"),
    "pts-L8-qpsk-pseudorandom": ("2632cb72058e56a6", "f87fa727544541ef", "55a3e9e8a6d8e1e8"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_golden_digests(key):
    method, oversample, modulation, *partition = key.split("-")
    config = ExperimentConfig(
        n_subcarriers=16, modulation=ModulationScheme(modulation),
        oversample=int(oversample[1:]), method=Method(method),
        partition_scheme=PartitionScheme(partition[0] if partition else "pseudorandom"),
        trials=100, master_seed=SEED)
    result = run_experiment(config)
    sink = io.StringIO()
    write_result(result, "csv", sink)
    got = (_digest(result.samples_db.tobytes()), _digest(result.side_info.tobytes()),
           _digest(sink.getvalue().encode()))
    assert got == DIGESTS[key]
