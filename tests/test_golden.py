"""Golden digests: a config and a seed must keep giving the same bytes.

Pins the SHA-256 (first 16 hex digits) of ``samples_db.tobytes()``, of
``side_info.tobytes()`` and of the CSV output for a small matrix: every
method, L in {1, 8}, BPSK and QPSK, and PTS over all three partitions, at
N=16 with 100 trials each.  The values were computed with Python 3.11.7
and numpy 2.4.6; the ``samples_db`` digests depend on the last ulps of
numpy's FFT (pocketfft), so another numpy version may move them.  The
statistical acceptance tests do not see a last-ulp change (``np.log10``
and ``math.log10`` differ by one ulp, for example); these digests do.  A
change that moves the bytes on purpose must say so and re-pin them.
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
    "none-L1-bpsk": ("e99d3dcc836c21b7", "67042dfda5683aea", "f408506e35336126"),
    "none-L1-qpsk": ("1ad38b9425865b4e", "67042dfda5683aea", "b3545fb8312d181e"),
    "none-L8-bpsk": ("aed65419c6fe7320", "67042dfda5683aea", "ccf7723b6eda1d00"),
    "none-L8-qpsk": ("96a1d88d32309d15", "67042dfda5683aea", "62ca4ae1cedaa74b"),
    "slm-L1-bpsk": ("4e06892403945206", "95647494ddc1ad2f", "c6d17a691f3d890f"),
    "slm-L1-qpsk": ("113ffae06ccc4d63", "ef2dc77c549b57ff", "b28b9274534eba2b"),
    "slm-L8-bpsk": ("9e0f778e82a127b8", "4aaeb057e505b06e", "d2d691ed3c5a720b"),
    "slm-L8-qpsk": ("8de584fbbf0e78fb", "fbf4aee051dd64ef", "f8b6a4e5aa58468c"),
    "pts-L1-bpsk-adjacent": ("61641117b5ac39a3", "311940f2abe38229", "b78eb6a702cc32d3"),
    "pts-L1-bpsk-interleaved": ("eca980ca36943007", "7d8ca913eec22584", "f229e033343e9994"),
    "pts-L1-bpsk-pseudorandom": ("2488e3abc81d53be", "decdf022b4a87c54", "a426aeb2f2e0ccee"),
    "pts-L1-qpsk-adjacent": ("0c9829d620000e5c", "153bde28b630120c", "4766c8798b92719e"),
    "pts-L1-qpsk-interleaved": ("7e59890d0f1f46e0", "7627e296fc588f0e", "6b28daac9db9d99f"),
    "pts-L1-qpsk-pseudorandom": ("fc5766836702fc67", "0798bba7f2f9b107", "ff87f72f9cbacdfc"),
    "pts-L8-bpsk-adjacent": ("fb2807aa602440d3", "274cd343c3c57bef", "b2de7ea810091c37"),
    "pts-L8-bpsk-interleaved": ("65e6c8aa55bad47c", "e9729f9541592f4b", "98f52d65270baab2"),
    "pts-L8-bpsk-pseudorandom": ("ad6c7295dec73cbf", "d33330ec95b57429", "d17d61304bc2b080"),
    "pts-L8-qpsk-adjacent": ("f0c989fe36c81e20", "7e884348d7141548", "73737959818dcb99"),
    "pts-L8-qpsk-interleaved": ("926d5338e7d11ddb", "dbf0e86a32f62311", "6e951e1155333f8d"),
    "pts-L8-qpsk-pseudorandom": ("3f7a6bfd80124655", "f87fa727544541ef", "55a3e9e8a6d8e1e8"),
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
