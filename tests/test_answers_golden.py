"""Answers stay identical across changes to the engine.

Both forms of 10 seeded requests per seed and workload, generated by
perfbench/gen.py and served through perfbench/worker.serve (text in,
JSON text out: K with Q or P, or the rejection and its offenders), are
hashed and compared with the digests recorded below.  A change that is
meant to alter an answer must say so and record new digests; any other
difference is a regression.  Each stream is served twice: once through one
algebra object, as perfbench serves it, so repeated kernels hit the
algebra's element and kernel memos, and once with a fresh algebra per
request, so every kernel text is parsed and every kernel solved cold; both must give the recorded digests.  The
generator needs sympy, so the test skips without it.  Nothing under
perfbench/ is changed by it.
"""

import hashlib
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import worker  # noqa: E402

import opfactor as api  # noqa: E402

ALGEBRA = {"quat_factor": "quat", "c5_factor": "c5", "diff_kernel": "diff"}
SEEDS = range(700, 706)
COUNT = 10

# sha1 of the answers, one per line, in stream order
GOLDEN = {
    "c5_factor": {
        700: "7ff786bf5366acab116c0e9f1f7a80911107182a",
        701: "ca0e4cd155ab12bb89ceacbd3d412e22dfe1ae75",
        702: "9d9e520cb8f0e31c143db154c09cc7aa3a7dc0b9",
        703: "4970db99b0720cd2eadd8d942f731d19e86f9f5c",
        704: "ebed949291b85bcb0d129822dbf186e67e9538b9",
        705: "27b04b7a60b9a2be071b912a7b06eab6bce6dcf6",
    },
    "diff_kernel": {
        700: "eed7b81440cd4f77d2bdbcec4214813f35bde113",
        701: "55d96fdc1a66b75c994c5ce373f4d33a0451515e",
        702: "32ac25f3da0c166e495916ce861577b1f58c1dc8",
        703: "8c4759c2745af286174cf1eb7850b45da6c4ad1f",
        704: "9344886fb922f95f651b7112e1dc3a6552b221b9",
        705: "1ef4ad3327891557524aaefda61f3f33909694b0",
    },
    "quat_factor": {
        700: "bfb91bf03e02fa4e5886a14ff38841ab160b9669",
        701: "28ecf0bfa9d2f70172c8d561f9933b16ce9c1086",
        702: "6b99f353a9c1e524058a6dcd275bfd7b7edde3dd",
        703: "f932c2ce95ba06834b0469deedbb0ae8f5aaff20",
        704: "71e656fd11ddd65b087cfee41549d39bd22e37f8",
        705: "f251d4753958e8ecdbc234eb99238b7dc906769d",
    },
}


def answers_digest(workload, seed, cold=False):
    """The digest of the stream's answers, served through one algebra
    object, or with cold=True through a fresh one per request."""
    algebra = api.get_algebra(ALGEBRA[workload])
    stream = gen.generate(workload, seed, COUNT, variants=2)
    answers = [
        worker.serve(api, api.get_algebra(ALGEBRA[workload]) if cold else algebra, req.wire)
        for forms in stream for req in forms
    ]
    return hashlib.sha1("\n".join(answers).encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(ALGEBRA))
@pytest.mark.parametrize("seed", SEEDS)
def test_answers_match_recorded_digests(workload, seed):
    assert answers_digest(workload, seed) == GOLDEN[workload][seed]


@pytest.mark.parametrize("workload", sorted(ALGEBRA))
@pytest.mark.parametrize("seed", SEEDS)
def test_cold_memo_answers_match_recorded_digests(workload, seed):
    assert answers_digest(workload, seed, cold=True) == GOLDEN[workload][seed]
