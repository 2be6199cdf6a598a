"""Byte-level pins on CLI output.

The writer is checked against the per-float reference writer in helpers.py,
and whole outputs against sha256 digests of what the earlier per-float
writer printed for the same commands.  Trace distances of two-component
pairs come from exchangeable blocks, which move the last bits of two
`distinguish` outputs; the dense path still prints the earlier bytes.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

import spinmix.discrimination as discrimination
from helpers import reference_json_text
from spinmix.cli import _json_text, _pmf_csv, main
from spinmix.ensembles import CountPmf

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 0.1 + 0.2, 1e308, -1e308, 1.0, -1.0, 0.5]


def awkward_floats(rng: np.random.Generator, size: int) -> np.ndarray:
    """The special values, then random values that need all 17 digits."""
    scale = 10.0 ** rng.integers(-300, 300, size)
    random = rng.uniform(-1.0, 1.0, size) * scale
    return np.concatenate([SPECIAL, random])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_writer_matches_the_per_float_reference(seed):
    rng = np.random.default_rng(seed)
    vector = awkward_floats(rng, 53)
    d = 8
    parts = rng.permutation(np.resize(vector, 2 * d * d)).reshape(d, d, 2)
    matrix = parts[..., 0] + 1j * parts[..., 1]
    payload = {
        "command": "x",
        "n": 3,
        "flag": True,
        "none": None,
        "mean": float(vector[-1]),
        "vector": vector,
        "matrix": matrix,
        "one": np.array([[0.25 - 0.0j]]),
        "empty": np.array([]),
        "items": [{"k": 1, "distance": 0.1 + 0.2}],
    }
    assert _json_text(payload) == reference_json_text(payload)


def repeat_pool(rng: np.random.Generator) -> np.ndarray:
    """About 20 values whose texts a writer keyed by value, not by bits,
    would confuse: both zeros, both smallest subnormals, huge values and
    values that need all 17 digits."""
    wide = rng.uniform(0.1, 1.0, 12) * 10.0 ** rng.integers(-300, 300, 12)
    return np.concatenate([[-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, -1 / 3], wide])


@pytest.mark.parametrize("seed", [0, 1])
def test_writer_matches_the_reference_on_repeated_values(seed):
    rng = np.random.default_rng(seed)
    pool = repeat_pool(rng)
    parts = rng.choice(pool, (64, 64, 2))
    payload = {"matrix": parts[..., 0] + 1j * parts[..., 1], "vector": rng.choice(pool, 10**4)}
    assert _json_text(payload) == reference_json_text(payload)


def test_pmf_csv_matches_the_per_float_reference_on_repeated_values():
    pmf = CountPmf(7, np.array([0.5, -0.0, 0.0, 5e-324, 0.25, 0.25, -0.0, 0.0]))
    empirical = CountPmf(7, np.array([0.0, 0.5, -0.0, 0.5, 5e-324, 0.0, -0.0, 0.0]))
    lines = _pmf_csv(pmf, empirical).splitlines()
    assert lines[0] == "count,probability,empirical"
    assert lines[1:] == [
        f"{m},{format(float(p), '.17g')},{format(float(e), '.17g')}"
        for m, (p, e) in enumerate(zip(pmf.probabilities, empirical.probabilities))
    ]


GOLDEN = [
    # Every README example.
    ("rho --ensemble S --n 8 --k 2",
     "9a4fffa47f4a918a978253132a8dec4c97d64f18dc5debff3ec03d6f37a15de8"),
    ("rho --ensemble A --n 4 --k 2 --basis x",
     "d913d8569848dba04a781e98f13b2c2e5d4c9afd8c5987c72ee4294dd3db9288"),
    ("pmf --ensemble B --n 4 --axis z",
     "a893f95495164c6bca32006057f9906c4b186aeab65b117a73eff7723a60f8f2"),
    ("pmf --ensemble S --n 4 --axis z --trials 100000 --seed 7",
     "57bf17f1db73094da10d040ab77738de68c8aa7639e8963621a0eacaa35357f8"),
    ("urn --n 4 --black 2",
     "bc83c9f4cb2483790ca6697661c2c6ca57814c37a7f9275a2f4f0eece68445bc"),
    ("urn --n 4",
     "c6fadedfe2614e4a27063138939a89bbe541dc0e8703bdd7411b818eabe379a2"),
    ("distinguish --a A --b B --n 4 --kmax 2 --axis x --trials 100000 --seed 7",
     "303d0d1709400d6f880a43b04fcc9a479538fcbbe394d395fd4ddd2fc8a41c8c"),
    ("distinguish --a S:z --b S:x --n 6 --kmax 3",
     "2f3845f89c198eb7191bd8c2d212573d9902ec899a94a3d6d3db2fee4ce0ca48"),
    # Urns with an empirical column, pinned before both columns came from
    # the count law along z.
    ("urn --n 7 --black 3 --trials 500 --seed 3 --format csv",
     "46be5d8134ba875213e5534a520ecf2661e921c0dc5e7fbeff5d5e2d744ab529"),
    ("urn --n 9 --trials 500 --seed 3",
     "0f510abe4787c21ead63f774c4b908d74a85ccc308bae642976fc780d82e0eea"),
    # CSV without and with the empirical column.
    ("pmf --ensemble A --n 12 --axis 0.3,-0.2,0.9 --format csv",
     "cbd39e3642695d6e9a57beea133b95d04988c4222641cc7d2404e9fced971e80"),
    ("pmf --ensemble S --n 12 --axis x --trials 5000 --seed 11 --format csv",
     "d279e905af867ada6a1065779a361a9e9750576cb3850af775b25e667808750f"),
    # Large x-basis dumps (0.4 MB and 2.4 MB).
    ("rho --ensemble S:0.3,-0.2,0.9 --n 12 --k 6 --basis x",
     "bf2753a883a119cd5b268ac192a4a218d4728deaa5125422744aefd3811c2b38"),
    ("rho --ensemble A --n 40 --k 8 --basis x",
     "9e6854f87be8764730a551368ac909daa1f12119f04be21e784ee2058df936be"),
    # Binomials at and below the largest n of the direct float expression.
    ("pmf --ensemble S --n 1029 --axis z",
     "bbb188c5b88efcde628c1ef600e342f8f0de8462377952b01d7e89afad0836ff"),
    ("pmf --ensemble A --n 1000 --axis 0.3,-0.2,0.9",
     "bd2804aa243d3f9608f46135ede6f235105bb583829296f74c2b8ed39a9dbcf5"),
    ("pmf --ensemble fixed:x+*300/(0.3,-0.2,0.9)-*400/z+*300 --n 1000 --axis y",
     "2484085fdfa3e96869720956261507db9a193439f30b8814857b0832139bab5d"),
    # Pinned while `distinguish` still built its payload from report
    # dataclasses: a 3-component pair (dense path) with an oblique axis and
    # trials, and one axis given three ways, which prints one entry.
    ("distinguish --a fixed:x+*4/z-*4/(0.6,0,0.8)+*4"
     " --b iid:x+*0.3333333333333333/z-*0.3333333333333333/(0.6,0,0.8)+*0.3333333333333334"
     " --n 12 --kmax 3 --axis=x --axis=0.3,-0.5,0.7 --trials 2000 --seed 5",
     "4757d59001b160d6fdc82a488e1db61e89cf2924f537627ffc5d744444fee7ec"),
    ("distinguish --a A --b S --n 6 --kmax 2 --axis x --axis x --axis 2,0,0",
     "46a7c6ae3e854c2dbe9100c683f8079b6186f0f2aa7abb283b24c59141ea6f68"),
]


# The same two commands with every trace distance taken from the dense
# 2**k matrices, as all of them were before the block path.
DENSE_GOLDEN = [
    ("distinguish --a A --b B --n 4 --kmax 2 --axis x --trials 100000 --seed 7",
     "eb9c5476f171c04e5584be8718a512abca66232cd1e68e3e2c37a7695e867666"),
    ("distinguish --a S:z --b S:x --n 6 --kmax 3",
     "4fc120c49cb685df3a16e9928f541f5309ad6254f43d80d3001ba22ba04579aa"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_output_bytes_are_pinned(command, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split())
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("command, digest", DENSE_GOLDEN, ids=[c for c, _ in DENSE_GOLDEN])
def test_dense_distances_keep_their_bytes(monkeypatch, command, digest):
    monkeypatch.setattr(discrimination, "_block_distance", discrimination._dense_distance)
    test_output_bytes_are_pinned(command, digest)
