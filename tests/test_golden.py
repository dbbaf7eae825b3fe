"""Golden guard: every bundled scenario's outputs, byte for byte.

Runs the ten bundled scenarios through ``cli.run`` and compares the SHA-256
of each ``report.json`` and trajectory CSV with the digests below; each
report must also parse as strict JSON.  A change that means to move an
output updates its digest here and says why in CHANGES.md; any other drift
fails this test.  The digests were recorded on 64-bit x86 Linux; another
platform's libm or BLAS may round a last digit differently.
"""

import hashlib

from liephase import cli

from helpers import strict_json

DIGESTS = {
    "miao1_jacobi/report.json":
        "99010bea6415b5c85c94b2b1ea1725d6b6ecc5b035460eef5a73215268f83e1f",
    "spacetime_com_brackets/report.json":
        "6e58a7e9cd0e26f7d351be2d726a8bed50ceed292b209de3a6d8e55513d433df",
    "effective_kappa/report.json":
        "f8c59c3fdf980ef5d21bdb9dcaecd1de9968ccc10239e20bfe00692c811ba5e0",
    "spacespace_closure/report.json":
        "b0bced237a901800ccd7330ce3a76e1c067c0c5bb14558d8f108ab8a727b4e99",
    "spacetime_decoupling/report.json":
        "7b2b5e014e7dacc3634db26865d643c2ae6d00dece5f4038d3e651605fe771de",
    "spacetime_eom/report.json":
        "a2e00a1c07e3f795e13f86132b41e1f8b3fa2285b057c05eb162dae9f62591a4",
    "spacetime_wep/report.json":
        "5008a43bfe21e60a9d8ff6156b42fb10d351757a723839fd64b3664a78ac6214",
    "spacetime_wep_violation/report.json":
        "e78044b6a8ee819ac4b0bf46e2bcdbf27de42e39885e403970ffde603066f3ef",
    "body_composition/report.json":
        "2b60f3c6dc0ab1e41607f08b6e4e91f9db415857a67e9fab97d5232c8d60c1c8",
    "body_composition/trajectory.csv":
        "41977a20df1ff2368428790c6e6772781d869d2d7d68ad388ebb78e2ad94b29f",
    "body_composition/trajectory_partition.csv":
        "41977a20df1ff2368428790c6e6772781d869d2d7d68ad388ebb78e2ad94b29f",
    "integrator_order/report.json":
        "bc01f02ff47d3b5b7c6125b4d10a6b5b6af871a3c74811c3ffc79619b2a88c3a",
    "integrator_order/trajectory.csv":
        "8fb63c6515b8b4f418317f31127a3e9a85e58d3a1cf60e20bb31181cf29ad262",
}


def test_bundled_outputs_byte_identical(tmp_path, capsys):
    got = {}
    for name in cli.BUILTIN_SCENARIOS:
        assert cli.run(name, out_dir=str(tmp_path / name)) == 0, name
        for path in sorted((tmp_path / name).iterdir()):
            got[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        strict_json(tmp_path / name / "report.json")
    capsys.readouterr()
    assert sorted(got) == sorted(DIGESTS)
    drifted = [key for key in DIGESTS if got[key] != DIGESTS[key]]
    assert drifted == []
