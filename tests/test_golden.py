"""Golden guard: every bundled scenario's outputs, byte for byte.

Runs the ten bundled scenarios through ``cli.run`` and compares the SHA-256
of each ``report.json`` and trajectory CSV with the digests below.  A change
that means to move an output updates its digest here and says why in
CHANGES.md; any other drift fails this test.  The digests were recorded on
64-bit x86 Linux; another platform's libm or BLAS may round a last digit
differently.
"""

import hashlib

from liephase import cli

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
        "fa1f23e1e6649ddf92c69ceaaec61ba42b127a453f05db9fe4f16e303c283731",
    "spacetime_wep_violation/report.json":
        "e78044b6a8ee819ac4b0bf46e2bcdbf27de42e39885e403970ffde603066f3ef",
    "body_composition/report.json":
        "73b4c3c76ca03ec4e8dcfd915062be41a16ac0cc3c0849770f4509ce483655ce",
    "body_composition/trajectory.csv":
        "26ba0448ef896f24fc942c2922aa64e407e947019c50f0068d7bb910c8bc066d",
    "body_composition/trajectory_partition.csv":
        "26ba0448ef896f24fc942c2922aa64e407e947019c50f0068d7bb910c8bc066d",
    "integrator_order/report.json":
        "7b3713b493cd431954e1b1f15c629b435d8cf7319a2716eda81c3567b9cedd36",
    "integrator_order/trajectory.csv":
        "d07927319cdc465d8981abfaa85926f74bfd2f5c71fd2b7361c889b6865cf7b2",
}


def test_bundled_outputs_byte_identical(tmp_path, capsys):
    got = {}
    for name in cli.BUILTIN_SCENARIOS:
        assert cli.run(name, out_dir=str(tmp_path / name)) == 0, name
        for path in sorted((tmp_path / name).iterdir()):
            got[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    capsys.readouterr()
    assert sorted(got) == sorted(DIGESTS)
    drifted = [key for key in DIGESTS if got[key] != DIGESTS[key]]
    assert drifted == []
