"""Pinned sha256 digests of JSON reports.

Every job of ``scripts/run_verification.py`` except the two slow Fock
suites (``module_l2``, ``nilpotency``), plus a degree-5 skew-duality run and
a three-flavor, two-block one with its highest-weight checks, must keep
producing exactly the same report bytes.  A change that moves a
multiplicity, a case table, a verdict or the report layout fails here.
"""
import hashlib
import importlib.util
import pathlib

import pytest

from torusrep.duality import verify_skew_duality

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"

DIGESTS = {
    "bracket_N2": "bd26c5bb4341483cf0cf7e7a233c80a5cf4f1cd60e0237df0a3268a84233ee94",
    "bracket_N3": "3be5e92c86deaba1d9a224a1cd20400e8bc1064345946a6b91e8a79893ba9ac7",
    "theta_N2": "653c83b4349ec89c221bf378a0dab810ed4d00ec0d4d5eb83daf518276d7c085",
    "theta_N3": "a3d9c9e4beb015ee806e4091dbee7fd1fc13c80efedf1e4ab47f41765b984090",
    "module_l1": "56b5f1e06c1bfd2a8003fb44396671ec92158dbcf668a6a435add977d4de388f",
    "hw_N2l2": "22e8b6be3f6910a510b224dc6c473ce2deca311f1f7060e624f9dbf7a3abe005",
    "duality_N2l1": "5d6c1dff901ea71c8b03f92bdc4f694ec23b391f235dd9a55ab1084e1815c4a5",
    "duality_N2l2": "16905953280ef0f505c6e51cad62a26a7e8ede69ca68cad2e531e7e2e337a93c",
    "duality_N3l1": "67c9ab47b712a28fd8b0f38173c674fa925d049ae0c4f6099ba822784a1486c9",
    "tensor_33": "2f181d2918470c2c560ff73d597e096e0bb5803ec2c20a67c75486ad8cd7e0e9",
    "tensor_35": "bf6cbebeb67b8e05bb6ef748709d3eac57eee43bb7199537ef1b8f7affd03a49",
    "levi_22": "abd617866244439321e664baaeb0a43248a7214d025bc35ef9c6ed7419ee678c",
    "levi_23": "7b9cf1b2887a91e45c2c0a5ec6f49b89ea4d47197eae038ba6b506e47da47117",
    "lattice": "e14b766b3382e96b1cdd2245aea7f285a3e0b5ea821694e693b49cadc91c66e5",
    "duality_N2l2_deg5": "80283d9f93ddc7bd75e457f54955468516b3c4d81808a69699b52a5aff5bd251",
    "duality_N2l3_hw": "ac0ec7212c2f1def9748e16bde3aa46b8da4b9abb3fb803cb86b006601eacb22",
}


def _jobs():
    spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    jobs = {name: job for name, job in battery.JOBS
            if name not in ("module_l2", "nilpotency")}
    jobs["duality_N2l2_deg5"] = lambda: verify_skew_duality(
        2, [3, 3], 2, 5, check_hw=False)
    jobs["duality_N2l3_hw"] = lambda: verify_skew_duality(2, [3, 3, 5], 2, 3)
    return jobs


JOBS = _jobs()


def test_every_job_is_pinned():
    assert sorted(JOBS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest(name):
    report = JOBS[name]()
    assert report.passed
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == DIGESTS[name]
