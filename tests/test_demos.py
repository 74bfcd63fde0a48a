"""Every demo script runs to completion against the source tree, and
prints the bytes the bit-identity ledger records for it."""

import pytest

import ledger_digests

DEMOS = ledger_digests.DEMOS


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.fixture(scope="module", params=DEMOS, ids=[d.name for d in DEMOS])
def demo_run(request, tmp_path_factory):
    """(demo, finished process) of one run per demo, shared by the tests below."""
    return request.param, ledger_digests.run_demo(request.param, tmp_path_factory.mktemp(request.param.stem))


def test_demo_runs_cleanly(demo_run):
    _, proc = demo_run
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()


def test_demo_stdout_matches_the_ledger(demo_run):
    demo, proc = demo_run
    name, got = ledger_digests.demo_name(demo), ledger_digests.sha256(proc.stdout)
    recorded = ledger_digests.recorded()
    if recorded is None:
        pytest.skip(f"no ledger entry for {ledger_digests.fingerprint()}; {name} sha256 {got}")
    assert proc.returncode == 0
    assert got == recorded[name]
