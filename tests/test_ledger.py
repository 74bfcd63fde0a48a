"""The bit-identity ledger: the bytes of small CLI runs and checkpoints.

Where this environment's fingerprint has an entry in ``ledger.json``,
every output must hash to its recorded SHA-256. Elsewhere each case is
skipped with the digest it computed, so ``pytest -rs`` shows what a new
entry would hold. ``ledger_digests.py`` regenerates the ledger. The
demos' stdout is checked in ``test_demos.py``, from the run that checks
each demo.
"""

import pytest

import ledger_digests

FINGERPRINT = ledger_digests.fingerprint()
RECORDED = ledger_digests.recorded()


def test_the_ledger_names_every_output_once():
    for entry in ledger_digests.load_ledger():
        assert sorted(entry["digests"]) == sorted([*ledger_digests.NAMES, *ledger_digests.DEMO_NAMES])


@pytest.mark.parametrize("name", ledger_digests.NAMES)
def test_output_bytes_match_the_ledger(name):
    got = ledger_digests.digest(name)
    if RECORDED is None:
        pytest.skip(f"no ledger entry for {FINGERPRINT}; {name} sha256 {got}")
    assert got == RECORDED[name]
