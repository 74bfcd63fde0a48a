"""The bit-identity ledger: the bytes of small CLI runs and checkpoints.

Where this environment's fingerprint has an entry in ``ledger.json``,
every output must hash to its recorded SHA-256. Elsewhere each case is
skipped with the digest it computed, so ``pytest -rs`` shows what a new
entry would hold. ``ledger_digests.py`` regenerates the ledger. The
demos' stdout is checked in ``test_demos.py``, from the run that checks
each demo. ``ledger_digests.py --against`` compares this tree with a
commit's on any machine.
"""

import shutil
import subprocess

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


def _uncommitted():
    """What git reports changed under the paths that decide the outputs, or
    None where there is no git work tree to ask."""
    if shutil.which("git") is None:
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--", "src", "tests", "demos"],
                            cwd=ledger_digests.ROOT, capture_output=True, text=True)
    return status.stdout if status.returncode == 0 else None


def test_against_head_on_a_clean_tree_reports_nothing(capsys):
    changed = _uncommitted()
    if changed is None or changed:
        pytest.skip(f"needs a git work tree with nothing uncommitted under src, tests and demos: {changed!r}")
    assert ledger_digests.main(["--against", "HEAD"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_against_an_unknown_commit_exits_2(capsys):
    assert ledger_digests.main(["--against", "no-such-commit"]) == 2
    assert "unknown commit" in capsys.readouterr().err
