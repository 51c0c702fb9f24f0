"""The report contract, pinned: sha256 of the text report and of the --json
report for verify-all at the default seed and for every bundled scenario.

A change that alters a report updates the digest here and says why.  The
reports carry no paths and no timings (`timings` stays null), so the
digests depend only on (input, seed, version).
"""

import hashlib

import pytest

from ttkit.cli import main

PINNED = {
    ("verify-all",): (
        0, "4953b73e6b36224ba43fc0f13f4e6920baef8f206fa4f269590150c339dbbc0b",
        "4c5adc0f5d68830168d2e477e16aa15adad7860d06b2a398f5fdc02619480371"),
    ("run", "c2_line"): (
        0, "af31abe817973619700355ce980df8f516dc8d713a94184736c831450e98f77d",
        "073676f10f228b34f8e43bd3feada5c07da07595023c579350bed1d3f5a797f5"),
    ("run", "superline"): (
        0, "61a0b3de49112ffd61918f5e42a569a1bb23ae93f6c2bf415e95ca1c8754233b",
        "111a2f0f929c80bf9532c9f284320eb5bf5cbca49eb4c17d4c69f60d26fb09ab"),
    ("run", "sd5_violation"): (
        1, "577de7e00621c16edfb2407cbbe42265bafaf9481b432bca5a9af59518a6f4e8",
        "52bf51d02cdab335b03d3e85dc8ec861a4eb74d5a792b197bddb20ddc31512bf"),
    ("run", "empty_ring"): (
        0, "7357c237cbdff90e111985dec4022a4aeacf63bc53c7e245c6ff2d709f546f08",
        "5160c50f3e46e0e307154c6820abd6563a429a4e16b7dd456f6ff68f2015d719"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_reports_match_their_pinned_digests(argv, tmp_path, capsys):
    code, text_sha, json_sha = PINNED[argv]
    path = tmp_path / "report.json"
    assert main(list(argv) + ["--json", str(path)]) == code
    out = capsys.readouterr()
    assert out.err == ""
    assert _sha(out.out.encode()) == text_sha
    assert _sha(path.read_bytes()) == json_sha
