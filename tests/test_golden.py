"""Golden bytes: SHA-256 of the CSV, sidecar and report outputs.

A refactor must leave every output byte where it was.  Each case below
produces one output exactly as a user gets it and compares its digest with
the one recorded when the case was added.  The digests are of IEEE-754
double arithmetic through the platform's libm (`exp`, `pow`); a libm that
rounds differently in the last bit moves them, and then every case moves at
once rather than one.
"""

import hashlib

import pytest

from solowfrac.cli import main
from solowfrac.model import REFERENCE_PARAMS
from solowfrac.sweep import PRESETS, rows_to_csv, run_solve

GOLDEN = {
    "sweep fig-ktalpha series csv":
        "3209d937c0ecba7bc7c79114846d5a5af964158842b7446afa16d4ae272fe7a6",
    "sweep fig-ktalpha series meta":
        "2432d5993b20ecd0a743653c8468b83e979bdba0a71d3132356248c77ff2fa40",
    "sweep fig-ktalpha both csv":
        "fcfb780c50c64910e23709ceaa5328711122bbdfb9e55d346249a417eda33264",
    "sweep fig-ktalpha both meta":
        "f5e19767f9315dca08db15393b8a229cac896dc72f10534e75f2572168924f20",
    "sweep fig-ktmu series csv":
        "b779fd60993a8be32fba3fab3f684ca75b58cef509e9a028e1f5aeccdeefaa2d",
    "sweep fig-ktmu series meta":
        "cec0e74e24c6e6b676d47032153e3842e0c0bb88325abf51207b3af43f268b6e",
    "sweep fig-ktmu both csv":
        "ed7d7c901edc3529385033f92b8647291383b8411f984ed07ae790e3534e290b",
    "sweep fig-ktmu both meta":
        "57a6e5e35c88c988c24e132c321ae9d321d3dc53c80fbdf8bd682be7804875fe",
    "sweep fig-ktp series csv":
        "8b43e1f84c4e35bc51d646f4a00f4cbbd73052e46d43ea55d0eb5006659b1fe5",
    "sweep fig-ktp series meta":
        "48166063d0469f674a91f6491f9cb2ccd79c4cd9a1d8c983fde636c2bd27dc1b",
    "sweep fig-ktp both csv":
        "ddaeddb6e413b10d206eae258ad874794517bf91a80c270f7fea1f5401bb8dbb",
    "sweep fig-ktp both meta":
        "ba1601615f472d2293a09d92ca5ad9c2c9869b552928c50489f6d09abcd67083",
    "sweep fig-ktq series csv":
        "49e7595aa3dd8dcb0ead9d76a012d66cef46d512530cd3178a2be3ed69897fb4",
    "sweep fig-ktq series meta":
        "b5d52eb3ee8161210cfc964f7393b8a60a8b99c592ce42154f52dc743bdd2508",
    "sweep fig-ktq both csv":
        "0ffeb7b7a549cea146a38b3ae64c0e52ed9e0e9698d4fb604e580f3a0ba2c382",
    "sweep fig-ktq both meta":
        "6b5f11e989b902870e7f452c9ce9f0a78fbdc77bdc286686ee770025d87b34e4",
    "sweep fig-ktq-frac series csv":
        "dd52f1fbc8769a05071539685db459382959831cf7d287bc8e01cdbae32ad7ec",
    "sweep fig-ktq-frac series meta":
        "3665602d04510a614c2ddda1cbe195426c62d540096fe87600393739709ed0c2",
    "sweep fig-ktq-frac both csv":
        "9b497410dea59a2ebce537057853d50a51bb7d83226ea20d24d715e454d3f029",
    "sweep fig-ktq-frac both meta":
        "b7996a3e20c3a40e0b1bed648a4fd4f10309270f53be7eead92e32e09c2e2974",
    "sweep custom both csv":
        "e3e97331520cebcf30d478e6b68f5637a90fd5289618b38d42510a2f38e463aa",
    "sweep custom both meta":
        "845f6e135e9f497bf3d33c4df4cee295b36eb805a674bf0fee03f24ba4a77a96",
    "sweep fig-ktq overridden csv":
        "b14f2f3637c2b2e520d9a48e96f66e9f3bc804973dd51354d8acab1d7ce88776",
    "sweep fig-ktq overridden meta":
        "761cd8ab25a28c09ce44d9f96eb86eb81311d4e48914bfb0c68d07147f14c4c6",
    "solve alpha=1 series":
        "8f46f9d47c9b2cb832e556e259052b8f8a9b2c77652e81bf0535f8640e3c78c5",
    "solve alpha=1 exact":
        "161cb3d85090e47f88a1ffdbb7812b402532105f8a587d883afa5e3e220d3715",
    "solve alpha=1 abm":
        "6d42c7ccf1a5858169b8e4f261ad9217e3b1b5bb2306818247985bfce8a6f20f",
    "solve alpha=1 both":
        "5f90c86707895bc55dd2ae6aa58eee63a1252fce6a79a7d96d17a2cb55014bd4",
    "solve alpha=0.8 series":
        "e99b1857b096cb8b9ae81d32d746fb35215a327cd01727ba5c32575883d9f1a4",
    "solve alpha=0.8 abm":
        "2f74f4863638c353e08aacc690f8623ee530bde1ebb17caa72690666446aef06",
    "solve alpha=0.8 both":
        "d2daa2163b7fb63bb9ea30d7cd281ff1744763d63fe1808f9ea2a305b791fb20",
    "compare alpha=1":
        "2e5acd2685a611fb729c7ef731c90165d6d678e4f8a041fe17f960b57c6e13b4",
    "compare alpha=0.8":
        "df445a3cd81a056cccd0fc070b1ed2c60ad88cf712b0946babcf112e9fefae30",
    "verify":
        "b7a801000d1e66efae71afa016b86358148cf0bbec3e572e42c7e68bbd2164e9",
}


def test_interpreter_sums_floats_left_to_right():
    # The ABM's memory sums are builtin sum(), which adds floats left to right
    # up to CPython 3.11; every digest with ABM rows pins that.
    assert sum([1.0, 1e100, 1.0, -1e100]) == 0.0, (
        "this interpreter's sum() compensates float rounding (CPython 3.12+, gh-100425), "
        "so the ABM digests cannot match; see README's note on gh-100425 and ROADMAP item 14")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_stdout(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("method", ["series", "both"])
def test_sweep_preset_bytes(capsys, tmp_path, preset, method):
    out = tmp_path / "grid.csv"
    assert _cli_stdout(capsys, "sweep", "--preset", preset, "--method", method,
                       "--out", str(out)) == ""
    key = f"sweep {preset} {method}"
    assert _digest(out.read_text()) == GOLDEN[f"{key} csv"]
    assert _digest((tmp_path / "grid.csv.meta.json").read_text()) == GOLDEN[f"{key} meta"]


# A custom sweep, and a preset with every kind of field overridden.
SWEEP_ARGV = {
    "sweep custom both": ["--axis", "p", "--axis-min", "0.2", "--axis-max", "1.0",
                          "--axis-count", "5", "--t-max", "1.5", "--t-count", "9",
                          "--alpha", "0.9", "--method", "both"],
    "sweep fig-ktq overridden": ["--preset", "fig-ktq", "--p", "0.7", "--axis", "mu",
                                 "--axis-min", "0.2", "--axis-max", "0.6",
                                 "--axis-count", "5", "--t-count", "9", "--order", "7"],
}


@pytest.mark.parametrize("key", sorted(SWEEP_ARGV))
def test_sweep_argv_bytes(capsys, tmp_path, key):
    out = tmp_path / "grid.csv"
    assert _cli_stdout(capsys, "sweep", *SWEEP_ARGV[key], "--out", str(out)) == ""
    assert _digest(out.read_text()) == GOLDEN[f"{key} csv"]
    assert _digest((tmp_path / "grid.csv.meta.json").read_text()) == GOLDEN[f"{key} meta"]


@pytest.mark.parametrize("alpha, method", [
    (1.0, "series"), (1.0, "exact"), (1.0, "abm"), (1.0, "both"),
    (0.8, "series"), (0.8, "abm"), (0.8, "both"),
])
def test_solve_bytes(alpha, method):
    rows = run_solve(REFERENCE_PARAMS.with_(alpha=alpha), t_max=2.0, samples=41,
                     method=method)
    assert _digest(rows_to_csv(rows, axis=False)) == GOLDEN[f"solve alpha={alpha:g} {method}"]


@pytest.mark.parametrize("alpha", [1.0, 0.8])
def test_compare_bytes(capsys, alpha):
    out = _cli_stdout(capsys, "compare", "--alpha", repr(alpha))
    assert _digest(out) == GOLDEN[f"compare alpha={alpha:g}"]


def test_verify_bytes(capsys):
    assert _digest(_cli_stdout(capsys, "verify")) == GOLDEN["verify"]
