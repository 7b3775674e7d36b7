"""Golden bytes: SHA-256 of the CSV, sidecar, script, report and help outputs.

A refactor must leave every output byte where it was.  Each case below
produces one output exactly as a user gets it and compares its digest with
the one recorded when the case was added.  The digests are of IEEE-754
double arithmetic through the platform's libm (`exp`, `pow`); a libm that
rounds differently in the last bit moves them, and then every case moves at
once rather than one.
"""

import hashlib

import pytest

from solowfrac.cli import SUMMARY, main
from solowfrac.model import REFERENCE_PARAMS
from solowfrac.sweep import PRESETS, rows_to_csv, run_solve

GOLDEN = {
    "sweep fig-ktalpha series csv":
        "8cff1ade03c3774db14f3cdb13cbd261ea727235033963b15d79637b17d7d9a9",
    "sweep fig-ktalpha series meta":
        "2432d5993b20ecd0a743653c8468b83e979bdba0a71d3132356248c77ff2fa40",
    "sweep fig-ktalpha both csv":
        "c34395df1772712abde2dcb32687fa9058613c3f513bad96e87e3b005378c7cb",
    "sweep fig-ktalpha both meta":
        "f5e19767f9315dca08db15393b8a229cac896dc72f10534e75f2572168924f20",
    "sweep fig-ktmu series csv":
        "f901870a82964effa5d767aa36c0a7209bcc991cb1c36f87dbfeff2639c43e90",
    "sweep fig-ktmu series meta":
        "cec0e74e24c6e6b676d47032153e3842e0c0bb88325abf51207b3af43f268b6e",
    "sweep fig-ktmu both csv":
        "966389dafec1e8d267dfa7642d1824b78efcfe5890d0a13615886ae7c55b837c",
    "sweep fig-ktmu both meta":
        "57a6e5e35c88c988c24e132c321ae9d321d3dc53c80fbdf8bd682be7804875fe",
    "sweep fig-ktp series csv":
        "981a222abfb8edc1ea20e65ce3dbb9f16b173ae184a992b761596bb0aa30c6fd",
    "sweep fig-ktp series meta":
        "48166063d0469f674a91f6491f9cb2ccd79c4cd9a1d8c983fde636c2bd27dc1b",
    "sweep fig-ktp both csv":
        "bf94a44e8a620e9f86cb10228a783d5f68de8aac482668dd16156d55882ce5db",
    "sweep fig-ktp both meta":
        "ba1601615f472d2293a09d92ca5ad9c2c9869b552928c50489f6d09abcd67083",
    "sweep fig-ktq series csv":
        "1f4263c34a0f910b58e199ea49d25a29184d66a3ab682132c20c0e258049be3f",
    "sweep fig-ktq series meta":
        "b5d52eb3ee8161210cfc964f7393b8a60a8b99c592ce42154f52dc743bdd2508",
    "sweep fig-ktq both csv":
        "19a0bf624ddc57010662bc408e0e7a4fbcf3f97ef6d0ff0536e2f1bf35aef545",
    "sweep fig-ktq both meta":
        "6b5f11e989b902870e7f452c9ce9f0a78fbdc77bdc286686ee770025d87b34e4",
    "sweep fig-ktq-frac series csv":
        "fad8120aa7f21ec6eee5212186b4d270ea3f422dfe7fa90b103a350a73471310",
    "sweep fig-ktq-frac series meta":
        "3665602d04510a614c2ddda1cbe195426c62d540096fe87600393739709ed0c2",
    "sweep fig-ktq-frac both csv":
        "3dd0c7c3e4d74f01721612f38bdedc80f6b800d6eae72319910e77a8b3affdaa",
    "sweep fig-ktq-frac both meta":
        "b7996a3e20c3a40e0b1bed648a4fd4f10309270f53be7eead92e32e09c2e2974",
    "sweep custom both csv":
        "729ca733f92804cae11e8c60387e23ffdfac7a9cdf52b27dd40e5df4f20f822f",
    "sweep custom both meta":
        "845f6e135e9f497bf3d33c4df4cee295b36eb805a674bf0fee03f24ba4a77a96",
    "sweep fig-ktq overridden csv":
        "e9a0693239b53e5a2ef123a0f66c8eb2007c5a438531bc6c6c6a95c35c36dc3b",
    "sweep fig-ktq overridden meta":
        "761cd8ab25a28c09ce44d9f96eb86eb81311d4e48914bfb0c68d07147f14c4c6",
    "sweep fig-ktq order 32 csv":
        "a66fd9d9bd7b1a62d6082d4d62eeba9cf7eaf7d71c6e77e8ea252af1df8da996",
    "sweep fig-ktq order 32 meta":
        "136ce49f78a3c0d0f97564c1b6542277c8e955f482f38a63f906261dd9941113",
    "sweep fig-ktalpha order 64 csv":
        "7007e5b6033d2b669980734b155adf2a2cf555e5f8cb62566052ca6197e02002",
    "sweep fig-ktalpha order 64 meta":
        "b4879d5fa16e6ea133780868de13306aaad850082a61a555f546f378bded5402",
    "solve alpha=1 series":
        "7a84c65e4eb249a9a37c8eab302527ca8a0c7b9d8f94405e5e53c650a96a30f6",
    "solve alpha=1 exact":
        "161cb3d85090e47f88a1ffdbb7812b402532105f8a587d883afa5e3e220d3715",
    "solve alpha=1 abm":
        "9606552731b51d8973ed070df7f50f2fbe8af8c57fe2b046927685d449401031",
    "solve alpha=1 both":
        "8f170d57510a68f46d377281304364e6496dfca852f1fbf79ab989e803246674",
    "solve alpha=0.8 series":
        "84bbc64623420dd9a69189730649b7377ef3141dfc26c6f2eb89d76f89a1b4cc",
    "solve alpha=0.8 abm":
        "23764317cbe456781432a2e55483e90ea93cbf8158a5b002867d6c7d14ff9312",
    "solve alpha=0.8 both":
        "49d54f427bd14b4c6abba54f15f20c7d2eef27ee98f3306b2cb40e94a5c5e760",
    "compare alpha=1":
        "2e5acd2685a611fb729c7ef731c90165d6d678e4f8a041fe17f960b57c6e13b4",
    "compare alpha=0.8":
        "277353ad712c6a54bb849e8db9a4aa99fb20b28395db0c498ebf8d977ebeb998",
    "verify":
        "23d452f211a3d347704b65ab979cab5f8b9b41d352cec1dbd520f17dcf7a4618",
    "verify json":
        "42b344af186d8eb9073d2f11e28a800c61768c00b3d84524ef2add39e0c1ce4e",
    "equilibria table":
        "76f051888c661e471d2c7aef37596a83785ea58c17a366435694c216067348cf",
    "equilibria json":
        "3a6b9f8d539f155335cce1cb8890aa5bdf184f25efd3ac7e42aff0463dd4a6a8",
    "sweep fig-ktq-frac both gnuplot":
        "2d8999ff5aa2efb49d86f0f780ac51a1f5c11b7bf7b845b375462530e525d8b0",
    "--help":
        "8a0c355affa0f5b96eae50fec6800973797348634d592f9fd091bf52a35c9c28",
    "solve --help":
        "f540ce2ce990b4cea7ba7dda30cc5802177e82121cd68bfb80cf90b3256711e4",
    "sweep --help":
        "c63e49b7b7cdabfb2abf30679cd84ea21b37a0802a307b9142c86ab85aa75c2a",
    "equilibria --help":
        "ed50b9f31d69a8c944b53b8f68bfc3b56f7dc1ed59492f793093d737128aad3a",
    "verify --help":
        "ad7c718b845b40fe19a9c5999b978006dfd3ab3f4e35b107bd6ce65130552c93",
    "compare --help":
        "60714af2fbaf204e2547ab03d62e5bffeea83416f018e10efcdab4fd52fef7d2",
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


# A custom sweep, a preset with every kind of field overridden, and two presets
# at the high orders the Miller prefix dominates.
SWEEP_ARGV = {
    "sweep custom both": ["--axis", "p", "--axis-min", "0.2", "--axis-max", "1.0",
                          "--axis-count", "5", "--t-max", "1.5", "--t-count", "9",
                          "--alpha", "0.9", "--method", "both"],
    "sweep fig-ktq overridden": ["--preset", "fig-ktq", "--p", "0.7", "--axis", "mu",
                                 "--axis-min", "0.2", "--axis-max", "0.6",
                                 "--axis-count", "5", "--t-count", "9", "--order", "7"],
    "sweep fig-ktq order 32": ["--preset", "fig-ktq", "--order", "32"],
    "sweep fig-ktalpha order 64": ["--preset", "fig-ktalpha", "--order", "64"],
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


@pytest.mark.parametrize("method", ["series", "both"])
def test_solve_through_main_bytes(capsys, method):
    # the same CSV as run_solve's above, as `solve` writes it to stdout
    out = _cli_stdout(capsys, "solve", "--alpha", "0.8", "--method", method)
    assert _digest(out) == GOLDEN[f"solve alpha=0.8 {method}"]


def test_gnuplot_script_bytes(capsys, tmp_path, monkeypatch):
    # relative paths, so the script's CSV name does not depend on tmp_path;
    # `./grid.csv` is named in normal form, `grid.csv`
    monkeypatch.chdir(tmp_path)
    assert _cli_stdout(capsys, "sweep", "--preset", "fig-ktq-frac", "--method", "both",
                       "--out", "./grid.csv", "--gnuplot-script", "grid.gp") == ""
    assert _digest((tmp_path / "grid.gp").read_text()) == GOLDEN["sweep fig-ktq-frac both gnuplot"]


@pytest.mark.parametrize("alpha", [1.0, 0.8])
def test_compare_bytes(capsys, alpha):
    out = _cli_stdout(capsys, "compare", "--alpha", repr(alpha))
    assert _digest(out) == GOLDEN[f"compare alpha={alpha:g}"]


def test_verify_bytes(capsys):
    assert _digest(_cli_stdout(capsys, "verify")) == GOLDEN["verify"]


@pytest.mark.parametrize("argv, key", [
    (["verify", "--json"], "verify json"),
    (["equilibria"], "equilibria table"),
    (["equilibria", "--json"], "equilibria json"),
], ids=" ".join)
def test_report_bytes(capsys, argv, key):
    assert _digest(_cli_stdout(capsys, *argv)) == GOLDEN[key]


@pytest.mark.parametrize("command", [None, *SUMMARY])
def test_help_bytes(capsys, command):
    argv = [command, "--help"] if command else ["--help"]
    assert _digest(_cli_stdout(capsys, *argv)) == GOLDEN[" ".join(argv)]
