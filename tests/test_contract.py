"""The behavioural contract: every shipped sweep spec, run at its shipped
size, writes the same bytes as before, and so do three `nhjc verify` runs.
The sha256 values were taken from the outputs of the code the boundary
overlays and the boundary checks of verify were evaluated with one point at
a time; the four surfaces_* and two tilt_scan_* specs replace experiment
scripts that wrote the same files."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from nhjc.cli import main
from nhjc.sweep import SweepSpec, run_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# spec -> output suffix (after the --out path) -> sha256
SWEEP_FILES = {
    "surfaces_Gamma_g_gamma": {
        "": "59ad010f0742e93c873d675ef1736677e740b1cd54691014ba3c37a4096a4bc0",
        ".overlay.GR.csv": "90bd6eaab60f641d2f8904908c6dcf2c079a844ee458f2bb52cfebbde84af963",
        ".overlay.R.csv": "22201702199acd8bd82a136f652b190beefa316b27fa831c04339e10f2a52651",
        ".overlay.SI.csv": "60e079c1a3555d8344e9db231d00ee54cd654530de8d83221c7725f47f95c185",
    },
    "surfaces_Gamma_g_kappa": {
        "": "adaf69976954461deb0cd386095a75ce1151580db09d505a69fade6b4688ae8c",
        ".overlay.GR.csv": "5cb411c42f8d3e3c75f13f4777f0dc6ee15d1254a20e38bc766f603af80ca6b4",
        ".overlay.R.csv": "9389a8e5bd3775d600a43a89e5d1163a06904bdd4218aeded81c27e498c9a71f",
        ".overlay.SI.csv": "627e7f73bf7950c64fb7d6d519f9bce3d8619c28c8ab4107d0bf53dbf030668e",
    },
    "surfaces_gamma_g_kappa": {
        "": "406fdbbae192c72bb44a8c8b350becda5845aa17b4df46f4cca101f9b170e51c",
        ".overlay.GR.csv": "29e2b4c70328074fb8c19dbfa1e3b63530b3fea7e58c128a9fcc2a1c6ad1e5a2",
        ".overlay.R.csv": "37b66afc51c9926c18ab24de542638c4bcf79da3db417288e220e21e21586103",
        ".overlay.SI.csv": "9e5900fb0e4cf29d0d7322760521917d49a3f7c0c104993e9c50ecbf8342ae04",
    },
    "surfaces_kappa_Gamma_gamma": {
        "": "65ed965a9f87b3f910484986c31b0889f9c2dc749f79edda0e623ec6bf4775fc",
        ".overlay.GR.csv": "2ef4ef5854452d4a9bb68038cc83954b11be5905312ffaeb3fcea96723253d91",
        ".overlay.R.csv": "5e6da63379491c131e42a74d305ca13a1751e11de78a6670d656b95d73a4a390",
        ".overlay.SI.csv": "0548d51d3447a6e1c679eb5ea380c4d50413c7f3073b7982ebef053c42d3fb52",
    },
    "sweep_gamma_g_plane": {
        "": "f15decd14f1041afd64fcfc517ed68aaa8b232ac7fccfc0c89561533b715d148",
        ".overlay.GR.csv": "f325b59c96f22c685d6bb67677934751da2d45ec3cb686c4cffd414e0e2d1693",
        ".overlay.R.csv": "9841e27afc58894089d1ae71db32d6eac5839ac64f5c6998cd2e7737d69d53ec",
    },
    "sweep_tilt_vs_gamma": {
        "": "67f7f3081f48d7c721f44e630248d43011bf894672f4094fa2f2337c62f8ab28",
        ".overlay.GR.csv": "b400dc822d3eaef46e36b8265a031d3fbdc050ae7f36954131116f493ab25c56",
        ".overlay.R.csv": "8ee6a6d8b02fdfadd40818eb31bc7bc6acdba5b631bc8eb6f63609edf3df8dda",
        ".overlay.SI.csv": "9beb8db70e2564b95f1de95c6b4b02eefbe21ea82aacba6f9bbafbd7b98ec484",
    },
    "tilt_scan_plane": {
        "": "f993bb29d481c8f2df7a934172203e4628fcfbb9fec0cbbf0dc1659e46d2d6cb",
        ".overlay.GR.csv": "01e6b29d5eaa018740ed7a87412cc96f72816418270d441f7e60f2582b1e6354",
        ".overlay.R.csv": "66fb8141c5214d1adfc441840e521096ee1e94945e93a5036bd704e4987df18b",
        ".overlay.SI.csv": "168da4a90fb605000d86294d5bd832c9a172c9a5563843b9ceac913ab97843f1",
    },
    "tilt_scan_vs_gamma": {
        "": "39a6bd657145151c164c7ee921786d72914f97f3627d02d4ea539eacfbc5cc65",
        ".overlay.SI.csv": "9beb8db70e2564b95f1de95c6b4b02eefbe21ea82aacba6f9bbafbd7b98ec484",
    },
}

# the "invariant nodes" line reads the Newton step from each node to its
# Hermite root (1.14e-16), where it read a deviation of 0 by construction
VERIFY_QUICK = "8191cb769a3e3fec0dba718c13161f2b499c259a13a2326dff679e399da714b7"
# the node check at n = 8, which the quick run (n <= 6) does not reach, and
# the reversal check at n = 1..5
VERIFY_FULL = "f50976257edb658cdf8e51584e2e38d55cadd7625ec532f984d75c53a7ba1a32"
# the winding line's worst integral residual, 1.78e-15 -> 2.66e-15 with
# the shell ratio 4 of topology.winding_grids
VERIFY_SEED_7 = "fc15830ab038dcd17fee662e867525c15bf81345b6af587f1dfc6c67f5009045"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_shipped_sweep_spec_is_pinned():
    specs = {path.stem for path in CONFIGS.glob("*.json") if "axes" in json.loads(path.read_text())}
    assert specs == set(SWEEP_FILES)


@pytest.mark.parametrize("name", sorted(SWEEP_FILES))
def test_shipped_sweep_spec_writes_the_pinned_files(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    run_sweep(SweepSpec.load(CONFIGS / f"{name}.json")).to_csv(out)
    written = {path.name[len(out.name):]: _sha256(path.read_bytes()) for path in tmp_path.iterdir()}
    assert written == SWEEP_FILES[name]


def test_quick_verify_report_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--quick"]) == 0
    assert _sha256(out.getvalue().encode()) == VERIFY_QUICK


@pytest.mark.parametrize("argv, expected", [
    ([], VERIFY_FULL),
    (["--draws", "50", "--n-max", "8", "--seed", "7"], VERIFY_SEED_7),
], ids=["full", "seed-7"])
def test_verify_report_is_pinned(argv, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", *argv]) == 0
    assert _sha256(out.getvalue().encode()) == expected
