"""The behavioural contract: every shipped sweep spec, run at its shipped
size, writes the same bytes as before, and so do five `nhjc verify` runs.
The sha256 values were taken from the outputs of the code the boundary
overlays and the boundary checks of verify were evaluated with one point at
a time; the four surfaces_* and two tilt_scan_* specs replace experiment
scripts that wrote the same files. The JSON outputs of the specs and the
files of scripts/winding_loops.py were pinned when the overlays became
tables of columns, with the sha256 of what the row-tuple overlays wrote."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nhjc.cli import main
from nhjc.sweep import SweepSpec, run_sweep

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

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

# spec -> sha256 of its `nhjc sweep --format json` output
SWEEP_JSON = {
    "surfaces_Gamma_g_gamma": "fd4363174143b5293b7150bf73ca9232833c3ada98661dd8ed4760838941a93f",
    "surfaces_Gamma_g_kappa": "6594cf1acf6e83bf14483945eda5b15ce6fe71496a332a2f3f750281387eea69",
    "surfaces_gamma_g_kappa": "81d26f4cf3920a9ed964ebe3706c5f3d52e83807c001cd5b5d4eafbb1af28818",
    "surfaces_kappa_Gamma_gamma": "e745a9f59604d1c53edc9d83aa70d7cf8a064120a379fa4d1f68f20e40504742",
    "sweep_gamma_g_plane": "a7ee52e441e939f0154830c4ceda049edf2ce6573d2ca6decd7e3d5c8a2a7a42",
    "sweep_tilt_vs_gamma": "63aeb98f216aa37103a62fa9260d859d31094aa421539cd89278f740727f50d5",
    "tilt_scan_plane": "a2240c078f3836687d37298b3bca7231f7037a6c42243ea9b3fc0c23ccd0694c",
    "tilt_scan_vs_gamma": "d644e6c02e229f0eb2a58a1db55ecf3bb994b4afe7b3d89121041f12a6f24d55",
}

# file -> sha256 of the four loops scripts/winding_loops.py writes by default
LOOP_FILES = {
    "winding_loop_1.csv": "63e2284bd56e18c15a9e4957cd48bda60b240beba5b7f1b8c238f15055282b95",
    "winding_loop_2.csv": "4c91d36a017965d5124e5e805ba707c77614f89c20ea36d7ab75cde2c12db7e1",
    "winding_loop_3.csv": "66305fa9c4dbe274c93fa98262f1c28664147b2262775b8433704ac3e1a6813a",
    "winding_loop_4.csv": "d978889ecb55954f26c196094215800ecf2ea67badb6033a7f068c4cc9966ffe",
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
# below the four-draw floor: every check takes the same four draws; and five
# draws, of which the winding check takes the first four (taken with the two
# draw calls run_suite made before it drew once)
VERIFY_ONE_DRAW = "90672bf1ae7c77d4f89df34ba49f769d4b698a3f788c89442145141ce0ef116d"
VERIFY_FIVE_DRAWS = "618fbd998449989a65cf9efe53a349b03989591ae21fb9efa8793c6888ae9f9f"


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


@pytest.mark.parametrize("name", sorted(SWEEP_JSON))
def test_shipped_sweep_spec_writes_the_pinned_json(tmp_path, name):
    out = tmp_path / f"{name}.json"
    assert main(["sweep", "--spec", str(CONFIGS / f"{name}.json"), "--out", str(out), "--format", "json"]) == 0
    assert [path.name for path in tmp_path.iterdir()] == [out.name]
    assert _sha256(out.read_bytes()) == SWEEP_JSON[name]


def test_winding_loops_script_writes_the_pinned_files(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "winding_loops.py"), "--out-dir", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert {path.name: _sha256(path.read_bytes()) for path in tmp_path.iterdir()} == LOOP_FILES


def test_quick_verify_report_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--quick"]) == 0
    assert _sha256(out.getvalue().encode()) == VERIFY_QUICK


@pytest.mark.parametrize("argv, expected", [
    ([], VERIFY_FULL),
    (["--draws", "50", "--n-max", "8", "--seed", "7"], VERIFY_SEED_7),
    (["--draws", "1", "--n-max", "2"], VERIFY_ONE_DRAW),
    (["--draws", "5", "--n-max", "1"], VERIFY_FIVE_DRAWS),
], ids=["full", "seed-7", "one-draw", "five-draws"])
def test_verify_report_is_pinned(argv, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", *argv]) == 0
    assert _sha256(out.getvalue().encode()) == expected
