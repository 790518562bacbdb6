"""scripts/reproduce_figures.py: the manifest records the mask contract and
each preset's command and CSV digests."""

import copy
import importlib.util
import json
from pathlib import Path

import radmm as rm

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed_manifest() -> dict:
    return json.loads((ROOT / "out" / "figures" / "MANIFEST.json").read_text())


def test_committed_manifest_records_the_mask_contract():
    assert committed_manifest()["mask_contract"] == rm.MASK_CONTRACT


def test_check_reports_another_mask_contract():
    fig = load_script()
    fresh = {"radmm_version": rm.__version__, "mask_contract": rm.MASK_CONTRACT, "presets": {}}
    assert fig.mismatches(fresh, dict(fresh), "regenerated") == []
    older = dict(fresh, mask_contract=rm.MASK_CONTRACT - 1)
    assert fig.mismatches(older, fresh, "regenerated") == [
        f"regenerated: mask_contract {rm.MASK_CONTRACT} != {rm.MASK_CONTRACT - 1}"
    ]
    unversioned = {k: v for k, v in fresh.items() if k != "mask_contract"}
    assert len(fig.mismatches(unversioned, fresh, "regenerated")) == 1


def test_check_reports_another_command_or_csv_digest():
    manifest = committed_manifest()
    # every preset runs at its own run count, so the manifest records none
    assert all(set(entry) == {"command", "files"} for entry in manifest["presets"].values())
    fig = load_script()
    assert fig.mismatches(manifest, manifest, "regenerated") == []
    name = sorted(manifest["presets"]["fig1"]["files"])[0]
    changed = copy.deepcopy(manifest)
    changed["presets"]["fig1"]["command"] = "sweep"
    changed["presets"]["fig1"]["files"][name] = "0" * 64
    assert fig.mismatches(manifest, changed, "regenerated") == [
        "regenerated: fig1 command sweep != run",
        f"regenerated: fig1/{name} differs from the manifest",
    ]
