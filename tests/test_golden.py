"""Golden outputs: the decoded results of every preset and the checked-in
study CSVs.

Each preset, and one noisy cell whose report shows the tie and overlap
flags, runs end to end at its own seed, and the sha256 of its
``LinkReport.to_text()`` and of its recovered payload hex list are pinned.
Every CSV in ``results/`` must regenerate byte for byte from the script
that wrote it.  A rewrite that claims unchanged behaviour passes these
unchanged; only an intended behaviour change re-pins them.
"""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import pytest

from occsim import cli, configs, decoder, experiment
from occsim.analysis import FusionStudyConfig, fusion_gain_experiment
from occsim.camera import covered_rows

ROOT = Path(__file__).resolve().parent.parent

# preset -> (sha256 of the report text, sha256 of the payload hex lines)
GOLDEN = {
    "table5_v1": (
        "a0346efb796345f22344b4a9c574b71fe29eda97c2631ccbf0949cf6d87b6427",
        "d40742a3a9905766bc0278f129e25ae273570bf6f403a25fc42374a129d75532"),
    "table5_v2": (
        "cfb40e6f1476c0951e76f4038760900f0cd9a7dc54c1100d110aa9bb442424dc",
        "8a7fb0105c1b6263976d4f27128b2a4f522187919c0e2f2fec1252cc30751b5e"),
    "table8_4b6b_2k": (
        "5df4c3a101db48549ee1fd1de4456c3b5dc92545b7c01370fe55aa610340c371",
        "6c24461f15c695e9901e0a450a76dacca9d1e2fd033d3762fcaaa727e73668fe"),
    "table8_manchester_1k": (
        "228bebf9e00484b88de8e286bd0894fe265694318c695aa3fcf1a0c341eda1ff",
        "2462465660f6d23b605d866bef403902ad6df47f33cfe2f0ff84da1a499ff6cc"),
    "table8_manchester_2k": (
        "a4cda67a8f09d6654f26dccc4070196354f88303b7bbbfa0f2c285d18fe9b7f1",
        "f65e5d8629cf185bbde7d204488c9e165d331b3b6b3699ad6b65c5c57afb9be7"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_preset_is_pinned():
    assert sorted(GOLDEN) == sorted(configs.PRESETS)


def _outputs(config) -> tuple[str, str]:
    """The report text and the payload hex lines of one config's run."""
    # the payload draw of `occsim encode`
    distinct = (config.payload_bits >= 16
                and config.trials <= 1 << config.payload_bits)
    payloads = experiment.random_payloads(config.trials, config.payload_bits,
                                          config.seed, distinct=distinct)
    report = experiment.run_link(
        payloads, config.plan(), config.rll_scheme, config.frame_structure,
        config.camera(), config.rows_per_chip, config.geometry()).report
    hex_lines = "\n".join(decoder.bits_to_hex(p) for p in report.payloads())
    return report.to_text(), hex_lines


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_outputs(name):
    text, hex_lines = _outputs(configs.load_config(name))
    assert (_sha256(text), _sha256(hex_lines)) == GOLDEN[name]


# the noisy Manchester cell at its preset seed: the one pinned report whose
# groups show the tie and overlap flags (the five presets show neither)
NOISY_CELL = (
    "b645a040808a9f7b292117f9e5c59bac049549fa41ebaadd7c4e42c722743e8f",
    "8e3b4acca94fcf535888cb4f762b812379f567e8f709a41994d729705de61e84")


def test_noisy_cell_outputs():
    config = dataclasses.replace(configs.load_config("table8_manchester_2k"),
                                 noise_sigma=0.3)
    text, hex_lines = _outputs(config)
    assert " tie" in text and " overlap" in text
    assert (_sha256(text), _sha256(hex_lines)) == NOISY_CELL


def _script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_regenerated(out: Path):
    assert out.read_bytes() == (ROOT / "results" / out.name).read_bytes()


def test_fusion_deep_csv_regenerates(tmp_path):
    study = _script("run_fusion_study")
    out = tmp_path / "fusion_deep.csv"
    study.write_rows(out, fusion_gain_experiment(study.DEEP))
    _assert_regenerated(out)


def test_fusion_grid_csv_regenerates(tmp_path):
    study = _script("run_fusion_study")
    out = tmp_path / "fusion_grid.csv"
    study.write_rows(out, fusion_gain_experiment(FusionStudyConfig()))
    _assert_regenerated(out)


def test_der_study_csv_regenerates(tmp_path, monkeypatch):
    study = _script("run_der_study")
    monkeypatch.setattr(study, "RESULTS", tmp_path)
    assert study.main() == 0
    _assert_regenerated(tmp_path / "der_study.csv")


def test_sweep_csvs_regenerate(tmp_path):
    # the arguments of scripts/run_sweep.py
    assert cli.main(["sweep", "--out", str(tmp_path / "sweep.csv")]) == 0
    _assert_regenerated(tmp_path / "sweep.csv")
    _assert_regenerated(tmp_path / "sweep_reference.csv")


# sha256 of the frame CSV `occsim simulate` writes for a noisy far cell:
# the noise on the dark rows outside the footprint is written too
NOISY_FRAMES_CSV = (
    "af1dd7594d297fe164ebf06db3bbde47b623419afab3b5a9ffe6a39b6f47aabc")


def test_noisy_frames_csv(tmp_path):
    config = dataclasses.replace(
        configs.load_config("table8_manchester_2k"), noise_sigma=0.3,
        distance=2.0, reference_distance=1.0, trials=20)
    camera_rows = config.camera().rows
    assert 0 < covered_rows(config.geometry(), camera_rows) < camera_rows
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    stream, frames = tmp_path / "stream.chips", tmp_path / "frames.csv"
    assert cli.main(["encode", "--config", str(path),
                     "--out", str(stream)]) == 0
    assert cli.main(["simulate", "--config", str(path), "--stream",
                     str(stream), "--out", str(frames)]) == 0
    assert hashlib.sha256(frames.read_bytes()).hexdigest() == NOISY_FRAMES_CSV


# sha256 of the zero-noise table5_v2 frame CSV `occsim simulate` writes at
# the preset's seed: the file the benchmark's file pipeline writes
CLEAN_FRAMES_CSV = (
    "7eb959e498e8a10b633d3c3d13c516cd6cecf8ac691fc83d5c51096de9c57227")


def test_clean_frames_csv(tmp_path):
    stream, frames = tmp_path / "stream.chips", tmp_path / "frames.csv"
    assert cli.main(["encode", "--config", "table5_v2",
                     "--out", str(stream)]) == 0
    assert cli.main(["simulate", "--config", "table5_v2", "--stream",
                     str(stream), "--out", str(frames)]) == 0
    assert hashlib.sha256(frames.read_bytes()).hexdigest() == CLEAN_FRAMES_CSV
