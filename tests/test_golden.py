"""Golden outputs: the decoded results of every preset and the checked-in
study CSVs.

Each preset, one noisy cell whose report shows the tie and overlap
flags, and four cells on decoder paths no preset takes run end to end at
their own seeds, and the sha256 of each ``LinkReport.to_text()`` and of
its recovered payload hex list are pinned.  ``table5_v2``'s frame CSV,
its lines shuffled, must decode through ``occsim decode`` to the same
pair.  Every CSV in ``results/`` must regenerate byte for byte from the
script that wrote it.  A rewrite that claims unchanged behaviour passes these
unchanged; only an intended behaviour change re-pins them.
"""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import numpy as np
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


# validated cells on decoder paths no preset takes, each a few dozen
# packets at its base preset's seed, with no padded slot:
# name -> (base preset, changed fields, report sha256, payload hex sha256)
PATH_CELLS = {
    # a fractional grid (2.5 rows per chip) under v2, `_group_means`'
    # reduceat path: 34 of 60, as the preset's frames come slower than
    # its packets
    "fractional_v2": (
        "table5_v2", dict(rows_per_chip=2.5, camera_rows=250, trials=60),
        "b36f2d5b033c00c6c8b3fc219d25e8bc2479df56698f226bfffb5c974892bf84",
        "ca8e4df7f771a3d6074851ef73f9028d9736769459219920f156a944d877bd64"),
    # an exposure shorter than a row period: 60 of 60
    "short_exposure": (
        "table8_manchester_2k", dict(row_exposure_factor=0.4, trials=60),
        "754611a3729a92998eb240daa6c6e1431752f9f2f8de41429e69d43ba1262fe4",
        "4cd089a97785daf86b92a4e15fa242033b5e509076efdc09a1740dc17b0a2494"),
    # 8B10B under v2: 37 of 60, as in the cell above
    "v2_8b10b": (
        "table5_v2", dict(scheme="8b10b", payload_bits=24,
                          optical_clock_hz=4560.0, camera_rows=240,
                          trials=60),
        "214b0c95cc5b33035b4f0e04023b1c6b1d4cb694303182387775ce1fa2b91325",
        "f8108ed4f07b211b342b100641867790cd2afe5ec585c060607f00097a6928ea"),
    # chip groups of 8 and 9 rows (8.5 rows per chip), with noise: 40 of 40
    "noisy_8_9_rows": (
        "table8_manchester_2k", dict(
            optical_clock_hz=1000.0, rows_per_chip=8.5, camera_rows=425,
            mean_fps=10.0, delta_fps=2.0, packet_rate=5.0, noise_sigma=0.3,
            trials=40),
        "c54face0dd8b4fdf01100bc18c9a6cc835803d6848f86692a4872f776603d69d",
        "5fe66431db61c13e5bb8900c5ff5f7f047f64ec07416d21b2c697b38ca52f2ce"),
}


@pytest.mark.parametrize("name", sorted(PATH_CELLS))
def test_path_cell_outputs(name):
    base, fields, *pins = PATH_CELLS[name]
    config = dataclasses.replace(configs.load_config(base), **fields)
    assert config.validate() == [] and config.plan().pad_chips == 0
    text, hex_lines = _outputs(config)
    assert [_sha256(text), _sha256(hex_lines)] == pins


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


def test_interleaved_frames_csv_decodes_as_the_preset(tmp_path):
    # the clean table5_v2 file with its body lines shuffled, so that every
    # frame's rows interleave with others': it decodes to the preset's pins
    stream, frames = tmp_path / "stream.chips", tmp_path / "frames.csv"
    assert cli.main(["encode", "--config", "table5_v2",
                     "--out", str(stream)]) == 0
    assert cli.main(["simulate", "--config", "table5_v2", "--stream",
                     str(stream), "--out", str(frames)]) == 0
    header, *body = frames.read_bytes().splitlines(keepends=True)
    np.random.default_rng(0).shuffle(body)
    frames.write_bytes(header + b"".join(body))
    report, payloads = tmp_path / "report.txt", tmp_path / "payloads.hex"
    assert cli.main(["decode", "--config", "table5_v2", "--frames",
                     str(frames), "--out", str(report),
                     "--payload-out", str(payloads)]) == 0
    assert tuple(_sha256(path.read_text().removesuffix("\n"))
                 for path in (report, payloads)) == GOLDEN["table5_v2"]
