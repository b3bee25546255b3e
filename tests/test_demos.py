"""The scripts under demos/ run end to end and write their SVGs."""

import pathlib
import runpy
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

SVGS = {
    "free_fall": ("free_fall_density.svg", "free_fall_trajectory.svg"),
    "berry_balazs": ("berry_balazs_density.svg",),
    "overlap_law": ("overlap_law.svg",),
}


@pytest.mark.parametrize("name", sorted(SVGS))
def test_demo_exits_zero_and_writes_svgs(name, tmp_path, monkeypatch, capsys):
    script = DEMOS / f"{name}.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(script), run_name="__main__")
    assert stop.value.code == 0, capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SVGS[name])
    for svg in SVGS[name]:
        text = (tmp_path / svg).read_text(encoding="utf-8")
        assert text.startswith("<svg") and text.endswith("</svg>\n")
