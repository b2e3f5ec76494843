"""jobs/render_experiments.py regenerates EXPERIMENTS.md's result sections
between BEGIN/END markers, and refuses a file without them."""
import importlib.util
import os
import shutil

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture(scope="module")
def render():
    spec = importlib.util.spec_from_file_location(
        "render_experiments", os.path.join(ROOT, "jobs", "render_experiments.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_render_is_idempotent(render, tmp_path):
    path = tmp_path / "EXPERIMENTS.md"
    shutil.copy(os.path.join(ROOT, "EXPERIMENTS.md"), path)
    render.render_file(str(path))
    once = path.read_text()
    render.render_file(str(path))
    assert path.read_text() == once
    for name in render.SECTIONS:
        assert once.count(f"<!-- BEGIN {name} -->") == 1


def test_render_exits_nonzero_naming_missing_markers(render, tmp_path, monkeypatch):
    text = "# EXPERIMENTS\n\n<!-- BEGIN TABLE2_RESULTS -->\n"
    (tmp_path / "EXPERIMENTS.md").write_text(text)
    monkeypatch.setattr(render, "ROOT", str(tmp_path))
    with pytest.raises(SystemExit) as exit_:
        render.main()
    assert "TABLE2_RESULTS, TABLE2_SHAPE, PLAN_SPACE_RESULTS" in str(exit_.value.code)
    assert (tmp_path / "EXPERIMENTS.md").read_text() == text
