import importlib.util
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def output_hashes(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))   # for its ``bench_pairs`` import
    spec = importlib.util.spec_from_file_location("output_hashes", _TOOLS / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_hashes_the_same_as_itself(output_hashes, monkeypatch, capsys):
    # the 16x16 models only: the parent tree is this checkout, so every
    # output, each made in its own interpreter, must hash the same
    monkeypatch.setattr(output_hashes, "archive", lambda rev, dest: output_hashes.ROOT)
    assert output_hashes.main(["--parent", "HEAD", "--models", "16"]) == 0
    out = capsys.readouterr().out
    assert "DIFFERS" not in out
    # plain and distillation at B = 1 and 2: each 4 windows x 3 classes of
    # bicam maps, rollout, logits and the input gradient; the training's
    # losses and weights: (12 + 3) x 2 x 2 + 2; and the CLI's: 15 files
    # (attribute 5, rollout 3, attack 2, pnr-detect 2, eval-loc 1,
    # eval-faith 2) and 6 stdouts
    assert out.strip() == "83 outputs hashed, 0 differ from HEAD"


def test_each_output_that_differs_is_named_and_exits_1(output_hashes, monkeypatch, capsys):
    parent_tree = Path("parent-tree")
    hashes = {output_hashes.ROOT: {"a": "1", "b": "2", "c": "4"},
              parent_tree: {"a": "1", "b": "3"}}
    monkeypatch.setattr(output_hashes, "archive", lambda rev, dest: parent_tree)
    monkeypatch.setattr(output_hashes, "tree_hashes", lambda tree, models: hashes[tree])
    assert output_hashes.main(["--parent", "abc123"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS b: parent 3 change 2", "DIFFERS c: parent None change 4",
        "3 outputs hashed, 2 differ from abc123"]
