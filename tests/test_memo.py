"""The one memo bound and the eviction rule of the dict memos."""

import ast
import importlib
from pathlib import Path

import pytest

from ttkit import memo
from ttkit.cli import main
from ttkit.scenario import bundled_scenarios

SRC = Path(memo.__file__).resolve().parent


def test_kept_drops_the_oldest_and_keeps_every_value_it_built(monkeypatch):
    monkeypatch.setattr(memo, "MEMO_SIZE", 3)
    cache, builds = {}, []

    def build(value):
        return lambda: builds.append(value) or value

    for k in range(5):
        assert memo.kept(cache, k, build(k * k)) == k * k
    assert list(cache) == [2, 3, 4]  # the two oldest are gone
    assert memo.kept(cache, 2, build("again")) == 4  # a hit does not refresh
    assert memo.kept(cache, 5, build(25)) == 25
    assert list(cache) == [3, 4, 5]

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        memo.kept(cache, 6, boom)
    assert list(cache.items()) == [(3, 9), (4, 16), (5, 25)]

    assert memo.kept(cache, "none", build(None)) is None
    assert memo.kept(cache, "none", build("rebuilt")) is None
    assert list(cache) == [4, 5, "none"]
    assert builds == [0, 1, 4, 9, 16, 25, None]


def _bounded_memos() -> list:
    """(module, name) of every dict that a ttkit module passes to `kept`,
    and of every `lru_cache` whose bound is MEMO_SIZE."""
    memos = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"ttkit.{path.stem}")
        memos += [(module, node.args[0].id) for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "kept"]
        memos += [(module, name) for name, value in vars(module).items()
                  if getattr(value, "cache_info", None)
                  and value.cache_info().maxsize == memo.MEMO_SIZE]
    return memos


def _size(module, name) -> int:
    value = getattr(module, name)
    return len(value) if isinstance(value, dict) else value.cache_info().currsize


def test_bundled_runs_stay_far_below_the_memo_bound(monkeypatch, capsys):
    """From cold memos, `verify-all` and every bundled scenario in one
    process fill no memo to a quarter of MEMO_SIZE, so neither eviction
    rule can move a report."""
    memos = _bounded_memos()
    assert len(memos) == 6
    for module, name in memos:
        if isinstance(getattr(module, name), dict):
            monkeypatch.setattr(module, name, {})
        else:
            getattr(module, name).cache_clear()
    main(["verify-all"])
    for scenario in bundled_scenarios():
        main(["run", scenario])
    capsys.readouterr()
    sizes = {f"{module.__name__}.{name}": _size(module, name) for module, name in memos}
    assert all(0 < size < memo.MEMO_SIZE // 4 for size in sizes.values()), sizes
