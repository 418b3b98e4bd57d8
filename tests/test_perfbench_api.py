import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_runtime_provides_every_name_the_traced_probe_reads(monkeypatch):
    """The traced benchmark run resolves its probe's names from the package
    by dotted path and reads a missing one as None; each must still exist."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert [key for key, obj in layers.resolve().items() if obj is None] == []
