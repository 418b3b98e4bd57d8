import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    """The README's library example runs as written, and what it computes
    is what the text around it says."""
    text = README.read_text()
    section = text[text.index("\n## Library quick start\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    eta, stats, rr_nc = namespace["eta"], namespace["stats"], namespace["rr_nc"]
    assert len(capsys.readouterr().out.split()) == 3
    assert abs(stats.throughput_estimate - eta) <= 4.0 * stats.std_error
    # run_many gives each configuration what run gives it
    assert rr_nc == stats
