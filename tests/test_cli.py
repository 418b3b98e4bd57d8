import hashlib
import math

import pytest
from scipy.special import j0

from twarq.cli import CSV_HEADER, main

HEADER = "strategy,rho,fs_db,fr_db,pss,psr,eta_analytic,eta_sim,sim_stderr,n_slots,seed"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows_of(out):
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    return [dict(zip(HEADER.split(","), line.split(","))) for line in lines[1:]]


def test_header_is_frozen():
    assert CSV_HEADER == HEADER


def test_analytic_sw_point(capsys):
    code, out = run_cli(capsys, "analytic", "--strategy", "sw-arq", "--pss", "0.3")
    assert code == 0
    (row,) = rows_of(out)
    assert row["eta_analytic"] == "0.7"
    assert row["eta_sim"] == "" and row["sim_stderr"] == ""
    assert row["pss"] == "0.3"


def test_analytic_near_perfect(capsys):
    code, out = run_cli(
        capsys, "analytic", "--strategy", "rr-nc", "--pss", "1e-9",
        "--rho", "0", "--fr-over-fs-db", "10",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["eta_analytic"]) > 0.999999


def test_analytic_pinned_bad_relays(capsys):
    """At -30 dB relay margin psr rounds to 1, so only the direct link
    carries packets and every cooperative strategy reduces to 1 - pss."""
    code, out = run_cli(
        capsys, "analytic", "--strategy", "rr-nc", "--fs-db", "0",
        "--fr-over-fs-db", "-30", "--rho", "0.5",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["psr"] == "1"
    assert row["eta_analytic"] == "0.367879441171"


def test_simulate_perfect_point(capsys):
    code, out = run_cli(
        capsys, "simulate", "--strategy", "rr", "--fs-db", "120",
        "--rho", "0", "--n-slots", "100000", "--seed", "1",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["eta_sim"] == "1" and row["sim_stderr"] == "0"


def test_simulate_seed_reproducible(tmp_path):
    args = [
        "simulate", "--strategy", "ar-nc", "--pss", "0.4", "--rho", "0.9",
        "--n-slots", "30000", "--seed", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_both_engines_and_cross_check(capsys):
    code, out = run_cli(
        capsys, "simulate", "--strategy", "rr-nc", "--strategy", "cr",
        "--pss", "0.5", "--rho", "0.9", "--n-slots", "200000",
        "--engines", "both",
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["strategy"] for r in rows] == ["rr-nc", "cr"]
    for row in rows:
        gap = abs(float(row["eta_analytic"]) - float(row["eta_sim"]))
        assert gap <= 4.0 * float(row["sim_stderr"])


def test_sweep_ordering(capsys):
    code, out = run_cli(
        capsys, "analytic", "--strategy", "sw-arq", "--strategy", "rr",
        "--sweep", "pss:0.2:0.6:0.2", "--rho", "0.5",
    )
    assert code == 0
    rows = rows_of(out)
    assert [(r["strategy"], r["pss"]) for r in rows] == [
        ("sw-arq", "0.2"), ("sw-arq", "0.4"), ("sw-arq", "0.6"),
        ("rr", "0.2"), ("rr", "0.4"), ("rr", "0.6"),
    ]


def test_fm_tp_converter(capsys):
    code, out = run_cli(
        capsys, "analytic", "--strategy", "sw-arq", "--pss", "0.3",
        "--fm-tp", "0.1",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["rho"]) == pytest.approx(float(j0(2.0 * math.pi * 0.1)), abs=1e-10)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# comment\nstrategy = sw-arq\npss = 0.3\nrho = 0.5\nengines = analytic\n"
    )
    code, out = run_cli(capsys, "analytic", "--config", str(cfg), "--pss", "0.4")
    assert code == 0
    (row,) = rows_of(out)
    assert row["pss"] == "0.4" and row["rho"] == "0.5"
    assert row["eta_analytic"] == "0.6"


@pytest.mark.parametrize("line", ["n_slots = 5", "engine = simulate", "pss 0.3"])
def test_config_file_rejects_unknown_keys(tmp_path, line):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"strategy = sw-arq\npss = 0.3\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_file_missing_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--config", str(tmp_path / "absent.cfg")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--pss", "0.5"],
        ["analytic", "--strategy", "rr", "--pss", "1.5"],
        ["analytic", "--strategy", "rr", "--pss", "0.5", "--fs-db", "3"],
        ["analytic", "--strategy", "rr", "--pss", "0.5", "--rho", "1.0"],
        ["analytic", "--strategy", "bogus", "--pss", "0.5"],
        ["analytic", "--strategy", "rr", "--sweep", "pss:0.1:0.9"],
        ["analytic", "--strategy", "rr", "--sweep", "nope:0:1:0.1"],
        ["analytic", "--strategy", "rr", "--sweep", "pss:0.9:0.1:0.1"],
        ["analytic", "--strategy", "rr", "--sweep", "pss:0.1:0.9:0.1", "--pss", "0.5"],
        ["analytic", "--strategy", "rr", "--pss", "0.5", "--rho", "0.2", "--fm-tp", "0.1"],
        ["analytic", "--strategy", "rr"],
        ["simulate", "--strategy", "rr", "--pss", "0.5", "--n-slots", "0"],
        ["simulate", "--strategy", "rr", "--pss", "0.5", "--seed", "-3"],
        ["figure", "nope"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_figure_fig4_small(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["figure", "fig4", "--n-slots", "2000", "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == HEADER
    # 3 strategies x 3 correlations x 19 outage points
    assert len(lines) - 1 == 3 * 3 * 19
    strategies = {line.split(",")[0] for line in lines[1:]}
    assert strategies == {"sw-arq", "rr", "rr-nc"}
    rhos = {line.split(",")[1] for line in lines[1:]}
    assert rhos == {"0", "0.9", "0.999"}


def test_figure_fig9csi_small(tmp_path):
    out = tmp_path / "fig9csi.csv"
    assert main(["figure", "fig9csi", "--n-slots", "2000", "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"cr-nc:prev", "cr-nc:last-known", "cr-nc:genie"}


# SHA-256 of the strategy, eta_sim and sim_stderr columns (header included)
# of `twarq figure NAME --n-slots 20000 --seed 12345`, recorded from the
# row-by-row simulator.  These columns are integer counts and PCG64 draws, so
# they do not depend on the BLAS, unlike the last digit of eta_analytic.
PINNED_SIM_COLUMNS = {
    "fig4": "843abeffdd9830c1701da43103fba3235534a741396f1ea4d1b78e776eba267b",
    "fig7": "7cf308f455830bdbc3bd645b732a0d5508152de18d8ec04e7127d431f4728f66",
    "fig9csi": "512a7e4c3e97718bc454fc29a2f4e7b9d84ccae6b628ebfc2cfa77f8f96168a5",
}


@pytest.mark.parametrize("name", sorted(PINNED_SIM_COLUMNS))
def test_figure_simulate_columns_pinned(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(["figure", name, "--n-slots", "20000", "--seed", "12345",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    cols = [rows[0].index(c) for c in ("strategy", "eta_sim", "sim_stderr")]
    body = "\n".join(",".join(row[c] for c in cols) for row in rows) + "\n"
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_SIM_COLUMNS[name]


def test_fig7_low_margin_ordering():
    """The packaged quasi-static equal-margin sweep shows the relay-bound
    strategy dropping below the no-relay baseline at low direct margin."""
    from twarq.analysis import analytic_throughput, sw_arq_throughput
    from twarq.channel import JointChannelModel, outage_probability
    from twarq.protocol import Strategy

    pss = outage_probability(1.0)  # 0 dB direct margin
    model = JointChannelModel.symmetric(pss, pss, 0.999)
    assert analytic_throughput(Strategy.RR, model) < sw_arq_throughput(pss)


def test_numerical_failure_exits_3(monkeypatch, capsys):
    import twarq.cli as cli
    from twarq.exceptions import NumericalError

    def boom(configs):
        raise NumericalError("synthetic steady-state failure")

    monkeypatch.setattr(cli, "run_many", boom)
    code = main(["simulate", "--strategy", "rr", "--pss", "0.5", "--n-slots", "100"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_all_packaged_figures_parse():
    from twarq.cli import _build_parser, _figure_spec
    import argparse

    expected_rows = {
        "fig4": 3 * 3 * 19, "fig5": 3 * 3 * 19, "fig6": 3 * 3 * 19,
        "fig7": 7 * 26, "fig8": 7 * 34 * 2, "fig9": 7 * 2 * 26,
        "fig9csi": 3 * 19,
    }
    parser = _build_parser()
    for name, n_rows in expected_rows.items():
        args = argparse.Namespace(name=name, n_slots=None, seed=None)
        spec = _figure_spec(parser, args)
        assert len(spec.points()) == n_rows, name
        assert spec.n_slots == 1_000_000 and spec.seed == 12345


def test_selftest_passes(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 6
