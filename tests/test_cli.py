import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import j0

from twarq.cli import _OPTIONS, CSV_HEADER, _j0, main

HEADER = "strategy,rho,fs_db,fr_db,pss,psr,eta_analytic,eta_sim,sim_stderr,n_slots,seed"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # usage errors
        code = exc.code
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


@pytest.mark.parametrize(
    "rho,pss",
    [("0.999999999", "0.7"), ("0.999999999", "0.9"), ("0.999999999", "0.999"),
     ("0.999999999999", "0.5")],
)
def test_analytic_quasi_static_points(capsys, rho, pss):
    """Points this close to rho = 1 once stalled the link-chain evaluation."""
    strategies = ("sw-arq", "rr", "rr-nc", "ar", "ar-nc", "cr", "cr-nc")
    flags = [f for name in strategies for f in ("--strategy", name)]
    code, out = run_cli(capsys, "analytic", *flags, "--rho", rho, "--pss", pss)
    assert code == 0
    rows = rows_of(out)
    assert [row["strategy"] for row in rows] == list(strategies)
    assert all(0.0 < float(row["eta_analytic"]) <= 1.0 for row in rows)


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


@pytest.mark.parametrize("argv", [
    ("analytic",),
    ("simulate", "--engines", "both", "--n-slots", "1000", "--seed", "1"),
], ids=["analytic", "both"])
def test_sw_arq_over_a_direct_link_always_in_outage(capsys, argv):
    """At -20 dB the direct link's outage rounds to 1: stop-and-wait
    delivers nothing, and both engines say so."""
    code, out = run_cli(capsys, *argv, "--strategy", "sw-arq", "--fs-db", "-20",
                        "--rho", "0.5")
    assert code == 0
    (row,) = rows_of(out)
    assert row["pss"] == "1" and row["eta_analytic"] == "0"
    if "both" in argv:
        assert row["eta_sim"] == "0"


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


def test_j0_matches_scipy():
    xs = np.concatenate([np.linspace(0.0, 200.0, 4001)[:-1], 2.0 * math.pi * np.array(
        [1e-3, 0.01, 0.05, 0.1, 0.3, 1.0])])
    assert max(abs(_j0(float(x)) - j0(x)) for x in xs) <= 4e-15


def test_j0_asymptotic_matches_mpmath():
    """From 200 on, J0 comes from Hankel's expansion.  scipy.special.j0
    rounds x - pi/4 there, and is off by up to 3.8e-14 on this grid, so the
    reference is mpmath at 30 digits."""
    with mpmath.workdps(30):
        worst = max(abs(_j0(float(x)) - float(mpmath.besselj(0, mpmath.mpf(float(x)))))
                    for x in np.geomspace(200.0, 1e6, 401))
    assert worst <= 4e-15


def test_fm_tp_far_past_the_trapezoid_range(capsys):
    """A large fm*Tp costs what a small one does: no node per unit of x."""
    code, out = run_cli(capsys, "analytic", "--strategy", "rr-nc", "--pss", "0.3",
                        "--fm-tp", "1e300")
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["rho"]) == pytest.approx(_j0(2.0 * math.pi * 1e300), rel=1e-11)


@pytest.mark.parametrize("flag,value", [
    ("--fm-tp", "inf"),
    ("--fm-tp", "nan"),
    ("--sweep", "fs-db:0:1:inf"),
    ("--pss", "inf"),
    ("--pss", "nan"),
    ("--fs-db", "inf"),
    ("--fs-db", "nan"),
    ("--fs-db", "-inf"),
    ("--fr-over-fs-db", "inf"),
    ("--fr-over-fs-db", "nan"),
    ("--rho", "nan"),
    ("--rho", "inf"),
])
def test_non_finite_value_names_its_flag(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--strategy", "rr-nc", "--pss", "0.3", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"{flag}: must be finite" in capsys.readouterr().err


def test_non_finite_config_value_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("strategy = rr-nc\npss = 0.3\nfr-over-fs-db = 10, inf\n")
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"{cfg}:3: fr-over-fs-db: must be finite" in capsys.readouterr().err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--strategy", "rr", "--pss", "0.3", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write output file" in err and str(out) in err


def test_unwritable_out_is_reported_before_the_sweep(tmp_path, monkeypatch):
    def execute(spec):
        raise AssertionError("the sweep ran before --out was opened")

    monkeypatch.setattr("twarq.cli.execute", execute)
    out = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--strategy", "rr", "--pss", "0.3", "--out", str(out)])
    assert exc.value.code == 2


def test_failed_sweep_leaves_out_empty(tmp_path, monkeypatch):
    from twarq.exceptions import NumericalError

    def execute(spec):
        raise NumericalError("synthetic steady-state failure")

    monkeypatch.setattr("twarq.cli.execute", execute)
    out = tmp_path / "x.csv"
    out.write_text("old rows\n")
    assert main(["analytic", "--strategy", "rr", "--pss", "0.3", "--out", str(out)]) == 3
    assert out.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["analytic", "--strategy", "rr", "--pss", "1e-309"],
    ["simulate", "--strategy", "rr", "--pss", "1e-320", "--n-slots", "100"],
])
def test_pss_without_a_finite_margin_is_usage_error(capsys, argv):
    """-1/ln(1 - P) overflows a float for P below about 5.6e-309."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--pss must be in (0, 1) with a finite fading margin" in capsys.readouterr().err


def test_pss_without_a_finite_margin_in_a_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("strategy = rr\npss = 1e-309\n")
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "pss must be in (0, 1) with a finite fading margin" in capsys.readouterr().err


def test_smallest_pss_with_a_finite_margin_still_solves(capsys):
    code, out = run_cli(capsys, "analytic", "--strategy", "rr", "--pss", "6e-309")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["fs_db"]) == pytest.approx(3082.2, abs=0.1)
    assert row["eta_analytic"] == "1"


def test_runs_without_scipy():
    """The runtime needs numpy only: with scipy made unimportable, the
    converter and both engines still run."""
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from twarq.cli import main\n"
        "assert main(['analytic', '--strategy', 'cr-nc', '--pss', '0.3', '--fm-tp', '0.1']) == 0\n"
        "assert main(['simulate', '--strategy', 'rr-nc', '--pss', '0.3', '--rho', '0.9',\n"
        "             '--n-slots', '5000', '--engines', 'both']) == 0\n"
        "assert not any(name.startswith('scipy.') for name in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()
    assert rows[0] == HEADER and rows[2] == HEADER and len(rows) == 4


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
        ["analytic", "--strategy", "rr-nc", "--fs-db", "4000"],
        ["analytic", "--strategy", "rr-nc", "--pss", "0.3", "--fr-over-fs-db", "4000"],
        ["analytic", "--strategy", "rr-nc", "--sweep", "fs-db:3000:4000:500"],
        ["analytic", "--strategy", "rr-nc", "--pss", "0.3", "--sweep", "fr-over-fs-db:0:inf:1"],
        ["analytic", "--strategy", "rr-nc", "--sweep=fs-db:-inf:0:1"],
        ["analytic", "--strategy", "rr-nc", "--sweep=fs-db:0:1:inf"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_db_overflow_names_the_value(capsys):
    """10^(x/10) overflows a float above about 3,082 dB."""
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--strategy", "rr-nc", "--pss", "0.3", "--fr-over-fs-db", "4000"])
    assert exc.value.code == 2
    assert "4000.0 dB is too large" in capsys.readouterr().err


@pytest.mark.parametrize("line,flag", [
    ("rho = 0.9", ["--fm-tp", "0.1"]),
    ("fm-tp = 0.1", ["--rho", "0.5"]),
])
def test_correlation_flag_replaces_the_files_pair(tmp_path, capsys, line, flag):
    """A flag for rho or fm-tp replaces the file's value of both keys, as a
    flag for pss or fs-db does; the two flags together stay a usage error."""
    cfg = tmp_path / "corr.cfg"
    cfg.write_text(f"strategy = rr-nc\npss = 0.3\n{line}\n")
    code, out = run_cli(capsys, "analytic", "--config", str(cfg), *flag)
    assert code == 0
    assert out == run_cli(capsys, "analytic", "--strategy", "rr-nc", "--pss", "0.3", *flag)[1]
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--config", str(cfg), "--rho", "0.5", "--fm-tp", "0.1"])
    assert exc.value.code == 2


# A value for every option of the table, then a comma list for the options a
# config file may list.  Each is tried on BASE_FLAGS, less the flags it
# replaces (CLEARS).
OPTION_VALUES = {
    "strategy": ("rr-nc", "rr, cr-nc"),
    "pss": ("0.25", None),
    "fs-db": ("2.5", None),
    "fr-over-fs-db": ("3", "0, 3"),
    "rho": ("0.5", "0, 0.5"),
    "fm-tp": ("0.1", "0.05, 0.1"),
    "sweep": ("pss:0.2:0.4:0.1", None),
    "n-slots": ("3000", None),
    "seed": ("9", None),
    "csi-mode": ("genie", "genie, prev"),
    "xor-convention": ("physical", None),
    "engines": ("analytic", None),
}
BASE_FLAGS = {"strategy": "cr-nc", "pss": "0.3", "rho": "0.9", "n-slots": "2000",
              "engines": "both"}
CLEARS = {"fs-db": ("pss",), "sweep": ("pss",), "fm-tp": ("rho",)}


@pytest.mark.parametrize("opt", _OPTIONS, ids=lambda opt: opt.key)
def test_option_reads_the_same_as_flag_and_config_line(opt, tmp_path, capsys):
    key = opt.key
    value, listed = OPTION_VALUES[key]
    assert opt.listed == (listed is not None)
    cleared = (key, *CLEARS.get(key, ()))
    base = ["simulate"] + [
        f for k, v in BASE_FLAGS.items() if k not in cleared for f in (f"--{k}", v)]
    cfg = tmp_path / "option.cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_flag = run_cli(capsys, *base, f"--{key}", value)
    assert by_flag[0] == 0
    assert run_cli(capsys, *base, "--config", str(cfg)) == by_flag
    assert run_cli(capsys, *base)[1] != by_flag[1]  # the option took effect
    if listed is None:
        return
    cfg.write_text(f"{key} = {listed}\n")
    code, out = run_cli(capsys, *base, "--config", str(cfg))
    assert code == 0
    singles = []
    for item in listed.split(","):
        singles += run_cli(capsys, *base, f"--{key}", item.strip())[1].splitlines()[1:]
    # one row per listed value, in order; csi-mode rows carry the view in the label
    assert [row.split(",", 1)[1] for row in out.splitlines()[1:]] == [
        row.split(",", 1)[1] for row in singles]


@pytest.mark.parametrize("flag", ["--rho", "--fm-tp"])
def test_rho_sweep_conflicts_with_a_fixed_correlation(flag, capsys):
    """--fm-tp fixes the correlation as --rho does, so a rho sweep rejects
    either of them instead of dropping it."""
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--strategy", "rr", "--pss", "0.3", flag, "0.1",
              "--sweep", "rho:0:0.5:0.5"])
    assert exc.value.code == 2
    assert f"--sweep over rho conflicts with {flag}" in capsys.readouterr().err


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
        assert len(spec.points) == n_rows, name
        assert spec.n_slots == 1_000_000 and spec.seed == 12345


def test_selftest_passes(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["PASS renewal-vs-dense", "PASS cross-engine", "PASS perfect-limit"]
