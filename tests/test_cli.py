from miloc.cli import main


BASE_CFG = """
room_size_m = 1.5
nu = 5
diameter_m = 0.05
resistance_ohm = 0.0545
frequency_hz = 5e5
sigma = 1e-5
min_dist_factor = 3
"""


def _write_cfg(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG + extra)
    return path


def test_simulate_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--estimator",
            "numls",
            "--init",
            "perfect",
            "--scheme",
            "coop",
            "--agents",
            "2",
            "--topologies",
            "2",
            "--noise",
            "2",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "trials.csv").exists()
    assert (out / "config.echo").exists()
    echo = (out / "config.echo").read_text()
    assert "resistance_ohm = 0.0545" in echo
    assert "seed = 3" in echo
    captured = capsys.readouterr()
    assert "mean_rmse" in captured.out


def test_simulate_deterministic_outputs(tmp_path):
    cfg = _write_cfg(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(cfg),
                    "--estimator",
                    "pairml",
                    "--scheme",
                    "noncoop",
                    "--agents",
                    "2",
                    "--topologies",
                    "2",
                    "--noise",
                    "2",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        outs.append(out)
    # config.echo differs only in the out path; the data files must be
    # byte-identical for identical config and seed
    for name in ("trials.csv", "summary.csv", "cdf_M2_noncoop_pairml.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_peb_subcommand(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "peb"
    code = main(
        [
            "peb",
            "--config",
            str(cfg),
            "--agents",
            "1..2",
            "--topologies",
            "5",
            "--seed",
            "1",
            "--scheme",
            "coop",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = (out / "peb.csv").read_text().splitlines()
    assert rows[0] == "M,scheme,mean_peb_m,topologies"
    assert len(rows) == 3


def test_gains_subcommand(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "gains"
    code = main(
        [
            "gains",
            "--config",
            str(cfg),
            "--agents",
            "3",
            "--topologies",
            "2",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "cdf_gains_agent_agent.csv").exists()
    assert (out / "cdf_gains_agent_anchor.csv").exists()
    assert (out / "gains_summary.csv").exists()


def test_topology_sample_and_check(tmp_path):
    cfg = _write_cfg(tmp_path)
    fixture = tmp_path / "topo.txt"
    assert (
        main(
            [
                "topology",
                "sample",
                str(fixture),
                "--config",
                str(cfg),
                "--agents",
                "4",
                "--seed",
                "9",
            ]
        )
        == 0
    )
    assert fixture.exists()
    assert main(["topology", "check", str(fixture), "--config", str(cfg)]) == 0
    # corrupt the fixture: move an agent outside the room
    lines = fixture.read_text().splitlines()
    for i, line in enumerate(lines):
        if " agent " in line:
            parts = line.split()
            parts[2] = "9.0"
            lines[i] = " ".join(parts)
            break
    fixture.write_text("\n".join(lines) + "\n")
    assert main(["topology", "check", str(fixture), "--config", str(cfg)]) == 3


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    missing_value = tmp_path / "bad2.cfg"
    missing_value.write_text("sigma\n")
    assert main(["peb", "--config", str(missing_value)]) == 2


def test_bad_flag_exit_code():
    assert main(["simulate", "--estimator", "bogus", "--agents", "1"]) == 2


def test_runtime_error_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, "min_dist_factor = 200\n")  # infeasible packing
    code = main(
        ["simulate", "--config", str(cfg), "--agents", "2", "--topologies", "1", "--noise", "1"]
    )
    assert code == 3


def test_peb_warns_about_singular_topologies(tmp_path, capsys, monkeypatch):
    from miloc import crlb

    original = crlb.peb
    calls = []

    def third_singular(info, agent=0):
        calls.append(agent)
        if len(calls) == 3:
            raise crlb.SingularFim("forced")
        return original(info, agent)

    monkeypatch.setattr(crlb, "peb", third_singular)
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "peb"
    argv = ["peb", "--config", str(cfg), "--agents", "1", "--topologies", "5", "--out", str(out)]
    assert main(argv) == 0
    assert (out / "peb.csv").read_text().splitlines()[1].endswith(",4")
    assert "warning: skipped 1 topologies whose information matrix is singular" in capsys.readouterr().out


def test_simulate_trial_failures_by_kind(tmp_path, capsys, monkeypatch):
    from miloc import estimators
    from miloc.channel import CoincidentNodes

    cfg = _write_cfg(tmp_path)
    argv = ["simulate", "--config", str(cfg), "--agents", "2", "--topologies", "1"]
    argv += ["--noise", "2", "--out", str(tmp_path / "run")]

    def coincident(*args, **kwargs):
        raise CoincidentNodes("forced")

    monkeypatch.setattr(estimators, "estimate", coincident)
    assert main(argv) == 0
    assert "warning: 2 trial(s) failed and were skipped" in capsys.readouterr().out

    def bug(*args, **kwargs):
        raise TypeError("forced")

    monkeypatch.setattr(estimators, "estimate", bug)
    assert main(argv) == 3
    assert "error: forced" in capsys.readouterr().err


def test_simulate_counts_agent_without_anchor_links_as_failed(tmp_path, capsys, monkeypatch):
    from miloc import harness

    original = harness.synthesize_measurements

    def silent_agent(*args, **kwargs):
        measured = original(*args, **kwargs)
        measured.h_meas[measured.links[:, 0] == 0] = 0.0
        return measured

    monkeypatch.setattr(harness, "synthesize_measurements", silent_agent)
    cfg = _write_cfg(tmp_path)
    argv = ["simulate", "--config", str(cfg), "--estimator", "multilateration"]
    argv += ["--scheme", "noncoop", "--agents", "2", "--topologies", "1", "--noise", "2"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    assert "warning: 2 trial(s) failed and were skipped" in capsys.readouterr().out
