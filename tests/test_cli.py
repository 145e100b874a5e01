import pytest

from miloc import scenario
from miloc.cli import main
from miloc.geometry import Room
from miloc.scenario import Scheme, link_set


BASE_CFG = """
room_size_m = 1.5
nu = 5
diameter_m = 0.05
resistance_ohm = 0.0545
frequency_hz = 5e5
sigma = 1e-5
min_dist_factor = 3
"""


# the default anchors, the first with a NaN Euler angle
NAN_ANGLE_ANCHORS = [
    "0 anchor 0.75 0 0.375 nan 0 0", "1 anchor 1.5 0.75 1.125 0 0 0",
    "2 anchor 0.75 1.5 0.375 0 0 0", "3 anchor 0 0.75 1.125 0 0 0",
]


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


def test_gains_with_one_agent_is_a_config_error(tmp_path, capsys):
    # one agent has no agent-agent link to draw gains from
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "gains"
    argv = ["gains", "--config", str(cfg), "--agents", "1", "--topologies", "2", "--out", str(out)]
    assert main(argv) == 2
    assert "configuration error: the gains study needs at least two agents" in capsys.readouterr().err
    assert not out.exists()


def test_gains_takes_the_largest_agent_count(tmp_path):
    # the last count of the spec has one agent, the largest three
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "gains"
    argv = ["gains", "--config", str(cfg), "--agents", "3,1", "--topologies", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    assert (out / "gains_summary.csv").exists()


def test_topology_sample_takes_the_largest_agent_count(tmp_path):
    from miloc.scenario import load_topology

    cfg = _write_cfg(tmp_path)
    fixture = tmp_path / "topo.txt"
    argv = ["topology", "sample", str(fixture), "--config", str(cfg), "--agents", "10,3"]
    assert main(argv) == 0
    assert load_topology(fixture).n_agents == 10


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


def test_topology_sample_is_topology_0_of_the_simulate_stream(tmp_path):
    import numpy as np

    from miloc import harness
    from miloc.config import ExperimentConfig
    from miloc.scenario import load_topology

    cfg = _write_cfg(tmp_path)
    fixture = tmp_path / "topo.txt"
    argv = ["--config", str(cfg), "--agents", "4", "--seed", "9"]
    assert main(["topology", "sample", str(fixture)] + argv) == 0
    drawn = next(harness.draw_topologies(ExperimentConfig.from_file(cfg).override(seed=9), 4, 1))
    # the fixture's 17 significant digits give the drawn agents back exactly
    agent_rows = [line.split() for line in fixture.read_text().splitlines() if " agent " in line]
    read = np.array([[float(v) for v in row[2:]] for row in agent_rows])
    assert np.array_equal(read, [agent.as_vector() for agent in drawn.agents])
    assert np.array_equal(load_topology(fixture).positions, drawn.positions)
    out = tmp_path / "run"
    run = ["simulate", "--topologies", "1", "--noise", "1", "--out", str(out)] + argv
    assert main(run) == 0
    rows = (out / "trials.csv").read_text().splitlines()[1:]
    written = [row.split(",")[6:12] for row in rows]
    assert written == [[f"{v:.12g}" for v in agent.as_vector()] for agent in drawn.agents]


def test_topology_check_validates_the_anchors(tmp_path, capsys):
    # an anchor out of the 1.5 m room and two anchors on one point
    cfg = _write_cfg(tmp_path)
    fixture = tmp_path / "topo.txt"
    rows = ["# room 0 0 0 1.5 1.5 1.5", "0 anchor 5 5 5 0 0 0", "1 anchor 0.75 0 0.375 0 0 0",
            "2 anchor 0.75 0 0.375 0 0 0", "3 agent 0.5 0.5 0.5 0 0 0"]
    fixture.write_text("\n".join(rows) + "\n")
    assert main(["topology", "check", str(fixture), "--config", str(cfg)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "violation: anchor 0 outside the room",
        "violation: anchors 1,2 distance 0.0000 below minimum",
    ]


def test_topology_check_rejects_a_non_finite_angle(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    fixture = tmp_path / "topo.txt"
    fixture.write_text("\n".join(["# room 0 0 0 1.5 1.5 1.5"] + NAN_ANGLE_ANCHORS) + "\n")
    assert main(["topology", "check", str(fixture), "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"error: non-finite number in node row {NAN_ANGLE_ANCHORS[0]!r}" in err


def test_topology_check_rejects_a_short_room_header(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    fixture = tmp_path / "topo.txt"
    fixture.write_text("# room 0 0 0 1.5\n0 anchor 0.1 0.2 0.3 0 0 0\n1 agent 0.5 0.5 0.5 0 0 0\n")
    assert main(["topology", "check", str(fixture), "--config", str(cfg)]) == 3
    assert "# room 0 0 0 1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, quoted",
    [
        (["# room 0 0 0 1.5 1.5 1.5", "0 anchor 0.75 0 0.375 x 0 0"],
         "non-numeric field in node row '0 anchor 0.75 0 0.375 x 0 0'"),
        (["# room 0 0 0 x 1.5 1.5", "0 anchor 0.75 0 0.375 0 0 0"],
         "non-numeric field in room header '# room 0 0 0 x 1.5 1.5'"),
    ],
    ids=["node_row", "room_header"],
)
def test_topology_check_names_a_non_numeric_field(tmp_path, capsys, rows, quoted):
    cfg = _write_cfg(tmp_path)
    fixture = tmp_path / "topo.txt"
    fixture.write_text("\n".join(rows) + "\n")
    assert main(["topology", "check", str(fixture), "--config", str(cfg)]) == 3
    assert f"error: {quoted}: could not convert string to float: 'x'" in capsys.readouterr().err


def test_topology_sample_writes_layout_anchors_as_read(tmp_path):
    import numpy as np

    from miloc import harness
    from miloc.config import ExperimentConfig
    from miloc.geometry import rotation_to_euler

    # the default anchors turned by the non-canonical alpha = 4, beta = 2
    rows = [
        f"{k} anchor " + " ".join(f"{v:.17g}" for v in a.position) + " 4 2 0"
        for k, a in enumerate(scenario.default_anchors(Room.cube(1.5)))
    ]
    layout = tmp_path / "anchors.txt"
    layout.write_text("\n".join(rows) + "\n")
    cfg = _write_cfg(tmp_path, f"anchor_layout = {layout}\n")
    fixture = tmp_path / "topo.txt"
    assert main(["topology", "sample", str(fixture), "--config", str(cfg), "--agents", "5"]) == 0
    nodes = [line for line in fixture.read_text().splitlines() if not line.startswith("#")]
    assert nodes[:4] == rows
    angles = np.array([[float(v) for v in line.split()[5:]] for line in nodes[4:]])
    drawn = next(harness.draw_topologies(ExperimentConfig.from_file(cfg), 5, 1))
    assert np.array_equal(angles, rotation_to_euler(drawn.rotations))
    assert np.all(np.abs(angles[:, [0, 2]]) <= np.pi) and np.all(np.abs(angles[:, 1]) <= np.pi / 2)


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    missing_value = tmp_path / "bad2.cfg"
    missing_value.write_text("sigma\n")
    assert main(["peb", "--config", str(missing_value)]) == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_file_exit_code(tmp_path, capsys, kind):
    # a config file that cannot be read is a configuration error, named by its path
    cfg = tmp_path / "bad.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not_utf8":
        cfg.write_bytes(b"sigma = 1e-5 \xff\xfe\n")
    assert main(["peb", "--config", str(cfg)]) == 2
    assert f"configuration error: cannot read config file {cfg}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, flags, message",
    [
        ("sigma = nan\n", [], "sigma must be positive and finite"),
        ("", ["--seed", "-1"], "seed must be non-negative"),
    ],
    ids=["nan_sigma", "negative_seed"],
)
def test_non_finite_value_and_negative_seed_exit_code(tmp_path, capsys, lines, flags, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(lines)
    out = tmp_path / "run"
    assert main(["peb", "--config", str(cfg), "--agents", "1", "--out", str(out)] + flags) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "agents, message",
    [("2,2", "agent counts repeat in '2,2'"), ("5..1", "agent range '5..1' is empty")],
)
def test_agent_spec_error_exit_code(tmp_path, capsys, agents, message):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(cfg), "--agents", agents, "--topologies", "1"]
    assert main(argv + ["--noise", "1", "--out", str(out)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_flag_exit_code():
    assert main(["simulate", "--estimator", "bogus", "--agents", "1"]) == 2


@pytest.mark.parametrize("init", ["random:1_0", "random:", "random: 3", "random:+3"])
def test_simulate_rejects_a_misspelled_restart_count(tmp_path, capsys, init):
    # random:1_0 once ran ten restarts and echoed the spelling as given
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(cfg), "--agents", "1", "--topologies", "1", "--noise", "1"]
    assert main(argv + ["--init", init, "--out", str(out)]) == 2
    assert f"configuration error: bad restart count in {init!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["turbols", "pairml", "multilateration"])
def test_simulate_rejects_an_init_its_estimator_ignores(tmp_path, capsys, estimator):
    # only numls reads --init; elsewhere a random start would never run
    cfg = _write_cfg(tmp_path)
    argv = ["simulate", "--config", str(cfg), "--estimator", estimator, "--scheme", "noncoop"]
    argv += ["--agents", "1", "--topologies", "1", "--noise", "1"]
    out = tmp_path / "random"
    assert main(argv + ["--init", "random:5", "--out", str(out)]) == 2
    assert "configuration error: init 'random:5' applies to numls only" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--init", "perfect", "--out", str(tmp_path / "perfect")]) == 0
    assert "init = perfect" in (tmp_path / "perfect" / "config.echo").read_text()


def test_anchor_layout_file_of_the_default_anchors(tmp_path):
    # fixture rows (id kind x y z alpha beta gamma) of the default anchors
    rows = [
        f"{k} anchor " + " ".join(f"{v:.17g}" for v in a.position) + " 0 0 0"
        for k, a in enumerate(scenario.default_anchors(Room.cube(1.5)))
    ]
    path = tmp_path / "anchors.txt"
    path.write_text("\n".join(rows) + "\n")
    argv = ["peb", "--agents", "1..3", "--topologies", "3", "--seed", "2"]
    written = []
    for name, extra in (("default", ""), ("file", f"anchor_layout = {path}\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(BASE_CFG + extra)
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        written.append((tmp_path / name / "peb.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "rows, message",
    [
        (None, "not found"),
        (["0 agent 0.5 0.5 0.5 0 0 0"], "contains no anchors"),
        (["0 anchor 0.75 0 0.375"], "expected 8 fields per node row, got 5"),
        (["0 anchor 0.75 0 0.375 0 0 zero"], "non-numeric field in node row "
         "'0 anchor 0.75 0 0.375 0 0 zero': could not convert string to float"),
        # the room is room_size_m's (1.5 m): the header of the file does not widen it
        (["# room -10 -10 -10 10 10 10", "0 anchor 0.75 0 0.375 0 0 0", "1 anchor 5 5 5 0 0 0"],
         "anchor 1 outside the room"),
        (["0 anchor 0.75 0 0.375 0 0 0", "1 anchor 1.5 0.75 1.125 0 0 0",
          "2 anchor 0.75 0 0.375 0 0 0"], "anchors 0,2 distance 0.0000 below minimum"),
        (NAN_ANGLE_ANCHORS, f"non-finite number in node row {NAN_ANGLE_ANCHORS[0]!r}"),
    ],
    ids=[
        "missing", "no_anchors", "short_row", "non_numeric", "outside_room", "too_close",
        "nan_angle",
    ],
)
def test_bad_anchor_layout_file_is_a_config_error(tmp_path, capsys, rows, message):
    path = tmp_path / "anchors.txt"
    if rows is not None:
        path.write_text("\n".join(rows) + "\n")
    cfg = _write_cfg(tmp_path, f"anchor_layout = {path}\n")
    out = tmp_path / "peb"
    argv = ["peb", "--config", str(cfg), "--agents", "1", "--topologies", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: anchor_layout file")
    assert message in err and str(path) in err
    assert not out.exists()


def test_runtime_error_exit_code(tmp_path, capsys, monkeypatch):
    # infeasible packing; a short attempt budget raises the same error sooner
    monkeypatch.setattr(scenario, "MAX_ATTEMPTS", 10)
    cfg = _write_cfg(tmp_path, "min_dist_factor = 200\n")
    code = main(
        ["simulate", "--config", str(cfg), "--agents", "2", "--topologies", "1", "--noise", "1"]
    )
    assert code == 3
    assert "error: no feasible placement of 2 agents in 10 attempts" in capsys.readouterr().err


def test_peb_warns_about_singular_topologies(tmp_path, capsys, singular_topology):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "peb"
    argv = ["peb", "--config", str(cfg), "--agents", "2", "--topologies", "5", "--out", str(out)]
    assert main(argv) == 0
    assert (out / "peb.csv").read_text().splitlines()[1].endswith(",4")
    assert "warning: skipped 1 topologies whose information matrix is singular" in capsys.readouterr().out


def test_simulate_warns_about_singular_topologies(tmp_path, capsys, singular_topology):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(cfg), "--estimator", "multilateration", "--scheme", "noncoop"]
    argv += ["--agents", "2", "--topologies", "4", "--noise", "1", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "warning: left 1 topologies whose information matrix is singular out of mean_peb" in printed
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "M,scheme,estimator,mean_rmse_m,mean_peb_m,outlier_frac,trials"
    assert summary[1].endswith(",4")  # the singular topology's trial still counts


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

    original = harness.add_noise
    agent0 = link_set(2, 4, Scheme.NONCOOP)[:, 0] == 0  # the default layout's four anchors

    def silent_agent(*args, **kwargs):
        measured = original(*args, **kwargs)
        measured[agent0] = 0.0
        return measured

    monkeypatch.setattr(harness, "add_noise", silent_agent)
    cfg = _write_cfg(tmp_path)
    argv = ["simulate", "--config", str(cfg), "--estimator", "multilateration"]
    argv += ["--scheme", "noncoop", "--agents", "2", "--topologies", "1", "--noise", "2"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    assert "warning: 2 trial(s) failed and were skipped" in capsys.readouterr().out


def test_simulate_prints_failure_counts_by_kind(tmp_path, capsys, monkeypatch):
    from miloc import harness
    from miloc.pairml import NoMeasurements

    original = harness.add_noise
    agent0 = link_set(2, 4, Scheme.NONCOOP)[:, 0] == 0  # the default layout's four anchors

    def silent_agent(h, sigma, rng):
        measured = original(h, sigma, rng)
        if rng.bit_generator.seed_seq.entropy[3] == 1:  # the second noise draw
            measured[agent0] = 0.0
        return measured

    monkeypatch.setattr(harness, "add_noise", silent_agent)
    cfg = _write_cfg(tmp_path)
    argv = ["simulate", "--config", str(cfg), "--estimator", "pairml", "--scheme", "noncoop"]
    argv += ["--agents", "2", "--topologies", "3", "--noise", "2", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    warning = lines.index("warning: 3 trial(s) failed and were skipped")
    assert lines[warning + 1] == f"failed trials by kind: {NoMeasurements.__name__} 3"
