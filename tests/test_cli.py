import json
from fractions import Fraction as F

from epmgames.cli import main, parse_rational, rat_str


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MATCHING = {
    "actions": ["a", "b"],
    "horizon": 2,
    "monitoring": {"kind": "blackwell"},
    "winning_set": {"kind": "matching"},
    "solver": {"epsilon": "1/4", "seed": 3},
}


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_rational_helpers():
    assert parse_rational("1/4") == F(1, 4)
    assert parse_rational(2) == 2
    assert rat_str(F(1, 2)) == "1/2"
    assert rat_str(F(3, 1)) == "3"


def test_value_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "m.json", MATCHING)
    code, out = run(["value", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["value"] == "1/2"
    assert report["results"]["oracle_agrees"] is True
    assert report["results"]["best_response_gaps"] == ["0", "0"]


def test_check_command_reports_epm_failures(tmp_path, capsys):
    cfg = write_config(tmp_path, "none.json", {
        "actions": ["a", "b"],
        "horizon": 4,
        "monitoring": {"kind": "none"},
        "winning_set": {"kind": "none"},
    })
    code, out = run(["check", "--config", cfg], capsys)
    assert code == 0  # checks report, they do not fail the run
    report = json.loads(out)
    assert report["results"]["epm"]["ok"] is False
    assert len(report["results"]["epm"]["failures"]) == 4
    assert report["results"]["perfect_recall"]["ok"] is True


def test_reduce_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "m.json", MATCHING)
    code, out = run(["reduce", "--config", cfg, "--epsilon", "1/4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["sandwich_ok"] is True
    assert report["results"]["value"] == "1/2"
    assert report["results"]["aux_value"] == "1/2"


def test_couple_command(tmp_path, capsys):
    cfg = dict(MATCHING)
    cfg["solver"] = {"seed": 5, "samples": 20000}
    path = write_config(tmp_path, "m.json", cfg)
    code, out = run(["couple", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["exact_inequality_ok"] is True
    assert report["results"]["divergence_bound_ok"] is True
    assert report["results"]["kernel_backend"] == "numpy"


def test_example_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "ex.json", {
        "scenario": "example1", "horizon": 6, "delay": 1, "leave_by": 2,
        "battery": 4, "seed": 2,
    })
    code, out = run(["example", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    payoffs = [f.get("payoff") for f in report["results"]["fixtures"][1:]]
    assert payoffs == ["0"] * 4


def test_example_command_other_scenarios(tmp_path, capsys):
    cfg = write_config(tmp_path, "e2.json", {"scenario": "example2", "horizon": 8,
                                             "leave_by": 2})
    code, out = run(["example", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    assert [f["payoff"] for f in report["results"]["fixtures"]] == ["0", "1"]
    cfg = write_config(tmp_path, "e3.json", {"scenario": "example3", "horizon": 8,
                                             "battery": 5, "seed": 1})
    code, out = run(["example", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    battery = report["results"]["fixtures"][1:-1]
    assert len(battery) == 5
    assert all(f["payoff"] == "1/2" and f["matches"] for f in battery)


def test_determinism_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "m.json", MATCHING)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["couple", "--config", cfg, "--out", out1]) == 0
    assert main(["couple", "--config", cfg, "--out", out2]) == 0
    capsys.readouterr()
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_config_error_unknown_field(tmp_path, capsys):
    cfg = dict(MATCHING)
    cfg["surprise"] = 1
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["value", "--config", path]) == 2
    capsys.readouterr()


def test_config_error_missing_file(capsys):
    assert main(["value", "--config", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


def test_config_error_bad_monitoring(tmp_path, capsys):
    cfg = dict(MATCHING)
    cfg["monitoring"] = {"kind": "telepathy"}
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["value", "--config", path]) == 2
    capsys.readouterr()


def test_unsolvable_model_exits_2_but_check_reports(tmp_path, capsys):
    cfg = {
        "actions": ["a", "b"],
        "horizon": 3,
        "monitoring": {"kind": "custom",
                       "atoms": [[[0]], [[0], [1]], [[0, 1, 2, 3]]]},
        "winning_set": {"kind": "none"},
    }
    path = write_config(tmp_path, "norecall.json", cfg)
    assert main(["value", "--config", path]) == 2
    capsys.readouterr()
    code, out = run(["check", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["perfect_recall"]["ok"] is False
    assert report["results"]["perfect_recall"]["witness"]["stage"] == 2


def test_size_cap_exit_code(tmp_path, capsys):
    cfg = {
        "actions": ["a", "b"],
        "horizon": 12,
        "monitoring": {"kind": "perfect"},
        "winning_set": {"kind": "none"},
        "solver": {"cap_matrix": 100},
    }
    path = write_config(tmp_path, "big.json", cfg)
    code = main(["check", "--config", path])
    capsys.readouterr()
    assert code == 3


def test_winning_set_kinds(tmp_path, capsys):
    base = {
        "actions": ["a", "b"],
        "horizon": 2,
        "monitoring": {"kind": "blackwell"},
    }
    hist = dict(base, winning_set={"kind": "histories", "histories": ["aa", "bb"]})
    code, out = run(["value", "--config", write_config(tmp_path, "h.json", hist)], capsys)
    assert code == 0 and json.loads(out)["results"]["value"] == "1/2"
    # bitmask 1001 over indices 0..3 = {aa, bb}
    hexm = dict(base, winning_set={"kind": "bitmask_hex", "hex": "9"})
    code, out = run(["value", "--config", write_config(tmp_path, "x.json", hexm)], capsys)
    assert code == 0 and json.loads(out)["results"]["value"] == "1/2"
    ls = {
        "actions": ["S", "L"],
        "horizon": 4,
        "monitoring": {"kind": "delayed", "d1": 1, "d2": 1},
        "winning_set": {"kind": "leave_stay", "player1_leave_by": 0},
    }
    code, out = run(["value", "--config", write_config(tmp_path, "l.json", ls)], capsys)
    assert code == 0


def test_float_mode_renders_floats(tmp_path, capsys):
    cfg = write_config(tmp_path, "m.json", MATCHING)
    code, out = run(["value", "--config", cfg, "--mode", "float"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["value"] == 0.5


def test_table_format(tmp_path, capsys):
    cfg = write_config(tmp_path, "m.json", MATCHING)
    code, out = run(["value", "--config", cfg, "--format", "table"], capsys)
    assert code == 0
    assert "elapsed_seconds" in out and "== value ==" in out
