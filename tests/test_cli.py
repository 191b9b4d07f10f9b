import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wcs.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


ALL_FAMILIES = ("phi", "penalty-phi", "tv", "budgeted", "combo", "box", "wasserstein")
SOLVABLE_FAMILIES = ("phi", "tv", "budgeted", "combo", "box", "wasserstein")
GOLDEN_SCENARIO = ["--costs", "1,5,3", "--probs", "0.2,0.3,0.5", "--alpha", "0.5"]
GOLDEN_NEWSVENDOR = ["--r", "10", "--c", "2", "--q", "0", "--s", "4", "--gen", "12,10,100,0.9,42"]
GOLDEN_ARGVS = (
    [["sensitivity", "--family", f, *GOLDEN_SCENARIO] for f in ALL_FAMILIES]
    + [["worst-case", "--family", f, "--eps", "0.3", *GOLDEN_SCENARIO] for f in SOLVABLE_FAMILIES]
    + [["worst-case", "--family", "phi", "--phi", "kl", "--eps", "0.3", *GOLDEN_SCENARIO]]
    + [
        ["solve-newsvendor", *GOLDEN_NEWSVENDOR, "--family", f, "--eps", "0.5"]
        for f in SOLVABLE_FAMILIES
    ]
    + [
        ["frontier", "--family", "budgeted", "--measure", m, "--eps-list", "0,0.5,1",
         *GOLDEN_NEWSVENDOR]
        for m in ALL_FAMILIES
    ]
    + [["verify", "--trials", "30", "--seed", "2"]]
)
# exit code, stdout and stderr of each GOLDEN_ARGVS call, keyed by the
# space-joined argv; captured before the family registry replaced the
# per-family dispatch code. Only the three smooth-phi records were
# re-captured since: the two `worst-case --family phi` calls (chi2 and KL)
# and `solve-newsvendor --family phi`, whose last digits moved when the
# smooth-phi solves went to standardised costs (same order x), and whose
# order moved again, to a lower V, when the grid scan gave way to the
# refined kink search
GOLDEN_FILE = Path(__file__).with_name("cli_golden.json")


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_cli_golden_bytes(argv):
    golden = json.loads(GOLDEN_FILE.read_text())[" ".join(argv)]
    assert list(run_cli(argv)) == golden


class TestExampleInvocations:
    def test_sensitivity_tv(self):
        code, out, err = run_cli(["sensitivity", "--family", "tv", "--costs", "1,5,3"])
        assert code == 0 and err == ""
        assert out == '{"value": 2.0, "family": "tv", "growth": "linear"}\n'

    def test_worst_case_budgeted(self):
        code, out, _ = run_cli(
            ["worst-case", "--family", "budgeted", "--eps", "0.4", "--costs", "0,10"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(7.0, abs=1e-10)
        assert payload["q"] == pytest.approx([0.3, 0.7], abs=1e-10)
        assert payload["dual"]["slope"] == pytest.approx(5.0)

    def test_domain_error_exit_code(self):
        code, out, err = run_cli(
            ["sensitivity", "--family", "tv", "--costs", "1,5", "--probs", "1,0"]
        )
        assert code == 3 and out == ""
        assert json.loads(err)["code"] == "NonPositiveProbability"

    def test_cvar_level_out_of_range(self):
        code, out, err = run_cli(
            ["sensitivity", "--family", "combo", "--alpha", "1.5", "--costs", "1,2,3"]
        )
        assert code == 3 and out == ""
        assert json.loads(err)["code"] == "InvalidCvarLevel"

    def test_byte_identical_across_runs(self):
        invocations = [
            ["sensitivity", "--family", "tv", "--costs", "1,5,3"],
            ["worst-case", "--family", "budgeted", "--eps", "0.4", "--costs", "0,10"],
            ["sensitivity", "--family", "tv", "--costs", "1,5", "--probs", "1,0"],
        ]
        for argv in invocations:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second


class TestSubcommands:
    @pytest.mark.parametrize(
        "family,expected",
        [
            ("phi", 50**0.5),
            ("penalty-phi", 25.0),
            ("budgeted", 5.0),
            ("combo", 5.0),
            ("box", 5.0),
        ],
    )
    def test_sensitivity_families(self, family, expected):
        argv = ["sensitivity", "--family", family, "--costs", "0,10", "--alpha", "0.5"]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(expected)

    def test_sensitivity_wasserstein_default_points(self):
        code, out, _ = run_cli(["sensitivity", "--family", "wasserstein", "--costs", "1,5,3"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(4.0)

    def test_worst_case_kl(self):
        code, out, _ = run_cli(
            ["worst-case", "--family", "phi", "--phi", "kl", "--eps", "0.02", "--costs", "0,10"]
        )
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(5.997, abs=1e-3)
        assert payload["dual"]["delta"] > 0

    def test_cost_file_input(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("cost,prob\n0,0.5\n10,0.5\n")
        code, out, _ = run_cli(
            ["worst-case", "--family", "tv", "--eps", "0.2", "--cost-file", str(path)]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(6.0)

    def test_bad_cost_file_header(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("value\n1\n")
        code, _, err = run_cli(
            ["worst-case", "--family", "tv", "--eps", "0.2", "--cost-file", str(path)]
        )
        assert code == 3
        assert "cost" in json.loads(err)["message"]

    def test_solve_newsvendor_saa_and_dro(self):
        base = ["solve-newsvendor", "--r", "10", "--c", "2", "--q", "0", "--s", "4"]
        code, out, _ = run_cli(base + ["--demand-file", "/dev/null"])
        assert code == 3  # bad schema
        demand = ["--gen", "2,10,100,0.9,1"]
        code, out, _ = run_cli(base + demand)
        assert code == 0
        saa = json.loads(out)
        assert saa["family"] == "saa"
        code, out, _ = run_cli(base + demand + ["--family", "budgeted", "--eps", "1.0"])
        dro_payload = json.loads(out)
        assert code == 0
        assert dro_payload["value"] >= saa["value"] - 1e-9

    def test_solve_newsvendor_two_atom_instance(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("demand\n10\n20\n")
        code, out, _ = run_cli(
            [
                "solve-newsvendor", "--r", "10", "--c", "2", "--q", "0", "--s", "4",
                "--demand-file", str(path), "--family", "budgeted", "--eps", "1",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["x"] == pytest.approx(90 / 7, abs=1e-9)
        assert payload["value"] == pytest.approx(-520 / 7, abs=1e-9)

    def test_solve_logreg(self):
        code, out, _ = run_cli(
            ["solve-logreg", "--gen-class", "30,2,0.6,5", "--eps", "0.05", "--tol", "1e-7"]
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["w"]) == 3
        assert payload["sensitivity"] > 0

    def test_frontier_json_and_csv_golden(self, tmp_path):
        base = [
            "frontier", "--family", "budgeted", "--measure", "budgeted",
            "--eps-list", "0,0.5,1", "--r", "10", "--c", "2", "--q", "0", "--s", "4",
            "--gen", "12,10,100,0.9,42",
        ]
        code, out, _ = run_cli(base)
        assert code == 0
        points = json.loads(out)["points"]
        assert [p["eps"] for p in points] == [0.0, 0.5, 1.0]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(base + ["--out", str(a)])[0] == 0
        assert run_cli(base + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "eps,decision,nominal_mean,sensitivity"

    def test_eps_geom(self):
        code, out, _ = run_cli(
            [
                "frontier", "--family", "budgeted", "--measure", "budgeted",
                "--eps-geom", "0.1:1:3", "--r", "10", "--c", "2", "--q", "0", "--s", "4",
                "--gen", "5,10,100,0.9,3",
            ]
        )
        assert code == 0
        eps = [p["eps"] for p in json.loads(out)["points"]]
        assert eps == pytest.approx([0.1, 10**-0.5, 1.0])

    def test_verify(self):
        code, out, _ = run_cli(["verify", "--trials", "30", "--seed", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sensitivity", "--family", "nope", "--costs", "1,2"])
        assert exc.value.code == 2

    def test_wcs_seed_env(self, monkeypatch):
        monkeypatch.setenv("WCS_SEED", "42")
        code, out, _ = run_cli(
            ["solve-newsvendor", "--r", "10", "--c", "2", "--q", "0", "--s", "4", "--gen", "3"]
        )
        assert code == 0
        x_env = json.loads(out)["x"]
        monkeypatch.delenv("WCS_SEED")
        code, out, _ = run_cli(
            ["solve-newsvendor", "--r", "10", "--c", "2", "--q", "0", "--s", "4",
             "--gen", "3,10,100,0.9,42"]
        )
        assert json.loads(out)["x"] == x_env


CONTRACT_CASES = {
    # id: (file content or None, argv with {file} for its path, exit code)
    "no-cost-input": (None, ["sensitivity", "--family", "tv"], 2),
    "missing-cost-file": (None, ["sensitivity", "--family", "tv", "--cost-file", "{file}"], 3),
    "blank-first-line": (
        "\ncost\n1\n", ["sensitivity", "--family", "tv", "--cost-file", "{file}"], 3
    ),
    "row-missing-prob": (
        "cost,prob\n1,0.5\n2\n",
        ["worst-case", "--family", "tv", "--eps", "0.1", "--cost-file", "{file}"],
        3,
    ),
    "short-classification-row": (
        "label,x1\n1,0.5\n-1\n",
        ["solve-logreg", "--eps", "0.1", "--data-file", "{file}"],
        3,
    ),
}


@pytest.mark.parametrize("case", list(CONTRACT_CASES))
def test_malformed_input_exits_without_traceback(case, tmp_path):
    content, argv, expected = CONTRACT_CASES[case]
    path = tmp_path / "input.csv"
    if content is not None:
        path.write_text(content)
    proc = subprocess.run(
        [sys.executable, "-m", "wcs.cli", *[a.format(file=path) for a in argv]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expected
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    if expected == 3:
        assert set(json.loads(proc.stderr)) == {"code", "message"}


REJECTED_INPUTS = {
    # id: (file content, argv with {file} for its path, error code)
    "non-finite-feature": (
        "label,x1,x2\n1,0.5,1\n-1,nan,1\n1,inf,1\n",
        ["solve-logreg", "--eps", "0.1", "--data-file", "{file}"],
        "NonFiniteCost",
    ),
    "negative-demand-saa": (
        "demand\n-5\n-10\n-3\n",
        ["solve-newsvendor", "--r", "10", "--c", "2", "--s", "4", "--demand-file", "{file}"],
        "NegativeDemand",
    ),
    "negative-demand-wasserstein": (
        "demand\n-5\n-10\n-3\n",
        ["solve-newsvendor", "--r", "10", "--c", "2", "--s", "4", "--family", "wasserstein",
         "--eps", "0.5", "--demand-file", "{file}"],
        "NegativeDemand",
    ),
    "newsvendor-cost-above-revenue": (
        "demand\n5\n10\n3\n",
        ["solve-newsvendor", "--r", "1", "--c", "2", "--demand-file", "{file}"],
        "InvalidNewsvendorParams",
    ),
    "negative-logreg-eps": (
        "label,x1,x2\n1,0.5,1\n-1,0.2,1\n",
        ["solve-logreg", "--eps", "-0.1", "--data-file", "{file}"],
        "EpsOutOfRange",
    ),
    "label-not-plus-minus-one": (
        "label,x1,x2\n1,0.5,1\n2,0.2,1\n",
        ["solve-logreg", "--eps", "0.1", "--data-file", "{file}"],
        "InvalidLabel",
    ),
    # the argvs below read no file
    "descending-eps-list": (
        "",
        ["frontier", "--family", "budgeted", "--measure", "budgeted", "--eps-list", "0.4,0.2",
         "--r", "10", "--c", "2", "--q", "0", "--s", "4", "--gen", "20,10,100,0.9,42"],
        "InvalidEpsList",
    ),
    "empty-generated-demand": (
        "",
        ["solve-newsvendor", "--r", "10", "--c", "2", "--q", "0", "--s", "4",
         "--gen", "0,10,100,0.9,42"],
        "InvalidGeneratorArgs",
    ),
    "one-row-generated-dataset": (
        "",
        ["solve-logreg", "--gen-class", "1,3,0.7,11", "--eps", "0.1"],
        "InvalidGeneratorArgs",
    ),
    "budgeted-dataset-sweep": (
        "",
        ["frontier", "--family", "budgeted", "--measure", "budgeted", "--eps-list", "0,0.1",
         "--gen-class", "40,2,1,2"],
        "UnsupportedFamily",
    ),
}


@pytest.mark.parametrize("case", list(REJECTED_INPUTS))
def test_rejected_input_exits_three_with_its_code(case, tmp_path):
    content, argv, code = REJECTED_INPUTS[case]
    path = tmp_path / "input.csv"
    path.write_text(content)
    proc = subprocess.run(
        [sys.executable, "-m", "wcs.cli", *[a.format(file=path) for a in argv]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    # one JSON line and nothing else: no traceback, no numpy warning
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["code"] == code


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wcs.cli", "sensitivity", "--family", "tv", "--costs", "1,5,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"value": 2.0, "family": "tv", "growth": "linear"}\n'


def test_probs_is_a_usage_error_next_to_a_cost_file(tmp_path, capsys):
    # the file's prob column would win and --probs would be silently ignored
    path = tmp_path / "costs.csv"
    path.write_text("cost,prob\n1,0.5\n3,0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["sensitivity", "--family", "budgeted", "--cost-file", str(path), "--probs", "0.9,0.1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--probs: not allowed with argument --cost-file" in captured.err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_needs_at_least_one_trial(trials, capsys):
    # zero trials would check nothing and still report "passed": true
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", trials, "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials: must be at least 1" in captured.err


def test_duplicate_support_points_exit_three_with_a_typed_code():
    code, out, err = run_cli(
        ["sensitivity", "--family", "wasserstein", "--costs", "1,2,3", "--points", "0,0,1"]
    )
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "code": "DuplicateSupportPoints", "message": "support points must be distinct"
    }
