import csv
import io
import json

import pytest

from wignerfluct.cli import main

GOLDEN_CUMULANT_LINES = [
    "2: b2",
    "1,1,1,1: 6*b4",
    "1,1,2: -2*b4",
    "2,2: 2*b4",
    "1,1,2,2: -4*b6",
    "2,2,2: 4*b6",
    "2,2,2,2: 8*b8 + 24*b4^2",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moments_text(capsys):
    code, out, err = run(capsys, "moments", "--orders", "2,2")
    assert code == 0 and err == ""
    assert out == "2*b4 + 2*b2^2\n"


def test_moments_odd_is_zero(capsys):
    code, out, _ = run(capsys, "moments", "--orders", "3")
    assert code == 0
    assert out == "0\n"


def test_moments_json(capsys):
    code, out, _ = run(capsys, "moments", "--orders", "2", "--format", "json")
    assert code == 0
    assert out.strip() == '{"orders":[2],"alpha":"b2"}'
    assert json.loads(out) == {"orders": [2], "alpha": "b2"}


def test_moments_csv(capsys):
    code, out, _ = run(capsys, "moments", "--orders", "2,2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["orders", "alpha"], ["2,2", "2*b4 + 2*b2^2"]]


def test_moments_rejects_bad_orders(capsys):
    code, out, err = run(capsys, "moments", "--orders", "2,x")
    assert code == 2 and out == ""
    assert err.startswith("error:")
    code, _, err = run(capsys, "moments", "--orders", "0")
    assert code == 2 and err.startswith("error:")


def test_cumulants_single(capsys):
    code, out, _ = run(capsys, "cumulants", "--orders", "2,2")
    assert code == 0
    assert out == "2*b4\n"


def test_cumulants_table(capsys):
    code, out, _ = run(capsys, "cumulants")
    assert code == 0
    assert out.splitlines() == GOLDEN_CUMULANT_LINES


def test_cumulants_table_json(capsys):
    code, out, _ = run(capsys, "cumulants", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        line.split(": ")[0]: line.split(": ")[1] for line in GOLDEN_CUMULANT_LINES
    }


def test_cumulants_capability(capsys):
    code, _, err = run(capsys, "cumulants", "--orders", "2,2,2,2,2")
    assert code == 2 and err.startswith("error:")


def test_enumerate_obstructions(capsys):
    code, out, _ = run(capsys, "enumerate", "an", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    assert set(lines[1:]) == {
        "{1,3,6,8},{2,4,5,7}",
        "{1,4,5,8},{2,3,6,7}",
        "{1,4,6,7},{2,3,5,8}",
    }


def test_enumerate_obstructions_json(capsys):
    code, out, _ = run(capsys, "enumerate", "an", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "count": 0, "elements": []}


def test_enumerate_pairings(capsys):
    code, out, _ = run(capsys, "enumerate", "nc2", "--orders", "6")
    assert code == 0
    assert out.splitlines()[0] == "5"
    code, out, _ = run(capsys, "enumerate", "nc2", "--orders", "2,2")
    assert out.splitlines() == ["2", "(1,3)(2,4)", "(1,4)(2,3)"]


def test_enumerate_annular_noncrossing(capsys):
    code, out, _ = run(capsys, "enumerate", "nc", "--orders", "4")
    assert code == 0
    assert out.splitlines()[0] == "14"


def test_enumerate_loopfree(capsys):
    code, out, _ = run(capsys, "enumerate", "psnc2lf", "--orders", "2,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    assert "({1,2,3,4}; (1,2)(3,4))" in lines[1:]


def test_enumerate_caps_and_usage(capsys):
    code, _, err = run(capsys, "enumerate", "nc", "--orders", "9")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "enumerate", "nc2", "--orders", "14")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "enumerate", "nc2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "enumerate", "an")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "enumerate", "an", "--n", "6")
    assert code == 2 and err.startswith("error:")


def test_oracle_pass(capsys):
    code, out, _ = run(capsys, "oracle", "--orders", "2,2")
    assert code == 0
    assert out.splitlines() == [
        "theorem: 2*b4 + 2*b2^2",
        "oracle:  2*b4 + 2*b2^2",
        "PASS",
    ]


def test_oracle_bound(capsys):
    code, _, err = run(capsys, "oracle", "--orders", "10")
    assert code == 2 and err.startswith("error:")
    code, out, _ = run(capsys, "oracle", "--orders", "9", "--oracle-bound", "9")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_oracle_rejects_before_closed_formula(capsys, monkeypatch):
    # Total 14 is over the oracle's default bound; the request must fail on
    # entry, without computing the closed formula first.
    def closed_formula(orders):
        pytest.fail(f"fluctuation_moment({orders}) ran for a rejected request")

    monkeypatch.setattr("wignerfluct.cli.fluctuation_moment", closed_formula)
    code, out, err = run(capsys, "oracle", "--orders", "7,7")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_mc_smoke(capsys):
    code, out, _ = run(
        capsys,
        "mc",
        "--orders", "2",
        "--dim", "4",
        "--samples", "100",
        "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "orders", "N", "samples", "estimate", "stderr", "exact", "zscore",
    }
    assert payload["N"] == 4
    assert payload["exact"] == pytest.approx(1.0)
    assert payload["zscore"] is not None


def test_mc_rejects_thin_batches(capsys):
    code, _, err = run(capsys, "mc", "--orders", "2", "--samples", "50")
    assert code == 2 and err.startswith("error:")


def test_finite_n_json(capsys):
    code, out, _ = run(
        capsys, "finite-n", "--orders", "2,2", "--dim", "10", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "orders": [2, 2],
        "N": 10,
        "alpha": "9/5*b4 + 2*b2^2",
    }


def test_finite_n_text(capsys):
    code, out, _ = run(capsys, "finite-n", "--orders", "2", "--dim", "1")
    assert code == 0
    assert out == "b2\n"


def test_finite_n_requires_dim(capsys):
    with pytest.raises(SystemExit):
        main(["finite-n", "--orders", "2"])


def test_dump_graph(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    code, _, _ = run(
        capsys, "moments", "--orders", "2", "--dump-graph", str(target)
    )
    assert code == 0
    assert target.read_text() == "digraph\n1 2 1\n2 1 2\n"
