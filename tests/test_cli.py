import hashlib
import json
import random

import pytest

from gquadforms.cli import main
from gquadforms.jsonio import dump_json
from gquadforms.linalg import Mat


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_symbol_command(capsys):
    code, out, _ = run(capsys, "symbol", "-1", "t")
    assert code == 0
    data = json.loads(out)
    assert data["product"] == 1
    assert ["t", -1] in data["symbols"]
    assert ["inf", -1] in data["symbols"]


def test_symbol_rejects_zero(capsys):
    code, _, err = run(capsys, "symbol", "0", "t")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("arg", ["t^-1", "t^"])
def test_symbol_rejects_malformed_exponent(capsys, arg):
    code, _, err = run(capsys, "symbol", arg, "t")
    assert code == 2
    assert "malformed exponent" in err


def test_ram_command(capsys):
    code, out, _ = run(capsys, "ram", "-1", "t^2+2")
    assert code == 0
    data = json.loads(out)
    assert data["ramification"] == ["t+1", "t+2"]


def test_qf_equiv_exit_codes(tmp_path, capsys):
    f1 = tmp_path / "q1.json"
    f2 = tmp_path / "q2.json"
    f3 = tmp_path / "q3.json"
    f1.write_text(json.dumps({"p": 3, "gram": [["1", "0"], ["0", "2"]]}))
    f2.write_text(json.dumps({"p": 3, "gram": [["0", "1"], ["1", "0"]]}))
    f3.write_text(json.dumps({"p": 3, "gram": [["1", "0"], ["0", "1"]]}))
    code, out, _ = run(capsys, "qf-equiv", str(f1), str(f2))
    assert code == 0  # <1,-1> is the hyperbolic plane in both presentations
    assert json.loads(out)["equivalent"] is True
    code, out, _ = run(capsys, "qf-equiv", str(f1), str(f3))
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_qf_equiv_bad_input(tmp_path, capsys):
    f1 = tmp_path / "bad.json"
    f1.write_text("{not json")
    code, _, err = run(capsys, "qf-equiv", str(f1), str(f1))
    assert code == 2
    assert "invalid JSON" in err


def test_qf_equiv_degenerate_rejected(tmp_path, capsys):
    f1 = tmp_path / "deg.json"
    f1.write_text(json.dumps({"p": 3, "gram": [["1", "1"], ["1", "1"]]}))
    code, _, err = run(capsys, "qf-equiv", str(f1), str(f1))
    assert code == 2


def test_hp_check_trivial_module(tmp_path, capsys):
    mod = {
        "p": 3,
        "generators": ["g1", "g2", "g3"],
        "dim": 1,
        "action": {g: [["1"]] for g in ("g1", "g2", "g3")},
    }
    form = {"p": 3, "gram": [["1"]]}
    mf = tmp_path / "mod.json"
    ff = tmp_path / "form.json"
    mf.write_text(json.dumps(mod))
    ff.write_text(json.dumps(form))
    code, out, _ = run(capsys, "hp-check", str(mf), str(ff))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "guaranteed"
    comps = data["evidence"]["components"]
    assert comps[0]["kind"] == "orthogonal" and comps[0]["splitness"] == "split"


def test_hp_check_invalid_module(tmp_path, capsys):
    mod = {
        "p": 3,
        "generators": ["g"],
        "dim": 2,
        "action": {"g": [["0", "1"], ["1", "0"]]},  # order 2, not 3
    }
    mf = tmp_path / "mod.json"
    mf.write_text(json.dumps(mod))
    code, _, err = run(capsys, "hp-check", str(mf))
    assert code == 2


def test_output_file_and_pretty(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "symbol", "-1", "t", "-o", str(out_path))
    assert code == 0 and out == ""
    data = json.loads(out_path.read_text())
    assert data["product"] == 1
    code, out, _ = run(capsys, "ram", "-1", "t", "--pretty")
    assert code == 0
    assert "ramification" in out and "{" not in out


def test_even_p_rejected(capsys):
    code, _, err = run(capsys, "symbol", "1", "t", "--p", "4")
    assert code == 2


def test_other_prime(capsys):
    code, out, _ = run(capsys, "symbol", "-1", "t", "--p", "5")
    assert code == 0
    data = json.loads(out)
    # -1 = 4 is a square mod 5, so (-1, t) splits everywhere
    assert data["product"] == 1
    assert all(s == 1 for _, s in data["symbols"])


@pytest.mark.parametrize("argv", [("symbol", "-1", "t"), ("ram", "-1", "t")])
@pytest.mark.parametrize("p", ["9", "15"])
def test_composite_p_rejected(capsys, argv, p):
    code, out, err = run(capsys, *argv, "--p", p)
    assert code == 2 and out == ""
    assert "odd prime" in err


def test_json_composite_p_rejected(tmp_path, capsys):
    form = tmp_path / "q.json"
    form.write_text(json.dumps({"p": 9, "gram": [["1", "0"], ["0", "2"]]}))
    code, _, err = run(capsys, "qf-equiv", str(form), str(form))
    assert code == 2
    assert "odd prime" in err
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"p": 9, "generators": ["g"], "dim": 1, "action": {"g": [["1"]]}}))
    code, _, err = run(capsys, "hp-check", str(mod))
    assert code == 2
    assert "odd prime" in err


def test_verify_paper_output(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.count("PASS ") == 29 and "FAIL" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5e5dcb00138f130988cab356d434b32c7abfe2dce55d78ba3635844eb528d370"
    )


def test_verify_paper_at_p_1_mod_4(capsys):
    # -1 is a square mod 5, so the defaults must use a nonsquare unit
    code, out, _ = run(capsys, "verify-paper", "--p", "5")
    assert code == 0
    assert out.count("PASS ") == 29 and "FAIL" not in out


_MODULE = {"p": 3, "generators": ["g"], "dim": 1, "action": {"g": [["1"]]}}


@pytest.mark.parametrize(
    "kind, data",
    [
        ("hp-check", {**_MODULE, "action": {"g": [[1]]}}),
        ("hp-check", {**_MODULE, "dim": [1]}),
        ("hp-check", {**_MODULE, "action": {"g": ["1"]}}),
        ("hp-check", {**_MODULE, "generators": "g", "action": {"g": [["1"]]}}),
        ("hp-check", {**_MODULE, "action": "g"}),
        ("hp-check", ["p", "generators", "dim", "action"]),
        ("qf-equiv", {"p": 3, "gram": [[1]]}),
        ("qf-equiv", {"p": 3, "gram": [["1/0"]]}),
        ("qf-equiv", {"p": 3.9, "gram": [["1"]]}),
        ("qf-equiv", {"p": 3, "gram": ["1"]}),
        ("qf-equiv", {"p": 3, "gram": [["1", "0"], ["0"]]}),
    ],
)
def test_malformed_json_exits_2(tmp_path, capsys, kind, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, kind, str(path), *([str(path)] if kind == "qf-equiv" else []))
    assert code == 2 and out == ""
    assert err.startswith("input error:")


def test_hp_check_at_prime_beyond_int64(tmp_path, capsys):
    # g = S^-1 (I + E_12) S over F_p, p = 2^61 - 1: (p-1)^2 overflows int64
    p = 2**61 - 1
    rng = random.Random(5)
    while True:
        S = Mat.from_int_rows(p, [[rng.randrange(p) for _ in range(3)] for _ in range(3)])
        if not S.det().is_zero():
            break
    g = S.inverse() * Mat.from_int_rows(p, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]) * S
    mod = tmp_path / "mod.json"
    action = [[str(e) for e in row] for row in g.rows]
    mod.write_text(json.dumps({"p": p, "generators": ["g"], "dim": 3, "action": {"g": action}}))
    code, out, _ = run(capsys, "hp-check", str(mod))
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "guaranteed"
    assert (data["evidence"]["dim_end"], data["evidence"]["dim_radical"]) == (5, 3)
