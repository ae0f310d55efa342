import json

import pytest

from sigmabraid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_classify_klein_complement(capsys):
    doc = run_json(capsys, "classify", "--group", "P", "--surface", "K", "--n", "2",
                   "--char", '{"group":"P","surface":"K","n":2,"b":[1,-1]}')
    assert doc["membership"] == "InComplement"
    assert doc["witness"] == [1, 2]


def test_classify_empty_sphere_needs_no_char(capsys):
    doc = run_json(capsys, "classify", "--group", "B", "--surface", "S2", "--n", "3")
    assert doc["membership"] == "EmptySphere"


def test_classify_rejects_n_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "P", "--surface", "T", "--n", "0"])
    assert exc.value.code == 2


def test_classify_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "classify", "--group", "P", "--surface", "K", "--n", "3",
                         "--char", '{"group":"P","surface":"K","n":2,"b":[1,-1]}')
    assert code == 1 and "error:" in err


def test_classify_char_missing_field_names_it(capsys):
    code, out, err = run(capsys, "classify", "--group", "P", "--surface", "T", "--n", "2",
                         "--char", '{"surface":"T","n":2,"b":[0,1]}')
    assert code == 1
    assert err == "error: character JSON misses the field 'a'\n"


def test_act_malformed_tau_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["act", "--group", "P", "--surface", "T", "--n", "2", "--tau", "2 x",
              "--char", '{"group":"P","surface":"T","n":2,"a":[0,1],"b":[0,1]}'])
    assert exc.value.code == 2
    assert "--tau" in capsys.readouterr().err


def test_enumerate_counts_and_determinism(capsys):
    first = run(capsys, "enumerate", "--group", "P", "--surface", "T", "--n", "3")
    second = run(capsys, "enumerate", "--group", "P", "--surface", "T", "--n", "3")
    assert first == second  # byte-identical output
    doc = json.loads(first[1])
    assert doc["count"] == 3
    assert doc["descriptors"][0] == ["TorusCircle", 1, 2]


def test_act(capsys):
    doc = run_json(capsys, "act", "--group", "P", "--surface", "K", "--n", "3",
                   "--tau", "2 1 3",
                   "--char", '{"group":"P","surface":"K","n":3,"b":[1,-1,0]}')
    assert doc["b"] == [-1, 1, 0]


def test_gen_and_verify_certificate(capsys, tmp_path):
    doc = run_json(capsys, "gen-cert", "--case", "g3t-c", "--p", "2", "--q", "3")
    assert doc["certificate"]["t"] == "v"
    cert_path = tmp_path / "cert.json"
    chi_path = tmp_path / "chi.json"
    cert_path.write_text(json.dumps(doc["certificate"]))
    chi_path.write_text(json.dumps(doc["character"]))
    report = run_json(capsys, "verify-cert", "--cert", f"@{cert_path}",
                      "--char", f"@{chi_path}")
    assert report["passed"] is True
    assert report["endpoints_checked"] is True
    assert all(m["positive"] for m in report["margins"])



G2T_CHAR = '{"model":"G2T","coords":{"x":1}}'


@pytest.mark.parametrize("cert, message", [
    ('{"context":"G2T","t":"x"}', "certificate JSON misses the field 'entries'"),
    ('{"t":"x","entries":[]}', "certificate JSON misses the field 'context'"),
    ('{"context":"G2T","entries":[]}', "certificate JSON misses the field 't'"),
    ('{"context":"G2T","t":"x","entries":[{"word":"y"}]}',
     "certificate entry misses the field 'z'"),
    ('{"context":"G2T","t":"x","entries":[{"z":"y"}]}',
     "certificate entry misses the field 'word'"),
    ('{"context":{"group":"P","n":3},"t":"a1","entries":[]}',
     "certificate context misses the field 'surface'"),
])
def test_verify_cert_missing_field_names_it(capsys, cert, message):
    code, out, err = run(capsys, "verify-cert", "--cert", cert, "--char", G2T_CHAR)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("cert, message", [
    ('[1]', "certificate JSON must be an object, got list"),
    ('{"context":"G2T","t":"x","entries":[3]}', "certificate entry must be an object, got int"),
    ('{"context":"G2T","t":5,"entries":[]}', "certificate JSON field 't' has the wrong type int"),
    ('{"context":"G2T","t":"x","entries":{}}',
     "certificate JSON field 'entries' has the wrong type dict"),
    ('{"context":"G2T","t":"x y","entries":[]}',
     "certificate JSON field 't' must be one letter, got 'x y'"),
    ('{"context":"G9T","t":"x","entries":[]}', "certificate context 'G9T' is not a model"),
    ('{"context":{"group":"P","surface":"T","n":"two"},"t":"a1","entries":[]}',
     "certificate context field 'n' must be an integer, got 'two'"),
    ('{"context":{"group":"P","surface":"T","n":true},"t":"a1","entries":[]}',
     "certificate context field 'n' must be an integer, got True"),
])
def test_verify_cert_malformed_certificate(capsys, cert, message):
    code, out, err = run(capsys, "verify-cert", "--cert", cert, "--char", G2T_CHAR)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"

def test_ball(capsys):
    doc = run_json(capsys, "ball", "--model", "G2K",
                   "--char", '{"model":"G2K","coords":{"y":-1}}',
                   "--radius", "3", "--target", "y x y^-1", "--target", "y^-1 y^-1")
    assert doc["base"] == "y^-1"
    by_word = {t["word"]: t for t in doc["targets"]}
    assert by_word["y x y^-1"]["reachable"] is False
    assert by_word["y^-1 y^-1"]["reachable"] is True
    assert "disconnection" in doc["note"]


def test_r_infinity(capsys):
    doc = run_json(capsys, "r-infinity", "--n", "2", "--matrix", "[[1,0],[0,1]]")
    assert doc["certified"] is True and doc["index_bound"] == 2
    doc = run_json(capsys, "r-infinity", "--n", "2", "--matrix", "[[-1,0],[0,-1]]")
    assert doc["certified"] is False


def test_abelianize(capsys):
    doc = run_json(capsys, "abelianize", "--group", "B", "--surface", "K", "--n", "3",
                   "--word", "s1 s2")
    assert doc["free"] == {"b": 0} and doc["torsion"] == {"s": 0, "a": 0}


def test_verify_relations_healthy(capsys):
    doc = run_json(capsys, "verify-relations", "--max-n", "3", "--random-words", "200")
    assert doc["healthy"] is True and doc["failures"] == []


def test_table_format(capsys):
    code, out, err = run(capsys, "--format", "table", "enumerate",
                         "--group", "P", "--surface", "K", "--n", "2")
    assert code == 0
    assert "count: 2" in out
