import json
import sys

import pytest
from hypothesis import given, strategies as st

from sigmabraid import cli
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


def test_main_reuses_parser_across_calls(capsys, monkeypatch):
    from sigmabraid import cli

    classify = ["classify", "--group", "P", "--surface", "K", "--n", "2",
                "--char", '{"group":"P","surface":"K","n":2,"b":[1,-1]}']
    usage_error = ["classify", "--group", "P", "--surface", "T", "--n", "0"]
    ball = ["ball", "--model", "G2K", "--char", '{"model":"G2K","coords":{"y":-1}}',
            "--radius", "3", "--target", "y x y^-1"]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def first_call(argv):
        cli._parser.cache_clear()
        return call(argv)

    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    fresh = {name: first_call(argv) for name, argv in
             (("classify", classify), ("usage", usage_error), ("ball", ball))}
    assert fresh["classify"][0] == fresh["ball"][0] == 0
    assert fresh["usage"][0] == 2 and fresh["usage"][1] == ""
    cli._parser.cache_clear()
    builds.clear()
    runs = [call(classify), call(usage_error), call(ball), call(classify)]
    assert len(builds) == 1
    assert runs[0] == runs[3] == fresh["classify"]
    assert runs[1] == fresh["usage"]
    assert runs[2] == fresh["ball"]


def test_main_runs_the_handler_bound_at_call_time(capsys, monkeypatch):
    from sigmabraid import cli

    argv = ["classify", "--group", "B", "--surface", "S2", "--n", "3"]
    expected = run(capsys, *argv)
    seen = []
    handler = cli._cmd_classify
    monkeypatch.setattr(cli, "_cmd_classify", lambda *a: seen.append(1) or handler(*a))
    assert run(capsys, *argv) == expected
    assert seen == [1]


def test_classify_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "classify", "--group", "P", "--surface", "K", "--n", "3",
                         "--char", '{"group":"P","surface":"K","n":2,"b":[1,-1]}')
    assert code == 1 and "error:" in err


def test_classify_char_missing_field_names_it(capsys):
    code, out, err = run(capsys, "classify", "--group", "P", "--surface", "T", "--n", "2",
                         "--char", '{"surface":"T","n":2,"b":[0,1]}')
    assert code == 1
    assert err == "error: character JSON misses the field 'a'\n"


def test_classify_char_with_an_unread_field_exits_1(capsys):
    code, out, err = run(capsys, "classify", "--group", "B", "--surface", "K", "--n", "3",
                         "--char", '{"group":"B","surface":"K","n":3,"B":2}')
    assert code == 1 and out == ""
    assert err == "error: unknown character JSON fields: ['B']\n"


def test_act_malformed_tau_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["act", "--group", "P", "--surface", "T", "--n", "2", "--tau", "2 x",
              "--char", '{"group":"P","surface":"T","n":2,"a":[0,1],"b":[0,1]}'])
    assert exc.value.code == 2
    assert "--tau" in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["\u0662 \u0661", "+2 1", "2 1_0", "2 x"])
def test_act_tau_reads_ascii_integers(capsys, tau):
    # int() reads the first three; '\u0662 \u0661' was taken as the swap
    with pytest.raises(SystemExit) as exc:
        main(["act", "--group", "P", "--surface", "T", "--n", "2", "--tau", tau,
              "--char", '{"group":"P","surface":"T","n":2,"a":[0,1],"b":[0,1]}'])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: --tau must list integers, got {tau!r}\n")


def test_classify_refuses_a_sphere_key_not_in_ascii(capsys):
    code, out, err = run(capsys, "classify", "--group", "P", "--surface", "S2", "--n", "4",
                         "--char", '{"surface":"S2","n":4,"A":{"\u0661,\u0663":1}}')
    assert code == 1 and out == ""
    assert err == "error: keys of 'A' must read 'i,j', got '\u0661,\u0663'\n"


def test_classify_refuses_a_sphere_pair_named_twice(capsys):
    # with the last value for A[1,3] taken, this point is a P3 circle
    code, out, err = run(capsys, "classify", "--group", "P", "--surface", "S2", "--n", "5",
                         "--char", '{"surface":"S2","n":5,"A":{"1,3":1,"01,3":-1,"2,3":1}}')
    assert code == 1 and out == ""
    assert err == "error: key '01,3' of 'A' names the pair 1,3 again\n"


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
    assert report["context"] == doc["certificate"]["context"] == "G3T"



P3T_CHAR = '{"group":"P","surface":"T","n":3,"a":[0,0,0],"b":[-1,-1,2]}'


def _p3t_certificate(context) -> str:
    from sigmabraid import cli, criterion
    from sigmabraid.characters import character_from_json
    from sigmabraid.words import GroupContext

    chi = character_from_json(json.loads(P3T_CHAR))
    cert = criterion.generate_braid_certificate(GroupContext("P", "T", 3), chi)
    doc = cli._certificate_to_json(cert)
    doc["context"] = context
    return json.dumps(doc)


@pytest.mark.parametrize("context, char, message", [
    ({"group": "B", "surface": "T", "n": 3}, P3T_CHAR,
     "B_3(T): certificates cover the models, P_n(T) and P_n(K)"),
    ({"group": "P", "surface": "T", "n": 3},
     '{"group":"P","surface":"T","n":4,"a":[0,0,0,0],"b":[-1,-1,0,2]}',
     "character lives on P_4(T), not P_3(T)"),
], ids=["full-braid-context", "character-on-P4"])
def test_verify_cert_rejects_a_foreign_context_or_character(capsys, context, char, message):
    valid = _p3t_certificate({"group": "P", "surface": "T", "n": 3})
    assert run_json(capsys, "verify-cert", "--cert", valid, "--char", P3T_CHAR)["passed"]
    cert = _p3t_certificate(context)
    code, out, err = run(capsys, "verify-cert", "--cert", cert, "--char", char)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


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
    ('{"context":"G2T","t":"x","entries":[{"z":"y","word":"x","cite":5}]}',
     "certificate entry field 'cite' has the wrong type int"),
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

@pytest.mark.parametrize("argv, message", [
    (["classify", "--group", "P", "--surface", "T", "--n", "2",
      "--char", '{"surface":"T","n":2,"a":[1,0],"b":5}'],
     "character JSON field 'b' has the wrong type int"),
    (["classify", "--group", "P", "--surface", "S2", "--n", "4",
      "--char", '{"surface":"S2","n":4,"A":[1]}'],
     "character JSON field 'A' has the wrong type list"),
    (["classify", "--group", "P", "--surface", "T", "--n", "2",
      "--char", '{"surface":"T","n":true,"a":[1,0],"b":[0,1]}'],
     "character JSON field 'n' must be an integer, got True"),
    (["ball", "--model", "G2T", "--char", '{"model":"G2T","coords":[1]}'],
     "character JSON field 'coords' has the wrong type list"),
    (["ball", "--model", "G2T", "--char", '{"model":"G2K","coords":{"y":1}}'],
     "character lives on G2K, not G2T"),
    (["r-infinity", "--n", "3", "--perm", "[[1,2]]"],
     "--perm pair field 0 has the wrong type int"),
    (["r-infinity", "--n", "3", "--perm", '{"1,2":[1,2]}'],
     "--perm must be an array, got dict"),
    (["r-infinity", "--n", "3", "--perm", "[[[1,2]]]"],
     "--perm pair misses the field 1"),
    (["r-infinity", "--n", "3", "--perm", "[[[1,2],[1,2,3]]]"],
     "--perm point must read [i, j], got [1, 2, 3]"),
    (["r-infinity", "--n", "3", "--perm", '[[[1,2],[1,"x"]]]'],
     "--perm point field 1 must be an integer, got 'x'"),
    (["r-infinity", "--n", "2", "--matrix", "[[1,0],[0,1.5]]"],
     "matrix entry [1][1] must be an integer, got 1.5"),
    (["r-infinity", "--n", "2", "--matrix", "[[true,0],[0,1]]"],
     "matrix entry [0][0] must be an integer, got True"),
    (["r-infinity", "--n", "2", "--matrix", '[["1","0"],["0","1"]]'],
     "matrix entry [0][0] must be an integer, got '1'"),
    (["r-infinity", "--n", "2", "--matrix", "5"],
     "matrix must be a list of rows, got 5"),
    (["r-infinity", "--n", "2", "--matrix", "[5,6]"],
     "matrix row 0 must be a list, got 5"),
    # a group with an empty character sphere has no point for any --char
    *[(["classify", "--group", g, "--surface", s, "--n", n,
        "--char", f'{{"group":"{g}","surface":"{s}","n":{n}}}'],
       f"{g}_{n}({s}) has an empty character sphere; no points exist")
      for g, s, n in (("P", "RP2", "2"), ("B", "RP2", "3"), ("B", "S2", "3"), ("B", "D", "1"))],
    (["classify", "--group", "P", "--surface", "T", "--n", "2",
      "--char", '{"group":"P","surface":"T","n":2,"a":[0,0],"b":[0,0]}'],
     "the zero character has no sphere point"),
    # an integer field reads ASCII digits only
    *[(["classify", "--group", "P", "--surface", "T", "--n", "2",
        "--char", f'{{"surface":"T","n":{json.dumps(n)},"a":[1,0],"b":[0,1]}}'],
       f"character JSON field 'n' must be an integer, got {n!r}") for n in ("+2", " 2", "2_0", "\u0662")],
    # the model field is a string naming a model
    (["classify", "--group", "P", "--surface", "T", "--n", "2", "--char", '{"model": 7}'],
     "character JSON field 'model' has the wrong type int"),
    (["classify", "--group", "P", "--surface", "T", "--n", "2", "--char", '{"model": "G9T"}'],
     "character JSON model 'G9T' is not a model"),
])
def test_malformed_json_input_names_the_field(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, value", [
    (["classify", "--group", "P", "--surface", "K", "--n", "2",
      "--char", '{"surface":"K","n":2,"b":["1/0",1]}'], "'1/0'"),
    (["classify", "--group", "P", "--surface", "K", "--n", "2",
      "--char", '{"surface":"K","n":2,"b":[true,-1]}'], "True"),
    (["classify", "--group", "P", "--surface", "K", "--n", "2",
      "--char", '{"surface":"K","n":2,"b":["1/x",-1]}'], "'1/x'"),
    (["gen-cert", "--case", "g3t-a", "--p", "1/0", "--q", "1"], "'1/0'"),
    (["gen-cert", "--case", "g3t-a", "--p", "1", "--q", "one"], "'one'"),
    # Fraction reads these, but the grammar is -?[0-9]+(/[0-9]+)?; the
    # exponent once printed a million digits
    *[(["gen-cert", "--case", "g3t-a", "--p", p, "--q", "1"], repr(p))
      for p in ("1e1000000", "1.5", "1_000", " 7", "\u0663")],
    (["classify", "--group", "P", "--surface", "K", "--n", "2",
      "--char", '{"surface":"K","n":2,"b":["1e3",-1]}'], "'1e3'"),
])
def test_rational_json_faults_name_the_value(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: numbers must be integers or exact 'p/q' strings, got {value}\n"


def test_ball(capsys):
    doc = run_json(capsys, "ball", "--model", "G2K",
                   "--char", '{"model":"G2K","coords":{"y":-1}}',
                   "--radius", "3", "--target", "y x y^-1", "--target", "y^-1 y^-1")
    assert doc["base"] == "y^-1"
    by_word = {t["word"]: t for t in doc["targets"]}
    assert by_word["y x y^-1"]["reachable"] is False
    assert by_word["y^-1 y^-1"]["reachable"] is True
    assert "disconnection" in doc["note"]


_BALL = ("ball", "--model", "G2T", "--char", '{"model":"G2T","coords":{"x":1}}', "--radius", "2")


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_ball_rejects_a_budget_below_one(capsys, budget):
    code, out, err = run(capsys, *_BALL, "--budget", budget)
    assert code == 1 and out == ""
    assert err == f"error: budget must be >= 1, got {budget}\n"


def test_ball_target_past_the_fiber_budget_exits_1(capsys, monkeypatch):
    from sigmabraid import models

    # a 16-letter G4T word whose fibers reach 42 letters
    target = "x^-1 a^-1 v ub^-1 w2 vb^-1 w2^-1 w2^-1 w x y^-1 a w2^-1 w x a"
    argv = ["ball", "--model", "G4T", "--radius", "1", "--target", target,
            "--char", '{"model":"G4T","coords":{"ub":1}}']
    assert run_json(capsys, *argv)["targets"]
    monkeypatch.setattr(models, "FIBER_BUDGET", 40)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: a fiber word of 42 letters passes the budget of 40 letters\n"


def test_r_infinity(capsys):
    doc = run_json(capsys, "r-infinity", "--n", "2", "--matrix", "[[1,0],[0,1]]")
    assert doc["certified"] is True and doc["index_bound"] == 2
    doc = run_json(capsys, "r-infinity", "--n", "2", "--matrix", "[[-1,0],[0,-1]]")
    assert doc["certified"] is False
    doc = run_json(capsys, "r-infinity", "--n", "2", "--perm", "[[[1,2],[2,1]],[[2,1],[1,2]]]")
    assert doc["certified"] is False and doc["moved_points"] == [[[1, 2], [2, 1]], [[2, 1], [1, 2]]]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_r_infinity_prints_a_bound_past_the_digit_limit(capsys, fmt):
    # (2 C(40,2))! = 1560! has 4,306 digits, past CPython's default int -> str
    # limit of 4,300 (Decimal spells it without that limit); main prints it
    # exactly and leaves the limit as it found it
    import decimal
    import math
    import sys

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    identity = json.dumps([[int(i == j) for j in range(40)] for i in range(40)])
    code, out, err = run(capsys, "--format", fmt, "r-infinity", "--n", "40", "--matrix", identity)
    assert code == 0 and err == ""
    bound = str(decimal.Decimal(math.factorial(1560)))
    assert len(bound) == 4306
    line = f'  "index_bound": {bound},' if fmt == "json" else f"index_bound: {bound}"
    assert line in out.splitlines()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_abelianize(capsys):
    doc = run_json(capsys, "abelianize", "--group", "B", "--surface", "K", "--n", "3",
                   "--word", "s1 s2")
    assert doc["free"] == {"b": 0} and doc["torsion"] == {"s": 0, "a": 0}


def test_verify_relations_healthy(capsys):
    doc = run_json(capsys, "verify-relations", "--max-n", "3", "--random-words", "200")
    assert doc["healthy"] is True and doc["failures"] == []


@pytest.mark.parametrize("argv, message", [
    (["--random-words", "-5"], "--random-words must be >= 0"),
    (["--max-n", "0"], "--max-n must be >= 1"),
    (["--max-n", "-3"], "--max-n must be >= 1"),
])
def test_verify_relations_rejects_negative_counts(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify-relations", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_verify_relations_failures_are_objects(capsys, monkeypatch):
    from sigmabraid import checks
    from sigmabraid.checks import RelationCheck, relation_checks

    def with_failures(max_n, random_words):
        return [*relation_checks(max_n, random_words),
                RelationCheck("abelianization", "P_2(T)", "S1:1,2", False, "S1"),
                RelationCheck("oracle", "P_2(T)", "1:a1-a2", False)]

    monkeypatch.setattr(checks, "relation_checks", with_failures)
    code, out, err = run(capsys, "verify-relations", "--max-n", "2", "--random-words", "10")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["healthy"] is False
    assert doc["failures"] == [
        {"check": "abelianization", "group": "P_2(T)", "family": "S1", "relation": "S1:1,2"},
        {"check": "oracle", "group": "P_2(T)", "family": None, "relation": "1:a1-a2"},
    ]


def test_table_format(capsys):
    code, out, err = run(capsys, "--format", "table", "enumerate",
                         "--group", "P", "--surface", "K", "--n", "2")
    assert code == 0
    assert "count: 2" in out


_CHAR_T3 = '{"group":"P","surface":"T","n":3,"a":[0,0,0],"b":[0,-1,2]}'
_INTEGER_OPTIONS = {
    "classify --n": ["classify", "--group", "P", "--surface", "T", "--n", "{}", "--char", _CHAR_T3],
    "enumerate --n": ["enumerate", "--group", "P", "--surface", "K", "--n", "{}"],
    "act --n": ["act", "--group", "P", "--surface", "T", "--n", "{}", "--tau", "2 1 3",
                "--char", _CHAR_T3],
    "abelianize --n": ["abelianize", "--group", "P", "--surface", "T", "--n", "{}", "--word", "a1 b3"],
    "r-infinity --n": ["r-infinity", "--n", "{}", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]"],
    "--max-n": ["verify-relations", "--max-n", "{}", "--random-words", "0"],
    "--random-words": ["verify-relations", "--max-n", "1", "--random-words", "{}"],
    "--radius": ["ball", "--model", "G2T", "--char", '{"model":"G2T","coords":{"x":1}}',
                 "--radius", "{}"],
    "--budget": [*_BALL, "--budget", "{}"],
}


@pytest.mark.parametrize("value", ["٣", "1_0", " 3", "+3"])
@pytest.mark.parametrize("option", sorted(_INTEGER_OPTIONS))
def test_integer_options_are_read_as_written(capsys, option, value):
    # int() reads each of these values, so argparse's type=int took '٣'
    # as 3 and '1_0' as 10
    argv = [value if arg == "{}" else arg for arg in _INTEGER_OPTIONS[option]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f": must be an integer in ASCII digits, got {value!r}\n")


@pytest.mark.parametrize("option", sorted(_INTEGER_OPTIONS))
def test_integer_options_accept_ascii_digits(capsys, option):
    argv = ["3" if arg == "{}" else arg for arg in _INTEGER_OPTIONS[option]]
    run_json(capsys, *argv)


# --- JSON arguments nested past the recursion limit --------------------------

_DEEP = "[" * 100000
_DEEP_ARGS = {
    "--char": ["classify", "--group", "P", "--surface", "T", "--n", "2", "--char", "{}"],
    "--cert": ["verify-cert", "--cert", "{}", "--char", G2T_CHAR],
    "--matrix": ["r-infinity", "--n", "3", "--matrix", "{}"],
    "--perm": ["r-infinity", "--n", "3", "--perm", "{}"],
}


@pytest.mark.parametrize("from_file", [False, True], ids=["inline", "file"])
@pytest.mark.parametrize("option", sorted(_DEEP_ARGS))
def test_deeply_nested_json_argument_is_a_domain_error(capsys, tmp_path, option, from_file):
    # json.loads raises RecursionError here, which printed a traceback
    value = _DEEP
    if from_file:
        path = tmp_path / "deep.json"
        path.write_text(_DEEP)
        value = f"@{path}"
    argv = [value if arg == "{}" else arg for arg in _DEEP_ARGS[option]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {option}: JSON nested too deeply to read\n"


# --- the JSON writer against json.dumps(indent=2) ----------------------------

_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),  # lone surrogates too
                          st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t \xe9')))
_LONG_INT = st.builds(lambda digits, sign, low: sign * (10 ** digits + low),
                      st.integers(4999, 5100), st.sampled_from((1, -1)), st.integers(0, 10 ** 9))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), _LONG_INT, _TEXT,
                    st.floats(allow_nan=True, allow_infinity=True))
_DOCUMENT = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none(), _TEXT), inner,
                        max_size=3)),
    max_leaves=25)


@given(_DOCUMENT)
def test_json_writer_matches_json_dumps_indent_2(doc):
    # with the int -> str digit limit lifted, as cli.main lifts it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        assert cli._json_text(doc) == json.dumps(doc, indent=2)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("doc", [{}, [], {"a": {}, "b": [], "c": [[], {}]}, [[[]]], "", 0,
                                 {"x": [1, "two", None, True, False, -3]}, ("t", ("u",))])
def test_json_writer_on_empty_and_nested_containers(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


# --- malformed certificate entries after well-formed ones --------------------

def _long_p2t_certificate() -> tuple[dict, str]:
    """A P_2(T) certificate with its 10 entries repeated to 60, and its
    character: entries 1..60 read as well formed up to a malformed one."""
    from sigmabraid.characters import character_to_json, torus_character
    from sigmabraid.criterion import generate_braid_certificate
    from sigmabraid.words import GroupContext

    chi = torus_character(2, [1, -1], [1, 3])
    doc = cli._certificate_to_json(generate_braid_certificate(GroupContext("P", "T", 2), chi))
    doc["entries"] = doc["entries"] * 6
    return doc, json.dumps(character_to_json(chi))


_MALFORMED = {
    "missing-z": (lambda e: {"word": e["word"], "cite": e["cite"]},
                  lambda e: "certificate entry misses the field 'z'"),
    "int-word": (lambda e: {"z": e["z"], "word": 5},
                 lambda e: "certificate entry field 'word' has the wrong type int"),
    "foreign-a3": (lambda e: {"z": e["z"], "word": e["word"] + " a3"},
                   lambda e: "a3: index out of range for P_2(T) (need 1..2)"),
    "bad-token": (lambda e: {"z": e["z"], "word": e["word"] + " $$"},
                  lambda e: f"token {len(e['word'].split())}: cannot parse '$$'"),
}


@pytest.mark.parametrize("index", [0, 39, 59], ids=["first", "40th", "last"])
@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_malformed_entry_after_well_formed_ones(capsys, kind, index):
    doc, char = _long_p2t_certificate()
    assert run_json(capsys, "verify-cert", "--cert", json.dumps(doc), "--char", char)["passed"]
    entry = doc["entries"][index]
    corrupt, message = _MALFORMED[kind]
    doc["entries"][index] = corrupt(entry)
    code, out, err = run(capsys, "verify-cert", "--cert", json.dumps(doc), "--char", char)
    assert (code, out) == (1, "")
    assert err == f"error: {message(entry)}\n"


def test_refused_letter_is_refused_again_in_one_process(capsys):
    doc, char = _long_p2t_certificate()
    doc["entries"][39] = {"z": "a3", "word": "a3"}
    results = [run(capsys, "verify-cert", "--cert", json.dumps(doc), "--char", char)
               for _ in range(2)]
    assert results == [(1, "", "error: a3: index out of range for P_2(T) (need 1..2)\n")] * 2
