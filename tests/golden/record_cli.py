"""
Record the golden CLI outputs replayed by ``tests/test_golden.py``.

Each case runs once through ``sigmabraid.cli.main``.  Its argv, exit code
and stderr go to ``cli_cases.json``; its stdout goes to ``cli/<name>.out``.
Re-record only when an output is meant to change, and review the diff:

    PYTHONPATH=src python3 tests/golden/record_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from sigmabraid import characters, cli, criterion

HERE = pathlib.Path(__file__).resolve().parent


def _braid_certificate() -> str:
    chi = characters.torus_character(3, [1, 2, -1], [0, 1, 1])
    cert = criterion.generate_braid_certificate(chi.spec.group, chi)
    return json.dumps(cli._certificate_to_json(cert))


def _model_certificate() -> tuple[str, str]:
    cert = criterion.generate_lemma_certificates(criterion.CertificateCase("g3t-c"), 2, 3)
    chi, _ = criterion.case_character(criterion.CertificateCase("g3t-c"), 2, 3)
    return json.dumps(cli._certificate_to_json(cert)), json.dumps(characters.character_to_json(chi))


def _cases() -> list[tuple[str, list[str]]]:
    T3 = ["--group", "P", "--surface", "T", "--n", "3"]
    K3 = ["--group", "P", "--surface", "K", "--n", "3"]
    S5 = ["--group", "P", "--surface", "S2", "--n", "5"]
    model_cert, model_char = _model_certificate()
    return [
        ("classify-T-circle", ["classify", *T3, "--char",
                               '{"surface":"T","n":3,"a":[0,2,-2],"b":[0,"1/2","-1/2"]}']),
        ("classify-T-dense", ["classify", *T3, "--char",
                              '{"surface":"T","n":3,"a":[1,2,-3],"b":[1,0,-1]}']),
        ("classify-T-off-center", ["classify", *T3, "--char",
                                   '{"surface":"T","n":3,"a":[1,0,0],"b":[0,0,0]}']),
        ("classify-K-pair", ["classify", *K3, "--char", '{"surface":"K","n":3,"b":[0,-3,3]}']),
        ("classify-K-dense", ["classify", *K3, "--char", '{"surface":"K","n":3,"b":[1,1,-2]}']),
        ("classify-K-off-center", ["classify", *K3, "--char", '{"surface":"K","n":3,"b":[1,1,1]}']),
        ("classify-T-one-strand", ["classify", "--group", "P", "--surface", "T", "--n", "1",
                                   "--char", '{"surface":"T","n":1,"a":[1],"b":[-2]}']),
        ("classify-K-one-strand", ["classify", "--group", "P", "--surface", "K", "--n", "1",
                                   "--char", '{"surface":"K","n":1,"b":[-1]}']),
        ("classify-S2-p3-circle", ["classify", *S5, "--char",
                                   '{"surface":"S2","n":5,"A":{"1,3":1,"2,3":2}}']),
        ("classify-S2-p4-circle", ["classify", *S5, "--char",
                                   '{"surface":"S2","n":5,"A":{"2,4":1,"2,5":2,"3,5":1,'
                                   '"3,4":2,"4,5":-3,"2,3":-3}}']),
        ("classify-S2-dense", ["classify", *S5, "--char",
                               '{"surface":"S2","n":5,"A":{"1,3":1,"2,4":-2,"3,5":"1/3","4,5":5}}']),
        ("classify-S2-whole", ["classify", "--group", "P", "--surface", "S2", "--n", "3",
                               "--char", '{"surface":"S2","n":3,"A":{"1,3":1}}']),
        ("classify-B-T", ["classify", "--group", "B", "--surface", "T", "--n", "4", "--char",
                          '{"group":"B","surface":"T","n":4,"a":1,"b":"1/2"}']),
        ("classify-empty-sphere", ["classify", "--group", "B", "--surface", "S2", "--n", "3"]),
        ("enumerate-T", ["enumerate", "--group", "P", "--surface", "T", "--n", "4"]),
        ("enumerate-K", ["enumerate", *K3]),
        ("enumerate-S2", ["enumerate", *S5]),
        ("act-T", ["act", *T3, "--tau", "3 1 2", "--char",
                   '{"surface":"T","n":3,"a":[1,"2/3",-1],"b":[0,4,-2]}']),
        ("act-K", ["act", *K3, "--tau", "2 3 1", "--char", '{"surface":"K","n":3,"b":[1,-1,0]}']),
        *((f"gen-cert-{case.value}", ["gen-cert", "--case", case.value, "--p", "2", "--q", "1/3"])
          for case in criterion.CertificateCase),
        ("verify-cert-model", ["verify-cert", "--cert", model_cert, "--char", model_char]),
        ("verify-cert-braid", ["verify-cert", "--cert", _braid_certificate(), "--char",
                               '{"surface":"T","n":3,"a":[1,2,-1],"b":[0,1,1]}']),
        ("ball-json", ["ball", "--model", "G2K", "--char", '{"model":"G2K","coords":{"y":-1,"b":"1/2"}}',
                       "--radius", "4", "--target", "y x y^-1", "--target", "y^-1 y^-1"]),
        # the budget cuts inside distance 4 (259 < 500 < 1,145 vertices)
        ("ball-json-budget-cut", ["ball", "--model", "G2K", "--char",
                                  '{"model":"G2K","coords":{"y":-1,"b":"1/2"}}', "--radius", "4",
                                  "--budget", "500", "--target", "y x y^-1"]),
        # a one-vertex prefix: the base vertex b lies outside it
        ("ball-json-budget-one", ["ball", "--model", "G2K", "--char",
                                  '{"model":"G2K","coords":{"y":-1,"b":"1/2"}}', "--radius", "4",
                                  "--budget", "1", "--target", "y x y^-1"]),
        ("ball-table", ["--format", "table", "ball", "--model", "G3T", "--char",
                        '{"model":"G3T","coords":{"x":1,"u":1,"y":-1}}', "--radius", "3",
                        "--target", "v"]),
        ("abelianize-P-T", ["abelianize", *T3, "--word", "a1 b2^-1 C[1,3] a3 a3"]),
        ("abelianize-P-K", ["abelianize", *K3, "--word", "a1 a2 b3 b3 a1 C[2,3]"]),
        ("abelianize-P-S2", ["abelianize", *S5, "--word", "A[1,3] A[2,4]^-1 A[4,5] A[1,3]"]),
        ("abelianize-P-RP2", ["abelianize", "--group", "P", "--surface", "RP2", "--n", "3",
                              "--word", "a1 a2 a2 a3^-1"]),
        ("abelianize-B-T", ["abelianize", "--group", "B", "--surface", "T", "--n", "3",
                            "--word", "s1 a2 b3 C[1,3]^-1 a1"]),
        ("abelianize-B-K", ["abelianize", "--group", "B", "--surface", "K", "--n", "3",
                            "--word", "s1 s2 a1 b2 C[1,2]"]),
        ("abelianize-B-D", ["abelianize", "--group", "B", "--surface", "D", "--n", "4",
                            "--word", "s1 s3^-1 D"]),
        ("abelianize-B-S2", ["abelianize", "--group", "B", "--surface", "S2", "--n", "4",
                             "--word", "s1 s2 s3^-1 s1"]),
        ("abelianize-B-RP2", ["abelianize", "--group", "B", "--surface", "RP2", "--n", "3",
                              "--word", "s1 a2 a2 a3"]),
        ("r-infinity-matrix", ["r-infinity", "--n", "3", "--matrix", "[[0,1,0],[1,0,0],[0,0,1]]"]),
        ("r-infinity-matrix-swap-23", ["r-infinity", "--n", "3", "--matrix",
                                       "[[1,0,0],[0,0,1],[0,1,0]]"]),
        ("r-infinity-matrix-negated", ["r-infinity", "--n", "3", "--matrix",
                                       "[[-1,0,0],[0,-1,0],[0,0,-1]]"]),
        ("r-infinity-matrix-refused", ["r-infinity", "--n", "2", "--matrix", "[[1,0],[0,-1]]"]),
        ("r-infinity-perm", ["r-infinity", "--n", "2", "--perm", "[[[1,2],[1,2]],[[2,1],[2,1]]]"]),
        ("verify-relations", ["verify-relations", "--max-n", "6"]),
        ("usage-error", ["classify", "--group", "P", "--surface", "T", "--n", "0"]),
        ("domain-error", ["classify", *K3, "--char", '{"surface":"K","n":2,"b":[1,-1]}']),
    ]


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    (HERE / "cli").mkdir(exist_ok=True)
    manifest = []
    for name, argv in _cases():
        code, out, err = run_case(argv)
        (HERE / "cli" / f"{name}.out").write_text(out)
        manifest.append({"name": name, "argv": argv, "exit": code, "stderr": err})
    (HERE / "cli_cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
