import hashlib
import json
from fractions import Fraction

import pytest

from cutproject import scalars
from cutproject.cli import main
from cutproject.fibonacci import fibonacci_scheme, fibonacci_substitution, fibonacci_window
from cutproject.hull import AlmostModelSetWitness, GammaRule
from cutproject.scalars import GOLDEN
from cutproject.scheme import Box, CutProjectScheme
from cutproject.substitution import fixed_point_patch
from cutproject.windows import UnionWindow, interval_window


def run(argv):
    return main(argv)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_generate_matches_oracle(tmp_path):
    out = tmp_path / "patch.csv"
    code = run(
        [
            "generate",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--box", "0:20",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = read(out).strip().split("\n")
    oracle = fixed_point_patch(fibonacci_substitution(), 5, Box.interval(0, 20))
    assert len(lines) == len(oracle) + 1
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == [pytest.approx(float(p[0])) for p in oracle.points]


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "generate",
        "--scheme", "builtin:fibonacci",
        "--window", "interval:-1:golden-1:oc",
        "--box=-10:10",
    ]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_generate_empty_window(tmp_path):
    out = tmp_path / "empty.csv"
    code = run(
        [
            "generate",
            "--scheme", "builtin:fibonacci",
            "--window", "interval:0:0:co",
            "--box", "0:10",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert read(out).strip() == "x1"


def test_generate_bad_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["generate", "--scheme", str(bad), "--window", "builtin:fibonacci", "--box", "0:1"]) == 2
    assert run(["generate", "--scheme", "builtin:fibonacci", "--window", "interval:5:1", "--box", "0:1"]) == 2
    assert run(["generate", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci", "--box", "oops"]) == 2


def test_generate_overflow(tmp_path):
    code = run(
        [
            "generate",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--box=-100000:100000",
            "--max-candidates", "50",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 3


def test_transform_translate_and_theorem_suite(tmp_path):
    scheme_file = tmp_path / "s2.json"
    cert_file = tmp_path / "cert.json"
    code = run(
        [
            "transform", "translate",
            "--scheme", "builtin:fibonacci",
            "--a", "sqrt(2)",
            "--window", "builtin:fibonacci",
            "--out-scheme", str(scheme_file),
            "--out-cert", str(cert_file),
        ]
    )
    assert code == 0
    obj = json.loads(read(scheme_file))
    loaded = CutProjectScheme.from_obj(obj)
    assert loaded.rank == 3
    cert = json.loads(read(cert_file))
    assert cert["kind"] == "Translation"
    assert all(c["passed"] for c in cert["checks"])
    # the scheme JSON round-trips byte-identically
    assert json.dumps(obj, sort_keys=True) == json.dumps(loaded.to_obj(), sort_keys=True)
    # re-verify through the theorem suite
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps(fibonacci_scheme().to_obj(), sort_keys=True))
    report_file = tmp_path / "report.json"
    code = run(
        [
            "verify", "--suite", "theorem",
            "--scheme", str(base_file),
            "--scheme2", str(scheme_file),
            "--cert", str(cert_file),
            "--out", str(report_file),
        ]
    )
    assert code == 0
    report = json.loads(read(report_file))
    assert report["passed"] is True


def test_theorem_suite_reverifies_extension(tmp_path):
    scheme_file = tmp_path / "ext.json"
    cert_file = tmp_path / "cert.json"
    code = run(
        [
            "transform", "extend",
            "--scheme", "builtin:fibonacci",
            "--c", "root(2,3)",
            "--injectivity-bound", "20",
            "--window", "builtin:fibonacci",
            "--box=-10:10",
            "--out-scheme", str(scheme_file),
            "--out-cert", str(cert_file),
        ]
    )
    assert code == 0
    base_file = tmp_path / "base.json"
    base_file.write_text(json.dumps(fibonacci_scheme().to_obj(), sort_keys=True))
    out = tmp_path / "report.json"
    code = run(
        [
            "verify", "--suite", "theorem",
            "--scheme", str(base_file),
            "--scheme2", str(scheme_file),
            "--cert", str(cert_file),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(read(out))["passed"] is True


def float_fibonacci_file(tmp_path):
    """The Fibonacci scheme with every scalar replaced by its float value."""

    def floatify(o):
        if isinstance(o, dict):
            if o.get("type") in ("rat", "quad", "alg"):
                from cutproject.scalars import Scalar

                return {"type": "float", "value": float(Scalar.from_obj(o))}
            return {k: floatify(v) for k, v in o.items()}
        if isinstance(o, list):
            return [floatify(v) for v in o]
        return o

    scheme_file = tmp_path / "float.json"
    scheme_file.write_text(json.dumps(floatify(fibonacci_scheme().to_obj())))
    return scheme_file


def test_transform_translate_undecided_float(tmp_path, capsys):
    # a float scheme cannot settle commensurability of sqrt(2) at any bound
    scheme_file = float_fibonacci_file(tmp_path)
    code = run(
        [
            "transform", "translate",
            "--scheme", str(scheme_file),
            "--a", "sqrt(2)",
            "--bound", "50",
            "--out-scheme", str(tmp_path / "s.json"),
            "--out-cert", str(tmp_path / "c.json"),
        ]
    )
    assert code == 4
    assert "undecided" in capsys.readouterr().err


def test_transform_extend_rejects_sqrt2(tmp_path, capsys):
    code = run(
        [
            "transform", "extend",
            "--scheme", "builtin:fibonacci",
            "--c", "sqrt(2)",
            "--out-scheme", str(tmp_path / "s.json"),
            "--out-cert", str(tmp_path / "c.json"),
        ]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "witness" in err


def test_transform_extend_refuses_float_scheme(tmp_path, capsys):
    code = run(
        [
            "transform", "extend",
            "--scheme", str(float_fibonacci_file(tmp_path)),
            "--c", "root(2,3)",
            "--out-scheme", str(tmp_path / "s.json"),
            "--out-cert", str(tmp_path / "c.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "exact generators" in err


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    # only parsing and loading map to exit 2; a ValueError from the
    # library's own work is a bug and must surface as one
    def broken(self, box, window, **kw):
        raise ValueError("internal failure")

    monkeypatch.setattr(CutProjectScheme, "project_points", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run(["generate", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci", "--box", "0:5"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transform", "translate", "--a", "1;2"], "--a must have 1 entries"),
        (["transform", "translate", "--a", "0"], "must be nonzero"),
        (["transform", "extend", "--c", "1;2"], "--c must have 1 entries"),
        (["transform", "augment", "--witness", "{bad}"], "invalid witness file"),
        (["verify", "--suite", "density", "--n-list", "10,x", "--window", "builtin:fibonacci"], "--n-list"),
        (["verify", "--suite", "density"], "--window is required"),
        (["verify", "--suite", "theorem", "--scheme2", "builtin:fibonacci", "--cert", "{bad}"],
         "invalid certificate file"),
    ],
)
def test_malformed_options_and_files_are_input_errors(tmp_path, capsys, argv, message):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": 3}')
    argv = [str(bad) if a == "{bad}" else a for a in argv]
    argv += ["--scheme", "builtin:fibonacci"]
    if argv[0] == "transform":
        argv += ["--out-scheme", str(tmp_path / "s.json"), "--out-cert", str(tmp_path / "c.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err


def test_transform_extend_rejects_unknown_strategy(tmp_path, capsys):
    # a float diagonal entry always has a bounded relation against the exact
    # span, so a strategy drawing random reals could never succeed
    code = run(
        [
            "transform", "extend",
            "--scheme", "builtin:fibonacci",
            "--strategy", "random-reals",
            "--out-scheme", str(tmp_path / "s.json"),
            "--out-cert", str(tmp_path / "c.json"),
        ]
    )
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_transform_extend_cuberoot(tmp_path):
    code = run(
        [
            "transform", "extend",
            "--scheme", "builtin:fibonacci",
            "--c", "root(2,3)",
            "--injectivity-bound", "25",
            "--window", "builtin:fibonacci",
            "--box=-10:10",
            "--out-scheme", str(tmp_path / "s.json"),
            "--out-cert", str(tmp_path / "c.json"),
        ]
    )
    assert code == 0
    cert = json.loads(read(tmp_path / "c.json"))
    assert cert["kind"] == "InjectiveExtension"


def witness_file(tmp_path, truncation=25):
    scheme = fibonacci_scheme()
    upper = fibonacci_window()
    lower = upper.interior()
    witness = AlmostModelSetWitness(
        scheme, lower, upper, GammaRule(lower, add=[(0, -1)]), truncation
    )
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness.to_obj(), sort_keys=True))
    return path


def test_transform_augment(tmp_path):
    wfile = witness_file(tmp_path)
    code = run(
        [
            "transform", "augment",
            "--scheme", "builtin:fibonacci",
            "--witness", str(wfile),
            "--out-window", str(tmp_path / "w.json"),
            "--out-cert", str(tmp_path / "c.json"),
        ]
    )
    assert code == 0
    w = json.loads(read(tmp_path / "w.json"))
    assert w["kind"] == "augmented"
    assert len(w["stars"]) >= 1


def test_verify_density(tmp_path):
    out = tmp_path / "density.json"
    code = run(
        [
            "verify", "--suite", "density",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--n-list", "50,100,150",
            "--out", str(out),
        ]
    )
    assert code == 0
    rep = json.loads(read(out))
    assert rep["passed"] and rep["report"]["sandwich_ok"]


def test_tol_zero_is_an_input_error(tmp_path, capsys):
    common = ["--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci"]
    for argv in (
        ["verify", "--suite", "density", *common, "--n-list", "50,100"],
        ["verify", "--suite", "fb", *common, "--n", "100"],
    ):
        out = tmp_path / "out"
        for tol in ("0", "-1e-3", "nan"):
            assert run([*argv, "--tol", tol, "--out", str(out)]) == 2, (argv, tol)
            assert "argument --tol" in capsys.readouterr().err
        assert not out.exists()
    assert scalars.FLOAT_EPS == 1e-9


def test_verify_density_tol_is_reported(tmp_path):
    out = tmp_path / "density.json"
    argv = [
        "verify", "--suite", "density",
        "--scheme", "builtin:fibonacci",
        "--window", "builtin:fibonacci",
        "--n-list", "50,100,150",
        "--out", str(out),
    ]
    assert run(argv) == 0
    assert json.loads(read(out))["tolerance"] == 1e-3
    assert run(argv + ["--tol", "0.01"]) == 0
    assert json.loads(read(out))["tolerance"] == 0.01


def test_verify_density_csv_table(tmp_path):
    out = tmp_path / "density.csv"
    code = run(
        [
            "verify", "--suite", "density",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--n-list", "50,100",
            "--tol", "0.01",
            "--format", "csv",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = read(out).strip().split("\n")
    assert lines[0] == "n,count,empirical,lower,upper"
    assert len(lines) == 3


def test_verify_fb_trivial_character(tmp_path):
    out = tmp_path / "fb.json"
    code = run(
        [
            "verify", "--suite", "fb",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--chi", "0",
            "--n", "120",
            "--out", str(out),
        ]
    )
    assert code == 0
    rep = json.loads(read(out))
    assert rep["coefficients"]["0.0"][0] == pytest.approx(rep["density"])


def test_verify_repetitivity(tmp_path):
    code = run(
        [
            "verify", "--suite", "repetitivity",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--k-box", "0:5",
            "--radius", "20",
            "--box=-60:60",
            "--out", str(tmp_path / "rep.json"),
        ]
    )
    assert code == 0


def test_verify_hull_suite(tmp_path):
    wfile = witness_file(tmp_path, truncation=40)
    out = tmp_path / "hull.json"
    code = run(
        [
            "verify", "--suite", "hull",
            "--scheme", "builtin:fibonacci",
            "--witness", str(wfile),
            "--box=-8:8",
            "--targets", "2",
            "--truncation", "300",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    rep = json.loads(read(out))
    assert code == 0, rep
    assert rep["generic_shift_collapses"]


def test_verify_equidist_suite(tmp_path):
    scheme_file = tmp_path / "ext.json"
    code = run(
        [
            "transform", "extend",
            "--scheme", "builtin:fibonacci",
            "--c", "root(2,3)",
            "--injectivity-bound", "20",
            "--out-scheme", str(scheme_file),
            "--out-cert", str(tmp_path / "cert.json"),
        ]
    )
    assert code == 0
    out = tmp_path / "eq.json"
    code = run(
        [
            "verify", "--suite", "equidist",
            "--scheme", str(scheme_file),
            "--window", "builtin:fibonacci-open",
            "--n", "250",
            "--chi-bound", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    rep = json.loads(read(out))
    assert rep["report"]["status"] == "pass"


def test_generate_float_mode(tmp_path):
    out = tmp_path / "float.csv"
    code = run(
        [
            "generate",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--box", "0:15",
            "--mode", "float",
            "--out", str(out),
        ]
    )
    assert code == 0
    exact = tmp_path / "exact.csv"
    run(
        [
            "generate",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--box", "0:15",
            "--out", str(exact),
        ]
    )
    f_lines = read(out).strip().split("\n")[1:]
    e_lines = read(exact).strip().split("\n")[1:]
    assert len(f_lines) == len(e_lines)
    for fl, el in zip(f_lines, e_lines):
        assert float(fl.split(",")[0]) == pytest.approx(float(el.split(",")[0]), abs=1e-6)


def union_window_file(tmp_path):
    """A two-piece union window of the Fibonacci scheme, as a JSON file."""
    space = fibonacci_scheme().space
    window = UnionWindow(
        space,
        [
            interval_window(space, -1, Fraction(-1, 4)),
            interval_window(space, Fraction(1, 4), GOLDEN - 1),
        ],
    )
    assert len(window.enum_pieces()) == 2
    window_file = tmp_path / "union.json"
    window_file.write_text(json.dumps(window.to_obj(), sort_keys=True))
    return window_file


def test_generate_deterministic_union_window(tmp_path):
    # several window pieces, merged in piece order: byte-identical reruns
    argv = [
        "generate",
        "--scheme", "builtin:fibonacci",
        "--window", str(union_window_file(tmp_path)),
        "--box=-15:15",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    assert len(read(a).splitlines()) > 10


@pytest.mark.parametrize(
    "window, box, rows, digest",
    [
        (
            "builtin:fibonacci", "--box=1200:2800", 1158,
            "70344cf4727588f73a499c923cdef9911214c9dad0fc849770dc7a1117029ff0",
        ),
        (
            "union", "--box=-600:600", 600,
            "3a4cf4c26740a89be653fad6e07d1139fb6e28b715345b009a8ec81ae647c035",
        ),
    ],
)
def test_generate_float_mode_output_is_pinned(tmp_path, window, box, rows, digest):
    # float-mode patches near the window boundary depend on how float and
    # exact operands are compared; the digests fix that behaviour
    if window == "union":
        window = str(union_window_file(tmp_path))
    out = tmp_path / "float.csv"
    argv = ["generate", "--scheme", "builtin:fibonacci", "--window", window, box, "--mode", "float"]
    assert run(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data.splitlines()) == rows + 1
    assert hashlib.sha256(data).hexdigest() == digest


def test_tol_is_only_a_verify_option(tmp_path, capsys):
    common = ["--scheme", "builtin:fibonacci", "--out-scheme", str(tmp_path / "s.json")]
    for argv in (
        ["generate", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci",
         "--box", "0:20", "--mode", "float", "--out", str(tmp_path / "p.csv")],
        ["transform", "translate", *common, "--a", "1/2", "--out-cert", str(tmp_path / "c.json")],
    ):
        assert run(argv) == 0
        assert run([*argv, "--tol", "1e-3"]) == 2, argv
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_verify_tol_leaves_float_counts_alone(tmp_path):
    # the float Fibonacci scheme puts a star within 0.01 of the window
    # boundary by n = 400; the suite's pass tolerance must not move it
    out = tmp_path / "density.json"
    argv = [
        "verify", "--suite", "density",
        "--scheme", str(float_fibonacci_file(tmp_path)),
        "--window", "builtin:fibonacci",
        "--n-list", "100,400",
        "--out", str(out),
    ]
    for tol in ([], ["--tol", "0.01"]):
        assert run(argv + tol) == 0
        assert json.loads(read(out))["report"]["counts"] == [145, 579], tol
    assert scalars.FLOAT_EPS == 1e-9
