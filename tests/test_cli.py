import hashlib
import json
import math
import time
from fractions import Fraction

import pytest

from cutproject import analysis, cli, scalars, transforms
from cutproject.cli import main
from cutproject.fibonacci import fibonacci_scheme, fibonacci_substitution, fibonacci_window
from cutproject.hull import AlmostModelSetWitness, GammaRule
from cutproject.scalars import GOLDEN, Scalar, parse_scalar
from cutproject.scheme import Box, CutProjectScheme, SchemeError
from cutproject.substitution import fixed_point_patch
from cutproject.windows import UnionWindow, interval_window
from test_scheme import golden_square_scheme


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


def test_theorem_suite_needs_known_checks(tmp_path, capsys):
    # a certificate passes only on checks it re-runs or knows: with no check
    # it fails (exit 1), and a check no transform writes is an input error
    scheme_file = tmp_path / "s2.json"
    cert_file = tmp_path / "cert.json"
    translate = ["transform", "translate", "--scheme", "builtin:fibonacci", "--a", "sqrt(2)",
                 "--box=-40:40", "--out-scheme", str(scheme_file), "--out-cert", str(cert_file)]
    assert run(translate) == 0
    cert = json.loads(read(cert_file))
    report_file = tmp_path / "report.json"
    theorem = ["verify", "--suite", "theorem", "--scheme", "builtin:fibonacci",
               "--scheme2", str(scheme_file), "--cert", str(cert_file), "--out", str(report_file)]
    assert run(theorem) == 0
    cert_file.write_text(json.dumps({**cert, "checks": []}))
    assert run(theorem) == 1
    assert json.loads(read(report_file)) == {
        "suite": "theorem", "kind": cert["kind"], "checks": [], "passed": False
    }
    report_file.unlink()
    cert_file.write_text(json.dumps({**cert, "checks": [{"name": "made-up", "passed": True}]}))
    assert run(theorem) == 2
    assert "unknown check 'made-up'" in capsys.readouterr().err
    assert not report_file.exists()


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


def test_translate_multiple_above_the_bound_is_an_input_error(tmp_path, capsys):
    # golden/3 hits the lattice at m = 3 only: with --bound 2 the translation
    # is refused before a scheme is built, not reported as non-injective
    out_scheme, out_cert = tmp_path / "s.json", tmp_path / "c.json"
    argv = ["transform", "translate", "--scheme", "builtin:fibonacci", "--a", "golden/3",
            "--bound", "2", "--out-scheme", str(out_scheme), "--out-cert", str(out_cert)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "minimal multiple m = 3, above the bound 2" in err
    assert "not injective" not in err
    assert not out_scheme.exists() and not out_cert.exists()


def test_theorem_suite_fails_a_tampered_pair(tmp_path):
    # b of a sqrt(2) translation is (0, 1); with integer coordinate 2 the
    # vector a no longer pairs with b in the lattice of the new scheme
    scheme_file, cert_file, report = tmp_path / "s2.json", tmp_path / "c.json", tmp_path / "r.json"
    assert run(["transform", "translate", "--scheme", "builtin:fibonacci", "--a", "sqrt(2)",
                "--out-scheme", str(scheme_file), "--out-cert", str(cert_file)]) == 0
    cert = json.loads(read(cert_file))
    assert cert["data"]["b"]["coords"][1] == [1]
    cert["data"]["b"]["coords"][1] = [2]
    cert_file.write_text(json.dumps(cert))
    theorem = ["verify", "--suite", "theorem", "--scheme", "builtin:fibonacci",
               "--scheme2", str(scheme_file), "--cert", str(cert_file), "--out", str(report)]
    assert run(theorem) == 1
    checks = {c["name"]: c["passed"] for c in json.loads(read(report))["checks"]}
    assert checks == {"pair-in-lattice": False}


def test_theorem_suite_fails_an_extension_of_another_base(tmp_path):
    # the root(2,3) extension re-verified against a base whose direct
    # generators are doubled: the full-torus patches no longer agree
    scheme_file, cert_file, report = tmp_path / "ext.json", tmp_path / "c.json", tmp_path / "r.json"
    assert run(["transform", "extend", "--scheme", "builtin:fibonacci", "--c", "root(2,3)",
                "--injectivity-bound", "20", "--window", "builtin:fibonacci", "--box=-10:10",
                "--out-scheme", str(scheme_file), "--out-cert", str(cert_file)]) == 0
    fib = fibonacci_scheme()
    doubled = CutProjectScheme(1, fib.space, [((2 * g[0],), h) for g, h in fib.generators])
    base_file = tmp_path / "doubled.json"
    base_file.write_text(json.dumps(doubled.to_obj(), sort_keys=True))
    cert = transforms.TransformCertificate.from_obj(json.loads(read(cert_file)))
    ext = CutProjectScheme.from_obj(json.loads(read(scheme_file)))
    checks = {c.name: c.passed for c in transforms.reverify_certificate(cert, doubled, ext)}
    assert checks == {"star-injective": True, "patch-full-torus": False}
    # the certificate names its own base: the command refuses the doubled one
    theorem = ["verify", "--suite", "theorem", "--scheme", str(base_file),
               "--scheme2", str(scheme_file), "--cert", str(cert_file), "--out", str(report)]
    assert run(theorem) == 2
    assert not report.exists()


def test_theorem_suite_refuses_schemes_the_certificate_does_not_name(tmp_path, capsys):
    # without --window a translation certificate holds pair-in-lattice alone,
    # which reads the extension only: a doubled base would pass it
    scheme_file, cert_file, report = tmp_path / "s2.json", tmp_path / "c.json", tmp_path / "r.json"
    assert run(["transform", "translate", "--scheme", "builtin:fibonacci", "--a", "sqrt(2)",
                "--out-scheme", str(scheme_file), "--out-cert", str(cert_file)]) == 0
    fib = fibonacci_scheme()
    doubled = CutProjectScheme(1, fib.space, [((2 * g[0],), h) for g, h in fib.generators])
    base_file = tmp_path / "doubled.json"
    base_file.write_text(json.dumps(doubled.to_obj(), sort_keys=True))
    for base, ext in ((str(base_file), str(scheme_file)), ("builtin:fibonacci", str(base_file))):
        theorem = ["verify", "--suite", "theorem", "--scheme", base, "--scheme2", ext,
                   "--cert", str(cert_file), "--out", str(report)]
        assert run(theorem) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "; the certificate names" in err
        assert "Traceback" not in err
        assert not report.exists()
    theorem = ["verify", "--suite", "theorem", "--scheme", "builtin:fibonacci",
               "--scheme2", str(scheme_file), "--cert", str(cert_file), "--out", str(report)]
    assert run(theorem) == 0


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


def test_internal_value_error_is_not_an_input_error(monkeypatch, capsys):
    # only parsing and loading map to exit 2; a ValueError from the
    # library's own work is a bug and must surface as one: exit 70 with its
    # message and traceback, never exit 1, which means a failed verification
    def broken(self, box, window, **kw):
        raise ValueError("internal failure")

    monkeypatch.setattr(CutProjectScheme, "project_points", broken)
    code = run(["generate", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci", "--box", "0:5"])
    assert code == 70
    err = capsys.readouterr().err
    assert "internal error: internal failure" in err and "Traceback" in err
    assert "input error" not in err


def test_scheme_without_exact_dual_lattice_is_an_input_error(tmp_path, capsys):
    # 1 + pi as a generator: the dual lattice's generators need the inverse
    # of the coordinate matrix, which has no exact form
    line = fibonacci_scheme().space
    pi = CutProjectScheme(1, line, [((Scalar(1),), line.point((1,))),
                                    ((1 + Scalar.const("pi"),), line.point((Scalar.sqrt(2),)))])
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(pi.to_obj()))
    code = run(["transform", "extend", "--scheme", str(path), "--c", "root(2,3)",
                "--out-scheme", str(tmp_path / "s.json"), "--out-cert", str(tmp_path / "c.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "no exact generators" in err and "pi or e" in err
    assert "Traceback" not in err


def test_repetitivity_suite_in_two_dimensions_is_an_input_error(tmp_path, capsys):
    scheme, window = golden_square_scheme()
    paths = {}
    for name, obj in (("scheme", scheme.to_obj()), ("window", window.to_obj())):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    code = run(["verify", "--suite", "repetitivity", "--scheme", str(paths["scheme"]),
                "--window", str(paths["window"]), "--k-box", "0:5;0:5", "--box=-20:20;-20:20",
                "--out", str(tmp_path / "rep.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "direct dimension 1, got 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("c", ["pi", "e"])
def test_extend_by_one_constant_is_decided_exactly(tmp_path, c):
    # pi and e are transcendental, so the relation check over the golden
    # ring, c and 1/c is a complete kernel computation, not a bounded search
    cert_path = tmp_path / "c.json"
    code = run(["transform", "extend", "--scheme", "builtin:fibonacci", "--c", c,
                "--out-scheme", str(tmp_path / "s.json"), "--out-cert", str(cert_path)])
    assert code == 0
    relation = json.loads(read(cert_path))["data"]["relation"]
    assert relation == {"method": "exact-kernel", "bound": 10 ** 6, "passed": True,
                        "witness": None, "note": "complete over the monomial span"}


def test_extend_by_an_entry_without_exact_inverse_is_an_input_error(tmp_path, capsys):
    # the relation check needs 1/c, and a sum involving pi has no exact inverse
    out_scheme, out_cert = tmp_path / "s.json", tmp_path / "c.json"
    code = run(["transform", "extend", "--scheme", "builtin:fibonacci", "--c", "1+pi",
                "--out-scheme", str(out_scheme), "--out-cert", str(out_cert)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "has no exact inverse" in err
    assert "Traceback" not in err
    assert not out_scheme.exists() and not out_cert.exists()


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
        (["verify", "--suite", "density", "--window", "builtin:fibonacci", "--n-list=0,10"],
         "--n-list must be positive"),
        (["verify", "--suite", "density", "--window", "builtin:fibonacci", "--n-list=10,-5"],
         "--n-list must be positive"),
        (["verify", "--suite", "fb", "--window", "builtin:fibonacci", "--n", "0"],
         "--n must be positive"),
        (["verify", "--suite", "fb", "--window", "builtin:fibonacci", "--n=-5"],
         "--n must be positive"),
        (["verify", "--suite", "equidist", "--window", "builtin:fibonacci-open", "--n", "0"],
         "--n must be positive"),
        (["verify", "--suite", "equidist", "--window", "builtin:fibonacci-open",
          "--chi-bound", "0"], "--chi-bound must be positive"),
        (["verify", "--suite", "equidist", "--window", "builtin:fibonacci-open",
          "--chi-bound=-2"], "--chi-bound must be positive"),
        (["verify", "--suite", "equidist", "--window", "builtin:fibonacci-open"],
         "scheme has no torus factor"),
        # a file that is not UTF-8 is unreadable input, not a failed check
        (["generate", "--scheme", "{undecodable}", "--window", "builtin:fibonacci", "--box", "0:5"],
         "cannot read JSON from"),
        (["generate", "--window", "{undecodable}", "--box", "0:5"], "cannot read JSON from"),
        # --mode float converts the scalars after parsing; a malformed one is
        # an invalid scheme file there too
        (["generate", "--scheme", "{bad-scalar}", "--mode", "float", "--window", "builtin:fibonacci",
          "--box", "0:5"], "invalid scheme file"),
        # a ball radius is a size, positive like --n
        (["verify", "--suite", "repetitivity", "--window", "builtin:fibonacci", "--k-box", "0:5",
          "--box=-60:60", "--radius=-5"], "--radius must be positive"),
        (["verify", "--suite", "repetitivity", "--window", "builtin:fibonacci", "--k-box", "0:5",
          "--box=-60:60", "--radius", "0"], "--radius must be positive"),
        # a character must be finite, and so must every phase it takes on A_n
        (["verify", "--suite", "fb", "--window", "builtin:fibonacci", "--chi", "nan"],
         "--chi must be finite"),
        (["verify", "--suite", "fb", "--window", "builtin:fibonacci", "--chi", "0;inf"],
         "--chi must be finite"),
        (["verify", "--suite", "fb", "--window", "builtin:fibonacci", "--chi=-inf"],
         "--chi must be finite"),
        (["verify", "--suite", "fb", "--window", "builtin:fibonacci", "--chi", "1e308"],
         "overflows a phase on A_100"),
        (["verify", "--suite", "fb", "--window", "builtin:fibonacci", "--n", "500",
          "--chi", "0.5;-1e308"], "overflows a phase on A_500"),
        (["verify", "--suite", "equidist", "--window", "builtin:fibonacci-open",
          "--chi-bound", "inf"], "--chi-bound must be finite"),
        (["verify", "--suite", "equidist", "--window", "builtin:fibonacci-open",
          "--chi-bound", "nan"], "--chi-bound must be finite"),
        # a hull suite with no target checks no limit patch
        (["verify", "--suite", "hull", "--targets", "0"], "--targets must be positive"),
        (["verify", "--suite", "hull", "--targets=-3"], "--targets must be positive"),
        # a truncation below 1 leaves the avoidance check no lattice point
        (["verify", "--suite", "hull", "--truncation", "0"], "--truncation must be positive"),
        (["verify", "--suite", "hull", "--truncation=-5"], "--truncation must be positive"),
        # a negative budget is no budget, not an exceeded one (exit 3)
        (["generate", "--window", "builtin:fibonacci", "--box", "0:5", "--max-candidates=-5"],
         "--max-candidates must be positive"),
    ],
)
def test_malformed_options_and_files_are_input_errors(tmp_path, capsys, argv, message):
    files = {
        "{bad}": b'{"kind": 3}',
        "{undecodable}": b"\xff\xfe\x00x",
        "{bad-scalar}": json.dumps(
            {**fibonacci_scheme().to_obj(), "generators": [{"g": [{"type": "quad", "d": 5}]}]}
        ).encode(),
    }
    for name, content in files.items():
        (tmp_path / name.strip("{}")).write_bytes(content)
    argv = [str(tmp_path / a.strip("{}")) if a in files else a for a in argv]
    if "--scheme" not in argv:
        argv += ["--scheme", "builtin:fibonacci"]
    if argv[0] == "transform":
        argv += ["--out-scheme", str(tmp_path / "s.json"), "--out-cert", str(tmp_path / "c.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err


def test_equidist_bound_below_every_character_is_an_input_error(tmp_path, capsys):
    # the smallest nontrivial character of the root(2,3) torus has norm
    # 1/root(2,3) > 0.5, so a positive bound of 0.5 leaves nothing to check
    scheme_file = tmp_path / "ext.json"
    extend = [
        "transform", "extend",
        "--scheme", "builtin:fibonacci",
        "--c", "root(2,3)",
        "--injectivity-bound", "20",
        "--out-scheme", str(scheme_file),
        "--out-cert", str(tmp_path / "cert.json"),
    ]
    assert run(extend) == 0
    code = run(
        [
            "verify", "--suite", "equidist",
            "--scheme", str(scheme_file),
            "--window", "builtin:fibonacci-open",
            "--chi-bound", "0.5",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "no nontrivial torus character has norm <= 0.5" in err


def test_overflowing_characters_are_input_errors_and_write_no_report(tmp_path, capsys):
    # 1e308 times the root(2,3) torus's basis overflows the range of
    # dual-lattice coordinates; an fb character of 1e306 overflows a phase
    # on A_500 once times 2 pi n; neither writes a report
    scheme_file = tmp_path / "ext.json"
    extend = [
        "transform", "extend", "--scheme", "builtin:fibonacci", "--c", "root(2,3)",
        "--injectivity-bound", "20",
        "--out-scheme", str(scheme_file), "--out-cert", str(tmp_path / "cert.json"),
    ]
    assert run(extend) == 0
    out = tmp_path / "report.json"
    for argv, message in [
        (["verify", "--suite", "equidist", "--scheme", str(scheme_file),
          "--window", "builtin:fibonacci-open", "--chi-bound", "1e308"],
         "the torus characters of norm <= 1e+308 overflow their range"),
        (["verify", "--suite", "fb", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci",
          "--n", "500", "--chi", "1e306"], "--chi 1e+306 overflows a phase on A_500"),
    ]:
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err
        assert not out.exists()
    # a large character whose phases stay finite is still summed
    assert run(["verify", "--suite", "fb", "--scheme", "builtin:fibonacci", "--window",
                "builtin:fibonacci", "--n", "500", "--chi", "1e300", "--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    assert all(map(math.isfinite, report["coefficients"]["1e+300"]))


def test_equidist_character_box_over_the_budget_exits_3(tmp_path, capsys):
    # --chi-bound 1e9 on the root(2,3) torus spans about 2.5e9 dual-lattice
    # vectors: refused before any is built, as generate refuses a candidate
    # box over the enumeration budget, and no report is written
    scheme_file = tmp_path / "ext.json"
    extend = [
        "transform", "extend", "--scheme", "builtin:fibonacci", "--c", "root(2,3)",
        "--injectivity-bound", "20",
        "--out-scheme", str(scheme_file), "--out-cert", str(tmp_path / "cert.json"),
    ]
    assert run(extend) == 0
    out = tmp_path / "report.json"
    capsys.readouterr()
    start = time.perf_counter()
    code = run(["verify", "--suite", "equidist", "--scheme", str(scheme_file),
                "--window", "builtin:fibonacci-open", "--chi-bound", "1e9", "--out", str(out)])
    assert code == 3
    assert time.perf_counter() - start < 30
    err = capsys.readouterr().err
    assert "enumeration budget exceeded" in err and "torus character box" in err
    assert not out.exists()


def test_equidist_window_outside_the_torus_free_part_is_an_input_error(tmp_path, capsys):
    # the root(2,3) extension of the sqrt(2) translation has internal space
    # R x R x T; a window on one line is neither that space nor R x R
    from cutproject.scalars import Scalar
    from cutproject.transforms import extend_injective, translate_cps

    sqrt2 = translate_cps(fibonacci_scheme(), (Scalar.sqrt(2),), 10 ** 6).scheme
    ext = extend_injective(sqrt2, (Scalar.root(2, 3),), injectivity_bound=20)
    scheme_file = tmp_path / "ext.json"
    scheme_file.write_text(json.dumps(ext.scheme.to_obj()))
    code = run(
        [
            "verify", "--suite", "equidist",
            "--scheme", str(scheme_file),
            "--window", "builtin:fibonacci-open",
            "--n", "50",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "torus-free part" in err


def test_equidist_reads_a_window_file_over_the_torus_free_part(tmp_path):
    # the built-in open window written to a file is read over the torus-free
    # part of the root(2,3) extension, as the built-in is, and crossed with
    # the torus: both spellings give one report
    scheme_file = tmp_path / "torus.json"
    scheme_file.write_text(json.dumps(
        transforms.extend_injective(
            fibonacci_scheme(), (Scalar.root(2, 3),), injectivity_bound=20
        ).scheme.to_obj()
    ))
    window_file = tmp_path / "fib-open.json"
    window_file.write_text(json.dumps(fibonacci_window().interior().to_obj()))
    reports = []
    for window in ("builtin:fibonacci-open", str(window_file)):
        out = tmp_path / "eq.json"
        assert run(["verify", "--suite", "equidist", "--scheme", str(scheme_file),
                    "--window", window, "--n", "200", "--chi-bound", "3", "--out", str(out)]) == 0
        reports.append(read(out))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["report"]["status"] == "pass"


def test_fb_chi_takes_scalar_expressions(tmp_path):
    # an entry float() refuses is read as a scalar expression; its float is
    # the decimal's, so the report and the exit code are one (exit 1: the
    # coefficient at 1/sqrt(5) is not small on A_500)
    assert parse_scalar("1/sqrt(5)").to_float() == 0.4472135954999579
    outcomes = []
    for chi in ("1/sqrt(5)", "0.4472135954999579"):
        out = tmp_path / "fb.json"
        code = run(["verify", "--suite", "fb", "--scheme", "builtin:fibonacci", "--window",
                    "builtin:fibonacci", "--n", "500", "--chi", chi, "--out", str(out)])
        outcomes.append((code, read(out)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 1
    assert list(json.loads(outcomes[0][1])["coefficients"]) == ["0.4472135954999579"]


def test_transform_extend_rejects_unknown_strategy(tmp_path, capsys):
    # a float diagonal entry always has a bounded relation against the exact
    # span, so a strategy drawing random reals could never succeed; the named
    # constants are the only strategy, so there is no option to pick another
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
    assert "unrecognized arguments: --strategy random-reals" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["augment", "hull", "theorem"])
def test_float_scheme_star_questions_are_input_errors(tmp_path, capsys, command):
    # injectivity and star preimages are decided on exact generators only,
    # so a float scheme is refused with exit 2, not walked or passed
    float_file = str(float_fibonacci_file(tmp_path))
    wfile = str(witness_file(tmp_path))
    out = str(tmp_path / "out.json")
    if command == "augment":
        argv = ["transform", "augment", "--scheme", float_file, "--witness", wfile,
                "--out-window", out, "--out-cert", str(tmp_path / "c.json")]
    elif command == "hull":
        argv = ["verify", "--suite", "hull", "--scheme", float_file, "--witness", wfile,
                "--box=-8:8", "--targets", "1", "--truncation", "100", "--out", out]
    else:
        ext, cert = tmp_path / "ext.json", tmp_path / "cert.json"
        assert run(["transform", "extend", "--scheme", "builtin:fibonacci", "--c", "root(2,3)",
                    "--out-scheme", str(ext), "--out-cert", str(cert)]) == 0
        ext.write_text(json.dumps(cli._floatify(json.loads(read(ext)))))
        # the certificate names the floated scheme, so the suite reaches its checks
        cert.write_text(json.dumps(
            {**json.loads(read(cert)), "output_scheme": cli.load_scheme(str(ext)).scheme_id}
        ))
        argv = ["verify", "--suite", "theorem", "--scheme", "builtin:fibonacci",
                "--scheme2", str(ext), "--cert", str(cert), "--out", out]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "exact generators" in err
    assert not (tmp_path / "out.json").exists()


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


def test_transform_augment_box_beyond_the_truncation(tmp_path, capsys):
    # the rule is known on the truncation cube only, so a box that reaches
    # past it cannot be checked: an input error, not a failed certificate
    code = run(
        [
            "transform", "augment",
            "--scheme", "builtin:fibonacci",
            "--witness", str(witness_file(tmp_path)),
            "--box=-500:500",
            "--out-window", str(tmp_path / "w.json"),
            "--out-cert", str(tmp_path / "c.json"),
        ]
    )
    assert code == 2
    assert "beyond the witness's truncation" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def narrow_lower_witness_file(tmp_path):
    """A witness whose open lower window (-1/2, golden - 1) is smaller than
    the interior of its upper window, the built-in one."""
    scheme, upper = fibonacci_scheme(), fibonacci_window()
    lower = interval_window(scheme.space, Fraction(-1, 2), GOLDEN - 1, False, False)
    witness = AlmostModelSetWitness(scheme, lower, upper, GammaRule(upper.closure()), 10)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness.to_obj(), sort_keys=True))
    return path


def test_augment_writes_the_chain_only_for_the_upper_interior(tmp_path):
    # the inclusion chain reads int(W) in int(W'), which the augmented
    # window need not meet when its lower window is smaller than int(W)
    cert_file = tmp_path / "c.json"
    assert run(["transform", "augment", "--scheme", "builtin:fibonacci",
                "--witness", str(narrow_lower_witness_file(tmp_path)),
                "--out-window", str(tmp_path / "w.json"), "--out-cert", str(cert_file)]) == 0
    checks = {c["name"]: c["passed"] for c in json.loads(read(cert_file))["checks"]}
    assert checks == {"membership-patch": True}
    assert run(["verify", "--suite", "theorem", "--scheme", "builtin:fibonacci",
                "--scheme2", "builtin:fibonacci", "--cert", str(cert_file),
                "--out", str(tmp_path / "r.json")]) == 0
    # with the upper window's interior as the lower one, the chain is written
    assert run(["transform", "augment", "--scheme", "builtin:fibonacci",
                "--witness", str(witness_file(tmp_path)),
                "--out-window", str(tmp_path / "w.json"), "--out-cert", str(cert_file)]) == 0
    checks = {c["name"]: c["passed"] for c in json.loads(read(cert_file))["checks"]}
    assert checks == {"membership-patch": True, "interior-closure-chain": True}


def test_augment_with_a_failed_chain_is_a_certification_failure(tmp_path, capsys, monkeypatch):
    # any check the certificate records must pass, the chain as well as the patch
    monkeypatch.setattr(transforms, "eq11_chain", lambda base, augmented: False)
    out_window, out_cert = tmp_path / "w.json", tmp_path / "c.json"
    code = run(["transform", "augment", "--scheme", "builtin:fibonacci",
                "--witness", str(witness_file(tmp_path)),
                "--out-window", str(out_window), "--out-cert", str(out_cert)])
    assert code == 4
    assert "certification failed" in capsys.readouterr().err
    assert not out_window.exists() and not out_cert.exists()


def test_verify_hull_box_beyond_the_truncation(tmp_path, capsys):
    # limit patches are certified inside the witness's truncation only, so a
    # larger box is an input error, not a failed verification or a traceback
    out = tmp_path / "hull.json"
    code = run(
        [
            "verify", "--suite", "hull",
            "--scheme", "builtin:fibonacci",
            "--witness", str(witness_file(tmp_path, truncation=40)),
            "--box=-300:300",
            "--targets", "1",
            "--truncation", "300",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "truncation too small" in err
    assert not out.exists()


@pytest.mark.parametrize("box", ["--box=-90:0", "--box=-90:90", "--box=-90+1/1000:0"])
def test_verify_hull_box_at_the_edge_of_the_certified_range(tmp_path, capsys, box):
    # the witness certifies [-90, 90]; a box reaching its lower end leaves a
    # shift budget under 1/100, so not one rung of shifts can be walked
    out = tmp_path / "hull.json"
    code = run(["verify", "--suite", "hull", "--scheme", "builtin:fibonacci",
                "--witness", str(witness_file(tmp_path, truncation=40)),
                box, "--targets", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "truncation too small" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("box", ["--box=94:95", "--box=130:131"])
def test_verify_hull_box_beyond_the_certified_range_on_the_high_side(tmp_path, capsys, box):
    # the witness certifies [-90, 90]; the shifts of [130, 131] start at 41,
    # above the first rung's cap of 30, so that rung has no candidates and
    # the cap doubles; Fibonacci has no point in either box, and the empty
    # limit patch is written as an empty list
    out = tmp_path / "hull.json"
    code = run(["verify", "--suite", "hull", "--scheme", "builtin:fibonacci",
                "--witness", str(witness_file(tmp_path, truncation=40)),
                box, "--targets", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err
    assert code == 0, err
    (limit,) = json.loads(out.read_text())["limits"]
    assert limit["points"] == [] and limit["stabilized"]
    assert len(limit["sequence"]) >= 2


def test_verify_hull_windows_differing_by_more_than_a_finite_set(tmp_path, capsys):
    # the lower window (-1/2, golden - 1) leaves out an interval of the
    # built-in upper window: no generic shift exists, and that is bad input
    scheme, upper = fibonacci_scheme(), fibonacci_window()
    lower = interval_window(scheme.space, Fraction(-1, 2), GOLDEN - 1, False, False)
    witness = AlmostModelSetWitness(scheme, lower, upper, GammaRule(upper.closure()), 25)
    wfile, out = tmp_path / "w.json", tmp_path / "hull.json"
    wfile.write_text(json.dumps(witness.to_obj()))
    capsys.readouterr()
    code = run(["verify", "--suite", "hull", "--scheme", "builtin:fibonacci", "--witness", str(wfile),
                "--box=-3:3", "--targets", "1", "--truncation", "20", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "not a finite point set" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_generate_window_in_another_space(tmp_path, capsys):
    # the built-in window lies in the Fibonacci scheme's internal space, not
    # in that of its sqrt(2) translation
    scheme_file = tmp_path / "s2.json"
    assert run(
        [
            "transform", "translate",
            "--scheme", "builtin:fibonacci",
            "--a", "sqrt(2)",
            "--out-scheme", str(scheme_file),
            "--out-cert", str(tmp_path / "cert.json"),
        ]
    ) == 0
    out = tmp_path / "out.csv"
    code = run(
        [
            "generate",
            "--scheme", str(scheme_file),
            "--window", "builtin:fibonacci",
            "--box=-10:10",
            "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "not in the scheme's internal space" in err
    assert not out.exists()


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
        for tol in ("0", "-1e-3", "nan", "inf"):
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


def test_verify_density_and_fb_enumerate_once(tmp_path, monkeypatch):
    # the fb suite reports analysis.fourier_bohr's density and coefficients,
    # from one enumeration for all three characters
    fibonacci_window()  # derived once per process, by enumerations of its own
    boxes, fb_calls = [], []
    original, fourier_bohr = CutProjectScheme.project_points, analysis.fourier_bohr

    def counted(self, box, window, **kw):
        boxes.append(box)
        return original(self, box, window, **kw)

    def spied(*args):
        fb_calls.append((args, fourier_bohr(*args)))
        return fb_calls[-1][1]

    monkeypatch.setattr(CutProjectScheme, "project_points", counted)
    monkeypatch.setattr(analysis, "fourier_bohr", spied)
    fib = ["verify", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci"]
    out = tmp_path / "density.json"
    assert run(fib + ["--suite", "density", "--n-list", "400,100,200,100", "--out", str(out)]) == 0
    assert boxes == [Box.symmetric(400)]
    assert json.loads(read(out))["report"]["n"] == [100, 100, 200, 400]
    boxes.clear()
    out = tmp_path / "fb.json"
    assert run(fib + ["--suite", "fb", "--n", "500", "--chi", "0;0.5;1.3", "--out", str(out)]) == 0
    assert boxes == [Box.symmetric(500)]
    ((args, (density, coefficients)),) = fb_calls
    assert args[2:] == ([(0.0,), (0.5,), (1.3,)], 500)
    report = json.loads(read(out))
    assert report["density"] == density
    assert report["coefficients"] == {
        key: [a.real, a.imag] for key, a in zip(("0.0", "0.5", "1.3"), coefficients)
    }


def test_verify_fb_character_arity_is_an_input_error(tmp_path, capsys):
    # a second component on the line used to be dropped without a word
    out = tmp_path / "fb.json"
    code = run(
        [
            "verify", "--suite", "fb",
            "--scheme", "builtin:fibonacci",
            "--window", "builtin:fibonacci",
            "--chi", "0;0.5,7",
            "--n", "50",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "each --chi must have 1 entries" in capsys.readouterr().err
    assert not out.exists()


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


def test_main_builds_the_parser_once(tmp_path, capsys):
    cli.build_parser.cache_clear()
    argv = ["generate", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci"]
    assert run(argv + ["--box", "0:10", "--out", str(tmp_path / "a.csv")]) == 0
    assert run(["verify", "--suite", "nope"]) == 2
    assert run(argv + ["--box", "0:10", "--mode", "float", "--out", str(tmp_path / "b.csv")]) == 0
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser.cache_info().hits == 2
    capsys.readouterr()


def test_parse_error_between_generates_leaves_outputs_alone(tmp_path, capsys):
    # the shared parser and schemes carry nothing from one call to the next
    argv = ["generate", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci",
            "--box=-200:200"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--mode", "fast", "--out", str(tmp_path / "x.csv")]) == 2
    assert "invalid choice: 'fast'" in capsys.readouterr().err
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert not (tmp_path / "x.csv").exists()


def test_builtin_scheme_is_shared():
    assert cli.load_scheme("builtin:fibonacci") is fibonacci_scheme()
    assert cli.load_scheme("builtin:fibonacci", "exact") is fibonacci_scheme()
    shared = cli.load_scheme("builtin:fibonacci", "float")
    assert cli.load_scheme("builtin:fibonacci", "float") is shared
    # the same scheme the old per-call round trip through to_obj built
    fresh = CutProjectScheme.from_obj(cli._floatify(fibonacci_scheme().to_obj()))
    assert shared.to_obj() == fresh.to_obj()
    assert shared.scheme_id == fresh.scheme_id
    assert not shared.generators[1][0][0].is_exact


def test_file_scheme_is_shared_by_content(tmp_path, capsys):
    fib = fibonacci_scheme().to_obj()
    path, copy = tmp_path / "scheme.json", tmp_path / "copy.json"
    path.write_text(json.dumps(fib))
    copy.write_text(json.dumps(fib))
    first = cli.load_scheme(str(path))
    assert cli.load_scheme(str(path)) is first
    assert cli.load_scheme(str(copy)) is first  # the key is the text, not the path
    floated = cli.load_scheme(str(path), "float")
    assert floated is not first and not floated.generators[1][0][0].is_exact
    assert cli.load_scheme(str(path), "float") is floated

    gen = ["generate", "--scheme", str(path), "--window", "builtin:fibonacci", "--box=-50:50"]
    a, b, c = (tmp_path / f"{name}.csv" for name in "abc")
    assert run(gen + ["--out", str(a)]) == 0
    # a rewritten file is read again: another scheme, another patch
    swapped = {**fib, "generators": fib["generators"][::-1]}
    path.write_text(json.dumps(swapped))
    second = cli.load_scheme(str(path))
    assert second is not first and second.to_obj() == swapped
    assert run(gen + ["--out", str(b)]) == 0
    assert read(b) != read(a)
    assert read(b) == second.project_points(Box.interval(-50, 50), fibonacci_window()).to_csv_text()

    # an invalid file is an input error and leaves nothing behind in the cache
    size = cli._scheme_of.cache_info().currsize
    for text, message in (("{", "cannot read JSON"), ('{"d": 1}', "invalid scheme file")):
        path.write_text(text)
        assert run(gen + ["--out", str(c)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err and str(path) in err
        assert cli._scheme_of.cache_info().currsize == size
    path.write_text(json.dumps(fib))
    assert run(gen + ["--out", str(c)]) == 0
    assert read(c) == read(a)

    # distinct texts past the bound evict the oldest; the cache stays bounded
    maxsize = cli._scheme_of.cache_info().maxsize
    for indent in range(maxsize + 1):
        path.write_text(json.dumps(fib, indent=indent))
        cli.load_scheme(str(path))
    assert cli._scheme_of.cache_info().currsize <= maxsize
    path.write_text(json.dumps(fib))
    assert cli.load_scheme(str(path)) is not first


def unsupported_factor_inputs(tmp_path):
    """The root(2,3) torus extension and the golden/3 twisted translation of
    Fibonacci, each with a witness of the Fibonacci window and its interior
    lifted onto it."""
    tor, g3 = tmp_path / "tor.json", tmp_path / "g3.json"
    assert run(["transform", "extend", "--scheme", "builtin:fibonacci", "--c", "root(2,3)",
                "--out-scheme", str(tor), "--out-cert", str(tmp_path / "tor-cert.json")]) == 0
    assert run(["transform", "translate", "--scheme", "builtin:fibonacci", "--a", "golden/3",
                "--bound", "100", "--out-scheme", str(g3),
                "--out-cert", str(tmp_path / "g3-cert.json")]) == 0
    w = fibonacci_window()
    lifts = {
        tor: lambda win, s: transforms.lift_window_torus(win, s.space, len(s.space.factors) - 1),
        g3: lambda win, s: transforms.lift_window(win, 1, s),
    }
    witnesses = {}
    for path, lift in lifts.items():
        scheme = cli.load_scheme(str(path))
        upper = lift(w, scheme)
        witness = AlmostModelSetWitness(
            scheme, lift(w.interior(), scheme), upper, GammaRule(upper.closure()), 10
        )
        witnesses[path] = tmp_path / f"{path.stem}-witness.json"
        witnesses[path].write_text(json.dumps(witness.to_obj(), sort_keys=True))
    return tor, g3, witnesses


def test_unsupported_factor_kinds_are_input_errors(tmp_path, capsys):
    # the dual lattice is built for the base factor family, and difference
    # points for real and discrete factors: a torus or a twisted factor is
    # refused as input (exit 2), not reported as a bug (exit 70)
    tor, g3, witnesses = unsupported_factor_inputs(tmp_path)
    out = tmp_path / "out.json"
    cases = [
        (["transform", "extend", "--scheme", str(tor), "--out-scheme", str(out),
          "--out-cert", str(out)], "needs the base factor family"),
        (["transform", "extend", "--scheme", str(g3), "--c", "root(2,3)", "--out-scheme", str(out),
          "--out-cert", str(out)], "needs the base factor family"),
    ] + [
        (["verify", "--suite", "hull", "--scheme", str(path), "--witness", str(witnesses[path]),
          "--box=-3:3", "--targets", "1", "--truncation", "20", "--out", str(out)],
         "difference points support real and discrete factors only")
        for path in (tor, g3)
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err
        assert "Traceback" not in err
        assert not out.exists()


CERT_EDITS = {
    "no translation vector": lambda cert: cert["data"].pop("a"),
    "unknown window kind": lambda cert: cert["checks"][1]["detail"].update(window={"kind": "bogus"}),
    "no box": lambda cert: cert["checks"][1]["detail"].pop("box"),
    "b without coordinates": lambda cert: cert["data"].update(b={"coords": []}),
    "a multiple that is no integer": lambda cert: cert["checks"][1]["detail"].update(n="x"),
}


@pytest.mark.parametrize("edit", CERT_EDITS)
def test_theorem_suite_refuses_a_malformed_certificate(tmp_path, capsys, edit):
    # every check's inputs are read before any check is re-run, so a
    # certificate that cannot be read is an input error and writes no report
    scheme_file, cert_file, report = tmp_path / "s2.json", tmp_path / "c.json", tmp_path / "r.json"
    assert run(["transform", "translate", "--scheme", "builtin:fibonacci", "--a", "sqrt(2)",
                "--window", "builtin:fibonacci", "--box=-10:10",
                "--out-scheme", str(scheme_file), "--out-cert", str(cert_file)]) == 0
    cert = json.loads(read(cert_file))
    assert [c["name"] for c in cert["checks"]] == ["pair-in-lattice", "patch-translation"]
    CERT_EDITS[edit](cert)
    cert_file.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "--suite", "theorem", "--scheme", "builtin:fibonacci",
                "--scheme2", str(scheme_file), "--cert", str(cert_file), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: malformed certificate")
    assert "Traceback" not in err
    assert not report.exists()


def test_theorem_suite_reads_every_check_before_running_one(tmp_path, monkeypatch):
    # a malformed second check stops the run before the first is re-run
    scheme_file, cert_file = tmp_path / "s2.json", tmp_path / "c.json"
    assert run(["transform", "translate", "--scheme", "builtin:fibonacci", "--a", "sqrt(2)",
                "--window", "builtin:fibonacci", "--box=-10:10",
                "--out-scheme", str(scheme_file), "--out-cert", str(cert_file)]) == 0
    cert = json.loads(read(cert_file))
    CERT_EDITS["no box"](cert)
    ext = CutProjectScheme.from_obj(json.loads(read(scheme_file)))
    calls = []
    monkeypatch.setattr(CutProjectScheme, "lattice_coords_of", lambda *a: calls.append(a))
    with pytest.raises(SchemeError, match="malformed certificate"):
        transforms.reverify_certificate(
            transforms.TransformCertificate.from_obj(cert), fibonacci_scheme(), ext
        )
    assert calls == []


@pytest.mark.parametrize("suite", ["fb", "equidist", "hull", "repetitivity", "theorem"])
def test_csv_format_belongs_to_the_density_suite(tmp_path, capsys, suite):
    # every other suite writes a JSON report only: --format csv is refused
    # before any input is read, and no file is written
    out = tmp_path / "out.csv"
    code = run(["verify", "--suite", suite, "--scheme", "builtin:fibonacci",
                "--window", "builtin:fibonacci", "--format", "csv", "--out", str(out)])
    assert code == 2
    assert "--format csv is for the density suite only" in capsys.readouterr().err
    assert not out.exists()
