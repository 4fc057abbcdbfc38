"""Command-line interface: generate patches, transform schemes, verify claims.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 enumeration
budget exceeded, 4 certification failure.  All outputs are deterministic for
a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from functools import cache, lru_cache

from . import analysis, hull, transforms
from .fibonacci import fibonacci_scheme, fibonacci_window
from .scalars import Scalar, parse_scalar
from .scheme import (
    DEFAULT_MAX_CANDIDATES,
    Box,
    CutProjectScheme,
    EnumerationOverflowError,
    SchemeError,
)
from .windows import OutOfCertifiedRangeError, Window, interval_window, window_from_obj

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CERT = 4


class InputError(ValueError):
    pass


def _write_text(text: str, path: str | None):
    """Write ``text`` to ``path``, or to stdout when it is None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _dump_json(obj, path: str | None):
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _read_text(path: str | None) -> str:
    """The UTF-8 text of ``path``; a missing, unreadable or undecodable file
    is an input error."""
    if path is None:
        raise InputError("a required file option is missing")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_json(path: str | None):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def load_scheme(source: str, mode: str = "exact") -> CutProjectScheme:
    """The scheme named by ``source``.  A file is read on every call, so a
    rewritten file is seen; equal contents share one scheme (``_scheme_of``)."""
    if source == "builtin:fibonacci":
        return _builtin_fibonacci(mode)
    text = _read_text(source)
    try:
        return _scheme_of(text, mode)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot read JSON from {source}: {exc}") from exc
    except Exception as exc:
        raise InputError(f"invalid scheme file {source}: {exc}") from exc


@lru_cache(maxsize=8)
def _scheme_of(text: str, mode: str) -> CutProjectScheme:
    """The scheme of a file's text, shared by every call in a process that
    reads the same text in the same mode, so that its inverse enclosure and
    enumeration plan are built once; errors are raised, not kept."""
    obj = json.loads(text)
    if mode == "float":
        obj = _floatify(obj)
    return CutProjectScheme.from_obj(obj)


@lru_cache(maxsize=2)
def _builtin_fibonacci(mode: str) -> CutProjectScheme:
    """The built-in scheme, shared by every call in a process so that its
    enumeration plan is built once; ``--mode float`` gets one float copy."""
    if mode != "float":
        return fibonacci_scheme()
    return CutProjectScheme.from_obj(_floatify(fibonacci_scheme().to_obj()))


def _floatify(obj):
    """Replace every exact scalar encoding with its float value."""
    if isinstance(obj, dict):
        if obj.get("type") in ("rat", "quad", "alg", "float"):
            return {"type": "float", "value": float(Scalar.from_obj(obj))}
        return {k: _floatify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_floatify(v) for v in obj]
    return obj


def load_window(source: str | None, scheme: CutProjectScheme) -> Window:
    """The window ``source`` names, which must lie in the scheme's internal space."""
    window = _read_window(source, scheme)
    if window.space != scheme.space:
        raise InputError(f"window {source} is not in the scheme's internal space")
    return window


def _read_window(source: str | None, scheme: CutProjectScheme) -> Window:
    if source is None:
        raise InputError("--window is required")
    if source == "builtin:fibonacci":
        return fibonacci_window()
    if source == "builtin:fibonacci-open":
        return fibonacci_window().interior()
    if source == "builtin:fibonacci-closed":
        return fibonacci_window().closure()
    if source.startswith("interval:"):
        parts = source.split(":")
        if len(parts) not in (3, 4):
            raise InputError("interval window syntax: interval:LO:HI[:cc|co|oc|oo]")
        lo = _scalar(parts[1])
        hi = _scalar(parts[2])
        ends = parts[3] if len(parts) == 4 else "co"
        if ends not in ("cc", "co", "oc", "oo"):
            raise InputError("interval ends must be one of cc, co, oc, oo")
        try:
            return interval_window(
                scheme.space, lo, hi, ends[0] == "c", ends[1] == "c"
            )
        except Exception as exc:
            raise InputError(f"cannot build interval window: {exc}") from exc
    obj = _load_json(source)
    try:
        return window_from_obj(scheme.space, obj)
    except Exception as exc:
        raise InputError(f"invalid window file {source}: {exc}") from exc


def _load_obj(path: str, kind: str, build):
    """``build`` applied to the JSON in ``path``; malformed content is an input error."""
    obj = _load_json(path)
    try:
        return build(obj)
    except transforms.WitnessInclusionError:
        raise  # a rule outside its windows is a certification failure (exit 4)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid {kind} file {path}: {exc}") from exc


def load_witness(path: str, scheme: CutProjectScheme) -> hull.AlmostModelSetWitness:
    return _load_obj(path, "witness", lambda obj: hull.AlmostModelSetWitness.from_obj(scheme, obj))


def _scalar(text: str) -> Scalar:
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _direct_vector(text: str, dim: int, option: str) -> tuple[Scalar, ...]:
    vec = tuple(_scalar(t) for t in text.split(";"))
    if len(vec) != dim:
        raise InputError(f"{option} must have {dim} entries separated by ';'")
    return vec


def _parsed(option: str, parse):
    try:
        return parse()
    except ValueError as exc:
        raise InputError(f"cannot parse {option}: {exc}") from exc


def parse_box(text: str, dim: int) -> Box:
    axes = text.split(";")
    if len(axes) == 1 and dim > 1:
        axes = axes * dim
    if len(axes) != dim:
        raise InputError(f"box needs {dim} axis ranges separated by ';'")
    los = []
    his = []
    for axis in axes:
        parts = axis.split(":")
        if len(parts) != 2:
            raise InputError("each box axis must be LO:HI")
        los.append(_scalar(parts[0]))
        his.append(_scalar(parts[1]))
    try:
        return Box(los, his)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _require_positive(values, option: str):
    """Every averaging box A_n = [-n, n]^d needs n > 0, and a ball its radius."""
    for n in values:
        if n <= 0:
            raise InputError(f"{option} must be positive, got {n}")


def _require_finite(values, option: str):
    for v in values:
        if not math.isfinite(v):
            raise InputError(f"{option} must be finite, got {v}")


def _phase_overflows(chi, n: int) -> bool:
    """True when 2 pi n sum(|chi_i|), the largest phase a point of A_n can
    take, is not a finite float."""
    try:
        reach = math.fsum(map(abs, chi))
        return reach > 0 and not math.isfinite(2 * math.pi * (n * reach))
    except OverflowError:  # the sum, or n, beyond the floats
        return True


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def cmd_generate(args) -> int:
    scheme = load_scheme(args.scheme, args.mode)
    window = load_window(args.window, scheme)
    box = parse_box(args.box, scheme.d)
    patch = scheme.project_points(box, window, max_candidates=args.max_candidates)
    if args.format == "csv":
        _write_text(patch.to_csv_text(), args.out)
    else:
        _dump_json(patch.to_obj(), args.out)
    return EXIT_OK


def cmd_transform(args) -> int:
    scheme = load_scheme(args.scheme)
    if args.kind == "translate":
        if not args.a:
            raise InputError("translate needs --a")
        a = _direct_vector(args.a, scheme.d, "--a")
        if all(v.is_zero() for v in a):
            raise InputError("translation vector must be nonzero")
        window = load_window(args.window, scheme) if args.window else None
        box = parse_box(args.box, scheme.d) if args.box else None
        ext = transforms.translate_cps(scheme, a, args.bound, window=window, box=box)
        _dump_json(ext.scheme.to_obj(), args.out_scheme)
        _dump_json(ext.certificate.to_obj(), args.out_cert)
        return EXIT_OK
    if args.kind == "extend":
        if not all(v.is_exact for row in scheme.matrix for v in row):
            raise InputError("transform extend needs exact generators")
        window = load_window(args.window, scheme) if args.window else None
        box = parse_box(args.box, scheme.d) if args.box else None
        if args.c:
            diag = _direct_vector(args.c, scheme.d, "--c")
        else:
            gens = [g for g, _ in scheme.generators]
            diag, _cert = transforms.choose_generic_lattice(
                gens, scheme.d, relation_bound=args.bound
            )
        ext = transforms.extend_injective(
            scheme,
            diag,
            relation_bound=args.bound,
            injectivity_bound=args.injectivity_bound,
            window=window,
            box=box,
        )
        _dump_json(ext.scheme.to_obj(), args.out_scheme)
        _dump_json(ext.certificate.to_obj(), args.out_cert)
        return EXIT_OK
    if args.kind == "augment":
        if not args.witness:
            raise InputError("augment needs --witness")
        witness = load_witness(args.witness, scheme)
        box = parse_box(args.box, scheme.d) if args.box else None
        try:
            aug = transforms.almost_to_model(witness, box=box)
        except OutOfCertifiedRangeError as exc:
            raise InputError(f"--box reaches beyond the witness's truncation: {exc}") from exc
        _dump_json(aug.window.to_obj(), args.out_window)
        _dump_json(aug.certificate.to_obj(), args.out_cert)
        return EXIT_OK
    raise InputError(f"unknown transform kind {args.kind!r}")


def cmd_verify(args) -> int:
    suite = args.suite
    report: dict
    passed: bool
    if suite == "density":
        scheme = load_scheme(args.scheme)
        window = load_window(args.window, scheme)
        n_values = _parsed("--n-list", lambda: [int(t) for t in args.n_list.split(",")])
        _require_positive(n_values, "--n-list")
        rep = analysis.empirical_density(scheme, window, n_values)
        tol = args.tol if args.tol is not None else 1e-3
        closest = abs(rep.empirical[-1] - (rep.lower + rep.upper) / 2)
        passed = rep.sandwich_ok and (not rep.counts or closest <= tol + (rep.upper - rep.lower))
        if args.format == "csv":
            _write_text(rep.to_csv_text(), args.out)
            return EXIT_OK if passed else EXIT_VERIFY
        report = {"suite": suite, "tolerance": tol, "report": rep.to_obj()}
    elif suite == "fb":
        scheme = load_scheme(args.scheme)
        window = load_window(args.window, scheme)
        tol = args.tol if args.tol is not None else 0.05
        chis = _parsed(
            "--chi",
            lambda: [tuple(float(x) for x in chunk.split(",")) for chunk in args.chi.split(";")],
        )
        for chi in chis:
            if len(chi) != scheme.d:
                raise InputError(f"each --chi must have {scheme.d} entries separated by ','")
        _require_positive([args.n], "--n")
        for chi in chis:
            _require_finite(chi, "--chi")
            if _phase_overflows(chi, args.n):
                raise InputError(f"--chi {','.join(map(str, chi))} overflows a phase on A_{args.n}")
        # one patch and one float view of it serve the density and every character
        patch = scheme.project_points(Box.symmetric(args.n, scheme.d), window)
        points = patch.float_points()
        volume = (2 * args.n) ** scheme.d
        density = len(patch) / volume
        values = {}
        passed = True
        for chi in chis:
            a = analysis.character_average(points, analysis.CharacterRd(chi), volume)
            values[",".join(map(str, chi))] = [a.real, a.imag]
            if all(c == 0 for c in chi):
                passed = passed and abs(a - density) < 1e-12
            else:
                passed = passed and abs(a) < tol
        report = {
            "suite": suite,
            "n": args.n,
            "tolerance": tol,
            "density": density,
            "coefficients": values,
        }
    elif suite == "equidist":
        scheme = load_scheme(args.scheme)
        # the suite crosses a window over the torus-free part with the torus
        window = _read_window(args.window, scheme)
        tol = args.tol if args.tol is not None else 0.05
        _require_positive([args.n], "--n")
        _require_finite([args.chi_bound], "--chi-bound")
        if not args.chi_bound > 0:
            raise InputError(f"--chi-bound must be positive, got {args.chi_bound}")
        try:
            torus_idx, _ = analysis.torus_characters(scheme, args.chi_bound)
            analysis.torus_window(scheme, window, torus_idx)
        except ValueError as exc:  # SpaceMismatchError is one
            raise InputError(str(exc)) from exc
        rep = analysis.equidistribution_check(scheme, window, args.chi_bound, args.n)
        passed = rep.status == "pass" and rep.max_fb < tol
        report = {"suite": suite, "tolerance": tol, "report": rep.to_obj()}
    elif suite == "hull":
        scheme = load_scheme(args.scheme)
        _require_positive([args.targets], "--targets")
        witness = load_witness(args.witness, scheme)
        K = parse_box(args.box, scheme.d)
        shift = hull.generic_shift(
            scheme,
            witness.lower,
            witness.upper,
            truncation=args.truncation,
            rng=random.Random(args.seed),
        )
        lower_patch = scheme.project_points(K, witness.lower.translate(shift))
        upper_patch = scheme.project_points(K, witness.upper.closure().translate(shift))
        collapse = lower_patch.point_set() == upper_patch.point_set()
        rng = random.Random(args.seed)
        limits = []
        all_ok = True
        for _ in range(args.targets):
            t_val = Scalar(rng.randint(-400, 400)) / 1000
            t = hull.shift_point(scheme.space, t_val)
            rep = hull.limit_patch_check(scheme, witness, t, K)
            limits.append(rep.to_obj())
            all_ok = all_ok and rep.ok
        passed = collapse and all_ok
        report = {
            "suite": suite,
            "generic_shift_collapses": collapse,
            "limits": limits,
        }
    elif suite == "repetitivity":
        scheme = load_scheme(args.scheme)
        window = load_window(args.window, scheme)
        K = parse_box(args.k_box, scheme.d)
        probe = parse_box(args.box, scheme.d)
        radius = _scalar(args.radius)
        _require_positive([radius], "--radius")
        source = lambda b: scheme.project_points(b, window)  # noqa: E731
        rep = analysis.repetitivity_check(source, K, radius, probe)
        passed = rep.ok
        report = {"suite": suite, "report": rep.to_obj()}
    elif suite == "theorem":
        scheme = load_scheme(args.scheme)
        scheme2 = load_scheme(args.scheme2)
        cert = _load_obj(args.cert, "certificate", transforms.TransformCertificate.from_obj)
        rechecks = transforms.reverify_certificate(cert, scheme, scheme2)
        # a certificate with no check proves nothing
        passed = bool(rechecks) and all(c.passed for c in rechecks)
        report = {
            "suite": suite,
            "kind": cert.kind,
            "checks": [c.to_obj() for c in rechecks],
        }
    else:
        raise InputError(f"unknown suite {suite!r}")
    report["passed"] = passed
    _dump_json(report, args.out)
    return EXIT_OK if passed else EXIT_VERIFY


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves no
    state on it, so every ``main`` call may share it."""
    parser = argparse.ArgumentParser(
        prog="cutproject",
        description="Exact cut-and-project schemes: generation, transforms, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="enumerate a projection-set patch")
    gen.add_argument("--scheme", required=True)
    gen.add_argument("--window", required=True)
    gen.add_argument("--box", required=True)
    gen.add_argument("--out", default=None)
    gen.add_argument("--format", choices=("csv", "json"), default="csv")
    gen.add_argument("--mode", choices=("exact", "float"), default="exact")
    gen.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES)
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("transform", help="build a derived scheme with a certificate")
    tr.add_argument("kind", choices=("translate", "extend", "augment"))
    tr.add_argument("--scheme", required=True)
    tr.add_argument("--a", default=None, help="translation vector (semicolon-separated scalars)")
    tr.add_argument("--c", default=None, help="torus diagonal entries (semicolon-separated)")
    tr.add_argument("--witness", default=None)
    tr.add_argument("--window", default=None)
    tr.add_argument("--box", default=None)
    tr.add_argument("--bound", type=int, default=10 ** 6)
    tr.add_argument("--injectivity-bound", type=int, default=200)
    tr.add_argument("--out-scheme", default=None)
    tr.add_argument("--out-cert", default=None)
    tr.add_argument("--out-window", default=None)
    tr.set_defaults(func=cmd_transform)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True,
                     choices=("density", "fb", "equidist", "hull", "repetitivity", "theorem"))
    ver.add_argument("--scheme", default=None)
    ver.add_argument("--scheme2", default=None)
    ver.add_argument("--window", default=None)
    ver.add_argument("--witness", default=None)
    ver.add_argument("--cert", default=None)
    ver.add_argument("--box", default="-20:20")
    ver.add_argument("--k-box", default="0:5")
    ver.add_argument("--radius", default="20")
    ver.add_argument("--n", type=int, default=1000)
    ver.add_argument("--n-list", default="100,200,400")
    ver.add_argument("--chi", default="0")
    ver.add_argument("--chi-bound", type=float, default=3.0)
    ver.add_argument("--targets", type=int, default=3)
    ver.add_argument("--truncation", type=int, default=500)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tol", type=_positive_float, default=None)
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, SchemeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EnumerationOverflowError as exc:
        print(f"enumeration budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        transforms.CertificationError,
        transforms.InjectivityError,
        transforms.CommensurabilityUndecidedError,
        transforms.WitnessInclusionError,
    ) as exc:
        witness = getattr(exc, "witness", None)
        print(f"certification failed: {exc}", file=sys.stderr)
        if witness is not None:
            print(f"witness: {witness}", file=sys.stderr)
        return EXIT_CERT


if __name__ == "__main__":
    sys.exit(main())
