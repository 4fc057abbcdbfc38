"""The four benchmark workloads: seeded inputs, the ops of one pass, oracles.

A workload is built once per process (that is part of set-up) and then
hands out passes.  A pass is a fixed list of ops; the worker times each op,
and only after the whole pass checks every output against its oracle, so the
time spent checking stays out of op latency.

The seed moves only parameters that do not set the cost: box centres, window
shifts and which constant is used.  Radii, the twist modulus, the
injectivity bound and the truncation are fixed here.

Every oracle is independent of the code path it checks:

* Fibonacci patches are compared with ``substitution.fixed_point_patch``.
* Patches of translated windows and window unions are compared with a direct
  search over the second lattice coordinate (``strip_coords``), which shares
  no code with the enumerator.
* Extension patches are checked with the translation identity: the lifted
  window with index k selects exactly k*a plus the substitution patch.
* Float-mode patches are compared on their lattice-coordinate columns, never
  on float text.
* Certificates must have every check passed and must pass
  ``verify --suite theorem``.
* The hull suite is judged on its sandwich flags and the generic-shift
  collapse, which hold at any truncation.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from cutproject import cli
from cutproject.fibonacci import (
    fibonacci_scheme,
    fibonacci_substitution,
    fibonacci_window,
)
from cutproject.hull import AlmostModelSetWitness, GammaRule
from cutproject.internal_space import HPoint
from cutproject.scalars import GOLDEN, GOLDEN_CONJ, SQRT5, Scalar, parse_scalar
from cutproject.scheme import Box
from cutproject.substitution import fixed_point_patch
from cutproject.transforms import extend_injective, lift_window, translate_cps
from cutproject.windows import UnionWindow, interval_window

# Squared-substitution steps: the fixed point then covers tens of thousands
# of tiles on each side, well past every box below.
ORACLE_ITERATIONS = 11

GENERATE_FIB_HALF = 800
GENERATE_UNION_HALF = 600
GENERATE_SQRT2_HALF = 400
GENERATE_TWISTED_HALF = 60
GENERATE_CENTRE = 2000
LIFT_INDICES = range(-3, 4)
# Float rounding of p + q*golden for |q| < 10**4 stays far below this.
FLOAT_MARGIN = 1e-6

# At least 1,000 calls per run, in passes short enough that the median pass
# sees few of the host's slow spells.
PROBE_CALLS_PER_PASS = 250
PROBE_MIN_PASSES = 4
PROBE_HALF = 10
PROBE_CENTRE = 5000

CERT_INJECTIVITY_BOUND = 50
CERT_TRUNCATION = 25
CERT_CHECK_HALF = 20
# Incommensurate with Q(sqrt 5).  The cube roots are of one cost class, so
# the seed picks the extension constant without changing the work.
INCOMMENSURATE = ("sqrt(2)", "sqrt(3)", "sqrt(7)")
CUBE_ROOTS = ("root(2,3)", "root(3,3)", "root(5,3)", "root(7,3)")

DENSITY_N_LIST = "125,250,500,1000"
FB_N = 500
FB_CHI = "0;0.5;1.3"
EQUIDIST_N = 500
# The criterion-6 constant.  The 0.05 tolerance is pinned for it; another
# cube root (root(5,3): max |a_chi| = 0.10 at n = 500) is a different claim.
EQUIDIST_TORUS = "root(2,3)"
# The hull suite runs in the configuration pinned by the CLI tests.  Its
# --seed picks the limit targets and the generic shift, which are not
# cost-neutral inputs, so the benchmark seed does not move it.  Other hull
# seeds can report a sandwich flag false at this truncation; see CHANGES.md.
HULL_TRUNCATION = 300
HULL_WITNESS_TRUNCATION = 40
HULL_RULE = "add-hi"
HULL_SEED = 5

# The four membership rules between the open and closed Fibonacci window,
# each admitting at least one boundary point, so every augmented window has a
# star to drop in the self-check.  (-1, 0) has star -1, (0, -1) has star
# golden - 1: the two window endpoints.
WITNESS_RULES = (
    ("add-hi", dict(add=[(0, -1)])),
    ("add-lo", dict(add=[(-1, 0)])),
    ("add-both", dict(add=[(0, -1), (-1, 0)])),
    ("closure", None),
)


@dataclass
class Op:
    """One closed-loop operation and its oracle.

    ``call`` is the timed part.  ``collect`` turns its raw result into the
    output to judge and returns None on an unexpected exit code; ``judge``
    is the oracle; ``drop`` removes one point from an output (for the
    self-check) or returns None when the output has no point to drop.
    """

    kind: str
    params: dict
    call: Callable[[], object]
    collect: Callable[[object], object]
    judge: Callable[[object], bool]
    points: Callable[[object], int] = lambda out: 0
    drop: Callable[[object], object] | None = None


# ---------------------------------------------------------------------------
# Oracles shared by several workloads


def fib_interval():
    """Endpoints and closedness of the derived Fibonacci window."""
    (piece,) = fibonacci_window().regions[0].axes[0].pieces
    return piece.lo, piece.hi, piece.lo_closed, piece.hi_closed


def inside(s: Scalar, interval) -> bool:
    lo, hi, lo_closed, hi_closed = interval
    above = s >= lo if lo_closed else s > lo
    below = s <= hi if hi_closed else s < hi
    return above and below


def substitution_points(lo: Scalar, hi: Scalar) -> list[Scalar]:
    patch = fixed_point_patch(fibonacci_substitution(), ORACLE_ITERATIONS, Box([lo], [hi]))
    return [p[0] for p in patch.points]


def strip_coords(lo: Scalar, hi: Scalar, intervals) -> set[tuple[int, int]]:
    """Fibonacci lattice coordinates (p, q) with p + q*golden in [lo, hi] and
    p + q*golden_conj in the union of ``intervals``.

    A direct search: x - star = q*sqrt(5) bounds q, and for each q the window
    bounds p to a few values.  Floats settle every candidate that is clearly
    inside or outside; the rest are tested exactly.
    """
    fintervals = [(float(iv[0]), float(iv[1])) for iv in intervals]
    wlo = min(a for a, _ in fintervals)
    whi = max(b for _, b in fintervals)
    flo, fhi = float(lo), float(hi)
    root5 = math.sqrt(5)
    gold, conj = float(GOLDEN), float(GOLDEN_CONJ)
    out = set()
    for q in range(math.floor((flo - whi) / root5) - 1, math.ceil((fhi - wlo) / root5) + 2):
        for p in range(math.floor(wlo - q * conj) - 1, math.ceil(whi - q * conj) + 2):
            s, x = p + q * conj, p + q * gold
            if x < flo - FLOAT_MARGIN or x > fhi + FLOAT_MARGIN:
                continue
            if all(s < a - FLOAT_MARGIN or s > b + FLOAT_MARGIN for a, b in fintervals):
                continue
            star = Scalar(p) + GOLDEN_CONJ * q
            if any(inside(star, iv) for iv in intervals) and lo <= Scalar(p) + GOLDEN * q <= hi:
                out.add((p, q))
    return out


def fib_position(coords) -> Scalar:
    p, q = coords
    return Scalar(p) + GOLDEN * q


def read_csv_rows(path: str) -> list[tuple[float, tuple[int, ...]]]:
    """(x1 as float, lattice coordinates) per data row of a 1-d patch CSV."""
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append((float(cells[0]), tuple(int(c) for c in cells[1:])))
    return rows


def drop_one(items):
    items = list(items)
    return items[1:] if items else None


def rows_match(rows, generators, expected: set) -> bool:
    """Rows reproduce ``expected`` exactly through their lattice coordinates.

    Positions are rebuilt exactly from the coordinate columns and the
    scheme's generators; the float column only has to agree to 1e-6.
    """
    positions = set()
    for x_float, coords in rows:
        if len(coords) != len(generators):
            return False
        x = Scalar(0)
        for n, g in zip(coords, generators):
            if n:
                x = x + g * n
        if abs(float(x) - x_float) > 1e-6 * max(1.0, abs(x_float)):
            return False
        positions.add(x)
    return len(positions) == len(rows) and positions == expected


def build_witness(scheme, window, label: str, truncation: int) -> AlmostModelSetWitness:
    rule_args = dict(WITNESS_RULES)[label]
    lower = window.interior()
    rule = GammaRule(window.closure()) if rule_args is None else GammaRule(lower, **rule_args)
    return AlmostModelSetWitness(scheme, lower, window, rule, truncation)


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def box_arg(centre: int, half: int) -> str:
    # argparse reads a bare "-800:800" as an option; the "--box=" form is
    # the only spelling that takes a negative lower end.
    return f"--box={centre - half}:{centre + half}"


def exit_then(expect: int, load: Callable[[], object]):
    def collect(code):
        return load() if code == expect else None

    return collect


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    min_passes = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.scheme = fibonacci_scheme()
        self.window = fibonacci_window()
        self.base_file = write_json(self.path("base.json"), self.scheme.to_obj())

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def rng(self, pass_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{pass_index}")

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError


class GenerateLarge(Workload):
    """``cutproject generate`` on large boxes, CSV written to the work dir."""

    name = "generate-large"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.extensions = {}
        for label, a, bound in (("sqrt2", Scalar.sqrt(2), 10 ** 6), ("twisted", GOLDEN / 3, 100)):
            ext = translate_cps(self.scheme, (a,), bound)
            scheme_file = write_json(self.path(f"{label}.json"), ext.scheme.to_obj())
            windows = {
                k: write_json(
                    self.path(f"{label}-lift{k}.json"),
                    lift_window(self.window, k, ext.scheme).to_obj(),
                )
                for k in LIFT_INDICES
            }
            generators = [g[0] for g, _ in ext.scheme.generators]
            self.extensions[label] = (a, scheme_file, windows, generators)

    def ops(self, pass_index):
        rng = self.rng(pass_index)
        fib_gens = [g[0] for g, _ in self.scheme.generators]
        out = []
        for mode in ("exact", "float"):
            centre = rng.randint(-GENERATE_CENTRE, GENERATE_CENTRE)
            out.append(self._fibonacci(pass_index, mode, centre, fib_gens))
        out.append(self._union(pass_index, rng, fib_gens))
        for label, half in (("sqrt2", GENERATE_SQRT2_HALF), ("twisted", GENERATE_TWISTED_HALF)):
            centre = rng.randint(-GENERATE_CENTRE, GENERATE_CENTRE)
            k = rng.choice(LIFT_INDICES)
            out.append(self._extension(pass_index, label, half, centre, k))
        return out

    def _generate(self, kind, params, argv, out_file, expected, generators):
        return Op(
            kind,
            params,
            call=lambda: cli.main(argv + ["--out", out_file]),
            collect=exit_then(0, lambda: read_csv_rows(out_file)),
            judge=lambda rows: rows_match(rows, generators, expected()),
            points=len,
            drop=drop_one,
        )

    def _fibonacci(self, pass_index, mode, centre, generators):
        half = GENERATE_FIB_HALF
        argv = [
            "generate", "--scheme", "builtin:fibonacci", "--window", "builtin:fibonacci",
            box_arg(centre, half), "--mode", mode,
        ]
        return self._generate(
            f"generate-fibonacci-{mode}",
            {"box": [centre - half, centre + half], "mode": mode},
            argv,
            self.path(f"fib-{mode}-{pass_index}.csv"),
            lambda: set(substitution_points(Scalar(centre - half), Scalar(centre + half))),
            generators,
        )

    def _union(self, pass_index, rng, generators):
        lo, hi, lo_closed, hi_closed = fib_interval()
        gap = Scalar(rng.randint(-14, 2)) / 20
        pieces = [(lo, gap, lo_closed, False), (gap + Scalar(1) / 4, hi, True, hi_closed)]
        window = UnionWindow(
            self.scheme.space, [interval_window(self.scheme.space, *piece) for piece in pieces]
        )
        window_file = write_json(self.path(f"union-{pass_index}.json"), window.to_obj())
        centre = rng.randint(-GENERATE_CENTRE, GENERATE_CENTRE)
        half = GENERATE_UNION_HALF
        argv = ["generate", "--scheme", "builtin:fibonacci", "--window", window_file, box_arg(centre, half)]
        return self._generate(
            "generate-union",
            {"box": [centre - half, centre + half], "gap_lo": str(gap)},
            argv,
            self.path(f"union-{pass_index}.csv"),
            lambda: {
                fib_position(c)
                for c in strip_coords(Scalar(centre - half), Scalar(centre + half), pieces)
            },
            generators,
        )

    def _extension(self, pass_index, label, half, centre, k):
        a, scheme_file, windows, generators = self.extensions[label]
        argv = ["generate", "--scheme", scheme_file, "--window", windows[k], box_arg(centre, half)]

        def expected():
            shift = a * k
            base = substitution_points(Scalar(centre - half) - shift, Scalar(centre + half) - shift)
            return {x + shift for x in base}

        return self._generate(
            f"generate-{label}",
            {"box": [centre - half, centre + half], "lift": k},
            argv,
            self.path(f"{label}-{pass_index}.csv"),
            expected,
            generators,
        )


class ProbeSmall(Workload):
    """Library ``project_points`` calls on width-20 boxes with shifted windows."""

    name = "probe-small"
    min_passes = PROBE_MIN_PASSES

    def ops(self, pass_index):
        rng = self.rng(pass_index)
        lo, hi, lo_closed, hi_closed = fib_interval()
        out = []
        for _ in range(PROBE_CALLS_PER_PASS):
            centre = rng.randint(-PROBE_CENTRE, PROBE_CENTRE)
            t = Scalar(rng.randint(-20, 20)) / 100
            shift = self.scheme.space.point((t,))
            box = Box.interval(centre - PROBE_HALF, centre + PROBE_HALF)
            shifted = [(lo + t, hi + t, lo_closed, hi_closed)]

            def call(box=box, shift=shift):
                return self.scheme.project_points(box, self.window.translate(shift))

            def judge(points, box=box, shifted=shifted):
                expected = {(fib_position(c),) for c in strip_coords(box.lo[0], box.hi[0], shifted)}
                return len(set(points)) == len(points) and set(points) == expected

            out.append(
                Op(
                    "probe",
                    {"box": [centre - PROBE_HALF, centre + PROBE_HALF], "t": str(t)},
                    call=call,
                    collect=lambda patch: list(patch.points),
                    judge=judge,
                    points=len,
                    drop=drop_one,
                )
            )
        return out


class Certify(Workload):
    """The three transforms through the CLI, each certificate re-verified."""

    name = "certify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rule = random.Random(f"{self.name}:{seed}").choice([r for r, _ in WITNESS_RULES])
        witness = build_witness(self.scheme, self.window, self.rule, CERT_TRUNCATION)
        self.witness_file = write_json(self.path("witness.json"), witness.to_obj())
        self.expected_stars = {
            self.scheme.star(n).coords[0][0] for n in ((-1, 0), (0, -1)) if witness.rule(n)
        }

    def ops(self, pass_index):
        rng = self.rng(pass_index)
        out = []
        # every incommensurate constant in every pass, in seeded order: the
        # cheap translate/theorem pairs are then over half the ops, so the
        # median sits inside them, and their mix does not depend on the seed
        for i, a in enumerate(rng.sample(INCOMMENSURATE, len(INCOMMENSURATE))):
            centre = rng.randint(-500, 500)
            out += self._transform(
                pass_index, f"translate-incommensurate-{i}", "Translation",
                ["translate", "--a", a, "--window", "builtin:fibonacci", box_arg(centre, CERT_CHECK_HALF)],
                {"a": a, "box": [centre - CERT_CHECK_HALF, centre + CERT_CHECK_HALF]},
            )
        # golden/3 + j would still be commensurate with m = 3, but its cost
        # grows with abs(j), so only the box centre moves with the seed
        centre = rng.randint(-500, 500)
        out += self._transform(
            pass_index, "translate-commensurate", "QuotientTranslation",
            ["translate", "--a", "golden/3", "--bound", "100", "--window", "builtin:fibonacci",
             box_arg(centre, CERT_CHECK_HALF)],
            {"a": "golden/3", "box": [centre - CERT_CHECK_HALF, centre + CERT_CHECK_HALF]},
        )
        centre = rng.randint(-500, 500)
        c = rng.choice(CUBE_ROOTS)
        out += self._transform(
            pass_index, "extend", "InjectiveExtension",
            ["extend", "--c", c, "--injectivity-bound", str(CERT_INJECTIVITY_BOUND),
             "--window", "builtin:fibonacci", box_arg(centre, CERT_CHECK_HALF)],
            {"c": c, "box": [centre - CERT_CHECK_HALF, centre + CERT_CHECK_HALF]},
        )
        out += self._augment(pass_index)
        return out

    def _transform(self, pass_index, kind, cert_kind, args, params):
        scheme_file = self.path(f"{kind}-{pass_index}.json")
        cert_file = self.path(f"{kind}-{pass_index}.cert.json")
        argv = ["transform", *args[:1], "--scheme", "builtin:fibonacci", *args[1:],
                "--out-scheme", scheme_file, "--out-cert", cert_file]
        return [
            Op(
                kind,
                params,
                call=lambda: cli.main(argv),
                collect=exit_then(0, lambda: read_json(cert_file)),
                judge=lambda cert: cert["kind"] == cert_kind and cert_passed(cert),
            ),
            self._theorem(pass_index, kind, scheme_file, cert_file),
        ]

    def _augment(self, pass_index):
        window_file = self.path(f"augment-{pass_index}.window.json")
        cert_file = self.path(f"augment-{pass_index}.cert.json")
        argv = ["transform", "augment", "--scheme", "builtin:fibonacci", "--witness", self.witness_file,
                "--out-window", window_file, "--out-cert", cert_file]
        space = self.scheme.space

        def collect_output():
            stars = [parse_star(space, s) for s in read_json(window_file)["stars"]]
            return read_json(cert_file), stars

        def judge(out):
            cert, stars = out
            return (
                cert["kind"] == "WindowAugmentation"
                and cert_passed(cert)
                and len(set(stars)) == len(stars)
                and set(stars) == self.expected_stars
            )

        return [
            Op(
                "augment",
                {"rule": self.rule, "truncation": CERT_TRUNCATION},
                call=lambda: cli.main(argv),
                collect=exit_then(0, collect_output),
                judge=judge,
                drop=lambda out: (out[0], out[1][1:]) if out[1] else None,
            ),
            self._theorem(pass_index, "augment", self.base_file, cert_file),
        ]

    def _theorem(self, pass_index, kind, scheme_file, cert_file):
        report_file = self.path(f"{kind}-{pass_index}.theorem.json")
        argv = ["verify", "--suite", "theorem", "--scheme", self.base_file,
                "--scheme2", scheme_file, "--cert", cert_file, "--out", report_file]
        return Op(
            "verify-theorem",
            {"certificate": kind},
            call=lambda: cli.main(argv),
            collect=exit_then(0, lambda: read_json(report_file)),
            judge=lambda report: report["passed"] is True and all(c["passed"] for c in report["checks"]),
        )


def cert_passed(cert) -> bool:
    return bool(cert["checks"]) and all(c["passed"] for c in cert["checks"])


def parse_star(space, obj) -> Scalar:
    return HPoint.from_obj(space, obj).coords[0][0]


class VerifySuites(Workload):
    """The density, fb, equidist, repetitivity and hull suites of the CLI."""

    name = "verify-suites"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        ext = extend_injective(
            self.scheme, (parse_scalar(EQUIDIST_TORUS),), injectivity_bound=20
        )
        self.torus_file = write_json(self.path("torus.json"), ext.scheme.to_obj())
        self._density_counts = None
        witness = build_witness(self.scheme, self.window, HULL_RULE, HULL_WITNESS_TRUNCATION)
        self.hull_witness = write_json(self.path("witness.json"), witness.to_obj())

    def ops(self, pass_index):
        rng = self.rng(pass_index)
        P = pass_index
        density = float(GOLDEN / SQRT5)
        out = []

        report = self.path(f"density-{P}.json")
        out.append(Op(
            "verify-density",
            {"n_list": DENSITY_N_LIST},
            call=self._cli(["verify", "--suite", "density", "--scheme", "builtin:fibonacci",
                            "--window", "builtin:fibonacci", "--n-list", DENSITY_N_LIST, "--out", report]),
            collect=exit_then(0, lambda: read_json(report)),
            judge=lambda rep: rep["passed"] is True and rep["report"]["sandwich_ok"] is True
            and dict(zip(rep["report"]["n"], rep["report"]["counts"])) == self.density_counts(),
            drop=lambda rep: {**rep, "report": {**rep["report"], "counts": [
                c - (i == 0) for i, c in enumerate(rep["report"]["counts"])]}},
        ))

        t = f"{rng.randint(-20, 20)}/100"
        report_fb = self.path(f"fb-{P}.json")
        out.append(Op(
            "verify-fb",
            {"n": FB_N, "chi": FB_CHI, "t": t},
            call=self._cli(["verify", "--suite", "fb", "--scheme", "builtin:fibonacci",
                            "--window", shifted_interval(t, "oc"), "--n", str(FB_N), "--chi", FB_CHI,
                            "--out", report_fb]),
            collect=exit_then(0, lambda: read_json(report_fb)),
            # the chi = 0 coefficient is the density, and a shifted window
            # keeps the density golden/sqrt(5) up to the O(1/n) boundary term
            judge=lambda rep: rep["passed"] is True
            and abs(rep["coefficients"]["0.0"][0] - rep["density"]) < 1e-12
            and abs(rep["density"] - density) < 2.0 / FB_N,
        ))

        report_eq = self.path(f"equidist-{P}.json")
        out.append(Op(
            "verify-equidist",
            {"n": EQUIDIST_N, "chi_bound": 3, "torus": EQUIDIST_TORUS},
            call=self._cli(["verify", "--suite", "equidist", "--scheme", self.torus_file,
                            "--window", "builtin:fibonacci-open", "--n", str(EQUIDIST_N),
                            "--chi-bound", "3", "--out", report_eq]),
            collect=exit_then(0, lambda: read_json(report_eq)),
            judge=lambda rep: rep["passed"] is True and rep["report"]["status"] == "pass"
            and rep["report"]["cells_hit"] == rep["report"]["cells_total"],
        ))

        # K = [0, 5] is the criterion-10 pattern and must lie inside the probe
        centre = rng.randint(-90, 90)
        report_rep = self.path(f"repetitivity-{P}.json")
        out.append(Op(
            "verify-repetitivity",
            {"box": [centre - 100, centre + 100], "k_box": "0:5", "radius": 20},
            call=self._cli(["verify", "--suite", "repetitivity", "--scheme", "builtin:fibonacci",
                            "--window", "builtin:fibonacci", "--k-box", "0:5", "--radius", "20",
                            box_arg(centre, 100), "--out", report_rep]),
            collect=exit_then(0, lambda: read_json(report_rep)),
            judge=lambda rep: rep["passed"] is True and rep["report"]["ok"] is True,
        ))

        report_hull = self.path(f"hull-{P}.json")
        argv = ["verify", "--suite", "hull", "--scheme", "builtin:fibonacci",
                "--witness", self.hull_witness, "--box=-8:8", "--targets", "2",
                "--truncation", str(HULL_TRUNCATION), "--seed", str(HULL_SEED), "--out", report_hull]

        out.append(Op(
            "verify-hull",
            {"rule": HULL_RULE, "seed": HULL_SEED, "truncation": HULL_TRUNCATION},
            call=self._cli(argv),
            collect=exit_then(0, lambda: read_json(report_hull)),
            judge=lambda rep: rep["generic_shift_collapses"] is True
            and all(lim["lower_ok"] and lim["upper_ok"] for lim in rep["limits"]),
        ))
        return out

    def density_counts(self):
        """Substitution-oracle point counts on [-n, n], computed once."""
        if self._density_counts is None:
            self._density_counts = {
                n: len(substitution_points(Scalar(-n), Scalar(n)))
                for n in map(int, DENSITY_N_LIST.split(","))
            }
        return self._density_counts

    @staticmethod
    def _cli(argv):
        return lambda: cli.main(argv)


def shifted_interval(t: str, ends: str) -> str:
    """The Fibonacci window moved by the rational ``t`` as a CLI window."""
    return f"interval:-1+({t}):golden-1+({t}):{ends}"


WORKLOADS = {w.name: w for w in (GenerateLarge, ProbeSmall, Certify, VerifySuites)}
