"""Run a fixed list of hopfgrow commands and record what each prints.

    python tests/cli_sweep.py OUT_DIR [SRC_DIR]

Each command runs as `python -m hopfgrow ...` with SRC_DIR (default:
the src/ next to this file) on PYTHONPATH.  Its stdout, stderr and exit
code go to OUT_DIR/<n>.out, <n>.err and <n>.code, and OUT_DIR/commands
lists the commands by number.  Two checkouts compare with `diff -r` on
their output directories; a change that should not alter any output
leaves no difference.  The list covers check-example on every builtin
setting the tests check, and invariants, bounds, primitives, growth,
delta and normalize on the same settings (tau ones included), in text
and json, and invariants and bounds at the default bounds on the two
settings where the primitive search leaves out the most columns.  It also
writes presentation files into OUT_DIR.  The characters of three of them
are fractions of cyclotomic polynomials: reading them inverts elements of
Q(zeta_N) that are not rational, which no builtin does.  Three more run
invariants, bounds and growth where the invariants search skips most
weights of the group ball: a free file over Z^4, one over Z x Z/6 whose
y-words have weights to reduce, and a truncation over Z^2 with a rule
term that has no y-letter.  Two more run invariants on exterior free=true where the
conjugation closure keeps 148 and 228 vectors at one weight.  Three
more run growth, delta and normalize on a tau presentation whose group
overlap does not resolve, which check_confluence must reduce: each exits
2 with the same one-line non-confluent error.  The last six run growth,
in text and json, on three presentations whose letter weight is not 1.
Four print tables of weight above 1, which count the letter-weight
filtration, with the automaton's verdict and, in text, a last line that
names the weight: a tau-generator of weight g1^2 (weight 2) and the
truncation y1^2 = g1^6 - 1 for y1 of weight g1^3 (weight 3).  Two are refusals: a rule term g1 y1 y2 as long as its
left-hand side y2 y1 leaves no letter weight, and growth exits 1 with one
line.  The last two ask primitives for one weight outside the group ball
and for the weight 1, where the search holds no coradical line: both
print dim 0.  The three after them run normalize, delta and primitives on
a file whose character 1 + q1 builds a true fraction of Laurent
polynomials, 1/(1 + q1), and a term where it cancels to 1.  Every command runs in OUT_DIR, so these files are named without a
directory, and no command takes more than a few seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from conftest import CHECK_SETTINGS  # noqa: E402

# search bounds below the defaults: at 6/6/6, invariants on
# exterior free=true runs for minutes
_SEARCH = ["--degree", "4", "--group-bound", "2"]

# run at the default bounds
_AT_DEFAULTS = [["--example", "skew_free", "--param", "v=2", "--param", "tau=1"],
                ["--example", "skew_trunc"]]


def _ratio(num, den, nvars=0, exps=None):
    """The JSON scalar num / den for power-basis coefficient lists num and
    den, num carrying q-exponents exps."""
    return {"num": [[exps or [0] * nvars, num]], "den": [[[0] * nvars, den]]}


def _file(conductor, characters, relations=(), transcendentals=()):
    """A presentation over Z with generators y1, y2, ... of weight g1, one
    for each character."""
    return {"scalars": {"cyclotomic_order": conductor,
                        "transcendentals": list(transcendentals)},
            "group": {"free_rank": 1},
            "generators": [{"name": "y%d" % (i + 1), "weight": [1], "character": [c]}
                           for i, c in enumerate(characters)],
            "relations": [{"lhs": lhs, "rhs": ""} for lhs in relations]}


FILES = {
    # (1 + zeta) / (1 + zeta^-1) = zeta at N = 12, and y1^12 = 0
    "fraction-root.json": _file(12, [_ratio(["1", "1"], ["1", "1", "0", "-1"])],
                                ["y1^12"]),
    # q1 / (1 + zeta) and (2 - zeta^2) / (1 + zeta^3) at N = 12
    "fraction-q.json": _file(12, [_ratio(["1"], ["1", "1"], 1, [1]),
                                  _ratio(["2", "0", "-1"], ["1", "0", "0", "1"], 1)],
                             transcendentals=["q1"]),
    # 1 / (1 + zeta) at N = 420, where phi(N) = 96
    "fraction-420.json": _file(420, [_ratio(["1"], ["1", "1"])]),
    # one y of weight g1 over Z^4 with lambda(g1) = -1: y^2 is primitive at
    # g1^2, and y-words reach 6 of the 1,289 weights of B_6
    "free-z4.json": {
        "scalars": {"cyclotomic_order": 2, "transcendentals": ["q1"]},
        "group": {"free_rank": 4},
        "generators": [{"name": "y", "weight": [1, 0, 0, 0],
                        "character": ["-1", "q1", "1", "1"]}]},
    # over Z x Z/6, y2^2 has mu = g2^10 = g2^4 and y1^3 has mu = g1^3 g2^9
    # = g1^3 g2^3, and both are primitive there
    "torsion-z-z6.json": {
        "scalars": {"cyclotomic_order": 6, "transcendentals": []},
        "group": {"free_rank": 1, "torsion": [6]},
        "generators": [{"name": "y1", "weight": [1, 3], "character": ["zeta^2", "1"]},
                       {"name": "y2", "weight": [0, 5], "character": ["1", "-1"]}]},
    # the truncation y1^3 = g1^3 - 1 over Z^2, a rule term with no y-letter
    "trunc-z2.json": {
        "scalars": {"cyclotomic_order": 3, "transcendentals": ["q1"]},
        "group": {"free_rank": 2},
        "generators": [{"name": "y1", "weight": [1, 0], "character": ["zeta", "1"]},
                       {"name": "y2", "weight": [0, 1], "character": ["1", "q1"]}],
        "relations": [{"lhs": "y1^3", "rhs": "g1^3 - 1"}]},
    # y1 y1 = 0 for a tau-generator y1 of weight g1 over Z, trivial
    # character, tau(g1) = 2: its group overlap does not resolve
    "tau-square.json": {
        "scalars": {"cyclotomic_order": 1, "transcendentals": []},
        "group": {"free_rank": 1},
        "generators": [{"name": "y1", "weight": [1], "character": ["1"], "tau": ["2"]}],
        "relations": [{"lhs": "y1^2", "rhs": ""}]},
    # y g1 = g1 y + g1 (g1^2 - 1) for y of weight g1^2 over Z: the letter
    # weight 2 and the table 1, 3, 6, 10, 15, ... of polynomial degree 2
    "tau-g1^2.json": {
        "scalars": {"cyclotomic_order": 1, "transcendentals": []},
        "group": {"free_rank": 1},
        "generators": [{"name": "y", "weight": [2], "character": ["1"], "tau": ["1"]}]},
    # y1 of weight g1^3 over Z with lambda_1(g1) = -1 and y1^2 = g1^6 - 1:
    # the letter weight 3 and the table 1, 3, 5, 8, 12, ... of degree 1
    "g3-trunc.json": {
        "scalars": {"cyclotomic_order": 2, "transcendentals": ["q1"]},
        "group": {"free_rank": 1},
        "generators": [{"name": "y1", "weight": [3], "character": ["-1"]}],
        "relations": [{"lhs": "y1^2", "rhs": "g1^6 - 1"}]},
    # y1, y2 of weight g1 over Z with characters 1 + q1 and q1: moving
    # g1^-1 left past y1 divides by 1 + q1
    "one-plus-q.json": {
        "scalars": {"cyclotomic_order": 1, "transcendentals": ["q1"]},
        "group": {"free_rank": 1},
        "generators": [{"name": "y1", "weight": [1], "character": ["1 + q1"]},
                       {"name": "y2", "weight": [1], "character": ["q1"]}]},
    # y2 y1 = y1 y2 + g1 y1 y2 for y1, y2 of weight g1 over Z: confluent,
    # but no letter weight keeps its rule from lengthening a word, so
    # growth refuses it
    "full-length-group-part.json": {
        "scalars": {"cyclotomic_order": 1, "transcendentals": ["q1", "q2"]},
        "group": {"free_rank": 1},
        "generators": [{"name": "y1", "weight": [1], "character": ["q1"]},
                       {"name": "y2", "weight": [1], "character": ["q2"]}],
        "relations": [{"lhs": "y2 y1", "rhs": "y1 y2 + g1 y1 y2"}]},
}

# files whose invariants search skips most weights of the ball, with the
# bounds they run at
_SKIPPING = [("free-z4.json", []),
             ("torsion-z-z6.json", ["--degree", "4", "--power-bound", "4"]),
             ("trunc-z2.json", ["--degree", "4", "--power-bound", "4"])]


def _element(name):
    """The normalize and delta input on a builtin: a group letter moved
    past its first y-letter both ways, a power of that letter and a
    scalar."""
    y = "y" if name == "taft" else "y1"
    return "%s g1 %s + 2 * g1^-1 %s^2 - zeta^0" % (y, y, y)


def commands():
    out = []
    for name, params in CHECK_SETTINGS:
        source = ["--example", name] + [a for prm in params for a in ("--param", prm)]
        per_format = [
            ["check-example", name] + source[2:],
            ["invariants"] + source + _SEARCH + ["--power-bound", "3"],
            ["bounds"] + source + _SEARCH + ["--power-bound", "3", "--mmax", "6"],
            ["primitives"] + source + _SEARCH,
            ["primitives"] + source + _SEARCH + ["--weight", "g1"],
            ["growth"] + source + _SEARCH + ["--power-bound", "3", "--nmax", "8"],
            ["delta"] + source + ["--element", _element(name)],
            ["normalize"] + source + ["--element", _element(name)],
        ]
        for fmt in ("text", "json"):
            out += [argv + ["--format", fmt] for argv in per_format]
    for source in _AT_DEFAULTS:
        for fmt in ("text", "json"):
            out += [[command] + source + ["--format", fmt]
                    for command in ("invariants", "bounds")]
    search = ["--degree", "4", "--group-bound", "2", "--power-bound", "4"]
    out += [["invariants", "fraction-root.json"] + search,
            ["bounds", "fraction-root.json"] + search,
            ["normalize", "fraction-q.json", "--element", "y1 g1"],
            ["delta", "fraction-q.json", "--element", "y1 y2"],
            ["invariants", "fraction-q.json", "--degree", "3", "--group-bound", "2",
             "--power-bound", "3"],
            ["normalize", "fraction-420.json", "--element", "y1 g1"]]
    for name, bounds in _SKIPPING:
        for fmt in ("text", "json"):
            out += [[command, name] + bounds + ["--format", fmt]
                    for command in ("invariants", "bounds", "growth")]
    for s, degree, fmt in ((3, 6, "text"), (4, 5, "json")):
        out.append(["invariants", "--example", "exterior", "--param", "free=true",
                    "--param", "s=%d" % s, "--degree", str(degree), "--group-bound", "1",
                    "--power-bound", "1", "--format", fmt])
    out += [["growth", "tau-square.json"],
            ["delta", "tau-square.json", "--element", "y1 g1"],
            ["normalize", "tau-square.json", "--element", "y1 g1"]]
    for name in ("tau-g1^2.json", "g3-trunc.json", "full-length-group-part.json"):
        for fmt in ("text", "json"):
            out.append(["growth", name] + _SEARCH + ["--power-bound", "3", "--nmax", "8",
                                                     "--format", fmt])
    out += [["primitives", "--example", "qplane", "--param", "v=2", "--weight", weight,
             "--group-bound", "2", "--degree", "5"] for weight in ("g1^5", "1")]
    out += [["normalize", "one-plus-q.json", "--element", "y1 g1^-1"],
            ["delta", "one-plus-q.json", "--element", "y1 g1^-1 y2"],
            ["primitives", "one-plus-q.json", "--degree", "3", "--group-bound", "2"]]
    return out


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__.strip().splitlines()[2])
    out_dir = Path(argv[1])
    src = Path(argv[2]) if len(argv) == 3 else HERE.parent / "src"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, doc in FILES.items():
        (out_dir / name).write_text(json.dumps(doc, indent=1) + "\n")
    listing = []
    for n, cmd in enumerate(commands()):
        done = subprocess.run([sys.executable, "-m", "hopfgrow"] + cmd, cwd=out_dir,
                              capture_output=True, env=env, timeout=60)
        stem = out_dir / ("%03d" % n)
        stem.with_suffix(".out").write_bytes(done.stdout)
        stem.with_suffix(".err").write_bytes(done.stderr)
        stem.with_suffix(".code").write_text("%d\n" % done.returncode)
        listing.append("%03d %s" % (n, " ".join(cmd)))
    (out_dir / "commands").write_text("\n".join(listing) + "\n")
    print("%d commands -> %s" % (len(listing), out_dir))


if __name__ == "__main__":
    main(sys.argv)
