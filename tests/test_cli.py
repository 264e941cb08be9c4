import ast
import io
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coverkit
from coverkit import MultiSequence, multidim_value
from coverkit.cli import ParseError, parse_coefficient_file, parse_system, run_command
from coverkit.covering import Verdict
from coverkit.cyclotomic import CyclotomicElement

B_TEXT = "1 2\n2 4\n0 4\n"
BP_TEXT = "1 2\n2 4\n4 6\n"
ZERO_TEXT = "0 2\n1 2\n0 1 -1\n"

# periodic mod (2, 2), with the thm14 chain 16 >= 4 >= 2 >= 2 for d = (4, 4)
CHAIN_TEXT = "\n".join(
    ["0,0 2,2"]
    + [f"{a},{b} 4,4" for a in range(4) for b in range(4)]
    + [f"{a},{b} 2,4 -1/2" for a in range(2) for b in range(4)]
) + "\n"

COEFF_B = """\
level 4
modulus 2
0 1
1 -1*z^2
modulus 4
0 1
1 -1*z^-2
modulus 4
0 1
1 -1
"""

RESULT_RE = re.compile(
    r"^result\|cmd=[a-z0-9-]+\|verdict=[^|]*\|witness=(none|-?\d+|-?\d+(,-?\d+)*:-?\d+(,-?\d+)*)$"
)


def run(capsys, *argv) -> tuple[int, str]:
    code = run_command(list(argv))
    out = capsys.readouterr().out
    assert RESULT_RE.match(out.strip().splitlines()[-1]), out
    return code, out


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- parsing ----------------------------------------------------------------


def test_parse_system_one_dimensional():
    sf = parse_system(B_TEXT)
    assert sf.dim == 1
    system = sf.as_system()
    assert [(s.residue, s.modulus) for s in system.seqs] == [(1, 2), (2, 4), (0, 4)]


def test_parse_negative_weight_and_residue():
    sf = parse_system("0 1 -1/1\n")
    (e,) = sf.entries
    assert e.weight == -1
    sf = parse_system("-3 4\n")
    assert sf.entries[0].residue == (1,)


def test_parse_multidimensional():
    sf = parse_system("1,0 2,3 1/2\n")
    (e,) = sf.entries
    assert e == MultiSequence((1, 0), (2, 3), Fraction(1, 2))
    with pytest.raises(ParseError, match="one-dimensional"):
        sf.as_system()


def test_parse_comments_and_blanks():
    sf = parse_system("# header\n\n1 2  # trailing\n2 4\n0 4\n")
    assert len(sf.entries) == 3


@pytest.mark.parametrize(
    "text,msg",
    [
        ("1\n", "line 1"),
        ("1 2\n1,0 2,3\n", "mixed dimensions"),
        ("0 0\n", "positive"),
        ("0 2 x\n", "bad weight"),
        ("a 2\n", "bad integer"),
        ("", "no sequences"),
    ],
)
def test_parse_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_system(text)


def test_roundtrip_serialization():
    rng = random.Random(314)
    for dim in (1, 2, 3):
        for _ in range(20):
            lines = []
            for _ in range(rng.randint(1, 5)):
                n = [rng.randint(1, 9) for _ in range(dim)]
                a = [rng.randint(-9, 9) for _ in range(dim)]
                w = rng.choice(["", " 1/2", " -2", " 7/3"])
                lines.append(
                    ",".join(map(str, a)) + " " + ",".join(map(str, n)) + w
                )
            text = "\n".join(lines) + "\n"
            once = parse_system(text)
            twice = parse_system(once.serialize())
            assert once.entries == twice.entries
            assert once.serialize() == twice.serialize()


def test_parse_coefficient_file():
    seqs = parse_coefficient_file(COEFF_B)
    assert [s.modulus for s in seqs] == [2, 4, 4]
    assert seqs[0].membership_table() == (False, True)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("modulus 2\n0 1\n", "level"),
        ("level 4\n0 1\n", "outside a modulus"),
        ("level 4\nlevel 4\n", "duplicate level"),
        ("level 4\nmodulus 2\n0 1+\n", "bad coefficient"),
        ("level 4\nmodulus 2\n0 2 3\n", "missing"),
        ("level 4\nmodulus 2\n", "no terms"),
        ("level 4\nmodulus 2\n0 1\nmodulus 3\n", "line 4: modulus 3 has no terms"),
        ("level 4\nmodulus 2\nmodulus 3\n0 1\n", "line 2: modulus 2 has no terms"),
        ("level 4\nmodulus 2\n0 1 1\n", "missing"),
        ("level\nmodulus 2\n0 1\n", "line 1: expected 'level N'"),
        ("level 4\nmodulus\n0 1\n", "line 2: expected 'modulus N'"),
        ("level x\nmodulus 2\n0 1\n", "line 1: bad level 'x'"),
        ("level 4\nmodulus y\n0 1\n", "line 2: bad modulus 'y'"),
        ("level 4\nmodulus 2\nq 1\n", "line 3: bad term index 'q'"),
        ("level 4\nmodulus 2\n0 1/0\n", "line 3: zero denominator"),
        ("level 1000001\nmodulus 2\n0 1\n", "line 1: level 1000001 exceeds cap 1000000"),
    ],
)
def test_parse_coefficient_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_coefficient_file(text)


def test_malformed_coefficient_file_exits_2(tmp_path, capsys):
    f = write(tmp_path, "c.txt", "level 4\nmodulus\n0 1\n")
    code, out = run(capsys, "expsum-cover", "--m", "1", f)
    assert code == 2 and "line 2" in out


def test_coefficient_terms_grammar():
    seqs = parse_coefficient_file("level 6\nmodulus 2\n0 1/2*z^3+z^-1-2\n1 -z^2\n")
    (s,) = seqs
    assert len(s.terms) == 2


def test_coefficient_parses_with_one_build(monkeypatch):
    """A coefficient's terms are collected and built once, so parsing does
    no element arithmetic: O(level + terms), not O(level * terms)."""
    from coverkit import cyclotomic

    def refused(*args):
        raise AssertionError("element arithmetic while parsing")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(CyclotomicElement, name, refused)
    monkeypatch.setattr(cyclotomic, "root_power", refused)
    (s,) = parse_coefficient_file("level 6\nmodulus 2\n0 1/2*z^3+z^-1-2+3/4*z^9\n1 -z^2+z^8\n")
    c0, c1 = (c for _, c in s.terms)
    monkeypatch.undo()
    F = Fraction
    assert c0.coeffs == (F(-2), F(0), F(0), F(5, 4), F(0), F(1))
    assert c1.coeffs == (F(0), F(0), F(0), F(0), F(0), F(0))


# --- subcommands ------------------------------------------------------------


def test_verify_commands(tmp_path, capsys):
    b = write(tmp_path, "B.txt", B_TEXT)
    bp = write(tmp_path, "Bp.txt", BP_TEXT)
    code, out = run(capsys, "verify", "--target-const", "1", b)
    assert code == 0 and "verdict=matches" in out
    code, out = run(capsys, "verify", "--target-const", "1", "--start", "1", bp)
    assert code == 1 and "witness=8" in out


def test_verify_target_file(tmp_path, capsys):
    b = write(tmp_path, "B.txt", B_TEXT)
    tf = write(tmp_path, "target.txt", "1\n")
    code, out = run(capsys, "verify", "--target-file", tf, b)
    assert code == 0 and "verdict=matches" in out
    tf2 = write(tmp_path, "target2.txt", "1\n1\n0\n1\n")
    code, out = run(capsys, "verify", "--target-file", tf2, b)
    assert code == 1


def test_verify_weighted_system(tmp_path, capsys):
    # w = 1/2 on evens, 1/3 on 1 mod 3, so 5/6 on 4 mod 6
    w = write(tmp_path, "w.txt", "0 2 1/2\n1 3 1/3\n")
    tf = write(tmp_path, "target.txt", "1/2\n1/3\n1/2\n0\n5/6\n0\n")
    code, out = run(capsys, "verify", "--target-file", tf, w)
    assert code == 0 and "verdict=matches" in out
    tf2 = write(tmp_path, "target2.txt", "1/2\n1/3\n1/2\n0\n5/6\n1/6\n")
    code, out = run(capsys, "verify", "--target-file", tf2, w)
    assert code == 1 and "witness=5" in out
    code, out = run(capsys, "exact-cover", "--m", "1", w)
    assert code == 1 and "witness=0" in out


def test_exact_cover_command(tmp_path, capsys):
    b = write(tmp_path, "B.txt", B_TEXT)
    bp = write(tmp_path, "Bp.txt", BP_TEXT)
    assert run(capsys, "exact-cover", "--m", "1", b)[0] == 0
    code, out = run(capsys, "exact-cover", "--m", "1", bp)
    assert code == 1 and "verdict=not-exact-cover" in out
    assert run(capsys, "exact-cover", "--m", "0", b)[0] == 2


def test_least_period_command(tmp_path, capsys):
    f = write(tmp_path, "s.txt", "0 4\n")
    code, out = run(capsys, "least-period", f)
    assert code == 0 and "verdict=4" in out
    z = write(tmp_path, "z.txt", ZERO_TEXT)
    code, out = run(capsys, "least-period", z)
    assert code == 0 and "verdict=1" in out


def test_min_window_command(tmp_path, capsys):
    f = write(tmp_path, "n.txt", "0 3\n0 5\n0 15\n")
    code, out = run(capsys, "min-window", "--l", "0", "--multipliers", "1,1,2", f)
    assert code == 0 and "window length: 7" in out
    code, out = run(capsys, "min-window", "--l", "0", "--multipliers", "1,5,2", f)
    assert code == 2


def test_witness_command(tmp_path, capsys):
    b = write(tmp_path, "B.txt", B_TEXT)
    code, out = run(capsys, "witness", "--m", "2", b)
    assert code == 0 and "verdict=witness-found|witness=0" in out
    assert run(capsys, "witness", "--m", "0", b)[0] == 2


def test_expsum_command(tmp_path, capsys):
    f = write(tmp_path, "c.txt", COEFF_B)
    code, out = run(capsys, "expsum-cover", "--m", "1", f)
    assert code == 0 and "verdict=covers" in out
    broken = COEFF_B.replace("1 -1\n", "1 1\n")
    f2 = write(tmp_path, "c2.txt", broken)
    code, out = run(capsys, "expsum-cover", "--m", "1", f2)
    assert code == 1 and "witness=0" in out


def test_multidim_commands(tmp_path, capsys):
    f = write(tmp_path, "m.txt", "0,0 2,2\n")
    assert run(capsys, "multidim-period", "--n0", "2,2", f)[0] == 0
    code, out = run(capsys, "multidim-period", "--n0", "1,1", f)
    assert code == 1 and "verdict=not-periodic" in out

    g = write(tmp_path, "chain.txt", CHAIN_TEXT)
    code, out = run(capsys, "thm14", "--n0", "2,2", "--d", "4,4", g)
    assert code == 0 and "chain: 16 >= 4 >= 2 >= 2" in out
    code, out = run(capsys, "thm14", "--n0", "2,2", "--d", "2,2", g)
    assert code == 2 and "verdict=not-applicable" in out

    assert run(capsys, "cor14", "--n0", "2,2", f)[0] == 0
    assert run(capsys, "cor14", "--n0", "1,2", f)[0] == 1
    dup = write(tmp_path, "dup.txt", "0,0 2,2\n1,1 2,2\n")
    assert run(capsys, "cor14", "--n0", "2,2", dup)[0] == 2


def vector_witness(out: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    text = out.strip().splitlines()[-1].rsplit("|witness=", 1)[1]
    x, y = text.split(":")
    return tuple(map(int, x.split(","))), tuple(map(int, y.split(",")))


@pytest.mark.parametrize("cmd,n0", [("multidim-period", "1,1"), ("cor14", "1,2")])
def test_vector_witness_in_machine_line(tmp_path, capsys, cmd, n0):
    text = "0,0 2,2\n1,0 2,3 -1/2\n"
    f = write(tmp_path, "m.txt", text)
    code, out = run(capsys, cmd, "--n0", n0, f)
    assert code == 1 and "verdict=not-periodic" in out
    x, y = vector_witness(out)
    assert f"w{x} != w{y}" in out
    a, b = map(int, n0.split(","))
    assert tuple(v - u for u, v in zip(x, y)) in [(a, 0), (0, b)]
    entries = [MultiSequence(*e) for e in parse_system(text).entries]
    assert multidim_value(entries, x) != multidim_value(entries, y)
    assert run(capsys, cmd, "--n0", "2,6", f)[1].strip().endswith("|witness=none")


def test_cor14_checks_periodicity_once(tmp_path, capsys, monkeypatch):
    """A non-periodic cor14 request takes its witness from the one check
    that also confirms the divisibility decision."""
    calls = []
    check = coverkit.multidim.is_periodic_mod_vec
    monkeypatch.setattr(coverkit.multidim, "is_periodic_mod_vec", lambda *a: calls.append(a) or check(*a))
    f = write(tmp_path, "m.txt", "0,0 2,2\n1,0 2,3 -1/2\n")
    for n0, code in (("1,2", 1), ("2,6", 0)):
        calls.clear()
        assert run(capsys, "cor14", "--n0", n0, f)[0] == code
        assert len(calls) == 1


def test_verify_computes_its_window_once(tmp_path, capsys, monkeypatch):
    """The window length that verify prints is the one its check scanned."""
    calls = []
    size = coverkit.covering.phi_sum_cardinality
    for module in (coverkit.covering, coverkit.fracsets):
        monkeypatch.setattr(module, "phi_sum_cardinality", lambda m: calls.append(m) or size(m))
    bp = write(tmp_path, "Bp.txt", BP_TEXT)
    code, out = run(capsys, "verify", "--target-const", "1", "--start", "1", bp)
    assert code == 1 and out.startswith("window: 8 points from 1\n")
    assert calls == [[2, 4, 6, 1]]


def test_zero_coeffs_command(tmp_path, capsys):
    z = write(tmp_path, "z.txt", ZERO_TEXT)
    code, out = run(capsys, "zero-coeffs", z)
    assert code == 0 and "verdict=all-zero" in out
    b = write(tmp_path, "B.txt", B_TEXT)
    assert run(capsys, "zero-coeffs", b)[0] == 2


def test_average_su6_commands(tmp_path, capsys):
    b = write(tmp_path, "B.txt", B_TEXT)
    bp = write(tmp_path, "Bp.txt", BP_TEXT)
    assert run(capsys, "average", b)[0] == 0
    assert run(capsys, "su6-check", b)[0] == 0
    assert run(capsys, "su6-check", bp)[0] == 2


def test_bench_command(tmp_path, capsys):
    b = write(tmp_path, "B.txt", B_TEXT)
    code, out = run(capsys, "bench", b)
    assert code == 0
    assert re.search(r"^bench\|moduli=2,4,4\|S=4\|N=4\|", out, re.M)


def _disagreeing(check):
    return lambda *a: Verdict(not check(*a).ok)


@pytest.mark.parametrize(
    "module,name,fake,argv,text,message",
    [
        (
            "oracle", "brute_cover_verdict", lambda *a: Verdict(False, 0),
            ["bench"], B_TEXT, "window verdict .* disagrees with full-period verdict",
        ),
        (
            "multidim", "least_prime_factor", lambda n: 10**9,
            ["thm14", "--n0", "2,2", "--d", "4,4"], CHAIN_TEXT, "divisibility chain violated",
        ),
        (
            "multidim", "is_periodic_mod_vec", _disagreeing(coverkit.multidim.is_periodic_mod_vec),
            ["cor14", "--n0", "2,2"], "0,0 2,2\n", "divisibility decision disagrees",
        ),
        (
            "covering", "_unit_terms", lambda system, q: [(0, Fraction(1))],
            ["zero-coeffs"], ZERO_TEXT, r"c_\(1/1\) != 0 in a zero system",
        ),
    ],
    ids=["bench", "thm14", "cor14", "zero-coeffs"],
)  # fmt: skip
def test_a_failed_cross_check_exits_3(
    tmp_path, capsys, monkeypatch, module, name, fake, argv, text, message
):
    """Each verdict's cross-check raises AssertionError when it fails, and
    the CLI reports that as an internal failure, exit 3."""
    monkeypatch.setattr(getattr(coverkit, module), name, fake)
    code, out = run(capsys, *argv, write(tmp_path, "in.txt", text))
    assert code == 3 and re.search(f"error: AssertionError: {message}", out), out


def test_optimized_interpreter_keeps_the_bench_cross_check(tmp_path):
    """``python -O`` strips assert statements; the bench cross-check is a
    raise, so a disagreeing full-period verdict still exits 3."""
    b = write(tmp_path, "B.txt", B_TEXT)
    code = (
        "import sys\n"
        "if __debug__:\n    sys.exit('not optimized')\n"
        "import coverkit.oracle\n"
        "from coverkit.covering import Verdict\n"
        "coverkit.oracle.brute_cover_verdict = lambda *a: Verdict(False, 0)\n"
        "from coverkit.cli import run_command\n"
        f"sys.exit(run_command(['bench', {b!r}]))\n"
    )
    cmd = [sys.executable, "-O", "-c", code]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "result|cmd=bench|verdict=error|witness=none"


def test_window_size_command(tmp_path, capsys):
    bp = write(tmp_path, "Bp.txt", BP_TEXT)
    code, out = run(capsys, "window-size", bp)
    assert code == 0 and out.splitlines()[0] == "8"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(B_TEXT))
    code, out = run(capsys, "least-period", "-")
    assert code == 0 and "verdict=1" in out


def test_deterministic_output(tmp_path, capsys):
    bp = write(tmp_path, "Bp.txt", BP_TEXT)
    outs = set()
    for _ in range(3):
        outs.add(run(capsys, "verify", "--target-const", "1", "--start", "1", bp)[1])
        outs.add(run(capsys, "verify", "--target-const", "1", "--start", "1", bp)[1])
    assert len(outs) == 1


def test_usage_errors(tmp_path, capsys):
    b = write(tmp_path, "B.txt", B_TEXT)
    assert run_command(["no-such-command", b]) == 2
    capsys.readouterr()
    assert run_command(["exact-cover", b]) == 2  # missing --m
    capsys.readouterr()
    assert run(capsys, "least-period", str(tmp_path / "missing.txt"))[0] == 2
    bad = write(tmp_path, "bad.txt", "1 2\n1,0 2,3\n")
    assert run(capsys, "least-period", bad)[0] == 2


@pytest.mark.parametrize(
    "argv,option",
    [
        (["multidim-period", "--n0", "1,x"], "--n0: expected comma-separated integers, got '1,x'"),
        (["cor14", "--n0", ""], "--n0: expected comma-separated integers, got ''"),
        (["thm14", "--n0", "2,2", "--d", "4,,4"], "--d: expected comma-separated integers, got '4,,4'"),
        (
            ["min-window", "--l", "0", "--multipliers", "1,1.5"],
            "--multipliers: expected comma-separated integers, got '1,1.5'",
        ),
    ],
)
def test_bad_vector_option_names_itself(tmp_path, capsys, argv, option):
    dim = 1 if argv[0] == "min-window" else 2
    f = write(tmp_path, "s.txt", ",".join(["0"] * dim) + " " + ",".join(["2"] * dim) + "\n")
    code, out = run(capsys, *argv, f)
    assert code == 2
    assert out.splitlines() == [f"error: {option}", f"result|cmd={argv[0]}|verdict=error|witness=none"]


def test_exponent_notation_is_refused_before_parsing(tmp_path, capsys, monkeypatch):
    """Fraction("1e10000000") alone runs for seconds, so a weight or a
    target value in exponent notation is refused before Fraction sees it;
    decimals are still read."""

    def fraction(value=0, *rest):
        assert not (isinstance(value, str) and "e" in value.lower()), value
        return Fraction(value, *rest)

    monkeypatch.setattr("coverkit.cli.Fraction", fraction)
    w = write(tmp_path, "w.txt", "0 2\n1 2 1E10000000\n")
    code, out = run(capsys, "exact-cover", "--m", "1", w)
    assert code == 2 and "error: line 2: bad weight '1E10000000': exponent notation is refused" in out
    b = write(tmp_path, "B.txt", B_TEXT)
    tf = write(tmp_path, "t.txt", "1\n# two\n\n1e30000000\n")
    code, out = run(capsys, "verify", "--target-file", tf, b)
    assert code == 2 and "error: line 4: bad target value '1e30000000': exponent notation is refused" in out
    halves = write(tmp_path, "h.txt", "0 2 0.5\n0 2 1/2\n1 2 1.0\n")
    assert run(capsys, "exact-cover", "--m", "1", halves)[0] == 0
    half = write(tmp_path, "half.txt", "0 1 0.5\n")
    assert run(capsys, "verify", "--target-file", write(tmp_path, "t2.txt", "0.5\n"), half)[0] == 0


def test_least_period_refuses_a_level_past_the_cap(tmp_path, capsys):
    # each zero test builds a dense element of level q, up to the largest
    # modulus: 2 * (10^12 + 39) entries here
    f = write(tmp_path, "big.txt", "0 1000000000039\n1 2000000000078\n")
    code, out = run(capsys, "least-period", f)
    assert code == 2
    assert out.splitlines() == [
        "error: cyclotomic level too large: 2000000000078 points exceed cap 1000000",
        "result|cmd=least-period|verdict=error|witness=none",
    ]


def test_oracle_cap_refuses_large_period(tmp_path, capsys):
    big = write(tmp_path, "big.txt", "0 1009\n0 1013\n")  # lcm 1022117
    code, out = run(capsys, "average", big)
    assert code == 2 and "period too large" in out
    assert "result|cmd=average|verdict=error|witness=none" in out


def test_hypothesis_checks_past_the_period_cap(tmp_path, capsys):
    # lcm 1.04e9 and 1022117: min-window and zero-coeffs test their
    # hypotheses on windows of 8 and 2021 points
    f = write(tmp_path, "m.txt", "0 1\n0 1009\n1 1013\n2 1019\n")
    code, out = run(capsys, "min-window", "--l", "1", "--multipliers", "1,1,1,1", f)
    assert code == 0 and "window length: 8" in out and "global minimum: 1" in out
    lines = ["0 1 -1"] + [f"{r} {n} 1/2" for n in (1009, 1013) for r in range(n)]
    z = write(tmp_path, "z.txt", "\n".join(lines) + "\n")
    code, out = run(capsys, "zero-coeffs", z)
    assert code == 0 and "verdict=all-zero" in out and out.count("coefficient is zero") == 2021


def test_window_cap_refuses_before_allocating(tmp_path, capsys):
    # the window for one modulus 10^12 + 39 has that many points
    big = write(tmp_path, "big.txt", "0 1000000000039\n")
    code, out = run(capsys, "exact-cover", "--m", "1", big)
    assert code == 2 and "window too large" in out
    assert "result|cmd=exact-cover|verdict=error|witness=none" in out
    # two sums with a term at every t/1009 and every t/1013: the window is
    # their sumset, 1009 * 1013 = 1022117 points
    blocks = (f"modulus {n}\n" + "".join(f"{t} 1\n" for t in range(n)) for n in (1009, 1013))
    coeffs = write(tmp_path, "c.txt", "level 1\n" + "".join(blocks))
    code, out = run(capsys, "expsum-cover", "--m", "1", coeffs)
    assert code == 2 and "window too large: 1022117 points" in out
    assert "result|cmd=expsum-cover|verdict=error|witness=none" in out


@pytest.mark.parametrize(
    "text,points",
    [
        # a modulus near the level cap: every point is a level-n vector
        ("level 999983\nmodulus 999979\n0 1\n1 -1\n", 999979 * 999979 * 999983),
        # a small level, but a level-n vector at each of n points
        ("level 3\nmodulus 1000003\n0 1\n1 -1*z^1\n", 1000003 * 3000009),
    ],
)
def test_expsum_refuses_a_zero_set_table_past_the_cap(tmp_path, capsys, text, points):
    f = write(tmp_path, "c.txt", text)
    code, out = run(capsys, "expsum-cover", "--m", "1", f)
    assert code == 2 and f"zero-set table too large: {points} points" in out
    assert "result|cmd=expsum-cover|verdict=error|witness=none" in out


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    """Exit 1 means falsified and nothing else: any other exception is
    reported with its type, keeps the result line, and exits 3."""
    b = write(tmp_path, "B.txt", B_TEXT)
    for exc in (MemoryError("no room"), AssertionError("broken invariant"), RecursionError()):

        def fail(args, exc=exc):
            raise exc

        monkeypatch.setattr("coverkit.cli._run", fail)
        assert run_command(["least-period", b]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            f"error: {type(exc).__name__}: {exc}",
            "result|cmd=least-period|verdict=error|witness=none",
        ]
        assert err.startswith("Traceback") and type(exc).__name__ in err


def subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports this coverkit."""
    src = str(Path(coverkit.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def test_module_entry_points_agree(tmp_path):
    """``python -m coverkit.cli`` runs the CLI just as ``python -m coverkit``."""
    b = write(tmp_path, "B.txt", B_TEXT)
    bp = write(tmp_path, "Bp.txt", BP_TEXT)
    for path, code in ((b, 0), (bp, 1)):
        results = set()
        for module in ("coverkit.cli", "coverkit"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "exact-cover", "--m", "1", path],
                capture_output=True,
                text=True,
                env=subprocess_env(),
            )
            assert proc.returncode == code
            results.add(proc.stdout.splitlines()[-1])
        assert len(results) == 1 and results.pop().startswith("result|cmd=exact-cover|")


def loaded_after(code: str, *names: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; which of the modules ``names``
    it imported."""
    probe = code + f"\nimport sys\nprint(sorted({set(names)!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env(), check=True
    )
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


RUN_CLI = "from coverkit.cli import run_command\nassert run_command({!r}) == {}"


def test_numpy_loads_only_for_a_scan(tmp_path):
    """Importing the package and the CLI, the subcommands that scan no
    array, short window checks and short reads of w (min-window), also
    periodicity mod a vector on a small box, leave numpy unloaded; a
    window or a box past the kernels' list work loads it.  A window check
    whose work lies between the warm and the cold list work stays on lists
    in a fresh process, so it leaves numpy unloaded too."""
    b = write(tmp_path, "B.txt", B_TEXT)
    quarters = write(tmp_path, "quarters.txt", "0 2\n1 4\n3 4\n")
    big = write(tmp_path, "big.txt", "0 6000000000054\n1 10000000000000061\n")
    coeffs = write(tmp_path, "c.txt", COEFF_B)
    # w = 1 everywhere, on a window of 2003 points
    long = write(tmp_path, "long.txt", "0 1\n0 2003\n0 2003 -1\n")
    # distinct maximal moduli (2,3) and (4,1), so cor14 applies; neither
    # file is periodic mod its n0
    box = write(tmp_path, "box.txt", "0,0 2,3\n1,1 4,1\n")
    # a 60 x 60 box, past the list work
    wide = write(tmp_path, "wide.txt", "0,0 60,60\n")
    assert not loaded_after("import coverkit, coverkit.cli", "numpy")
    for argv in (
        ["least-period", b],
        ["window-size", big],
        ["exact-cover", "--m", "1", b],
        ["verify", "--target-const", "1", b],
        ["witness", "--m", "2", b],
        ["expsum-cover", "--m", "1", coeffs],
        ["min-window", "--l", "1", "--multipliers", "1,1,3", quarters],
    ):
        assert not loaded_after(RUN_CLI.format(argv, 0), "numpy"), argv
    for argv in (["multidim-period", "--n0", "2,3", box], ["cor14", "--n0", "2,3", box]):
        assert not loaded_after(RUN_CLI.format(argv, 1), "numpy"), argv
    assert loaded_after(RUN_CLI.format(["exact-cover", "--m", "1", long], 0), "numpy")
    assert loaded_after(RUN_CLI.format(["multidim-period", "--n0", "1,1", wide], 1), "numpy")
    # w = 1 everywhere, on a window of 500 points: work 1506
    mid = write(tmp_path, "mid.txt", "0 1\n0 500\n0 500 -1\n")
    assert not loaded_after(RUN_CLI.format(["exact-cover", "--m", "1", mid], 0), "numpy")


SUBMODULES = {f"coverkit.{p.stem}" for p in Path(coverkit.__file__).parent.glob("*.py")} - {"coverkit.__init__"}


def test_each_subcommand_loads_only_its_modules(tmp_path):
    """The package and the CLI load no module until a subcommand calls it:
    window-size runs on fracsets and numtheory alone, the window checks
    load no zero test and no oracle, and periodicity mod a vector no zero
    test either."""
    b = write(tmp_path, "B.txt", B_TEXT)
    box = write(tmp_path, "box.txt", "0,0 2,3\n1,1 4,1\n")

    def loaded(code):
        return {name.removeprefix("coverkit.") for name in loaded_after(code, *SUBMODULES)}

    assert loaded("import coverkit") == set()
    assert loaded("import coverkit.cli") == {"cli"}
    assert loaded(RUN_CLI.format(["window-size", b], 0)) == {"cli", "fracsets", "numtheory"}
    for argv in (["exact-cover", "--m", "1", b], ["verify", "--target-const", "1", b], ["witness", "--m", "2", b]):
        assert not loaded(RUN_CLI.format(argv, 0)) & {"cyclotomic", "multidim", "oracle"}, argv
    assert not loaded(RUN_CLI.format(["multidim-period", "--n0", "2,3", box], 1)) & {"cyclotomic", "oracle"}
    assert "oracle" in loaded(RUN_CLI.format(["bench", b], 0))


def test_package_names_resolve_on_first_use():
    """Every public name of the package is the object its home module
    defines, ``dir`` and ``import *`` see all of them, and an unknown name
    is an AttributeError that names it."""
    for name in coverkit.__all__:
        obj = getattr(coverkit, name)
        assert obj.__module__ in SUBMODULES and obj is getattr(sys.modules[obj.__module__], name), name
    assert set(coverkit.__all__) <= set(dir(coverkit))
    namespace = {}
    exec("from coverkit import *", namespace)
    assert all(namespace[name] is getattr(coverkit, name) for name in coverkit.__all__)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        coverkit.no_such_name


def test_records_need_no_dataclasses(tmp_path):
    """The record types are named tuples, so neither the package, the CLI
    nor a short check loads ``dataclasses`` or the ``inspect`` it imports."""
    b = write(tmp_path, "B.txt", B_TEXT)
    for code in ("import coverkit", "import coverkit.cli", RUN_CLI.format(["exact-cover", "--m", "1", b], 0)):
        assert loaded_after(code, "dataclasses", "inspect") == set(), code


def test_only_kernels_import_numpy():
    package = Path(coverkit.__file__).parent
    importers = sorted(p.name for p in package.rglob("*.py") if "import numpy" in p.read_text())
    assert importers == ["_kernels.py"]


def test_only_kernels_name_integer_widths():
    """_kernels._plan alone picks the path and the width a scan runs in:
    no other module names a width, the ladder, the guard or either list
    work, or builds an object array."""
    package = Path(coverkit.__file__).parent
    for pattern in (r"\bint(8|16|32|64)\b", r"\b(_LIST_WORK|_WARM_LIST_WORK|_INT64_GUARD|_WIDTHS)\b", r"dtype=object"):
        naming = sorted(p.name for p in package.rglob("*.py") if re.search(pattern, p.read_text()))
        assert naming == ["_kernels.py"], pattern


def test_window_size_of_a_large_prime(tmp_path, capsys):
    n = 10**16 + 61  # prime: the window is every fraction r/n and 0
    code, out = run(capsys, "window-size", write(tmp_path, "p.txt", f"0 {n}\n"))
    assert code == 0 and out.splitlines()[0] == str(n)
    # window lengths need no factoring: one modulus holding the lcm is its
    # own window, and coprime moduli n1, n2 give n1 + n2 - 1
    code, out = run(capsys, "window-size", write(tmp_path, "own.txt", f"0 {2**89 - 1}\n"))
    assert code == 0 and out.splitlines()[0] == str(2**89 - 1)
    past = write(tmp_path, "past.txt", f"0 2\n0 {2**89 - 1}\n")
    code, out = run(capsys, "window-size", past)
    assert code == 0 and out.splitlines()[0] == str(2**89)
    # the witness refuses its 2^89-point window before it factors 2^89 - 1
    code, out = run(capsys, "witness", "--m", "2", past)
    assert code == 2 and "window too large" in out


def test_console_script(tmp_path):
    """The installed ``coverkit`` script, or ``python -m coverkit`` on the
    imported package when no script is on PATH."""
    exe = shutil.which("coverkit")
    cmd, env = [exe], None
    if exe is None:
        cmd, env = [sys.executable, "-m", "coverkit"], subprocess_env()
    b = write(tmp_path, "B.txt", B_TEXT)
    proc = subprocess.run(cmd + ["exact-cover", "--m", "1", b], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "result|cmd=exact-cover|verdict=exact-cover|witness=none" in proc.stdout
