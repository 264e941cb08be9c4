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

B_TEXT = "1 2\n2 4\n0 4\n"
BP_TEXT = "1 2\n2 4\n4 6\n"
ZERO_TEXT = "0 2\n1 2\n0 1 -1\n"

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
        ("level 4\nmodulus 2\n0 1 1\n", "missing"),
        ("level\nmodulus 2\n0 1\n", "line 1: expected 'level N'"),
        ("level 4\nmodulus\n0 1\n", "line 2: expected 'modulus N'"),
        ("level x\nmodulus 2\n0 1\n", "line 1: bad level 'x'"),
        ("level 4\nmodulus y\n0 1\n", "line 2: bad modulus 'y'"),
        ("level 4\nmodulus 2\nq 1\n", "line 3: bad term index 'q'"),
        ("level 4\nmodulus 2\n0 1/0\n", "line 3: zero denominator"),
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

    lines = ["0,0 2,2"]
    lines += [f"{a},{b} 4,4" for a in range(4) for b in range(4)]
    lines += [f"{a},{b} 2,4 -1/2" for a in range(2) for b in range(4)]
    g = write(tmp_path, "chain.txt", "\n".join(lines) + "\n")
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
    entries = parse_system(text).entries
    assert multidim_value(entries, x) != multidim_value(entries, y)
    assert run(capsys, cmd, "--n0", "2,6", f)[1].strip().endswith("|witness=none")


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


def test_oracle_cap_refuses_large_period(tmp_path, capsys):
    big = write(tmp_path, "big.txt", "0 1009\n0 1013\n")  # lcm 1022117
    code, out = run(capsys, "average", big)
    assert code == 2 and "period too large" in out
    assert "result|cmd=average|verdict=error|witness=none" in out


def test_window_cap_refuses_before_allocating(tmp_path, capsys):
    # the window for one modulus 10^12 + 39 has that many points
    big = write(tmp_path, "big.txt", "0 1000000000039\n")
    code, out = run(capsys, "exact-cover", "--m", "1", big)
    assert code == 2 and "window too large" in out
    assert "result|cmd=exact-cover|verdict=error|witness=none" in out


def test_console_script(tmp_path):
    """The installed ``coverkit`` script, or ``python -m coverkit`` on the
    imported package when no script is on PATH."""
    exe = shutil.which("coverkit")
    cmd, env = [exe], None
    if exe is None:
        src = str(Path(coverkit.__file__).parents[1])
        path = os.environ.get("PYTHONPATH")
        cmd = [sys.executable, "-m", "coverkit"]
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    b = write(tmp_path, "B.txt", B_TEXT)
    proc = subprocess.run(cmd + ["exact-cover", "--m", "1", b], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "result|cmd=exact-cover|verdict=exact-cover|witness=none" in proc.stdout
