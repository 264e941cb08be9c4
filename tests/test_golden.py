"""Golden CLI transcripts: the exact stdout and exit code of every
subcommand on fixed small inputs, both verdicts where a subcommand has
two, a line-numbered parse error, usage errors, and an internal error
(exit 3)."""

import pytest

import coverkit.oracle
from coverkit.cli import run_command

COEFF = "level 4\nmodulus 2\n0 1\n1 -1*z^2\nmodulus 4\n0 1\n1 -1*z^-2\nmodulus 4\n0 1\n1 -1\n"
CHAIN = (
    ["0,0 2,2"]
    + [f"{a},{b} 4,4" for a in range(4) for b in range(4)]
    + [f"{a},{b} 2,4 -1/2" for a in range(2) for b in range(4)]
)

FILES = {
    "B": "1 2\n2 4\n0 4\n",
    "Bp": "1 2\n2 4\n4 6\n",
    "c": COEFF,
    "c2": COEFF.replace("1 -1\n", "1 1\n"),
    "s": "0 4\n",
    "n": "0 3\n0 5\n0 15\n",
    "m": "0,0 2,2\n1,0 2,3 -1/2\n",
    "chain": "\n".join(CHAIN) + "\n",
    "z": "0 2\n1 2\n0 1 -1\n",
    "w": "0 2 1/2\n1 3 1/3\n",
    "t": "1/2\n1/3\n1/2\n0\n5/6\n1/6\n",
    "bad": "1 2\nx 4\n",
}

TRANSCRIPTS = [
    (
        "verify --target-const 1 B",
        0,
        "window: 4 points from 0\n"
        "covering function matches the target everywhere\n"
        "result|cmd=verify|verdict=matches|witness=none\n",
    ),
    (
        "verify --target-const 1 --start 1 Bp",
        1,
        "window: 8 points from 1\nmismatch witness: x = 8\nresult|cmd=verify|verdict=mismatch|witness=8\n",
    ),
    (
        "verify --target-file t w",
        1,
        "window: 6 points from 0\nmismatch witness: x = 5\nresult|cmd=verify|verdict=mismatch|witness=5\n",
    ),
    ("exact-cover --m 1 B", 0, "exact 1-cover\nresult|cmd=exact-cover|verdict=exact-cover|witness=none\n"),
    (
        "exact-cover --m 1 Bp",
        1,
        "not an exact 1-cover; witness x = 0\nresult|cmd=exact-cover|verdict=not-exact-cover|witness=0\n",
    ),
    ("least-period s", 0, "least period: 4\nresult|cmd=least-period|verdict=4|witness=none\n"),
    ("least-period z", 0, "least period: 1\nresult|cmd=least-period|verdict=1|witness=none\n"),
    (
        "min-window --l 0 --multipliers 1,1,2 n",
        0,
        "window length: 7\nwindow minimum: 0\nglobal minimum: 0\nresult|cmd=min-window|verdict=ok|witness=none\n",
    ),
    (
        "witness --m 2 B",
        0,
        "witness: x = 0 has covering count != 2\nresult|cmd=witness|verdict=witness-found|witness=0\n",
    ),
    (
        "expsum-cover --m 1 c",
        0,
        "sequences: 3\n"
        "every integer is covered at least 1 times\n"
        "result|cmd=expsum-cover|verdict=covers|witness=none\n",
    ),
    (
        "expsum-cover --m 1 c2",
        1,
        "sequences: 3\nuncovered witness: x = 0\nresult|cmd=expsum-cover|verdict=uncovered|witness=0\n",
    ),
    ("multidim-period --n0 2,6 m", 0, "periodic\nresult|cmd=multidim-period|verdict=periodic|witness=none\n"),
    (
        "multidim-period --n0 1,1 m",
        1,
        "not periodic: w(0, 0) != w(1, 0)\n"
        "result|cmd=multidim-period|verdict=not-periodic|witness=0,0:1,0\n",
    ),
    (
        "thm14 --n0 2,2 --d 4,4 chain",
        0,
        "indices: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]\n"
        "coefficient sum: 1\n"
        "theta: ['0', '1/4', '1/2', '3/4']\n"
        "chain: 16 >= 4 >= 2 >= 2\n"
        "result|cmd=thm14|verdict=chain-verified|witness=none\n",
    ),
    (
        "thm14 --n0 2,2 --d 2,2 chain",
        2,
        "not applicable: d divides the period vector\nresult|cmd=thm14|verdict=not-applicable|witness=none\n",
    ),
    ("cor14 --n0 2,6 m", 0, "all moduli divide n0: periodic\nresult|cmd=cor14|verdict=periodic|witness=none\n"),
    (
        "cor14 --n0 1,2 m",
        1,
        "some modulus does not divide n0: not periodic, w(0, 0) != w(1, 0)\n"
        "result|cmd=cor14|verdict=not-periodic|witness=0,0:1,0\n",
    ),
    (
        "zero-coeffs z",
        0,
        "alpha=0: coefficient is zero\n"
        "alpha=1/2: coefficient is zero\n"
        "result|cmd=zero-coeffs|verdict=all-zero|witness=none\n",
    ),
    (
        "average w",
        0,
        "mean value equals the weight/modulus sum\nresult|cmd=average|verdict=identity-holds|witness=none\n",
    ),
    (
        "su6-check B",
        0,
        "subset sums contain every fraction r/n\nresult|cmd=su6-check|verdict=superset-holds|witness=none\n",
    ),
    (
        "su6-check Bp",
        2,
        "error: system does not cover all integers equally often\n"
        "result|cmd=su6-check|verdict=error|witness=none\n",
    ),
    (
        "bench B",
        0,
        "window points: 4\n"
        "full period:   4\n"
        "window time:   1000 ns\n"
        "full time:     1000 ns\n"
        "bench|moduli=2,4,4|S=4|N=4|t_window_ns=1000|t_full_ns=1000|agree=true\n"
        "result|cmd=bench|verdict=agree|witness=none\n",
    ),
    (
        "bench --target-const 2 Bp",
        0,
        "window points: 8\n"
        "full period:   12\n"
        "window time:   1000 ns\n"
        "full time:     1000 ns\n"
        "bench|moduli=2,4,6|S=8|N=12|t_window_ns=1000|t_full_ns=1000|agree=true\n"
        "result|cmd=bench|verdict=agree|witness=none\n",
    ),
    ("window-size Bp", 0, "8\nresult|cmd=window-size|verdict=8|witness=none\n"),
    (
        "exact-cover --m 1 bad",
        2,
        "error: line 2: bad integer vector 'x'\nresult|cmd=exact-cover|verdict=error|witness=none\n",
    ),
]


# usage errors: argparse's usage and message on stderr, the result line on
# stdout, named "none" when no known subcommand was given
USAGE_ERRORS = [
    (
        "exact-cover B",
        "result|cmd=exact-cover|verdict=error|witness=none\n",
        "the following arguments are required: --m",
    ),
    (
        "verify --target-const 1/2 B",
        "result|cmd=verify|verdict=error|witness=none\n",
        "argument --target-const: invalid int value: '1/2'",
    ),
    ("no-such-command B", "result|cmd=none|verdict=error|witness=none\n", "invalid choice: 'no-such-command'"),
]


def raise_memory_error(*args):
    raise MemoryError("no room")


# checks whose failing branch no true theorem reaches, and an internal
# error, forced by replacing the function the CLI calls
FORCED = [
    (
        "weighted_average_check",
        lambda *a: False,
        "average w",
        1,
        "result|cmd=average|verdict=identity-fails|witness=none\n",
    ),
    (
        "equal_cover_superset_check",
        lambda *a: False,
        "su6-check B",
        1,
        "result|cmd=su6-check|verdict=superset-fails|witness=none\n",
    ),
    (
        "least_period",
        raise_memory_error,
        "least-period s",
        3,
        "error: MemoryError: no room\nresult|cmd=least-period|verdict=error|witness=none\n",
    ),
]


@pytest.fixture
def files(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    # bench timings are the one part of a transcript that varies
    monkeypatch.setattr(coverkit.oracle, "_best_ns", lambda check, *args: 1000)


@pytest.mark.parametrize("argv,code,stdout", TRANSCRIPTS, ids=[t[0] for t in TRANSCRIPTS])
def test_transcript(files, capsys, argv, code, stdout):
    assert run_command(argv.split()) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("name,replacement,argv,code,stdout", FORCED, ids=[f[2] for f in FORCED])
def test_forced_transcript(files, capsys, monkeypatch, name, replacement, argv, code, stdout):
    monkeypatch.setattr(f"coverkit.cli.{name}", replacement)
    assert run_command(argv.split()) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("argv,stdout,message", USAGE_ERRORS, ids=[u[0] for u in USAGE_ERRORS])
def test_usage_error_transcript(files, capsys, argv, stdout, message):
    assert run_command(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == stdout
    assert err.startswith("usage: coverkit") and message in err
