"""Command-line interface: parse system files, dispatch subcommands, report.

Exit codes: 0 for verified/true verdicts, 1 for falsified verdicts (with the
witness printed), 2 for usage or hypothesis errors, 3 for an unexpected
failure (any other exception, such as MemoryError).  Every report ends
with one machine-readable line

    result|cmd=<name>|verdict=<str>|witness=<int-or-none>

where <name> is none for a usage error that names no known subcommand,
and a vector witness pair x, y (``multidim-period``, ``cor14``) is
written ``witness=<x1,x2,...>:<y1,y2,...>``.  The bench subcommand
additionally emits its own ``bench|...`` line.  A subcommand returns what
it found as a :class:`Report`; only :func:`run_command` prints.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .covering import (
    DEFAULT_ORACLE_CAP,
    ExpSumSequence,
    PeriodicValueTable,
    System,
    WeightedSequence,
    equal_cover_superset_check,
    expsum_cover_check,
    least_period,
    min_on_window,
    non_exact_witness,
    verify_covering_function,
    weighted_average_check,
    zero_system_coefficients,
)
from .cyclotomic import CyclotomicElement
from .fracsets import phi_sum_cardinality
from .multidim import (
    MultiSequence,
    _divisibility_verdict,
    divisibility_chain_report,
    is_periodic_mod_vec,
)
from .oracle import bench_window_vs_full

__all__ = ["SystemFile", "parse_system", "parse_coefficient_file", "run_command", "main"]


class ParseError(ValueError):
    pass


class SystemFile(NamedTuple):
    """Parsed system description plus the source text it came from."""

    entries: tuple[MultiSequence, ...]
    dim: int
    source: str

    def as_system(self) -> System:
        if self.dim != 1:
            raise ParseError(f"expected a one-dimensional system, got dimension {self.dim}")
        return System(
            tuple(
                WeightedSequence(e.residue[0], e.modulus[0], e.weight) for e in self.entries
            )
        )

    def serialize(self) -> str:
        lines = []
        for e in self.entries:
            a = ",".join(map(str, e.residue))
            n = ",".join(map(str, e.modulus))
            if e.weight == 1:
                lines.append(f"{a} {n}")
            else:
                lines.append(f"{a} {n} {e.weight}")
        return "\n".join(lines) + "\n"


def _lines(text: str):
    """(line number, content) of each line of ``text`` that holds more than
    blanks and a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_int_vector(tok: str, lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in tok.split(","))
    except ValueError:
        raise ParseError(f"line {lineno}: bad integer vector {tok!r}") from None


def _parse_number(tok: str, what: str, lineno: int, kind=Fraction):
    """``kind(tok)``: an int, or a Fraction written as an integer, p/q or a
    decimal.  Exponent notation is refused up front, since
    Fraction("1e10000000") alone runs for seconds."""
    if "e" in tok.lower():
        raise ParseError(f"line {lineno}: bad {what} {tok!r}: exponent notation is refused")
    try:
        return kind(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: bad {what} {tok!r}") from None


def parse_system(text: str) -> SystemFile:
    """Parse a system file: one entry per line, ``<a> <n> [<weight>]`` with
    comma-separated components in the multidimensional case.  Blank lines
    and ``#`` comments are ignored; every entry must share one dimension."""
    entries: list[MultiSequence] = []
    dim = None
    for lineno, line in _lines(text):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'residue modulus [weight]', got {line!r}")
        a = _parse_int_vector(parts[0], lineno)
        n = _parse_int_vector(parts[1], lineno)
        if len(a) != len(n):
            raise ParseError(f"line {lineno}: residue and modulus dimensions differ")
        if dim is None:
            dim = len(a)
        elif len(a) != dim:
            raise ParseError(f"line {lineno}: mixed dimensions ({len(a)} after {dim})")
        if any(c < 1 for c in n):
            raise ParseError(f"line {lineno}: moduli must be positive, got {parts[1]}")
        weight = _parse_number(parts[2], "weight", lineno) if len(parts) == 3 else Fraction(1)
        entries.append(MultiSequence(a, n, weight))
    if not entries:
        raise ParseError("no sequences in input")
    return SystemFile(tuple(entries), dim, text)


# coefficient files: `level N` once, then per sequence a `modulus n` line
# followed by `t <coeff>` lines; a coefficient is a +/- separated sum of
# terms `p`, `p/q`, `z^j` or `p/q*z^j` meaning (p/q) * zeta_level^j
_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+(?:/\d+)?)\s*(?:\*\s*z\^(-?\d+))?|z\^(-?\d+))\s*")


def _parse_coefficient(expr: str, level: int, lineno: int) -> CyclotomicElement:
    terms: list[tuple[int, Fraction]] = []
    pos = 0
    while pos < len(expr):
        m = _TERM_RE.match(expr, pos)
        if not m or m.end() == pos:
            raise ParseError(f"line {lineno}: bad coefficient near {expr[pos:]!r}")
        sign, rat, exp1, exp2 = m.groups()
        if terms and not sign:
            raise ParseError(f"line {lineno}: missing +/- between terms in {expr!r}")
        try:
            coeff = Fraction(rat) if rat else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(f"line {lineno}: zero denominator in {expr!r}") from None
        if sign == "-":
            coeff = -coeff
        exp = exp1 if exp1 is not None else exp2
        terms.append((int(exp) if exp is not None else 0, coeff))
        pos = m.end()
    if not terms:
        raise ParseError(f"line {lineno}: empty coefficient")
    return CyclotomicElement.from_terms(level, terms)


def parse_coefficient_file(text: str) -> list[ExpSumSequence]:
    level = None
    seqs: list[ExpSumSequence] = []
    modulus = None
    terms: list[tuple[int, CyclotomicElement]] = []

    def flush(lineno: int):
        nonlocal modulus, terms
        if modulus is not None:
            if not terms:
                raise ParseError(f"line {lineno}: modulus {modulus} has no terms")
            seqs.append(ExpSumSequence(modulus, tuple(terms)))
        modulus, terms = None, []

    for lineno, line in _lines(text):
        parts = line.split(None, 1)
        if parts[0] in ("level", "modulus") and len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '{parts[0]} N'")
        if parts[0] == "level":
            if level is not None:
                raise ParseError(f"line {lineno}: duplicate level declaration")
            level = _parse_number(parts[1], "level", lineno, int)
            if level < 1:
                raise ParseError(f"line {lineno}: level must be positive")
            # every coefficient is a dense vector of `level` rationals
            if level > DEFAULT_ORACLE_CAP:
                raise ParseError(f"line {lineno}: level {level} exceeds cap {DEFAULT_ORACLE_CAP}")
        elif parts[0] == "modulus":
            if level is None:
                raise ParseError(f"line {lineno}: 'level N' must precede the first modulus")
            flush(lineno)
            modulus = _parse_number(parts[1], "modulus", lineno, int)
            if modulus < 1:
                raise ParseError(f"line {lineno}: modulus must be positive")
        else:
            if modulus is None:
                raise ParseError(f"line {lineno}: term outside a modulus block")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 't <coefficient>'")
            t = _parse_number(parts[0], "term index", lineno, int)
            terms.append((t, _parse_coefficient(parts[1], level, lineno)))
    flush(0)
    if not seqs:
        raise ParseError("no sequences in coefficient file")
    return seqs


# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_target(args) -> PeriodicValueTable:
    if args.target_file is not None:
        lines = _lines(_read(args.target_file))
        values = [_parse_number(line, "target value", lineno) for lineno, line in lines]
        if not values:
            raise ParseError("target file holds no values")
        return PeriodicValueTable(len(values), tuple(values))
    return PeriodicValueTable.constant(args.target_const)


def _vector(args, name: str) -> tuple[int, ...]:
    """The comma-separated integers of option ``--<name>``."""
    text = getattr(args, name)
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError(f"--{name}: expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coverkit",
        description="Exact verification of covering systems and periodic maps.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name: str, help_: str, coeff_file: bool = False) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        kind = "coefficient" if coeff_file else "system"
        sp.add_argument("file", help=f"{kind} file, or - for stdin")
        return sp

    sp = add("verify", "check the covering function against a target via the window criterion")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--target-const", type=int, help="constant target value")
    g.add_argument("--target-file", help="file of target values, one per line (period = line count)")
    sp.add_argument("--start", type=int, default=0)

    sp = add("exact-cover", "decide whether the system is an exact m-cover")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--start", type=int, default=0)

    add("least-period", "least period of the weighted covering function")

    sp = add("min-window", "window length on which the covering function attains its minimum")
    sp.add_argument("--l", type=int, required=True, help="known lower bound of the covering function")
    sp.add_argument("--multipliers", required=True, help="comma-separated, coprime to the moduli")
    sp.add_argument("--start", type=int, default=0)

    sp = add("witness", "find x in the window with covering count != m")
    sp.add_argument("--m", type=int, required=True)

    sp = add("expsum-cover", "window cover check for zero sets of exponential sums", coeff_file=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--start", type=int, default=0)

    sp = add("multidim-period", "test periodicity modulo a vector on a window")
    sp.add_argument("--n0", required=True, help="comma-separated period vector")

    sp = add("thm14", "divisibility counting chain for a divisor vector")
    sp.add_argument("--n0", required=True)
    sp.add_argument("--d", required=True)

    sp = add("cor14", "decide periodicity mod n0 from modulus divisibility")
    sp.add_argument("--n0", required=True)

    add("zero-coeffs", "exact coefficients of a system with identically zero covering function")
    add("average", "check the mean-value identity of the covering function")
    add("su6-check", "subset sums of 1/n contain all fractions r/n (equal covers)")

    sp = add("bench", "time the window check against the full-period scan")
    sp.add_argument("--target-const", type=int, default=1)

    add("window-size", "number of window points for the system's moduli")
    return p


class Report(NamedTuple):
    """What one subcommand found: its exit code, the verdict and witness of
    the ``result|`` line, and the text lines printed before that line."""

    code: int
    verdict: str
    witness: int | tuple[tuple[int, ...], tuple[int, ...]] | None = None
    lines: tuple[str, ...] = ()


def _witness_text(witness) -> str:
    if witness is None:
        return "none"
    if isinstance(witness, tuple):
        return ":".join(",".join(map(str, v)) for v in witness)
    return str(witness)


def _checked(found, holds: tuple[str, str], fails: tuple[str, ...], head=()) -> Report:
    """The report of a pass/fail check ``found``, a Verdict or a bool: exit
    0 with the (verdict, line) ``holds``, else exit 1 with the verdict of
    ``fails`` and the witness, if any, written after its line."""
    if found:
        return Report(0, holds[0], None, (*head, holds[1]))
    w = getattr(found, "witness", None)
    if w is None:
        return Report(1, fails[0], None, head)
    said = f"w{w[0]} != w{w[1]}" if isinstance(w, tuple) else str(w)
    return Report(1, fails[0], w, (*head, fails[1] + said))


def _run(args) -> Report:
    """Execute one subcommand and report what it found; prints nothing."""
    cmd = args.cmd

    if cmd == "expsum-cover":
        exp_seqs = parse_coefficient_file(_read(args.file))
        return _checked(
            expsum_cover_check(exp_seqs, args.m, args.start),
            ("covers", f"every integer is covered at least {args.m} times"),
            ("uncovered", "uncovered witness: x = "),
            (f"sequences: {len(exp_seqs)}",),
        )

    sf = parse_system(_read(args.file))

    if cmd in ("multidim-period", "cor14"):
        n0 = _vector(args, "n0")
        if cmd == "cor14":
            verdict = _divisibility_verdict(sf.entries, n0)
            holds, fails = "all moduli divide n0: periodic", "some modulus does not divide n0: not periodic, "
        else:
            verdict = is_periodic_mod_vec(sf.entries, n0)
            holds, fails = "periodic", "not periodic: "
        return _checked(verdict, ("periodic", holds), ("not-periodic", fails))

    if cmd == "thm14":
        report = divisibility_chain_report(sf.entries, _vector(args, "n0"), _vector(args, "d"))
        if not report.applicable:
            return Report(2, "not-applicable", None, (f"not applicable: {report.reason}",))
        ni, nt, bound, lp = report.chain
        return Report(0, "chain-verified", None, (
            f"indices: {list(report.indices)}",
            f"coefficient sum: {report.coefficient_sum}",
            f"theta: {[str(t) for t in report.theta]}",
            f"chain: {ni} >= {nt} >= {bound} >= {lp}",
        ))

    system = sf.as_system()

    if cmd == "verify":
        verdict = verify_covering_function(system, _read_target(args), args.start)
        return _checked(
            verdict,
            ("matches", "covering function matches the target everywhere"),
            ("mismatch", "mismatch witness: x = "),
            (f"window: {verdict.points} points from {args.start}",),
        )

    if cmd == "exact-cover":
        if args.m < 1:
            raise ParseError(f"m must be positive, got {args.m}")
        return _checked(
            verify_covering_function(system, PeriodicValueTable.constant(args.m), args.start),
            ("exact-cover", f"exact {args.m}-cover"),
            ("not-exact-cover", f"not an exact {args.m}-cover; witness x = "),
        )

    if cmd == "least-period":
        n0 = least_period(system)
        return Report(0, str(n0), None, (f"least period: {n0}",))

    if cmd == "min-window":
        W_l, wmin, gmin = min_on_window(system, _vector(args, "multipliers"), args.l, args.start)
        lines = f"window length: {W_l}", f"window minimum: {wmin}", f"global minimum: {gmin}"
        return Report(0, "ok", None, lines)

    if cmd == "witness":
        x = non_exact_witness(system, args.m)
        return Report(0, "witness-found", x, (f"witness: x = {x} has covering count != {args.m}",))

    if cmd == "zero-coeffs":
        pairs = zero_system_coefficients(system)
        return Report(0, "all-zero", None, tuple(f"alpha={alpha}: coefficient is zero" for alpha, _ in pairs))

    if cmd == "average":
        return _checked(
            weighted_average_check(system),
            ("identity-holds", "mean value equals the weight/modulus sum"),
            ("identity-fails",),
        )

    if cmd == "su6-check":
        return _checked(
            equal_cover_superset_check(system),
            ("superset-holds", "subset sums contain every fraction r/n"),
            ("superset-fails",),
        )

    if cmd == "bench":
        report = bench_window_vs_full(system, PeriodicValueTable.constant(args.target_const))
        return Report(0, "agree" if report.agree else "disagree", None, (
            f"window points: {report.window_points}",
            f"full period:   {report.full_points}",
            f"window time:   {report.t_window_ns} ns",
            f"full time:     {report.t_full_ns} ns",
            report.machine_line(),
        ))

    if cmd == "window-size":
        size = phi_sum_cardinality(system.moduli)
        return Report(0, str(size), None, (str(size),))

    raise AssertionError(f"unhandled command {cmd}")


def run_command(argv=None) -> int:
    """Run one subcommand and print its report, text lines first and the
    ``result|`` line last, also on errors; returns the exit code."""
    # argparse names the subcommand before it parses the subcommand's options
    args = argparse.Namespace(cmd="none")
    try:
        build_parser().parse_args(argv, args)
        report = _run(args)
    except SystemExit as e:
        if e.code == 0:  # --help
            return 0
        # a usage error, which argparse has explained on stderr
        report = Report(2, "error")
    except (ParseError, ValueError, OSError) as e:
        report = Report(2, "error", None, (f"error: {e}",))
    except Exception as e:
        # an internal failure, kept apart from exit 1 ("falsified"); its
        # traceback goes to stderr, so stdout keeps the line protocol
        import traceback

        traceback.print_exc()
        report = Report(3, "error", None, (f"error: {type(e).__name__}: {e}",))
    for line in report.lines:
        print(line)
    print(f"result|cmd={args.cmd}|verdict={report.verdict}|witness={_witness_text(report.witness)}")
    return report.code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
