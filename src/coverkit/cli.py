"""Command-line interface: parse system files, dispatch subcommands, report.

Exit codes: 0 for verified/true verdicts, 1 for falsified verdicts (with the
witness printed), 2 for usage or hypothesis errors, 3 for an unexpected
failure (any other exception, such as MemoryError).  Every report ends
with one machine-readable line

    result|cmd=<name>|verdict=<str>|witness=<int-or-none>

where a vector witness pair x, y (``multidim-period``, ``cor14``) is
written ``witness=<x1,x2,...>:<y1,y2,...>``.  The bench subcommand
additionally emits its own ``bench|...`` line.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class SystemFile:
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


def _parse_int_vector(tok: str, lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in tok.split(","))
    except ValueError:
        raise ParseError(f"line {lineno}: bad integer vector {tok!r}") from None


def parse_system(text: str) -> SystemFile:
    """Parse a system file: one entry per line, ``<a> <n> [<weight>]`` with
    comma-separated components in the multidimensional case.  Blank lines
    and ``#`` comments are ignored; every entry must share one dimension."""
    entries: list[MultiSequence] = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'residue modulus [weight]', got {raw!r}")
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
        weight = Fraction(1)
        if len(parts) == 3:
            try:
                weight = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {lineno}: bad weight {parts[2]!r}") from None
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


def _parse_int(tok: str, what: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what} {tok!r}") from None


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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if parts[0] in ("level", "modulus") and len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '{parts[0]} N'")
        if parts[0] == "level":
            if level is not None:
                raise ParseError(f"line {lineno}: duplicate level declaration")
            level = _parse_int(parts[1], "level", lineno)
            if level < 1:
                raise ParseError(f"line {lineno}: level must be positive")
            # every coefficient is a dense vector of `level` rationals
            if level > DEFAULT_ORACLE_CAP:
                raise ParseError(f"line {lineno}: level {level} exceeds cap {DEFAULT_ORACLE_CAP}")
        elif parts[0] == "modulus":
            if level is None:
                raise ParseError(f"line {lineno}: 'level N' must precede the first modulus")
            flush(lineno)
            modulus = _parse_int(parts[1], "modulus", lineno)
            if modulus < 1:
                raise ParseError(f"line {lineno}: modulus must be positive")
        else:
            if modulus is None:
                raise ParseError(f"line {lineno}: term outside a modulus block")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 't <coefficient>'")
            t = _parse_int(parts[0], "term index", lineno)
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
        values = []
        for lineno, raw in enumerate(_read(args.target_file).splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(Fraction(line))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {lineno}: bad target value {line!r}") from None
        if not values:
            raise ParseError("target file holds no values")
        return PeriodicValueTable(len(values), tuple(values))
    return PeriodicValueTable.constant(args.target_const)


def _csv_vector(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


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


Witness = int | tuple[tuple[int, ...], tuple[int, ...]] | None


def _witness_text(witness: Witness) -> str:
    if witness is None:
        return "none"
    if isinstance(witness, tuple):
        return ":".join(",".join(map(str, v)) for v in witness)
    return str(witness)


def _run(args) -> tuple[int, str, Witness]:
    """Execute one subcommand; returns (exit code, verdict string, witness)."""
    cmd = args.cmd

    if cmd == "expsum-cover":
        exp_seqs = parse_coefficient_file(_read(args.file))
        verdict = expsum_cover_check(exp_seqs, args.m, args.start)
        print(f"sequences: {len(exp_seqs)}")
        if verdict.ok:
            print(f"every integer is covered at least {args.m} times")
            return 0, "covers", None
        print(f"uncovered witness: x = {verdict.witness}")
        return 1, "uncovered", verdict.witness

    sf = parse_system(_read(args.file))

    if cmd == "verify":
        system = sf.as_system()
        target = _read_target(args)
        L = phi_sum_cardinality(system.moduli + [target.period])
        verdict = verify_covering_function(system, target, args.start)
        print(f"window: {L} points from {args.start}")
        if verdict.ok:
            print("covering function matches the target everywhere")
            return 0, "matches", None
        print(f"mismatch witness: x = {verdict.witness}")
        return 1, "mismatch", verdict.witness

    if cmd == "exact-cover":
        system = sf.as_system()
        if args.m < 1:
            raise ParseError(f"m must be positive, got {args.m}")
        target = PeriodicValueTable.constant(args.m)
        verdict = verify_covering_function(system, target, args.start)
        if verdict.ok:
            print(f"exact {args.m}-cover")
            return 0, "exact-cover", None
        print(f"not an exact {args.m}-cover; witness x = {verdict.witness}")
        return 1, "not-exact-cover", verdict.witness

    if cmd == "least-period":
        system = sf.as_system()
        n0 = least_period(system)
        print(f"least period: {n0}")
        return 0, str(n0), None

    if cmd == "min-window":
        system = sf.as_system()
        multipliers = _csv_vector(args.multipliers)
        W_l, wmin, gmin = min_on_window(system, multipliers, args.l, args.start)
        print(f"window length: {W_l}")
        print(f"window minimum: {wmin}")
        print(f"global minimum: {gmin}")
        return 0, "ok", None

    if cmd == "witness":
        system = sf.as_system()
        x = non_exact_witness(system, args.m)
        print(f"witness: x = {x} has covering count != {args.m}")
        return 0, "witness-found", x

    if cmd == "multidim-period":
        verdict = is_periodic_mod_vec(sf.entries, _csv_vector(args.n0))
        if verdict.ok:
            print("periodic")
            return 0, "periodic", None
        x, y = verdict.witness
        print(f"not periodic: w{x} != w{y}")
        return 1, "not-periodic", verdict.witness

    if cmd == "thm14":
        report = divisibility_chain_report(sf.entries, _csv_vector(args.n0), _csv_vector(args.d))
        if not report.applicable:
            print(f"not applicable: {report.reason}")
            return 2, "not-applicable", None
        print(f"indices: {list(report.indices)}")
        print(f"coefficient sum: {report.coefficient_sum}")
        print(f"theta: {[str(t) for t in report.theta]}")
        ni, nt, bound, lp = report.chain
        print(f"chain: {ni} >= {nt} >= {bound} >= {lp}")
        return 0, "chain-verified", None

    if cmd == "cor14":
        verdict = _divisibility_verdict(sf.entries, _csv_vector(args.n0))
        if verdict.ok:
            print("all moduli divide n0: periodic")
            return 0, "periodic", None
        x, y = verdict.witness
        print(f"some modulus does not divide n0: not periodic, w{x} != w{y}")
        return 1, "not-periodic", verdict.witness

    if cmd == "zero-coeffs":
        system = sf.as_system()
        pairs = zero_system_coefficients(system)
        for alpha, _ in pairs:
            print(f"alpha={alpha}: coefficient is zero")
        return 0, "all-zero", None

    if cmd == "average":
        system = sf.as_system()
        ok = weighted_average_check(system)
        if ok:
            print("mean value equals the weight/modulus sum")
            return 0, "identity-holds", None
        return 1, "identity-fails", None

    if cmd == "su6-check":
        system = sf.as_system()
        ok = equal_cover_superset_check(system)
        if ok:
            print("subset sums contain every fraction r/n")
            return 0, "superset-holds", None
        return 1, "superset-fails", None

    if cmd == "bench":
        system = sf.as_system()
        report = bench_window_vs_full(system, PeriodicValueTable.constant(args.target_const))
        print(f"window points: {report.window_points}")
        print(f"full period:   {report.full_points}")
        print(f"window time:   {report.t_window_ns} ns")
        print(f"full time:     {report.t_full_ns} ns")
        print(report.machine_line())
        return 0, "agree" if report.agree else "disagree", None

    if cmd == "window-size":
        system = sf.as_system()
        size = phi_sum_cardinality(system.moduli)
        print(size)
        return 0, str(size), None

    raise AssertionError(f"unhandled command {cmd}")


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2

    try:
        code, verdict, witness = _run(args)
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}")
        print(f"result|cmd={args.cmd}|verdict=error|witness=none")
        return 2
    except Exception as e:
        # an internal failure, kept apart from exit 1 ("falsified"); its
        # traceback goes to stderr, so stdout keeps the line protocol
        import traceback

        traceback.print_exc()
        print(f"error: {type(e).__name__}: {e}")
        print(f"result|cmd={args.cmd}|verdict=error|witness=none")
        return 3
    print(f"result|cmd={args.cmd}|verdict={verdict}|witness={_witness_text(witness)}")
    return code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
