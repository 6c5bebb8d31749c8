"""Command-line front end: caret-function tables, Fock-region field maps,
penumbra comparisons, Airy zero tables and the verification suite.

All numeric CSV output uses 17 significant digits, '.' decimals, ','
separators and LF line endings, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import airy
from . import fock
from . import matching as mt
from . import pekeris as pk
from . import verify as vf
from .quadrature import QuadOptions, QuadratureError

FMT = "%.17g"


def _field_opts() -> QuadOptions:
    """Default field quadrature options, with the TANGENTRAY_RTOL environment
    variable overriding the relative tolerance."""
    rtol = os.environ.get("TANGENTRAY_RTOL")
    if rtol is None:
        return fock.DEFAULT_OPTS
    return dataclasses.replace(fock.DEFAULT_OPTS, rel_tol=float(rtol))


def _fmt(x: float) -> str:
    return FMT % x


def _parse_range(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise SystemExit(f"bad range {spec!r}; expected a:b:n") from exc
    if not (math.isfinite(a) and math.isfinite(b)) or n < 1 or b < a:
        raise SystemExit(f"bad range {spec!r}; need finite a <= b and n >= 1")
    return np.linspace(a, b, n)


def _count(text: str) -> int:
    """A table length: an integer >= 1 (argparse reports anything else)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _boundary(args) -> pk.BoundaryKind:
    if args.bc == "dirichlet":
        return pk.DIRICHLET
    if args.bc == "neumann":
        return pk.NEUMANN
    return pk.robin(complex(args.mu_re, args.mu_im))


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


def cmd_table(args) -> int:
    bc = _boundary(args)
    rows = ["t_re,t_im,bc,p_hat_re,p_hat_im,representation,err"]
    for tre in _parse_range(args.tre_range):
        for tim in _parse_range(args.tim_range):
            t = complex(tre, tim)
            if t == 0:
                rows.append(",".join([_fmt(tre), _fmt(tim), bc.label(),
                                      "nan", "nan", "pole", "nan"]))
                continue
            ev = pk.pekeris_caret(t, bc)
            rows.append(",".join([_fmt(tre), _fmt(tim), bc.label(),
                                  _fmt(ev.value.real), _fmt(ev.value.imag),
                                  ev.representation_used, _fmt(ev.error_estimate)]))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_field(args) -> int:
    cfg = fock.ProblemConfig(_boundary(args), kappa=args.kappa)
    opts = _field_opts()
    rows = ["x_hat,y_hat,n_hat,A_re,A_im,As_re,As_im,err"]
    for xh in _parse_range(args.xhat_range):
        for yh in _parse_range(args.yhat_range):
            pt = fock.FockPoint(xh, yh)
            try:
                if args.rep == "new":
                    sc = fock.scattered_new(pt, cfg, opts)
                    a_s, err = sc.amplitude, sc.error_estimate
                    a = a_s + 1.0
                elif args.rep == "forked":
                    sc = fock.scattered_forked(pt, cfg, opts)
                    a_s, err = sc.amplitude, sc.error_estimate
                    a = a_s + 1.0
                else:
                    tot = fock.total_gamma(pt, cfg, opts)
                    a, err = tot.amplitude, tot.error_estimate
                    a_s = a - 1.0
                rows.append(",".join([_fmt(xh), _fmt(yh), _fmt(cfg.n_hat(pt)),
                                      _fmt(a.real), _fmt(a.imag),
                                      _fmt(a_s.real), _fmt(a_s.imag), _fmt(err)]))
            except (fock.FockDomainError, QuadratureError):
                rows.append(",".join([_fmt(xh), _fmt(yh), _fmt(cfg.n_hat(pt)),
                                      "nan", "nan", "nan", "nan", "nan"]))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_penumbra(args) -> int:
    bc = _boundary(args)
    rows = ["ytilde,ycheck,A_re,A_im,mode"]
    for yt in _parse_range(args.ytilde_range):
        pt = mt.PenumbraPoint(args.x, yt, args.k)
        try:
            if args.mode == "direct":
                a = mt.penumbra_direct(pt, bc)
            else:
                a = mt.penumbra_field(pt, bc, args.mode)
            rows.append(",".join([_fmt(yt), _fmt(pt.y_check),
                                  _fmt(a.real), _fmt(a.imag), args.mode]))
        except (mt.RegimeError, pk.PoleError):
            rows.append(",".join([_fmt(yt), _fmt(pt.y_check), "nan", "nan", args.mode]))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_airy_zeros(args) -> int:
    rows = ["n,eta_n,eta_prime_n"]
    zeros = airy.ai_zeros(args.count)
    prime_zeros = airy.ai_prime_zeros(args.count)
    for n in range(args.count):
        rows.append(",".join([str(n), _fmt(zeros[n]), _fmt(prime_zeros[n])]))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_verify(args) -> int:
    report = vf.run_suite(quick=args.quick)
    text = report.to_json() + "\n"
    _write(args.out, text)
    if args.out not in (None, "-"):
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"{status:4s}  {c.name:32s} measured={c.measured:.3e} "
                  f"{c.compare} {c.tolerance} ({c.runtime:.1f}s)")
        print("overall:", "pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tangentray",
        description="Pekeris caret function and tangent-ray diffraction fields")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_bc(sp):
        sp.add_argument("--bc", choices=["dirichlet", "neumann", "robin"],
                        default="dirichlet")
        sp.add_argument("--mu-re", type=float, default=0.0, dest="mu_re")
        sp.add_argument("--mu-im", type=float, default=0.0, dest="mu_im")

    sp = sub.add_parser("table", help="caret-function values on a complex grid")
    add_bc(sp)
    sp.add_argument("--tre-range", default="-4:4:17", dest="tre_range")
    sp.add_argument("--tim-range", default="-2:2:9", dest="tim_range")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("field", help="Fock-region field map")
    add_bc(sp)
    sp.add_argument("--kappa", type=float, default=0.5)
    sp.add_argument("--xhat-range", default="-2:2:41", dest="xhat_range")
    sp.add_argument("--yhat-range", default="0:4:41", dest="yhat_range")
    sp.add_argument("--rep", choices=["new", "forked", "gamma"], default="new")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_field)

    sp = sub.add_parser("penumbra", help="penumbra-region comparisons")
    add_bc(sp)
    sp.add_argument("--k", type=float, default=1e4)
    sp.add_argument("--x", type=float, default=1.0)
    sp.add_argument("--ytilde-range", default="-1:1:9", dest="ytilde_range")
    sp.add_argument("--mode", choices=["vupper", "iv", "vlower", "uniform", "direct"],
                    default="uniform")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_penumbra)

    sp = sub.add_parser("airy-zeros", help="zero tables of Ai and Ai'")
    sp.add_argument("--count", type=_count, default=50)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_airy_zeros)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify)
    return p


def _one_blas_thread():
    """Pin the OpenBLAS that numpy bundles, if it does, to one thread: the
    kernels' products are small, and a threaded gemm only spends CPU on
    them (the 9x9 Dirichlet ``field --rep new`` grid took 2.1-3.8 s of CPU
    on 2 threads against 0.9-1.0 s on one).  Values do not change."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                return


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _one_blas_thread()
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            return args.fn(args)
    except (ValueError, QuadratureError, airy.RootContinuationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
