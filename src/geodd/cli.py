"""Command-line front end: parse plant files, run analyze/solve/verify,
emit compensators, certificates, and reports.

Problem files are UTF-8 JSON with the matrix names used throughout the
package (A, B, H, C, D_y, G_y, E, D_z, G_z), a dims block, a time_domain
string, and an optional tolerances block, the one place a run's
tolerances are set. Matrices may be nested row lists or flat row-major
arrays. A run is a function of its files: no flag sets a tolerance, a
seed or a sample count.

Exit codes: 0 solved/verified/analysis-clean, 1 usage or parse error,
2 infeasible (or failed verification), 3 well-posedness obstruction,
4 numerical failure. A `solve` that the analysis refuses writes the verdict
of its exit code and names it on stderr. A tolerance override that is not a
finite number, or that `ToleranceProfile` rejects, is a parse error (exit 1)
naming its field.

A result file is exactly `json.dumps(payload, indent=2, sort_keys=True)`
followed by a newline; `_write_result` writes that text directly, without
the pure-Python encoder that `indent` selects (a matrix of floats from
one repr of a list), and a test pins the bytes. It writes over an
existing file in place, without truncating it on open, and then cuts a
regular file to the new text's length, so a longer stale file leaves no
tail. The encoded text goes to the descriptor by raw `os.write` calls,
repeated over partial writes, and the cut is an `os.ftruncate` on the same
descriptor: no text file object stands between. An `--output` that cannot
be written (a missing directory, a directory, a full device) is an error
naming the path (exit 1), and the descriptor is closed.

`parse_problem` and `parse_compensator` build each matrix once, check its
shape and finiteness once, and hand it to `PlantSystem._checked` or
`Compensator._checked`, which freeze it in place: one copy and one
finiteness pass per matrix, with the messages of those checks.

The parser is built once per process and reused by every `main` call.
`main` reads a subcommand's arguments with that command's own parser, as
the full parse does, and runs the full parse only where argv names no
command or that parser leaves arguments over, so the Namespace, exit code
and usage text are those of the full parse.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys as _sys

import numpy as np

from .errors import (
    GeoddError,
    Infeasible,
    InvalidInput,
    ParseError,
    ShapeError,
    WellPosednessObstruction,
)
from .lattice import _MATRIX_SHAPES, PlantSystem
from .subspaces import CONTINUOUS, DISCRETE, ToleranceProfile
from .synthesis import (
    Compensator,
    analysis_pair,
    analyze_p1,
    analyze_p2,
    close_loop,
    recover_parameters,
    solve_certified,
)
from .verify import certify_decoupled, default_lambdas, transfer_samples

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_OBSTRUCTION = 3
EXIT_NUMERICAL = 4


def _parse_matrix(name: str, raw, shape=None) -> np.ndarray:
    """A finite float matrix of the given shape (nested rows, or flat
    row-major when the shape is given), or any 2-D one when it is not."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as err:
        raise ParseError(f"matrix {name} is not numeric: {err}") from None
    if shape is None:
        if arr.ndim != 2:
            raise ShapeError(f"matrix {name} must be a list of rows, got {arr.ndim}-D")
    elif arr.ndim == 1:
        rows, cols = shape
        if arr.size != rows * cols:
            raise ShapeError(
                f"matrix {name} has {arr.size} entries, expected {rows}x{cols}")
        arr = arr.reshape(rows, cols)
    elif arr.shape != tuple(shape):
        raise ShapeError(
            f"matrix {name} has shape {arr.shape}, expected {tuple(shape)}")
    if arr.size and not np.isfinite(arr).all():
        raise ParseError(f"matrix {name} contains non-finite entries")
    return arr


def _load_json(path: str):
    """The decoded JSON of a file; ParseError when it cannot be read as
    UTF-8 JSON text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as err:
        raise ParseError(f"{path}: cannot read: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from None


def parse_problem(path: str):
    """Read a plant file; returns (PlantSystem, ToleranceProfile)."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    dims = data.get("dims")
    if not isinstance(dims, dict):
        raise ParseError(f"{path}: missing dims block")
    for key in ("n", "m", "q", "p", "r"):
        value = dims.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParseError(f"{path}: dims.{key} must be a nonnegative integer")
    matrices = {}
    for name, (rows, cols) in _MATRIX_SHAPES.items():
        if name not in data:
            raise ParseError(f"{path}: missing matrix {name}")
        matrices[name] = _parse_matrix(name, data[name], (dims[rows], dims[cols]))
    domain = data.get("time_domain", CONTINUOUS)
    if domain not in (CONTINUOUS, DISCRETE):
        raise ParseError(f"{path}: time_domain must be continuous or discrete")
    overrides = data.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ParseError(f"{path}: tolerances must be an object")
    known = {"rank_rel", "angle", "residual"}
    unknown = set(overrides) - known
    if unknown:
        raise ParseError(f"{path}: unknown tolerance fields {sorted(unknown)}")
    for key, value in overrides.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ParseError(
                f"{path}: tolerances.{key} must be a finite number, got {value!r}")
    try:
        tol = ToleranceProfile(**{k: float(v) for k, v in overrides.items()})
    except InvalidInput as err:
        # the profile's messages begin with the field they reject
        raise ParseError(f"{path}: tolerances.{err}") from None
    # the matrices are fresh, finite and fit the dims: the plant adopts them
    return PlantSystem._checked(matrices, domain), tol


def problem_dict(sys_: PlantSystem) -> dict:
    """Normalized serialization; parse(serialize(sys)) round-trips."""
    out = {
        "dims": {"n": sys_.n, "m": sys_.m, "q": sys_.q, "p": sys_.p, "r": sys_.r},
        "time_domain": sys_.time_domain,
    }
    for name in _MATRIX_SHAPES:
        out[name] = getattr(sys_, name).tolist()
    return out


def parse_compensator(path: str) -> Compensator:
    """Read a compensator file, or the compensator of a solve result.

    Like a plant file it must be a JSON object whose four matrices A_c,
    B_c, C_c, D_c are finite and numeric; they are given as lists of rows
    and must fit together (A_c square, B_c and C_c matching its order, D_c
    matching their ports). A matrix with no rows is `[]`, as
    `compensator_dict` writes it: A_c and B_c of a zero-order compensator,
    C_c and D_c of one with no inputs (m = 0). Such a matrix takes its
    width from the others: the order for C_c, and for B_c and D_c the
    width of whichever of the two has rows. Where neither has (order 0
    and m = 0) the file holds no width at all, and B_c and D_c come back
    0 x 0. Errors name the matrix.
    """
    data = _load_json(path)
    if isinstance(data, dict) and "compensator" in data:
        data = data["compensator"]
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    mats = {}
    for name in ("A_c", "B_c", "C_c", "D_c"):
        if name not in data:
            raise ParseError(f"{path}: missing compensator matrix {name!r}")
        if data[name] != []:
            mats[name] = _parse_matrix(name, data[name])
    order = mats["A_c"].shape[0] if "A_c" in mats else 0
    p = next((mats[name].shape[1] for name in ("B_c", "D_c") if name in mats), 0)
    m = next((mats[name].shape[0] for name in ("C_c", "D_c") if name in mats), 0)
    expected = {"A_c": (order, order), "B_c": (order, p), "C_c": (m, order),
                "D_c": (m, p)}
    for name, shape in expected.items():
        if name not in mats:
            mats[name] = np.zeros((0, shape[1]))
        if mats[name].shape != shape:
            raise ShapeError(
                f"matrix {name} has shape {mats[name].shape}, expected {shape}")
    # the matrices are fresh, finite and fit together: the compensator adopts them
    return Compensator._checked(mats["A_c"], mats["B_c"], mats["C_c"], mats["D_c"])


def compensator_dict(comp: Compensator) -> dict:
    return {
        "A_c": comp.A_c.tolist(), "B_c": comp.B_c.tolist(),
        "C_c": comp.C_c.tolist(), "D_c": comp.D_c.tolist(),
    }


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(value) -> str:
    """A float as `json` writes it: its shortest repr, or NaN/±Infinity.
    `float.__repr__`, not `repr`, so a numpy.float64 prints as a float."""
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _scalar_text(obj):
    """The JSON text of a str, None, bool, int or float, as `json` writes
    it; None for any other object."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    return None


def _append_json(obj, newline: str, out: list) -> None:
    """Append to `out` the text that `json.dumps(obj, indent=2,
    sort_keys=True)` writes for `obj`; `newline` is a newline followed by
    the indent of the line on which `obj` starts. Dict keys must be strings,
    as they are in every payload; `json` would also convert other scalars."""
    text = _scalar_text(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        # Matrices of floats, the bulk of every result file, are written
        # from the repr of a list: `json`'s text with other separators,
        # unless it holds inf or nan (an "n"). Never the repr of a tuple,
        # which ends a 1-tuple in ",)".
        if {*map(type, obj)} == {list} and all({*map(type, row)} == {float} for row in obj):
            text = repr(list(obj))
            if "n" not in text:
                row = inner + "  "
                text = (text[2:-2].replace("], [", inner + "]," + inner + "[" + row)
                        .replace(", ", "," + row))
                out.append("[" + inner + "[" + row + text + inner + "]" + newline + "]")
                return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _append_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _append_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} "
                        f"is not JSON serializable")


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, written directly."""
    out = []
    _append_json(obj, "\n", out)
    return "".join(out)


def _write_result(path, payload):
    """Print the result text, or write it over the file at `path` in place:
    opened without O_TRUNC, since ext4 starts writeback when a file that
    holds data is truncated to zero, and cut to the new length afterwards
    when it is a regular file (not /dev/null or a pipe). The encoded text
    goes to the descriptor by `os.write`, repeated until every byte is
    taken, with no file object between. ParseError when the file cannot
    be written; the descriptor is closed either way."""
    text = _json_text(payload)
    if not path:
        print(text)
        return
    data = (text + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            left = memoryview(data)
            while left:
                left = left[os.write(fd, left):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as err:
        raise ParseError(f"{path}: cannot write: {err.strerror}") from None


def _certificate_dict(cert) -> dict:
    return {
        "invariant_dim": cert.invariant_subspace.dim,
        "residual_invariance": cert.residual_invariance,
        "residual_kernel": cert.residual_kernel,
        "feedthrough_norm": cert.feedthrough_norm,
        "valid": cert.valid,
    }


def _verdict_exit(overall: str) -> int:
    if overall == "solvable":
        return EXIT_OK
    if overall == "well_posedness_obstruction":
        return EXIT_OBSTRUCTION
    if overall.startswith("infeasible"):
        return EXIT_INFEASIBLE
    return EXIT_NUMERICAL


def _loop_checks(sys_: PlantSystem, cl):
    """(max |T_zw| over `default_lambdas`' 20 points on the circle of radius
    2 max(1, rho), stable) of a closed loop, both read off its one
    spectrum; `verify` sorts that spectrum for its result file, `solve`
    writes none."""
    samples = transfer_samples(cl, default_lambdas(cl))
    stable = not sys_.region.outside(cl.spectrum)
    return samples, stable


def run(command: str, args) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    sys_, tol = parse_problem(args.input)

    if command == "analyze":
        analyze = analyze_p1 if args.problem == "p1" else analyze_p2
        report = analyze(sys_, tol)
        _write_result(args.output, {"command": "analyze",
                                    "report": report.to_dict()})
        return _verdict_exit(report.overall)

    if command == "solve":
        try:
            comp, report, cl, cert = solve_certified(sys_, args.problem, tol)
        except (WellPosednessObstruction, Infeasible) as err:
            code = _verdict_exit(err.report.overall)
            verdict, label = {
                EXIT_INFEASIBLE: ("infeasible", "infeasible"),
                EXIT_OBSTRUCTION: ("well_posedness_obstruction",
                                   "well-posedness obstruction"),
                EXIT_NUMERICAL: ("numerical_failure", "numerical failure"),
            }[code]
            _write_result(args.output, {"command": "solve",
                                        "verdict": verdict,
                                        "report": err.report.to_dict()})
            print(f"{label}: {err}", file=_sys.stderr)
            return code
        samples, stable = _loop_checks(sys_, cl)
        K, F, G = recover_parameters(sys_, comp)
        payload = {
            "command": "solve",
            "verdict": "solved",
            "report": report.to_dict(),
            "compensator": compensator_dict(comp),
            "K": K.tolist(),
            "F": F.tolist(),
            "G": G.tolist(),
            "certificate": _certificate_dict(cert),
            "max_sample_norm": samples,
            "stable": bool(stable),
        }
        _write_result(args.output, payload)
        return EXIT_OK

    if command == "verify":
        comp = parse_compensator(args.compensator)
        if not comp.order and not comp.C_c.shape[0]:
            # order 0 and m = 0: the file holds no width, so it is the plant's
            comp = Compensator._checked(comp.A_c, np.zeros((0, sys_.p)), comp.C_c,
                                        np.zeros((0, sys_.p)))
        if comp.B_c.shape[1] != sys_.p:
            raise ShapeError(f"matrix B_c has {comp.B_c.shape[1]} columns, "
                             f"the plant has p = {sys_.p} measurements")
        if comp.C_c.shape[0] != sys_.m:
            raise ShapeError(f"matrix C_c has {comp.C_c.shape[0]} rows, "
                             f"the plant has m = {sys_.m} inputs")
        # the pair of --problem certifies a compensator built on it; any
        # other loop is certified on the hull
        pair = analysis_pair(sys_, args.problem, tol)
        cl = close_loop(sys_, comp)
        cert = certify_decoupled(cl, tol, pair=pair) if cl.order == 2 * sys_.n else None
        if cert is None or not cert.valid:
            cert = certify_decoupled(cl, tol)
        samples, stable = _loop_checks(sys_, cl)
        eigs = np.sort_complex(cl.spectrum)
        decoupled = cert.valid and samples <= 1e-8
        want_stable = args.problem == "p2"
        verified = decoupled and (stable or not want_stable)
        payload = {
            "command": "verify",
            "verdict": "verified" if verified else "not_verified",
            "certificate": _certificate_dict(cert),
            "max_sample_norm": samples,
            "stable": bool(stable),
            "spectrum": [[re, im] for re, im in zip(eigs.real.tolist(),
                                                    eigs.imag.tolist())],
        }
        _write_result(args.output, payload)
        return EXIT_OK if verified else EXIT_INFEASIBLE

    raise ValueError(f"unknown command {command!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors exit 1, not argparse's default 2
        self.print_usage(_sys.stderr)
        print(f"{self.prog}: error: {message}", file=_sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geodd",
                     description="Disturbance decoupling by dynamic output feedback")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "solve", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="plant JSON file")
        p.add_argument("--problem", choices=["p1", "p2"], default="p1")
        p.add_argument("--output", default=None, help="result JSON file")
        if name == "verify":
            p.add_argument("--compensator", required=True,
                           help="compensator JSON file (or a solve result)")
    return parser


# Every `main` call parses with this one parser or one of its subcommands'
# parsers; parse_args keeps no state between calls, as each returns a fresh
# namespace.
_PARSER = build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """`_PARSER.parse_args(argv)`, read by the named subcommand's own
    parser: the full parse hands it the same arguments, and it fills the
    same Namespace after `command`. Its errors and -h print its own usage
    and exit as they do inside the full parse. Only where argv names no
    command, or arguments are left over, does the full parse run, which
    reports "unrecognized arguments" with the top-level usage."""
    commands = next((action.choices for action in _PARSER._actions
                     if isinstance(action, argparse._SubParsersAction)), {})
    parser = commands.get(argv[0]) if argv else None
    if parser is not None:
        args, extras = parser.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(_sys.argv[1:] if argv is None else list(argv))
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    try:
        return run(args.command, args)
    except ParseError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_USAGE
    except (GeoddError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
