"""Command-line front end.

Reads fan and group JSON files, runs the analysis pipelines and emits either
human-readable summaries or deterministic JSON reports (schema
"toric-surface-lab/1").  Exit codes: 0 success/verified; 1 a verifier
returned a certificate whose `ok` is False (verifiers do not raise); 2 invalid
input (an unreadable file or a `LabError`); 3 an internal error, that is any
other exception (a bug: the traceback goes to stderr, and `--json` still
prints a report, with status "internal-error"), or output that cannot be written.
The exit code is decided before anything is written.  Every write to stderr
goes through `_write_stderr`, which cannot raise: a stderr that cannot be
written loses its message and keeps the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import mul

from . import __version__
from .lattice_fan import Fan, FanError, LabError, self_intersections, validate_fan

SCHEMA = "toric-surface-lab/1"
SPOT_CHECK_SAMPLES = 50  # random divisors in the report's cohomology spot check

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_INTERNAL_ERROR = 3


class InputError(Exception):
    """Invalid input file or semantic violation; maps to exit code 2."""


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise InputError(f"{path}: file not found") from exc
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _parse_json(path: str, raw: bytes) -> object:
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    except ValueError as exc:  # undecodable bytes, or an int over the digit limit
        raise InputError(f"{path}: not a JSON text: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def load_fan(path: str, raw: bytes) -> Fan:
    """The fan in `raw`, the bytes read from `path` (named in messages)."""
    data = _parse_json(path, raw)
    if not isinstance(data, dict) or "rays" not in data:
        raise InputError(f'{path}: expected an object with a "rays" key')
    try:
        return validate_fan(data["rays"])
    except FanError as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def load_group(path: str | None, raw: bytes | None, fan: Fan | None) -> SymmetryGroup:
    """The group in `raw`, the bytes read from `path`; trivial without a path."""
    from .symmetry import SymmetryError, SymmetryGroup, trivial_group

    if path is None:
        return trivial_group(fan)
    data = _parse_json(path, raw)
    if not isinstance(data, dict) or "generators" not in data:
        raise InputError(f'{path}: expected an object with a "generators" key')
    try:
        return SymmetryGroup.from_generators(data["generators"], fan)
    except SymmetryError as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def fan_payload(fan: Fan) -> dict:
    return {
        "rays": fan.rays,
        "ray_count": fan.n,
        "self_intersections": self_intersections(fan),
    }


def group_payload(group: SymmetryGroup) -> dict:
    from .symmetry import classify_subgroup

    return {
        "order": group.order,
        "label": classify_subgroup(group),
        "generators": group.generators,
    }


def trace_payload(trace) -> dict:
    rays, n, steps = trace.initial_fan.rays, trace.initial_fan.n, []
    for step in trace.steps:
        after = n - len(step.contracted)
        steps.append({"contracted_rays": [rays[i] for i in step.contracted],
                      "rays_before": n, "rays_after": after})
        n = after
    return {"steps": steps, "terminal_fan": fan_payload(trace.terminal_fan)}


def label_payload(label) -> dict:
    return {
        "kind": label.kind,
        "group_label": label.group_label,
        "family": label.row.index,
        "hirzebruch_twist": label.hirzebruch_a,
    }


def basis_payload(cert) -> dict:
    return {
        "divisors": cert.basis.divisors,
        "orbits": cert.orbits,
        "orbit_sizes": cert.orbit_sizes,
        # Orbit-stabilizer: the stabilizer of an element has index equal to
        # the size of its orbit.
        "stabilizer_indices": list(cert.orbit_sizes),
        "determinant": cert.determinant,
    }


def collection_payload(coll, cert) -> dict:
    payload = {
        "blocks": coll.blocks,
        "provenance": coll.provenance,
        "verified": cert.ok,
        "determinant": cert.determinant,
        "pairs_checked": cert.pairs_checked,
    }
    if cert.first_violation is not None:
        payload["first_violation"] = cert.first_violation._asdict()
    return payload


def decomposition_payload(dec) -> dict:
    from .motivic import decomposition_string

    family = dec.family
    return {
        "factors": [f._asdict() for f in dec.factors],
        "product": decomposition_string(dec),
        "notes": family.notes,
        "family": {"index": family.index, "slots": family.slots,
                   "description": family.description},
    }


def _spot_check_cohomology(fan: Fan, seed: int) -> dict:
    """Count the random divisors D whose cohomology fails a check.

    Each sample is one draw of n coefficients, uniform on [-4, 4], and one
    call of the cohomology kernel `_cohomology`, which runs at most one h0
    walk: D.H >= 0 forces (K - D).H = K.H - D.H < 0.  The draws are n
    integers from a fixed tuple, so no routine re-validates them.

    The kernel is handed chi(D) from the Picard lattice (characters and the
    intersection form, in one pass by `PicardLattice._euler`), and a sample
    passes when h1 >= 0 and the kernel's h0 - h1 + h2 equals chi(K - D) of
    the closed form `_chi`.  That is Riemann-Roch by two independent routes,
    compared across Serre duality: it catches an h1 not taken as
    h0 + h2 - chi(D), and an Euler characteristic that is wrong by either
    route, such as a closed form off by one.  A kernel that raises
    ArithmeticError (a negative h1) counts too.
    """
    import random

    from .cohomology import _ample_weights, _chi, _cohomology
    from .grothendieck import picard

    table = _ample_weights(fan)
    a, weights = table[0], table[1]
    euler = picard(fan)._euler
    n = fan.n
    # `choices` takes one random() per item, so one call for all samples
    # draws what one call of n per sample drew.  A tuple indexes faster than
    # a range.
    draws = random.Random(seed).choices(tuple(range(-4, 5)), k=SPOT_CHECK_SAMPLES * n)
    violations = 0
    for start in range(0, SPOT_CHECK_SAMPLES * n, n):
        coeffs = draws[start:start + n]
        chi = euler(coeffs[2:], coeffs[0], coeffs[1])
        try:
            h = _cohomology(table, coeffs, sum(map(mul, weights, coeffs)), chi)
        except ArithmeticError:
            violations += 1
            continue
        if h.h1 < 0 or h.euler != _chi(a, [-1 - c for c in coeffs]):
            violations += 1
    return {"samples": SPOT_CHECK_SAMPLES, "violations": violations}


def _certified_basis(basis, group: SymmetryGroup) -> tuple[BasisCertificate, dict, str | None]:
    """The certificate of a library-built basis, its payload and None, or,
    when the certificate fails, an error payload and the reason (exit 1)."""
    from .grothendieck import verify_permutation_basis

    cert = verify_permutation_basis(basis, group)
    if not cert.ok:
        return cert, {"error": cert.error}, cert.error
    return cert, basis_payload(cert), None


def _k0(fan: Fan) -> tuple[dict, str | None]:
    """The K0 certificate's payload and None, or an error payload with the
    first violation and the reason."""
    from .grothendieck import verify_klyachko

    cert = verify_klyachko(fan)
    if not cert.ok:
        return {"error": cert.error, "first_violation": cert.first_violation}, cert.error
    return {
        "rank": cert.rank,
        "span_index": cert.span_index,
        "orbit_closure_pairs": cert.orbit_closure_pairs,
        "character_relations": cert.character_relations,
    }, None


def _searched_basis(fan: Fan, group: SymmetryGroup, bound: int) -> tuple[dict, str | None]:
    """The payload of the basis search within `bound` and its failure reason."""
    from .grothendieck import search_line_bundle_basis

    basis = search_line_bundle_basis(fan, group, bound)
    if basis is None:
        return {"found": False, "bound": bound}, None
    _, payload, error = _certified_basis(basis, group)
    return {"found": True, "bound": bound, **payload}, error


def _collection(pulled, label, group: SymmetryGroup, order: str,
                basis: BasisCertificate | None = None) -> tuple[dict, str | None]:
    """The payload of the verified collection in `order` and its failure
    reason; `basis` is the certificate of the same pullback's standard basis,
    whose classes the objects' certificate reads."""
    from .derived import build_collection, verify_collection

    coll = build_collection(pulled, label)
    if order == "reversed":
        coll = coll.reversed()
    cert = verify_collection(coll, group, basis)
    return collection_payload(coll, cert), None if cert.ok else "collection certificate failed"


def run_command(args, raw: dict[str, bytes]) -> tuple[int, dict, list[str]]:
    """Execute one subcommand; returns (exit code, payload, human lines).

    `raw` holds the bytes of the input files, keyed "fan" and "group".
    Commands return in pipeline order: first those that need no contraction
    trace, then those of one trace and label, then those of its basis.  Each
    stage imports its modules where it starts, so a command loads only the
    stages it runs.
    """
    command = args.command
    fan = load_fan(args.fan, raw["fan"]) if "fan" in raw else None
    group = load_group(args.group, raw.get("group"), fan) if hasattr(args, "group") else None
    if command == "report":
        return full_report(fan, group, args)
    if command == "validate":
        return EXIT_OK, {"fan": fan_payload(fan)}, [f"valid fan with {fan.n} rays"]
    if command == "k0-verify":
        k0, error = _k0(fan)
        line = (f"K0 presentation FAILED verification: {error}" if error else
                f"K0 free of rank {k0['rank']}, span index {k0['span_index']}, "
                f"{k0['orbit_closure_pairs']} product relations hold")
        return EXIT_VERIFICATION_FAILED if error else EXIT_OK, {"k0": k0}, [line]

    from .symmetry import classify_subgroup, compute_aut

    if command == "aut":
        aut = group_payload(compute_aut(fan))
        return EXIT_OK, {"automorphisms": aut}, [
            f"fan automorphism group of order {aut['order']} ({aut['label']})"]
    if command == "classify-group":
        label = classify_subgroup(group)
        return EXIT_OK, {"group": {"order": group.order, "label": label}}, [
            f"group of order {group.order}: class {label}"]
    if command == "basis" and args.bound is not None:
        basis, error = _searched_basis(fan, group, args.bound)
        if error:
            line = f"basis FAILED verification: {error}"
        elif not basis["found"]:
            line = f"no group-closed basis within coefficient bound {args.bound}"
        else:
            line = f"search found a basis with orbit sizes {basis['orbit_sizes']}"
        return EXIT_VERIFICATION_FAILED if error else EXIT_OK, {"basis": basis}, [line]

    from .minimal_model import classify_pair, minimalize, pullback

    if command == "minimalize":
        trace = minimalize(fan, group)
        return EXIT_OK, {"trace": trace_payload(trace)}, [
            f"{len(trace.steps)} contraction step(s), terminal fan has "
            f"{trace.terminal_fan.n} rays"]
    trace, label = classify_pair(fan, group)
    if command == "classify":
        return EXIT_OK, {
            "already_minimal": not trace.steps,
            "trace": trace_payload(trace),
            "minimal_model": label_payload(label),
        }, [f"minimal model: {label.kind} with group {label.group_label} "
            f"(family {label.row.index})"]
    pulled = pullback(trace)
    if command == "collection":
        coll, error = _collection(pulled, label, group, args.order)
        if error is None:
            return EXIT_OK, {"collection": coll}, [
                "exceptional collection verified: blocks of sizes "
                f"{[len(b) for b in coll['blocks']]}"]
        lines = ["collection FAILED verification"]
        v = coll.get("first_violation")
        if v is not None:
            lines.append(f"first violated pair: Ext(O({list(v['source'])}), "
                         f"O({list(v['target'])})) = {v['ext']}")
        return EXIT_VERIFICATION_FAILED, {"collection": coll}, lines

    from .grothendieck import standard_permutation_basis

    basis = standard_permutation_basis(pulled, label)
    cert, payload, error = _certified_basis(basis, group)
    if command == "basis":
        line = (f"basis FAILED verification: {error}" if error else
                f"permutation basis with orbit sizes {payload['orbit_sizes']}, "
                f"determinant {payload['determinant']}")
        return EXIT_VERIFICATION_FAILED if error else EXIT_OK, {"basis": payload}, [line]
    if command == "decompose":
        from .motivic import decompose

        if error:
            return EXIT_VERIFICATION_FAILED, {"decomposition": payload}, [
                f"decomposition FAILED verification: {error}"]
        payload = decomposition_payload(decompose(cert, label))
        return EXIT_OK, {"decomposition": payload}, [
            f"motivic decomposition: {payload['product']}"]
    raise InputError(f"unknown command {command}")  # pragma: no cover


def full_report(fan: Fan, group: SymmetryGroup, args) -> tuple[int, dict, list[str]]:
    """Every stage once: one contraction, one label, one pullback (the basis
    and the collection share it), one basis certificate, which the
    collection's objects read."""
    from .grothendieck import standard_permutation_basis
    from .minimal_model import classify_pair, pullback
    from .motivic import decompose
    from .symmetry import compute_aut

    result: dict = {
        "fan": fan_payload(fan),
        "group": group_payload(group),
        "automorphisms": group_payload(compute_aut(fan)),
    }
    failures: list[str] = []

    trace, label = classify_pair(fan, group)
    result["g_minimal"] = not trace.steps
    result["trace"] = trace_payload(trace)
    result["minimal_model"] = label_payload(label)
    lines = [f"minimal model: {label.kind}/{label.group_label} "
             f"after {len(trace.steps)} contraction step(s)"]

    k0, error = _k0(fan)
    result["k0"] = k0 if error else {key: k0[key] for key in ("rank", "span_index")}
    if error:
        failures.append(f"k0: {error}")

    # The decomposition reads the basis certificate the report shows.
    pulled = pullback(trace)
    basis = standard_permutation_basis(pulled, label)
    cert, result["basis"], error = _certified_basis(basis, group)
    if error:
        failures.append(f"basis: {error}")
    else:
        lines.append(f"basis orbit sizes: {cert.orbit_sizes}")

    result["collection"], error = _collection(pulled, label, group, "normal", cert)
    if error:
        failures.append(error)
    else:
        lines.append("collection verified: block sizes "
                     f"{[len(b) for b in result['collection']['blocks']]}")

    if cert.ok:
        result["decomposition"] = decomposition_payload(decompose(cert, label))
        lines.append(f"decomposition: {result['decomposition']['product']}")

    result["cohomology_spot_check"] = _spot_check_cohomology(fan, args.seed)
    if result["cohomology_spot_check"]["violations"]:
        failures.append("cohomology spot check failed")

    if args.bound is not None:
        result["basis_search"], error = _searched_basis(fan, group, args.bound)
        if error:
            failures.append(f"basis search: {error}")

    result["failures"] = failures
    if failures:
        lines.append("FAILED: " + "; ".join(failures))
    return EXIT_VERIFICATION_FAILED if failures else EXIT_OK, result, lines


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="toric-surface-lab",
        description=(
            "Classify smooth complete toric surfaces with finite symmetry: "
            "minimal models, K0 bases, exceptional collections and motivic "
            "factor decompositions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *, fan=True, group=True, help: str = "") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        if fan:
            p.add_argument("--fan", required=True, help="fan JSON file")
        if group:
            p.add_argument("--group", default=None,
                           help="group JSON file (default: trivial group)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    add("validate", group=False, help="validate and canonicalize a fan")
    add("aut", group=False, help="compute the fan automorphism group")
    p = add("classify-group", fan=False, help="conjugacy class of a finite subgroup")
    p.set_defaults(fan=None)
    add("minimalize", help="run the equivariant contraction loop")
    add("classify", help="minimalize and identify the minimal model")
    add("k0-verify", group=False, help="verify the K0 presentation")
    p = add("basis", help="permutation basis of line-bundle classes")
    p.add_argument("--bound", type=non_negative_int, default=None,
                   help="search exhaustively with this coefficient bound")
    p = add("collection", help="build and verify the exceptional collection")
    p.add_argument("--order", choices=["normal", "reversed"], default="normal")
    add("decompose", help="symbolic motivic decomposition")
    p = add("report", help="full pipeline report")
    p.add_argument("--bound", type=non_negative_int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the cohomology spot check")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    inputs = {}
    raw = {}
    err = ""
    try:
        # Each file is read once, and its analysis uses those bytes.  Only
        # the --json report reads `inputs`, so only it pays for the digests
        # and for hashlib's import (milliseconds).
        for key in ("fan", "group"):
            path = getattr(args, key, None)
            if path is not None:
                raw[key] = _read(path)
                if args.json:
                    import hashlib

                    inputs[key] = {"path": path, "sha256": hashlib.sha256(raw[key]).hexdigest()}
        code, result, lines = run_command(args, raw)
        if args.json:
            status = "ok" if code == EXIT_OK else "verification-failed"
            lines = [_json_report(args, inputs, status, result=result)]
    except InputError as exc:
        code, (lines, err) = EXIT_INVALID_INPUT, _error_output(args, str(exc), inputs)
    except LabError as exc:
        code, (lines, err) = EXIT_INVALID_INPUT, _error_output(
            args, f"{type(exc).__name__}: {exc}", inputs)
    except Exception as exc:  # a bug; must not pass for a failed certificate
        import traceback

        code, (lines, err) = EXIT_INTERNAL_ERROR, _error_output(
            args, f"internal error: {type(exc).__name__}: {exc}", inputs, "internal-error")
        err = traceback.format_exc() + err
    # The exit code is decided: from here on only a failed stdout changes it.
    _write_stderr(err)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk: no certificate failed
        # Point stdout at /dev/null, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _write_stderr(f"error: cannot write output: {exc.strerror}\n")
        return EXIT_INTERNAL_ERROR
    return code


def _write_stderr(text: str) -> None:
    """Write `text` to stderr; this cannot raise.  A message that cannot be
    written is lost, and the exit code stays what it was: it does not depend
    on the message."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (OSError, ValueError, AttributeError):
        # A full disk or a closed pipe, a closed file, or no stderr at all.
        # Point fd 2 at /dev/null, so that the flush at exit does not fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
        except OSError:
            pass


def _json_report(args, inputs: dict, status: str, **body) -> str:
    """The deterministic `--json` report: the run's header and `body`,
    written by `_json_text` as `json.dumps(..., sort_keys=True, indent=2)`
    would write it."""
    return _json_text({
        "schema": SCHEMA,
        "version": __version__,
        "command": getattr(args, "command", None),
        "inputs": inputs,
        "status": status,
        **body,
    }, "\n")


def _json_text(obj, pad: str) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for dicts
    with str keys, lists, tuples, str, int, bool and None; anything else
    raises TypeError.  `pad` is a newline and the indentation of obj's level.

    The stdlib's C encoder runs only without `indent`, so the stdlib writes
    an indented report through its pure-Python generators.  This writer
    makes one call per value, and none for an int inside a list.
    """
    cls = type(obj)
    if cls is str:
        return encode_basestring_ascii(obj)
    if cls is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if cls is list or cls is tuple:
        items = [int.__repr__(x) if type(x) is int else _json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if cls is dict:  # encode_basestring_ascii raises TypeError on a key not a str
        items = [encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner)
                 for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, tuple):  # a NamedTuple
        return _json_text(list(obj), pad)
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _error_output(args, message: str, inputs: dict,
                  status: str = "invalid-input") -> tuple[list[str], str]:
    """The stdout lines and the stderr text of a failed run: its `--json`
    report and nothing, or no lines and the message."""
    if getattr(args, "json", False):
        return [_json_report(args, inputs, status, error=message)], ""
    return [], f"error: {message}\n"


if __name__ == "__main__":
    sys.exit(main())
