"""Command-line front end.

Reads fan and group JSON files, runs the analysis pipelines and emits either
human-readable summaries or deterministic JSON reports (schema
"toric-surface-lab/1").  Exit codes: 0 success/verified, 1 a verification
certificate failed, 2 invalid input, 3 an internal error (a bug: the
traceback goes to stderr, and `--json` still prints a report, with status
"internal-error").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from functools import cache

from . import __version__
from .cohomology import _chi, line_bundle_cohomology
from .derived import build_collection, verify_collection
from .grothendieck import (
    GrothendieckError,
    NotABasis,
    NotInvariant,
    RelationFailure,
    picard,
    search_line_bundle_basis,
    standard_permutation_basis,
    verify_klyachko,
    verify_permutation_basis,
)
from .lattice_fan import Fan, FanError, self_intersections, validate_fan
from .minimal_model import MinimalModelError, classify_pair, minimalize
from .motivic import UnverifiedBasis, decompose, decomposition_string
from .symmetry import (
    SymmetryError,
    SymmetryGroup,
    classify_subgroup,
    compute_aut,
    trivial_group,
)

SCHEMA = "toric-surface-lab/1"

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
    if path is None:
        return trivial_group(fan) if fan is not None else trivial_group()
    data = _parse_json(path, raw)
    if not isinstance(data, dict) or "generators" not in data:
        raise InputError(f'{path}: expected an object with a "generators" key')
    try:
        return SymmetryGroup.from_generators(data["generators"], fan)
    except SymmetryError as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def fan_payload(fan: Fan) -> dict:
    return {
        "rays": [list(v) for v in fan.rays],
        "ray_count": fan.n,
        "self_intersections": list(self_intersections(fan)),
    }


def group_payload(group: SymmetryGroup) -> dict:
    return {
        "order": group.order,
        "label": classify_subgroup(group),
        "generators": [[list(row) for row in g] for g in group.generators],
    }


def trace_payload(trace) -> dict:
    return {
        "steps": [
            {
                "contracted_rays": [list(v) for v in step.contracted],
                "rays_before": step.before.n,
                "rays_after": step.after.n,
            }
            for step in trace.steps
        ],
        "terminal_fan": fan_payload(trace.terminal_fan),
    }


def label_payload(label) -> dict:
    return {
        "kind": label.kind,
        "group_label": label.group_label,
        "family": label.family,
        "hirzebruch_twist": label.hirzebruch_a,
    }


def basis_payload(basis, cert) -> dict:
    return {
        "divisors": [list(d) for d in basis.divisors],
        "orbits": [list(o) for o in basis.orbits],
        "orbit_sizes": list(basis.orbit_sizes()),
        # Orbit-stabilizer: the stabilizer of an element has index equal to
        # the size of its orbit.
        "stabilizer_indices": list(basis.orbit_sizes()),
        "determinant": cert.determinant,
    }


def collection_payload(coll, cert) -> dict:
    payload = {
        "blocks": [[list(d) for d in block] for block in coll.blocks],
        "provenance": coll.provenance,
        "verified": cert.ok,
        "determinant": cert.determinant,
        "pairs_checked": cert.pairs_checked,
    }
    if cert.first_violation is not None:
        v = cert.first_violation
        payload["first_violation"] = {
            "kind": v.kind,
            "source": list(v.source),
            "target": list(v.target),
            "ext": list(v.ext),
        }
    return payload


def decomposition_payload(dec) -> dict:
    payload = {
        "factors": [
            {
                "base_degree": f.base_degree,
                "brauer_label": f.brauer_label,
                "source_orbit": list(f.source_orbit),
            }
            for f in dec.factors
        ],
        "product": decomposition_string(dec),
        "notes": list(dec.notes),
    }
    payload["family"] = {
        "index": dec.family.index,
        "slots": list(dec.family.slots),
        "description": dec.family.description,
    }
    return payload


def _spot_check_cohomology(fan: Fan, seed: int, samples: int = 50) -> dict:
    """Count random divisors D whose cohomology fails either check.

    Each sample costs two h0 evaluations, h0(D) and h0(K - D), in one
    line_bundle_cohomology(D) call; the vector of K - D is built from them.

    Serre duality, h^i(D) = h^{2-i}(K - D): h2(D) is defined as h0(K - D),
    so the comparison reduces to chi(D) = chi(K - D) of the closed form plus
    h1 >= 0 on both sides.  It catches an h1 that disagrees with
    h0 + h2 - chi, not a wrong h0.

    Riemann-Roch: h0 - h1 + h2 equals chi(D) from the Picard lattice
    (characters and the intersection form), a route independent of the
    wall relations and the closed form the cohomology uses.  It catches an
    Euler characteristic that is wrong however h1 was derived, such as an
    h1 off by one everywhere, which duality cannot see.
    """
    rng = random.Random(seed)
    lat = picard(fan)
    a = self_intersections(fan)
    violations = 0
    for _ in range(samples):
        coeffs = tuple(rng.randint(-4, 4) for _ in range(fan.n))
        try:
            forward = line_bundle_cohomology(fan, coeffs)
        except ArithmeticError:
            violations += 1
            continue
        # The vector of K - D is (h2, dual_h1, h0) of D's own values, with
        # dual_h1 from the closed-form chi(K - D), as the cohomology has it.
        dual_h1 = forward.h2 + forward.h0 - _chi(a, tuple(-1 - c for c in coeffs))
        if dual_h1 < 0 or forward.h1 != dual_h1:
            violations += 1
        elif forward.euler != lat.chi(lat.divisor_coords(coeffs)):
            violations += 1
    return {"samples": samples, "violations": violations}


def _certified_basis(basis, fan: Fan, group: SymmetryGroup) -> tuple[dict, str | None]:
    """The payload of a library-built basis and None, or, when its
    certificate fails, an error payload and the reason (exit 1, not 2)."""
    try:
        cert = verify_permutation_basis(basis, fan, group)
    except (NotABasis, NotInvariant) as exc:
        return {"error": str(exc)}, str(exc)
    return basis_payload(basis, cert), None


def _k0(fan: Fan) -> tuple[dict, str | None]:
    """The K0 certificate's payload and None, or an error payload and the reason."""
    try:
        cert = verify_klyachko(fan)
    except RelationFailure as exc:
        return {"error": str(exc)}, str(exc)
    return {
        "rank": cert.rank,
        "span_index": cert.span_index,
        "orbit_closure_pairs": cert.orbit_closure_pairs,
        "character_relations": cert.character_relations,
    }, None


def _searched_basis(fan: Fan, group: SymmetryGroup, bound: int) -> tuple[dict, str | None]:
    """The payload of the basis search within `bound` and its failure reason."""
    basis = search_line_bundle_basis(fan, group, bound)
    if basis is None:
        return {"found": False, "bound": bound}, None
    payload, error = _certified_basis(basis, fan, group)
    return {"found": True, "bound": bound, **payload}, error


def _collection(trace, label, fan: Fan, group: SymmetryGroup,
                order: str) -> tuple[dict, str | None]:
    """The payload of the verified collection in `order` and its failure reason."""
    coll = build_collection(trace, label)
    if order == "reversed":
        coll = coll.reversed()
    cert = verify_collection(coll, fan, group)
    return collection_payload(coll, cert), None if cert.ok else "collection certificate failed"


def run_command(args, raw: dict[str, bytes]) -> tuple[int, dict, list[str]]:
    """Execute one subcommand; returns (exit code, payload, human lines).

    `raw` holds the bytes of the input files, keyed "fan" and "group".
    Commands return in pipeline order: first those that need no contraction
    trace, then those of one trace and label, then those of its basis.
    """
    command = args.command
    fan = load_fan(args.fan, raw["fan"]) if "fan" in raw else None
    group = load_group(args.group, raw.get("group"), fan) if hasattr(args, "group") else None
    if command == "report":
        return full_report(fan, group, args)
    if command == "validate":
        return EXIT_OK, {"fan": fan_payload(fan)}, [f"valid fan with {fan.n} rays"]
    if command == "aut":
        aut = group_payload(compute_aut(fan))
        return EXIT_OK, {"automorphisms": aut}, [
            f"fan automorphism group of order {aut['order']} ({aut['label']})"]
    if command == "classify-group":
        label = classify_subgroup(group)
        return EXIT_OK, {"group": {"order": group.order, "label": label}}, [
            f"group of order {group.order}: class {label}"]
    if command == "minimalize":
        trace = minimalize(fan, group)
        return EXIT_OK, {"trace": trace_payload(trace)}, [
            f"{len(trace.steps)} contraction step(s), terminal fan has "
            f"{trace.terminal_fan.n} rays"]
    if command == "k0-verify":
        k0, error = _k0(fan)
        line = (f"K0 presentation FAILED verification: {error}" if error else
                f"K0 free of rank {k0['rank']}, span index {k0['span_index']}, "
                f"{k0['orbit_closure_pairs']} product relations hold")
        return EXIT_VERIFICATION_FAILED if error else EXIT_OK, {"k0": k0}, [line]
    if command == "basis" and args.bound is not None:
        basis, error = _searched_basis(fan, group, args.bound)
        if error:
            line = f"basis FAILED verification: {error}"
        elif not basis["found"]:
            line = f"no group-closed basis within coefficient bound {args.bound}"
        else:
            line = f"search found a basis with orbit sizes {tuple(basis['orbit_sizes'])}"
        return EXIT_VERIFICATION_FAILED if error else EXIT_OK, {"basis": basis}, [line]

    trace, label = classify_pair(fan, group)
    if command == "classify":
        return EXIT_OK, {
            "already_minimal": not trace.steps,
            "trace": trace_payload(trace),
            "minimal_model": label_payload(label),
        }, [f"minimal model: {label.kind} with group {label.group_label} "
            f"(family {label.family})"]
    if command == "collection":
        coll, error = _collection(trace, label, fan, group, args.order)
        if error is None:
            return EXIT_OK, {"collection": coll}, [
                "exceptional collection verified: blocks of sizes "
                f"{[len(b) for b in coll['blocks']]}"]
        lines = ["collection FAILED verification"]
        v = coll.get("first_violation")
        if v is not None:
            lines.append(f"first violated pair: Ext(O({v['source']}), "
                         f"O({v['target']})) = {tuple(v['ext'])}")
        return EXIT_VERIFICATION_FAILED, {"collection": coll}, lines

    basis = standard_permutation_basis(trace, label, group)
    if command == "basis":
        payload, error = _certified_basis(basis, fan, group)
        line = (f"basis FAILED verification: {error}" if error else
                f"permutation basis with orbit sizes {basis.orbit_sizes()}, "
                f"determinant {payload['determinant']}")
        return EXIT_VERIFICATION_FAILED if error else EXIT_OK, {"basis": payload}, [line]
    if command == "decompose":
        dec = decompose(basis, label, group)
        return EXIT_OK, {"decomposition": decomposition_payload(dec)}, [
            f"motivic decomposition: {decomposition_string(dec)}"]
    raise InputError(f"unknown command {command}")  # pragma: no cover


def full_report(fan: Fan, group: SymmetryGroup, args) -> tuple[int, dict, list[str]]:
    """Every stage once: one contraction, one label, one basis certificate."""
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

    # decompose certifies the basis; the report shows that certificate.
    basis = standard_permutation_basis(trace, label, group)
    try:
        dec = decompose(basis, label, group)
        result["basis"] = basis_payload(basis, dec.basis_certificate)
        lines.append(f"basis orbit sizes: {basis.orbit_sizes()}")
    except UnverifiedBasis as exc:
        failures.append(f"basis: {exc}")
        result["basis"] = {"error": str(exc)}
        dec = None

    result["collection"], error = _collection(trace, label, fan, group, "normal")
    if error:
        failures.append(error)
    else:
        lines.append("collection verified: block sizes "
                     f"{[len(b) for b in result['collection']['blocks']]}")

    if dec is not None:
        result["decomposition"] = decomposition_payload(dec)
        lines.append(f"decomposition: {decomposition_string(dec)}")

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
    try:
        # Each file is read once; its digest and its analysis use those bytes.
        for key in ("fan", "group"):
            path = getattr(args, key, None)
            if path is not None:
                raw[key] = _read(path)
                inputs[key] = {"path": path,
                               "sha256": hashlib.sha256(raw[key]).hexdigest()}
        code, result, lines = run_command(args, raw)
    except InputError as exc:
        _emit_error(args, str(exc), inputs)
        return EXIT_INVALID_INPUT
    except (FanError, SymmetryError, MinimalModelError, GrothendieckError) as exc:
        _emit_error(args, f"{type(exc).__name__}: {exc}", inputs)
        return EXIT_INVALID_INPUT
    except Exception as exc:  # a bug; must not pass for a failed certificate
        import traceback

        traceback.print_exc()
        _emit_error(args, f"internal error: {type(exc).__name__}: {exc}", inputs,
                    status="internal-error")
        return EXIT_INTERNAL_ERROR

    if args.json:
        status = "ok" if code == EXIT_OK else "verification-failed"
        print(_json_report(args, inputs, status, result=result))
    else:
        for line in lines:
            print(line)
    return code


def _json_report(args, inputs: dict, status: str, **body) -> str:
    """The deterministic `--json` report: the run's header and `body`."""
    return json.dumps({
        "schema": SCHEMA,
        "version": __version__,
        "command": getattr(args, "command", None),
        "inputs": inputs,
        "status": status,
        **body,
    }, sort_keys=True, indent=2)


def _emit_error(args, message: str, inputs: dict, status: str = "invalid-input") -> None:
    if getattr(args, "json", False):
        print(_json_report(args, inputs, status, error=message))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
