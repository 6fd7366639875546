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


def run_command(args, raw: dict[str, bytes]) -> tuple[int, dict, list[str]]:
    """Execute one subcommand; returns (exit code, payload, human lines).

    `raw` holds the bytes of the input files, keyed "fan" and "group".
    """
    result: dict = {}
    lines: list[str] = []
    code = EXIT_OK

    fan = load_fan(args.fan, raw["fan"]) if "fan" in raw else None
    group = None
    if hasattr(args, "group"):
        group = load_group(args.group, raw.get("group"), fan)

    if args.command == "validate":
        result["fan"] = fan_payload(fan)
        lines.append(f"valid fan with {fan.n} rays")

    elif args.command == "aut":
        aut = compute_aut(fan)
        result["automorphisms"] = group_payload(aut)
        lines.append(f"fan automorphism group of order {aut.order} "
                     f"({result['automorphisms']['label']})")

    elif args.command == "classify-group":
        label = classify_subgroup(group)
        result["group"] = {"order": group.order, "label": label}
        lines.append(f"group of order {group.order}: class {label}")

    elif args.command == "minimalize":
        trace = minimalize(fan, group)
        result["trace"] = trace_payload(trace)
        lines.append(
            f"{len(trace.steps)} contraction step(s), terminal fan has "
            f"{trace.terminal_fan.n} rays"
        )

    elif args.command == "classify":
        trace, label = classify_pair(fan, group)
        result["already_minimal"] = not trace.steps
        result["trace"] = trace_payload(trace)
        result["minimal_model"] = label_payload(label)
        lines.append(f"minimal model: {label.kind} with group {label.group_label} "
                     f"(family {label.family})")

    elif args.command == "k0-verify":
        try:
            cert = verify_klyachko(fan)
        except RelationFailure as exc:
            code = EXIT_VERIFICATION_FAILED
            result["k0"] = {"error": str(exc)}
            lines.append(f"K0 presentation FAILED verification: {exc}")
        else:
            result["k0"] = {
                "rank": cert.rank,
                "span_index": cert.span_index,
                "orbit_closure_pairs": cert.orbit_closure_pairs,
                "character_relations": cert.character_relations,
            }
            lines.append(f"K0 free of rank {cert.rank}, span index {cert.span_index}, "
                         f"{cert.orbit_closure_pairs} product relations hold")

    elif args.command == "basis":
        if args.bound is None:
            trace, label = classify_pair(fan, group)
            basis = standard_permutation_basis(trace, label, group)
            head = {}
        else:
            basis = search_line_bundle_basis(fan, group, args.bound)
            head = {"found": basis is not None, "bound": args.bound}
        if basis is None:
            result["basis"] = head
            lines.append(f"no group-closed basis within coefficient bound "
                         f"{args.bound}")
        else:
            payload, error = _certified_basis(basis, fan, group)
            result["basis"] = {**head, **payload}
            if error is not None:
                code = EXIT_VERIFICATION_FAILED
                lines.append(f"basis FAILED verification: {error}")
            elif args.bound is None:
                lines.append(f"permutation basis with orbit sizes {basis.orbit_sizes()}, "
                             f"determinant {payload['determinant']}")
            else:
                lines.append(f"search found a basis with orbit sizes "
                             f"{basis.orbit_sizes()}")

    elif args.command == "collection":
        trace, label = classify_pair(fan, group)
        coll = build_collection(trace, label, group)
        if args.order == "reversed":
            coll = coll.reversed()
        cert = verify_collection(coll, fan, group)
        result["collection"] = collection_payload(coll, cert)
        if cert.ok:
            lines.append(f"exceptional collection verified: blocks of sizes "
                         f"{[len(b) for b in coll.blocks]}")
        else:
            code = EXIT_VERIFICATION_FAILED
            v = cert.first_violation
            lines.append("collection FAILED verification")
            if v is not None:
                lines.append(
                    f"first violated pair: Ext(O({list(v.source)}), "
                    f"O({list(v.target)})) = {v.ext}"
                )

    elif args.command == "decompose":
        trace, label = classify_pair(fan, group)
        basis = standard_permutation_basis(trace, label, group)
        dec = decompose(basis, label, group)
        result["decomposition"] = decomposition_payload(dec)
        lines.append(f"motivic decomposition: {decomposition_string(dec)}")

    elif args.command == "report":
        code, result, lines = full_report(fan, group, args)

    else:  # pragma: no cover
        raise InputError(f"unknown command {args.command}")

    return code, result, lines


def full_report(fan: Fan, group: SymmetryGroup, args) -> tuple[int, dict, list[str]]:
    """Every stage once: one contraction, one label, one basis certificate."""
    result: dict = {"fan": fan_payload(fan), "group": group_payload(group)}
    lines: list[str] = []
    failures: list[str] = []

    aut = compute_aut(fan)
    result["automorphisms"] = group_payload(aut)

    trace, label = classify_pair(fan, group)
    result["g_minimal"] = not trace.steps
    result["trace"] = trace_payload(trace)
    result["minimal_model"] = label_payload(label)
    lines.append(f"minimal model: {label.kind}/{label.group_label} "
                 f"after {len(trace.steps)} contraction step(s)")

    try:
        cert = verify_klyachko(fan)
        result["k0"] = {"rank": cert.rank, "span_index": cert.span_index}
    except RelationFailure as exc:
        failures.append(f"k0: {exc}")
        result["k0"] = {"error": str(exc)}

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

    coll = build_collection(trace, label, group)
    ccert = verify_collection(coll, fan, group)
    result["collection"] = collection_payload(coll, ccert)
    if not ccert.ok:
        failures.append("collection certificate failed")
    else:
        lines.append(
            f"collection verified: block sizes {[len(b) for b in coll.blocks]}"
        )

    if dec is not None:
        result["decomposition"] = decomposition_payload(dec)
        lines.append(f"decomposition: {decomposition_string(dec)}")

    result["cohomology_spot_check"] = _spot_check_cohomology(fan, args.seed)
    if result["cohomology_spot_check"]["violations"]:
        failures.append("cohomology spot check failed")

    if args.bound is not None:
        searched = search_line_bundle_basis(fan, group, args.bound)
        if searched is None:
            result["basis_search"] = {"found": False, "bound": args.bound}
        else:
            payload, error = _certified_basis(searched, fan, group)
            result["basis_search"] = {"found": True, "bound": args.bound, **payload}
            if error is not None:
                failures.append(f"basis search: {error}")

    result["failures"] = failures
    code = EXIT_VERIFICATION_FAILED if failures else EXIT_OK
    if failures:
        lines.append("FAILED: " + "; ".join(failures))
    return code, result, lines


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
        report = {
            "schema": SCHEMA,
            "version": __version__,
            "command": args.command,
            "inputs": inputs,
            "status": "ok" if code == EXIT_OK else "verification-failed",
            "result": result,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _emit_error(args, message: str, inputs: dict, status: str = "invalid-input") -> None:
    if getattr(args, "json", False):
        report = {
            "schema": SCHEMA,
            "version": __version__,
            "command": getattr(args, "command", None),
            "inputs": inputs,
            "status": status,
            "error": message,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
