"""Command-line surface: calculators and identity verifiers.

Exit codes: 0 for success or PASS, 1 for a verification FAIL, 2 for input
errors (including the unit-coordinate obstruction on E8 structure checks).
Quivers are always referenced by file; bare names (a2, d4, e6, ...) resolve
to the JSON files bundled with the package.  Text output is byte-stable:
identical inputs produce identical bytes, with the applied vertex permutation
echoed on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import coha, modrep, residue, verify
from .polyblock import MPoly
from .polytext import PolyParseError, parse_poly
from .quiver import NotADE, NotATree, Quiver, validate_dynkin
from .roots import NoUnitCoordinate

OK, FAIL, INPUT_ERROR = 0, 1, 2


class InputError(Exception):
    pass


def _resolve_quiver_path(name_or_path: str) -> str:
    if "/" in name_or_path or name_or_path.endswith(".json"):
        return name_or_path
    ref = resources.files("dynkin_coha").joinpath(f"data/quivers/{name_or_path}.json")
    if not ref.is_file():
        raise InputError(
            f"unknown bundled quiver {name_or_path!r}; pass a path to a JSON file"
        )
    return str(ref)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_quiver(name_or_path: str) -> tuple[Quiver, dict[int, int]]:
    path = _resolve_quiver_path(name_or_path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read quiver file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(raw, dict) or "vertices" not in raw or "edges" not in raw:
        raise InputError(f"{path}: expected an object with 'vertices' and 'edges'")
    vertices, edges = raw["vertices"], raw["edges"]
    if not _is_int(vertices):
        raise InputError(f"{path}: 'vertices' must be an integer, got {vertices!r}")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
    ):
        raise InputError(f"{path}: 'edges' must be a list of [tail, head] integer pairs")
    try:
        return validate_dynkin(vertices, edges)
    except (NotATree, NotADE) as exc:
        raise InputError(f"{path}: {exc}")


def _parse_vector(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"{name} must be a comma-separated integer vector, got {text!r}")


def _parse_polynomial(text: str, allowed: str) -> MPoly:
    try:
        return parse_poly(text, allowed_kinds=allowed)
    except (PolyParseError, coha.CheckFailed) as exc:  # CheckFailed: exponent out of range
        raise InputError(f"polynomial: {exc}")


def _echo_permutation(args, perm: dict[int, int]) -> None:
    if args.format == "text":
        rendered = ", ".join(f"{old}->{new}" for old, new in sorted(perm.items()))
        print(f"vertex map: {rendered}", file=sys.stderr)


def _emit(args, lines: list[str], obj: dict) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _vector_str(v) -> str:
    return " ".join(str(x) for x in v)


def _verify_exit(results: list[verify.VerifyResult]) -> int:
    return OK if all(r.passed for r in results) else FAIL


def _emit_verify(args, results: list[verify.VerifyResult]) -> int:
    lines = []
    for r in results:
        lines.append(f"{r.status()} {r.name}: {r.instances} instance(s) checked")
        if r.counterexample:
            lines.append(f"  first counterexample: {r.counterexample}")
        for d in r.details:
            lines.append(f"  {d}")
    status = "PASS" if all(r.passed for r in results) else "FAIL"
    if len(results) > 1:
        lines.append(status)
    obj = {
        "status": status,
        "instances_checked": sum(r.instances for r in results),
        "counterexample": next(
            (r.counterexample for r in results if r.counterexample), None
        ),
        "checks": [
            {
                "name": r.name,
                "status": r.status(),
                "instances_checked": r.instances,
                "counterexample": r.counterexample,
            }
            for r in results
        ],
    }
    _emit(args, lines, obj)
    return _verify_exit(results)


def cmd_roots(args) -> int:
    q, perm = load_quiver(args.quiver)
    _echo_permutation(args, perm)
    rd = modrep.root_data(q)
    lines = [_vector_str(b) for b in rd.roots]
    obj = {
        "status": "ok",
        "dynkin_type": q.dynkin_type,
        "vertex_map": {str(k): v for k, v in perm.items()},
        "roots": [list(b) for b in rd.roots],
    }
    _emit(args, lines, obj)
    return OK


def cmd_order(args) -> int:
    q, perm = load_quiver(args.quiver)
    _echo_permutation(args, perm)
    rd = modrep.root_data(q)
    lines = [f"{k}: {_vector_str(b)}" for k, b in enumerate(rd.roots, start=1)]
    obj = {
        "status": "ok",
        "dynkin_type": q.dynkin_type,
        "vertex_map": {str(k): v for k, v in perm.items()},
        "order": [list(b) for b in rd.roots],
    }
    _emit(args, lines, obj)
    return OK


def cmd_orbits(args) -> int:
    q, perm = load_quiver(args.quiver)
    _echo_permutation(args, perm)
    gamma = _parse_vector(args.gamma, "--gamma")
    orbits = modrep.orbits_for(q, gamma)
    lines = [
        f"{','.join(str(x) for x in m)} codim={modrep.codim(q, m)}" for m in orbits
    ]
    obj = {
        "status": "ok",
        "gamma": list(gamma),
        "orbits": [
            {"m": list(m), "codim": modrep.codim(q, m)} for m in orbits
        ],
    }
    _emit(args, lines, obj)
    return OK


def cmd_codim(args) -> int:
    q, _ = load_quiver(args.quiver)
    m = _parse_vector(args.orbit, "--orbit")
    value = modrep.codim(q, m)
    _emit(args, [str(value)], {"status": "ok", "codim": value})
    return OK


def cmd_homtable(args) -> int:
    q, perm = load_quiver(args.quiver)
    _echo_permutation(args, perm)
    rd = modrep.root_data(q)
    lines = ["hom:"]
    lines += [_vector_str(row) for row in rd.hom]
    lines.append("ext:")
    lines += [_vector_str(row) for row in rd.ext]
    obj = {
        "status": "ok",
        "roots": [list(b) for b in rd.roots],
        "hom": [list(row) for row in rd.hom],
        "ext": [list(row) for row in rd.ext],
    }
    _emit(args, lines, obj)
    return OK


def cmd_qpoly(args) -> int:
    q, _ = load_quiver(args.quiver)
    m = _parse_vector(args.orbit, "--orbit")
    result = coha.quiver_polynomial(q, m)
    text = str(result.poly)
    _emit(args, [text], {"status": "ok", "gamma": list(result.gamma), "polynomial": text})
    return OK


def cmd_mul(args) -> int:
    q, _ = load_quiver(args.quiver)
    g1 = _parse_vector(args.gamma1, "--gamma1")
    g2 = _parse_vector(args.gamma2, "--gamma2")
    try:
        f1 = coha.CohaElement(q, g1, _parse_polynomial(args.f1, "w"))
        f2 = coha.CohaElement(q, g2, _parse_polynomial(args.f2, "w"))
    except (ValueError, coha.CheckFailed) as exc:
        raise InputError(str(exc))
    result = coha.shuffle_mul(f1, f2)
    text = str(result.poly)
    _emit(args, [text], {"status": "ok", "gamma": list(result.gamma), "polynomial": text})
    return OK


def cmd_restrict(args) -> int:
    q, _ = load_quiver(args.quiver)
    m = _parse_vector(args.orbit, "--orbit")
    rd = modrep.root_data(q)
    gamma = rd.module_dims(modrep.check_module_type(rd, m))
    try:
        f = coha.CohaElement(q, gamma, _parse_polynomial(args.f, "w"))
    except (ValueError, coha.CheckFailed) as exc:
        raise InputError(str(exc))
    image = coha.restriction(q, m, f)
    text = str(image)
    _emit(args, [text], {"status": "ok", "polynomial": text})
    return OK


def cmd_euler(args) -> int:
    q, _ = load_quiver(args.quiver)
    m = _parse_vector(args.orbit, "--orbit")
    value = coha.euler_class(q, m)
    text = str(value)
    _emit(args, [text], {"status": "ok", "polynomial": text})
    return OK


def cmd_residue_mul(args) -> int:
    q, _ = load_quiver(args.quiver)
    g1 = _parse_vector(args.gamma1, "--gamma1")
    g2 = _parse_vector(args.gamma2, "--gamma2")
    g = _parse_polynomial(args.g, "a")
    try:
        f2 = coha.CohaElement(q, g2, _parse_polynomial(args.f2, "w"))
        f1 = residue.ddelta_transform(q, g1, residue.standard_grouping(g1), g)
        via_residue = residue.residue_mul(q, g, f2, g1, g2, budget=args.budget)
    except residue.TruncationTooLow as exc:
        raise InputError(f"TruncationTooLow: {exc}")
    except (ValueError, coha.CheckFailed) as exc:
        raise InputError(str(exc))
    via_shuffle = coha.shuffle_mul(f1, f2)
    match = via_residue.poly == via_shuffle.poly
    lines = [
        f"residue: {via_residue.poly}",
        f"shuffle: {via_shuffle.poly}",
        f"match: {'yes' if match else 'no'}",
    ]
    obj = {
        "status": "ok" if match else "FAIL",
        "residue": str(via_residue.poly),
        "shuffle": str(via_shuffle.poly),
        "match": match,
    }
    _emit(args, lines, obj)
    return OK if match else FAIL


def cmd_verify_reineke(args) -> int:
    q, _ = load_quiver(args.quiver)
    cap = _parse_vector(args.cap, "--cap") if args.cap else (2,) * q.n
    return _emit_verify(args, [verify.verify_reineke(q, cap, args.precision)])


def cmd_verify_betti(args) -> int:
    q, _ = load_quiver(args.quiver)
    return _emit_verify(
        args, [verify.verify_betti(q, args.max_total, args.precision)]
    )


def cmd_verify_codim_lemma(args) -> int:
    q, _ = load_quiver(args.quiver)
    return _emit_verify(args, [verify.verify_codim_lemma(q, args.max_total)])


def cmd_verify_structure(args) -> int:
    q, _ = load_quiver(args.quiver)
    gamma = (
        _parse_vector(args.gamma, "--gamma") if args.gamma else (1,) * q.n
    )
    result = verify.verify_structure(q, gamma, args.degree_cap)
    return _emit_verify(args, [result])


def cmd_verify_residue(args) -> int:
    q, _ = load_quiver(args.quiver)
    return _emit_verify(args, [verify.verify_residue(q, args.trials, args.seed)])


def _battery(args) -> list[verify.VerifyResult]:
    def lq(name: str) -> Quiver:
        return load_quiver(name)[0]

    results: list[verify.VerifyResult] = []

    def run(label: str, result: verify.VerifyResult) -> None:
        result.name = f"{label}: {result.name}"
        results.append(result)

    a2 = lq("a2")
    run("a2", verify.verify_worked_products(a2))
    for name, cap in [
        ("a2", (3, 3)),
        ("a2_rev", (3, 3)),
        ("a3", (3, 3, 3)),
        ("a3_rev", (3, 3, 3)),
        ("a3_source_mid", (3, 3, 3)),
        ("a3_sink_mid", (3, 3, 3)),
        ("d4", (3, 3, 3, 3)),
    ]:
        run(name, verify.verify_reineke(lq(name), cap, 20))
    for name, max_total in [("a2", 5), ("a3", 5), ("d4", 4)]:
        run(name, verify.verify_betti(lq(name), max_total, 30))
    for name, max_total in [("a3", 5), ("d4", 5)]:
        run(name, verify.verify_codim_lemma(lq(name), max_total))
    for name, max_total in [("a2", 5), ("a3", 5)]:
        run(name, verify.verify_quiver_polynomials(lq(name), max_total))
    run("a2", verify.verify_euler_product_form(a2))
    run("a2", verify.verify_euler_factorization(a2, 25))
    run("a3", verify.verify_euler_factorization(lq("a3"), 25))
    run("a2", verify.verify_structure(a2, (1, 1), 10))
    run("a3", verify.verify_structure(lq("a3"), (1, 1, 1), 8))
    try:
        verify.verify_structure(lq("e8"), (1,) * 8, 2)
        results.append(
            verify.VerifyResult(
                "e8: structure-refusal", False, 1,
                "the E8 structure check was expected to be refused",
            )
        )
    except NoUnitCoordinate:
        results.append(verify.VerifyResult("e8: structure-refusal", True, 1))
    run("a2", verify.verify_residue(a2, 25))
    run("a3", verify.verify_residue(lq("a3"), 25))
    run("a2", verify.verify_engine_properties(a2, 6, hom_ext_sweep=False))
    run("a4", verify.verify_engine_properties(lq("a4"), 2))
    run("d4", verify.verify_engine_properties(lq("d4"), 2))
    return results


def cmd_verify_all(args) -> int:
    if args.quiver:
        q, _ = load_quiver(args.quiver)
        cap = _parse_vector(args.cap, "--cap") if args.cap else (2,) * q.n
        results = [
            verify.verify_reineke(q, cap, args.precision),
            verify.verify_betti(q, min(args.max_total, 4), args.precision),
            verify.verify_codim_lemma(q, args.max_total),
            verify.verify_quiver_polynomials(q, min(args.max_total, 4)),
            verify.verify_residue(q, args.trials, args.seed),
            verify.verify_engine_properties(q, 4),
        ]
    else:
        results = _battery(args)
    return _emit_verify(args, results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynkin-coha",
        description="Exact computations in the cohomological Hall algebra of an ADE quiver.",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.set_defaults(handler=fn)
        return p

    quiver_flag = {"required": True, "help": "bundled quiver name or JSON path"}
    add("roots", cmd_roots, quiver=quiver_flag)
    add("order", cmd_order, quiver=quiver_flag)
    add("orbits", cmd_orbits, quiver=quiver_flag, gamma={"required": True})
    add("codim", cmd_codim, quiver=quiver_flag, orbit={"required": True})
    add("homtable", cmd_homtable, quiver=quiver_flag)
    add("qpoly", cmd_qpoly, quiver=quiver_flag, orbit={"required": True})
    add(
        "mul", cmd_mul, quiver=quiver_flag,
        gamma1={"required": True}, gamma2={"required": True},
        f1={"required": True}, f2={"required": True},
    )
    add(
        "residue-mul", cmd_residue_mul, quiver=quiver_flag,
        gamma1={"required": True}, gamma2={"required": True},
        g={"required": True}, f2={"required": True},
        budget={"type": int, "default": None, "help": "geometric expansion depth guard"},
    )
    add("restrict", cmd_restrict, quiver=quiver_flag, orbit={"required": True},
        f={"required": True})
    add("euler", cmd_euler, quiver=quiver_flag, orbit={"required": True})
    add(
        "verify-reineke", cmd_verify_reineke, quiver=quiver_flag,
        cap={"default": None}, precision={"type": int, "default": 20},
    )
    add(
        "verify-betti", cmd_verify_betti, quiver=quiver_flag,
        max_total={"type": int, "default": 4},
        precision={"type": int, "default": 30},
    )
    add(
        "verify-codim-lemma", cmd_verify_codim_lemma, quiver=quiver_flag,
        max_total={"type": int, "default": 4},
    )
    add(
        "verify-structure", cmd_verify_structure, quiver=quiver_flag,
        gamma={"default": None}, degree_cap={"type": int, "default": 6},
    )
    add(
        "verify-residue", cmd_verify_residue, quiver=quiver_flag,
        trials={"type": int, "default": 10}, seed={"type": int, "default": 11},
    )
    add(
        "verify-all", cmd_verify_all,
        quiver={"default": None, "help": "restrict the battery to one quiver"},
        cap={"default": None}, precision={"type": int, "default": 20},
        max_total={"type": int, "default": 4},
        trials={"type": int, "default": 10}, seed={"type": int, "default": 11},
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except NoUnitCoordinate as exc:
        print(f"error: NoUnitCoordinate: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except coha.CheckFailed as exc:  # e.g. a product past the packed exponent range
        print(f"error: CheckFailed: {exc}", file=sys.stderr)
        return FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
