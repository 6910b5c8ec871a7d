"""Command-line front end: load JSON inputs, run analyses, emit reports.

Commands: module-analyze, gkm, weyl-verify, cartan, filtration-verify,
integrate.  Reports list every invariant checked with the name of the
classical statement it verifies and carry an ``inputs_echo`` of the parsed
input, so re-running on the echo reproduces the verdicts byte for byte.
Every check returns CheckReports and decides for itself whether it
applies.  Runners append them; module-analyze, cartan, gkm's cs and
integrate also build items inline.  The report holds their to_json.
--max-degree sets only the series coefficients a report prints; every
check is exact.

The command line is ``equisyz COMMAND INPUT [options]``, its options one
table, OPTIONS.  A canonical argv, COMMAND INPUT and then each option's
exact long name followed by its value, is read directly (_read); every
other argv goes to argparse, built from the same table, whose help and
error text the user then sees.  argparse is imported only then: its
first message lookup imports gettext and locale, which every command in
a fresh process would pay.  --help prints the usage of equisyz or of one
command and exits 0; a rejected command line exits 2.

Exit codes: 0 all checks pass (or are not applicable), 1 at least one
check failed, 2 malformed or inconsistent input, 3 an internal error.
"""

import json
import random
import sys
from types import SimpleNamespace

from .polyring import _torus_ring
from .gradmod import (
    CheckReport, FPModule, FPMap, NEG_INF, dimension, depth, cohen_macaulay, syzygy_order,
    biduality, minimal_resolution, fp_kernel, fp_cokernel, betti_text, _betti_json,
)
from .weyl import group_from_json, GroupClosureError
from .cartan import (
    GStarModule, CartanComplex, cartan_cohomology, dualize_gstar,
    equivariant_homology, uct_collapse_check, _cohomology_dims,
)
from .equivtop import (
    GKMGraph, FiltrationDatum, DatumError, gkm_cohomology, ab_cohomology,
    cm_filtration_check, verify_ext_duality, partial_exactness_vs_syzygy,
    descend_invariants, integrate, pairing_perfection, syzygy_gap_check,
    truncation_additivity_check,
)

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3
MAX_DEGREE_LIMIT = 1000  # largest --max-degree: series lists grow with it
_DEPTH_ATTEMPTS = 8  # random linear forms tried per element of a regular sequence


class InputError(ValueError):
    pass


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))


def _hilbert_json(module, nmax):
    h = module.hilbert()
    return {"numerator": sorted([[k, v] for k, v in h.numerator.items()]),
            "coefficients": sorted([[k, v] for k, v in h.coefficients(nmax).items()])}


def run_module_analyze(obj, checks, nmax, seed):
    module = FPModule.from_json(obj)
    r = module.ring.num_vars
    out = []
    summary = {}
    summary["betti"] = _betti_json(module)
    summary["hilbert"] = _hilbert_json(module, nmax)
    d = dimension(module)
    summary["dimension"] = "-infinity" if d == NEG_INF else d
    if not module.is_zero():
        dep = depth(module)
        summary["depth"] = dep
        res = minimal_resolution(module)
        out.append(CheckReport.of("resolution length within the variable count",
                                  res.length <= r, {"length": res.length},
                                  "hilbert-syzygy-bound"))
        out.append(CheckReport.of("resolution is minimal and exact",
                                  res.is_minimal() and res.verify_exact(),
                                  theorem="minimal-free-resolution"))
        out.append(CheckReport.of("depth + projective dimension = variable count",
                                  dep + res.length == r,
                                  {"depth": dep, "pd": res.length},
                                  "auslander-buchsbaum"))
        if seed is not None:
            out.append(CheckReport.of("random regular sequences are module-regular "
                                      "up to the depth",
                                      _depth_spot_check(module, dep, seed),
                                      {"seed": seed}, "depth-regular-sequences"))
    cm = cohen_macaulay(module)
    summary["cohen_macaulay"] = cm.status
    out.append(CheckReport.of("Ext concentration agrees with depth = dim",
                              cm.tests_agree,
                              {"status": cm.status, "ext_nonzero": cm.ext_nonzero},
                              "ext-concentration-vs-depth"))
    syz = syzygy_order(module)
    summary["syzygy_order"] = syz.order
    out.append(CheckReport.of("syzygy witness complex is exact where claimed",
                              syz.witness_verified,
                              {"order": syz.order, "kind": syz.kind},
                              "syzygy-order-witness"))
    return out, summary


def _depth_spot_check(module, dep, seed):
    """A regular sequence of length = depth exists among random linear forms.

    Generic forms of the minimal variable degree realize the depth, so at
    each step several candidates are sampled and one regular element must
    be found; a single unlucky draw does not fail the check.
    """
    ring = module.ring
    if dep <= 0:
        return True
    rng = random.Random(seed)
    dmin = min(ring.degrees)
    small = [i for i in range(ring.num_vars) if ring.degrees[i] == dmin]
    current = module.minimized()
    for _ in range(dep):
        for _ in range(_DEPTH_ATTEMPTS):
            f = ring.zero()
            for i in small:
                c = rng.randint(-5, 5)
                if c:
                    f = f + ring.var(i).scale(c)
            if f.is_zero():
                continue
            nxt = _quotient_if_regular(current, f)
            if nxt is not None:
                current = nxt
                break
        else:
            return False
    return True


def _quotient_if_regular(module, f):
    """M/fM when f is a nonzerodivisor on M, else None."""
    ring = module.ring
    if module.num_gens == 0:
        return None
    mul = FPMap.from_matrix(module.shifted(f.homogeneous_degree()), module,
                            [[f if i == j else ring.zero()
                              for j in range(module.num_gens)]
                             for i in range(module.num_gens)], check=False)
    if not fp_kernel(mul)[0].is_zero():
        return None
    return fp_cokernel(mul)


def run_weyl_verify(obj, checks, nmax, seed):
    try:
        group = group_from_json(obj)
    except GroupClosureError as exc:
        raise InputError(str(exc))
    out = group.verify()
    summary = {
        "order": group.order,
        "invariant_degrees": list(group.invariant_degrees),
        "poincare_polynomial": sorted(group.poincare_polynomial().items())
        if all(c.passed for c in out) else None,
    }
    return out, summary


def run_cartan(obj, checks, nmax, seed):
    try:
        gstar = GStarModule.from_json(obj)
        ring = _torus_ring(obj.get("rank", 1), obj.get("vars"), gstar.num_contractions,
                           "contraction count")
        complex_ = CartanComplex(ring, gstar)
    except ValueError as exc:
        raise InputError(str(exc))
    out = [CheckReport.of("operator relations and twisted differential square to "
                          "zero", True, theorem="cartan-differential")]
    coh = cartan_cohomology(complex_)
    hom = equivariant_homology(gstar, ring)
    summary = {
        "cohomology_betti": _betti_json(coh),
        "cohomology_hilbert": _hilbert_json(coh, nmax),
        "homology_betti": _betti_json(hom),
    }
    # specializing the differential at 0 must recover the input complex
    poincare = gstar.poincare_polynomial()
    specialized = _cohomology_dims(gstar.degrees,
                                   complex_.specialized_at_zero())
    out.append(CheckReport.of("specialized complex recovers the nonequivariant "
                              "cohomology", specialized == poincare,
                              {"expected": sorted(poincare.items()),
                               "got": sorted(specialized.items())},
                              "cartan-restriction"))
    dd = dualize_gstar(dualize_gstar(gstar))
    out.append(CheckReport.of("double dualization restores the operators",
                              dd.d == gstar.d and dd.iotas == gstar.iotas,
                              theorem="dualization-involution"))
    if "uct" in checks:
        out.append(uct_collapse_check(coh, hom))
    return out, summary


def run_gkm(obj, checks, nmax, seed):
    try:
        graph = GKMGraph.from_json(obj)
        kernel = gkm_cohomology(graph)
    except DatumError as exc:
        raise InputError(str(exc))
    out = []
    summary = {
        "kernel_betti": _betti_json(kernel.module),
        "kernel_free": kernel.module.num_rels == 0,
        "kernel_rank": kernel.module.num_gens,
    }
    if "cs" in checks:
        bd = biduality(kernel.module)
        out.append(CheckReport.of("kernel is torsion-free", bd.torsion_free,
                                  theorem="chang-skjelbred-kernel"))
        syz = syzygy_order(kernel.module)
        out.append(CheckReport.of("reflexivity matches second-syzygy order",
                                  bd.reflexive == (syz.order >= min(2, graph.rank)),
                                  {"reflexive": bd.reflexive, "order": syz.order},
                                  "reflexivity-vs-cs-exactness"))
    if "pairing" in checks:
        out.append(pairing_perfection(graph))
    if "descend" in checks:
        res = descend_invariants(graph)
        out.extend(res.checks)
        if res.module is not None:
            summary["invariants_betti"] = _betti_json(res.module)
    return out, summary


# filtration-verify's checks by name, in report order
FILTRATION_CHECKS = {
    "cm": cm_filtration_check,
    "ext": verify_ext_duality,
    "partial": partial_exactness_vs_syzygy,
    "gap": syzygy_gap_check,
    "ses": truncation_additivity_check,
}


def run_filtration_verify(obj, checks, nmax, seed):
    try:
        datum = FiltrationDatum.from_json(obj)
    except (DatumError, ValueError) as exc:
        raise InputError(str(exc))
    hs = ab_cohomology(datum)
    summary = {"homology_betti": {str(i): _betti_json(m)
                                  for i, m in sorted(hs.items())},
               "assumptions": datum.assumptions}
    return [check(datum) for name, check in FILTRATION_CHECKS.items() if name in checks], summary


def run_integrate(obj, checks, nmax, seed, klass):
    try:
        graph = GKMGraph.from_json(obj)
        polys = [graph.ring.parse(s) for s in klass]
        if len(polys) != len(graph.vertices):
            raise InputError("class needs one component per vertex")
        value = integrate(graph, polys)
    except DatumError as exc:
        raise InputError(str(exc))
    out = [CheckReport.of("class is an element of the kernel and localizes to a "
                          "polynomial", True, {"value": str(value)},
                          "fixed-point-localization")]
    return out, {"value": str(value)}


# command -> (runner, its checks: all run by default, and the only ones allowed)
COMMANDS = {
    "module-analyze": (run_module_analyze, ("betti",)),
    "weyl-verify": (run_weyl_verify, ()),
    "cartan": (run_cartan, ("uct",)),
    "gkm": (run_gkm, ("cs", "pairing", "descend")),
    "filtration-verify": (run_filtration_verify, tuple(FILTRATION_CHECKS)),
    "integrate": (run_integrate, ()),
}


# The options of every command, one row each: its names and the keywords
# argparse's add_argument takes for it; integrate also takes KLASS.  _read
# reads canonical argv against these rows, and _parse builds argparse's
# parser from them for every other argv.  _check_help describes --check.
OPTIONS = (
    (("--format",), {"dest": "format", "default": "text", "choices": ("text", "json"),
                     "metavar": "{text,json}", "help": "report format (default: text)"}),
    (("--check",), {"dest": "check", "default": None, "metavar": "LIST"}),
    (("--max-degree",), {"dest": "max_degree", "default": 20, "type": int, "metavar": "N",
                         "help": "series coefficients printed through twice this degree "
                                 "(0..%d, default: 20)" % MAX_DEGREE_LIMIT}),
    (("--seed",), {"dest": "seed", "default": None, "type": int, "metavar": "N",
                   "help": "seed for randomized spot checks"}),
)
KLASS = (("--klass", "--class"), {"dest": "klass", "default": None, "metavar": "KLASS",
                                  "help": "JSON list of polynomials, one per vertex"})


def _rows(command):
    return OPTIONS + (KLASS,) if command == "integrate" else OPTIONS


def _usage(command):
    if command is None:
        return "equisyz [-h] {%s} ..." % ",".join(COMMANDS)
    return "equisyz %s [-h] %s INPUT" % (
        command, " ".join("[%s %s]" % (names[0], kw["metavar"]) for names, kw in _rows(command)))


def _check_help(command):
    names = ",".join(COMMANDS[command][1])
    if command == "module-analyze":  # its runner reads no check names
        return "%s is the only name; every check always runs" % names
    if not names:
        return "takes no names; every check always runs"
    return "comma-separated checks to run, of %s (default: all)" % names


def _read(argv):
    """The arguments of a canonical argv: COMMAND INPUT, then pairs of an
    exact long option name of that command and a value that does not start
    with '-' and that the option reads.  None for every other argv."""
    if len(argv) < 2 or len(argv) % 2 or argv[0] not in COMMANDS or argv[1][:1] == "-":
        return None
    rows = {name: kw for names, kw in _rows(argv[0]) for name in names}
    args = {kw["dest"]: kw["default"] for kw in rows.values()}
    args.update(command=argv[0], input=argv[1])
    for name, value in zip(argv[2::2], argv[3::2]):
        kw = rows.get(name)
        if kw is None or value[:1] == "-" or value not in kw.get("choices", (value,)):
            return None
        try:
            args[kw["dest"]] = kw.get("type", str)(value)
        except ValueError:
            return None
    return SimpleNamespace(**args)


def _parse(argv):
    """Parsed arguments, or None when argv is rejected.  argparse reads
    every argv that _read declines: -h or --help then prints the help and
    raises SystemExit(0), and a rejection prints the usage and the reason
    to stderr."""
    args = _read(argv)
    if args is not None:
        return args
    import argparse  # not at the top: its first message lookup imports locale
    parser = argparse.ArgumentParser(
        prog="equisyz", usage=_usage(None),
        description="Syzygy and equivariant-cohomology analyses over Q.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, prog="equisyz", usage=_usage(command))
        p.add_argument("input", metavar="INPUT", help="path to the JSON input")
        for names, kw in _rows(command):
            p.add_argument(*names, **{"help": _check_help(command), **kw})
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return None
        raise


def run(argv):
    """Parse arguments, run the command, return (exit code, report dict)."""
    return _execute(_parse(argv))


def _execute(args):
    if args is None:
        return EXIT_INPUT, {"error": "unrecognized arguments"}
    func, known = COMMANDS[args.command]
    try:
        obj = _load(args.input)
        if not isinstance(obj, dict):
            raise InputError("input must be a JSON object")
        checks = set(args.check.split(",")) if args.check else set(known)
        unknown = checks - set(known)
        if unknown:
            raise InputError("unknown checks for %s: %s"
                             % (args.command, ",".join(sorted(unknown))))
        if not 0 <= args.max_degree <= MAX_DEGREE_LIMIT:
            raise InputError("--max-degree must be in 0..%d" % MAX_DEGREE_LIMIT)
        nmax = 2 * args.max_degree
        kwargs = {}
        if args.command == "integrate":
            if args.klass is None:
                raise InputError("integrate needs --klass")
            try:
                kwargs["klass"] = json.loads(args.klass)
            except RecursionError as exc:
                raise InputError("invalid input: --klass: %s" % exc) from None
        items, summary = func(obj, checks, nmax, args.seed, **kwargs)
    except InputError as exc:
        return EXIT_INPUT, {"command": args.command, "error": str(exc)}
    except (ValueError, KeyError, TypeError) as exc:
        return EXIT_INPUT, {"command": args.command,
                            "error": "invalid input: %s" % exc}
    except Exception as exc:
        # a fault in equisyz, never reported as a failed check; traceback is
        # imported here because it adds 4 ms to every CLI start
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL, {"command": args.command,
                               "error": "internal error: %s: %s"
                               % (type(exc).__name__, exc)}
    status = "pass" if all(c.passed for c in items) else "fail"
    report = {
        "command": args.command,
        "inputs_echo": obj,
        "options": {"check": sorted(checks), "max_degree": args.max_degree,
                    "seed": args.seed},
        "summary": summary,
        "checks": [c.to_json() for c in items],
        "status": status,
    }
    return (EXIT_PASS if status == "pass" else EXIT_FAIL), report


def render_text(report):
    if "error" in report:
        return "error: %s" % report["error"]
    lines = ["%s: %s" % (report["command"], report["status"])]
    for key, val in sorted(report["summary"].items()):
        if key.endswith("betti") and isinstance(val, list):
            table = {(k, d): n for (k, d, n) in val}
            lines.append("  %s:" % key)
            lines.extend("    " + row for row in betti_text(table).splitlines())
        else:
            lines.append("  %s: %s" % (key, val))
    for item in report["checks"]:
        lines.append("  [%s] %s (%s)" % (item["verdict"], item["name"],
                                         item["theorem"]))
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    code, report = _execute(args)
    if args is not None and args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_text(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
