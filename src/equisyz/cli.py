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

The command line, ``equisyz COMMAND INPUT [options]``, is read left to
right against one option table, OPTIONS, by argparse's rules (README;
the tests keep argparse as the oracle).  argparse is not imported: its
first message lookup imports gettext and locale, which every command in
a fresh process would pay.  --help prints the usage of equisyz or of one
command and exits 0; a rejected command line exits 2.

Exit codes: 0 all checks pass (or are not applicable), 1 at least one
check failed, 2 malformed or inconsistent input, 3 an internal error.
"""

import json
import random
import re
import sys
from types import SimpleNamespace

from .polyring import _torus_ring
from .gradmod import (
    CheckReport, FPModule, FPMap, NEG_INF, dimension, depth, cohen_macaulay,
    syzygy_order, biduality, minimal_resolution, fp_kernel, fp_cokernel, _betti_json,
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


def _format(value):
    if value not in ("text", "json"):
        raise ValueError(value)
    return value


# The options of every command, one row each: (names, dest, default, read,
# metavar, help); integrate also takes KLASS.  _parse reads argv against
# these rows and _help prints them.  --check is described per command.
OPTIONS = (
    (("--format",), "format", "text", _format, "{text,json}", "report format (default: text)"),
    (("--check",), "check", None, str, "LIST", None),
    (("--max-degree",), "max_degree", 20, int, "N",
     "series coefficients printed through twice this degree (0..%d, default: 20)"
     % MAX_DEGREE_LIMIT),
    (("--seed",), "seed", None, int, "N", "seed for randomized spot checks"),
)
KLASS = (("--klass", "--class"), "klass", None, str, "KLASS",
         "JSON list of polynomials, one per vertex")
HELP = ("-h", "--help")


def _rows(command):
    return OPTIONS + (KLASS,) if command == "integrate" else OPTIONS


def _usage(command):
    if command is None:
        return "usage: equisyz [-h] {%s} ..." % ",".join(COMMANDS)
    return "usage: equisyz %s [-h] %s INPUT" % (
        command, " ".join("[%s %s]" % (row[0][0], row[4]) for row in _rows(command)))


def _check_help(command):
    names = ",".join(COMMANDS[command][1])
    if command == "module-analyze":  # its runner reads no check names
        return "%s is the only name; every check always runs" % names
    if not names:
        return "takes no names; every check always runs"
    return "comma-separated checks to run, of %s (default: all)" % names


def _help(command):
    if command is None:
        return "\n".join([
            _usage(None), "", "Syzygy and equivariant-cohomology analyses over Q.", "",
            "commands: " + ", ".join(COMMANDS),
            "('equisyz COMMAND --help' lists the options of one)", "",
            "options:", "  -h, --help  show this help and exit"])
    rows = [("INPUT", "path to the JSON input"), ("-h, --help", "show this help and exit")]
    rows += [(", ".join("%s %s" % (name, row[4]) for name in row[0]),
              row[5] or _check_help(command)) for row in _rows(command)]
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(command), "", "arguments:"]
                     + ["  %-*s%s" % (width, left, text) for left, text in rows])


def _classify(token, names):
    """What token is among the option names and -h/--help, by argparse's
    rules: None for a positional, (name, the value joined to it or None),
    or (None, None) for an unknown option.  A long option may be shortened
    to a unique prefix; an ambiguous prefix raises InputError."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[:2] == "-h":  # -hVALUE joins a value to -h, as -h=VALUE does
        return "-h", token[2:] or None
    if token[:2] == "--":
        name, eq, value = token.partition("=")
        longs = (*names, "--help")
        matches = [name] if name in longs else [n for n in longs if n.startswith(name)]
        if len(matches) > 1:
            raise InputError("ambiguous option: %s could match %s"
                             % (name, ", ".join(matches)))
        if matches:
            return matches[0], value if eq else None
    # an unknown option that reads as a negative number or holds a space
    # is a positional
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _parse_command(command, tokens):
    """The arguments of command: tokens read left to right, as argparse
    reads them.  Raises InputError on the first error it meets, but on an
    unknown or extra argument or a missing INPUT only at the end, so that
    a later -h still prints the help."""
    rows = {name: row for row in _rows(command) for name in row[0]}
    # argparse reads every token before '--' first, so an ambiguous prefix
    # is rejected even after -h
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_classify(token, rows) for token in tokens[:end]]
    args = {"command": command, "input": None}
    args.update((row[1], row[2]) for row in rows.values())
    unrecognized = []
    input_at = None
    i = 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i] if i < end else None
        if i == end:
            # '--' ends the options; argparse drops it unless INPUT came
            # before it, not right before it
            if input_at is not None and input_at != i - 1:
                unrecognized.append(token)
        elif kind is None:
            if input_at is None:
                args["input"], input_at = token, i
            else:
                unrecognized.append(token)
        elif kind[0] is None:
            unrecognized.append(token)
        elif kind[0] in HELP:
            if kind[1] is not None:
                raise InputError("argument -h/--help: ignored explicit argument %r" % kind[1])
            print(_help(command))
            raise SystemExit(0)
        else:
            name, value = kind
            if value is None:
                if i + 1 == end or kinds[i + 1] is not None:
                    raise InputError("argument %s: expected one argument" % name)
                i += 1
                value = tokens[i]
            _, dest, _, read, metavar, _ = rows[name]
            try:
                args[dest] = read(value)
            except ValueError:
                raise InputError("argument %s: invalid %s value: %r"
                                 % (name, metavar, value)) from None
        i += 1
    if input_at is None:
        raise InputError("the following arguments are required: INPUT")
    if unrecognized:
        raise InputError("unrecognized arguments: %s" % " ".join(unrecognized))
    return SimpleNamespace(**args)


def _parse(argv):
    """Parsed arguments, or None when argv is rejected: the usage and the
    reason are then printed to stderr.  -h or --help prints the help and
    raises SystemExit(0)."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        if command is not None:
            return _parse_command(command, argv[1:])
        if argv and _classify(argv[0], ()) in (("-h", None), ("--help", None)):
            print(_help(None))
            raise SystemExit(0)
        raise InputError("the first argument must be a command: %s" % ", ".join(COMMANDS))
    except InputError as exc:
        print("%s\nequisyz: error: %s" % (_usage(command), exc), file=sys.stderr)
        return None


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
            from .gradmod import betti_text
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
