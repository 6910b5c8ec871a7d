"""Per-command output oracle built from facts that do not come from equisyz.

Each factory returns a function report -> list of problems (empty when the
report is right).  The expected values are classical: Poincare polynomials
of the spaces (Gaussian binomials, q-factorials), the Koszul complex of the
residue field, and the Auslander-Buchsbaum formula.
"""

from math import comb

GKM_CHECKS = {
    "cs": {"chang-skjelbred-kernel", "reflexivity-vs-cs-exactness"},
    "pairing": {"poincare-pairing-perfection"},
    "descend": {"descent-syzygy-invariance", "descent-base-change-hilbert"},
}


def _qmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _qint(n):
    """[n]_q = 1 + q + ... + q^(n-1), coefficients in q = t^2."""
    return [1] * n


def poincare_projective(n):
    return _qint(n + 1)


def poincare_flag(n):
    out = [1]
    for i in range(1, n + 1):
        out = _qmul(out, _qint(i))
    return out


def poincare_grassmannian(k, n):
    """Gaussian binomial [n choose k]_q by [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    if k == 0 or k == n:
        return [1]
    low = poincare_grassmannian(k - 1, n - 1)
    high = [0] * k + poincare_grassmannian(k, n - 1)
    return [(low[i] if i < len(low) else 0) + high[i] for i in range(len(high))]


def poincare_p1_power(k):
    return [comb(k, i) for i in range(k + 1)]


def _status(report, code):
    problems = []
    if code != 0 or report.get("status") != "pass":
        problems.append("exit %s, status %s, error %s"
                        % (code, report.get("status"), report.get("error")))
    failed = [c["name"] for c in report.get("checks", ())
              if c["verdict"] == "fail"]
    if failed:
        problems.append("failed checks: %s" % failed)
    return problems


def gkm(poincare, checks):
    """Kernel free of rank = vertex count with Betti degrees = Poincare
    polynomial, and every check named by `checks` present and passing."""
    expected_betti = [[0, 2 * i, c] for i, c in enumerate(poincare) if c]
    wanted = set().union(*(GKM_CHECKS[c] for c in checks))

    def check(report, code):
        problems = _status(report, code)
        s = report.get("summary", {})
        if not s.get("kernel_free"):
            problems.append("kernel is not free")
        if s.get("kernel_rank") != sum(poincare):
            problems.append("kernel rank %s != %d"
                            % (s.get("kernel_rank"), sum(poincare)))
        if s.get("kernel_betti") != expected_betti:
            problems.append("kernel Betti %s != %s"
                            % (s.get("kernel_betti"), expected_betti))
        seen = {c.get("theorem"): c for c in report.get("checks", ())}
        for name in sorted(wanted):
            item = seen.get(name)
            if item is None or item["verdict"] != "pass":
                problems.append("check %s did not pass" % name)
            elif name == "poincare-pairing-perfection" and not item[
                    "details"].get("perfect"):
                problems.append("pairing is not perfect")
        return problems
    return check


def residue_field(nvars):
    """Koszul: beta_{i,2i} = C(n,i); depth 0; Cohen-Macaulay."""
    expected_betti = [[i, 2 * i, comb(nvars, i)] for i in range(nvars + 1)]

    def check(report, code):
        problems = _status(report, code)
        s = report.get("summary", {})
        if s.get("betti") != expected_betti:
            problems.append("Betti %s != %s" % (s.get("betti"), expected_betti))
        if s.get("depth") != 0:
            problems.append("depth %s != 0" % s.get("depth"))
        if s.get("cohen_macaulay") != "cm":
            problems.append("status %s != cm" % s.get("cohen_macaulay"))
        return problems
    return check


def cyclic_quotient(nvars):
    """Alternating Betti sum = Hilbert numerator; depth + pd = nvars."""
    def check(report, code):
        problems = _status(report, code)
        s = report.get("summary", {})
        betti = s.get("betti") or []
        alt = {}
        for i, d, n in betti:
            alt[d] = alt.get(d, 0) + (-1) ** i * n
        alt = sorted([d, n] for d, n in alt.items() if n)
        numerator = s.get("hilbert", {}).get("numerator")
        if alt != numerator:
            problems.append("alternating Betti sum %s != numerator %s"
                            % (alt, numerator))
        pd = max((i for i, _, n in betti if n), default=None)
        if pd is None or s.get("depth") is None or s["depth"] + pd != nvars:
            problems.append("depth %s + pd %s != %d"
                            % (s.get("depth"), pd, nvars))
        return problems
    return check
