"""Seeded input generators for the benchmark workloads.

GKM graphs (Goresky-Kottwitz-MacPherson 1998; Tymoczko, math/0503369) of
projective spaces, Grassmannians, full flag varieties and products of
projective lines, plus finitely presented modules (the residue field and
random quadric ideals).  Every generator returns the JSON object the CLI
reads; the program never sees the seed.

GKM graphs are emitted in the family's canonical order: vertices in
lexicographic order of their combinatorial labels, edges grouped by first
vertex.  The seed only flips edge orientations (swapping the endpoints and
negating the weight), which describes the same space and leaves every
call count of the kernel computation unchanged.  Do not let the seed
reorder vertices or edges: the cost of the kernel Groebner basis depends
on that order by a factor of 3-20 or more (Gr(2,5) takes about 2 s in
canonical order, 7-14 s with vertices or edges shuffled, over 40 s for one
shuffle), so a shuffle would turn the benchmark into a lottery.
"""

import itertools
import random


def _unit(n, i):
    return [1 if j == i else 0 for j in range(n)]


def _diff(n, i, j):
    """Weight t_i - t_j (0-based indices)."""
    return [(1 if k == i else 0) - (1 if k == j else 0) for k in range(n)]


def _graph(rank, vertices, edges, rng):
    """GKM JSON in canonical order; rng flips each edge with probability 1/2."""
    out = []
    for v, w, weight in edges:
        if rng.random() < 0.5:
            v, w, weight = w, v, [-x for x in weight]
        out.append({"v": v, "w": w, "weight": weight})
    return {"rank": rank, "vars": ["t%d" % (i + 1) for i in range(rank)],
            "vertices": vertices, "edges": out}


def projective_space(n, seed, symmetric=False):
    """P^n under T^(n+1): vertices the coordinate points, one edge per pair."""
    rank = n + 1
    labels = list(range(rank))
    names = [str(i) for i in labels]
    edges = [(names[i], names[j], _diff(rank, i, j))
             for i, j in itertools.combinations(labels, 2)]
    obj = _graph(rank, names, edges, random.Random(seed))
    if symmetric:
        obj["symmetry"] = _symmetric_group(rank, labels, names,
                                           lambda s, i: s[i])
    return obj


def grassmannian(k, n, seed):
    """Gr(k,n) under T^n: vertices the k-subsets, edges S -> S - i + j."""
    subsets = list(itertools.combinations(range(n), k))
    name = {s: "".join(str(i + 1) for i in s) for s in subsets}
    edges = []
    for s in subsets:
        for i in s:
            for j in range(n):
                if j in s:
                    continue
                t = tuple(sorted(set(s) - {i} | {j}))
                if t > s:
                    edges.append((name[s], name[t], _diff(n, j, i)))
    return _graph(n, [name[s] for s in subsets], edges, random.Random(seed))


def flag_variety(n, seed, symmetric=False):
    """Fl(n) under T^n: vertices the permutations, edges w -> w.(i j)."""
    perms = list(itertools.permutations(range(n)))
    names = ["".join(str(x + 1) for x in w) for w in perms]
    name = dict(zip(perms, names))
    edges = []
    for w in perms:
        for i, j in itertools.combinations(range(n), 2):
            u = list(w)
            u[i], u[j] = u[j], u[i]
            u = tuple(u)
            if u > w:
                edges.append((name[w], name[u], _diff(n, w[i], w[j])))
    obj = _graph(n, names, edges, random.Random(seed))
    if symmetric:
        obj["symmetry"] = _symmetric_group(n, perms, names,
                                           lambda s, w: tuple(s[x] for x in w))
    return obj


def p1_power(k, seed):
    """(P^1)^k under T^k: vertices the 0/1 words, edges flip one letter."""
    words = list(itertools.product((0, 1), repeat=k))
    name = {w: "".join(map(str, w)) for w in words}
    edges = []
    for w in words:
        for i in range(k):
            if w[i] == 0:
                u = w[:i] + (1,) + w[i + 1:]
                edges.append((name[w], name[u], _unit(k, i)))
    return _graph(k, [name[w] for w in words], edges, random.Random(seed))


def _symmetric_group(n, labels, names, act):
    """S_n permuting the torus coordinates: adjacent transpositions as
    permutation matrices, elementary symmetric invariants, and the vertex
    map act(s, label) of each transposition s (a tuple i -> s[i])."""
    variables = ["t%d" % (i + 1) for i in range(n)]
    name = dict(zip(labels, names))
    gens, maps = [], []
    for a in range(n - 1):
        s = list(range(n))
        s[a], s[a + 1] = s[a + 1], s[a]
        gens.append([[str(int(s[j] == i)) for j in range(n)] for i in range(n)])
        maps.append({name[x]: name[act(s, x)] for x in labels})
    invariants = ["+".join("*".join(variables[i] for i in c)
                           for c in itertools.combinations(range(n), d))
                  for d in range(1, n + 1)]
    return {"group": {"rank": n, "vars": variables, "generators": gens,
                      "invariants": invariants},
            "vertex_maps": maps}


def _signs(n, seed):
    rng = random.Random(seed)
    return [rng.choice((-1, 1)) for _ in range(n)]


def _term(coeff, factors):
    """Text of coeff * product(factors), e.g. -2*x1*x3 or x2^2."""
    mono = "*".join("%s^%d" % (x, e) if e > 1 else x
                    for x, e in sorted(factors.items()))
    sign = "-" if coeff < 0 else "+"
    return sign + (mono if abs(coeff) == 1 else "%d*%s" % (abs(coeff), mono))


def _cyclic_module(nvars, polys, degree):
    xs = ["x%d" % (i + 1) for i in range(nvars)]
    return {"ring": {"vars": xs, "degrees": [2] * nvars},
            "row_degrees": [0], "col_degrees": [degree] * len(polys),
            "matrix": [[p.lstrip("+") for p in polys]]}


def residue_field(nvars, seed):
    """Q[x1..xn]/(x1..xn) as a cyclic module in degree 0; the seed picks
    the sign of each generator."""
    signs = _signs(nvars, seed)
    return _cyclic_module(nvars, [_term(s, {"x%d" % (i + 1): 1})
                                  for i, s in enumerate(signs)], 2)


QUADRIC_VARS = 4


def quadric_ideal(draw, seed):
    """R/I for 3 quadrics in QUADRIC_VARS variables, each with 4 distinct
    monomials and coefficients in +-{1,2,3}.

    `draw` fixes the quadrics; the seed applies the coordinate sign change
    x_i -> +-x_i and a sign per generator.  That maps the computation onto
    an isomorphic one with the same call counts.  The seed must not draw
    the quadrics: one ideal's cost ranged 0.3-1.4 s over draws 0-11 on a
    2-core x86 VM, so seed-drawn ideals would spread the op time by about
    20 % from seed to seed and hide any change smaller than that.
    """
    rng = random.Random("quadrics/%d" % draw)
    monos = list(itertools.combinations_with_replacement(range(QUADRIC_VARS), 2))
    var_signs = _signs(QUADRIC_VARS, seed)
    gen_signs = _signs(3, "%s/generators" % seed)
    polys = []
    for g in range(3):
        text = ""
        for a, b in rng.sample(monos, 4):
            coeff = (rng.choice((-3, -2, -1, 1, 2, 3))
                     * var_signs[a] * var_signs[b] * gen_signs[g])
            factors = {}
            for i in (a, b):
                x = "x%d" % (i + 1)
                factors[x] = factors.get(x, 0) + 1
            text += _term(coeff, factors)
        polys.append(text)
    return _cyclic_module(QUADRIC_VARS, polys, 4)
