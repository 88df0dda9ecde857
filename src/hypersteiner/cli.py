"""Command-line surface: solve the component LP, run the contraction
algorithm, BCR and its decomposition, splitting-set inspection, LP
separation, partition decomposition, property-suite verification, and
seeded benchmarks.

All rationals in JSON output are {"num", "den", "decimal"}; output keys
are sorted, so identical argv + seeds give byte-identical output (bench
omits wall times unless asked, for the same reason).  Exit codes:
0 success, 1 violated invariant or failed verification, 2 usage error;
an exception with a `details` attribute adds one JSON line on stderr.
"""

import argparse
import json
import sys
import time

from .ratio import Rat, rat_to_json, LN4_UPPER
from . import instance as inst_mod
from . import components as comp_mod
from . import hyperlp, sepflow, splitting, contract_alg, bcr_quasi
from . import partition_decomp, removal_matroid, oracles


def _load(path, strategy=None):
    with open(path) as fh:
        inst = inst_mod.parse_stp(fh.read())
    # the quasi rule and its 73/60 bound hold on quasi-bipartite graphs
    # only; elsewhere its splitting fails on a non-star component
    if strategy == "quasi" and not inst.is_quasi_bipartite():
        raise ValueError("--strategy quasi needs a quasi-bipartite instance "
                         "(an edge joins two Steiner vertices)")
    return inst


def _edge_json(e):
    return [e[0], e[1]]


def _comp_json(comp):
    return {
        "terminals": sorted(comp.terminals),
        "edges": [_edge_json(e) for e in comp.edges],
        "cost": rat_to_json(comp.cost),
    }


def _solution_json(sol):
    comps = []
    for comp in sorted(sol.values, key=lambda c: (sorted(c.terminals), c.edges)):
        d = _comp_json(comp)
        d["value"] = rat_to_json(sol.values[comp])
        comps.append(d)
    return {"objective": rat_to_json(sol.objective), "components": comps}


def _emit(args, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for k in sorted(payload):
            print("%s: %s" % (k, json.dumps(payload[k], sort_keys=True)))


def _solve(inst, k):
    comps = comp_mod.enumerate_components(inst, max_size=k)
    return hyperlp.solve_lp_exact(inst, comps)


def cmd_lp(args):
    inst = _load(args.file)
    sol = _solve(inst, args.k)
    _emit(args, _solution_json(sol))
    return 0


def cmd_run(args):
    inst = _load(args.file, args.strategy)
    tree, cert = contract_alg.run(inst, k=args.k, strategy=args.strategy,
                                  seed=args.seed, check=args.check)
    lp = cert["lp_value"]
    ratio = cert["tree_cost"] / lp if lp > 0 else Rat(1)
    bound = Rat(73, 60) if args.strategy == "quasi" else LN4_UPPER
    payload = {
        "strategy": args.strategy,
        "lp": rat_to_json(lp),
        "tree_cost": rat_to_json(cert["tree_cost"]),
        "ratio": rat_to_json(ratio),
        "bound": rat_to_json(bound),
        "phi_over_n": rat_to_json(cert["phi_over_N"]),
        "iterations": _details_json(cert["iterations"]),
        "tree_edges": [_edge_json(e) for e in sorted(tree.edges)],
    }
    _emit(args, payload)
    return 0 if ratio <= bound else 1


def cmd_bcr(args):
    inst = _load(args.file)
    pre = bcr_quasi.preprocess_quasi(inst)
    sol = bcr_quasi.solve_bcr(pre)
    payload = {
        "root": sol.root,
        "objective": rat_to_json(sol.objective),
        "arcs": [{"from": a[0], "to": a[1], "capacity": rat_to_json(v)}
                 for a, v in sorted(sol.x.items())],
    }
    if args.decompose:
        dec = bcr_quasi.natural_decomposition(sol, check=args.check)
        payload["decomposition"] = _solution_json(dec)
    _emit(args, payload)
    return 0


def cmd_split(args):
    inst = _load(args.file, args.strategy)
    sol = _solve(inst, args.k)
    X = hyperlp.blowup_from_solution(inst, sol)
    state = splitting.splitting_set(X, args.strategy, args.seed)
    payload = {
        "n": X.N,
        "strategy": args.strategy,
        "core_edges": sorted(state.K),
        "cleanup": [{"edge": e, "witness_size": len(w)}
                    for e, w in sorted(state.witness.items())],
        "potential": rat_to_json(state.potential),
        "potential_over_n": rat_to_json(state.potential / X.N),
        "blowup_cost": rat_to_json(X.total_cost()),
    }
    _emit(args, payload)
    return 0


def _anchor_minima(X, h):
    """For each terminal v, the minimum of the slack table h of X over
    the sets S containing v, and its minimizer with the fewest terminals
    (ties: smallest mask).  Minimizers containing v are closed under
    intersection, so this is the least one, the minimal sink side of
    the separation flow."""
    minima = []
    for v in X.terminal_order:
        sup = X.superset_masks({v})
        low = int(h[sup].min())
        m = min(map(int, sup[h[sup] == low]), key=lambda s: (bin(s).count("1"), s))
        minima.append({"anchor": v, "min_slack": low,
                       "argmin": sorted(X.mask_terms(m))})
    return minima


def cmd_separate(args):
    inst = _load(args.file)
    sol = _solve(inst, args.k)
    X = hyperlp.blowup_from_solution(inst, sol)
    mask = sepflow.most_violated_mask(X)
    payload = {"violated": None if mask is None else sorted(X.mask_terms(mask)),
               "per_terminal_minima": _anchor_minima(X, X.slack_table())}
    _emit(args, payload)
    return 0 if mask is None else 1


def cmd_decompose(args):
    if args.remove < 0:
        raise ValueError("--remove must be >= 0, got %d" % args.remove)
    inst = _load(args.file)
    sol = _solve(inst, args.k)
    X = hyperlp.blowup_from_solution(inst, sol)
    state = splitting.splitting_set(X, "dp")
    F = frozenset(sorted(state.K)[:args.remove])
    sf = partition_decomp.slack_set_function(X, F)
    if not sf.is_nonnegative():
        print("removed edge set leaves negative slack; pick fewer edges",
              file=sys.stderr)
        return 1
    dec = partition_decomp.decompose(sf)
    payload = {
        "removed_edges": sorted(F),
        "h_at_full_set": rat_to_json(sf(frozenset(sf.ground))),
        "rounds": [{"coefficient": rat_to_json(lam),
                    "partition": sorted([sorted(b) for b in P])}
                   for lam, P in dec.parts],
    }
    _emit(args, payload)
    return 0


# ---- verify suites -------------------------------------------------------


def _seed_range(spec):
    bounds = spec.split("..")
    try:
        a, b = map(int, bounds) if len(bounds) == 2 else (0, int(spec) - 1)
    except ValueError:
        raise ValueError("--seed takes A or A..B (integers), got %r" % spec) from None
    seeds = range(a, b + 1)
    if not seeds:
        raise ValueError("--seed %s selects no seeds" % spec)
    return seeds


def _small_blowup(seed):
    inst = inst_mod.generate_random(3 + seed % 2, 1 + seed % 2, 0.4, seed=seed)
    sol = hyperlp.solve_lp_exact(inst, comp_mod.enumerate_components(inst))
    return inst, hyperlp.blowup_from_solution(inst, sol)


def _verify_matroid(seed):
    inst, X = _small_blowup(seed)
    if len(X.edges) > 10:
        return True
    termsets = {X.copy_terminals(c) for c in X.copies if len(X.copy_terminals(c)) >= 2}
    for Q in sorted(termsets, key=sorted):
        M = removal_matroid.RemovalMatroid(X, Q)
        want = set(map(frozenset, oracles.enumerate_minimal_removals(X, Q)))
        got = set(map(frozenset, oracles.removal_bases(M)))
        if want != got:
            return False
        if any(len(B) != X.N * (len(Q) - 1) for B in got):
            return False
    return True


def _verify_separation(seed):
    inst, X = _small_blowup(seed)
    table = X.slack_table()
    order = X.terminal_order
    import itertools
    for r in range(1, len(order) + 1):
        for Q in itertools.combinations(order, r):
            val, S = oracles.min_slack_over_supersets(X, Q)
            qmask = X.term_mask(Q)
            best = min(int(table[m]) for m in range(1, 1 << len(order))
                       if m & qmask == qmask)
            if val != best or int(table[X.term_mask(S)]) != best:
                return False
    return True


def _verify_uniform(seed):
    inst, X = _small_blowup(seed)
    state = splitting.splitting_set(X, "dp")
    ok, _ = oracles.verify_uniform_point(X, state.K)
    return ok


def _verify_decomposition(seed):
    inst, X = _small_blowup(seed)
    state = splitting.splitting_set(X, "dp")
    import itertools
    K = sorted(state.K)
    for r in range(1, min(2, len(K)) + 1):
        for F in itertools.combinations(K, r):
            sf = partition_decomp.slack_set_function(X, frozenset(F))
            if not sf.is_nonnegative():
                continue
            dec = partition_decomp.decompose(sf)
            full = frozenset(sf.ground)
            if dec(full) != sf(full):
                return False
            for m in range(1, 1 << len(sf.ground)):
                S = sf.unmask(m)
                if dec(S) > sf(S):
                    return False
    return True


def _verify_bcr(seed):
    inst = inst_mod.generate_random(3 + seed % 3, 2, 0.4, seed=seed,
                                    quasi_bipartite=True)
    pre = bcr_quasi.preprocess_quasi(inst)
    b = bcr_quasi.solve_bcr(pre)
    lp = hyperlp.solve_lp_exact(inst, comp_mod.enumerate_components(inst))
    if b.objective != lp.objective:
        return False
    dec = bcr_quasi.natural_decomposition(b)
    return dec.objective == b.objective and oracles.check_feasible(dec)


def _verify_splitting(seed):
    inst, X = _small_blowup(seed)
    if sum(len(c.edge_ids) for c in X.copies) > 9:
        return True
    state = splitting.splitting_set(X, "dp")
    best = min(splitting.compute_witnesses_and_weights(X, K).potential
               for K in oracles.enumerate_splitting_sets(X))
    return state.potential == best


SUITES = {
    "matroid": _verify_matroid,
    "separation": _verify_separation,
    "uniform": _verify_uniform,
    "decomposition": _verify_decomposition,
    "bcr": _verify_bcr,
    "splitting": _verify_splitting,
}


def cmd_verify(args):
    fn = SUITES[args.suite]
    failures = []
    seeds = list(_seed_range(args.seed))
    for s in seeds:
        if not fn(s):
            failures.append(s)
    payload = {"suite": args.suite, "seeds": len(seeds), "failures": failures}
    _emit(args, payload)
    return 0 if not failures else 1


def cmd_bench(args):
    if args.instances < 1:
        raise ValueError("--instances must be >= 1, got %d" % args.instances)
    comp_mod.require_enumerable(args.terminals)  # before generating anything
    rows = []
    bound = Rat(73, 60) if args.strategy == "quasi" else LN4_UPPER
    for i in range(args.instances):
        seed = args.seed + i
        inst = inst_mod.generate_random(args.terminals, args.steiner, 0.5,
                                        seed=seed,
                                        quasi_bipartite=args.strategy == "quasi")
        t0 = time.perf_counter()
        tree, cert = contract_alg.run(inst, strategy=args.strategy, seed=seed)
        dt = time.perf_counter() - t0
        lp = cert["lp_value"]
        row = {
            "instance": seed,
            "lp": rat_to_json(lp),
            "tree": rat_to_json(cert["tree_cost"]),
            "ratio": rat_to_json(cert["tree_cost"] / lp if lp > 0 else Rat(1)),
            "bound": rat_to_json(bound),
            "iterations": len(cert["iterations"]),
        }
        if args.timings:
            row["wall_time"] = dt
        rows.append(row)
    rows.sort(key=lambda r: r["instance"])
    if args.format == "csv":
        cols = ["instance", "lp", "tree", "ratio", "bound", "iterations"]
        if args.timings:
            cols.append("wall_time")
        print(",".join(cols))
        for r in rows:
            cells = []
            for c in cols:
                v = r[c]
                cells.append(str(v["decimal"]) if isinstance(v, dict) else str(v))
            print(",".join(cells))
    else:
        print(json.dumps(rows, sort_keys=True, indent=2))
    return 0


def _common_lp_flags(p):
    p.add_argument("--k", type=int, default=None,
                   help="component size cap (default: number of terminals)")


def build_parser():
    ap = argparse.ArgumentParser(prog="hypersteiner")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("lp", help="solve the component LP exactly")
    p.add_argument("file")
    _common_lp_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lp)

    p = sub.add_parser("run", help="LP + iterated contraction, with certificate")
    p.add_argument("file")
    _common_lp_flags(p)
    p.add_argument("--strategy", choices=["dp", "random", "quasi"], default="dp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bcr", help="bidirected cut relaxation (quasi-bipartite)")
    p.add_argument("file")
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bcr)

    p = sub.add_parser("split", help="splitting set, witnesses, potential")
    p.add_argument("file")
    _common_lp_flags(p)
    p.add_argument("--strategy", choices=["dp", "random", "quasi"], default="dp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("separate", help="check the LP point for violated subsets")
    p.add_argument("file")
    _common_lp_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("decompose",
                       help="partition decomposition of the slack function")
    p.add_argument("file")
    _common_lp_flags(p)
    p.add_argument("--remove", type=int, default=1,
                   help="how many core edges to remove before decomposing")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run a property suite over seeds")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", default="0..19",
                   help="range a..b or a count n (default 0..19)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="seeded instance batch, table output")
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--terminals", type=int, default=5)
    p.add_argument("--steiner", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=["dp", "random", "quasi"], default="dp")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte-level determinism)")
    p.set_defaults(fn=cmd_bench)
    return ap


def _details_json(v):
    """Iteration logs and exception details as JSON values: rationals
    through rat_to_json, tuples as lists, dict keys as strings."""
    if isinstance(v, dict):
        return {str(k): _details_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_details_json(x) for x in v]
    if v is None or isinstance(v, (int, str)):
        return v
    return rat_to_json(v)


def _report(prefix, exc):
    """The error line on stderr, then, for an exception with a `details`
    attribute (its witness data), one JSON line: type, message, details."""
    print("%s: %s" % (prefix, exc), file=sys.stderr)
    if hasattr(exc, "details"):
        print(json.dumps({"type": type(exc).__name__, "message": str(exc),
                          "details": _details_json(exc.details)},
                         sort_keys=True), file=sys.stderr)


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (AssertionError, bcr_quasi.DecompositionError,
            contract_alg.InvariantViolation, splitting.SplittingError) as exc:
        _report("invariant violated", exc)
        return 1
    except (inst_mod.STPParseError, ValueError, OSError) as exc:
        _report("error", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
