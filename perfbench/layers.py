"""Which program functions the traced run wraps, and the per-layer metrics
derived from the spans and counters they record.

Each entry patches a name where its caller looks it up: ``contract_alg``
imports enumerate_components, solve_lp_exact, blowup_from_solution and
greedy_max_weight_basis by name, ``bcr_quasi`` imports solve_lp by name,
``hyperlp`` imports solve_lp from simplexq at call time, and methods are
patched on their class.
"""

from math import comb

ROOT_SPAN = "bench.instance"


def _n(key):
    def count(counts, args, kwargs, out):
        counts[key] += 1
    return count


def _enumerate(counts, args, kwargs, out):
    r = len(args[0].terminals)
    k = kwargs.get("max_size", args[1] if len(args) > 1 else None) or r
    counts["components.count"] += len(out)
    counts["components.tried"] += sum(comb(r, s) for s in range(2, k + 1))


def _solve_lp(counts, args, kwargs, out):
    c, A_ub = args[0], args[1]
    A_eq = args[3] if len(args) > 3 else kwargs.get("A_eq", ())
    counts["simplexq.solves"] += 1
    counts["simplexq.rows"] += len(A_ub) + len(A_eq)
    counts["simplexq.cols"] += len(c)


def _blowup(counts, args, kwargs, out):
    counts["hyperlp.blowup_n"] += out.N
    counts["hyperlp.blowup_copies"] += len(out.copies)
    counts["hyperlp.blowup_edges"] += len(out.edges)


def _greedy(counts, args, kwargs, out):
    counts["removal_matroid.greedy_bases"] += 1
    counts["removal_matroid.basis_elements"] += len(out)


def patch_table(hs):
    """(owner, attribute, span name, counter) for every wrapped call."""
    ca, hl, sp = hs.contract_alg, hs.hyperlp, hs.splitting
    return [
        (hs.instance, "parse_stp", "instance.parse_stp", None),
        (ca, "run", "contract_alg.run", None),
        (ca, "run_from_solution", "contract_alg.run_from_solution", None),
        (ca, "enumerate_components", "components.enumerate_components", _enumerate),
        (ca, "solve_lp_exact", "hyperlp.solve_lp_exact", None),
        (ca, "blowup_from_solution", "hyperlp.blowup_from_solution", _blowup),
        (hl, "blowup_from_solution", "hyperlp.blowup_from_solution", _blowup),
        (hl.BlowupGraph, "slack_table", "hyperlp.slack_table", _n("hyperlp.slack_tables")),
        (hs.simplexq, "solve_lp", "simplexq.solve_lp", _solve_lp),
        (hs.bcr_quasi, "solve_lp", "simplexq.solve_lp", _solve_lp),
        (hs.sepflow, "most_violated_mask", "sepflow.most_violated_mask",
         _n("sepflow.separations")),
        (hs.sepflow.FlowNet, "max_flow", "sepflow.max_flow", _n("sepflow.max_flows")),
        (hs.removal_matroid.RemovalMatroid, "rank", "removal_matroid.rank",
         _n("removal_matroid.rank_queries")),
        (ca, "greedy_max_weight_basis", "removal_matroid.greedy_max_weight_basis", _greedy),
        (sp, "binarize", "splitting.binarize", None),
        (sp, "optimal_splitting_set", "splitting.optimal_splitting_set", None),
        (sp, "map_back", "splitting.map_back", None),
        (sp, "quasi_bipartite_splitting_set", "splitting.quasi_bipartite_splitting_set", None),
        (ca, "select_component", "contract_alg.select_component", None),
        (ca, "contract_step", "contract_alg.contract_step", _n("contract_alg.iterations")),
        (hs.bcr_quasi, "preprocess_quasi", "bcr_quasi.preprocess_quasi", None),
        (hs.bcr_quasi, "solve_bcr", "bcr_quasi.solve_bcr", None),
        (hs.bcr_quasi, "natural_decomposition", "bcr_quasi.natural_decomposition", None),
    ]


# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "instance.parse_s": ["instance.parse_stp"],
    "components.enumerate_s": ["components.enumerate_components"],
    "simplexq.solve_lp_s": ["simplexq.solve_lp"],
    "hyperlp.solve_lp_exact_s": ["hyperlp.solve_lp_exact"],
    "hyperlp.blowup_s": ["hyperlp.blowup_from_solution"],
    "hyperlp.slack_table_s": ["hyperlp.slack_table"],
    "sepflow.separate_s": ["sepflow.most_violated_mask"],
    "sepflow.max_flow_s": ["sepflow.max_flow"],
    "removal_matroid.rank_s": ["removal_matroid.rank"],
    "removal_matroid.greedy_s": ["removal_matroid.greedy_max_weight_basis"],
    "splitting.binarize_s": ["splitting.binarize"],
    "splitting.dp_s": ["splitting.optimal_splitting_set"],
    "splitting.map_back_s": ["splitting.map_back"],
    "splitting.quasi_s": ["splitting.quasi_bipartite_splitting_set"],
    "contract_alg.select_s": ["contract_alg.select_component"],
    "contract_alg.step_s": ["contract_alg.contract_step"],
    "contract_alg.other_s": ["contract_alg.run", "contract_alg.run_from_solution"],
    "bcr_quasi.preprocess_s": ["bcr_quasi.preprocess_quasi"],
    "bcr_quasi.solve_bcr_s": ["bcr_quasi.solve_bcr"],
    "bcr_quasi.decompose_s": ["bcr_quasi.natural_decomposition"],
}

COUNTS = [
    "components.count", "simplexq.solves", "simplexq.rows", "simplexq.cols",
    "hyperlp.blowup_n", "hyperlp.blowup_copies", "hyperlp.blowup_edges",
    "hyperlp.slack_tables", "sepflow.separations", "sepflow.max_flows",
    "removal_matroid.rank_queries", "removal_matroid.greedy_bases",
    "contract_alg.iterations",
]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, passes, times):
    """Per-layer metrics for one pass over the corpus: span self times and
    counters divided by the number of traced passes.  The tracing overhead
    compares traced and untraced passes in reference seconds."""
    own = tracer.self_times_ns()
    c = tracer.counts
    out = {}
    for name, spans in SELF_TIMES.items():
        out[name] = (sum(own.get(s, 0) for s in spans) / 1e9 / passes, "s")
    for name in COUNTS:
        out[name] = (c[name] / passes, "count")
    out["components.kept_ratio"] = (_ratio(c["components.count"], c["components.tried"]), "ratio")
    out["removal_matroid.accept_ratio"] = (
        _ratio(c["removal_matroid.basis_elements"], c["removal_matroid.rank_queries"]), "ratio")
    out["contract_alg.basis_use_ratio"] = (
        _ratio(c["contract_alg.iterations"], c["removal_matroid.greedy_bases"]), "ratio")
    layers_s = sum(v for k, (v, u) in out.items() if u == "s")
    traced_solve_s = sum(times["traced"]) / passes
    untraced_ref_s = sum(times["plain_ref"]) / passes
    out["trace.solve_s"] = (traced_solve_s, "s")
    out["trace.untraced_solve_s"] = (untraced_ref_s, "s")
    out["trace.overhead_s"] = (sum(times["traced_ref"]) / passes - untraced_ref_s, "s")
    out["trace.unattributed_s"] = (own.get(ROOT_SPAN, 0) / 1e9 / passes, "s")
    out["trace.attributed_ratio"] = (_ratio(layers_s, traced_solve_s), "ratio")
    out["trace.spans"] = (len(tracer) / passes, "count")
    return out
