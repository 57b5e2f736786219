"""Spans around calls into superdirac, installed from outside the package.

Each target is a module-level function. The wrapper replaces every binding of
the original function object in the loaded ``superdirac`` modules, so a name
bound with ``from ... import`` in another module is traced too. Methods,
nested functions and code inlined in a caller are out of reach; the report
names the per-layer metrics that depend on them.

A span is ``(name, start, end, parent, case, child_s)``: ``parent`` is the
index of the enclosing span or -1, ``case`` the case id the driver set, and
``child_s`` the time covered by direct children, so self time is
``end - start - child_s``. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

from workloads import SUITES

BUILDERS = (
    "simple_truncation",
    "verma_truncation",
    "even_simple_truncation",
    "even_verma_truncation",
    "compact_simple_truncation",
)

COLLECTIONS = ("assemble_all", "assemble_by_degree")

# (module, function, span name); span name None means "module.function"
TARGETS = [
    ("weights", "build_root_datum", None),
    ("uea", "shapovalov_pairing", None),
    *(("modules", b, None) for b in BUILDERS),
    ("modules", "certify_unitarity", None),
    ("modules", "verma_filtration_check", None),
    ("exactla", "kernel_basis", None),
    ("exactla", "column_space_coords", None),
    ("exactla", "_rref", "exactla.rref"),
    ("exactla", "definiteness", None),
    ("oscillator", "weyl_apply", None),
    ("dirac", "assemble_all", None),
    ("dirac", "assemble_by_degree", None),
    ("dirac", "assemble_block", None),
    ("dirac", "dirac_cohomology", None),
    ("dirac", "hd_ktype_table", None),
    ("dirac", "anti_selfadjoint_certificate", "dirac.anti_selfadjoint"),
    ("dirac", "dirac_square_audit", None),
    ("analysis", "character_formula_check", None),
    ("analysis", "kostant_cohomology", None),
    ("analysis", "even_decomposition_verify", None),
    ("cli", "assemble_all_parallel", None),
    ("cli", "_run_suite", "cli.suite"),
    ("cli", "cache_lookup", None),
    ("cli", "cache_store", None),
]

# per-layer metric -> (span name, field); field is calls, total or self
SPAN_METRICS = {
    "weights.build_root_datum_s": ("weights.build_root_datum", "total"),
    "uea.shapovalov_pairing_calls": ("uea.shapovalov_pairing", "calls"),
    "uea.shapovalov_pairing_self_s": ("uea.shapovalov_pairing", "self"),
    "modules.simple_truncation_s": ("modules.simple_truncation", "total"),
    "modules.compact_simple_truncation_calls": ("modules.compact_simple_truncation", "calls"),
    "modules.compact_simple_truncation_s": ("modules.compact_simple_truncation", "total"),
    "modules.certify_unitarity_s": ("modules.certify_unitarity", "total"),
    "modules.verma_filtration_check_s": ("modules.verma_filtration_check", "total"),
    "exactla.kernel_basis_calls": ("exactla.kernel_basis", "calls"),
    "exactla.kernel_basis_self_s": ("exactla.kernel_basis", "self"),
    "exactla.column_space_coords_calls": ("exactla.column_space_coords", "calls"),
    "exactla.column_space_coords_self_s": ("exactla.column_space_coords", "self"),
    "exactla.rref_calls": ("exactla.rref", "calls"),
    "exactla.rref_self_s": ("exactla.rref", "self"),
    "exactla.definiteness_self_s": ("exactla.definiteness", "self"),
    "oscillator.weyl_apply_calls": ("oscillator.weyl_apply", "calls"),
    "oscillator.weyl_apply_self_s": ("oscillator.weyl_apply", "self"),
    "dirac.assemble_all_s": ("dirac.assemble_all", "total"),
    "dirac.assemble_block_calls": ("dirac.assemble_block", "calls"),
    "dirac.assemble_block_s": ("dirac.assemble_block", "total"),
    "dirac.dirac_cohomology_s": ("dirac.dirac_cohomology", "total"),
    "dirac.hd_ktype_table_s": ("dirac.hd_ktype_table", "total"),
    "dirac.anti_selfadjoint_s": ("dirac.anti_selfadjoint", "total"),
    "dirac.dirac_square_audit_s": ("dirac.dirac_square_audit", "total"),
    "analysis.character_formula_check_s": ("analysis.character_formula_check", "total"),
    "analysis.kostant_cohomology_s": ("analysis.kostant_cohomology", "total"),
    "analysis.even_decomposition_verify_s": ("analysis.even_decomposition_verify", "total"),
    "cli.cache_lookup_s": ("cli.cache_lookup", "total"),
    "cli.cache_store_s": ("cli.cache_store", "total"),
}

SPAN_METRICS.update({f"cli.suite.{s}_s": (f"cli.suite.{s}", "total") for s in SUITES})

# exact counts the tracer reads from returned objects and from the spans
COUNT_METRICS = (
    "uea.normal_cache_entries",
    "modules.blocks",
    "modules.max_block_dim",
    "modules.gram_nnz",
    "modules.radical_dim",
    "dirac.blocks",
    "dirac.max_block_dim",
    "dirac.D_nnz",
    "dirac.ker_cap_im",
    "cli.module_builds_per_suite",
    "cli.cache_hits",
    "cli.cache_misses",
    "cli.cache_hit_ratio",
)

# work the wrappers cannot time on its own; the traced summary lists it
UNREACHABLE = {
    "uea.Algebra._normal_word": "a method: PBW straightening time is inside "
    "uea.shapovalov_pairing self time",
    "modules._build": "private builder called directly by verma_filtration_check; "
    "its Verma builds are missing from modules.* counts",
    "dirac.assemble_block.gen_matrix": "a closure: generator matrices are inside "
    "dirac.assemble_block time",
    "exactla.SparseRationalMatrix.matmul": "a method: D^2 and audit products are "
    "inside their callers' self time",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.case = None
        self._stack: list[list] = []
        self.missing: list[str] = []
        self._modules: dict = {}
        self._collections: dict = {}
        self._reports: dict = {}
        self.normal_cache_entries = 0
        self.warm = False
        self.hits = 0
        self.warm_hits = 0
        self.warm_lookups = 0

    # ----- wrappers ---------------------------------------------------------------
    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (span_name, start, end, parent, self.case, frame[1])
                if self._stack:
                    self._stack[-1][1] += end - start
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a driver-level span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        loaded = [
            mod for key, mod in sys.modules.items()
            if key == "superdirac" or key.startswith("superdirac.")
        ]
        for modname, attr, span_name in TARGETS:
            mod = sys.modules.get(f"superdirac.{modname}")
            orig = getattr(mod, attr, None)
            label = f"{modname}.{attr}"
            if orig is None or not callable(orig):
                self.missing.append(label)
                continue
            name = span_name or label
            on_return = None
            if attr in BUILDERS:
                on_return = self._on_module
            elif attr in COLLECTIONS or attr == "assemble_all_parallel":
                on_return = self._on_collection
            elif attr == "dirac_cohomology":
                on_return = self._on_report
            elif attr == "cache_lookup":
                on_return = self._on_lookup
            if attr == "_run_suite":
                name = _suite_span_name
            wrapped = self.wrap(name, orig, on_return)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    # ----- counts read from returned objects ----------------------------------------
    def _on_module(self, module) -> None:
        d = module.datum
        key = (module.kind, d.m, d.n, d.p, d.q, module.highest_weight.text(), str(module.height))
        cache = getattr(module.alg, "_normal_cache", None)
        if cache is not None:
            self.normal_cache_entries = max(self.normal_cache_entries, len(cache))
        if key in self._modules:
            return
        blocks = list(module.blocks.values())
        self._modules[key] = (
            len(blocks),
            max((len(b.monomials) for b in blocks), default=0),
            sum(len(b.gram.entries) for b in blocks),
            sum(len(b.radical) for b in blocks),
        )

    @staticmethod
    def _coll_key(module, height, extra):
        d = module.datum
        return (module.kind, d.m, d.n, d.p, d.q, module.highest_weight.text(),
                str(module.height), str(height), extra)

    def _on_collection(self, coll) -> None:
        key = self._coll_key(coll.module, coll.height, tuple(nu.text() for nu in coll.blocks))
        if key in self._collections:
            return
        blocks = list(coll.blocks.values())
        self._collections[key] = (
            len(blocks),
            max((b.dim for b in blocks), default=0),
            sum(len(b.D.entries) for b in blocks),
        )

    def _on_report(self, report) -> None:
        key = self._coll_key(report.module, report.height,
                             tuple(nu.text() for nu in report.per_block))
        self._reports[key] = sum(bc.ker_cap_im for bc in report.per_block.values())

    def _on_lookup(self, payload) -> None:
        self.hits += payload is not None
        if self.warm:
            self.warm_lookups += 1
            self.warm_hits += payload is not None

    # ----- summary --------------------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name: [calls, total seconds, self seconds]."""
        out: dict[str, list] = {}
        for name, start, end, _parent, _case, child in self.spans:
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child
        return out

    def counts(self, agg: dict) -> dict:
        mods = list(self._modules.values())
        colls = list(self._collections.values())
        suites = [i for i, s in enumerate(self.spans) if s[0].startswith("cli.suite.")]
        suite_set = set(suites)
        builds = 0
        for name, _s, _e, parent, _c, _ch in self.spans:
            if name != "modules.simple_truncation":
                continue
            while parent >= 0 and parent not in suite_set:
                parent = self.spans[parent][3]
            builds += parent >= 0
        lookups = agg.get("cli.cache_lookup", [0])[0]
        return {
            "uea.normal_cache_entries": self.normal_cache_entries,
            "modules.blocks": sum(m[0] for m in mods),
            "modules.max_block_dim": max((m[1] for m in mods), default=0),
            "modules.gram_nnz": sum(m[2] for m in mods),
            "modules.radical_dim": sum(m[3] for m in mods),
            "dirac.blocks": sum(c[0] for c in colls),
            "dirac.max_block_dim": max((c[1] for c in colls), default=0),
            "dirac.D_nnz": sum(c[2] for c in colls),
            "dirac.ker_cap_im": sum(self._reports.values()),
            "cli.module_builds_per_suite": builds / len(suites) if suites else 0,
            "cli.cache_hits": self.hits,
            "cli.cache_misses": lookups - self.hits,
            "cli.cache_hit_ratio": (
                self.warm_hits / self.warm_lookups if self.warm_lookups else 0
            ),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "case", "child_s"],
                    "spans": self.spans,
                },
                fh,
            )


def _suite_span_name(args, kwargs) -> str:
    suite = kwargs.get("suite", args[3] if len(args) > 3 else "unknown")
    return f"cli.suite.{suite}"
