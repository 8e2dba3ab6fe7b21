"""Span tracing of factorpack's layers, installed from outside the program.

``Tracer.install`` replaces each traced function at every module attribute
that binds it (``maximum_matching`` is bound in ``matching``, ``realize`` and
``factorize``), and each traced method on its class; ``Tracer.restore`` puts
every original back.  A wrapped call records a span: name, start, end and
the span that was open when it began.  Spans stay in memory, in flat arrays,
until ``analyse`` turns them into per-layer metrics and ``write`` saves them.

Left unwrapped: private stages (``_greedy_fill``, ``_enumerate_realizations``),
whose hits are inferred from the public calls below them; generators; and
constant-time helpers called once per vertex pair (``graphs.edge``,
``ColoredRealization.color_of``), whose spans would cost more than their work.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("realize", "matching", "coloring", "factorize", "switching", "graphs", "oracle", "serialize")

FUNCTIONS = {
    "realize": ("erdos_gallai_graphic", "erdos_gallai_graphic_raw", "degree_sequence_checked",
                "havel_hakimi_realize", "switch_randomize", "max_degree_bounded_subgraph",
                "find_k_factor", "kundu_realize"),
    "matching": ("toggle_alternating_path", "maximum_matching", "lemma_odd_certificate",
                 "check_odd_cycle_certificate"),
    "coloring": ("replay_trace", "make_colored_realization", "certificate_from_realization"),
    "factorize": ("monotone_triple", "merge_odd_cycle_pair", "peel_one_factor",
                  "petersen_two_factorize", "convert_two_factor", "four_ones_realization",
                  "four_ones", "half_k", "half_k_realization"),
    "switching": ("multi_switch", "parallel_two_switch"),
    "graphs": ("connected_components", "cycles_of_two_regular", "euler_circuit"),
    "oracle": ("verify_certificate",),
    "serialize": ("certificate_to_dict", "certificate_to_json"),
}
METHODS = {
    ("coloring", "ColoredRealization"): ("edges_of", "class_graph", "coloring_map", "validate",
                                         "apply_swap_batch"),
    ("graphs", "SimpleGraph"): ("complement", "adjacency", "degrees"),
}

MERGE_CASES = ("bridge", "white-e1", "white-e2", "white-e3", "white-e4", "black-e1", "black-e2",
               "black-e3", "black-e4", "parallel-e1e4", "parallel-e2e3", "black-switch", "other")

# Per-layer metrics: name -> unit.  "calls" counts spans, "s" sums the time of
# outermost spans of that name, "self_s" sums span time minus child spans.
METRICS: dict[str, str] = dict((
    ("realize.kundu_realize.calls", "count"), ("realize.kundu_realize.self_s", "s"),
    ("realize.find_k_factor.calls", "count"), ("realize.find_k_factor.hits", "count"),
    ("realize.find_k_factor.s", "s"),
    ("realize.max_degree_bounded_subgraph.calls", "count"),
    ("realize.max_degree_bounded_subgraph.s", "s"),
    ("realize.switch_randomize.calls", "count"), ("realize.havel_hakimi_realize.s", "s"),
    ("realize.erdos_gallai_graphic.calls", "count"), ("realize.erdos_gallai_graphic.s", "s"),
    ("realize.gadget_share", "ratio"), ("realize.fallback_share", "ratio"),
    ("realize.exhaustive_visits", "count"), ("realize.gadget_hotspot_share", "ratio"),
    ("matching.maximum_matching.calls", "count"), ("matching.maximum_matching.s", "s"),
    ("matching.maximum_matching.vertices", "count"), ("matching.maximum_matching.edges", "count"),
    ("matching.lemma_odd_certificate.calls", "count"), ("matching.lemma_odd_certificate.s", "s"),
    ("coloring.edges_of.calls", "count"), ("coloring.edges_of.s", "s"),
    ("coloring.validate.calls", "count"), ("coloring.validate.s", "s"),
    ("coloring.apply_swap_batch.calls", "count"), ("coloring.apply_swap_batch.s", "s"),
    ("coloring.apply_swap_batch.edges", "count"),
    ("coloring.make_colored_realization.s", "s"), ("coloring.certificate_from_realization.s", "s"),
    ("factorize.peel_one_factor.calls", "count"), ("factorize.peel_one_factor.self_s", "s"),
    ("factorize.merge_odd_cycle_pair.calls", "count"),
    ("factorize.merge_odd_cycle_pair.self_s", "s"),
    ("factorize.convert_two_factor.calls", "count"), ("factorize.convert_two_factor.self_s", "s"),
    ("factorize.petersen_two_factorize.calls", "count"), ("factorize.petersen_two_factorize.s", "s"),
    *((f"factorize.merge_case.{case}", "count") for case in MERGE_CASES),
    ("switching.multi_switch.calls", "count"), ("switching.multi_switch.s", "s"),
    ("switching.multi_switch.chain_r_sum", "count"), ("switching.multi_switch.chain_r_max", "count"),
    ("switching.parallel_two_switch.calls", "count"),
    ("graphs.complement.calls", "count"), ("graphs.complement.s", "s"),
    ("graphs.adjacency.calls", "count"), ("graphs.adjacency.s", "s"),
    ("oracle.verify_certificate.calls", "count"), ("oracle.verify_certificate.s", "s"),
    ("serialize.certificate_to_json.calls", "count"), ("serialize.certificate_to_json.s", "s"),
    *((f"{layer}.self_s", "s") for layer in (*LAYERS, "bench")),
    ("trace.spans", "count"), ("trace.untraced_s", "s"), ("trace.traced_s", "s"),
    ("trace.overhead_share", "ratio"), ("trace.self_sum_gap", "ratio"),
))

# Metrics counted by HOOKS rather than read from spans.
COUNTERS = ("realize.find_k_factor.hits", "matching.maximum_matching.vertices",
            "matching.maximum_matching.edges", "coloring.apply_swap_batch.edges",
            "switching.multi_switch.chain_r_sum", "switching.multi_switch.chain_r_max",
            *(f"factorize.merge_case.{case}" for case in MERGE_CASES))

# Spans whose union is the gadget hot spot of ``realize.gadget_hotspot_share``.
HOTSPOT_PREFIXES = ("realize.find_k_factor", "matching.")


def _merge_case(counters, args, result):
    case = result[2].resolution
    key = f"factorize.merge_case.{case if case in MERGE_CASES else 'other'}"
    counters[key] += 1


def _matching_size(counters, args, result):
    g = args[0]
    counters["matching.maximum_matching.vertices"] += g.n
    counters["matching.maximum_matching.edges"] += len(g.edges)


def _batch_size(counters, args, result):
    counters["coloring.apply_swap_batch.edges"] += len(result.trace.batches[-1].changes)


def _chain_length(counters, args, result):
    r = len(result[1].chain)
    counters["switching.multi_switch.chain_r_sum"] += r
    counters["switching.multi_switch.chain_r_max"] = max(r, counters["switching.multi_switch.chain_r_max"])


def _k_factor_hit(counters, args, result):
    counters["realize.find_k_factor.hits"] += result is not None


# Counts read at a boundary from a call's arguments or its result.
HOOKS = {
    "factorize.merge_odd_cycle_pair": _merge_case,
    "matching.maximum_matching": _matching_size,
    "coloring.apply_swap_batch": _batch_size,
    "switching.multi_switch": _chain_length,
    "realize.find_k_factor": _k_factor_hit,
}


class Tracer:
    """Span recorder for one traced pass; install, run, restore, analyse."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._depth: dict[int, int] = {}
        self.outermost = array("b")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth[self._ids[name]] = 0
        return self._ids[name]

    def begin(self, name: str) -> int:
        nid = self._id(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.outermost.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[self.name_id[i]] -= 1

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        begin, finish, counters = self.begin, self.finish, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "factorpack" or name.startswith("factorpack."))]
        for layer, names in FUNCTIONS.items():
            mod = importlib.import_module(f"factorpack.{layer}")
            for fname in names:
                orig = getattr(mod, fname)
                if inspect.isgeneratorfunction(orig):
                    raise TypeError(f"{layer}.{fname} is a generator; a span would end at creation")
                wrapper = self._wrap(orig, f"{layer}.{fname}")
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(importlib.import_module(f"factorpack.{layer}"), cls_name)
            for mname in names:
                orig = cls.__dict__[mname]
                self._patched.append((cls, mname, orig))
                setattr(cls, mname, self._wrap(orig, f"{layer}.{mname}"))

    def restore(self) -> None:
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        leftover = [f"{obj.__name__}.{attr}" for obj, attr, orig in self._patched
                    if vars(obj)[attr] is not orig]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"originals not restored: {leftover}")

    def analyse(self, traced_wall_ns: int, untraced_wall_ns: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (see METRICS)."""
        n_spans = len(self.start)
        names = self.names
        nid, parent = self.name_id, self.parent
        dur = array("q", (self.end[i] - self.start[i] for i in range(n_spans)))
        child = array("q", bytes(8 * n_spans))
        for i in range(n_spans):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls: dict[str, int] = {}
        incl: dict[str, int] = {}
        own: dict[str, int] = {}
        layer_self: dict[str, int] = {}
        for i in range(n_spans):
            name = names[nid[i]]
            calls[name] = calls.get(name, 0) + 1
            if self.outermost[i]:
                incl[name] = incl.get(name, 0) + dur[i]
            own[name] = own.get(name, 0) + dur[i] - child[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0) + dur[i] - child[i]

        # Nearest kundu_realize ancestor, request root and hot-spot cover per span.
        kundu = self._ids.get("realize.kundu_realize", -2)
        hot_ids = {self._ids[n] for n in names if n.startswith(HOTSPOT_PREFIXES)}
        fk_id = self._ids.get("realize.find_k_factor", -2)
        sw_id = self._ids.get("realize.switch_randomize", -2)
        owner = array("i", [-1]) * n_spans
        root = array("i", [0]) * n_spans
        covered = array("b", [0]) * n_spans
        fk_per_kundu: dict[int, int] = {}
        sw_kundu: set[int] = set()
        gadget_roots: set[int] = set()
        hot_ns: dict[int, int] = {}
        for i in range(n_spans):
            p = parent[i]
            root[i] = root[p] if p >= 0 else i
            owner[i] = i if nid[i] == kundu else (owner[p] if p >= 0 else -1)
            covered[i] = p >= 0 and (covered[p] or nid[p] in hot_ids)
            if nid[i] == kundu:
                fk_per_kundu.setdefault(i, 0)
            elif nid[i] == fk_id:
                gadget_roots.add(root[i])
                if owner[i] >= 0:
                    fk_per_kundu[owner[i]] = fk_per_kundu.get(owner[i], 0) + 1
            elif nid[i] == sw_id and owner[i] >= 0:
                sw_kundu.add(owner[i])
            if nid[i] in hot_ids and not covered[i]:
                hot_ns[root[i]] = hot_ns.get(root[i], 0) + dur[i]
        kundu_calls = max(1, len(fk_per_kundu))
        gadget_wall = sum(dur[r] for r in gadget_roots)

        out: dict[str, float] = {}
        for key in METRICS:
            if key in self.counters:
                out[key] = self.counters[key]
                continue
            head, _, stat = key.rpartition(".")
            if stat == "calls":
                out[key] = calls.get(head, 0)
            elif stat == "s":
                out[key] = incl.get(head, 0) / 1e9
            elif stat == "self_s":
                out[key] = (layer_self.get(head, 0) if head in (*LAYERS, "bench") else own.get(head, 0)) / 1e9
        out["realize.gadget_share"] = sum(1 for c in fk_per_kundu.values() if c) / kundu_calls
        out["realize.fallback_share"] = len(sw_kundu) / kundu_calls
        out["realize.exhaustive_visits"] = sum(max(0, c - 1) for c in fk_per_kundu.values())
        out["realize.gadget_hotspot_share"] = (
            sum(hot_ns.get(r, 0) for r in gadget_roots) / gadget_wall if gadget_wall else 0.0)
        self_sum = sum(layer_self.values())
        out["trace.spans"] = n_spans
        out["trace.untraced_s"] = untraced_wall_ns / 1e9
        out["trace.traced_s"] = traced_wall_ns / 1e9
        out["trace.overhead_share"] = traced_wall_ns / untraced_wall_ns - 1
        out["trace.self_sum_gap"] = abs(traced_wall_ns - self_sum) / traced_wall_ns
        return out

    def write(self, path) -> None:
        """Save every span as `name<TAB>parent<TAB>start_ns<TAB>end_ns`, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.parent[i]}\t{self.start[i]}\t{self.end[i]}\n")
