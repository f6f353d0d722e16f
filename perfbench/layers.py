"""Per-layer numbers for the traced run.

``kg_layer_pass`` runs the flagship's stages single-process over the
workload's own corpus, calling the same public functions the pipeline's
tasks call, each inside a span. ``exchange_stats`` reads the conv_id
exchange out of ``Dataset.stats()`` of a held ``build_triples`` job.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

from rayld.kernel import JsonLdOptions
from rayld.kernel.api import JsonLdApi
from rayld.pipelines.kg import expand_turns
from rayld.stages.docs import build_conv_node, expand_turn_doc
from rayld.stages.linker import MentionLinker
from rayld.state.gazetteer import build_gazetteer

# span name -> per-layer metric it feeds (µs per turn)
KG_LAYER_SPANS = {
    "linker": "linker.us_per_turn",
    "expand": "expand.us_per_turn",
    "kernel.json_loads": "kernel.json_loads_us_per_turn",
    "kernel.to_rdf": "kernel.to_rdf_us_per_turn",
    "kernel.c14n": "kernel.c14n_us_per_turn",
}


def kg_layer_pass(tracer, corpus: pa.Table) -> dict:
    """Link -> expand (+ json.dumps) -> json.loads -> node map/toRDF -> c14n,
    one process, over ``corpus``. Returns the per-turn metrics."""
    n_turns = corpus.num_rows
    linker = MentionLinker(gazetteer=build_gazetteer())
    with tracer.span("layers.kg"):
        with tracer.span("linker"):
            linked = linker(corpus)
        with tracer.span("expand"):
            expanded = expand_turns(linked)
        order = pc.sort_indices(
            expanded, [("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
        rows = expanded.take(order)
        conv = rows["conv_id"].to_pylist()
        turn = rows["turn_idx"].to_pylist()
        exp = rows["expanded"].to_pylist()
        err = rows["error"].to_pylist()
        n_quads = 0
        opts = JsonLdOptions("")
        start = 0
        for i in range(1, len(conv) + 1):
            if i < len(conv) and conv[i] == conv[start]:
                continue
            with tracer.span("expand"):
                nodes = expand_turn_doc(
                    build_conv_node(conv[start], turn[start:i])
                )
            with tracer.span("kernel.json_loads"):
                for s, e in zip(exp[start:i], err[start:i]):
                    if not e:
                        nodes.extend(json.loads(s))
            with tracer.span("kernel.to_rdf"):
                api = JsonLdApi(nodes, opts, clone_input=False)
                dataset = api.to_rdf()
            with tracer.span("kernel.c14n"):
                n_quads += len(api.canonicalize_quads(dataset))
            start = i
    busy = tracer.self_times()
    out = {metric: busy[span] * 1e6 / n_turns
           for span, metric in KG_LAYER_SPANS.items()}
    n_entities = sum(len(json.loads(s))
                     for s in linked["entities"].to_pylist())
    out["linker.entities_per_turn"] = n_entities / n_turns
    out["expand.json_bytes_per_turn"] = (
        pc.sum(pc.binary_length(expanded["expanded"])).as_py() / n_turns
    )
    out["expand.quarantined"] = int(
        pc.sum(pc.not_equal(expanded["error"], "")).as_py() or 0
    )
    out["kernel.triples_per_turn"] = n_quads / n_turns
    return out


def exchange_stats(ds) -> dict:
    """The conv_id exchange of a consumed ``build_triples`` Dataset, from
    ``Dataset.stats()``: the repartition's active window, the window of
    every operator after it (the groupby sort and the map_groups body),
    and the bytes that enter the repartition. A job with no repartition
    operator reads 0 for all three."""
    ops = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        ops.extend(summary.operators_stats)

    walk(ds._get_stats_summary())
    rep = [i for i, o in enumerate(ops)
           if o.operator_name.startswith("Repartition")]
    if not rep:
        return dict.fromkeys(("exchange.repartition_s",
                              "exchange.map_groups_s", "exchange.bytes"), 0.0)

    def window(sel) -> float:
        if not sel:
            return 0.0
        return (max(o.latest_end_time for o in sel)
                - min(o.earliest_start_time for o in sel))

    return {
        "exchange.repartition_s": window([ops[i] for i in rep]),
        "exchange.map_groups_s": window(ops[rep[-1] + 1:]),
        "exchange.bytes": float(ops[rep[0]].output_size_bytes["sum"]),
    }
