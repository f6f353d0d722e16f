"""Driver contract for the rayld engine (Ray Data target).

The driver initialises Ray BEFORE importing this module; nothing here (or in
the library) calls ray.init()/ray.shutdown().

- entry(): flagship transcripts -> canonical-triples pipeline at sf0.001 scale.
- queries(): one entry per implemented operator/pipeline (SURVEY.md §2 +
  the training-data ops); each callable takes sf_dir.
- oracle_sql(): DuckDB-equivalent SQL for the SQL-expressible subset; the
  JSON-LD / sketch-based ops are non-SQL-expressible and get the driver's
  rows-only check.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_TOKEN_RE_SQL = "[A-Za-z0-9]+"


def entry() -> Any:
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    # task-map linker + P = 2 x session cpus: sized to any driver cpu count
    return build_triples(transcripts_dataset(100))


def queries() -> dict[str, Callable[[str], Any]]:
    from rayld.pipelines import (
        ann,
        bpe,
        curation,
        dedup,
        graph,
        indexing,
        jsonld_ops,
        multimodal,
        prep,
        relational,
        text,
    )
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    def kg_triples(sf_dir: str):
        n = jsonld_ops.n_conversations_for(sf_dir)
        return build_triples(transcripts_dataset(n))

    def kg_documents_fromrdf(sf_dir: str):
        """Inverse pipeline (A6 at scale): triples -> one expanded JSON-LD
        document per conversation via distributed fromRDF."""
        from rayld.pipelines.kg import triples_to_documents

        return triples_to_documents(_kg_parquet_ds(sf_dir, "small"))

    def _kg_parquet_ds(sf_dir: str, tag: str):
        """Triples sample materialized ONCE to the process-scoped parquet
        (jsonld_ops path contract) and read back — the kg_* structural
        oracles recount the SAME file in DuckDB, so these aggregates are
        value-hash-checked rather than rows-only (verdict-r3 item 5)."""
        import ray.data as rd

        n = jsonld_ops.n_conversations_for(sf_dir)
        if tag == "small":
            n = max(50, n // 5)
        return rd.read_parquet(jsonld_ops.kg_triples_parquet(sf_dir, n, tag))

    def kg_triple_counts(sf_dir: str):
        """Aggregated view of the flagship output: triples per predicate."""
        from ray.data.aggregate import Count

        ds = _kg_parquet_ds(sf_dir, "full")
        return ds.groupby("pred").aggregate(Count(alias_name="n_triples"))

    def kg_triples_global_dedup(sf_dir: str):
        """Global exact triple dedup across conversations: a multi-column
        groupby where the full quad tuple IS the shuffle key (SURVEY.md §2.8
        'set ops/dedup') — no per-row hashing anywhere; conv-scoped bnodes
        keep their conv_id qualifier so only ground-identical quads
        collapse."""
        from ray.data.aggregate import Count

        ds = _kg_parquet_ds(sf_dir, "full").drop_columns(["conv_id"])
        cols = ["graph", "subj", "pred", "obj_kind", "obj_value",
                "obj_datatype", "obj_lang"]
        return ds.groupby(cols).aggregate(
            Count(alias_name="_n")
        ).drop_columns(["_n"])

    def kg_entity_degree(sf_dir: str):
        """Degree histogram of the constructed KG (graph analytics over the
        flagship output)."""
        from rayld.pipelines.graph import degree_histogram

        return degree_histogram(_kg_parquet_ds(sf_dir, "small"))

    def kg_pagerank(sf_dir: str):
        """Damped PageRank over the KG entity graph (iterative weighted
        propagation on the connected_components shuffle shape)."""
        from rayld.pipelines.graph import pagerank, triples_to_edges

        edges = triples_to_edges(_kg_parquet_ds(sf_dir, "small"))
        return pagerank(edges, n_iter=5)

    def kg_pagerank_gate(sf_dir: str):
        from rayld.pipelines.graph import pagerank_check

        n = min(150, max(30, jsonld_ops.n_conversations_for(sf_dir) // 10))
        return pagerank_check(n)

    def kg_entity_cooccurrence(sf_dir: str):
        """Entity co-occurrence network over the KG: conversations jointly
        mentioning each unordered entity pair (bounded pair vocabulary)."""
        from rayld.pipelines.graph import entity_cooccurrence

        return entity_cooccurrence(_kg_parquet_ds(sf_dir, "small"))

    def kg_bgp_user_mentions(sf_dir: str):
        """SPARQL-lite BGP over the KG: entities mentioned by user turns
        ({?t a rayld:Turn . ?t rayld:role 'user' . ?t schema:about ?e})."""
        from rayld.pipelines.graph import kg_user_turn_mentions

        return kg_user_turn_mentions(_kg_parquet_ds(sf_dir, "small"))

    def kg_bgp_adjacent_entities(sf_dir: str):
        """SPARQL-lite PATH BGP over the KG (object→subject joins through
        the rdf list cons chain): entity pairs mentioned in ADJACENT turns
        ({?c rdf:first ?t1 . ?c rdf:rest ?c2 . ?c2 rdf:first ?t2 .
        ?t1 schema:about ?e1 . ?t2 schema:about ?e2}), counted."""
        from rayld.pipelines.graph import kg_adjacent_turn_entities

        return kg_adjacent_turn_entities(_kg_parquet_ds(sf_dir, "small"))

    def kg_bgp_turn_depth(sf_dir: str):
        """SPARQL-lite PROPERTY-PATH BGP (rdf:rest* transitive closure):
        entities mentioned at each turn depth from the conversation list
        head ({?head rdf:rest* ?c . ?c rdf:first ?t . ?t schema:about ?e}
        with depth(?c) = path length), oracled by a DuckDB WITH RECURSIVE
        chain walk."""
        from rayld.pipelines.graph import kg_turn_depth_entities

        return kg_turn_depth_entities(_kg_parquet_ds(sf_dir, "small"))

    def kg_bgp_optional_labels(sf_dir: str):
        """SPARQL-lite OPTIONAL BGP (left-join semantics): tool results by
        node kind with two optional legs ({?t rayld:toolResult ?r .
        OPTIONAL {?r rdfs:label ?l} OPTIONAL {?r schema:ratingValue ?v}})."""
        from rayld.pipelines.graph import kg_bgp_optional_tool_labels

        return kg_bgp_optional_tool_labels(_kg_parquet_ds(sf_dir, "small"))

    def kg_construct_comention(sf_dir: str):
        """SPARQL-lite CONSTRUCT: derive the co-mention graph ({?e1
        rayld:comentionedWith ?e2} for entities sharing a turn) and
        serialize each constructed triple through the kernel N-Quads
        writer."""
        from rayld.pipelines.graph import kg_construct_comention as _ctor

        return _ctor(_kg_parquet_ds(sf_dir, "small"))

    def kg_bgp_union(sf_dir: str):
        """SPARQL-lite UNION BGP (bag semantics, shuffle-free branch
        concat): {?x rdfs:label ?l} UNION {?x schema:name ?l}, each
        solution tagged with its branch."""
        from rayld.pipelines.graph import kg_bgp_union_labels

        return kg_bgp_union_labels(_kg_parquet_ds(sf_dir, "small"))

    def kg_bgp_minus(sf_dir: str):
        """SPARQL-lite MINUS (negation / anti-join): per entity, mentions
        in turns with NO tool result ({?t schema:about ?e MINUS
        {?t rayld:toolResult ?r}}), oracled by NOT EXISTS."""
        from rayld.pipelines.graph import kg_bgp_minus_mentions

        return kg_bgp_minus_mentions(_kg_parquet_ds(sf_dir, "small"))

    def kg_bgp_filter(sf_dir: str):
        """SPARQL-lite FILTER regex over a two-leg BGP: questions per role
        ({?t schema:text ?x . ?t rayld:role ?r . FILTER regex(?x,'\\?')}),
        the regex a vectorized pyarrow kernel on the joined solutions."""
        from rayld.pipelines.graph import kg_bgp_filter_questions

        return kg_bgp_filter_questions(_kg_parquet_ds(sf_dir, "small"))

    def kg_ask_q(sf_dir: str):
        """SPARQL-lite ASK: four boolean existence queries in one (ask,
        flag) table — three row-local asks folded by a max combine plus
        one join-y ask (an entity mentioned in >= 2 conversations) on a
        single bucketed exchange."""
        from rayld.pipelines.graph import kg_ask

        return kg_ask(_kg_parquet_ds(sf_dir, "small"))

    def kg_describe(sf_dir: str):
        """SPARQL-lite DESCRIBE of the most-mentioned entity (ties ->
        lexicographic min): every triple with the entity as subject or
        IRI object — count pass through the bounded combine, then a
        broadcast-filter scan."""
        from rayld.pipelines.graph import kg_describe_top_entity

        return kg_describe_top_entity(_kg_parquet_ds(sf_dir, "small"))

    def kg_hits_gate(sf_dir: str):
        """Gate: distributed HITS (hubs & authorities, 2 SpMV exchanges
        per iteration) == single-process numpy HITS on the same bounded
        sample."""
        from rayld.pipelines.graph import hits_check

        n = min(150, max(30, jsonld_ops.n_conversations_for(sf_dir) // 10))
        return hits_check(n)

    def kg_bgp_values_q(sf_dir: str):
        """SPARQL-lite VALUES (inline data) joined to the mention
        pattern: per fixed-list entity, its mention count; the list
        includes one entity that binds nothing (standard join semantics
        drop it) — a broadcast is_in filter, never an exchange."""
        from rayld.pipelines.graph import kg_bgp_values

        return kg_bgp_values(_kg_parquet_ds(sf_dir, "small"))

    def kg_graph_clause_q(sf_dir: str):
        """SPARQL-lite GRAPH clause: quads bucketed by holding graph
        ('default' / 'error' / 'named') with distinct-graph counts —
        the query-side view of the kernel's named-graph dataset model."""
        from rayld.pipelines.graph import kg_graph_clause

        return kg_graph_clause(_kg_parquet_ds(sf_dir, "small"))

    def kg_entity_components_q(sf_dir: str):
        """Connected components of the entity co-mention graph (min-label
        + pointer-jump loop on rank-encoded int64 ids), value-checked by
        a DuckDB WITH RECURSIVE transitive closure."""
        from rayld.pipelines.graph import kg_entity_components

        return kg_entity_components(_kg_parquet_ds(sf_dir, "small"))

    def kg_sample_neighborhood_q(sf_dir: str):
        """GraphSAGE-style seeded neighborhood sampling over the entity
        co-mention graph: fanout-4 two-hop sample from the three most-
        mentioned entities, neighbors deterministically ranked by
        md5(src|dst) so the SQL window oracle reproduces the exact
        sample."""
        from rayld.pipelines.graph import kg_sample_neighborhood

        return kg_sample_neighborhood(_kg_parquet_ds(sf_dir, "small"))

    def kg_ppr_gate(sf_dir: str):
        """Gate: distributed personalized PageRank (seeded teleport, one
        exchange per iteration) == single-process numpy on the same
        deterministic seed set."""
        from rayld.pipelines.graph import ppr_check

        n = min(150, max(30, jsonld_ops.n_conversations_for(sf_dir) // 10))
        return ppr_check(n)

    def kg_jsonld_roundtrip(sf_dir: str):
        """Sink/source gate: NDJSON JSON-LD export -> line-sharded read-back
        reproduces the triples."""
        from rayld.pipelines.kg import jsonld_sink_roundtrip_check

        n = min(100, max(20, jsonld_ops.n_conversations_for(sf_dir) // 10))
        return jsonld_sink_roundtrip_check(n)

    def kg_parity(sf_dir: str):
        """Flagship gate: distributed pipeline == single-process kernel on a
        bounded conversation sample (P/R = 1.0 on canonicalized quads)."""
        from rayld.pipelines.kg import kg_parity_check

        n = min(200, max(20, jsonld_ops.n_conversations_for(sf_dir) // 10))
        return kg_parity_check(n)

    def kg_fromrdf_check(sf_dir: str):
        """Structural oracle for the distributed fromRDF path (verdict-r4
        item 3, the db3e5ef pattern): per-conversation top-level node
        count of the reconstructed expanded JSON-LD documents. DuckDB
        predicts the same count from the INPUT triples parquet — default-
        graph subjects minus rdf:first list cons-cells (collapsed into
        @list by R5 list reconstruction) plus named-graph names not
        already default subjects — so the fromRDF node-map/list logic is
        value-hash-checked, not rows-counted."""
        import json as _json

        import pyarrow as _pa

        from rayld.pipelines.kg import triples_to_documents

        def count_nodes(batch: _pa.Table) -> _pa.Table:
            docs = batch["document"].to_pylist()
            return _pa.table({
                "conv_id": batch["conv_id"],
                "n_nodes": _pa.array(
                    [len(_json.loads(d)) for d in docs], _pa.int64()),
            })

        return triples_to_documents(
            _kg_parquet_ds(sf_dir, "small")
        ).map_batches(count_nodes, batch_format="pyarrow")

    q = {
        # flagship KG construction (A5/A7 end-to-end; non-SQL)
        "kg_triples": kg_triples,
        "kg_triple_counts": kg_triple_counts,
        "kg_triples_global_dedup": kg_triples_global_dedup,
        "kg_documents_fromrdf": kg_documents_fromrdf,
        "kg_fromrdf_check": kg_fromrdf_check,
        "kg_parity_check": kg_parity,
        "kg_entity_degree": kg_entity_degree,
        "kg_pagerank": kg_pagerank,
        "kg_pagerank_check": kg_pagerank_gate,
        "kg_jsonld_roundtrip_check": kg_jsonld_roundtrip,
        "kg_bgp_user_mentions": kg_bgp_user_mentions,
        "kg_bgp_adjacent_entities": kg_bgp_adjacent_entities,
        "kg_bgp_turn_depth": kg_bgp_turn_depth,
        "kg_bgp_optional_labels": kg_bgp_optional_labels,
        "kg_bgp_union": kg_bgp_union,
        "kg_bgp_minus": kg_bgp_minus,
        "kg_bgp_filter": kg_bgp_filter,
        "kg_ask": kg_ask_q,
        "kg_describe": kg_describe,
        "kg_construct_comention": kg_construct_comention,
        "kg_bgp_values": kg_bgp_values_q,
        "kg_graph_clause": kg_graph_clause_q,
        "kg_entity_components": kg_entity_components_q,
        "kg_sample_neighborhood": kg_sample_neighborhood_q,
        "kg_hits_check": kg_hits_gate,
        "kg_ppr_check": kg_ppr_gate,
        "kg_entity_cooccurrence": kg_entity_cooccurrence,
        "user_triangles": graph.user_triangles,
        "user_common_neighbors": graph.user_common_neighbors,
        "user_resource_allocation": graph.user_resource_allocation,
        "user_jaccard_similarity": graph.user_jaccard_similarity,
        "user_clustering_coefficient": graph.user_clustering_coefficient,
        "user_degree_assortativity": graph.user_degree_assortativity,
        "user_kcore": lambda sf: graph.user_kcore(sf, k=91),
        "user_kcore_check": lambda sf: graph.user_kcore_check(sf, k=91),
        # JSON-LD API surface A1-A7 + S1/S2 (non-SQL)
        "jsonld_expand": jsonld_ops.op_expand,
        "jsonld_compact_roundtrip": jsonld_ops.op_compact_roundtrip,
        "jsonld_flatten": jsonld_ops.op_flatten,
        "jsonld_frame": jsonld_ops.op_frame,
        "jsonld_tordf": jsonld_ops.op_tordf,
        "jsonld_fromrdf_roundtrip": jsonld_ops.op_fromrdf_roundtrip,
        "jsonld_normalize": jsonld_ops.op_normalize,
        "jsonld_normalize_check": jsonld_ops.op_normalize_check,
        # text analysis
        "token_count": text.token_count,
        "token_frequencies": text.token_frequencies,
        "token_cms_gate": text.token_cms_gate,
        "grouped_corr": text.grouped_corr,
        "doc_len_histogram": text.doc_len_histogram,
        "doc_expectations": text.doc_expectations,
        "corpus_summary": text.corpus_summary,
        "token_count_bpe": text.token_count_bpe,
        "doc_stats": text.doc_stats,
        "doc_fingerprint": text.doc_fingerprint,
        "rolling_fingerprint": text.rolling_fingerprint,
        "rolling_fingerprint_check": text.rolling_fingerprint_check,
        "lang_distribution": text.lang_distribution,
        "lang_id": text.lang_id,
        "quality_score": text.quality_score,
        "tfidf_top_terms": text.tfidf_top_terms,
        "doc_length_percentiles": text.doc_length_percentiles,
        "bigram_frequencies": text.bigram_frequencies,
        "top_tokens_sketch": text.top_tokens_sketch,
        "source_quality_report": text.source_quality_report,
        "top_quality_by_lang": text.top_quality_by_lang,
        "vocab_coverage": text.vocab_coverage,
        "doc_surprisal": text.doc_surprisal,
        "dsir_weights": text.dsir_weights,
        "token_entropy": text.token_entropy,
        "zipf_slope": text.zipf_slope,
        "mad_length_outliers": text.mad_length_outliers,
        "doc_top_terms": text.doc_top_terms,
        "source_vocab_overlap": text.source_vocab_overlap,
        "quality_deciles_by_lang": text.quality_deciles_by_lang,
        "table_checksum": text.table_checksum,
        "token_weighted_quality": text.token_weighted_quality,
        "lang_confusion": text.lang_confusion,
        # dedup family
        "dedup_exact": dedup.dedup_exact,
        "dedup_exact_keep_best": dedup.dedup_exact_keep_best,
        "dedup_exact_normalized": dedup.dedup_exact_normalized,
        "dedup_incremental": dedup.bloom_incremental_dedup,
        "edit_distance_pairs": dedup.edit_distance_pairs,
        "dedup_survivor_map": dedup.dedup_survivor_map,
        "dup_rate_by_source": dedup.dup_rate_by_source,
        "source_overlap_matrix": dedup.source_overlap_matrix,
        "dedup_minhash": dedup.minhash_dedup,
        "dedup_minhash_recall": dedup.minhash_dedup_recall,
        "dedup_clusters": dedup.dedup_clusters,
        "dedup_clusters_check": dedup.dedup_clusters_check,
        "dedup_ngram_jaccard": dedup.ngram_jaccard_dedup,
        "dedup_ngram_jaccard_recall": dedup.ngram_jaccard_recall,
        "simhash": dedup.simhash,
        "simhash_check": dedup.simhash_check,
        "simhash_neardup": dedup.simhash_neardup,
        "simhash_neardup_recall": dedup.simhash_neardup_recall,
        "duplicate_ngram_spans": dedup.duplicate_ngram_spans,
        "embedding_neardup": dedup.embedding_neardup,
        "embedding_neardup_recall": dedup.embedding_neardup_recall,
        "semdedup": dedup.semdedup,
        "corpus_clean": prep.corpus_clean,
        # corpus curation (training-data prep)
        "decontaminate": curation.decontaminate,
        "contamination_by_source": curation.contamination_by_source,
        "pii_redact": curation.pii_redact,
        "hash_split": curation.hash_split,
        "leakage_safe_split": curation.leakage_safe_split,
        "leakage_safe_split_check": curation.leakage_safe_split_check,
        "stratified_sample": curation.stratified_sample,
        "repetition_stats": curation.repetition_stats,
        "length_outlier_filter": curation.length_outlier_filter,
        "pack_sequences": curation.pack_sequences,
        "chunk_documents": curation.chunk_documents,
        "mixture_sample": curation.mixture_sample,
        "weighted_sample": curation.weighted_sample,
        # corpus indexing / ordering
        "token_postings": indexing.token_postings,
        "shuffle_shards": indexing.shuffle_shards,
        "bm25_scores": indexing.bm25_scores,
        "rrf_fusion": indexing.rrf_fusion,
        # similarity search
        "ann_topk": ann.brute_force_topk,
        "ann_hamming_range": ann.ann_hamming_range,
        "embedding_norm_stats": ann.embedding_norm_stats,
        "ann_ivf_topk": ann.ivf_topk,
        "ann_ivf_recall": ann.ivf_recall,
        "label_centroids": ann.label_centroids,
        "knn_label_vote": ann.knn_label_vote,
        "embedding_quantize": ann.embedding_quantize,
        "kmeans_train": ann.kmeans_train,
        "kmeans_check": ann.kmeans_check,
        "hard_negatives": ann.hard_negatives,
        "pq_topk": ann.pq_topk,
        "pq_recall_check": ann.pq_recall_check,
        "logreg_train": ann.logreg_train,
        "logreg_check": ann.logreg_check,
        # relational / windowed
        "q1_pricing": relational.q1_pricing,
        "customer_nation_count": relational.customer_nation_count,
        "order_revenue_by_status": relational.order_revenue_by_status,
        "event_props_extract": relational.event_props_extract,
        "events_hourly": relational.events_hourly,
        "events_sliding": relational.events_sliding,
        "user_sessions": relational.user_sessions,
        "event_type_transitions": relational.event_type_transitions,
        "events_pivot_by_type": relational.events_pivot_by_type,
        "event_value_autocorr": relational.event_value_autocorr,
        "session_concurrency": relational.session_concurrency,
        "gap_percentiles_by_type": relational.gap_percentiles_by_type,
        "late_event_stats": relational.late_event_stats,
        "conversion_rate_by_signup_day": (
            relational.conversion_rate_by_signup_day),
        "event_path_trigrams": relational.event_path_trigrams,
        "nation_revenue_share": relational.nation_revenue_share,
        "q14_promo_revenue": relational.q14_promo_revenue,
        "spend_concentration": relational.spend_concentration,
        "order_dow_chisq": relational.order_dow_chisq,
        "brand_price_cv": relational.brand_price_cv,
        "benford_value_digits": relational.benford_value_digits,
        "order_size_histogram": relational.order_size_histogram,
        "segment_priority_independence": (
            relational.segment_priority_independence),
        "asof_join_attribution": relational.asof_join_attribution,
        "range_join_signup_clicks": relational.range_join_signup_clicks,
        "supplier_account_rank": relational.supplier_account_rank,
        "doc_embedding_features": relational.doc_embedding_features,
        "events_hourly_users": relational.events_hourly_users,
        "hll_users_gate": relational.hll_users_gate,
        "q3_shipping_priority": relational.q3_shipping_priority,
        "inactive_customers": relational.inactive_customers,
        "latest_event_per_user": relational.latest_event_per_user,
        "events_quarantine": relational.events_quarantine,
        "funnel_conversion": relational.funnel_conversion,
        "events_anomaly": relational.events_anomaly,
        "events_rollup": relational.events_rollup,
        "events_grouping_sets": relational.events_grouping_sets,
        "last_touch_attribution": relational.last_touch_attribution,
        "grouped_skew": relational.grouped_skew,
        "time_to_conversion": relational.time_to_conversion,
        "q18_large_orders": relational.q18_large_orders,
        "user_running_value": relational.user_running_value,
        "user_trailing_window": relational.user_trailing_window,
        "events_lead_lag": relational.events_lead_lag,
        "user_event_pivot": relational.user_event_pivot,
        "grouped_median": relational.grouped_median,
        "user_spend_rank": relational.user_spend_rank,
        "user_spend_percent_rank": relational.user_spend_percent_rank,
        "user_spend_ntile": relational.user_spend_ntile,
        "bloom_semi_join": relational.bloom_semi_join,
        "value_quantile_sketch": relational.value_quantile_sketch,
        "segment_active_customers": relational.segment_active_customers,
        "clickers_no_purchase": relational.clickers_no_purchase,
        "clickers_and_purchasers": relational.clickers_and_purchasers,
        "event_transitions": relational.event_transitions,
        "table_profile": relational.table_profile,
        "power_users": relational.power_users,
        "events_cube": relational.events_cube,
        "user_rows_window": relational.user_rows_window,
        "user_value_ewma": relational.user_value_ewma,
        "cohort_retention": relational.cohort_retention,
        "daily_orders_purchases_balance":
            relational.daily_orders_purchases_balance,
        "grouped_p90_cont": relational.grouped_p90_cont,
        "user_first_last": relational.user_first_last,
        "market_basket_pairs": relational.market_basket_pairs,
        "q5_local_supplier_volume": relational.q5_local_supplier_volume,
        "q6_forecast_revenue": relational.q6_forecast_revenue,
        "q15_top_supplier": relational.q15_top_supplier,
        "q17_small_quantity_revenue": relational.q17_small_quantity_revenue,
        "q4_order_priority": relational.q4_order_priority,
        "q12_shipping_lateness": relational.q12_shipping_lateness,
        "q19_discounted_revenue": relational.q19_discounted_revenue,
        "q21_waiting_suppliers": relational.q21_waiting_suppliers,
        "q22_sales_opportunity": relational.q22_sales_opportunity,
        "q7_volume_shipping": relational.q7_volume_shipping,
        "q8_market_share": relational.q8_market_share,
        "q10_returned_items": relational.q10_returned_items,
        "q13_customer_distribution": relational.q13_customer_distribution,
        "user_status_intervals": relational.user_status_intervals,
        "events_gap_fill": relational.events_gap_fill,
        "customer_rfm": relational.customer_rfm,
        "user_nth_event": relational.user_nth_event,
        "sliding_distinct_users": relational.sliding_distinct_users,
        "grouped_mode": relational.grouped_mode,
        "user_event_type_agg": relational.user_event_type_agg,
        "bigram_pmi": text.bigram_pmi,
        "merge_upsert": relational.merge_upsert,
        "user_spend_dense_rank": relational.user_spend_dense_rank,
        "boolean_and_search": text.boolean_and_search,
        # BPE tokenizer induction (non-SQL; parity gate bpe_check)
        "bpe_vocab": lambda sf: bpe.bpe_train(sf),
        "bpe_segment_count": bpe.bpe_segment_count,
        "bpe_check": lambda sf: bpe.bpe_check(sf),
        "above_nation_avg_customers": relational.above_nation_avg_customers,
        "monthly_revenue_growth": relational.monthly_revenue_growth,
        "pca_project": ann.pca_project,
        "pca_check": lambda sf: ann.pca_check(sf),
        "semdedup_check": dedup.semdedup_check,
        "embedding_unpivot": ann.embedding_unpivot,
        "customer_skyline": relational.customer_skyline,
        "user_bfs_depth": graph.user_bfs_depth,
        # multimodal plumbing
        "media_byte_stats": multimodal.media_byte_stats,
        "media_resize": multimodal.media_resize,
        "media_frame_sample": multimodal.media_frame_sample,
        "media_ppm_features": multimodal.media_ppm_features,
        "media_png_features": multimodal.media_png_features,
        "media_wav_features": multimodal.media_wav_features,
        "media_spectral_peak": multimodal.media_spectral_peak,
    }

    # The driver's CORRECTNESS window hash-checks the FIRST 50 entries in
    # dict order. Rounds 1-4 spent that window on kg/jsonld/text rows that
    # have been green since round 1, so the ~130 relational/curation/
    # indexing/ann/dedup oracles (including all the TPC-H shapes) were
    # never driver-verified (verdict-r4 item 1). Put the never-sampled
    # families first, keeping one long-green canary per family
    # (kg_parity_check + one row each for graph/jsonld/text); everything
    # else follows in the legacy order. Every name below is SQL-oracled.
    window = [
        # canaries (families verified in r01-r04) + the new fromRDF gate
        "kg_parity_check", "kg_fromrdf_check", "user_jaccard_similarity",
        "jsonld_normalize_check", "token_frequencies",
        # TPC-H (never driver-sampled; the five newest shapes — Q4/Q12/
        # Q19/Q21/Q22, written after the round-5 window reorder — replace
        # five older same-family shapes so the youngest code gets the
        # driver hash-check; Q5/Q7/Q8/Q13/Q14 remain builder-gated at
        # three scales and follow right after the window)
        "q1_pricing", "q3_shipping_priority", "q4_order_priority",
        "q6_forecast_revenue", "q12_shipping_lateness",
        "q19_discounted_revenue", "q21_waiting_suppliers",
        "q22_sales_opportunity",
        # the round-5 SPARQL-verb completions + the HITS gate (newest
        # code gets the driver hash-check; the four TPC-H shapes and two
        # warehouse shapes they displace — Q10/Q15/Q17/Q18, events_cube,
        # merge_upsert — stay builder-gated at three scales with in-window
        # family siblings)
        "kg_bgp_union", "kg_bgp_minus", "kg_bgp_filter", "kg_ask",
        "kg_describe", "kg_hits_check", "kg_ppr_check",
        "kg_entity_components", "media_spectral_peak",
        "dedup_exact_keep_best", "kg_sample_neighborhood",
        # relational / windowed / warehouse
        "events_hourly", "user_sessions", "asof_join_attribution",
        "range_join_signup_clicks", "events_rollup",
        "grouped_skew", "cohort_retention",
        # curation (hash_split displaced by the round-5 newcomers; four
        # family siblings stay in-window)
        "decontaminate", "pii_redact", "pack_sequences",
        "leakage_safe_split_check",
        # indexing / retrieval (rrf_fusion and token_postings displaced
        # by round-5 newcomers; bm25_scores remains the family canary)
        "bm25_scores",
        # similarity / models (ann_topk displaced; five siblings stay)
        "ann_ivf_recall", "kmeans_check", "logreg_check",
        "pca_check", "pq_recall_check",
        # dedup (minhash_recall displaced; five siblings stay)
        "dedup_exact", "simhash_check",
        "dedup_clusters_check", "semdedup_check", "edit_distance_pairs",
        # tokenizer + multimodal (incl. the new real PNG decode gate)
        "bpe_check", "media_ppm_features", "media_png_features",
        "media_wav_features",
    ]
    return {k: q[k] for k in window} | {
        k: v for k, v in q.items() if k not in window
    }


def oracle_sql() -> dict[str, str]:
    # The jsonld_* oracles read the SAME tool-doc parquet the Ray ops consume
    # (materialized by rayld.pipelines.jsonld_ops.tool_docs_parquet before the
    # Ray query executes) and recompute the expected metrics STRUCTURALLY with
    # DuckDB's JSON functions: our corpus docs have three shapes — @graph docs
    # (expand to len(@graph) nodes, 3 quads), @list/tags docs (1 node,
    # 2*len(tags)+3 quads incl. rdf:first/rest cons cells), typed-scalar docs
    # (1 node, 5 quads; the 'mentions' value is a relative IRI and drops in
    # toRDF per spec). Roundtrip flags are spec invariants asserted as
    # constant 1 columns.
    from rayld.pipelines import indexing, relational
    from rayld.pipelines.jsonld_ops import TOOLDOC_CURRENT, kg_triples_current

    # process-scoped link: concurrent runs at different scales each resolve
    # their own corpus (see jsonld_ops.TOOLDOC_CURRENT)
    _td = f"read_parquet('{TOOLDOC_CURRENT}/*.parquet')"
    # kg structural oracles read the SAME materialized triples parquet the
    # Ray aggregates consume (jsonld_ops.kg_triples_parquet; two sample
    # sizes, two process-scoped links)
    _kgf = f"read_parquet('{kg_triples_current('full')}/*.parquet')"
    _kgs = f"read_parquet('{kg_triples_current('small')}/*.parquet')"
    _graph = "json_extract(doc, '$.\"@graph\"')"
    _nlines = (
        "(CASE WHEN " + _graph + " IS NOT NULL THEN 3"
        " WHEN json_extract(doc, '$.tags') IS NOT NULL"
        " THEN 2 * json_array_length(doc, '$.tags') + 3"
        " ELSE 5 END)::BIGINT AS n_lines"
    )
    o = {
        "jsonld_expand": (
            "SELECT conv_id, turn_idx::BIGINT AS turn_idx,"
            " (CASE WHEN " + _graph + " IS NOT NULL"
            " THEN json_array_length(doc, '$.\"@graph\"')"
            " ELSE 1 END)::BIGINT AS n_nodes FROM " + _td
        ),
        "jsonld_compact_roundtrip": (
            "SELECT conv_id, turn_idx::BIGINT AS turn_idx,"
            " 1::BIGINT AS roundtrip_ok FROM " + _td
        ),
        "jsonld_flatten": (
            "SELECT conv_id, turn_idx::BIGINT AS turn_idx,"
            " (CASE WHEN " + _graph + " IS NOT NULL"
            " THEN json_array_length(doc, '$.\"@graph\"')"
            " WHEN json_type(doc, '$.partner') = 'OBJECT' THEN 2"
            " ELSE 1 END)::BIGINT AS n_flat_nodes FROM " + _td
        ),
        "jsonld_frame": (
            "SELECT conv_id, turn_idx::BIGINT AS turn_idx,"
            " (CASE WHEN json_extract_string(doc, '$.\"@type\"')"
            " = 'http://schema.org/SearchAction' THEN 1 ELSE 0 END)::BIGINT"
            " AS n_framed FROM " + _td
        ),
        "jsonld_tordf": (
            "SELECT conv_id, turn_idx::BIGINT AS turn_idx, "
            + _nlines + " FROM " + _td
        ),
        "jsonld_fromrdf_roundtrip": (
            "SELECT conv_id, turn_idx::BIGINT AS turn_idx,"
            " 1::BIGINT AS roundtrip_ok, " + _nlines + " FROM " + _td
        ),
        # c14n fixpoint flag: normalize -> fromRDF -> normalize must be
        # byte-identical for every document
        "jsonld_normalize_check": (
            "SELECT conv_id, turn_idx::BIGINT AS turn_idx,"
            " 1::BIGINT AS c14n_stable FROM " + _td
        ),
        # flagship parity gate: distributed == kernel on the sampled convs
        "kg_parity_check": (
            "SELECT 0::BIGINT AS missing, 0::BIGINT AS extra,"
            " 1::BIGINT AS parity_ok"
        ),
        # PageRank parity gate: distributed == single-process numpy on the
        # same sampled edge list
        "kg_pagerank_check": (
            "SELECT 1::BIGINT AS parity_ok, 1::BIGINT AS rank_sums_to_one"
        ),
        # per-predicate triple counts recounted over the materialized
        # triples parquet (structural, verdict-r3 item 5)
        "kg_triple_counts": (
            "SELECT pred, count(*)::BIGINT AS n_triples FROM " + _kgf
            + " GROUP BY pred"
        ),
        # global quad dedup == SQL DISTINCT over the same file
        "kg_triples_global_dedup": (
            "SELECT DISTINCT graph, subj, pred, obj_kind, obj_value,"
            " obj_datatype, obj_lang FROM " + _kgf
        ),
        # degree histogram: same edge derivation (node-valued objects,
        # quarantine excluded, conv-qualified bnodes) recounted in SQL
        "kg_entity_degree": (
            "WITH e AS (SELECT"
            "  CASE WHEN starts_with(subj, '_:')"
            "   THEN conv_id || '|' || subj ELSE subj END AS src,"
            "  CASE WHEN starts_with(obj_value, '_:')"
            "   THEN conv_id || '|' || obj_value ELSE obj_value END AS dst"
            "  FROM " + _kgs
            + "  WHERE obj_kind IN ('IRI', 'blank node')"
            "   AND graph <> '@error'),"
            " d AS (SELECT entity, count(*)::BIGINT AS degree FROM ("
            "  SELECT src AS entity FROM e"
            "  UNION ALL SELECT dst FROM e) GROUP BY 1)"
            " SELECT degree, count(*)::BIGINT AS n_entities FROM d"
            " GROUP BY 1"
        ),
        # unordered within-conversation mention pairs (distinct per conv,
        # per-conv entity cap mirrored as HAVING)
        "kg_entity_cooccurrence": (
            "WITH m AS (SELECT DISTINCT conv_id, obj_value AS entity"
            "  FROM " + _kgs
            + "  WHERE pred = 'http://schema.org/about'"
            "   AND obj_kind = 'IRI'),"
            " sz AS (SELECT conv_id FROM m GROUP BY 1"
            "  HAVING count(*) <= 512),"
            " f AS (SELECT m.* FROM m JOIN sz USING (conv_id))"
            " SELECT a.entity AS e1, b.entity AS e2,"
            "  count(*)::BIGINT AS n_convs"
            " FROM f a JOIN f b"
            "  ON a.conv_id = b.conv_id AND a.entity < b.entity"
            " GROUP BY 1, 2"
        ),
        # BGP {?t a rayld:Turn . ?t rayld:role 'user' . ?t schema:about ?e}
        # as EXISTS-filtered capture rows over the same triples
        "kg_bgp_user_mentions": (
            "SELECT a.conv_id, a.subj AS turn, a.obj_value AS entity"
            " FROM " + _kgs + " a"
            " WHERE a.pred = 'http://schema.org/about'"
            " AND EXISTS (SELECT 1 FROM " + _kgs + " t"
            "  WHERE t.conv_id = a.conv_id AND t.subj = a.subj"
            "  AND t.pred ="
            "   'http://www.w3.org/1999/02/22-rdf-syntax-ns#type'"
            "  AND t.obj_value = 'https://rayld.dev/vocab#Turn')"
            " AND EXISTS (SELECT 1 FROM " + _kgs + " t"
            "  WHERE t.conv_id = a.conv_id AND t.subj = a.subj"
            "  AND t.pred = 'https://rayld.dev/vocab#role'"
            "  AND t.obj_value = 'user')"
        ),
        # PATH BGP: adjacent-turn entity pair counts via the rdf list
        # cons chain; all join variables are conversation-scoped, so
        # every join carries conv_id (blank-node labels collide across
        # conversations by design)
        "kg_bgp_adjacent_entities": (
            "WITH f AS (SELECT conv_id, subj AS c, obj_value AS t"
            "  FROM " + _kgs + " WHERE pred ="
            "  'http://www.w3.org/1999/02/22-rdf-syntax-ns#first'),"
            " r AS (SELECT conv_id, subj AS c, obj_value AS c2"
            "  FROM " + _kgs + " WHERE pred ="
            "  'http://www.w3.org/1999/02/22-rdf-syntax-ns#rest'),"
            " a AS (SELECT conv_id, subj AS t, obj_value AS e"
            "  FROM " + _kgs + " WHERE pred = 'http://schema.org/about'),"
            " adj AS (SELECT r.conv_id, f1.t AS t1, f2.t AS t2"
            "  FROM r JOIN f f1 ON f1.conv_id = r.conv_id AND f1.c = r.c"
            "  JOIN f f2 ON f2.conv_id = r.conv_id AND f2.c = r.c2)"
            " SELECT a1.e AS e1, a2.e AS e2, count(*)::BIGINT AS n"
            " FROM adj"
            " JOIN a a1 ON a1.conv_id = adj.conv_id AND a1.t = adj.t1"
            " JOIN a a2 ON a2.conv_id = adj.conv_id AND a2.t = adj.t2"
            " GROUP BY 1, 2"
        ),
        # PROPERTY-PATH BGP (rdf:rest* closure): the oracle walks each
        # conversation's cons chain with WITH RECURSIVE — heads are cells
        # never appearing as an rdf:rest object — and joins depth -> turn
        # -> entity; the Ray side computes the same depths by numpy
        # pointer doubling after ONE conv-bucketed exchange
        "kg_bgp_turn_depth": (
            "WITH RECURSIVE"
            " r AS (SELECT conv_id, subj AS c, obj_value AS c2"
            "  FROM " + _kgs + " WHERE pred ="
            "  'http://www.w3.org/1999/02/22-rdf-syntax-ns#rest'),"
            " f AS (SELECT conv_id, subj AS c, obj_value AS t"
            "  FROM " + _kgs + " WHERE pred ="
            "  'http://www.w3.org/1999/02/22-rdf-syntax-ns#first'),"
            " heads AS (SELECT f.conv_id, f.c FROM f"
            "  LEFT JOIN r ON r.conv_id = f.conv_id AND r.c2 = f.c"
            "  WHERE r.c IS NULL),"
            " chain AS (SELECT conv_id, c, 0 AS depth FROM heads"
            "  UNION ALL SELECT r.conv_id, r.c2, chain.depth + 1"
            "  FROM chain JOIN r ON r.conv_id = chain.conv_id"
            "   AND r.c = chain.c),"
            " a AS (SELECT conv_id, subj AS t, obj_value AS e"
            "  FROM " + _kgs + " WHERE pred = 'http://schema.org/about')"
            " SELECT chain.depth::BIGINT AS depth, a.e AS e,"
            "  count(*)::BIGINT AS n"
            " FROM chain"
            " JOIN f ON f.conv_id = chain.conv_id AND f.c = chain.c"
            " JOIN a ON a.conv_id = f.conv_id AND a.t = f.t"
            " GROUP BY 1, 2"
        ),
        # OPTIONAL BGP (left-join semantics): unmatched optionals keep the
        # row, count(col) counts only bound rows — the SQL and the Ray
        # left-merge agree on multiplicity by construction
        "kg_bgp_optional_labels": (
            "WITH tr AS (SELECT conv_id, obj_value AS r, obj_kind AS kind"
            "  FROM " + _kgs + " WHERE pred ="
            "  'https://rayld.dev/vocab#toolResult'),"
            " lbl AS (SELECT conv_id, subj AS r, obj_value AS l"
            "  FROM " + _kgs + " WHERE pred ="
            "  'http://www.w3.org/2000/01/rdf-schema#label'),"
            " rat AS (SELECT conv_id, subj AS r, obj_value AS v"
            "  FROM " + _kgs + " WHERE pred ="
            "  'http://schema.org/ratingValue')"
            " SELECT tr.kind AS r_kind, count(*)::BIGINT AS n_results,"
            "  count(lbl.l)::BIGINT AS n_labeled,"
            "  count(rat.v)::BIGINT AS n_rated"
            " FROM tr"
            " LEFT JOIN lbl ON lbl.conv_id = tr.conv_id AND lbl.r = tr.r"
            " LEFT JOIN rat ON rat.conv_id = tr.conv_id AND rat.r = tr.r"
            " GROUP BY 1"
        ),
        # CONSTRUCT: distinct derived co-mention triples; entity IRIs are
        # gazetteer vocabulary (no N-Quads-escapable characters), so plain
        # concatenation reproduces the kernel to_nquad line exactly
        "kg_construct_comention": (
            "WITH a AS (SELECT conv_id, subj AS t, obj_value AS e"
            "  FROM " + _kgs + " WHERE pred = 'http://schema.org/about')"
            " SELECT DISTINCT a1.e AS e1, a2.e AS e2,"
            "  '<' || a1.e || '>"
            " <https://rayld.dev/vocab#comentionedWith> <' || a2.e || '> .'"
            "  AS nquad"
            " FROM a a1 JOIN a a2 ON a1.conv_id = a2.conv_id"
            "  AND a1.t = a2.t AND a1.e < a2.e"
        ),
        # UNION BGP (bag semantics): each branch is a pruned scan, the
        # union is block concatenation — UNION ALL on the oracle side
        "kg_bgp_union": (
            "SELECT subj AS x, obj_value AS l, 'rdfs:label' AS src"
            " FROM " + _kgs + " WHERE pred ="
            " 'http://www.w3.org/2000/01/rdf-schema#label'"
            " UNION ALL"
            " SELECT subj AS x, obj_value AS l, 'schema:name' AS src"
            " FROM " + _kgs + " WHERE pred = 'http://schema.org/name'"
        ),
        # MINUS BGP (negation): mentions in turns with no tool result —
        # the Ray side anti-joins per conv bucket, the oracle NOT EXISTS
        "kg_bgp_minus": (
            "WITH a AS (SELECT conv_id, subj AS t, obj_value AS e"
            "  FROM " + _kgs + " WHERE pred = 'http://schema.org/about'),"
            " tr AS (SELECT conv_id, subj AS t FROM " + _kgs
            + "  WHERE pred = 'https://rayld.dev/vocab#toolResult')"
            " SELECT a.e AS e, count(*)::BIGINT AS n FROM a"
            " WHERE NOT EXISTS (SELECT 1 FROM tr"
            "  WHERE tr.conv_id = a.conv_id AND tr.t = a.t)"
            " GROUP BY 1"
        ),
        # FILTER regex BGP: questions per role; the Ray regex kernel
        # (RE2 syntax) and DuckDB's regexp_matches agree on '\?'
        "kg_bgp_filter": (
            "WITH x AS (SELECT conv_id, subj AS t, obj_value AS txt"
            "  FROM " + _kgs + " WHERE pred = 'http://schema.org/text'),"
            " r AS (SELECT conv_id, subj AS t, obj_value AS role"
            "  FROM " + _kgs
            + "  WHERE pred = 'https://rayld.dev/vocab#role')"
            " SELECT r.role AS role, count(*)::BIGINT AS n"
            " FROM x JOIN r ON r.conv_id = x.conv_id AND r.t = x.t"
            " WHERE regexp_matches(x.txt, '\\?')"
            " GROUP BY 1"
        ),
        # ASK: four boolean existence queries; EXISTS on the oracle side,
        # max-folded 0/1 partials on the Ray side
        "kg_ask": (
            "SELECT 'ask_cross_conv_entity' AS ask,"
            " (EXISTS (SELECT 1 FROM (SELECT obj_value,"
            "   count(DISTINCT conv_id) AS c FROM " + _kgs
            + "   WHERE pred = 'http://schema.org/about' GROUP BY 1)"
            "  WHERE c >= 2))::BIGINT AS flag"
            " UNION ALL SELECT 'ask_high_rating',"
            " (EXISTS (SELECT 1 FROM " + _kgs
            + "  WHERE pred = 'http://schema.org/ratingValue'"
            "  AND TRY_CAST(obj_value AS DOUBLE) > 4.5))::BIGINT"
            " UNION ALL SELECT 'ask_tool_turns',"
            " (EXISTS (SELECT 1 FROM " + _kgs
            + "  WHERE pred = 'https://rayld.dev/vocab#role'"
            "  AND obj_value = 'tool'))::BIGINT"
            " UNION ALL SELECT 'ask_unknown_pred',"
            " (EXISTS (SELECT 1 FROM " + _kgs
            + "  WHERE pred = 'https://rayld.dev/vocab#frobnicate'"
            " ))::BIGINT"
        ),
        # DESCRIBE of the argmax-mention entity (tie -> lexicographic
        # min): symmetric concise bounded description, NULLs coalesced
        # identically on both sides
        "kg_describe": (
            "WITH top AS (SELECT obj_value AS e FROM " + _kgs
            + "  WHERE pred = 'http://schema.org/about' GROUP BY 1"
            "  ORDER BY count(*) DESC, obj_value LIMIT 1)"
            " SELECT subj, pred, obj_kind, obj_value,"
            "  coalesce(obj_datatype, '') AS obj_datatype,"
            "  coalesce(obj_lang, '') AS obj_lang"
            " FROM " + _kgs + ", top"
            " WHERE subj = e OR (obj_kind = 'IRI' AND obj_value = e)"
        ),
        # VALUES inline-data join: the fixed list carries one entity
        # that binds nothing — absent from both sides (join semantics)
        "kg_bgp_values": (
            "SELECT obj_value AS e, count(*)::BIGINT AS n FROM " + _kgs
            + " WHERE pred = 'http://schema.org/about' AND obj_value IN ("
            "  'https://rayld.dev/entity/org/initech_robotics',"
            "  'https://rayld.dev/entity/org/oscorp_energy',"
            "  'https://rayld.dev/entity/org/umbrella_logistics',"
            "  'https://rayld.dev/entity/person/grace_cerf',"
            "  'https://rayld.dev/entity/org/nonexistent_org')"
            " GROUP BY 1"
        ),
        # GRAPH clause: quads per holding-graph kind + distinct names
        "kg_graph_clause": (
            "SELECT CASE WHEN graph = '@default' THEN 'default'"
            "  WHEN graph = '@error' THEN 'error' ELSE 'named' END"
            "  AS g_kind, count(*)::BIGINT AS n_quads,"
            "  count(DISTINCT graph)::BIGINT AS n_graphs"
            " FROM " + _kgs + " GROUP BY 1"
        ),
        # GraphSAGE-style sampling: seeds = top-3 mentioned entities;
        # hop-1 samples 4 md5-ranked neighbors per seed, hop-2 per new
        # hop-1 node — DuckDB's md5 equals hashlib's, so the windowed
        # rank reproduces the engine's exact sample
        "kg_sample_neighborhood": (
            "WITH a AS (SELECT conv_id, subj AS t, obj_value AS e"
            "  FROM " + _kgs + " WHERE pred = 'http://schema.org/about'),"
            " ed AS (SELECT DISTINCT a1.e AS x, a2.e AS y"
            "  FROM a a1 JOIN a a2 ON a1.conv_id = a2.conv_id"
            "   AND a1.t = a2.t AND a1.e <> a2.e),"
            " seeds AS (SELECT e FROM (SELECT obj_value AS e,"
            "   count(*) AS n FROM " + _kgs
            + "   WHERE pred = 'http://schema.org/about' GROUP BY 1)"
            "  ORDER BY n DESC, e LIMIT 3),"
            " h1 AS (SELECT ed.x, ed.y, row_number() OVER ("
            "   PARTITION BY ed.x ORDER BY md5(ed.x || '|' || ed.y)) AS rn"
            "  FROM ed JOIN seeds ON seeds.e = ed.x),"
            " s1 AS (SELECT 1 AS hop, x AS src, y AS dst FROM h1"
            "  WHERE rn <= 4),"
            " f2 AS (SELECT DISTINCT dst AS x FROM s1"
            "  WHERE dst NOT IN (SELECT e FROM seeds)),"
            " h2 AS (SELECT ed.x, ed.y, row_number() OVER ("
            "   PARTITION BY ed.x ORDER BY md5(ed.x || '|' || ed.y)) AS rn"
            "  FROM ed JOIN f2 ON f2.x = ed.x),"
            " s2 AS (SELECT 2 AS hop, x AS src, y AS dst FROM h2"
            "  WHERE rn <= 4)"
            " SELECT hop::BIGINT AS hop, src, dst FROM"
            " (SELECT * FROM s1 UNION ALL SELECT * FROM s2)"
        ),
        # connected components of the co-mention graph: the oracle walks
        # the transitive closure with WITH RECURSIVE (symmetric edges,
        # self-seeded) and labels each entity with its reachable min —
        # exactly the distributed min-label loop's fixpoint
        "kg_entity_components": (
            "WITH RECURSIVE"
            " a AS (SELECT conv_id, subj AS t, obj_value AS e"
            "  FROM " + _kgs + " WHERE pred = 'http://schema.org/about'),"
            " ed AS (SELECT DISTINCT a1.e AS x, a2.e AS y"
            "  FROM a a1 JOIN a a2 ON a1.conv_id = a2.conv_id"
            "   AND a1.t = a2.t AND a1.e <> a2.e),"
            " reach(x, y) AS ("
            "  SELECT x, x FROM (SELECT DISTINCT x FROM ed)"
            "  UNION"
            "  SELECT r.x, e.y FROM reach r JOIN ed e ON e.x = r.y)"
            " SELECT x AS e, min(y) AS comp FROM reach GROUP BY 1"
        ),
        # distributed HITS == single-process numpy HITS (iterative /
        # non-SQL, so the gate's flags are the oracle)
        "kg_hits_check": (
            "SELECT 1::BIGINT AS parity_ok, 1::BIGINT AS hub_norm_ok,"
            " 1::BIGINT AS auth_norm_ok"
        ),
        # distributed personalized PageRank == single-process numpy on
        # the same deterministic seed set (iterative / non-SQL)
        "kg_ppr_check": (
            "SELECT 1::BIGINT AS parity_ok,"
            " 1::BIGINT AS rank_sums_to_one,"
            " 1::BIGINT AS seed_mass_personalized"
        ),
        # distributed moment-PCA == single-process numpy PCA (covariance,
        # mean, projection, orthonormality, EVR ordering)
        "pca_check": (
            "SELECT 1::BIGINT AS cov_parity_ok,"
            " 1::BIGINT AS mean_parity_ok, 1::BIGINT AS proj_parity_ok,"
            " 1::BIGINT AS orthonormal_ok,"
            " 1::BIGINT AS evr_descending_ok"
        ),
        # distributed BPE trainer == single-process reference merge
        # sequence on the real word-frequency table
        "bpe_check": (
            "SELECT 1::BIGINT AS merges_parity_ok,"
            " 1::BIGINT AS n_merges_ok, 1::BIGINT AS tokens_le_chars_ok,"
            " 1::BIGINT AS merges_reduce_ok"
        ),
        # distributed rolling fingerprints == single-process recount +
        # min-window containment invariant
        "rolling_fingerprint_check": (
            "SELECT 1::BIGINT AS parity_ok, 1::BIGINT AS one_fp_per_doc,"
            " 1::BIGINT AS containment_ok"
        ),
        # distributed SimHash == single-process recount + token-set
        # invariance
        "simhash_check": (
            "SELECT 1::BIGINT AS parity_ok, 1::BIGINT AS one_sig_per_doc,"
            " 1::BIGINT AS token_set_invariance_ok"
        ),
        # distributed SemDeDup == single-process recount (same sample /
        # k-means / greedy lower-id rule)
        "semdedup_check": (
            "SELECT 1::BIGINT AS parity_ok, 1::BIGINT AS clusters_ok,"
            " 1::BIGINT AS all_tagged_once"
        ),
        # distributed Lloyd's == single-process Lloyd's from the same init
        "kmeans_check": (
            "SELECT 1::BIGINT AS parity_ok, 1::BIGINT AS counts_ok,"
            " 1::BIGINT AS all_points_assigned"
        ),
        # no near-dup cluster straddles train/val/test (clusters come from
        # the non-SQL minhash loop, so the assignment itself is rows-only)
        "leakage_safe_split_check": (
            "SELECT 1::BIGINT AS no_cluster_straddles,"
            " 1::BIGINT AS all_docs_assigned_once"
        ),
        # distributed peel == single-process peel (k-core is iterative /
        # non-monotone, so membership itself is rows-only)
        "user_kcore_check": (
            "SELECT 1::BIGINT AS parity_ok,"
            " 1::BIGINT AS all_degrees_ge_k"
        ),
        # PQ shortlist + exact re-rank recovers >= 0.9 of the exact top-k
        # (quantized codes are training-dependent, so the ranks themselves
        # are rows-only; the recall gate is the typed contract)
        "pq_recall_check": (
            "SELECT 1::BIGINT AS recall_ge_090,"
            " 1::BIGINT AS rows_per_query_ok"
        ),
        # distributed GD == single-process GD, loss improved, rows counted
        "logreg_check": (
            "SELECT 1::BIGINT AS parity_ok, 1::BIGINT AS loss_improved,"
            " 1::BIGINT AS all_rows_counted"
        ),
        # JSON-LD document sink/source roundtrip gate
        "kg_jsonld_roundtrip_check": (
            "SELECT 1::BIGINT AS ground_parity_ok, 1::BIGINT AS counts_match,"
            " 1::BIGINT AS bnode_counts_match"
        ),
        # distributed fromRDF structural recount (verdict-r4 item 3): the
        # expanded document's top-level node count == default-graph
        # subjects minus rdf:first list cons-cells (collapsed into @list
        # by list reconstruction) plus named-graph names not already
        # default subjects; @error quarantine rows are skipped on both
        # sides, and convs with only @error rows reconstruct to []
        "kg_fromrdf_check": (
            "WITH convs AS (SELECT DISTINCT conv_id FROM " + _kgs + "),"
            " dg AS (SELECT DISTINCT conv_id, subj FROM " + _kgs
            + "  WHERE graph = '@default'),"
            " lc AS (SELECT DISTINCT conv_id, subj FROM " + _kgs
            + "  WHERE graph = '@default' AND pred ="
            "   'http://www.w3.org/1999/02/22-rdf-syntax-ns#first'),"
            " ng AS (SELECT DISTINCT conv_id, graph AS subj FROM " + _kgs
            + "  WHERE graph NOT IN ('@default', '@error')),"
            " top AS ("
            "  SELECT conv_id, subj FROM dg"
            "  WHERE NOT EXISTS (SELECT 1 FROM lc"
            "   WHERE lc.conv_id = dg.conv_id AND lc.subj = dg.subj)"
            "  UNION"
            "  SELECT conv_id, subj FROM ng"
            "  WHERE NOT EXISTS (SELECT 1 FROM dg"
            "   WHERE dg.conv_id = ng.conv_id AND dg.subj = ng.subj)),"
            " n AS (SELECT conv_id, count(*)::BIGINT AS n_nodes FROM top"
            "  GROUP BY 1)"
            " SELECT c.conv_id, coalesce(n.n_nodes, 0)::BIGINT AS n_nodes"
            " FROM convs c LEFT JOIN n USING (conv_id)"
        ),
        "token_count": (
            "SELECT doc_id, len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT"
            " AS n_tokens FROM documents"
        ),
        "doc_stats": (
            "SELECT doc_id,"
            " length(text)::BIGINT AS n_chars_calc,"
            " len(regexp_extract_all(text, '[.,;:!?]'))::BIGINT AS n_punct,"
            " len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT AS n_tokens"
            " FROM documents"
        ),
        "doc_fingerprint": "SELECT doc_id, md5(text) AS fp FROM documents",
        "token_count_bpe": (
            "SELECT doc_id,"
            " len(regexp_extract_all(text,"
            " $$'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\\s']+|'| ?\\s+$$"
            " ))::BIGINT AS n_bpe_tokens,"
            " len(regexp_extract_all(text, '\\S+'))::BIGINT AS n_ws_tokens"
            " FROM documents"
        ),
        "lang_distribution": (
            "SELECT lang, count(*)::BIGINT AS n_docs FROM documents GROUP BY lang"
        ),
        # the composite heuristic is plain IEEE-double arithmetic in the same
        # evaluation order on both sides; both sides round half-up via
        # floor(x*1e6+0.5) (plain round() is half-even in numpy vs half-away
        # in DuckDB and diverges on exact ties)
        "quality_score": indexing._QUALITY_SQL,
        "dedup_exact": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)"
        ),
        "dedup_exact_normalized": (
            "SELECT min(doc_id) AS doc_id FROM documents"
            " GROUP BY md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))"
        ),
        # quality-aware survivor policy: per distinct NORMALIZED text
        # keep the highest-raw-quality copy (tie -> min doc_id); q6 =
        # integer micro units of the shared quality contract so the
        # argmax is exact
        "dedup_exact_keep_best": (
            "WITH q AS (" + indexing._QUALITY_SQL + "),"
            " j AS (SELECT d.doc_id,"
            "   md5(trim(regexp_replace(lower(d.text), '\\s+', ' ', 'g')))"
            "    AS h,"
            "   floor(q.quality * 1e6 + 0.5)::BIGINT AS q6"
            "  FROM documents d JOIN q USING (doc_id)),"
            " r AS (SELECT doc_id, h, q6, row_number() OVER ("
            "   PARTITION BY h ORDER BY q6 DESC, doc_id) AS rn FROM j)"
            " SELECT doc_id, q6 AS quality_micro FROM r WHERE rn = 1"
        ),
        # cross-source overlap matrix: shared 40-char opening
        # fingerprints (template overlap) and shared exact texts per
        # unordered source pair (texts subset prefixes by construction)
        "source_overlap_matrix": (
            "WITH d AS (SELECT md5(text) AS ht,"
            "   md5(substr(text, 1, 40)) AS hp, source FROM documents),"
            " gp AS (SELECT DISTINCT hp, source FROM d),"
            " gt AS (SELECT DISTINCT ht, source FROM d),"
            " pp AS (SELECT a.source AS sa, b.source AS sb,"
            "   count(*)::BIGINT AS n FROM gp a JOIN gp b"
            "   ON a.hp = b.hp AND a.source < b.source GROUP BY 1, 2),"
            " pt AS (SELECT a.source AS sa, b.source AS sb,"
            "   count(*)::BIGINT AS n FROM gt a JOIN gt b"
            "   ON a.ht = b.ht AND a.source < b.source GROUP BY 1, 2)"
            " SELECT pp.sa AS source_a, pp.sb AS source_b,"
            "  pp.n AS n_shared_prefixes,"
            "  coalesce(pt.n, 0)::BIGINT AS n_shared_texts"
            " FROM pp LEFT JOIN pt ON pt.sa = pp.sa AND pt.sb = pp.sb"
        ),
        # exact fuzzy self-join: prefix pairs within Levenshtein distance 2
        "edit_distance_pairs": (
            "WITH d AS (SELECT doc_id, substr(text, 1, 40) AS s"
            "  FROM documents)"
            " SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,"
            "  levenshtein(a.s, b.s)::BIGINT AS dist"
            " FROM d a JOIN d b ON a.doc_id < b.doc_id"
            " WHERE levenshtein(a.s, b.s) <= 2"
        ),
        # incremental ingest: flag new-batch docs (md5(doc_id) bucket >= 50)
        # whose prefix fingerprint already exists in the old corpus
        "dedup_incremental": (
            "WITH d AS (SELECT doc_id, md5(substr(text, 1, 80)) AS h,"
            "  (('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::BIGINT % 100)"
            "    < 50 AS is_old"
            "  FROM documents)"
            " SELECT n.doc_id, (EXISTS (SELECT 1 FROM d o"
            "   WHERE o.is_old AND o.h = n.h))::BIGINT AS dup_of_existing"
            " FROM d n WHERE NOT n.is_old"
        ),
        # end-to-end prep chain: quality gate (same pinned arithmetic as
        # quality_score) THEN normalized exact-dedup among the passing docs
        # (WHERE runs before the window, so the partition sees only passers)
        "corpus_clean": (
            "WITH x AS ("
            " SELECT doc_id, lang,"
            "  greatest(length(text), 1) AS n_chars,"
            "  len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT"
            "    AS n_tokens,"
            "  greatest(len(regexp_extract_all(text, '[A-Za-z0-9]+')), 1)"
            "    AS n_toks,"
            "  len(list_filter(regexp_extract_all(text, '[A-Za-z0-9]+'),"
            "      t -> lower(t) IN ('the','and','of','to','a','in','is',"
            "      'it','for','with'))) AS stop,"
            "  len(regexp_extract_all(text, '[.,;:!?]')) AS n_punct,"
            "  md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS h"
            " FROM documents), q AS ("
            " SELECT doc_id, lang, n_tokens, h,"
            "  floor((0.4 * least(n_toks / 64.0, 1.0)"
            "      + 0.3 * (1 - least(n_punct / n_chars::DOUBLE, 1.0))"
            "      + 0.3 * least(stop / n_toks::DOUBLE, 1.0)) * 1e6 + 0.5)"
            "    / 1e6 AS quality"
            " FROM x)"
            " SELECT doc_id, lang, n_tokens, quality FROM q"
            " WHERE quality >= 0.5"
            " QUALIFY row_number() OVER (PARTITION BY h ORDER BY doc_id) = 1"
        ),
        # decontamination: the Ray side matches n-token windows by 64-bit
        # rolling hash, the oracle by the literal gram strings — equal token
        # windows on both sides (hash collisions are negligible and would
        # surface as a hash-mismatch here)
        "decontaminate": (
            "WITH toks AS (SELECT doc_id,"
            "  regexp_extract_all(text, '[A-Za-z0-9]+') AS t FROM documents),"
            " g AS (SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2]"
            "   AS gram FROM toks, unnest(range(1, len(t) - 1)) AS u(i)),"
            " bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 29 = 0),"
            " hits AS (SELECT g.doc_id, count(*) AS n FROM g"
            "   JOIN bench USING (gram) WHERE g.doc_id % 29 != 0 GROUP BY 1)"
            " SELECT d.doc_id, coalesce(h.n, 0)::BIGINT AS n_hits,"
            " (coalesce(h.n, 0) > 0)::BIGINT AS contaminated"
            " FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id"
            " WHERE d.doc_id % 29 != 0"
        ),
        # staged redaction: each pattern's count is taken against the text
        # the previous stage produced (RE2 and Python re agree on these
        # ASCII patterns; parity-tested in tests/test_curation.py)
        "pii_redact": (
            "WITH a AS (SELECT doc_id,"
            "  len(regexp_extract_all(text,"
            "    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))::BIGINT"
            "    AS n_emails,"
            "  regexp_replace(text,"
            "    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',"
            "    '<EMAIL>', 'g') AS t1 FROM documents),"
            " b AS (SELECT doc_id, n_emails,"
            "  len(regexp_extract_all(t1,"
            "    '\\+?[0-9][0-9() \\-]{6,}[0-9]'))::BIGINT AS n_phones,"
            "  regexp_replace(t1, '\\+?[0-9][0-9() \\-]{6,}[0-9]',"
            "    '<PHONE>', 'g') AS t2 FROM a)"
            " SELECT doc_id, n_emails, n_phones,"
            "  len(regexp_extract_all(t2, '\\bcustomer\\b'))::BIGINT"
            "    AS n_terms,"
            "  md5(regexp_replace(t2, '\\bcustomer\\b', '<TERM>', 'g'))"
            "    AS redacted_md5"
            " FROM b"
        ),
        "hash_split": (
            "SELECT doc_id,"
            " b AS bucket,"
            " CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val'"
            "  ELSE 'test' END AS split"
            " FROM (SELECT doc_id,"
            "  ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::BIGINT % 100"
            "    AS b FROM documents)"
        ),
        # Efraimidis-Spirakis weighted sample: key ln(u)/w, u from md5
        "weighted_sample": (
            "WITH x AS (SELECT doc_id, greatest(n_chars, 1) AS w,"
            " (('0x' || substr(md5(doc_id::VARCHAR), 1, 13))::BIGINT + 1)"
            "  / 4503599627370496.0 AS u FROM documents)"
            " SELECT doc_id, w::BIGINT AS weight,"
            " row_number() OVER (ORDER BY ln(u) / w DESC, doc_id)::BIGINT"
            "  AS sample_rank"
            " FROM x ORDER BY sample_rank LIMIT 64"
        ),
        # REAL P6 PPM decode: the synthesized images' channel means are
        # analytic in doc_id, so plain arithmetic verifies the byte-level
        # decode (header parse, stride, channel order) exactly
        "media_ppm_features": (
            "SELECT doc_id AS media_id, 32::BIGINT AS width,"
            " 24::BIGINT AS height,"
            " (doc_id % 256) * 1000000 AS mean_r_micro,"
            " 15500000::BIGINT AS mean_g_micro,"
            " ((doc_id * 7) % 256) * 1000000 AS mean_b_micro"
            " FROM documents"
        ),
        # REAL PNG decode (zlib inflate + filter reconstruction): the
        # synthesized images carry the SAME analytic pixel content as the
        # PPM path, and the per-row filters cycle through all five types,
        # so these closed-form means verify every reconstruction branch
        "media_png_features": (
            "SELECT doc_id AS media_id, 32::BIGINT AS width,"
            " 24::BIGINT AS height,"
            " (doc_id % 256) * 1000000 AS mean_r_micro,"
            " 15500000::BIGINT AS mean_g_micro,"
            " ((doc_id * 7) % 256) * 1000000 AS mean_b_micro"
            " FROM documents"
        ),
        # REAL PCM WAV decode: sample[n] = dc + (n % 256), dc = (doc_id %
        # 1000)*16 over 4 full cycles -> mean and energy are closed-form
        "media_wav_features": (
            "SELECT doc_id AS media_id, 1024::BIGINT AS n_samples,"
            " 8000::BIGINT AS sample_rate,"
            " ((doc_id % 1000) * 16 * 1000 + 127500)::BIGINT AS mean_milli,"
            " ((256 * ((doc_id % 1000) * 16) * ((doc_id % 1000) * 16)"
            "   + 2 * ((doc_id % 1000) * 16) * 32640 + 5559680)"
            "  * 1000 // 256)::BIGINT AS energy_milli"
            " FROM documents"
        ),
        # FFT spectral peak: the tone period divides the clip length, so
        # peak_bin = N/period and peak_freq = rate*bin/N exactly (both
        # closed-form in doc_id; freq in milli-Hz is integer for all four
        # periods)
        "media_spectral_peak": (
            "SELECT doc_id AS media_id, 1024::BIGINT AS n_samples,"
            " (CASE doc_id % 4 WHEN 0 THEN 4 WHEN 1 THEN 8"
            "  WHEN 2 THEN 16 ELSE 32 END)::BIGINT AS peak_bin,"
            " (8000 * 1000 * CASE doc_id % 4 WHEN 0 THEN 4 WHEN 1 THEN 8"
            "  WHEN 2 THEN 16 ELSE 32 END // 1024)::BIGINT"
            "  AS peak_freq_milli_hz"
            " FROM documents"
        ),
        # unigram-LM surprisal in micro-nats (integer contract: the per-token
        # surprisal rounds half-up once; every sum after that is int-exact)
        "doc_surprisal": (
            "WITH tok AS (SELECT doc_id, unnest(regexp_extract_all(text,"
            " '[A-Za-z0-9]+')) AS t FROM documents),"
            " tot AS (SELECT count(*)::DOUBLE AS n FROM tok),"
            " c AS (SELECT t, count(*) AS n_tok FROM tok GROUP BY t),"
            " s AS (SELECT t, floor(-ln(n_tok / (SELECT n FROM tot))"
            "  * 1000000 + 0.5)::BIGINT AS sur FROM c),"
            " p AS (SELECT doc_id, t, count(*) AS cnt FROM tok"
            "  GROUP BY doc_id, t)"
            " SELECT p.doc_id,"
            " sum(p.cnt * s.sur)::BIGINT AS surprisal_micro_nats,"
            " sum(p.cnt)::BIGINT AS n_tokens"
            " FROM p JOIN s USING (t) GROUP BY p.doc_id"
        ),
        # DSIR importance weights: per-token log-ratio of the target
        # (lang='en') vs raw unigram models, +0.5/(total+1) smoothing,
        # rounded half-up to integer micro-nats BEFORE the per-doc sum —
        # the same float expression in the same op order as the Ray side
        "dsir_weights": (
            "WITH tok AS (SELECT doc_id, lang,"
            " unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS t"
            " FROM documents),"
            " c AS (SELECT t, count(*)::BIGINT AS c,"
            "  sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS tc"
            "  FROM tok GROUP BY t),"
            " tot AS (SELECT sum(c)::BIGINT AS tr, sum(tc)::BIGINT AS tt"
            "  FROM c),"
            " lr AS (SELECT t, floor(ln(((tc + 0.5) / (tt + 1.0))"
            "  / ((c + 0.5) / (tr + 1.0))) * 1000000.0 + 0.5)::BIGINT"
            "  AS lr_micro FROM c, tot)"
            " SELECT doc_id, sum(lr_micro)::BIGINT AS logw_micro_nats,"
            " count(*)::BIGINT AS n_tokens"
            " FROM tok JOIN lr USING (t) GROUP BY doc_id"
        ),
        # corpus unigram entropy: per-type n*ln(n) rounds half-up ONCE to
        # integer micro-nats (the doc_surprisal contract); the final double
        # is the same expression over the same integers on both sides
        "token_entropy": (
            "WITH c AS (SELECT count(*)::BIGINT AS n FROM documents,"
            " unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS u(t)"
            " GROUP BY t),"
            " m AS (SELECT count(*)::BIGINT AS n_types,"
            "  sum(n)::BIGINT AS n_tokens,"
            "  sum(floor(n * ln(n) * 1000000.0 + 0.5)::BIGINT)::BIGINT"
            "   AS s_nlogn_micro FROM c)"
            " SELECT n_types, n_tokens, s_nlogn_micro,"
            " ln(n_tokens) - (s_nlogn_micro / n_tokens) / 1000000.0"
            "  AS entropy_nats FROM m"
        ),
        # Zipf rank-frequency OLS over the top-256 tokens: integer
        # micro-nat logs -> exact moment sums -> closed form on identical
        # integers (the grouped_corr contract)
        "zipf_slope": (
            "WITH c AS (SELECT t AS token, count(*)::BIGINT AS n"
            "  FROM documents,"
            "  unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS u(t)"
            "  GROUP BY t ORDER BY n DESC, token LIMIT 256),"
            " r AS (SELECT n,"
            "  row_number() OVER (ORDER BY n DESC, token) AS rank FROM c),"
            " lg AS (SELECT"
            "  floor(ln(rank) * 1000000.0 + 0.5)::BIGINT AS x,"
            "  floor(ln(n) * 1000000.0 + 0.5)::BIGINT AS y FROM r),"
            " m AS (SELECT count(*)::BIGINT AS k, sum(x)::HUGEINT AS sx,"
            "  sum(y)::HUGEINT AS sy, sum(x*x)::HUGEINT AS sxx,"
            "  sum(x*y)::HUGEINT AS sxy FROM lg)"
            " SELECT k AS n_ranks,"
            " (k*sxy - sx*sy)::DOUBLE / (k*sxx - sx*sx)::DOUBLE"
            "  AS zipf_slope,"
            " (sy::DOUBLE - ((k*sxy - sx*sy)::DOUBLE"
            "   / (k*sxx - sx*sx)::DOUBLE) * sx::DOUBLE) / k::DOUBLE"
            "  AS zipf_intercept FROM m"
        ),
        # weighted order statistic: token-weighted vs doc median of the
        # shared quality contract (weighted percentile_disc semantics:
        # smallest value with 2*cumweight >= total)
        "token_weighted_quality": (
            "WITH q AS (SELECT"
            "  floor((0.4 * least(greatest(len(regexp_extract_all(text,"
            "    '[A-Za-z0-9]+')), 1) / 64.0, 1.0)"
            "   + 0.3 * (1 - least(len(regexp_extract_all(text,"
            "    '[.,;:!?]')) / greatest(length(text), 1)::DOUBLE, 1.0))"
            "   + 0.3 * least(len(list_filter(regexp_extract_all(text,"
            "     '[A-Za-z0-9]+'), t -> lower(t) IN ('the','and','of',"
            "     'to','a','in','is','it','for','with')))"
            "    / greatest(len(regexp_extract_all(text, '[A-Za-z0-9]+')),"
            "      1)::DOUBLE, 1.0)) * 1e6 + 0.5)::BIGINT AS q_micro,"
            "  len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT AS w"
            " FROM documents),"
            " g AS (SELECT q_micro, sum(w)::BIGINT AS w,"
            "  count(*)::BIGINT AS n FROM q GROUP BY 1),"
            " c AS (SELECT q_micro,"
            "  sum(w) OVER (ORDER BY q_micro ROWS UNBOUNDED PRECEDING)"
            "   AS cw,"
            "  sum(n) OVER (ORDER BY q_micro ROWS UNBOUNDED PRECEDING)"
            "   AS cn FROM g),"
            " t AS (SELECT sum(w)::BIGINT AS tw, sum(n)::BIGINT AS tn"
            "  FROM g)"
            " SELECT t.tn AS n_docs, t.tw AS total_weight,"
            " (SELECT min(q_micro) FROM c WHERE 2 * cw >= t.tw) / 1e6"
            "  AS weighted_median_quality,"
            " (SELECT min(q_micro) FROM c WHERE 2 * cn >= t.tn) / 1e6"
            "  AS doc_median_quality"
            " FROM t"
        ),
        # per-bucket anti-entropy checksum: commutative sum mod 2^64 of the
        # md5 low half (md5_number_lower == the Python little-endian low
        # half), decimal-string compare
        "table_checksum": (
            "SELECT doc_id % 16 AS bucket, count(*)::BIGINT AS n_docs,"
            " CAST(sum(md5_number_lower(text)::HUGEINT)"
            "  % 18446744073709551616 AS VARCHAR) AS checksum"
            " FROM documents GROUP BY 1"
        ),
        # grouped NTILE: per-lang quality deciles (quality is the shared
        # 6dp-quantized contract; ntile over (quality, doc_id) total order)
        "quality_deciles_by_lang": (
            "WITH q AS (" + indexing._QUALITY_SQL + ")"
            " SELECT q.doc_id, d.lang, q.quality,"
            " ntile(10) OVER (PARTITION BY d.lang"
            "  ORDER BY q.quality, q.doc_id)::BIGINT AS tile"
            " FROM q JOIN documents d USING (doc_id)"
        ),
        # pairwise Jaccard of per-source distinct token sets (exact set
        # sizes; double division of identical integers on both sides)
        "source_vocab_overlap": (
            "WITH ts AS (SELECT DISTINCT source, t FROM documents,"
            "  unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS u(t)),"
            " c AS (SELECT source, count(*)::BIGINT AS n FROM ts"
            "  GROUP BY 1),"
            " p AS (SELECT a.source AS source_a, b.source AS source_b,"
            "   count(*)::BIGINT AS n_inter FROM ts a JOIN ts b"
            "   ON a.t = b.t AND a.source < b.source GROUP BY 1, 2)"
            " SELECT p.source_a, p.source_b, p.n_inter,"
            " (ca.n + cb.n - p.n_inter)::BIGINT AS n_union,"
            " p.n_inter::DOUBLE / (ca.n + cb.n - p.n_inter)::DOUBLE"
            "  AS jaccard"
            " FROM p JOIN c ca ON ca.source = p.source_a"
            " JOIN c cb ON cb.source = p.source_b"
        ),
        # per-doc top-3 TF-IDF keywords: integer-exact score
        # cnt * floor(ln(N/df)*1e6 + 0.5), ties broken by token string
        "doc_top_terms": (
            "WITH tok AS (SELECT doc_id,"
            "  unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS t"
            "  FROM documents),"
            " nd AS (SELECT count(DISTINCT doc_id)::BIGINT AS n"
            "  FROM documents),"
            " p AS (SELECT doc_id, t, count(*)::BIGINT AS cnt FROM tok"
            "  GROUP BY doc_id, t),"
            " f AS (SELECT t, count(*)::BIGINT AS df FROM p GROUP BY t),"
            " s AS (SELECT p.doc_id, p.t AS token,"
            "  p.cnt * floor(ln((SELECT n FROM nd) / f.df)"
            "   * 1000000 + 0.5)::BIGINT AS tfidf_micro"
            "  FROM p JOIN f ON p.t = f.t),"
            " r AS (SELECT doc_id, token, tfidf_micro,"
            "  row_number() OVER (PARTITION BY doc_id"
            "   ORDER BY tfidf_micro DESC, token) AS rank FROM s)"
            " SELECT doc_id, token, tfidf_micro, rank::BIGINT AS rank"
            " FROM r WHERE rank <= 3"
        ),
        # robust per-lang length outliers: percentile_disc medians + MAD,
        # all-integer compare
        "mad_length_outliers": (
            "WITH med AS (SELECT lang,"
            "  percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars)::BIGINT"
            "   AS med FROM documents GROUP BY lang),"
            " d AS (SELECT d.lang, abs(d.n_chars - med.med)::BIGINT AS dev"
            "  FROM documents d JOIN med USING (lang)),"
            " mad AS (SELECT lang,"
            "  percentile_disc(0.5) WITHIN GROUP (ORDER BY dev)::BIGINT"
            "   AS mad FROM d GROUP BY lang)"
            " SELECT d.lang, count(*)::BIGINT AS n_docs,"
            " any_value(med.med)::BIGINT AS median_chars,"
            " any_value(mad.mad)::BIGINT AS mad_chars,"
            " count(*) FILTER (WHERE d.dev > 3 * mad.mad)::BIGINT"
            "  AS n_outliers"
            " FROM d JOIN med USING (lang) JOIN mad USING (lang)"
            " GROUP BY d.lang"
        ),
        "vocab_coverage": (
            "WITH tok AS (SELECT unnest(regexp_extract_all(text,"
            " '[A-Za-z0-9]+')) AS t FROM documents),"
            " c AS (SELECT t, count(*) AS n FROM tok GROUP BY t),"
            " top AS (SELECT n FROM c ORDER BY n DESC, t LIMIT 1000)"
            " SELECT 1000::BIGINT AS vocab_size,"
            " (SELECT sum(n) FROM top)::BIGINT AS covered,"
            " (SELECT count(*) FROM tok)::BIGINT AS total_tokens,"
            " ((SELECT sum(n) FROM top)::DOUBLE"
            "  / (SELECT count(*) FROM tok)) AS coverage"
        ),
        "stratified_sample": (
            "SELECT doc_id, lang,"
            " row_number() OVER (PARTITION BY lang"
            "   ORDER BY md5(doc_id::VARCHAR), doc_id)::BIGINT AS sample_rank"
            " FROM documents"
            " QUALIFY sample_rank <= 50"
        ),
        "repetition_stats": (
            "WITH toks AS (SELECT doc_id,"
            "  regexp_extract_all(text, '[A-Za-z0-9]+') AS t FROM documents),"
            " flat AS (SELECT doc_id, u.tok FROM toks, unnest(t) AS u(tok)),"
            " tc AS (SELECT doc_id, tok, count(*) AS n FROM flat"
            "   GROUP BY 1, 2),"
            " agg AS (SELECT doc_id, sum(n) AS ntok, count(*) AS ndist,"
            "   max(n) AS topn FROM tc GROUP BY 1),"
            " big AS (SELECT doc_id, t[i] || ' ' || t[i+1] AS bg FROM toks,"
            "   unnest(range(1, len(t))) AS u(i)),"
            " bc AS (SELECT doc_id, bg, count(*) AS n FROM big GROUP BY 1, 2),"
            " bagg AS (SELECT doc_id, sum(n) AS nbg, max(n) AS topbg"
            "   FROM bc GROUP BY 1)"
            " SELECT d.doc_id, coalesce(ntok, 0)::BIGINT AS n_tokens,"
            " floor(coalesce(ndist, 0) / greatest(coalesce(ntok, 0), 1)::DOUBLE"
            "   * 1e6 + 0.5) / 1e6 AS distinct_ratio,"
            " floor(coalesce(topn, 0) / greatest(coalesce(ntok, 0), 1)::DOUBLE"
            "   * 1e6 + 0.5) / 1e6 AS top_token_frac,"
            " floor(coalesce(topbg, 0) / greatest(coalesce(nbg, 0), 1)::DOUBLE"
            "   * 1e6 + 0.5) / 1e6 AS top_bigram_frac"
            " FROM documents d LEFT JOIN agg USING (doc_id)"
            " LEFT JOIN bagg USING (doc_id)"
        ),
        "length_outlier_filter": (
            "WITH lens AS (SELECT doc_id,"
            "  len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT AS n"
            "  FROM documents),"
            " th AS (SELECT"
            "  percentile_disc(0.01) WITHIN GROUP (ORDER BY n) AS lo,"
            "  percentile_disc(0.99) WITHIN GROUP (ORDER BY n) AS hi"
            "  FROM lens)"
            " SELECT doc_id, n AS n_tokens FROM lens, th"
            " WHERE n BETWEEN lo AND hi"
        ),
        # greedy token-budget packing replayed exactly as a per-chunk
        # sequential recurrence (recursive CTE depth = chunk_docs)
        "pack_sequences": (
            "WITH RECURSIVE lens AS ("
            " SELECT doc_id, doc_id // 128 AS chunk,"
            "  row_number() OVER (PARTITION BY doc_id // 128"
            "    ORDER BY doc_id) AS rn,"
            "  len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT AS n"
            " FROM documents),"
            " rec AS ("
            " SELECT doc_id, chunk, rn, n, 0::BIGINT AS bin_local, n AS fill"
            " FROM lens WHERE rn = 1"
            " UNION ALL"
            " SELECT l.doc_id, l.chunk, l.rn, l.n,"
            "  CASE WHEN r.fill + l.n <= 256 THEN r.bin_local"
            "   ELSE r.bin_local + 1 END,"
            "  CASE WHEN r.fill + l.n <= 256 THEN r.fill + l.n ELSE l.n END"
            " FROM rec r JOIN lens l"
            "   ON l.chunk = r.chunk AND l.rn = r.rn + 1)"
            " SELECT doc_id, (chunk * 128 + bin_local)::BIGINT AS bin_id,"
            " n AS n_tokens, (fill - n)::BIGINT AS token_offset FROM rec"
        ),
        # overlapping token-window chunk geometry: every doc emits
        # >= 1 chunk (empty docs emit one empty chunk)
        "chunk_documents": (
            "WITH lens AS (SELECT doc_id,"
            "  len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT AS n"
            "  FROM documents)"
            " SELECT doc_id, (s // 48)::BIGINT AS chunk_idx,"
            " s::BIGINT AS chunk_start,"
            " least(64, n - s)::BIGINT AS chunk_tokens"
            " FROM lens, unnest(range(0, greatest(n, 1), 48)) AS u(s)"
        ),
        "doc_embedding_features": (
            "SELECT d.doc_id, d.lang,"
            " len(regexp_extract_all(d.text, '[A-Za-z0-9]+'))::BIGINT"
            "   AS n_tokens,"
            " e.label::BIGINT AS label"
            " FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id"
        ),
        "token_postings": (
            "WITH tok AS (SELECT DISTINCT doc_id, t AS token FROM documents,"
            " unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS u(t))"
            " SELECT token, doc_id,"
            " row_number() OVER (PARTITION BY token ORDER BY doc_id)::BIGINT"
            "   AS rank"
            " FROM tok QUALIFY rank <= 20"
        ),
        "shuffle_shards": (
            "WITH k AS (SELECT doc_id,"
            "  md5('42:' || doc_id::VARCHAR) AS key FROM documents),"
            " s AS (SELECT doc_id, key,"
            "  (('0x' || substr(key, 1, 8))::BIGINT * 8 // 4294967296)::BIGINT"
            "    AS shard_id FROM k)"
            " SELECT doc_id, shard_id,"
            " (row_number() OVER (PARTITION BY shard_id ORDER BY key, doc_id)"
            "  - 1)::BIGINT AS pos"
            " FROM s"
        ),
        # BM25 (k1=1.2, b=0.75, +1-smoothed idf): per-term scores rounded
        # half-up to integer micro before the cross-term sum; the generated
        # SQL mirrors the Ray side's float op order exactly
        "bm25_scores": indexing.bm25_oracle_sql(),
        # hybrid retrieval: reciprocal-rank fusion of the bm25 and quality
        # rankings (both integer-exact; reciprocal terms added in a fixed
        # order on both sides)
        "rrf_fusion": indexing.rrf_oracle_sql(),
        # tf-idf: idf = ln((N+1)/(df+1)) + 1 over regex tokens; top term per
        # doc with ties broken by term; score half-up-rounded to 6dp on both
        # sides (IEEE double arithmetic in the same order)
        "tfidf_top_terms": (
            "WITH tok AS ("
            " SELECT doc_id, t AS token FROM documents,"
            "  unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS u(t)"
            "), tf AS ("
            " SELECT doc_id, token, count(*)::BIGINT AS tf FROM tok"
            " GROUP BY 1, 2"
            "), df AS ("
            " SELECT token, count(*)::BIGINT AS df FROM tf GROUP BY 1"
            "), nd AS (SELECT count(*)::BIGINT AS n FROM documents),"
            " s AS ("
            " SELECT tf.doc_id, tf.token,"
            "  tf.tf * (ln((nd.n + 1.0) / (df.df + 1.0)) + 1.0) AS score"
            " FROM tf JOIN df USING (token) CROSS JOIN nd)"
            " SELECT doc_id, token AS top_term,"
            " floor(score * 1e6 + 0.5) / 1e6 AS score FROM s"
            " QUALIFY row_number() OVER (PARTITION BY doc_id"
            "   ORDER BY score DESC, token) = 1"
        ),
        # quality carried as exact integer micro-units; the single final
        # division is the only float op (identical IEEE divide both sides)
        "source_quality_report": (
            "WITH x AS ("
            " SELECT source,"
            "  greatest(length(text), 1) AS n_chars,"
            "  len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT"
            "    AS n_tokens,"
            "  greatest(len(regexp_extract_all(text, '[A-Za-z0-9]+')), 1)"
            "    AS n_toks,"
            "  len(list_filter(regexp_extract_all(text, '[A-Za-z0-9]+'),"
            "      t -> lower(t) IN ('the','and','of','to','a','in','is',"
            "      'it','for','with'))) AS stop,"
            "  len(regexp_extract_all(text, '[.,;:!?]')) AS n_punct"
            " FROM documents), q AS ("
            " SELECT source, n_tokens,"
            "  floor((0.4 * least(n_toks / 64.0, 1.0)"
            "      + 0.3 * (1 - least(n_punct / n_chars::DOUBLE, 1.0))"
            "      + 0.3 * least(stop / n_toks::DOUBLE, 1.0)) * 1e6 + 0.5)"
            "    ::BIGINT AS micro"
            " FROM x)"
            " SELECT source, count(*)::BIGINT AS n_docs,"
            " sum(n_tokens)::BIGINT AS total_tokens,"
            " floor(sum(micro) / count(*)::DOUBLE + 0.5) / 1e6"
            "   AS mean_quality"
            " FROM q GROUP BY source"
        ),
        "top_quality_by_lang": (
            "WITH x AS ("
            " SELECT doc_id, lang,"
            "  greatest(length(text), 1) AS n_chars,"
            "  greatest(len(regexp_extract_all(text, '[A-Za-z0-9]+')), 1)"
            "    AS n_toks,"
            "  len(list_filter(regexp_extract_all(text, '[A-Za-z0-9]+'),"
            "      t -> lower(t) IN ('the','and','of','to','a','in','is',"
            "      'it','for','with'))) AS stop,"
            "  len(regexp_extract_all(text, '[.,;:!?]')) AS n_punct"
            " FROM documents), q AS ("
            " SELECT doc_id, lang,"
            "  floor((0.4 * least(n_toks / 64.0, 1.0)"
            "      + 0.3 * (1 - least(n_punct / n_chars::DOUBLE, 1.0))"
            "      + 0.3 * least(stop / n_toks::DOUBLE, 1.0)) * 1e6 + 0.5)"
            "    / 1e6 AS quality"
            " FROM x)"
            " SELECT doc_id, lang, quality,"
            " row_number() OVER (PARTITION BY lang"
            "   ORDER BY quality DESC, doc_id)::BIGINT AS rank"
            " FROM q QUALIFY rank <= 10"
        ),
        "events_hourly_users": (
            "SELECT epoch(date_trunc('hour', ts))::BIGINT AS window_start,"
            " count(DISTINCT user_id)::BIGINT AS n_users"
            " FROM events GROUP BY 1"
        ),
        # HLL accuracy gate: exact count + constant 1 — a sketch regression
        # flips hll_ok and fails the hash compare (recall-gate pattern)
        "hll_users_gate": (
            "SELECT epoch(date_trunc('hour', ts))::BIGINT AS window_start,"
            " count(DISTINCT user_id)::BIGINT AS n_users,"
            " 1::BIGINT AS hll_ok"
            " FROM events GROUP BY 1"
        ),
        "mixture_sample": (
            "WITH x AS (SELECT doc_id, source,"
            "  ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::BIGINT % 100"
            "    AS bucket,"
            "  20 + (coalesce(try_cast(regexp_extract(source, '([0-9]+)', 1)"
            "    AS BIGINT), 0) * 7) % 60 AS pct"
            " FROM documents)"
            " SELECT doc_id, source, bucket, pct FROM x WHERE bucket < pct"
        ),
        # float32 promotes exactly to double; every step is one identical
        # IEEE op on both sides; codes are exact integers (order-free sum)
        "embedding_quantize": (
            "WITH x AS (SELECT vec_id,"
            "  list_transform(embedding, v -> v::DOUBLE) AS e"
            "  FROM embeddings),"
            " m AS (SELECT vec_id, e,"
            "  list_aggregate(e, 'min') AS mn,"
            "  list_aggregate(e, 'max') AS mx FROM x)"
            " SELECT vec_id,"
            " floor(mn * 1e6 + 0.5) / 1e6 AS vmin,"
            " floor(mx * 1e6 + 0.5) / 1e6 AS vmax,"
            " floor((mx - mn) / 255.0 * 1e6 + 0.5) / 1e6 AS scale,"
            " CASE WHEN mx = mn THEN 0 ELSE list_sum(list_transform(e,"
            "  v -> floor((v - mn) / (mx - mn) * 255 + 0.5)))::BIGINT END"
            "   AS code_sum"
            " FROM m"
        ),
        "doc_length_percentiles": (
            "SELECT"
            " percentile_disc(0.5) WITHIN GROUP (ORDER BY n)::BIGINT AS p50,"
            " percentile_disc(0.9) WITHIN GROUP (ORDER BY n)::BIGINT AS p90,"
            " percentile_disc(0.99) WITHIN GROUP (ORDER BY n)::BIGINT AS p99"
            " FROM (SELECT len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n"
            "   FROM documents)"
        ),
        "bigram_frequencies": (
            "WITH toks AS ("
            " SELECT regexp_extract_all(text, '[A-Za-z0-9]+') AS t"
            " FROM documents), b AS ("
            " SELECT t[i] || ' ' || t[i + 1] AS bigram"
            " FROM toks, unnest(range(1, len(t))) AS u(i))"
            " SELECT bigram, count(*)::BIGINT AS n FROM b"
            " GROUP BY 1 ORDER BY n DESC, bigram LIMIT 100"
        ),
        "dedup_survivor_map": (
            "SELECT doc_id, min(doc_id) OVER (PARTITION BY md5(text))::BIGINT"
            " AS survivor_id FROM documents"
        ),
        # per-source exact-duplicate rate (crawl-health diagnostic)
        "dup_rate_by_source": (
            "WITH s AS (SELECT source, doc_id,"
            "  min(doc_id) OVER (PARTITION BY md5(text)) AS surv"
            " FROM documents)"
            " SELECT source, count(*)::BIGINT AS n_docs,"
            " (count(*) FILTER (WHERE doc_id <> surv))::BIGINT AS n_dups,"
            " (count(*) FILTER (WHERE doc_id <> surv))::DOUBLE"
            "  / count(*)::DOUBLE AS dup_rate"
            " FROM s GROUP BY 1"
        ),
        "token_frequencies": (
            "SELECT t AS token, count(*)::BIGINT AS n FROM documents,"
            " unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS u(t)"
            " GROUP BY t ORDER BY n DESC, token LIMIT 100"
        ),
        # per-lang Pearson r + OLS line from EXACT integer moment sums; the
        # closed form runs on identical integers on both sides
        "grouped_corr": (
            "WITH m AS (SELECT lang, count(*)::BIGINT AS n,"
            "  sum(x)::HUGEINT AS sx, sum(y)::HUGEINT AS sy,"
            "  sum(x*x)::HUGEINT AS sxx, sum(y*y)::HUGEINT AS syy,"
            "  sum(x*y)::HUGEINT AS sxy FROM ("
            "   SELECT lang, length(text)::BIGINT AS x,"
            "    len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT AS y"
            "   FROM documents) GROUP BY 1)"
            " SELECT lang, n AS n_docs,"
            "  (n*sxy - sx*sy)::DOUBLE"
            "   / sqrt(((n*sxx - sx*sx) * (n*syy - sy*sy))::DOUBLE)"
            "   AS corr_r,"
            "  (n*sxy - sx*sy)::DOUBLE / (n*sxx - sx*sx)::DOUBLE AS slope,"
            "  (sy::DOUBLE - ((n*sxy - sx*sy)::DOUBLE"
            "    / (n*sxx - sx*sx)::DOUBLE) * sx::DOUBLE) / n::DOUBLE"
            "   AS intercept"
            " FROM m"
        ),
        # Count-Min Sketch accuracy gate: exact top-20 counts + a typed
        # flag asserting the CMS bound held (constant-1 on correct merges)
        "token_cms_gate": (
            "SELECT t AS token, count(*)::BIGINT AS n, 1::BIGINT AS cms_ok"
            " FROM documents,"
            " unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS u(t)"
            " GROUP BY t ORDER BY n DESC, token LIMIT 20"
        ),
        # heavy-hitter pruned EXACT top-k (the sketch only prunes candidates)
        "top_tokens_sketch": (
            "SELECT t AS token, count(*)::BIGINT AS n FROM documents,"
            " unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS u(t)"
            " GROUP BY t ORDER BY n DESC, token LIMIT 20"
        ),
        "doc_len_histogram": (
            "SELECT (len(regexp_extract_all(text, '[A-Za-z0-9]+')) // 16)"
            "::BIGINT AS bucket, count(*)::BIGINT AS n_docs"
            " FROM documents GROUP BY 1"
        ),
        "corpus_summary": (
            "SELECT count(*)::BIGINT AS n_docs,"
            " count(DISTINCT md5(text))::BIGINT AS n_distinct_texts,"
            " sum(len(regexp_extract_all(text, '[A-Za-z0-9]+')))::BIGINT"
            "   AS total_tokens,"
            " count(DISTINCT lang)::BIGINT AS n_langs"
            " FROM documents"
        ),
        "doc_expectations": (
            "SELECT 'n_chars_matches' AS check_name,"
            " count(*) FILTER (WHERE n_chars != length(text))::BIGINT"
            "   AS n_violations FROM documents"
            " UNION ALL SELECT 'doc_id_unique',"
            " (count(*) - count(DISTINCT doc_id))::BIGINT FROM documents"
            " UNION ALL SELECT 'text_nonempty',"
            " count(*) FILTER (WHERE length(text) = 0)::BIGINT FROM documents"
        ),
        "events_sliding": (
            "SELECT event_type,"
            " (epoch(date_trunc('hour', ts))::BIGINT - 3600 * k)::BIGINT"
            "   AS window_start,"
            " count(*)::BIGINT AS n_events"
            " FROM events, unnest([0, 1, 2]) AS u(k) GROUP BY 1, 2"
        ),
        "q1_pricing": (
            # sums in integer cents -> exact regardless of summation order
            "SELECT l_returnflag, l_linestatus,"
            " sum(floor(l_quantity * 100 + 0.5)::BIGINT) / 100.0 AS sum_qty,"
            " sum(floor(l_extendedprice * 100 + 0.5)::BIGINT) / 100.0"
            "   AS sum_base_price,"
            " sum(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)::BIGINT)"
            "   / 100.0 AS sum_disc_price,"
            " count(*)::BIGINT AS count_order"
            " FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'"
            " GROUP BY l_returnflag, l_linestatus"
        ),
        "customer_nation_count": (
            "SELECT n_name, count(*)::BIGINT AS n_customers"
            " FROM customer JOIN nation ON c_nationkey = n_nationkey"
            " GROUP BY n_name"
        ),
        "events_hourly": (
            "SELECT event_type,"
            " epoch(date_trunc('hour', ts))::BIGINT AS window_start,"
            " count(*)::BIGINT AS n_events,"
            " sum(floor(value * 100 + 0.5)::BIGINT) / 100.0 AS sum_value"
            " FROM events GROUP BY 1, 2"
        ),
        "user_sessions": (
            "WITH x AS ("
            "  SELECT user_id, ts,"
            "   CASE WHEN lag(ts) OVER w IS NULL"
            "     OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE"
            "   THEN 1 ELSE 0 END AS new_s"
            "  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)"
            "), y AS ("
            "  SELECT user_id,"
            "   sum(new_s) OVER (PARTITION BY user_id ORDER BY ts"
            "     ROWS UNBOUNDED PRECEDING)::BIGINT AS session_id"
            "  FROM x"
            ") SELECT user_id, session_id, count(*)::BIGINT AS n_events"
            " FROM y GROUP BY user_id, session_id"
        ),
        # embedding hygiene: per-vector integer-micro squared norm + the
        # unit-norm band flag (0.99..1.01 as exact integer bounds)
        "embedding_norm_stats": (
            "SELECT vec_id, len(embedding)::BIGINT AS n_dims,"
            " list_aggregate(list_transform(embedding,"
            "  x -> floor(x::DOUBLE * 1000000 + 0.5)::BIGINT"
            "   * floor(x::DOUBLE * 1000000 + 0.5)::BIGINT),"
            "  'sum')::BIGINT AS norm2_micro2,"
            " (list_aggregate(list_transform(embedding,"
            "  x -> floor(x::DOUBLE * 1000000 + 0.5)::BIGINT"
            "   * floor(x::DOUBLE * 1000000 + 0.5)::BIGINT), 'sum')"
            "  BETWEEN 980100000000 AND 1020100000000)::BIGINT AS is_unit"
            " FROM embeddings"
        ),
        # late-data diagnostics: running-max-over-arrival-order window;
        # an event is late when ts < max ts of earlier-arrived (event_id)
        # events of the same user
        "late_event_stats": (
            "WITH w AS (SELECT event_type,"
            "  (max(epoch_us(ts)) OVER (PARTITION BY user_id"
            "    ORDER BY event_id"
            "    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)"
            "   - epoch_us(ts)) // 1000000 AS late_s"
            " FROM events)"
            " SELECT event_type, count(*)::BIGINT AS n_events,"
            " (count(*) FILTER (WHERE late_s > 0))::BIGINT AS n_late,"
            " coalesce(max(CASE WHEN late_s > 0 THEN late_s END), 0)"
            "  ::BIGINT AS max_late_s,"
            " (count(*) FILTER (WHERE late_s > 0))::DOUBLE"
            "  / count(*)::DOUBLE AS late_rate"
            " FROM w GROUP BY 1"
        ),
        # per-type inter-event gap percentiles (percentile_disc over the
        # LAG gaps within (user, type); whole seconds)
        "gap_percentiles_by_type": (
            "WITH g AS (SELECT event_type,"
            "  (epoch_us(ts) - lag(epoch_us(ts)) OVER ("
            "   PARTITION BY user_id, event_type ORDER BY ts, event_id))"
            "   // 1000000 AS gap_s"
            " FROM events)"
            " SELECT event_type, count(*)::BIGINT AS n_gaps,"
            " percentile_disc(0.5) WITHIN GROUP (ORDER BY gap_s)::BIGINT"
            "  AS median_gap_s,"
            " percentile_disc(0.9) WITHIN GROUP (ORDER BY gap_s)::BIGINT"
            "  AS p90_gap_s"
            " FROM g WHERE gap_s IS NOT NULL GROUP BY 1"
        ),
        # hourly session concurrency: sessions (user_sessions definition)
        # exploded to the hour buckets their [min ts, max ts] span covers
        "session_concurrency": (
            "WITH x AS ("
            "  SELECT user_id, ts,"
            "   CASE WHEN lag(ts) OVER w IS NULL"
            "     OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE"
            "   THEN 1 ELSE 0 END AS new_s"
            "  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)"
            "), y AS ("
            "  SELECT user_id, ts,"
            "   sum(new_s) OVER (PARTITION BY user_id ORDER BY ts"
            "     ROWS UNBOUNDED PRECEDING)::BIGINT AS session_id"
            "  FROM x"
            "), s AS ("
            "  SELECT epoch(date_trunc('hour', min(ts)))::BIGINT AS h0,"
            "   epoch(date_trunc('hour', max(ts)))::BIGINT AS h1"
            "  FROM y GROUP BY user_id, session_id"
            "), e AS ("
            "  SELECT h0 + 3600 * u.i AS window_start"
            "  FROM s, unnest(range(0, (h1 - h0) // 3600 + 1)) AS u(i)"
            ") SELECT window_start, count(*)::BIGINT AS n_active"
            " FROM e GROUP BY 1"
        ),
        # as-of join: DuckDB's native ASOF JOIN is the oracle; timestamps
        # compare as epoch-microsecond BIGINTs on both sides
        # ASOF JOIN semantics with the tie-break PINNED (DuckDB's ASOF
        # picks an arbitrary row among right rows sharing (user_id, ts);
        # this window form picks max event_id, matching the Ray side)
        "asof_join_attribution": (
            "SELECT purchase_id, user_id, purchase_us, click_id, click_us"
            " FROM ("
            "  SELECT p.event_id AS purchase_id, p.user_id,"
            "   epoch_us(p.ts)::BIGINT AS purchase_us,"
            "   c.event_id AS click_id, epoch_us(c.ts)::BIGINT AS click_us,"
            "   row_number() OVER (PARTITION BY p.event_id"
            "     ORDER BY c.ts DESC, c.event_id DESC) AS rk"
            "  FROM (SELECT * FROM events WHERE event_type = 'purchase') p"
            "  JOIN (SELECT * FROM events WHERE event_type = 'click') c"
            "    ON p.user_id = c.user_id AND p.ts >= c.ts)"
            " WHERE rk = 1"
        ),
        # range join: per-signup click count in the following 30 minutes;
        # LEFT JOIN keeps zero-click signups as n_clicks = 0 (nullable-free)
        "range_join_signup_clicks": (
            "SELECT s.event_id AS signup_id, s.user_id,"
            " count(c.event_id)::BIGINT AS n_clicks"
            " FROM (SELECT * FROM events WHERE event_type = 'signup') s"
            " LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c"
            " ON s.user_id = c.user_id AND c.ts >= s.ts"
            " AND c.ts < s.ts + INTERVAL 30 MINUTE"
            " GROUP BY s.event_id, s.user_id"
        ),
        "supplier_account_rank": (
            "SELECT s_suppkey FROM supplier"
            " ORDER BY s_acctbal DESC, s_suppkey LIMIT 10"
        ),
        # exact substring duplication (Lee et al. 2022): a window position is
        # duplicated when its 8-token n-gram occurs >= 2 times in the corpus
        "duplicate_ngram_spans": (
            "WITH t AS (SELECT doc_id,"
            "  regexp_extract_all(text, '[A-Za-z0-9]+') AS toks"
            "  FROM documents),"
            " w AS (SELECT doc_id, greatest(len(toks) - 7, 0)::BIGINT"
            "  AS n_windows, toks FROM t),"
            " i AS (SELECT doc_id, toks,"
            "  unnest(generate_series(1, len(toks) - 7)) AS i"
            "  FROM w WHERE len(toks) >= 8),"
            " p AS (SELECT doc_id, array_to_string(toks[i:i+7], ' ') AS ng"
            "  FROM i),"
            " c AS (SELECT ng, count(*) AS tot FROM p GROUP BY ng),"
            " d AS (SELECT doc_id, count(*)::BIGINT AS n_dup FROM p"
            "  JOIN c USING (ng) WHERE tot > 1 GROUP BY doc_id)"
            " SELECT w.doc_id, w.n_windows,"
            " coalesce(d.n_dup, 0)::BIGINT AS n_dup_positions,"
            " CASE WHEN w.n_windows > 0 THEN"
            "  coalesce(d.n_dup, 0) / w.n_windows::DOUBLE ELSE 0.0 END"
            "  AS dup_fraction"
            " FROM w LEFT JOIN d USING (doc_id)"
        ),
        # TPC-H Q3-style three-table join + global top-N; revenue ordered in
        # integer cents so ties at the LIMIT boundary break identically
        "q3_shipping_priority": (
            "WITH r AS ("
            "  SELECT l_orderkey,"
            "   sum(floor(l_extendedprice * (1 - l_discount) * 100"
            "       + 0.5)::BIGINT) AS rev_c,"
            "   epoch_us(o_orderdate)::BIGINT AS order_date_us,"
            "   o_orderpriority"
            "  FROM customer"
            "  JOIN orders ON c_custkey = o_custkey"
            "  JOIN lineitem ON l_orderkey = o_orderkey"
            "  WHERE c_mktsegment = 'BUILDING'"
            "   AND o_orderdate < TIMESTAMP '1998-01-01'"
            "   AND l_shipdate > TIMESTAMP '1998-01-01'"
            "  GROUP BY l_orderkey, o_orderdate, o_orderpriority"
            ") SELECT l_orderkey, rev_c / 100.0 AS revenue, order_date_us,"
            " o_orderpriority FROM r"
            " ORDER BY rev_c DESC, l_orderkey LIMIT 10"
        ),
        # distributed anti-join
        "inactive_customers": (
            "SELECT c_custkey, c_mktsegment FROM customer"
            " WHERE c_custkey NOT IN ("
            "  SELECT o_custkey FROM orders"
            "  WHERE o_orderdate >= TIMESTAMP '2001-01-01')"
        ),
        # temporal keep-latest dedup: max ts per user, ties -> max event_id
        "latest_event_per_user": (
            "SELECT user_id, event_id, epoch_us(ts)::BIGINT AS ts_us,"
            " event_type, value FROM events"
            " QUALIFY row_number() OVER (PARTITION BY user_id"
            "  ORDER BY ts DESC, event_id DESC) = 1"
        ),
        # signup -> purchase funnel per signup day (7-day window)
        "funnel_conversion": (
            "WITH s AS (SELECT event_id, user_id, ts FROM events"
            "  WHERE event_type = 'signup'),"
            " p AS (SELECT user_id, ts FROM events"
            "  WHERE event_type = 'purchase'),"
            " flags AS (SELECT s.event_id, s.ts,"
            "  CASE WHEN count(p.user_id) > 0 THEN 1 ELSE 0 END AS conv"
            "  FROM s LEFT JOIN p ON p.user_id = s.user_id"
            "   AND p.ts >= s.ts AND p.ts < s.ts + INTERVAL 7 DAY"
            "  GROUP BY s.event_id, s.ts)"
            " SELECT epoch(date_trunc('day', ts))::BIGINT AS day_start,"
            " count(*)::BIGINT AS n_signups, sum(conv)::BIGINT AS n_converted"
            " FROM flags GROUP BY 1"
        ),
        # one-pass ROLLUP (3 grouping levels); '' / -1 stand for NULL keys
        "events_rollup": (
            "SELECT (CASE WHEN event_type IS NULL AND window_start IS NULL"
            "   THEN 2 WHEN window_start IS NULL THEN 1 ELSE 0 END)::BIGINT"
            "   AS level,"
            " coalesce(event_type, '') AS event_type,"
            " coalesce(window_start, -1)::BIGINT AS window_start,"
            " n_events, sum_value FROM ("
            "  SELECT event_type,"
            "   epoch(date_trunc('hour', ts))::BIGINT AS window_start,"
            "   count(*)::BIGINT AS n_events,"
            "   sum(floor(value * 100 + 0.5)::BIGINT) / 100.0 AS sum_value"
            "  FROM events GROUP BY ROLLUP (event_type, window_start))"
        ),
        # GROUPING SETS ((event_type),(isodow),()) — disjoint sets, one pass
        "events_grouping_sets": (
            "SELECT (CASE g WHEN 1 THEN 0 WHEN 2 THEN 1 ELSE 2 END)::BIGINT"
            "   AS level,"
            " coalesce(event_type, '') AS event_type,"
            " coalesce(isodow, -1)::BIGINT AS isodow,"
            " n_events, sum_value FROM ("
            "  SELECT event_type, isodow(ts)::BIGINT AS isodow,"
            "   grouping(event_type, isodow(ts)) AS g,"
            "   count(*)::BIGINT AS n_events,"
            "   sum(floor(value * 100 + 0.5)::BIGINT) / 100.0 AS sum_value"
            "  FROM events"
            "  GROUP BY GROUPING SETS ((event_type), (isodow(ts)), ()))"
        ),
        # last-touch attribution / Q18: oracles GENERATED from the same
        # default parameters the queries() callables use (advice-r3)
        "last_touch_attribution": relational.last_touch_oracle_sql(),
        "q18_large_orders": relational.q18_oracle_sql(),
        # higher moments from exact HUGEINT raw-moment sums; the closed
        # forms run on identical integers on both sides (grouped_corr
        # contract; pow/sqrt order mirrored)
        "grouped_skew": (
            "WITH m AS (SELECT event_type, count(*)::HUGEINT AS n,"
            "  sum(vc)::HUGEINT AS s1, sum(vc*vc)::HUGEINT AS s2,"
            "  sum(vc*vc*vc)::HUGEINT AS s3,"
            "  sum(vc*vc*vc*vc)::HUGEINT AS s4"
            "  FROM (SELECT event_type, floor(value * 100 + 0.5)::HUGEINT"
            "    AS vc FROM events) GROUP BY 1),"
            " c AS (SELECT event_type, n, n*s2 - s1*s1 AS m2n,"
            "  n*n*s3 - 3*n*s1*s2 + 2*s1*s1*s1 AS m3n,"
            "  n*n*n*s4 - 4*n*n*s1*s3 + 6*n*s1*s1*s2 - 3*s1*s1*s1*s1"
            "   AS m4n FROM m)"
            " SELECT event_type, n::BIGINT AS n_events,"
            " m3n::DOUBLE / pow(m2n::DOUBLE, 1.5)"
            "  AS skewness,"
            " m4n::DOUBLE / (m2n::DOUBLE * m2n::DOUBLE) - 3.0"
            "  AS kurtosis_excess"
            " FROM c"
        ),
        # top event-type trigram paths over each user's timeline
        "event_path_trigrams": (
            "WITH w AS (SELECT event_type AS t1,"
            "  lead(event_type, 1) OVER win AS t2,"
            "  lead(event_type, 2) OVER win AS t3"
            " FROM events WINDOW win AS ("
            "  PARTITION BY user_id ORDER BY ts, event_id))"
            " SELECT t1 || ' > ' || t2 || ' > ' || t3 AS path,"
            " count(*)::BIGINT AS n FROM w"
            " WHERE t2 IS NOT NULL AND t3 IS NOT NULL"
            " GROUP BY 1 ORDER BY n DESC, path LIMIT 20"
        ),
        # chi-square independence cells (segment x priority): per-cell
        # rows keep every float row-local over identical integers
        "segment_priority_independence": (
            "WITH cell AS (SELECT c.c_mktsegment, o.o_orderpriority,"
            "  count(*)::BIGINT AS n FROM orders o"
            "  JOIN customer c ON c.c_custkey = o.o_custkey GROUP BY 1, 2),"
            " t AS (SELECT sum(n)::BIGINT AS total FROM cell),"
            " m AS (SELECT cell.*,"
            "  sum(n) OVER (PARTITION BY c_mktsegment)::BIGINT AS rs,"
            "  sum(n) OVER (PARTITION BY o_orderpriority)::BIGINT AS cs"
            "  FROM cell)"
            " SELECT c_mktsegment, o_orderpriority, n AS n_obs,"
            " (rs * cs)::DOUBLE / t.total::DOUBLE AS expected,"
            " (n - (rs * cs)::DOUBLE / t.total::DOUBLE)"
            "  * (n - (rs * cs)::DOUBLE / t.total::DOUBLE)"
            "  / ((rs * cs)::DOUBLE / t.total::DOUBLE) AS chi2_contrib"
            " FROM m, t"
        ),
        # Benford first-digit profile: per-digit rows keep every float a
        # row-local expression over identical integers
        "benford_value_digits": (
            "WITH c AS (SELECT"
            "  left(CAST(floor(value * 100 + 0.5)::BIGINT AS VARCHAR),"
            "   1)::BIGINT AS digit, count(*)::BIGINT AS n"
            "  FROM events WHERE floor(value * 100 + 0.5)::BIGINT > 0"
            "  GROUP BY 1),"
            " t AS (SELECT sum(n)::BIGINT AS total FROM c)"
            " SELECT digit, n AS n_obs,"
            " log10(1.0 + 1.0 / digit) AS benford_p,"
            " (n - total * log10(1.0 + 1.0 / digit))"
            "  * (n - total * log10(1.0 + 1.0 / digit))"
            "  / (total * log10(1.0 + 1.0 / digit)) AS chi2_contrib"
            " FROM c, t"
        ),
        # order fan-out histogram: lineitems-per-order distribution
        "order_size_histogram": (
            "SELECT k AS n_items, count(*)::BIGINT AS n_orders FROM ("
            " SELECT count(*)::BIGINT AS k FROM lineitem"
            " GROUP BY l_orderkey) GROUP BY 1"
        ),
        # chi-square weekday-uniformity test in closed integer form:
        # (7*sum(o^2) - n^2) / n — missing weekdays handled automatically
        "order_dow_chisq": (
            "WITH c AS (SELECT isodow(o_orderdate)::BIGINT AS d,"
            "  count(*)::BIGINT AS n FROM orders GROUP BY 1),"
            " t AS (SELECT sum(n)::BIGINT AS n, count(*)::BIGINT AS k,"
            "  sum(n * n)::HUGEINT AS s2 FROM c)"
            " SELECT n AS n_orders, k AS n_days_seen,"
            " (7 * s2 - n * n)::DOUBLE / n::DOUBLE AS chi2_uniform FROM t"
        ),
        # per-brand price dispersion from exact integer-cents moments;
        # sqrt (IEEE correctly rounded) mirrors Python math.sqrt
        "brand_price_cv": (
            "WITH m AS (SELECT p_brand, count(*)::BIGINT AS n,"
            "  sum(pc)::BIGINT AS s1, sum(pc * pc)::BIGINT AS s2"
            "  FROM (SELECT p_brand,"
            "   floor(p_retailprice * 100 + 0.5)::BIGINT AS pc FROM part)"
            "  GROUP BY 1)"
            " SELECT p_brand, n AS n_parts,"
            " s1::DOUBLE / n::DOUBLE / 100.0 AS mean_price,"
            " sqrt((n * s2 - s1 * s1)::DOUBLE) / s1::DOUBLE AS price_cv"
            " FROM m"
        ),
        # exact Gini + top-pct share: oracle generated from the same
        # top_pct default as the pipeline (advice-r3)
        "spend_concentration": relational.spend_concentration_oracle_sql(),
        # TPC-H Q14: per ship month, promo parts' share of revenue
        "q14_promo_revenue": (
            "WITH l AS (SELECT"
            "  epoch(date_trunc('month', l_shipdate))::BIGINT"
            "   AS month_start,"
            "  floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)"
            "   ::BIGINT AS rc,"
            "  (p.p_type = 'PROMO') AS is_promo"
            " FROM lineitem JOIN part p ON p.p_partkey = l_partkey)"
            " SELECT month_start,"
            " sum(CASE WHEN is_promo THEN rc ELSE 0 END)::BIGINT / 100.0"
            "  AS promo_revenue,"
            " sum(rc)::BIGINT / 100.0 AS total_revenue,"
            " sum(CASE WHEN is_promo THEN rc ELSE 0 END)::DOUBLE"
            "  / sum(rc)::DOUBLE AS promo_share"
            " FROM l GROUP BY 1"
        ),
        # RATIO_TO_REPORT: per-nation share of total order revenue
        "nation_revenue_share": (
            "WITH r AS (SELECT n.n_name,"
            "  sum(floor(o.o_totalprice * 100 + 0.5)::BIGINT)::BIGINT"
            "   AS rev_c"
            "  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey"
            "  JOIN nation n ON n.n_nationkey = c.c_nationkey GROUP BY 1),"
            " t AS (SELECT sum(rev_c)::BIGINT AS total FROM r)"
            " SELECT n_name, rev_c / 100.0 AS revenue,"
            " rev_c::DOUBLE / total::DOUBLE AS revenue_share FROM r, t"
        ),
        # cohort-level activation rate: per signup day, fraction of users
        # purchasing within 24h of their first signup (microsecond epoch
        # arithmetic; day bucket = floor to 86400s)
        "conversion_rate_by_signup_day": (
            "WITH s AS (SELECT user_id, min(epoch_us(ts))::BIGINT AS s0"
            "  FROM events WHERE event_type = 'signup' GROUP BY 1),"
            " p AS (SELECT s.user_id, min(epoch_us(e.ts))::BIGINT AS t"
            "  FROM events e JOIN s USING (user_id)"
            "  WHERE e.event_type = 'purchase'"
            "   AND epoch_us(e.ts) >= s.s0 GROUP BY s.user_id),"
            " u AS (SELECT (s.s0 // 86400000000) * 86400 AS day_start,"
            "  CASE WHEN p.t IS NOT NULL"
            "   AND p.t - s.s0 <= 86400000000 THEN 1 ELSE 0 END AS conv"
            "  FROM s LEFT JOIN p USING (user_id))"
            " SELECT day_start, count(*)::BIGINT AS n_signups,"
            " sum(conv)::BIGINT AS n_converted,"
            " sum(conv)::DOUBLE / count(*)::DOUBLE AS conversion_rate"
            " FROM u GROUP BY 1"
        ),
        # activation-funnel timing: first signup -> first purchase at or
        # after it, whole seconds
        "time_to_conversion": (
            "WITH s AS (SELECT user_id, min(ts) AS s0 FROM events"
            "  WHERE event_type = 'signup' GROUP BY 1),"
            " e AS (SELECT e.user_id, s.s0, min(e.ts) AS t"
            "  FROM events e JOIN s USING (user_id)"
            "  WHERE e.event_type = 'purchase' AND e.ts >= s.s0"
            "  GROUP BY e.user_id, s.s0)"
            " SELECT user_id, epoch_us(s0)::BIGINT AS signup_ts,"
            " ((epoch_us(t) - epoch_us(s0)) // 1000000)::BIGINT"
            "  AS conversion_s FROM e"
        ),
        # bottom-k quantile sketch accuracy gate (constant-1 on a correct
        # sample/merge; n_total pins the exact pass)
        "value_quantile_sketch": (
            "SELECT q_milli::BIGINT AS q_milli,"
            " (SELECT count(*) FROM events)::BIGINT AS n_total,"
            " 1::BIGINT AS rank_ok"
            " FROM (VALUES (250), (500), (900), (990)) t(q_milli)"
        ),
        # SEMI-join (EXISTS): customers with >=1 order, per segment
        "segment_active_customers": (
            "SELECT c_mktsegment, count(*)::BIGINT AS n_customers"
            " FROM customer c WHERE EXISTS ("
            "   SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)"
            " GROUP BY 1"
        ),
        # EXCEPT set op: (user, day) pairs that clicked but never purchased
        "clickers_no_purchase": (
            "SELECT user_id, epoch(date_trunc('day', ts))::BIGINT AS"
            "   day_start FROM events WHERE event_type = 'click'"
            " EXCEPT"
            " SELECT user_id, epoch(date_trunc('day', ts))::BIGINT"
            "  FROM events WHERE event_type = 'purchase'"
        ),
        # INTERSECT set op: (user, day) pairs that clicked AND purchased
        "clickers_and_purchasers": (
            "SELECT user_id, epoch(date_trunc('day', ts))::BIGINT AS"
            "   day_start FROM events WHERE event_type = 'click'"
            " INTERSECT"
            " SELECT user_id, epoch(date_trunc('day', ts))::BIGINT"
            "  FROM events WHERE event_type = 'purchase'"
        ),
        # single-pass column profile (rows/nulls/exact distinct/min/max in
        # the engine's canonical int64/string forms)
        "table_profile": (
            "WITH e AS (SELECT * FROM events)"
            # outer cast: UNION ALL widens mixed sum/min types to HUGEINT,
            # which pandas maps away from the Ray side's int64/float64
            " SELECT col, n_rows::BIGINT AS n_rows,"
            "  n_nulls::BIGINT AS n_nulls, n_distinct::BIGINT AS n_distinct,"
            "  min_i::BIGINT AS min_i, max_i::BIGINT AS max_i,"
            "  min_s::VARCHAR AS min_s, max_s::VARCHAR AS max_s FROM ("
            " SELECT 'event_id' AS col, count(*)::BIGINT AS n_rows,"
            "  sum((event_id IS NULL)::INT)::BIGINT AS n_nulls,"
            "  count(DISTINCT event_id)::BIGINT AS n_distinct,"
            "  min(event_id)::BIGINT AS min_i, max(event_id)::BIGINT"
            "   AS max_i, NULL::VARCHAR AS min_s, NULL::VARCHAR AS max_s"
            " FROM e"
            " UNION ALL SELECT 'user_id', count(*),"
            "  sum((user_id IS NULL)::INT), count(DISTINCT user_id),"
            "  min(user_id), max(user_id), NULL, NULL FROM e"
            " UNION ALL SELECT 'ts', count(*), sum((ts IS NULL)::INT),"
            "  count(DISTINCT epoch_us(ts)), epoch_us(min(ts)),"
            "  epoch_us(max(ts)), NULL, NULL FROM e"
            " UNION ALL SELECT 'value', count(*),"
            "  sum((value IS NULL)::INT),"
            "  count(DISTINCT floor(value * 100 + 0.5)::BIGINT),"
            "  floor(min(value) * 100 + 0.5)::BIGINT,"
            "  floor(max(value) * 100 + 0.5)::BIGINT, NULL, NULL FROM e"
            " UNION ALL SELECT 'event_type', count(*),"
            "  sum((event_type IS NULL)::INT), count(DISTINCT event_type),"
            "  NULL, NULL, min(event_type), max(event_type) FROM e"
            " UNION ALL SELECT 'props', count(*), sum((props IS NULL)::INT),"
            "  count(DISTINCT props), NULL, NULL, min(props), max(props)"
            " FROM e)"
        ),
        # Markov transition counts over each user's ordered event stream
        "event_transitions": (
            "WITH w AS (SELECT event_type AS next_type,"
            "  lag(event_type) OVER ("
            "    PARTITION BY user_id ORDER BY ts, event_id) AS prev_type"
            " FROM events)"
            " SELECT prev_type, next_type, count(*)::BIGINT AS n"
            " FROM w WHERE prev_type IS NOT NULL GROUP BY 1, 2"
        ),
        # HAVING: users filtered by their own aggregates
        "power_users": (
            "SELECT user_id, count(*)::BIGINT AS n_events,"
            " sum(floor(value * 100 + 0.5)::BIGINT) / 100.0 AS spend"
            " FROM events GROUP BY 1"
            " HAVING count(*) >= 50"
            "  AND sum(floor(value * 100 + 0.5)::BIGINT) >= 10000"
        ),
        # LAG window per user: exact microsecond gap + integer-cents delta
        "events_lead_lag": (
            "SELECT event_id, user_id,"
            " coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER w, -1)::BIGINT"
            "   AS gap_us,"
            " coalesce(floor(value * 100 + 0.5)::BIGINT"
            "   - lag(floor(value * 100 + 0.5)::BIGINT) OVER w, 0) / 100.0"
            "   AS value_delta"
            " FROM events WINDOW w AS ("
            "   PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        # conditional-aggregation pivot: one count column per event type
        "user_event_pivot": (
            "SELECT user_id,"
            + "".join(
                f" count(*) FILTER (event_type = '{t}')::BIGINT AS n_{t},"
                for t in ("click", "error", "purchase", "signup", "view")
            )
            + " sum(floor(value * 100 + 0.5)::BIGINT) / 100.0 AS total_value"
            " FROM events GROUP BY 1"
        ),
        # exact percentile_disc over integer cents (median + p90 per type)
        "grouped_median": (
            "SELECT event_type, count(*)::BIGINT AS n_events,"
            " (percentile_disc(0.5) WITHIN GROUP ("
            "   ORDER BY floor(value * 100 + 0.5)::BIGINT)) / 100.0"
            "   AS median_value,"
            " (percentile_disc(0.9) WITHIN GROUP ("
            "   ORDER BY floor(value * 100 + 0.5)::BIGINT)) / 100.0"
            "   AS p90_value"
            " FROM events GROUP BY 1"
        ),
        # global RANK + CUME_DIST of per-user spend (exact integer cents)
        "user_spend_rank": (
            "WITH u AS (SELECT user_id,"
            "   sum(floor(value * 100 + 0.5)::BIGINT) AS spend_c"
            "  FROM events GROUP BY 1)"
            " SELECT user_id, spend_c / 100.0 AS spend,"
            "  rank() OVER (ORDER BY spend_c)::BIGINT AS spend_rank,"
            "  cume_dist() OVER (ORDER BY spend_c) AS spend_cume"
            " FROM u"
        ),
        # PERCENT_RANK in integer micro units (same double division on
        # both sides -> identical floor)
        "user_spend_percent_rank": (
            "WITH u AS (SELECT user_id,"
            "   sum(floor(value * 100 + 0.5)::BIGINT) AS spend_c"
            "  FROM events GROUP BY 1)"
            " SELECT user_id, spend_c / 100.0 AS spend,"
            "  floor(percent_rank() OVER (ORDER BY spend_c) * 1e6"
            "   + 0.5)::BIGINT AS pct_rank_micro"
            " FROM u"
        ),
        # NTILE(10) over per-user spend, deterministic tie order
        "user_spend_ntile": (
            "WITH u AS (SELECT user_id,"
            "   sum(floor(value * 100 + 0.5)::BIGINT) AS spend_c"
            "  FROM events GROUP BY 1)"
            " SELECT user_id, spend_c / 100.0 AS spend,"
            "  ntile(10) OVER (ORDER BY spend_c, user_id)::BIGINT AS tile"
            " FROM u"
        ),
        # Bloom-prefiltered SEMI-join: per-status order count + exact-cents
        # revenue of orders from one market segment's customers
        "bloom_semi_join": (
            "SELECT o_orderstatus, count(*)::BIGINT AS n_orders,"
            " sum(floor(o_totalprice * 100 + 0.5)::BIGINT)::BIGINT"
            "   AS revenue_c"
            " FROM orders o WHERE EXISTS ("
            "   SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey"
            "    AND c.c_mktsegment = 'BUILDING')"
            " GROUP BY 1"
        ),
        # running total per user (SUM OVER), exact in integer cents
        "user_running_value": (
            "SELECT event_id, user_id,"
            " (sum(floor(value * 100 + 0.5)::BIGINT) OVER ("
            "   PARTITION BY user_id ORDER BY ts, event_id"
            "   ROWS UNBOUNDED PRECEDING)) / 100.0 AS running_value"
            " FROM events"
        ),
        # exact triangle census of the shared-k user projection graph
        "user_triangles": (
            "WITH uk AS (SELECT DISTINCT user_id AS u,"
            "   json_extract_string(props, '$.k')::BIGINT AS k"
            "  FROM events WHERE event_type = 'purchase'),"
            " e AS (SELECT DISTINCT a.u AS p, b.u AS q"
            "  FROM uk a JOIN uk b USING (k) WHERE a.u < b.u),"
            " deg AS (SELECT node, count(*)::BIGINT AS d FROM ("
            "   SELECT p AS node FROM e UNION ALL SELECT q FROM e)"
            "  GROUP BY 1)"
            " SELECT (SELECT count(*) FROM deg)::BIGINT AS n_nodes,"
            "  (SELECT count(*) FROM e)::BIGINT AS n_edges,"
            "  (SELECT sum(d * (d - 1) // 2) FROM deg)::BIGINT AS n_wedges,"
            "  (SELECT count(*) FROM e e1"
            "    JOIN e e2 ON e2.p = e1.q"
            "    JOIN e e3 ON e3.p = e1.p AND e3.q = e2.q)::BIGINT"
            "    AS n_triangles"
        ),
        # one-pass CUBE (4 grouping levels); '' / -1 stand for NULL keys
        "events_cube": (
            "SELECT (CASE"
            "   WHEN event_type IS NULL AND day_start IS NULL THEN 3"
            "   WHEN event_type IS NULL THEN 2"
            "   WHEN day_start IS NULL THEN 1 ELSE 0 END)::BIGINT AS level,"
            " coalesce(event_type, '') AS event_type,"
            " coalesce(day_start, -1)::BIGINT AS day_start,"
            " n_events, sum_value FROM ("
            "  SELECT event_type,"
            "   epoch(date_trunc('day', ts))::BIGINT AS day_start,"
            "   count(*)::BIGINT AS n_events,"
            "   sum(floor(value * 100 + 0.5)::BIGINT) / 100.0 AS sum_value"
            "  FROM events GROUP BY CUBE (event_type, day_start))"
        ),
        # ROWS-frame window: trailing 3-row per-user sum/count
        "user_rows_window": (
            "SELECT event_id, user_id,"
            " count(*) OVER w AS n_in_frame,"
            " (sum(floor(value * 100 + 0.5)::BIGINT) OVER w) / 100.0"
            "   AS frame_sum"
            " FROM events WINDOW w AS ("
            "   PARTITION BY user_id ORDER BY ts, event_id"
            "   ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)"
        ),
        # exact bounded-horizon EWMA: binary weights over the last 8
        # lags, renormalized over present terms; integer milli-cents
        "user_value_ewma": (
            "WITH t AS (SELECT event_id, user_id,"
            "   floor(value * 100 + 0.5)::BIGINT AS vc, ts FROM events),"
            " l AS (SELECT event_id, user_id, vc,"
            + ",".join(
                f" lag(vc, {k}) OVER (PARTITION BY user_id"
                f" ORDER BY ts, event_id) AS v{k}"
                for k in range(1, 8)
            )
            + "  FROM t)"
            " SELECT event_id, user_id,"
            " ((128 * vc"
            + "".join(
                f" + coalesce({1 << (7 - k)} * v{k}, 0)"
                for k in range(1, 8)
            )
            + ") * 1000 // (128"
            + "".join(
                f" + CASE WHEN v{k} IS NULL THEN 0"
                f" ELSE {1 << (7 - k)} END"
                for k in range(1, 8)
            )
            + "))::BIGINT AS ewma_milli_cents"
            " FROM l"
        ),
        # weekly cohort retention matrix (Monday-anchored weeks)
        "cohort_retention": (
            "WITH uw AS (SELECT DISTINCT user_id,"
            "   epoch(date_trunc('week', ts))::BIGINT AS week"
            "  FROM events),"
            " first AS (SELECT user_id, min(week) AS cohort_week"
            "  FROM uw GROUP BY 1)"
            " SELECT cohort_week,"
            "  ((week - cohort_week) // 604800)::BIGINT AS week_offset,"
            "  count(*)::BIGINT AS n_users"
            " FROM uw JOIN first USING (user_id) GROUP BY 1, 2"
        ),
        # FULL OUTER join of per-day order counts vs purchase-event counts
        "daily_orders_purchases_balance": (
            "WITH o AS (SELECT"
            "   epoch(date_trunc('day', o_orderdate))::BIGINT AS day_start,"
            "   count(*)::BIGINT AS n_orders FROM orders GROUP BY 1),"
            " p AS (SELECT epoch(date_trunc('day', ts))::BIGINT AS day_start,"
            "   count(*)::BIGINT AS n_purchases FROM events"
            "  WHERE event_type = 'purchase' GROUP BY 1)"
            " SELECT coalesce(o.day_start, p.day_start)::BIGINT AS day_start,"
            "  coalesce(n_orders, 0)::BIGINT AS n_orders,"
            "  coalesce(n_purchases, 0)::BIGINT AS n_purchases"
            " FROM o FULL OUTER JOIN p ON o.day_start = p.day_start"
        ),
        # interpolated p90 (percentile_cont) mirrored as the SAME integer
        # tenth-cents formula the Ray side uses, so doubles match exactly
        "grouped_p90_cont": (
            "WITH g AS (SELECT event_type,"
            "   list_sort(list(floor(value * 100 + 0.5)::BIGINT)) AS vs,"
            "   count(*)::BIGINT AS n FROM events GROUP BY 1)"
            " SELECT event_type, n AS n_events,"
            "  (10 * vs[(9 * (n - 1)) // 10 + 1]"
            "   + ((9 * (n - 1)) % 10)"
            "     * (vs[least((9 * (n - 1)) // 10 + 2, n)]"
            "        - vs[(9 * (n - 1)) // 10 + 1])"
            "  ) / 1000.0 AS p90_cont"
            " FROM g"
        ),
        # common-neighbor link prediction over the shared-k user graph:
        # every NON-adjacent pair with >=1 shared neighbor, exact counts
        "user_common_neighbors": (
            "WITH uk AS (SELECT DISTINCT user_id AS u,"
            "   json_extract_string(props, '$.k')::BIGINT AS k"
            "  FROM events WHERE event_type = 'purchase'),"
            " e AS (SELECT DISTINCT a.u AS p, b.u AS q"
            "  FROM uk a JOIN uk b USING (k) WHERE a.u < b.u),"
            " adj AS (SELECT p AS w, q AS x FROM e"
            "  UNION ALL SELECT q, p FROM e),"
            " cn AS (SELECT a.x AS u, b.x AS v, count(*)::BIGINT AS n_common"
            "  FROM adj a JOIN adj b ON a.w = b.w AND a.x < b.x"
            "  GROUP BY 1, 2)"
            " SELECT u, v, n_common FROM cn"
            " WHERE NOT EXISTS (SELECT 1 FROM e"
            "   WHERE e.p = cn.u AND e.q = cn.v)"
        ),
        # resource-allocation link prediction: 1/deg(w) summed over common
        # neighbors, in exact integer micro-units on both sides
        "user_resource_allocation": (
            "WITH uk AS (SELECT DISTINCT user_id AS u,"
            "   json_extract_string(props, '$.k')::BIGINT AS k"
            "  FROM events WHERE event_type = 'purchase'),"
            " e AS (SELECT DISTINCT a.u AS p, b.u AS q"
            "  FROM uk a JOIN uk b USING (k) WHERE a.u < b.u),"
            " adj AS (SELECT p AS w, q AS x FROM e"
            "  UNION ALL SELECT q, p FROM e),"
            " deg AS (SELECT w, count(DISTINCT x)::BIGINT AS d"
            "  FROM adj GROUP BY 1),"
            " ra AS (SELECT a.x AS u, b.x AS v,"
            "   sum((2000000 + d) // (2 * d))::BIGINT AS ra_micro"
            "  FROM adj a JOIN adj b ON a.w = b.w AND a.x < b.x"
            "  JOIN deg ON deg.w = a.w GROUP BY 1, 2)"
            " SELECT u, v, ra_micro FROM ra"
            " WHERE NOT EXISTS (SELECT 1 FROM e"
            "   WHERE e.p = ra.u AND e.q = ra.v)"
        ),
        # neighborhood Jaccard in exact integer micro-units: cn / (du+dv-cn)
        # half-up, pure integer arithmetic on both sides
        "user_jaccard_similarity": (
            "WITH uk AS (SELECT DISTINCT user_id AS u,"
            "   json_extract_string(props, '$.k')::BIGINT AS k"
            "  FROM events WHERE event_type = 'purchase'),"
            " e AS (SELECT DISTINCT a.u AS p, b.u AS q"
            "  FROM uk a JOIN uk b USING (k) WHERE a.u < b.u),"
            " adj AS (SELECT p AS w, q AS x FROM e"
            "  UNION ALL SELECT q, p FROM e),"
            " deg AS (SELECT w, count(DISTINCT x)::BIGINT AS d"
            "  FROM adj GROUP BY 1),"
            " cn AS (SELECT a.x AS u, b.x AS v, count(*)::BIGINT AS n"
            "  FROM adj a JOIN adj b ON a.w = b.w AND a.x < b.x"
            "  GROUP BY 1, 2),"
            " na AS (SELECT u, v, n FROM cn"
            "  WHERE NOT EXISTS (SELECT 1 FROM e"
            "   WHERE e.p = cn.u AND e.q = cn.v))"
            " SELECT na.u, na.v,"
            "  ((2000000 * n + (du.d + dv.d - n))"
            "   // (2 * (du.d + dv.d - n)))::BIGINT AS jac_micro"
            " FROM na JOIN deg du ON du.w = na.u"
            " JOIN deg dv ON dv.w = na.v"
        ),
        # per-node local clustering coefficient in exact integer
        # micro-units: lcc = 2*T(u) / (d*(d-1)); twice_t(u) sums the
        # per-EDGE common-neighbor counts over u's incident edges (each
        # triangle at u counted once per incident edge). Non-negative
        # operands, so // agrees between DuckDB and the engine.
        "user_clustering_coefficient": (
            "WITH uk AS (SELECT DISTINCT user_id AS u,"
            "   json_extract_string(props, '$.k')::BIGINT AS k"
            "  FROM events WHERE event_type = 'purchase'),"
            " e AS (SELECT DISTINCT a.u AS p, b.u AS q"
            "  FROM uk a JOIN uk b USING (k) WHERE a.u < b.u),"
            " adj AS (SELECT p AS w, q AS x FROM e"
            "  UNION ALL SELECT q, p FROM e),"
            " deg AS (SELECT w AS node, count(DISTINCT x)::BIGINT AS d"
            "  FROM adj GROUP BY 1),"
            " cn AS (SELECT a.x AS u, b.x AS v, count(*)::BIGINT AS n"
            "  FROM adj a JOIN adj b ON a.w = b.w AND a.x < b.x"
            "  GROUP BY 1, 2),"
            " te AS (SELECT cn.u, cn.v, n FROM cn"
            "  JOIN e ON e.p = cn.u AND e.q = cn.v),"
            " t2 AS (SELECT node, sum(n)::BIGINT AS twice_t FROM"
            "  (SELECT u AS node, n FROM te UNION ALL SELECT v, n FROM te)"
            "  GROUP BY 1)"
            " SELECT deg.node, deg.d,"
            "  (coalesce(twice_t, 0) // 2)::BIGINT AS tri,"
            "  ((1000000 * coalesce(twice_t, 0))"
            "   // (deg.d * (deg.d - 1)))::BIGINT AS lcc_micro"
            " FROM deg LEFT JOIN t2 USING (node) WHERE deg.d >= 2"
        ),
        # degree assortativity as exact integer moments over the
        # directed-both edge list (x/y marginals coincide, so Pearson is
        # rational); micro-units via HUGEINT // which truncates toward
        # zero exactly like the engine's sign*(abs//den) fold
        "user_degree_assortativity": (
            "WITH uk AS (SELECT DISTINCT user_id AS u,"
            "   json_extract_string(props, '$.k')::BIGINT AS k"
            "  FROM events WHERE event_type = 'purchase'),"
            " e AS (SELECT DISTINCT a.u AS p, b.u AS q"
            "  FROM uk a JOIN uk b USING (k) WHERE a.u < b.u),"
            " adj AS (SELECT p AS w, q AS x FROM e"
            "  UNION ALL SELECT q, p FROM e),"
            " deg AS (SELECT w, count(DISTINCT x)::BIGINT AS d"
            "  FROM adj GROUP BY 1),"
            " dd AS (SELECT du.d AS x, dv.d AS y FROM adj"
            "  JOIN deg du ON du.w = adj.w JOIN deg dv ON dv.w = adj.x),"
            " s AS (SELECT count(*)::HUGEINT AS n, sum(x)::HUGEINT AS sx,"
            "   sum(x * x)::HUGEINT AS sxx, sum(x * y)::HUGEINT AS sxy"
            "  FROM dd)"
            " SELECT n::BIGINT AS n_pairs, sx::BIGINT AS s_x,"
            "  sxx::BIGINT AS s_xx, sxy::BIGINT AS s_xy,"
            "  (CASE WHEN n * sxx - sx * sx = 0 THEN 0"
            "   ELSE (1000000 * (n * sxy - sx * sx))"
            "    // (n * sxx - sx * sx) END)::BIGINT AS assort_micro"
            " FROM s"
        ),
        # PIVOT onto the generator's closed event-type universe (fixed
        # columns on both sides; the engine raises loudly on an unseen
        # type rather than silently dropping it)
        "events_pivot_by_type": (
            "SELECT epoch(date_trunc('day', ts))::BIGINT AS day_start,"
            " (count(*) FILTER (WHERE event_type = 'click'))::BIGINT"
            "   AS n_click,"
            " (count(*) FILTER (WHERE event_type = 'error'))::BIGINT"
            "   AS n_error,"
            " (count(*) FILTER (WHERE event_type = 'purchase'))::BIGINT"
            "   AS n_purchase,"
            " (count(*) FILTER (WHERE event_type = 'signup'))::BIGINT"
            "   AS n_signup,"
            " (count(*) FILTER (WHERE event_type = 'view'))::BIGINT"
            "   AS n_view,"
            " count(*)::BIGINT AS n_total"
            " FROM events GROUP BY 1"
        ),
        # lag-1 value autocorrelation as exact integer-cent moments over
        # consecutive pairs per user stream (the Pearson epilogue needs a
        # sqrt, so the hash-compared surface is the moments themselves)
        "event_value_autocorr": (
            "WITH t AS (SELECT user_id,"
            "  floor(value * 100 + 0.5)::BIGINT AS v, ts, event_id"
            "  FROM events),"
            " p AS (SELECT v AS x, lead(v) OVER (PARTITION BY user_id"
            "   ORDER BY ts, event_id) AS y FROM t)"
            " SELECT count(*)::BIGINT AS n_pairs, sum(x)::BIGINT AS s_x,"
            "  sum(y)::BIGINT AS s_y, sum(x * x)::BIGINT AS s_xx,"
            "  sum(y * y)::BIGINT AS s_yy, sum(x * y)::BIGINT AS s_xy"
            " FROM p WHERE y IS NOT NULL"
        ),
        # first-order Markov transition counts per user stream; the
        # (ts, event_id) ORDER BY is a total order (event_id unique), so
        # the window and the engine's mergesort agree row-for-row
        "event_type_transitions": (
            "WITH t AS (SELECT user_id, event_type,"
            "  lag(event_type) OVER (PARTITION BY user_id"
            "   ORDER BY ts, event_id) AS prev_type FROM events)"
            " SELECT prev_type, event_type AS next_type,"
            "  count(*)::BIGINT AS n FROM t"
            " WHERE prev_type IS NOT NULL GROUP BY 1, 2"
        ),
        # TPC-H Q5: same-nation customer+supplier revenue per nation in a
        # region; per-item integer cents, half-up, summed exactly
        "q5_local_supplier_volume": (
            "SELECT n_name,"
            " sum(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)"
            "     ::BIGINT)::BIGINT AS revenue_c"
            " FROM customer JOIN orders ON c_custkey = o_custkey"
            " JOIN lineitem ON l_orderkey = o_orderkey"
            " JOIN supplier ON l_suppkey = s_suppkey"
            " JOIN nation ON s_nationkey = n_nationkey"
            " JOIN region ON n_regionkey = r_regionkey"
            " WHERE r_name = 'ASIA' AND c_nationkey = s_nationkey"
            "  AND o_orderdate >= DATE '1996-01-01'"
            "  AND o_orderdate < DATE '1998-01-01'"
            " GROUP BY n_name"
        ),
        # Q6/Q15/Q17: oracles generated from the pipelines' own defaults
        "q6_forecast_revenue": relational.q6_oracle_sql(),
        "q15_top_supplier": relational.q15_oracle_sql(),
        "q17_small_quantity_revenue": relational.q17_oracle_sql(),
        "q4_order_priority": relational.q4_oracle_sql(),
        "q12_shipping_lateness": relational.q12_oracle_sql(),
        "q19_discounted_revenue": relational.q19_oracle_sql(),
        "q21_waiting_suppliers": relational.q21_oracle_sql(),
        "q22_sales_opportunity": relational.q22_oracle_sql(),
        # Q7 volume shipping: both directions of the two-nation pair
        "q7_volume_shipping": (
            "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,"
            " year(l_shipdate)::BIGINT AS l_year,"
            " sum(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)"
            "     ::BIGINT)::BIGINT AS revenue_c"
            " FROM supplier JOIN lineitem ON s_suppkey = l_suppkey"
            " JOIN orders ON o_orderkey = l_orderkey"
            " JOIN customer ON c_custkey = o_custkey"
            " JOIN nation n1 ON s_nationkey = n1.n_nationkey"
            " JOIN nation n2 ON c_nationkey = n2.n_nationkey"
            " WHERE ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')"
            "     OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))"
            "  AND l_shipdate >= TIMESTAMP '1996-01-01'"
            "  AND l_shipdate < TIMESTAMP '1998-01-01'"
            " GROUP BY 1, 2, 3"
        ),
        # Q8 market share: integer-cents volumes, final division in DOUBLE
        "q8_market_share": (
            "SELECT o_year,"
            " (sum(CASE WHEN nation = 'NATION_6' THEN vol_c ELSE 0 END)"
            "  ::DOUBLE / sum(vol_c)::DOUBLE) AS mkt_share"
            " FROM (SELECT year(o_orderdate)::BIGINT AS o_year,"
            "   floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)"
            "    ::BIGINT AS vol_c, n1.n_name AS nation"
            "  FROM part JOIN lineitem ON p_partkey = l_partkey"
            "  JOIN supplier ON s_suppkey = l_suppkey"
            "  JOIN orders ON l_orderkey = o_orderkey"
            "  JOIN customer ON o_custkey = c_custkey"
            "  JOIN nation n2 ON c_nationkey = n2.n_nationkey"
            "  JOIN region ON n2.n_regionkey = r_regionkey"
            "  JOIN nation n1 ON s_nationkey = n1.n_nationkey"
            "  WHERE r_name = 'AMERICA' AND p_type = 'ECONOMY'"
            "   AND o_orderdate >= TIMESTAMP '1996-01-01'"
            "   AND o_orderdate < TIMESTAMP '1998-01-01')"
            " GROUP BY o_year"
        ),
        # Q10 returned items: top-20 cut pinned by (revenue desc, custkey)
        "q10_returned_items": (
            "SELECT c_custkey, c_name,"
            " sum(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)"
            "     ::BIGINT)::BIGINT AS revenue_c,"
            " c_acctbal, n_name"
            " FROM customer JOIN orders ON c_custkey = o_custkey"
            " JOIN lineitem ON l_orderkey = o_orderkey"
            " JOIN nation ON c_nationkey = n_nationkey"
            " WHERE o_orderdate >= TIMESTAMP '1996-01-01'"
            "  AND o_orderdate < TIMESTAMP '1996-04-01'"
            "  AND l_returnflag = 'R'"
            " GROUP BY c_custkey, c_name, c_acctbal, n_name"
            " ORDER BY revenue_c DESC, c_custkey LIMIT 20"
        ),
        # Q13: order-count distribution INCLUDING zero-order customers
        "q13_customer_distribution": (
            "SELECT c_count::BIGINT AS c_count,"
            " count(*)::BIGINT AS custdist"
            " FROM (SELECT c_custkey, count(o_orderkey) AS c_count"
            "  FROM customer LEFT JOIN orders ON c_custkey = o_custkey"
            "  GROUP BY c_custkey)"
            " GROUP BY 1"
        ),
        # SCD-2 compress-history: one interval per run of equal type; the
        # open last interval carries -1 (NULL-free compare contract)
        "user_status_intervals": (
            "WITH o AS (SELECT user_id, event_type, event_id,"
            "   epoch_us(ts) AS ts_us,"
            "   lag(event_type) OVER (PARTITION BY user_id"
            "    ORDER BY ts, event_id) AS prev_type FROM events),"
            " ch AS (SELECT user_id, event_type, event_id, ts_us FROM o"
            "  WHERE prev_type IS NULL OR prev_type <> event_type)"
            " SELECT user_id, event_type, ts_us AS valid_from_us,"
            "  coalesce(lead(ts_us) OVER (PARTITION BY user_id"
            "   ORDER BY ts_us, event_id), -1)::BIGINT AS valid_to_us"
            " FROM ch"
        ),
        # dense hourly resample per user: zero-filled gaps between each
        # user's first and last active hour
        "events_gap_fill": (
            "WITH h AS (SELECT user_id,"
            "   epoch_us(date_trunc('hour', ts))::BIGINT AS hour_us,"
            "   count(*)::BIGINT AS n FROM events GROUP BY 1, 2),"
            " s AS (SELECT user_id, min(hour_us) AS a, max(hour_us) AS b"
            "  FROM h GROUP BY 1),"
            " g AS (SELECT user_id, a + 3600000000 *"
            "   unnest(range(((b - a) // 3600000000 + 1)::BIGINT))"
            "   AS hour_us FROM s)"
            " SELECT g.user_id, g.hour_us,"
            "  coalesce(h.n, 0)::BIGINT AS n"
            " FROM g LEFT JOIN h ON g.user_id = h.user_id"
            "  AND g.hour_us = h.hour_us"
        ),
        # exact MODE per group, ties to the smallest value
        "grouped_mode": (
            "WITH h AS (SELECT event_type,"
            "   floor(value * 100 + 0.5)::BIGINT AS v,"
            "   count(*)::BIGINT AS n FROM events GROUP BY 1, 2),"
            " r AS (SELECT *, row_number() OVER (PARTITION BY event_type"
            "   ORDER BY n DESC, v ASC) AS rn FROM h)"
            " SELECT event_type, v AS mode_value_c, n AS n_occurrences"
            " FROM r WHERE rn = 1"
        ),
        # ordered STRING_AGG of distinct event types per user
        "user_event_type_agg": (
            "SELECT user_id,"
            " string_agg(DISTINCT event_type, ',' ORDER BY event_type)"
            "  AS types,"
            " count(DISTINCT event_type)::BIGINT AS n_types"
            " FROM events GROUP BY 1"
        ),
        # PMI collocations as an exact half-up integer micro-ratio
        # (monotone in PMI; HUGEINT arithmetic mirrors Python ints)
        "bigram_pmi": (
            "WITH toks AS (SELECT"
            "   regexp_extract_all(text, '[A-Za-z0-9]+') AS t"
            "  FROM documents),"
            " b AS (SELECT t[i] AS x, t[i + 1] AS y"
            "  FROM toks, unnest(range(1, len(t))) AS u(i)),"
            " bc AS (SELECT x, y, count(*)::HUGEINT AS n_xy"
            "  FROM b GROUP BY 1, 2),"
            " uc AS (SELECT tok, count(*)::HUGEINT AS n"
            "  FROM toks, unnest(t) AS v(tok) GROUP BY 1),"
            " tot AS (SELECT sum(n)::HUGEINT AS nn FROM uc)"
            " SELECT bc.x || ' ' || bc.y AS bigram,"
            "  bc.n_xy::BIGINT AS n_xy, ux.n::BIGINT AS n_x,"
            "  uy.n::BIGINT AS n_y,"
            "  ((2000000 * tot.nn * bc.n_xy + ux.n * uy.n)"
            "   // (2 * ux.n * uy.n))::BIGINT AS pmi_ratio_micro"
            " FROM bc CROSS JOIN tot"
            "  JOIN uc ux ON bc.x = ux.tok"
            "  JOIN uc uy ON bc.y = uy.tok"
            " WHERE bc.n_xy >= 5"
            " ORDER BY pmi_ratio_micro DESC, bigram LIMIT 100"
        ),
        # trailing 24h sliding COUNT DISTINCT per active hour (distinct
        # (hour, user) pairs fan out to the windows they serve)
        "sliding_distinct_users": (
            "WITH hu AS (SELECT DISTINCT"
            "   epoch_us(date_trunc('hour', ts))::BIGINT AS h, user_id"
            "  FROM events),"
            " hrs AS (SELECT DISTINCT h FROM hu)"
            " SELECT w.h AS hour_us,"
            "  count(DISTINCT hu.user_id)::BIGINT AS n_users"
            " FROM hrs w JOIN hu ON hu.h <= w.h"
            "  AND hu.h >= w.h - 82800000000"
            " GROUP BY 1"
        ),
        # CDC MERGE INTO (SCD-1): update-wins on matched keys, base rows
        # pass through, inserts append under shifted keys
        "merge_upsert": (
            "WITH u AS (SELECT doc_id, upper(text) AS text"
            "  FROM documents WHERE doc_id % 7 = 0)"
            " SELECT b.doc_id::BIGINT AS doc_id,"
            "  coalesce(u.text, b.text) AS text"
            " FROM documents b LEFT JOIN u ON b.doc_id = u.doc_id"
            " UNION ALL"
            " SELECT (doc_id + 10000000)::BIGINT,"
            "  'ins-' || doc_id::VARCHAR"
            " FROM documents WHERE doc_id % 13 = 0"
        ),
        # NTH_VALUE per user over (ts, event_id) order; users with fewer
        # than n events are absent (NULL-free contract)
        "user_nth_event": (
            "WITH o AS (SELECT user_id, event_id, event_type, value,"
            "   row_number() OVER (PARTITION BY user_id"
            "    ORDER BY ts, event_id) AS rn FROM events)"
            " SELECT user_id, event_id::BIGINT AS nth_event_id,"
            "  event_type AS nth_type, value AS nth_value"
            " FROM o WHERE rn = 3"
        ),
        # exact global DENSE_RANK over per-user spend (pure value
        # function, no tiebreak)
        "user_spend_dense_rank": (
            "WITH u AS (SELECT user_id,"
            "   sum(floor(value * 100 + 0.5)::BIGINT) AS spend_c"
            "  FROM events GROUP BY 1)"
            " SELECT user_id, spend_c / 100.0 AS spend,"
            "  dense_rank() OVER (ORDER BY spend_c)::BIGINT AS dense_rank"
            " FROM u"
        ),
        # conjunctive term search under the shared [A-Za-z0-9]+
        # tokenization
        "boolean_and_search": (
            "SELECT doc_id, lang FROM documents"
            " WHERE list_contains("
            "   regexp_extract_all(text, '[A-Za-z0-9]+'), 'scan')"
            "  AND list_contains("
            "   regexp_extract_all(text, '[A-Za-z0-9]+'), 'merge')"
            "  AND list_contains("
            "   regexp_extract_all(text, '[A-Za-z0-9]+'), 'sort')"
        ),
        # list-column unpivot; float32 -> float64 widening is exact
        "embedding_unpivot": (
            "SELECT vec_id,"
            " (generate_subscripts(embedding, 1) - 1)::BIGINT AS dim_idx,"
            " unnest(embedding)::DOUBLE AS val FROM embeddings"
        ),
        # 2-D Pareto skyline (maximize balance and total spend), exact
        # integer cents; customers without orders spend 0
        "customer_skyline": (
            "WITH s AS (SELECT c_custkey,"
            "   floor(c_acctbal * 100 + 0.5)::BIGINT AS bal_c,"
            "   coalesce(o.sp, 0)::BIGINT AS spend_c"
            "  FROM customer LEFT JOIN ("
            "   SELECT o_custkey,"
            "    sum(floor(o_totalprice * 100 + 0.5)::BIGINT) AS sp"
            "   FROM orders GROUP BY 1) o ON c_custkey = o_custkey)"
            " SELECT c_custkey, bal_c, spend_c FROM s a"
            " WHERE NOT EXISTS (SELECT 1 FROM s b"
            "  WHERE b.bal_c >= a.bal_c AND b.spend_c >= a.spend_c"
            "   AND (b.bal_c > a.bal_c OR b.spend_c > a.spend_c))"
        ),
        # BFS depths from the smallest node over the shared-k projection
        # graph; depth-capped recursive CTE, min(depth) = BFS distance
        "user_bfs_depth": (
            "WITH RECURSIVE uk AS (SELECT DISTINCT user_id AS u,"
            "   json_extract_string(props, '$.k')::BIGINT AS k"
            "  FROM events WHERE event_type = 'purchase'),"
            " e AS (SELECT DISTINCT a.u AS p, b.u AS q"
            "  FROM uk a JOIN uk b USING (k) WHERE a.u < b.u),"
            " adj AS (SELECT p AS w, q AS x FROM e"
            "  UNION ALL SELECT q, p FROM e),"
            " bfs AS ("
            "  SELECT (SELECT min(p) FROM e) AS node, 0 AS depth"
            "  UNION"
            "  SELECT a.x, b.depth + 1 FROM bfs b"
            "   JOIN adj a ON a.w = b.node WHERE b.depth < 32)"
            " SELECT node AS user_id, min(depth)::BIGINT AS depth"
            " FROM bfs GROUP BY 1"
        ),
        # RFM segmentation: three exact NTILE(5) scores per user with the
        # deterministic (metric, user_id) tie order on both sides
        "customer_rfm": (
            "WITH u AS (SELECT user_id,"
            "   max(epoch_us(ts))::BIGINT AS last_us,"
            "   count(*)::BIGINT AS n_events,"
            "   sum(floor(value * 100 + 0.5)::BIGINT)::BIGINT AS spend_c"
            "  FROM events GROUP BY 1),"
            " t AS (SELECT user_id, last_us, n_events, spend_c,"
            "   ntile(5) OVER (ORDER BY last_us, user_id)::BIGINT"
            "    AS r_tile,"
            "   ntile(5) OVER (ORDER BY n_events, user_id)::BIGINT"
            "    AS f_tile,"
            "   ntile(5) OVER (ORDER BY spend_c, user_id)::BIGINT"
            "    AS m_tile FROM u)"
            " SELECT *, (100 * r_tile + 10 * f_tile + m_tile)::BIGINT"
            "  AS rfm FROM t"
        ),
        # decorrelated correlated subquery; exact integer cross-multiply
        # instead of a rounded float average on both sides
        "above_nation_avg_customers": (
            "WITH n AS (SELECT c_nationkey,"
            "   sum(floor(c_acctbal * 100 + 0.5)::BIGINT)::BIGINT AS s,"
            "   count(*)::BIGINT AS cnt FROM customer GROUP BY 1)"
            " SELECT c_custkey, c_name, c.c_nationkey::BIGINT"
            "  AS c_nationkey"
            " FROM customer c JOIN n USING (c_nationkey)"
            " WHERE floor(c_acctbal * 100 + 0.5)::BIGINT * cnt > s"
        ),
        # period-over-period LAG on the bounded month axis; first month
        # carries -1 (NULL-free compare contract)
        "monthly_revenue_growth": (
            "WITH m AS (SELECT"
            "   epoch_us(date_trunc('month', o_orderdate))::BIGINT"
            "    AS month_us,"
            "   sum(floor(o_totalprice * 100 + 0.5)::BIGINT)::BIGINT"
            "    AS rev_c FROM orders GROUP BY 1)"
            " SELECT month_us, rev_c,"
            "  coalesce(lag(rev_c) OVER (ORDER BY month_us), -1)::BIGINT"
            "   AS prev_c FROM m"
        ),
        # FIRST_VALUE / LAST_VALUE per user over (ts, event_id) order
        "user_first_last": (
            "SELECT DISTINCT user_id,"
            " (first_value(event_id) OVER w)::BIGINT AS first_event_id,"
            " first_value(event_type) OVER w AS first_type,"
            " first_value(value) OVER w AS first_value,"
            " (last_value(event_id) OVER w)::BIGINT AS last_event_id,"
            " last_value(event_type) OVER w AS last_type,"
            " last_value(value) OVER w AS last_value"
            " FROM events WINDOW w AS (PARTITION BY user_id"
            "  ORDER BY ts, event_id"
            "  ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)"
        ),
        # frequent-2-itemset mining: co-ordered part pairs with support
        "market_basket_pairs": (
            "WITH op AS (SELECT DISTINCT l_orderkey, l_partkey"
            "  FROM lineitem)"
            " SELECT a.l_partkey::BIGINT AS part_a,"
            "  b.l_partkey::BIGINT AS part_b,"
            "  count(*)::BIGINT AS support"
            " FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey"
            "  AND a.l_partkey < b.l_partkey"
            " GROUP BY 1, 2 HAVING count(*) >= 2"
        ),
        # RANGE-frame window: trailing 1-hour per-user sum/count (value-
        # based frame; peers at both ends included per SQL semantics)
        "user_trailing_window": (
            "SELECT event_id, user_id,"
            " (sum(floor(value * 100 + 0.5)::BIGINT) OVER w) / 100.0"
            "   AS trailing_sum,"
            " count(*) OVER w AS trailing_n"
            " FROM events WINDOW w AS ("
            "   PARTITION BY user_id ORDER BY ts"
            "   RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)"
        ),
        # per-type z-score outliers; moments in exact integer cents, the
        # z-test in the same cross-multiplied double form as the Ray side
        "events_anomaly": (
            "WITH m AS (SELECT event_type,"
            "  sum(floor(value * 100 + 0.5)::BIGINT)::DOUBLE AS s,"
            "  sum((floor(value * 100 + 0.5)::BIGINT)"
            "      * (floor(value * 100 + 0.5)::BIGINT))::DOUBLE AS ss,"
            "  count(*)::DOUBLE AS n"
            " FROM events GROUP BY event_type)"
            " SELECT e.event_id, e.event_type, e.value"
            " FROM events e JOIN m USING (event_type)"
            " WHERE pow(m.n * floor(e.value * 100 + 0.5)::BIGINT - m.s, 2)"
            "  > 9.0 * (m.n * m.ss - m.s * m.s)"
        ),
        # row validation with quarantine side-output; first failing rule wins
        "events_quarantine": (
            "SELECT event_id,"
            " CASE WHEN event_type = 'error' THEN 'error_event'"
            "  ELSE 'value_out_of_range' END AS reason"
            " FROM events WHERE event_type = 'error' OR value > 100.0"
        ),
        "order_revenue_by_status": (
            "SELECT o_orderstatus,"
            " sum(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)::BIGINT)"
            "   / 100.0 AS revenue"
            " FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
            " GROUP BY o_orderstatus"
        ),
        "event_props_extract": (
            "SELECT event_type,"
            " sum(json_extract_string(props, '$.k')::BIGINT)::BIGINT AS sum_k,"
            " count(*)::BIGINT AS n_events"
            " FROM events GROUP BY event_type"
        ),
        "ann_topk": (
            "SELECT q.vec_id AS query_id, e.vec_id AS vec_id"
            " FROM embeddings q, embeddings e"
            " WHERE q.vec_id IN (0, 1, 2, 3)"
            " QUALIFY row_number() OVER ("
            "   PARTITION BY q.vec_id"
            "   ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,"
            "   e.vec_id) <= 10"
        ),
        # RANGE similarity search over sign-hyperplane signatures: the
        # sign predicate and bit-count arithmetic are integer-exact on
        # both sides (hamming = |a| + |b| - 2<a,b> over 0/1 lists), so no
        # float threshold can flip at the boundary
        "ann_hamming_range": (
            "WITH s AS (SELECT vec_id, list_transform(embedding,"
            "   v -> CASE WHEN v > 0 THEN 1.0 ELSE 0.0 END) AS sig"
            "  FROM embeddings),"
            " q AS (SELECT vec_id AS query_id, sig AS qsig FROM s"
            "  WHERE vec_id IN (0, 1, 2, 3))"
            " SELECT * FROM ("
            "  SELECT query_id, s.vec_id AS vec_id,"
            "   (list_sum(qsig) + list_sum(sig)"
            "    - 2 * list_inner_product(qsig, sig))::BIGINT AS hamming"
            "  FROM q, s)"
            " WHERE hamming <= 24"
        ),
        # contrastive hard negatives: nearest DIFFERENT-label embeddings
        "hard_negatives": (
            "SELECT q.vec_id AS query_id, e.vec_id AS vec_id"
            " FROM embeddings q, embeddings e"
            " WHERE q.vec_id IN (0, 1, 2, 3) AND e.label <> q.label"
            " QUALIFY row_number() OVER ("
            "   PARTITION BY q.vec_id"
            "   ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,"
            "   e.vec_id) <= 5"
        ),
        "media_byte_stats": (
            "SELECT doc_id AS media_id, strlen(text)::BIGINT AS n_bytes"
            " FROM documents"
        ),
        # the stub decoder's geometry is pure arithmetic on md5(text) bytes,
        # so the full resize output is SQL-expressible (width = 64 + first
        # md5 byte, height = 64 + second; aspect-preserving scale to 224,
        # half-up rounding, both sides IEEE double)
        "media_resize": (
            "WITH x AS ("
            " SELECT doc_id AS media_id,"
            "  (64 + ('0x' || substr(md5(text), 1, 2))::INT)::BIGINT AS width,"
            "  (64 + ('0x' || substr(md5(text), 3, 2))::INT)::BIGINT AS height"
            " FROM documents)"
            " SELECT media_id, width, height,"
            " greatest(1, floor(width * least(1.0,"
            "   224.0 / greatest(width, height)) + 0.5))::BIGINT AS resized_w,"
            " greatest(1, floor(height * least(1.0,"
            "   224.0 / greatest(width, height)) + 0.5))::BIGINT AS resized_h"
            " FROM x"
        ),
        # IVF recall gate: constant-1 oracle, hash-mismatch on regression
        # (the jsonld roundtrip-flag structural-oracle pattern)
        "ann_ivf_recall": (
            "SELECT q::BIGINT AS query_id, 1::BIGINT AS recall_ok"
            " FROM unnest([0, 1, 2, 3]) AS u(q)"
        ),
        # planted-pair gates: the Ray side must recover every planted pair
        # for recall_ok to be 1 (exact copies -> identical MinHash bands, so
        # recovery is deterministic)
        "dedup_minhash_recall": (
            "SELECT count(*)::BIGINT AS n_expected,"
            " count(*)::BIGINT AS n_found, 1::BIGINT AS recall_ok"
            " FROM documents"
        ),
        "simhash_neardup_recall": (
            "SELECT count(*)::BIGINT AS n_expected,"
            " count(*)::BIGINT AS n_found, 1::BIGINT AS recall_ok"
            " FROM documents"
        ),
        "dedup_ngram_jaccard_recall": (
            "SELECT count(*)::BIGINT AS n_expected,"
            " count(*)::BIGINT AS n_found, 1::BIGINT AS recall_ok"
            " FROM documents"
        ),
        "dedup_clusters_check": (
            "SELECT count(*)::BIGINT AS n_expected,"
            " count(*)::BIGINT AS n_found, 1::BIGINT AS recall_ok"
            " FROM documents"
        ),
        # planted-pair LSH gate: the Ray side must find exactly one pair per
        # embedding (full recall, zero spurious) for recall_ok to be 1
        "embedding_neardup_recall": (
            "SELECT count(*)::BIGINT AS n_expected,"
            " count(*)::BIGINT AS n_found, 1::BIGINT AS recall_ok"
            " FROM embeddings"
        ),
        # the LangId heuristic re-expressed relationally: CJK codepoint scan
        # over the first 400 chars, else argmax of stopword-marker hits with
        # the Python tie-break (max lang key wins ties: fr > es > en > de)
        "lang_id": (
            "WITH t AS ("
            " SELECT doc_id,"
            "  list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),"
            "    x -> lower(x)) AS toks,"
            "  left(text, 400) AS head"
            " FROM documents"
            "), s AS ("
            " SELECT doc_id, head, len(toks) AS n_toks,"
            "  len(list_filter(toks, x -> x IN ('the','and','of','to','a',"
            "    'in','is','it','for','with'))) AS en,"
            "  len(list_filter(toks, x -> x IN ('der','die','das','und',"
            "    'ist','mit','für','von','ein','nicht'))) AS de,"
            "  len(list_filter(toks, x -> x IN ('le','la','les','et','est',"
            "    'pour','avec','dans','une','pas'))) AS fr,"
            "  len(list_filter(toks, x -> x IN ('el','la','los','y','es',"
            "    'para','con','en','una','no'))) AS es"
            " FROM t)"
            " SELECT doc_id,"
            " CASE WHEN regexp_matches(head, '[一-鿿]') THEN 'zh'"
            "  WHEN n_toks = 0 OR greatest(en, de, fr, es) = 0 THEN 'und'"
            "  WHEN fr = greatest(en, de, fr, es) THEN 'fr'"
            "  WHEN es = greatest(en, de, fr, es) THEN 'es'"
            "  WHEN en = greatest(en, de, fr, es) THEN 'en'"
            "  ELSE 'de' END AS lang_pred"
            " FROM s"
        ),
        "knn_label_vote": (
            "WITH nn AS ("
            " SELECT q.vec_id AS query_id, e.label"
            " FROM embeddings q, embeddings e"
            " WHERE q.vec_id IN (0, 1, 2, 3)"
            " QUALIFY row_number() OVER (PARTITION BY q.vec_id"
            "   ORDER BY list_cosine_similarity(q.embedding, e.embedding)"
            "   DESC, e.vec_id) <= 10"
            "), votes AS ("
            " SELECT query_id, label, count(*) AS n FROM nn GROUP BY 1, 2"
            " QUALIFY rank() OVER (PARTITION BY query_id ORDER BY n DESC) = 1"
            ") SELECT query_id, min(label)::BIGINT AS knn_label"
            " FROM votes GROUP BY 1"
        ),
        # float means rounded half-up to 6dp on both sides; partial float64
        # sums agree with DuckDB's within ~1e-15, far inside the rounding
        "label_centroids": (
            "SELECT label::BIGINT AS label, u.d::BIGINT AS dim,"
            " floor((sum(embedding[u.d + 1]::DOUBLE) / count(*)) * 1e6 + 0.5)"
            "   / 1e6 AS mean_val"
            " FROM embeddings, unnest(range(0, 64)) AS u(d)"
            " GROUP BY 1, 2"
        ),
        "media_frame_sample": (
            "SELECT doc_id AS media_id, k::BIGINT AS frame_idx"
            " FROM documents, unnest(range(0, strlen(text) // 64 + 1, 2))"
            " AS u(k)"
        ),
    }
    # label-quality confusion matrix: reuses the lang_id oracle verbatim so
    # the two can never drift apart
    o["lang_confusion"] = (
        "WITH p AS (" + o["lang_id"] + ")"
        " SELECT d.lang, p.lang_pred, count(*)::BIGINT AS n"
        " FROM p JOIN documents d USING (doc_id) GROUP BY 1, 2"
    )
    # per-source contamination rollup: derives from the decontaminate
    # oracle verbatim so the flag definition can never drift
    o["contamination_by_source"] = (
        "WITH base AS (" + o["decontaminate"] + ")"
        " SELECT d.source, count(*)::BIGINT AS n_docs,"
        " sum(base.contaminated)::BIGINT AS n_contaminated,"
        " sum(base.contaminated)::DOUBLE / count(*)::DOUBLE"
        "  AS contamination_rate"
        " FROM base JOIN documents d USING (doc_id) GROUP BY 1"
    )
    return o
