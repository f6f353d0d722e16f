"""The north-star pipeline: Parquet transcripts -> canonical (subj, pred, obj)
triples, as a streaming Ray Data pipeline.

Stage layout (SURVEY.md §3.1 "engine shape" / §7 M1-M4):

  read/generate transcripts                (streamed blocks, Arrow)
    -> linker task map                     (broadcast gazetteer; the token
                                            index is memoised once per worker
                                            process, no actor pool)
    -> repartition(P) + groupby(part)      (the ONE conv_id exchange: raw
                                            turn rows, P = 2 x session CPUs)
    -> map_groups, inside each partition   (build + expand every turn doc,
                                            sort by turn_idx, node map with a
                                            fresh per-conversation bnode
                                            counter, toRDF, per-conversation
                                            c14n)
    -> partitioned Parquet sink            (hash(conv_id) buckets + per-bucket
                                            manifests -> checkpoint/resume)

Raw turn rows cross the exchange, not expanded JSON-LD, which is ~2x larger.
Group size is bounded by the per-conversation turn cap; at 100 TB the
exchange key stays conv_id with per-bucket output so a failed run resumes by
skipping completed buckets (manifest anti-join at the read).
"""

from __future__ import annotations

import json
import os
import zlib
from datetime import timezone as _tz

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.vectorized import crc32_buckets, utf16_sort_keys
from ..kernel import JsonLdOptions
from ..stages.docs import (
    build_conv_node,
    build_turn_doc,
    expand_turn_doc,
    expanded_to_canonical_triples,
)
from ..state.gazetteer import build_gazetteer

TRIPLES_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("graph", pa.string()),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj_kind", pa.string()),
        ("obj_value", pa.string()),
        ("obj_datatype", pa.string()),
        ("obj_lang", pa.string()),
    ]
)


# ---------------------------------------------------------------------------
# Stage: per-turn doc build + expansion (stateless map_batches)
# ---------------------------------------------------------------------------

def expand_turns(batch: pa.Table) -> pa.Table:
    """Arrow in / Arrow out. Emits (conv_id, turn_idx, expanded, error) where
    ``expanded`` is the JSON of the expanded turn node array.

    Error quarantine (SURVEY.md §2.8 error model): a turn whose payload fails
    JSON-LD processing is NOT allowed to fail the job — it yields an empty
    expansion plus the typed error string in the ``error`` column, which
    flows into the per-bucket manifests as an error count."""
    from ..kernel import JsonLdError

    conv_ids = batch["conv_id"].to_pylist()
    turn_idxs = batch["turn_idx"].to_pylist()
    roles = batch["role"].to_pylist()
    texts = batch["text"].to_pylist()
    tools = batch["tool"].to_pylist()
    ts = batch["ts"].cast(pa.int64()).to_pylist()
    entities = (
        batch["entities"].to_pylist()
        if "entities" in batch.column_names
        else [None] * len(conv_ids)
    )
    expanded_out = []
    errors = []
    for i in range(len(conv_ids)):
        entity_iris = json.loads(entities[i]) if entities[i] else []
        try:
            doc = build_turn_doc(
                conv_ids[i], turn_idxs[i], roles[i], texts[i], tools[i], ts[i],
                entity_iris,
            )
            expanded_out.append(
                json.dumps(expand_turn_doc(doc), ensure_ascii=False)
            )
            errors.append("")
        except JsonLdError as err:
            expanded_out.append("[]")
            errors.append(str(err))
    return pa.table(
        {
            "conv_id": pa.array(conv_ids, pa.string()),
            "turn_idx": pa.array(turn_idxs, pa.int32()),
            "expanded": pa.array(expanded_out, pa.string()),
            "error": pa.array(errors, pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# Stage: conversation group -> canonical triples (groupby(conv_id).map_groups)
# ---------------------------------------------------------------------------

# Per-conversation turn cap: the synthetic generator tops out at 200
# turns, but a REAL 100-TB corpus has no cap and a million-turn
# conversation would land its whole node map in one task (verdict-r3
# item 4). Turns past the cap are QUARANTINED into the @error graph —
# logged, counted in the bucket manifests, never silently dropped — so
# per-task memory is bounded by max_turns x turn size.
MAX_TURNS_PER_CONV = 100_000


def _conv_rows_to_triples(conv_id: str, turn_idxs: list, expanded: list,
                          errors: list,
                          max_turns: int | None = None) -> pa.Table:
    """One conversation's (sorted) rows -> canonical triples table."""
    if max_turns is None:
        max_turns = MAX_TURNS_PER_CONV
    over: list = []
    if len(turn_idxs) > max_turns:
        print(f"[kg] conversation {conv_id}: {len(turn_idxs)} turns exceed "
              f"the per-conversation cap {max_turns}; tail quarantined to "
              "@error")
        over = turn_idxs[max_turns:]
        turn_idxs = turn_idxs[:max_turns]
        expanded = expanded[:max_turns]
        errors = errors[:max_turns]
    nodes: list = []
    # conversation head node expanded against the cached context
    conv_node = build_conv_node(conv_id, turn_idxs)
    nodes.extend(expand_turn_doc(conv_node))
    quarantined: list = []
    for turn_idx, expanded_json, err in zip(turn_idxs, expanded, errors):
        if err:
            quarantined.append((int(turn_idx), err))
            continue
        nodes.extend(json.loads(expanded_json))
    for turn_idx in over:
        quarantined.append((
            int(turn_idx),
            f"loading document failed: turn-cap exceeded "
            f"(conversation has >{max_turns} turns)",
        ))
    cols = expanded_to_canonical_triples(conv_id, nodes, JsonLdOptions(""))
    # quarantined turns surface as rows in the reserved "@error" graph —
    # the side output travels with the data and is counted in manifests
    from ..stages.docs import turn_iri

    for turn_idx, err in quarantined:
        cols["conv_id"].append(conv_id)
        cols["graph"].append("@error")
        cols["subj"].append(turn_iri(conv_id, turn_idx))
        cols["pred"].append("https://rayld.dev/vocab#processingError")
        cols["obj_kind"].append("literal")
        cols["obj_value"].append(err)
        cols["obj_datatype"].append("http://www.w3.org/2001/XMLSchema#string")
        cols["obj_lang"].append("")
    return pa.Table.from_pydict(cols, schema=TRIPLES_SCHEMA)


def conv_partition_to_triples(part: pa.Table,
                              max_turns: int | None = None) -> pa.Table:
    """Process ONE hash partition holding MANY conversations inside the task
    (the bucketed variant of the conv_id shuffle — thousands of per-conv Ray
    groups would otherwise dominate wall time). ``part`` is expand_turns
    output. Grouping is one numpy lexsort + run-length slicing over plain
    lists: building a pandas sub-frame per conversation measured ~20% of the
    whole stage."""
    if not part.num_rows:
        return TRIPLES_SCHEMA.empty_table()
    conv = part["conv_id"].to_numpy()
    turn = part["turn_idx"].to_numpy()
    order = np.lexsort((turn, conv))
    conv_l = conv[order].tolist()
    turn_l = turn[order].tolist()
    expanded_l = part["expanded"].to_numpy()[order].tolist()
    err_l = part["error"].to_numpy()[order].tolist()
    tables = []
    n = len(conv_l)
    start = 0
    for i in range(1, n + 1):
        if i == n or conv_l[i] != conv_l[start]:
            tables.append(
                _conv_rows_to_triples(
                    conv_l[start], turn_l[start:i], expanded_l[start:i],
                    err_l[start:i], max_turns=max_turns,
                )
            )
            start = i
    return pa.concat_tables(tables)


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------

def build_triples(transcripts_ds, gazetteer=None,
                  max_turns: int | None = None):
    """transcripts Dataset -> triples Dataset (lazy; nothing materializes).

    The conv_id exchange is bucketed: rows get a ``part = hash(conv_id) % P``
    column and the groupby runs on ``part``, with the per-conversation work
    done inside the partition task. P = 2 x the session's CPUs
    (``cluster_partitions``): every core stays busy without paying Ray
    per-group overhead for millions of small conversations, and the same
    code sizes the exchange on a 1-CPU session and a 256-node cluster.

    Raw turn rows (text + linked entities) cross the exchange and the turn
    docs are built and expanded inside the partition task: expanded JSON-LD
    is ~2x the bytes of the raw row, and the bytes an exchange moves are its
    cost."""
    from ..stages.linker import linker_task_fn
    from .common import cluster_partitions

    num_partitions = cluster_partitions(minimum=1)
    if gazetteer is None:
        gazetteer = build_gazetteer()

    def add_part(batch: pa.Table) -> pa.Table:
        parts = crc32_buckets(batch["conv_id"].to_pylist(), num_partitions)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    def expand_and_convert(group: pa.Table) -> pa.Table:
        return conv_partition_to_triples(expand_turns(group), max_turns)

    # batch_size=None everywhere: the block structure (set at the source)
    # drives task granularity; re-bundling into big batches collapses
    # parallelism on small inputs
    ds = transcripts_ds.map_batches(
        linker_task_fn(gazetteer),
        batch_format="pyarrow",
        batch_size=None,
    ).map_batches(add_part, batch_format="pyarrow", batch_size=None)
    # consolidate the map-fed blocks to P before the range-partitioned sort:
    # feeding hundreds of small blocks straight into the sort measured ~1.8x
    # SLOWER than repartition+sort (A/B at 32 cpus: 143k vs 258k t/s), and
    # the repartition also guarantees enough blocks when upstream collapsed
    # to few
    return ds.repartition(num_partitions).groupby("part").map_groups(
        expand_and_convert, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Canonical N-Quads text sink (S1 at scale: render per batch, one global
# sort — the only unavoidable all-to-all — then stream to the file)
# ---------------------------------------------------------------------------

def render_nquad_lines(batch: pa.Table) -> pa.Table:
    """Triples rows -> N-Quads text lines (kernel to_nquad per row)."""
    from ..kernel.nquads import to_nquad
    from ..kernel.rdf import iri as _iri, literal as _lit, node_for_id

    import pyarrow.compute as pc

    # the reserved quarantine graph is NOT RDF: the kernel would serialize
    # it as the invalid relative IRI <@error>, breaking byte-parity with a
    # kernel run (which has no quarantine rows) and the shard's re-parse
    batch = batch.filter(pc.invert(pc.equal(batch["graph"], "@error")))
    d = batch.to_pydict()
    lines = []
    for i in range(batch.num_rows):
        kind = d["obj_kind"][i]
        if kind == "literal":
            obj = _lit(
                d["obj_value"][i],
                d["obj_datatype"][i] or None,
                d["obj_lang"][i] or None,
            )
        else:
            obj = node_for_id(d["obj_value"][i])
        quad = {
            "subject": node_for_id(d["subj"][i]),
            "predicate": _iri(d["pred"][i]),
            "object": obj,
        }
        graph = d["graph"][i]
        lines.append(to_nquad(quad, None if graph == "@default" else graph))
    return pa.table({"line": pa.array(lines, pa.string())})


def _sorted_nquad_lines(triples_ds):
    """Render + globally sort N-Quads lines.

    The sort key is the UTF-16-BE encoding of the line, NOT the raw string:
    the kernel's canonical to_nquads sorts by UTF-16 code units (C# ordinal
    order, nquads.py:148), and UTF-8/code-point order diverges from it for
    lines mixing astral-plane and U+E000..U+FFFF characters — the computed
    key makes the distributed export byte-identical to the kernel's canonical
    form in that edge case too."""

    def add_sort_key(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "k", utf16_sort_keys(batch["line"].to_pylist())
        )

    lines = triples_ds.map_batches(render_nquad_lines, batch_format="pyarrow")
    return lines.map_batches(add_sort_key, batch_format="pyarrow").sort("k")


def export_canonical_nquads_sharded(triples_ds, out_dir: str):
    """Distributed globally-sorted .nq text sink (the 100-TB path).

    After the range-partitioned sort, EVERY task writes its own sorted block
    as one shard file — the text never flows through the driver. The sort's
    range partitioning guarantees each block covers a disjoint, ordered key
    range, so concatenating the shards in manifest order (ascending
    (first_key, last_key); keys are the lines' UTF-16-BE sort keys, compared
    bytewise) reproduces the canonical single-file export byte for byte.
    Shard names are content-hashed, so task retries overwrite idempotently
    (write-to-tmp + atomic rename).

    Returns a manifest Dataset: (path, first_key, last_key, n_lines)."""
    import hashlib as _hashlib

    os.makedirs(out_dir, exist_ok=True)
    lines = _sorted_nquad_lines(triples_ds)

    def write_shard(batch: pa.Table) -> pa.Table:
        data = "".join(batch["line"].to_pylist()).encode("utf-8")
        name = _hashlib.sha1(data).hexdigest()[:16]
        path = os.path.join(out_dir, f"part-{name}.nq")
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        keys = batch["k"]
        return pa.table(
            {
                "path": pa.array([path], pa.string()),
                "first_key": pa.array([keys[0].as_py()], pa.binary()),
                "last_key": pa.array([keys[-1].as_py()], pa.binary()),
                "n_lines": pa.array([batch.num_rows], pa.int64()),
            }
        )

    # batch_size=None -> one write task per sorted block
    return lines.map_batches(
        write_shard, batch_format="pyarrow", batch_size=None
    )


def export_canonical_nquads(triples_ds, path: str) -> int:
    """Single-file canonical .nq export: the sharded sink plus a driver-side
    byte-level concatenation in manifest order (shutil.copyfileobj — no line
    iteration). Convenience wrapper for small outputs and tests; at scale use
    export_canonical_nquads_sharded and keep the shards. Returns the line
    count."""
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory(
        prefix="nq_shards_", dir=os.path.dirname(os.path.abspath(path)) or "."
    ) as shard_dir:
        manifest = export_canonical_nquads_sharded(
            triples_ds, shard_dir
        ).to_pandas()
        manifest = manifest.sort_values(
            ["first_key", "last_key"], kind="mergesort"
        )
        n = int(manifest["n_lines"].sum())
        with open(path, "wb") as out:
            for shard in manifest["path"]:
                with open(shard, "rb") as f:
                    shutil.copyfileobj(f, out)
    return n


# ---------------------------------------------------------------------------
# Materialize + checkpoint/resume (SURVEY.md §4 checkpoint row)
# ---------------------------------------------------------------------------

def _manifest_path(out_dir: str, bucket: int) -> str:
    return os.path.join(out_dir, f"bucket={bucket}", "_manifest.json")


def _read_manifest(out_dir: str, bucket: int) -> dict | None:
    """The bucket's manifest, or None when it is missing or unreadable (a
    crash or a partial copy of the output can leave a truncated file)."""
    try:
        with open(_manifest_path(out_dir, bucket)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _write_manifest(out_dir: str, bucket: int, manifest: dict) -> None:
    """Write tmp + os.replace: a reader sees the old state or the whole new
    manifest, never a partial one."""
    path = _manifest_path(out_dir, bucket)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, path)


def completed_buckets(out_dir: str, num_buckets: int) -> set:
    return {
        b for b in range(num_buckets)
        if _read_manifest(out_dir, b) is not None
    }


def run_kg_pipeline(transcripts_ds, out_dir: str, num_buckets: int = 16,
                    gazetteer=None, resume: bool = True,
                    max_turns: int | None = None) -> dict:
    """Run the full pipeline with bucketed output + per-bucket lineage
    manifests. A re-run skips buckets whose manifest already exists (pruned at
    the read by a vectorized hash filter), and re-writes partial buckets
    and buckets whose manifest is unreadable.

    Returns {"triples": total_rows_written, "buckets_skipped": n}.
    """
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    # bucket -> its manifest, for every bucket a previous run completed
    done = {
        b: m for b in range(num_buckets)
        if resume and (m := _read_manifest(out_dir, b)) is not None
    }
    done_ids = np.fromiter(done, dtype=np.int32)

    def add_bucket_and_filter(batch: pa.Table) -> pa.Table:
        buckets = crc32_buckets(batch["conv_id"].to_pylist(), num_buckets)
        batch = batch.append_column("bucket", pa.array(buckets, pa.int32()))
        if len(done_ids):
            mask = np.isin(buckets, done_ids, invert=True)
            batch = batch.filter(pa.array(mask))
        return batch

    filtered = transcripts_ds.map_batches(
        add_bucket_and_filter, batch_format="pyarrow"
    )
    # drop partial (manifest-less) bucket dirs from a previous crashed run
    import shutil

    for b in range(num_buckets):
        bdir = os.path.join(out_dir, f"bucket={b}")
        if b not in done and os.path.isdir(bdir):
            shutil.rmtree(bdir)

    triples = build_triples(
        filtered.drop_columns(["bucket"]), gazetteer=gazetteer,
        max_turns=max_turns,
    )

    def re_bucket(batch: pa.Table) -> pa.Table:
        buckets = crc32_buckets(batch["conv_id"].to_pylist(), num_buckets)
        return batch.append_column("bucket", pa.array(buckets, pa.int32()))

    triples = triples.map_batches(re_bucket, batch_format="pyarrow")
    triples.write_parquet(out_dir, partition_cols=["bucket"])

    # per-bucket lineage manifests (input shard ids, row counts, content hash)
    total = 0
    for b in range(num_buckets):
        bdir = os.path.join(out_dir, f"bucket={b}")
        if b in done:
            total += done[b]["rows"]
            continue
        rows = 0
        n_errors = 0
        conv_set: set = set()
        files = []
        content_hash = 0
        if os.path.isdir(bdir):
            for fn in sorted(os.listdir(bdir)):
                if not fn.endswith(".parquet"):
                    continue
                fp = os.path.join(bdir, fn)
                md = pq.ParquetFile(fp).metadata
                rows += md.num_rows
                # per-partition metrics: quarantined-turn count + distinct
                # conversations (one narrow column scan of the output; the
                # set union stays exact if a conversation ever spans files)
                t = pq.read_table(fp, columns=["graph", "conv_id"])
                n_errors += pc.sum(
                    pc.equal(t["graph"], "@error")
                ).as_py() or 0
                conv_set.update(pc.unique(t["conv_id"]).to_pylist())
                content_hash = zlib.crc32(
                    f"{fn}:{md.num_rows}".encode(), content_hash
                )
                files.append(fn)
        else:
            os.makedirs(bdir, exist_ok=True)
        _write_manifest(out_dir, b, {
            "bucket": b, "rows": rows, "files": files,
            "content_hash": content_hash, "num_buckets": num_buckets,
            "n_errors": n_errors, "n_conversations": len(conv_set),
        })
        total += rows
    return {"triples": total, "buckets_skipped": len(done)}


# ---------------------------------------------------------------------------
# Inverse pipeline: triples -> expanded JSON-LD documents (A6 at scale)
# ---------------------------------------------------------------------------

def _rows_to_rdf_dataset(group: pd.DataFrame):
    """Triples rows (one conversation) -> kernel RDFDataset (skips the
    @error quarantine graph)."""
    from ..kernel.rdf import RDFDataset, iri, literal, make_quad, node_for_id

    ds = RDFDataset()
    for graph, subj, pred, kind, value, datatype, lang in zip(
        group["graph"], group["subj"], group["pred"], group["obj_kind"],
        group["obj_value"], group["obj_datatype"], group["obj_lang"],
    ):
        if graph == "@error":
            continue
        if kind == "literal":
            obj = literal(value, datatype or None, lang or None)
        else:
            obj = node_for_id(value)
        ds.setdefault(graph, []).append(
            make_quad(node_for_id(subj), iri(pred), obj, graph)
        )
    return ds


def conv_partition_to_documents(part: pd.DataFrame) -> pa.Table:
    """One hash partition of the triples table -> one expanded JSON-LD
    document per conversation (kernel fromRDF per conv graph,
    JsonLdApi.cs:1974-2158)."""
    from ..kernel.api import JsonLdApi

    conv_ids, docs = [], []
    for conv_id, group in part.groupby("conv_id", sort=True):
        rdf = _rows_to_rdf_dataset(group)
        doc = JsonLdApi(opts=JsonLdOptions("")).from_rdf(rdf)
        conv_ids.append(conv_id)
        docs.append(json.dumps(doc, ensure_ascii=False))
    return pa.table(
        {
            "conv_id": pa.array(conv_ids, pa.string()),
            "document": pa.array(docs, pa.string()),
        }
    )


def triples_to_documents(triples_ds, num_partitions: int | None = None):
    """Inverse of build_triples: the triples table back to one expanded
    JSON-LD document per conversation — fromRDF distributed over the same
    conv_id hash bucketing as the forward path."""
    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    def add_part(batch: pa.Table) -> pa.Table:
        parts = crc32_buckets(batch["conv_id"].to_pylist(), num_partitions)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    ds = triples_ds.map_batches(add_part, batch_format="pyarrow", batch_size=None)
    ds = ds.repartition(num_partitions)
    return ds.groupby("part").map_groups(
        conv_partition_to_documents, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Distributed Turtle text sink (S7 at scale: each bucket task renders and
# writes its own .ttl shard; the driver only sees the manifest rows)
# ---------------------------------------------------------------------------

def export_turtle(triples_ds, out_dir: str, num_buckets: int = 16):
    """Triples Dataset -> bucketed .ttl shards + a manifest Dataset.

    Every hash(conv_id) bucket renders its conversations' default-graph
    triples with the kernel Turtle writer and writes ONE shard file from
    inside the task — the text never flows through the driver, and the
    bucketed layout makes re-runs resumable the same way as the Parquet sink
    (skip buckets whose shard exists). Returns a Dataset of
    (bucket, path, n_statements) manifest rows."""

    os.makedirs(out_dir, exist_ok=True)

    def add_bucket(batch: pa.Table) -> pa.Table:
        parts = crc32_buckets(batch["conv_id"].to_pylist(), num_buckets)
        return batch.append_column("bucket", pa.array(parts, pa.int32()))

    def render_and_write(part: pd.DataFrame) -> pa.Table:
        from ..kernel.turtle import to_turtle

        bucket = int(part["bucket"].iloc[0])
        texts = []
        n_statements = 0
        for conv_id, group in part.groupby("conv_id", sort=True):
            rdf = _rows_to_rdf_dataset(group)
            ttl = to_turtle(rdf)
            n_statements += sum(
                len(v) for k, v in rdf.items() if isinstance(v, list)
            )
            # no comment headers: the reference-parity Turtle reader accepts
            # only directives/statements
            texts.append(ttl)
        path = os.path.join(out_dir, f"part-{bucket:05d}.ttl")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(texts))
        return pa.table(
            {
                "bucket": pa.array([bucket], pa.int32()),
                "path": pa.array([path], pa.string()),
                "n_statements": pa.array([n_statements], pa.int64()),
            }
        )

    return triples_ds.map_batches(
        add_bucket, batch_format="pyarrow"
    ).groupby("bucket").map_groups(render_and_write, batch_format="pandas")


_QUAD_COLS = (
    "conv_id", "graph", "subj", "pred", "obj_kind", "obj_value",
    "obj_datatype", "obj_lang",
)


def kg_parity_check(n_conversations: int = 50):
    """Flagship parity gate: the DISTRIBUTED triples pipeline must equal the
    single-process kernel run on the same conversations — P/R = 1.0 on
    canonicalized quads (the test_kg_pipeline oracle, surfaced as a driver
    correctness row against a constant-1 SQL oracle).

    This is a bounded SPOT-CHECK harness, not a data path: the kernel oracle
    is inherently single-process (that is the point of the comparison), so
    n_conversations stays capped — the flagship itself runs only the
    distributed path. The distributed side streams through iter_batches; the
    quad sets held on the driver are O(n_conversations), not corpus-sized."""
    from ..sources.transcripts import transcripts_dataset, transcripts_table
    from ..stages.docs import conversation_expanded, expanded_to_canonical_triples
    from ..stages.linker import MentionLinker
    from ..state.gazetteer import build_gazetteer

    tbl = transcripts_table(n_conversations)
    linker = MentionLinker(gazetteer=build_gazetteer())
    convs: dict = {}
    for r in tbl.to_pylist():
        convs.setdefault(r["conv_id"], []).append(r)
    oracle = set()
    for conv_id, turns in convs.items():
        turns.sort(key=lambda r: r["turn_idx"])
        tdicts = [
            dict(
                turn_idx=r["turn_idx"], role=r["role"], text=r["text"],
                tool=r["tool"],
                # naive datetimes from Arrow are UTC wall-clock: pin the
                # tzinfo before .timestamp(), which would otherwise apply
                # the MACHINE timezone and shift every literal
                ts_us=int(
                    r["ts"].replace(tzinfo=_tz.utc).timestamp() * 1e6
                ) if hasattr(r["ts"], "timestamp") else r["ts"],
                entity_iris=linker.link_text(r["text"]),
            )
            for r in turns
        ]
        expanded = conversation_expanded(conv_id, tdicts, JsonLdOptions(""))
        cols = expanded_to_canonical_triples(conv_id, expanded)
        for i in range(len(cols["subj"])):
            oracle.add(tuple(cols[k][i] for k in _QUAD_COLS))

    out = build_triples(transcripts_dataset(n_conversations))
    got = set()
    for batch in out.iter_batches(batch_size=10_000, batch_format="pyarrow"):
        d = batch.to_pydict()
        for i in range(batch.num_rows):
            got.add(tuple(d[k][i] for k in _QUAD_COLS))

    missing = len(oracle - got)
    extra = len(got - oracle)
    ok = 1 if (missing == 0 and extra == 0 and len(got) > 0) else 0
    return pd.DataFrame(
        {
            "missing": pd.Series([missing], dtype="int64"),
            "extra": pd.Series([extra], dtype="int64"),
            "parity_ok": pd.Series([ok], dtype="int64"),
        }
    )


def export_jsonld(docs_ds, out_dir: str, num_buckets: int = 16):
    """(conv_id, document) Dataset -> bucketed NDJSON .jsonl shards + a
    manifest Dataset (bucket, path, n_documents).

    The export_turtle contract on the document path: every hash(conv_id)
    bucket task writes ONE shard from inside the task (document text never
    flows through the driver), shard content is deterministic (sorted by
    conv_id), and the bucketed layout makes re-runs resumable. Shards read
    back with sources.rdf_files.read_jsonld_lines, which line-scopes blank
    nodes so documents never share anonymous nodes."""
    os.makedirs(out_dir, exist_ok=True)

    def add_bucket(batch: pa.Table) -> pa.Table:
        parts = crc32_buckets(batch["conv_id"].to_pylist(), num_buckets)
        return batch.append_column("bucket", pa.array(parts, pa.int32()))

    def write_shard(part: pd.DataFrame) -> pa.Table:
        sch = pa.schema([
            ("bucket", pa.int32()), ("path", pa.string()),
            ("n_documents", pa.int64()),
        ])
        if len(part) == 0:
            return sch.empty_table()
        bucket = int(part["bucket"].iloc[0])
        part = part.sort_values("conv_id", kind="mergesort")
        path = os.path.join(out_dir, f"part-{bucket:05d}.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for doc in part["document"]:
                f.write(doc)
                f.write("\n")
        return pa.table({
            "bucket": pa.array([bucket], pa.int32()),
            "path": pa.array([path], pa.string()),
            "n_documents": pa.array([len(part)], pa.int64()),
        }, schema=sch)

    return docs_ds.map_batches(
        add_bucket, batch_format="pyarrow"
    ).groupby("bucket").map_groups(write_shard, batch_format="pandas")


def jsonld_sink_roundtrip_check(n_conversations: int = 40) -> "pd.DataFrame":
    """Gate: export_jsonld -> read_jsonld_lines reproduces the KG triples
    (ground triples as an exact set, bnode-touching triples by count — the
    labels are line-scoped on the way back in). Bounded spot-check like
    kg_parity_check; shards go to a pid-scoped tmp dir (never a shared
    mutable path — the jsonld_ops symlink lesson) and are removed after."""
    import shutil
    import tempfile

    from ..sources.rdf_files import read_jsonld_lines
    from ..sources.transcripts import transcripts_dataset

    out_dir = tempfile.mkdtemp(prefix=f"rayld_jsonld_rt_{os.getpid()}_")
    try:
        triples = build_triples(
            transcripts_dataset(n_conversations)
        ).materialize()
        manifest = export_jsonld(
            triples_to_documents(triples), out_dir, num_buckets=4
        ).to_pandas()
        back = read_jsonld_lines(
            sorted(manifest["path"].tolist())
        ).to_pandas()
        orig = triples.to_pandas()
        orig = orig[orig["graph"] != "@error"]
        back = back[back["graph"] != "@error"]

        def is_bnode_row(df):
            return (
                df["subj"].str.startswith("_:")
                | df["graph"].str.startswith("_:")
                | ((df["obj_kind"] != "literal")
                   & df["obj_value"].str.startswith("_:"))
            )

        cols = ["graph", "subj", "pred", "obj_kind", "obj_value",
                "obj_datatype", "obj_lang"]
        g_orig = orig[~is_bnode_row(orig)]
        g_back = back[~is_bnode_row(back)]
        ground_ok = (
            set(map(tuple, g_orig[cols].itertuples(index=False)))
            == set(map(tuple, g_back[cols].itertuples(index=False)))
        )
        return pd.DataFrame({
            "ground_parity_ok": [int(ground_ok)],
            "counts_match": [int(len(back) == len(orig))],
            "bnode_counts_match": [
                int(is_bnode_row(back).sum() == is_bnode_row(orig).sum())
            ],
        })
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
