"""End-to-end KG pipeline tests: Ray Data pipeline vs single-process kernel
oracle, determinism, and checkpoint/resume."""

from __future__ import annotations

import json
import shutil

import pytest

from rayld.kernel import JsonLdOptions
from rayld.sources.transcripts import transcripts_table, transcripts_dataset
from rayld.stages.docs import conversation_expanded, expanded_to_canonical_triples
from rayld.stages.linker import MentionLinker
from rayld.state.gazetteer import build_gazetteer

N_CONV = 30


def _oracle_triples(n_conversations: int = N_CONV) -> set:
    """Single-process kernel run over the same synthetic conversations."""
    tbl = transcripts_table(n_conversations)
    linker = MentionLinker(gazetteer=build_gazetteer())
    convs: dict = {}
    for r in tbl.to_pylist():
        convs.setdefault(r["conv_id"], []).append(r)
    triples = set()
    for conv_id, turns in convs.items():
        turns.sort(key=lambda r: r["turn_idx"])
        tdicts = [
            dict(
                turn_idx=r["turn_idx"], role=r["role"], text=r["text"],
                tool=r["tool"],
                ts_us=int(r["ts"].timestamp() * 1e6)
                if hasattr(r["ts"], "timestamp") else r["ts"],
                entity_iris=linker.link_text(r["text"]),
            )
            for r in turns
        ]
        expanded = conversation_expanded(conv_id, tdicts, JsonLdOptions(""))
        cols = expanded_to_canonical_triples(conv_id, expanded)
        for i in range(len(cols["subj"])):
            triples.add(tuple(cols[k][i] for k in (
                "conv_id", "graph", "subj", "pred", "obj_kind", "obj_value",
                "obj_datatype", "obj_lang")))
    return triples


def _pipeline_triples(ray_session) -> set:
    from rayld.pipelines.kg import build_triples

    ds = transcripts_dataset(N_CONV)
    out = build_triples(ds)
    triples = set()
    for batch in out.iter_batches(batch_size=10_000, batch_format="pyarrow"):
        d = batch.to_pydict()
        for i in range(batch.num_rows):
            triples.add(tuple(d[k][i] for k in (
                "conv_id", "graph", "subj", "pred", "obj_kind", "obj_value",
                "obj_datatype", "obj_lang")))
    return triples


def test_per_turn_text_equality_invariant():
    """Per-row invariant (BASELINE.json input_hint): the pipeline's per-turn
    expansion equals the kernel's expansion of the same turn under stable
    ordering."""
    from rayld.pipelines.kg import expand_turns
    import pyarrow as pa

    tbl = transcripts_table(5)
    linker = MentionLinker(gazetteer=build_gazetteer())
    linked = linker(tbl)
    out = expand_turns(linked)
    assert out.num_rows == tbl.num_rows
    from rayld.stages.docs import build_turn_doc, expand_turn_doc

    d = linked.to_pylist()
    o = out.to_pylist()
    for row, orow in zip(d, o):
        ents = json.loads(row["entities"])
        ts_us = (
            int(row["ts"].timestamp() * 1e6)
            if hasattr(row["ts"], "timestamp") else row["ts"]
        )
        doc = build_turn_doc(
            row["conv_id"], row["turn_idx"], row["role"], row["text"],
            row["tool"], ts_us, ents,
        )
        assert json.loads(orow["expanded"]) == expand_turn_doc(doc)


def test_linker_memo_keyed_on_gazetteer_content(ray_session):
    """Every build_triples call puts a fresh gazetteer ref; the per-process
    linker memo keys on the gazetteer's content, so repeated jobs reuse one
    linker instead of adding one per job."""
    from rayld.stages import linker as lk

    tbl = transcripts_table(3)
    lk._LINKER_MEMO.clear()
    outs = [lk.linker_task_fn(build_gazetteer())(tbl) for _ in range(3)]
    assert len(lk._LINKER_MEMO) == 1
    assert outs[0].equals(outs[2])
    assert outs[0]["entities"].to_pylist() == [
        json.dumps(MentionLinker(gazetteer=build_gazetteer()).link_text(t))
        for t in tbl["text"].to_pylist()
    ]


def test_pipeline_matches_kernel_oracle(ray_session):
    """Distributed triples == single-process reference-kernel triples
    (P/R = 1.0 on canonicalized quads)."""
    oracle = _oracle_triples()
    got = _pipeline_triples(ray_session)
    missing = oracle - got
    extra = got - oracle
    assert not missing and not extra, (
        f"P/R mismatch: {len(missing)} missing, {len(extra)} extra; "
        f"sample missing={list(missing)[:3]} extra={list(extra)[:3]}"
    )
    assert len(got) > 100


def test_pipeline_resume(ray_session, tmp_path):
    from rayld.pipelines.kg import run_kg_pipeline, completed_buckets

    out_dir = str(tmp_path / "triples")
    ds = transcripts_dataset(N_CONV)
    stats = run_kg_pipeline(ds, out_dir, num_buckets=4)
    assert stats["buckets_skipped"] == 0
    assert stats["triples"] > 0
    first_total = stats["triples"]
    assert completed_buckets(out_dir, 4) == {0, 1, 2, 3}
    # simulate a crashed bucket: drop its manifest + files
    shutil.rmtree(str(tmp_path / "triples" / "bucket=2"))
    ds2 = transcripts_dataset(N_CONV)
    stats2 = run_kg_pipeline(ds2, out_dir, num_buckets=4)
    assert stats2["buckets_skipped"] == 3
    assert stats2["triples"] == first_total


def test_truncated_manifest_bucket_redone(ray_session, tmp_path):
    """A manifest cut to 0 bytes by a crash marks its bucket as not done:
    the resume redoes that bucket instead of failing in json.load, and the
    totals and manifests equal the uninterrupted write."""
    from rayld.pipelines.kg import completed_buckets, run_kg_pipeline

    out_dir = tmp_path / "triples"
    full = run_kg_pipeline(transcripts_dataset(N_CONV), str(out_dir),
                           num_buckets=4)
    manifest = out_dir / "bucket=1" / "_manifest.json"
    want = json.loads(manifest.read_text())
    manifest.write_bytes(b"")
    assert completed_buckets(str(out_dir), 4) == {0, 2, 3}
    again = run_kg_pipeline(transcripts_dataset(N_CONV), str(out_dir),
                            num_buckets=4)
    assert again == {"triples": full["triples"], "buckets_skipped": 3}
    got = json.loads(manifest.read_text())
    assert {k: got[k] for k in ("rows", "n_errors", "n_conversations")} == {
        k: want[k] for k in ("rows", "n_errors", "n_conversations")
    }
    assert not list(out_dir.rglob("*.tmp.*"))


def test_canonical_nquads_export(ray_session, tmp_path):
    """The distributed sorted .nq export equals the kernel's to_nquads over
    the same triples (global sort contract, RDFDatasetUtils.cs:217-242)."""
    from rayld.pipelines.kg import build_triples, export_canonical_nquads
    from rayld.sources.transcripts import transcripts_dataset

    ds = build_triples(transcripts_dataset(10))
    out = str(tmp_path / "out.nq")
    n = export_canonical_nquads(ds, out)
    text = open(out).read()
    assert n == text.count("\n") and n > 100
    lines = text.splitlines(keepends=True)
    assert lines == sorted(lines, key=lambda s: s.encode("utf-16-be", "surrogatepass"))
    # every line reparses
    from rayld.kernel import parse_nquads

    parsed = parse_nquads(text)
    assert sum(len(v) for v in parsed.values() if isinstance(v, list)) > 0


def test_sharded_nquads_matches_single_file(ray_session, tmp_path):
    """The distributed shard sink: manifest key ranges are disjoint and
    ordered, and concatenating shards in manifest order is byte-identical to
    the single-file canonical export."""
    from rayld.pipelines.kg import (
        build_triples,
        export_canonical_nquads,
        export_canonical_nquads_sharded,
    )
    from rayld.sources.transcripts import transcripts_dataset

    ds = build_triples(
        transcripts_dataset(40, conversations_per_block=4)
    )
    single = str(tmp_path / "single.nq")
    n = export_canonical_nquads(ds, single)

    shard_dir = str(tmp_path / "shards")
    m = export_canonical_nquads_sharded(ds, shard_dir).to_pandas()
    m = m.sort_values(["first_key", "last_key"], kind="mergesort")
    assert len(m) > 1  # the sink actually sharded
    fk, lk = list(m["first_key"]), list(m["last_key"])
    assert all(lk[i] <= fk[i + 1] for i in range(len(m) - 1))
    concat = b"".join(open(p, "rb").read() for p in m["path"])
    assert concat == open(single, "rb").read()
    assert int(m["n_lines"].sum()) == n


_ONE_CPU_SCRIPT = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray._private.state import actors
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from rayld.pipelines.kg import build_triples
from rayld.sources.transcripts import transcripts_dataset
out = build_triples(transcripts_dataset(int(sys.argv[1])))
rows = []
for b in out.iter_batches(batch_size=None, batch_format="pyarrow"):
    rows.extend(map(list, zip(*b.to_pydict().values())))
names = sorted({a["ActorClassName"] for a in actors().values()})
print(json.dumps({"rows": rows, "actors": names}))
ray.shutdown()
"""


def test_one_cpu_session_matches_oracle():
    """A 1-CPU Ray session runs the flagship end to end and equals the
    kernel oracle. The linker is a task map, so no map-worker actor is
    started: the old autoscaling linker pool needed >= 2 actors and stalled
    every 1-2 CPU job, and this pins that it is gone rather than avoided by
    a bigger session."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    n = 20
    root = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_SCRIPT, str(n)], env=env, cwd=root,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not [a for a in res["actors"] if "MapWorker" in a], res["actors"]
    got = {tuple(r) for r in res["rows"]}
    assert len(got) == len(res["rows"]) > 100
    assert got == _oracle_triples(n)


def test_pipeline_from_parquet_input(ray_session, tmp_path):
    """The contract input path: transcripts written to Parquet, read back
    with read_transcripts, produce identical triples to the generated
    Dataset path."""
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import (
        read_transcripts,
        transcripts_dataset,
        write_transcripts_parquet,
    )

    pdir = str(tmp_path / "transcripts")
    write_transcripts_parquet(pdir, 20)
    via_parquet = build_triples(read_transcripts(pdir))
    via_gen = build_triples(transcripts_dataset(20))

    def key_set(ds):
        out = set()
        for b in ds.iter_batches(batch_size=10_000, batch_format="pyarrow"):
            d = b.to_pydict()
            for i in range(b.num_rows):
                out.add(tuple(d[k][i] for k in b.column_names))
        return out

    assert key_set(via_parquet) == key_set(via_gen)


def test_error_quarantine(ray_session, tmp_path):
    """A turn whose payload fails JSON-LD processing is quarantined into the
    @error graph (with the typed error string) instead of failing the job;
    manifests carry the error count (SURVEY.md §2.8 error model)."""
    import json as _json

    import pyarrow as pa
    import ray.data as rd
    from rayld.pipelines.kg import build_triples, run_kg_pipeline

    poison = _json.dumps({"@context": {"@vocab": "not-absolute"}, "@id": "http://x/1"})
    good = _json.dumps({"@context": {"p": "http://ex/p"}, "@id": "http://x/2", "p": "v"})
    tbl = pa.table(
        {
            "conv_id": pa.array(["conv-x"] * 3, pa.string()),
            "turn_idx": pa.array([0, 1, 2], pa.int32()),
            "role": pa.array(["user", "tool", "tool"], pa.string()),
            "text": pa.array(["hello there", "t", "t2"], pa.string()),
            "tool": pa.array(["", poison, good], pa.string()),
            "ts": pa.array([1, 2, 3], pa.timestamp("us")),
        }
    )
    out = build_triples(rd.from_arrow(tbl)).to_pandas()
    errs = out[out["graph"] == "@error"]
    assert len(errs) == 1
    assert errs.iloc[0]["subj"].endswith("/turn/1")
    assert errs.iloc[0]["obj_value"].startswith("invalid vocab mapping")
    # the good turns still produced triples
    assert (out["graph"] != "@error").sum() > 5
    # manifests carry the error count
    odir = str(tmp_path / "q")
    run_kg_pipeline(rd.from_arrow(tbl), odir, num_buckets=2)
    total_errors = 0
    for b in range(2):
        m = _json.load(open(f"{odir}/bucket={b}/_manifest.json"))
        total_errors += m["n_errors"]
        assert "n_conversations" in m
    assert total_errors == 1


def test_long_conversation_turn_cap(ray_session, tmp_path):
    """A pathological conversation longer than ``max_turns`` has its tail
    QUARANTINED into the @error graph (one row per capped turn, typed
    turn-cap error), the head keeps exactly the capped turns, manifests
    count the quarantine, and the capped prefix's triples are identical to
    a run over just that prefix (verdict-r3 item 4: a million-turn real
    conversation must not OOM one task)."""
    import json as _json

    import pyarrow as pa
    import ray.data as rd
    from rayld.pipelines.kg import build_triples, run_kg_pipeline

    n, cap = 30, 10

    def conv_table(n_turns):
        return pa.table({
            "conv_id": pa.array(["conv-long"] * n_turns, pa.string()),
            "turn_idx": pa.array(range(n_turns), pa.int32()),
            "role": pa.array(
                ["user" if i % 2 == 0 else "assistant"
                 for i in range(n_turns)], pa.string()),
            "text": pa.array(
                [f"turn {i} about Paris" for i in range(n_turns)],
                pa.string()),
            "tool": pa.array([""] * n_turns, pa.string()),
            "ts": pa.array(range(1, n_turns + 1), pa.timestamp("us")),
        })

    out = build_triples(
        rd.from_arrow(conv_table(n)), max_turns=cap
    ).to_pandas()
    errs = out[out["graph"] == "@error"].sort_values("subj")
    assert len(errs) == n - cap
    assert all("turn-cap exceeded" in v for v in errs["obj_value"])
    capped_subjs = {s.rsplit("/turn/", 1)[1] for s in errs["subj"]}
    assert capped_subjs == {str(i) for i in range(cap, n)}

    # capped prefix triples == an uncapped run over just the prefix
    want = build_triples(
        rd.from_arrow(conv_table(cap))
    ).to_pandas()
    cols = list(want.columns)
    got_core = (out[out["graph"] != "@error"][cols]
                .sort_values(cols).reset_index(drop=True))
    want_core = want.sort_values(cols).reset_index(drop=True)
    assert got_core.equals(want_core)

    # manifests count the quarantined turns
    odir = str(tmp_path / "cap")
    run_kg_pipeline(rd.from_arrow(conv_table(n)), odir, num_buckets=2,
                    max_turns=cap)
    total_errors = sum(
        _json.load(open(f"{odir}/bucket={b}/_manifest.json"))["n_errors"]
        for b in range(2)
    )
    assert total_errors == n - cap


def test_unicode_content_end_to_end(ray_session, tmp_path):
    """CJK / emoji / astral-plane text survives the full pipeline: triples,
    canonical export, reparse (escape + UTF-16 ordinal sort paths)."""
    import pyarrow as pa
    import ray.data as rd
    from rayld.pipelines.kg import build_triples, export_canonical_nquads
    from rayld.kernel import parse_nquads

    texts = ["你好世界 Ada Lovelace 测试", "emoji \U0001F600\U0001F680 end",
             "quote \" backslash \\ tab\tdone", "ɐ ￿ boundary ɏ"]
    tbl = pa.table(
        {
            "conv_id": pa.array(["conv-u"] * 4, pa.string()),
            "turn_idx": pa.array([0, 1, 2, 3], pa.int32()),
            "role": pa.array(["user", "assistant", "user", "assistant"], pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array([""] * 4, pa.string()),
            "ts": pa.array([1, 2, 3, 4], pa.timestamp("us")),
        }
    )
    out = build_triples(rd.from_arrow(tbl))
    df = out.to_pandas()
    text_triples = df[df["pred"] == "http://schema.org/text"]
    assert sorted(text_triples["obj_value"]) == sorted(texts)
    # sorted .nq export round-trips every value
    ds2 = build_triples(rd.from_arrow(tbl))
    path = str(tmp_path / "u.nq")
    export_canonical_nquads(ds2, path)
    parsed = parse_nquads(open(path, encoding="utf-8").read())
    values = {
        q["object"]["value"]
        for quads in parsed.values()
        if isinstance(quads, list)
        for q in quads
        if q["object"]["type"] == "literal"
    }
    for t in texts:
        assert t in values


def test_inverse_pipeline_roundtrip(ray_session):
    """triples -> documents (distributed fromRDF) -> toRDF + c14n per conv
    reproduces the pipeline's canonical triples exactly."""
    import json as _json

    from rayld.kernel import JsonLdOptions
    from rayld.kernel.api import JsonLdApi
    from rayld.kernel.nquads import to_nquads
    from rayld.pipelines.kg import build_triples, triples_to_documents

    triples = build_triples(transcripts_dataset(12))
    rows = triples.to_pandas()
    docs = triples_to_documents(
        build_triples(transcripts_dataset(12))
    ).to_pandas()
    assert set(docs["conv_id"]) == set(rows["conv_id"])
    for conv_id, doc_json in zip(docs["conv_id"], docs["document"]):
        doc = _json.loads(doc_json)
        api = JsonLdApi(doc, JsonLdOptions(""))
        c = to_nquads(api.normalize(api.to_rdf()))
        # canonical quads from the forward pipeline for this conv
        sub = rows[rows["conv_id"] == conv_id]
        from rayld.pipelines.kg import _rows_to_rdf_dataset

        want = to_nquads(
            JsonLdApi(opts=JsonLdOptions("")).normalize(_rows_to_rdf_dataset(sub))
        )
        assert c == want, conv_id


def test_export_turtle_distributed(ray_session, tmp_path):
    """The bucketed Turtle sink writes shards from inside tasks; reparsing
    every shard with the kernel reader recovers the default-graph statement
    count reported by the manifest rows."""
    from rayld.kernel.turtle import parse_turtle
    from rayld.pipelines.kg import build_triples, export_turtle
    from rayld.sources.transcripts import transcripts_dataset

    out = tmp_path / "ttl"
    manifest = export_turtle(
        build_triples(transcripts_dataset(30)),
        str(out), num_buckets=4,
    ).to_pandas()
    assert len(manifest) >= 1
    assert manifest["n_statements"].sum() > 0
    total_reparsed = 0
    for p in manifest["path"]:
        text = open(p, encoding="utf-8").read()
        ds = parse_turtle(text)
        total_reparsed += sum(
            len(v) for k, v in ds.items() if isinstance(v, list)
        )
    assert total_reparsed == manifest["n_statements"].sum()


def test_parity_ts_conversion_tz_independent():
    """The parity oracle's naive-datetime -> epoch-us conversion must match
    the Arrow int64 cast REGARDLESS of the machine timezone (a bare
    .timestamp() applies the local zone and shifted every literal)."""
    import os
    import subprocess
    import sys

    code = (
        "import pyarrow as pa\n"
        "from datetime import timezone\n"
        "from datetime import datetime\n"
        "t = pa.array([datetime(2026, 1, 1, 5)], pa.timestamp('us'))\n"
        "want = t.cast(pa.int64())[0].as_py()\n"
        "naive = t.to_pylist()[0]\n"
        "got = int(naive.replace(tzinfo=timezone.utc).timestamp() * 1e6)\n"
        "assert got == want, (got, want)\n"
        "print('ok')\n"
    )
    env = dict(os.environ, TZ="America/New_York")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0 and "ok" in out.stdout, out.stderr


def test_skewed_corpus_hub_quarantine(ray_session, tmp_path):
    """The skew-rehearsal corpus (verdict-r4 item 4, small scale): planted
    hub conversations engage the turn-cap quarantine end-to-end — the hub
    tail lands in the @error graph, the per-bucket lineage manifests count
    exactly those turns, and non-hub conversations are byte-identical to
    the uniform corpus."""
    import json as _json

    from rayld.pipelines.kg import run_kg_pipeline
    from rayld.sources.transcripts import transcripts_dataset

    uniform = transcripts_dataset(40).to_pandas()
    skewed = transcripts_dataset(40, hub_every=20, hub_turns=300).to_pandas()
    # hubs at conv 0 and 20: 300 turns each; everything else identical
    hub_ids = {"conv-00000000", "conv-00000020"}
    assert (
        skewed[skewed.conv_id.isin(hub_ids)].groupby("conv_id").size() == 300
    ).all()
    rest_u = uniform[~uniform.conv_id.isin(hub_ids)].reset_index(drop=True)
    rest_s = skewed[~skewed.conv_id.isin(hub_ids)].reset_index(drop=True)
    assert rest_u.equals(rest_s)

    import ray.data as rd

    odir = str(tmp_path / "skew")
    cap = 100
    run_kg_pipeline(rd.from_pandas(skewed), odir, num_buckets=2,
                    max_turns=cap)
    n_err = 0
    for b in range(2):
        with open(f"{odir}/bucket={b}/_manifest.json") as f:
            n_err += _json.load(f)["n_errors"]
    # expected from the corpus itself: every conversation's tail past the
    # cap (the two hubs, plus any natural zipf draw that exceeds it)
    sizes = skewed.groupby("conv_id").size()
    assert n_err == int((sizes - cap).clip(lower=0).sum())
    assert n_err >= 2 * (300 - cap)  # both hubs engaged
