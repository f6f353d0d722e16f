"""The three benchmark workloads. Each one builds its inputs from the seed,
builds a reference answer, and exposes ``job(i)``: one timed call into the
library the way a user makes it, returning ``(seconds, output)``.
``check(output)`` raises ``WrongOutput`` unless the output equals the
reference.

Ray work is only ever done by library functions: nothing defined here is
shipped to a Ray worker, so the workers need ``rayld`` on PYTHONPATH and
nothing else.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from probes import digest, row_hashes

ROOT = Path(__file__).resolve().parents[1]

QUAD_COLS = ("conv_id", "graph", "subj", "pred", "obj_kind", "obj_value",
             "obj_datatype", "obj_lang")
TURN_COLS = ("conv_id", "turn_idx", "role", "text", "tool", "ts")
INPUT_REPEATS = 3          # set-up writes the input this often; median kept


class WrongOutput(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def _median_write(write, out_root: Path) -> tuple[float, Path]:
    """Write the inputs INPUT_REPEATS times into fresh directories; return
    the median seconds and the last directory (the one the jobs read)."""
    times = []
    for r in range(INPUT_REPEATS):
        path = out_root / f"input-{r}"
        t0 = time.perf_counter()
        write(str(path))
        times.append(time.perf_counter() - t0)
        if r < INPUT_REPEATS - 1:
            shutil.rmtree(path)
    return statistics.median(times), path


# ---------------------------------------------------------------------------
# kg_build / kg_sink_resume: transcripts Parquet -> canonical triples
# ---------------------------------------------------------------------------

# The corpus is the shortest prefix of the seeded generator's conversations
# that reaches TARGET_TURNS turns, so every seed gives the same amount of
# work (zipf conversation lengths make a fixed conversation count vary by
# ~10% in turns between seeds).
TARGET_TURNS = 30_000
MAX_CONVERSATIONS = 4_000


def kernel_oracle(corpus: pa.Table) -> pa.Table:
    """Single-process kernel run over the corpus, built the way
    ``kg_parity_check`` builds its oracle: link each turn, expand each
    conversation as one document, node map + toRDF + c14n."""
    from rayld.kernel import JsonLdOptions
    from rayld.pipelines.kg import TRIPLES_SCHEMA
    from rayld.stages.docs import (conversation_expanded,
                                   expanded_to_canonical_triples)
    from rayld.stages.linker import MentionLinker
    from rayld.state.gazetteer import build_gazetteer

    linker = MentionLinker(gazetteer=build_gazetteer())
    rows = corpus.append_column(
        "ts_us", corpus["ts"].cast(pa.int64())).to_pylist()
    convs: dict = {}
    for r in rows:
        convs.setdefault(r["conv_id"], []).append(r)
    tables = []
    for conv_id, turns in convs.items():
        turns.sort(key=lambda r: r["turn_idx"])
        tdicts = [dict(turn_idx=r["turn_idx"], role=r["role"], text=r["text"],
                       tool=r["tool"], ts_us=r["ts_us"],
                       entity_iris=linker.link_text(r["text"]))
                  for r in turns]
        expanded = conversation_expanded(conv_id, tdicts, JsonLdOptions(""))
        cols = expanded_to_canonical_triples(conv_id, expanded)
        tables.append(pa.Table.from_pydict(cols, schema=TRIPLES_SCHEMA))
    return pa.concat_tables(tables)


class KgCorpus:
    """Seeded transcripts corpus on Parquet shards plus its kernel oracle."""

    def __init__(self, seed: int, work: Path, phases: dict):
        from rayld.sources.transcripts import (CORPUS_REV, transcripts_table,
                                               write_transcripts_parquet)

        t0 = time.perf_counter()
        full = transcripts_table(MAX_CONVERSATIONS, seed)
        turns_per_conv = np.bincount(
            np.unique(full["conv_id"].to_numpy(zero_copy_only=False),
                      return_inverse=True)[1])
        self.n_conversations = min(
            int(np.searchsorted(np.cumsum(turns_per_conv), TARGET_TURNS)) + 1,
            MAX_CONVERSATIONS)
        self.table = full.slice(0, int(turns_per_conv[:self.n_conversations]
                                       .sum()))
        self.n_turns = self.table.num_rows
        self.corpus_hash = digest(row_hashes(self.table, TURN_COLS))
        self.oracle = kernel_oracle(self.table)
        self.oracle_digest = digest(row_hashes(self.oracle, QUAD_COLS))
        phases["generate_s"] = time.perf_counter() - t0

        phases["inputs_s"], path = _median_write(
            lambda p: write_transcripts_parquet(p, self.n_conversations, seed),
            work)
        self.path = str(path)
        written = pq.read_table(self.path, columns=list(TURN_COLS))
        _expect(digest(row_hashes(written, TURN_COLS)) == self.corpus_hash,
                "Parquet corpus differs from the generated table")
        self.info = {"corpus_rev": CORPUS_REV, "generator_seed": seed,
                     "corpus_hash": f"{self.corpus_hash[1]:016x}",
                     "conversations": self.n_conversations,
                     "turns": self.n_turns,
                     "oracle_triples": self.oracle.num_rows}


class KgBuild:
    """``build_triples(read_transcripts(dir))`` consumed to the last row,
    with library defaults."""

    def __init__(self, seed: int, work: Path, tracer, phases: dict):
        self.tracer = tracer
        self.corpus = KgCorpus(seed, work, phases)
        self.info = self.corpus.info
        self.last_ds = None

    def job(self, i: int):
        from rayld.pipelines.kg import build_triples
        from rayld.sources.transcripts import read_transcripts

        tr = self.tracer
        with tr.span("job", workload="kg_build", index=i):
            t0 = time.perf_counter()
            with tr.span("sources.read_transcripts"):
                src = read_transcripts(self.corpus.path)
            with tr.span("kg.build_triples"):
                ds = build_triples(src)
            with tr.span("execute"):
                batches = list(ds.iter_batches(batch_format="pyarrow",
                                               batch_size=None))
            elapsed = time.perf_counter() - t0
        self.last_ds = ds
        return elapsed, batches

    def warm_up(self) -> None:
        self.check(self.job(-1)[1])

    def check(self, batches) -> int:
        with self.tracer.span("check"):
            got = digest(row_hashes(pa.concat_tables(batches), QUAD_COLS))
        _expect(got == self.corpus.oracle_digest,
                f"triples {got} != kernel oracle {self.corpus.oracle_digest}")
        return got[0]

    def turns_per_job(self) -> int:
        return self.corpus.n_turns


class KgSinkResume:
    """A full ``run_kg_pipeline`` write to NUM_BUCKETS buckets at set-up;
    each job deletes the same LOST_BUCKETS bucket directories (a simulated
    crash) and times the resume, which must restore them exactly."""

    NUM_BUCKETS = 16
    LOST_BUCKETS = 8

    def __init__(self, seed: int, work: Path, tracer, phases: dict):
        from rayld.functions.vectorized import crc32_buckets

        self.tracer = tracer
        self.corpus = KgCorpus(seed, work, phases)
        self.out = str(work / "kg_out")
        oracle = self.corpus.oracle
        hashes = row_hashes(oracle, QUAD_COLS)
        buckets = crc32_buckets(oracle["conv_id"].to_pylist(),
                                self.NUM_BUCKETS)
        self.bucket_digest = {b: digest(hashes[buckets == b])
                              for b in range(self.NUM_BUCKETS)}
        turn_buckets = crc32_buckets(
            self.corpus.table["conv_id"].to_pylist(), self.NUM_BUCKETS)
        bucket_turns = np.bincount(turn_buckets, minlength=self.NUM_BUCKETS)
        # the buckets whose turns come closest to the lost share of the
        # corpus, so that every seed and every job redoes the same work
        share = self.corpus.n_turns * self.LOST_BUCKETS / self.NUM_BUCKETS
        self.lost = list(min(
            itertools.combinations(range(self.NUM_BUCKETS), self.LOST_BUCKETS),
            key=lambda g: abs(bucket_turns[list(g)].sum() - share)))
        self.rewritten_turns = int(bucket_turns[self.lost].sum())
        self.info = {**self.corpus.info, "lost_buckets": self.lost,
                     "rewritten_turns": self.rewritten_turns}
        self.sink: dict = {}
        self.skipped: list[int] = []

    def warm_up(self) -> None:
        """The uninterrupted write, checked bucket by bucket: a job of at
        least the timed size, and the state every resume starts from."""
        from rayld.pipelines.kg import run_kg_pipeline
        from rayld.sources.transcripts import read_transcripts

        shutil.rmtree(self.out, ignore_errors=True)
        with self.tracer.span("kg.run_kg_pipeline", mode="full"):
            t0 = time.perf_counter()
            res = run_kg_pipeline(read_transcripts(self.corpus.path),
                                  self.out, num_buckets=self.NUM_BUCKETS)
            elapsed = time.perf_counter() - t0
        self._check(res, range(self.NUM_BUCKETS), skipped=0)
        files = list(Path(self.out).rglob("*.parquet"))
        self.sink = {"sink.full_write_s": elapsed,
                     "sink.bytes_written": float(sum(p.stat().st_size
                                                     for p in files)),
                     "sink.files_written": float(len(files))}

    def job(self, i: int):
        from rayld.pipelines.kg import run_kg_pipeline
        from rayld.sources.transcripts import read_transcripts

        tr = self.tracer
        with tr.span("job", workload="kg_sink_resume", index=i):
            with tr.span("crash", lost=self.lost):
                for b in self.lost:
                    shutil.rmtree(os.path.join(self.out, f"bucket={b}"),
                                  ignore_errors=True)
            with tr.span("kg.run_kg_pipeline", mode="resume"):
                t0 = time.perf_counter()
                res = run_kg_pipeline(read_transcripts(self.corpus.path),
                                      self.out, num_buckets=self.NUM_BUCKETS)
                elapsed = time.perf_counter() - t0
        return elapsed, res

    def check(self, res) -> int:
        self.skipped.append(res["buckets_skipped"])
        with self.tracer.span("check"):
            return self._check(res, self.lost,
                               skipped=self.NUM_BUCKETS - self.LOST_BUCKETS)

    def _check(self, res: dict, rewritten, skipped: int) -> int:
        total = self.corpus.oracle.num_rows
        _expect(res["buckets_skipped"] == skipped,
                f"buckets_skipped {res['buckets_skipped']} != {skipped}")
        _expect(res["triples"] == total,
                f"total triples {res['triples']} != {total}")
        rows = 0
        for b in range(self.NUM_BUCKETS):
            bdir = os.path.join(self.out, f"bucket={b}")
            with open(os.path.join(bdir, "_manifest.json")) as f:
                manifest = json.load(f)
            want = self.bucket_digest[b]
            _expect(manifest["rows"] == want[0],
                    f"bucket {b} manifest rows {manifest['rows']} != {want[0]}")
            if b in rewritten:
                got = digest(row_hashes(
                    pq.read_table(bdir, columns=list(QUAD_COLS)), QUAD_COLS))
                _expect(got == want, f"bucket {b} triples {got} != {want}")
                rows += got[0]
        return rows

    def turns_per_job(self) -> int:
        return self.rewritten_turns


# ---------------------------------------------------------------------------
# ops_mix: the SQL-oracled relational / dedup / text / graph queries
# ---------------------------------------------------------------------------

OPS_QUERIES = (
    "q1_pricing", "q3_shipping_priority", "events_hourly", "user_sessions",
    "dedup_exact", "token_count", "bm25_scores", "user_common_neighbors",
    "user_jaccard_similarity",
)


def _check_queries_module():
    """``scripts/check_queries.py``: its ``to_pandas`` and ``canon`` are the
    repository's definition of a query result matching its oracle."""
    spec = importlib.util.spec_from_file_location(
        "check_queries", ROOT / "scripts" / "check_queries.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class OpsMix:
    """One pass over OPS_QUERIES, each called through
    ``__ray_entry__.queries()`` and materialised, on seeded tables."""

    def __init__(self, seed: int, work: Path, tracer, phases: dict):
        import duckdb

        import __ray_entry__
        from tables import ROWS, make_tables, write_tables

        self.tracer = tracer
        self.cq = _check_queries_module()
        t0 = time.perf_counter()
        qs = __ray_entry__.queries()
        self.queries = {name: qs[name] for name in OPS_QUERIES}
        oracle_sql = __ray_entry__.oracle_sql()
        tables = make_tables(seed)
        content = sum(digest(row_hashes(t, t.column_names))[1]
                      for t in tables.values()) % 2**64
        phases["generate_s"] = time.perf_counter() - t0

        phases["inputs_s"], path = _median_write(
            lambda p: write_tables(seed, p), work)
        self.path = str(path)

        t0 = time.perf_counter()
        con = duckdb.connect()
        try:
            for name in ROWS:
                con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                            f"read_parquet('{self.path}/{name}.parquet')")
            self.want = {name: self.cq.canon(
                con.execute(oracle_sql[name]).fetchdf())
                for name in OPS_QUERIES}
        finally:
            con.close()
        phases["oracle_s"] = time.perf_counter() - t0
        self.query_s: dict[str, list[float]] = {n: [] for n in OPS_QUERIES}
        self.rows_per_query: dict[str, int] = {}
        self.info = {"generator_seed": seed,
                     "tables_hash": f"{content:016x}",
                     "table_rows": ROWS}

    def warm_up(self) -> None:
        self.check(self.job(-1)[1])
        for times in self.query_s.values():
            times.clear()

    def job(self, i: int):
        tr = self.tracer
        results = {}
        elapsed = 0.0
        with tr.span("job", workload="ops_mix", index=i):
            for name, fn in self.queries.items():
                with tr.span(f"ops.{name}"):
                    t0 = time.perf_counter()
                    results[name] = self.cq.to_pandas(fn(self.path))
                    dt = time.perf_counter() - t0
                self.query_s[name].append(dt)
                elapsed += dt
        return elapsed, results

    def check(self, results) -> int:
        with self.tracer.span("check"):
            for name, df in results.items():
                got, want = self.cq.canon(df), self.want[name]
                _expect(list(got.columns) == list(want.columns)
                        and got.equals(want),
                        f"{name}: result differs from its oracle_sql()")
        self.rows_per_query = {n: len(df) for n, df in results.items()}
        return sum(self.rows_per_query.values())


WORKLOADS = {"kg_build": KgBuild, "kg_sink_resume": KgSinkResume,
             "ops_mix": OpsMix}
