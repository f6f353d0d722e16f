"""Seeded tables for the ``ops_mix`` workload.

Same table names, column names, types, value ranges and row counts as the
TPC-H-like sf0.01 tables that the ``queries()`` contract reads (customer,
orders, lineitem, events, documents), and the same per-column distributions
where a query's cost depends on them: 150 users with uniform event shares,
five event types in equal shares (so one event in five is a purchase),
purchase keys ``k`` uniform in 0..99, and documents of 10 to 99 words from
the same word list, one in 20 a near duplicate of another that ends in
``dup``. Only the tables the ops_mix queries read are written. Every value
is drawn from ``numpy.random.default_rng(seed)``, so one seed always gives
the same bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROWS = {"customer": 1500, "orders": 15000, "lineitem": 60000,
        "events": 10000, "documents": 500}

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["en", "en", "en", "de", "es", "fr", "zh"]
_WORDS = (
    "join hash row batch scan column customer filter small slow merge order "
    "vector line table data agg value key stream window a spark part group "
    "big sort query fast the"
).split()

_DAY_US = 86_400_000_000


def _days(rng, first: str, last: str, n: int) -> pa.Array:
    lo = np.datetime64(first, "D").astype(np.int64)
    hi = np.datetime64(last, "D").astype(np.int64)
    days = rng.integers(lo, hi + 1, n)
    return pa.array(days * _DAY_US, pa.timestamp("us"))


def _cents(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.integers(int(lo * 100), int(hi * 100) + 1, n) / 100.0


def make_tables(seed: int) -> dict[str, pa.Table]:
    rng = np.random.default_rng([seed, 0x0A5])
    n = ROWS
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n["customer"]), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n["customer"])],
        "c_nationkey": pa.array(rng.integers(0, 25, n["customer"]), pa.int32()),
        "c_acctbal": _cents(rng, -999.99, 9999.99, n["customer"]),
        "c_mktsegment": rng.choice(_SEGMENTS, n["customer"]).tolist(),
    })
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n["orders"]), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n["customer"], n["orders"]),
                              pa.int64()),
        "o_orderstatus": rng.choice(["F", "O", "P"], n["orders"]).tolist(),
        "o_totalprice": _cents(rng, 1000.0, 500000.0, n["orders"]),
        "o_orderdate": _days(rng, "1995-01-01", "2001-08-01", n["orders"]),
        "o_orderpriority": rng.choice(_PRIORITIES, n["orders"]).tolist(),
    })
    m = n["lineitem"]
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, n["orders"], m), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 2000, m), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, m), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, m), pa.int32()),
        "l_quantity": rng.integers(1, 51, m).astype(np.float64),
        "l_extendedprice": _cents(rng, 900.0, 105000.0, m),
        "l_discount": rng.integers(0, 11, m) / 100.0,
        "l_tax": rng.integers(0, 9, m) / 100.0,
        "l_returnflag": rng.choice(["A", "N", "R"], m).tolist(),
        "l_linestatus": rng.choice(["F", "O"], m).tolist(),
        "l_shipdate": _days(rng, "1995-01-02", "2001-11-04", m),
    })
    e = n["events"]
    t0 = np.datetime64("2024-01-01", "us").astype(np.int64)
    ts = np.sort(t0 + rng.integers(0, 30 * _DAY_US, e))
    events = pa.table({
        "event_id": pa.array(np.arange(e), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 150, e), pa.int64()),
        "event_type": rng.choice(_EVENT_TYPES, e).tolist(),
        "value": np.maximum(np.round(rng.exponential(50.0, e), 2), 0.01),
        "props": [json.dumps({"k": int(k)}) for k in rng.integers(0, 100, e)],
    })
    d = n["documents"]
    texts = [" ".join(rng.choice(_WORDS, int(rng.integers(10, 100))))
             for _ in range(d)]
    # one document in 20 is another one plus a trailing " dup" token: near
    # duplicates, and (the sources being distinct) no exact duplicates
    k = d // 20
    for i, j in zip(rng.choice(d, k, replace=False),
                    rng.choice(d, k, replace=False)):
        texts[i] = texts[j] + " dup"
    documents = pa.table({
        "doc_id": pa.array(np.arange(d), pa.int64()),
        "text": texts,
        "lang": rng.choice(_LANGS, d).tolist(),
        "source": [f"src{i % 20}" for i in range(d)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    return {"customer": customer, "orders": orders, "lineitem": lineitem,
            "events": events, "documents": documents}


def write_tables(seed: int, out_dir: str) -> dict[str, pa.Table]:
    os.makedirs(out_dir, exist_ok=True)
    tables = make_tables(seed)
    for name, table in tables.items():
        pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))
    return tables
