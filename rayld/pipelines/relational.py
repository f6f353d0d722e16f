"""Relational pipelines over the TPC-H-ish tables: pre-aggregated groupby,
broadcast join, windowed / sessionized event aggregation.

These demonstrate the shuffle-minimizing patterns of SURVEY.md §4: partial
aggregation inside map_batches before the groupby, dimension tables broadcast
with ray.put instead of shuffle joins, and event windows as
groupby(key).map_groups over ts-sorted groups."""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.vectorized import (append_mod_part, crc32_buckets,
                                    mix64, money_cents, u64_sort_key)


def _two_type_tag_and_bucket(left_type: str, right_type: str,
                             num_partitions: int, with_event_id=True):
    """Shared pre-shuffle stage for the time-series join family (as-of,
    range, funnel): filter the two event types at the scan, tag is_left,
    cast ts to epoch-us int64, and bucket on hash(user_id) % P."""

    def tag_and_bucket(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        keep = pc.is_in(
            batch["event_type"],
            value_set=pa.array([left_type, right_type]),
        )
        batch = batch.filter(keep)
        side = pc.equal(batch["event_type"], left_type)  # True = left
        parts = crc32_buckets(batch["user_id"].to_pylist(), num_partitions)
        cols = {}
        if with_event_id:
            cols["event_id"] = batch["event_id"].cast(pa.int64())
        cols.update({
            "ts_us": batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "user_id": batch["user_id"].cast(pa.int64()),
            "is_left": side.cast(pa.bool_()),
            "part": pa.array(parts, pa.int32()),
        })
        return pa.table(cols)

    return tag_and_bucket


def q1_pricing(sf_dir: str):
    """TPC-H Q1-style pricing summary. Partial sums per batch -> ONE bucketed
    combine over the six (flag, status) groups (bounded cardinality, so
    common.bucketed_sum_combine beats Ray aggregate's fixed setup). Sums
    rounded to 2dp for stable float comparison."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, source_blocks

    path = f"{sf_dir}/lineitem.parquet"
    # coarse 1MB-per-block bound: the partial is a vectorized pandas
    # groupby (~ns/row) — finer fan-out at 16 cpus measured SLOWER than at
    # 4 (task launch + combine fan-in exceed the compute being split)
    ds = rd.read_parquet(
        path,
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_shipdate",
        ],
        override_num_blocks=source_blocks(path, per_block_bytes=1 << 20),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= pd.Timestamp("1998-09-02")]
        # sum in integer cents so the result is exact regardless of the
        # floating-point summation order across batches/workers
        # half-up rounding (floor(x+0.5)) — matches the SQL oracle exactly,
        # unlike numpy's half-even round
        df = df.assign(
            qty_c=money_cents(df["l_quantity"]),
            base_c=money_cents(df["l_extendedprice"]),
            disc_c=money_cents(df["l_extendedprice"] * (1 - df["l_discount"])),
            n=1,
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("qty_c", "sum"),
            sum_base_price=("base_c", "sum"),
            sum_disc_price=("disc_c", "sum"),
            count_order=("n", "sum"),
        )
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    agg = bucketed_sum_combine(
        partials,
        keys=["l_returnflag", "l_linestatus"],
        sum_cols=["sum_qty", "sum_base_price", "sum_disc_price",
                  "count_order"],
        schema=pa.schema(
            [
                ("l_returnflag", pa.string()),
                ("l_linestatus", pa.string()),
                ("sum_qty", pa.int64()),
                ("sum_base_price", pa.int64()),
                ("sum_disc_price", pa.int64()),
                ("count_order", pa.int64()),
            ]
        ),
    )

    def round_cols(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
            df[c] = df[c].astype("int64") / 100.0
        df["count_order"] = df["count_order"].astype("int64")
        return df

    return agg.map_batches(round_cols, batch_format="pandas")


def customer_nation_count(sf_dir: str):
    """Customers per nation name — broadcast join (nation is the tiny side,
    shipped once via ray.put; no shuffle join)."""
    import ray
    import ray.data as rd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .common import bucketed_sum_combine

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    lookup = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )
    ref = ray.put(lookup)

    ds = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_nationkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lk = ray.get(ref)
        df = df.assign(n_name=df["c_nationkey"].map(lk))
        g = df.groupby("n_name", as_index=False).size()
        return g.rename(columns={"size": "n_customers"})

    partials = ds.map_batches(partial, batch_format="pandas")
    # 25 nations: bounded cardinality -> the bucketed combine
    return bucketed_sum_combine(
        partials,
        keys=["n_name"],
        sum_cols=["n_customers"],
        schema=pa.schema(
            [("n_name", pa.string()), ("n_customers", pa.int64())]
        ),
    )


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type: counts + rounded value sums.
    Window derived vectorized per batch; partial-aggregated before the ONE
    bucketed combine (window count is bounded — hours in the data span — so
    common.bucketed_sum_combine beats Ray aggregate's fixed setup)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, source_blocks

    path = f"{sf_dir}/events.parquet"
    # coarse 256KB-per-block bound (vectorized partials; see q1_pricing)
    ds = rd.read_parquet(
        path, columns=["event_type", "ts", "value"],
        override_num_blocks=source_blocks(path, per_block_bytes=256 << 10),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # window as epoch seconds (BIGINT) for a type-stable oracle compare;
        # value summed in integer cents (order-independent exactness)
        window = df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        df = df.assign(
            window_start=window,
            value_c=money_cents(df["value"]),
            n=1,
        )
        g = df.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("n", "sum"), sum_value=("value_c", "sum")
        )
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    agg = bucketed_sum_combine(
        partials,
        keys=["event_type", "window_start"],
        sum_cols=["n_events", "sum_value"],
        schema=pa.schema(
            [
                ("event_type", pa.string()),
                ("window_start", pa.int64()),
                ("n_events", pa.int64()),
                ("sum_value", pa.int64()),
            ]
        ),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["n_events"] = df["n_events"].astype("int64")
        df["sum_value"] = df["sum_value"].astype("int64") / 100.0
        return df

    return agg.map_batches(finish, batch_format="pandas")


def events_sliding(sf_dir: str, n_windows: int = 3):
    """SLIDING window counts (3h windows advancing hourly): each event
    explodes into the n_windows hourly window-starts that cover it — the
    window assignment is vectorized per batch and pre-aggregated before the
    (event_type, window_start) bucketed combine, so the shuffle moves partial
    counts, not exploded events."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        base = df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        frames = [
            pd.DataFrame(
                {"event_type": df["event_type"],
                 "window_start": base - 3600 * k, "n": 1}
            )
            for k in range(n_windows)
        ]
        cat = pd.concat(frames, ignore_index=True)
        return cat.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("n", "sum")
        )

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_sum_combine(
        partials,
        keys=["event_type", "window_start"],
        sum_cols=["n_events"],
        schema=pa.schema(
            [
                ("event_type", pa.string()),
                ("window_start", pa.int64()),
                ("n_events", pa.int64()),
            ]
        ),
    )


def user_sessions(sf_dir: str, gap_minutes: int = 30,
                  num_partitions: int | None = None):
    """Session windows per user (gap-based sessionization). The shuffle is
    BUCKETED: rows group on hash(user_id) % P and a pandas groupby inside the
    task sessionizes every user of the partition — one Ray group per bucket
    instead of one per user (the kg.py conv_id pattern; also de-skews hot
    users across fixed-size buckets). Output: (user_id, session_id,
    n_events)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def add_part(batch: pa.Table) -> pa.Table:
        parts = crc32_buckets(batch["user_id"].to_pylist(), num_partitions)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    def sessionize_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="mergesort")
        gaps = part.groupby("user_id")["ts"].diff()
        new_session = gaps.isna() | (gaps > pd.Timedelta(minutes=gap_minutes))
        part = part.assign(session_id=new_session.groupby(
            part["user_id"]).cumsum().astype("int64"))
        g = part.groupby(["user_id", "session_id"], as_index=False).size()
        return g.rename(columns={"size": "n_events"})

    return ds.map_batches(add_part, batch_format="pyarrow").groupby(
        "part"
    ).map_groups(sessionize_partition, batch_format="pandas")


def event_type_transitions(sf_dir: str, num_partitions: int | None = None):
    """First-order Markov transition counts over each user's event stream:
    for every consecutive pair under the total order (ts, event_id) within
    a user, count (prev_type -> next_type). ONE bucketed hash(user_id)
    exchange (the ``user_sessions`` pattern — one Ray group per bucket,
    hot users de-skewed across fixed-size buckets), consecutive pairs
    vectorized by a whole-partition sort + shift, per-bucket partial
    counts, then the bounded-cardinality house combine (the matrix is at
    most |types|^2 rows). Output: (prev_type, next_type, n)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts", "event_id"],
    )

    def add_part(batch: pa.Table) -> pa.Table:
        parts = crc32_buckets(batch["user_id"].to_pylist(), num_partitions)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    part_sch = pa.schema([
        ("prev_type", pa.string()), ("next_type", pa.string()),
        ("n", pa.int64()),
    ])

    def transitions(part: pd.DataFrame) -> pa.Table:
        part = part.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        prev = part["event_type"].shift(1)
        same_user = part["user_id"].eq(part["user_id"].shift(1))
        sel = part.assign(prev_type=prev)[same_user]
        if len(sel) == 0:
            return part_sch.empty_table()
        g = sel.groupby(
            ["prev_type", "event_type"], as_index=False, sort=False
        ).size()
        return pa.table({
            "prev_type": pa.array(g["prev_type"], pa.string()),
            "next_type": pa.array(g["event_type"], pa.string()),
            "n": pa.array(g["size"].to_numpy(np.int64)),
        }, schema=part_sch)

    partials = ds.map_batches(add_part, batch_format="pyarrow").groupby(
        "part"
    ).map_groups(transitions, batch_format="pandas")
    return bucketed_sum_combine(
        partials, keys=["prev_type", "next_type"], sum_cols=["n"],
        schema=part_sch, num_partitions=max(8, num_partitions // 8),
    )


# The corpus generator's closed event-type universe. events_pivot_by_type
# pivots onto these as FIXED columns (the PIVOT shape needs a static
# schema); an unseen type fails LOUDLY instead of silently dropping rows
# (the token_frequencies pigeonhole lesson).
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_pivot_by_type(sf_dir: str, num_partitions: int | None = None):
    """PIVOT: one row per UTC day with one count column per event type
    plus the row total. Per-batch (day, type) partial counts collapse
    through the bounded house combine (|days| x |types| groups); only the
    result-sized combined table is pivoted on the driver — at any corpus
    scale the day axis is calendar-bounded, so nothing data-sized ever
    leaves the cluster. Output: (day_start, n_click, n_error, n_purchase,
    n_signup, n_view, n_total)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions(minimum=8)
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    part_sch = pa.schema([
        ("day_start", pa.int64()), ("event_type", pa.string()),
        ("n", pa.int64()),
    ])

    def day_type_counts(df: pd.DataFrame) -> pa.Table:
        day = (
            df["ts"].dt.floor("D").astype("datetime64[us]").astype("int64")
            // 1_000_000
        )
        g = df.assign(day_start=day).groupby(
            ["day_start", "event_type"], as_index=False, sort=False
        ).size()
        unknown = set(g["event_type"]) - set(EVENT_TYPES)
        if unknown:
            raise ValueError(
                f"events_pivot_by_type: unknown event types {unknown}; "
                "extend EVENT_TYPES (and the oracle) explicitly"
            )
        return pa.table({
            "day_start": pa.array(g["day_start"].to_numpy(np.int64)),
            "event_type": pa.array(g["event_type"], pa.string()),
            "n": pa.array(g["size"].to_numpy(np.int64)),
        }, schema=part_sch)

    combined = bucketed_sum_combine(
        ds.map_batches(day_type_counts, batch_format="pandas"),
        keys=["day_start", "event_type"], sum_cols=["n"],
        schema=part_sch, num_partitions=max(8, num_partitions // 8),
    ).to_pandas()
    wide = combined.pivot_table(
        index="day_start", columns="event_type", values="n",
        aggfunc="sum", fill_value=0,
    )
    out = pd.DataFrame({"day_start": wide.index.to_numpy(np.int64)})
    for t in EVENT_TYPES:
        out[f"n_{t}"] = (
            wide[t].to_numpy(np.int64) if t in wide.columns
            else np.zeros(len(wide), np.int64)
        )
    out["n_total"] = out[[f"n_{t}" for t in EVENT_TYPES]].sum(axis=1)
    return out.reset_index(drop=True)


def event_value_autocorr(sf_dir: str, num_partitions: int | None = None):
    """Lag-1 autocorrelation of event value per user stream, reported as
    the six EXACT integer moments over consecutive (x, y) = (v_t, v_t+1)
    cent pairs under the (ts, event_id) total order — the Pearson
    coefficient needs a square root, which has no exact integer form, so
    the engine emits the moments (the coefficient is an O(1) epilogue)
    and stays hash-comparable to the oracle. ONE bucketed user exchange
    (the ``event_type_transitions`` shape); each bucket reduces to a
    single moment row; the driver folds block-count rows in unbounded
    Python ints."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "value", "ts", "event_id"],
    )

    def add_part(batch: pa.Table) -> pa.Table:
        parts = crc32_buckets(batch["user_id"].to_pylist(), num_partitions)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    mom_sch = pa.schema([
        ("n", pa.int64()), ("sx", pa.int64()), ("sy", pa.int64()),
        ("sxx", pa.int64()), ("syy", pa.int64()), ("sxy", pa.int64()),
    ])

    def moments(part: pd.DataFrame) -> pa.Table:
        part = part.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        v = money_cents(part["value"])
        same = part["user_id"].eq(part["user_id"].shift(-1)).to_numpy()
        x, y = v[:-1][same[:-1]], v[1:][same[:-1]]
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "syy": pa.array([int((y * y).sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64()),
        }, schema=mom_sch)

    parts = (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part").map_groups(moments, batch_format="pandas")
        .to_pandas()
    )
    cols = ["n", "sx", "sy", "sxx", "syy", "sxy"]
    vals = {c: int(parts[c].sum()) if len(parts) else 0 for c in cols}
    return pd.DataFrame({
        "n_pairs": [vals["n"]], "s_x": [vals["sx"]], "s_y": [vals["sy"]],
        "s_xx": [vals["sxx"]], "s_yy": [vals["syy"]],
        "s_xy": [vals["sxy"]],
    }).astype("int64")


def order_revenue_by_status(sf_dir: str, num_partitions: int | None = None):
    """Large-large hash join: lineitem x orders on orderkey via Dataset.join
    (hash-partitioned on the key), then a tiny grouped sum. Revenue in
    integer cents for exact oracle compare."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    import ray

    if num_partitions is None:
        # Dataset.join spawns num_partitions fixed aggregator actors; size to
        # the core count (not 2x) so a small session is not oversubscribed
        num_partitions = max(4, int(ray.cluster_resources().get("CPU", 8)))
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def partial_rev(df: pd.DataFrame) -> pd.DataFrame:
        rev = money_cents(df["l_extendedprice"] * (1 - df["l_discount"]))
        g = df.assign(rev_c=rev).groupby("l_orderkey", as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        return g

    # pre-aggregate to one row per orderkey per batch BEFORE the join:
    # the join then moves ~|orders| rows, not ~|lineitem|
    per_order = lineitem.map_batches(partial_rev, batch_format="pandas")
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )
    joined = per_order.join(
        orders,
        join_type="inner",
        num_partitions=num_partitions,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    agg = joined.groupby("o_orderstatus").aggregate(
        Sum("rev_c", alias_name="rev_c")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderstatus": df["o_orderstatus"],
                "revenue": (df["rev_c"].astype("int64") / 100.0),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def event_props_extract(sf_dir: str):
    """JSON scalar extraction over the events ``props`` payload column:
    per event_type, sum of the numeric ``k`` field (SQL-checkable against
    DuckDB json_extract)."""
    import json

    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ks = df["props"].map(lambda p: json.loads(p).get("k", 0) if p else 0)
        g = df.assign(k=ks.astype("int64")).groupby(
            "event_type", as_index=False
        ).agg(sum_k=("k", "sum"), n_events=("k", "size"))
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    # a handful of event types: bounded cardinality -> the bucketed combine
    return bucketed_sum_combine(
        partials,
        keys=["event_type"],
        sum_cols=["sum_k", "n_events"],
        schema=pa.schema(
            [("event_type", pa.string()), ("sum_k", pa.int64()),
             ("n_events", pa.int64())]
        ),
    )


def supplier_account_rank(sf_dir: str, top_n: int = 10):
    """Top-N suppliers by account balance — sort + limit (deterministic
    tie-break by s_suppkey)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"]
    )
    out = ds.sort(["s_acctbal", "s_suppkey"], descending=[True, False]).limit(top_n)
    return out.select_columns(["s_suppkey"])


def asof_join_attribution(sf_dir: str, left_type: str = "purchase",
                          right_type: str = "click",
                          num_partitions: int | None = None):
    """As-of join (last-touch attribution): each `left_type` event joined to
    the user's most recent `right_type` event at or before it — the classic
    time-series operator Ray Data lacks as a primitive.

    Implementation (composition (a) of the custom-operator ladder):
    both sides are filtered from ONE pruned read and tagged, then a single
    BUCKETED hash(user_id) % P shuffle co-locates each user's full timeline;
    inside the task a pandas `merge_asof(by=user_id, direction=backward)`
    over the sorted partition answers every user in the bucket at once.
    Partitioning assumption (documented per the brief): the join key is
    user_id, so one user's events must fit a task — guaranteed here by the
    bounded per-user event count; a pathological hot user would need
    time-range sub-splitting with boundary carry-over. Inner-join semantics
    (left events with no prior right event drop) keep the result
    nullable-free, so int64 ids survive pandas exactly (the
    connected-components lesson). Matches DuckDB `ASOF JOIN ... ON
    p.user_id = c.user_id AND p.ts >= c.ts` bit-for-bit: timestamps compare
    as epoch-microsecond BIGINTs on both sides."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    tag_and_bucket = _two_type_tag_and_bucket(
        left_type, right_type, num_partitions
    )

    def asof_partition(df: pd.DataFrame) -> pa.Table:
        # tie-break PINNED: among right rows sharing (user_id, ts) the
        # match is the max event_id — merge_asof backward takes the last
        # row, so the secondary event_id sort key decides ties
        # deterministically (block-order-independent); the SQL oracle pins
        # the same rule via ORDER BY c.ts DESC, c.event_id DESC
        left = df[df["is_left"]].sort_values(
            ["ts_us", "event_id"], kind="mergesort"
        )
        right = df[~df["is_left"]].sort_values(
            ["ts_us", "event_id"], kind="mergesort"
        )
        # merge_asof keeps only the LEFT on-key; carry the right timestamp
        # through an explicit copy
        right = right.assign(r_ts=right["ts_us"])
        if len(left) == 0 or len(right) == 0:
            m = pd.DataFrame()
        else:
            m = pd.merge_asof(
                left, right, on="ts_us", by="user_id",
                direction="backward", suffixes=("", "_r"),
            ).dropna(subset=["event_id_r"])
        if len(m) == 0:
            return pa.table(
                {
                    "purchase_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "purchase_us": pa.array([], pa.int64()),
                    "click_id": pa.array([], pa.int64()),
                    "click_us": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "purchase_id": pa.array(
                    m["event_id"].to_numpy(np.int64), pa.int64()
                ),
                "user_id": pa.array(m["user_id"].to_numpy(np.int64), pa.int64()),
                "purchase_us": pa.array(
                    m["ts_us"].to_numpy(np.int64), pa.int64()
                ),
                "click_id": pa.array(
                    m["event_id_r"].to_numpy(np.int64), pa.int64()
                ),
                "click_us": pa.array(
                    m["r_ts"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(tag_and_bucket, batch_format="pyarrow").groupby(
        "part"
    ).map_groups(asof_partition, batch_format="pandas")


def range_join_signup_clicks(sf_dir: str, window_minutes: int = 30,
                             num_partitions: int | None = None):
    """Range (interval) join: each signup event joined to the same user's
    clicks inside [ts, ts + window) and aggregated to a count — the second
    custom time-series operator Ray Data lacks as a primitive (the as-of
    join's sibling).

    Same partitioning contract as asof_join_attribution: ONE bucketed
    hash(user_id) % P shuffle co-locates a user's timeline; inside the task
    each user's sorted click timestamps answer all of that user's signups
    with two vectorized searchsorted calls (no per-pair materialization —
    the count never expands the join). Zero-click signups keep a row with
    n_clicks = 0, so the result is nullable-free and the DuckDB interval
    LEFT JOIN oracle matches exactly."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    win_us = window_minutes * 60_000_000
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    tag_and_bucket = _two_type_tag_and_bucket(
        "signup", "click", num_partitions
    )

    def count_in_window(df: pd.DataFrame) -> pa.Table:
        out_id, out_user, out_n = [], [], []
        for uid, g in df.groupby("user_id", sort=False):
            s = g[g["is_left"]]
            if len(s) == 0:
                continue
            clicks = np.sort(g[~g["is_left"]]["ts_us"].to_numpy(np.int64))
            ts = s["ts_us"].to_numpy(np.int64)
            n = (
                np.searchsorted(clicks, ts + win_us, side="left")
                - np.searchsorted(clicks, ts, side="left")
            )
            out_id.append(s["event_id"].to_numpy(np.int64))
            out_user.append(np.full(len(s), uid, dtype=np.int64))
            out_n.append(n.astype(np.int64))
        cat = (lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64))
        return pa.table(
            {
                "signup_id": pa.array(cat(out_id), pa.int64()),
                "user_id": pa.array(cat(out_user), pa.int64()),
                "n_clicks": pa.array(cat(out_n), pa.int64()),
            }
        )

    return ds.map_batches(tag_and_bucket, batch_format="pyarrow").groupby(
        "part"
    ).map_groups(count_in_window, batch_format="pandas")


def doc_embedding_features(sf_dir: str, num_partitions: int | None = None):
    """Feature attachment across tables: join documents (lang, token count)
    with embeddings (label) on doc_id = vec_id — the 'bring the features to
    the text' step of a training-prep pipeline. Large-large, so it rides the
    engine's bucketed hash join (union + crc-bucket + in-task pandas merge;
    the Dataset.join caveats in CLAUDE.md don't apply to it), each side
    pruned to its key + payload columns before the exchange."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions
    from .dedup import _bucketed_hash_join
    from .text import _TOKEN_RE

    if num_partitions is None:
        num_partitions = cluster_partitions()

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    )

    def left(df: pd.DataFrame) -> pa.Table:
        n = df["text"].str.findall(_TOKEN_RE).str.len().to_numpy(np.int64)
        m = len(df)
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                "lang": pa.array(df["lang"].astype(str), pa.string()),
                "n_tokens": pa.array(n, pa.int64()),
                "label": pa.nulls(m, pa.int64()),
                "is_right": pa.array(np.zeros(m, np.int8), pa.int8()),
            }
        )

    def right(df: pd.DataFrame) -> pa.Table:
        m = len(df)
        return pa.table(
            {
                "doc_id": pa.array(df["vec_id"].to_numpy(np.int64)),
                "lang": pa.nulls(m, pa.string()),
                "n_tokens": pa.nulls(m, pa.int64()),
                "label": pa.array(df["label"].to_numpy(np.int64)),
                "is_right": pa.array(np.ones(m, np.int8), pa.int8()),
            }
        )

    schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("lang", pa.string()),
            ("n_tokens", pa.int64()),
            ("label", pa.int64()),
        ]
    )

    def merge(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return schema.empty_table()
        l = df[df["is_right"] == 0][["doc_id", "lang", "n_tokens"]]
        r = df[df["is_right"] == 1][["doc_id", "label"]]
        out = l.merge(r, on="doc_id", how="inner")
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"].to_numpy(np.int64)),
                "lang": pa.array(out["lang"].astype(str), pa.string()),
                "n_tokens": pa.array(
                    out["n_tokens"].to_numpy(np.int64), pa.int64()
                ),
                "label": pa.array(out["label"].to_numpy(np.int64), pa.int64()),
            }
        )

    return _bucketed_hash_join(
        docs.map_batches(left, batch_format="pandas"),
        emb.map_batches(right, batch_format="pandas"),
        key="doc_id",
        num_partitions=num_partitions,
        merge_fn=merge,
    )


def events_hourly_users(sf_dir: str, num_partitions: int | None = None):
    """Distinct users per hourly window — the COUNT(DISTINCT) at scale
    pattern: per-batch dedup of (window, user) pairs, ONE bucketed pair-key
    exchange where each task drops cross-block duplicates and emits partial
    per-window counts, then the tiny bounded-window combine. The raw event
    stream never shuffles; the pair set (already batch-deduped) is the only
    exchange payload."""
    import zlib

    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def pairs(df: pd.DataFrame) -> pa.Table:
        w = df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        x = pd.DataFrame(
            {"window_start": w, "user_id": df["user_id"]}
        ).drop_duplicates()
        parts = np.fromiter(
            (
                zlib.crc32(f"{a}:{b}".encode()) % num_partitions
                for a, b in zip(x["window_start"], x["user_id"])
            ),
            dtype=np.int32, count=len(x),
        )
        return pa.table(
            {
                "window_start": pa.array(
                    x["window_start"].to_numpy(np.int64), pa.int64()
                ),
                "user_id": pa.array(
                    x["user_id"].to_numpy(np.int64), pa.int64()
                ),
                "part": pa.array(parts, pa.int32()),
            }
        )

    def count_distinct(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.schema(
                [("window_start", pa.int64()), ("n_users", pa.int64())]
            ).empty_table()
        d = g.drop_duplicates(["window_start", "user_id"])
        c = d.groupby("window_start", as_index=False).size()
        return pa.table(
            {
                "window_start": pa.array(
                    c["window_start"].to_numpy(np.int64), pa.int64()
                ),
                "n_users": pa.array(c["size"].to_numpy(np.int64), pa.int64()),
            }
        )

    partials = (
        ds.map_batches(pairs, batch_format="pandas")
        .groupby("part")
        .map_groups(count_distinct, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials,
        keys=["window_start"],
        sum_cols=["n_users"],
        schema=pa.schema(
            [("window_start", pa.int64()), ("n_users", pa.int64())]
        ),
    )


_HLL_P = 8                    # 2^8 = 256 registers
_HLL_M = 1 << _HLL_P
_HLL_ALPHA = 0.7213 / (1 + 1.079 / _HLL_M)


def _hll_rows(windows: np.ndarray, users) -> pd.DataFrame:
    """Non-zero HLL registers for (window, user) pairs: one md5 per DISTINCT
    pair (the pairs are pre-deduped by the caller); register index = top 8
    hash bits, rank = first-1-bit position of the remaining 56."""
    import hashlib as _h

    regs: dict[tuple[int, int], int] = {}
    for w, u in zip(windows, users):
        h = int(_h.md5(str(int(u)).encode()).hexdigest()[:16], 16)
        idx = h >> 56
        rest = h & ((1 << 56) - 1)
        rank = 57 - rest.bit_length() if rest else 57
        key = (int(w), idx)
        if rank > regs.get(key, 0):
            regs[key] = rank
    if not regs:
        return pd.DataFrame(
            {"window_start": pd.Series([], dtype="int64"),
             "reg_idx": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="int64")}
        )
    ks = list(regs)
    return pd.DataFrame(
        {"window_start": pd.Series([k[0] for k in ks], dtype="int64"),
         "reg_idx": pd.Series([k[1] for k in ks], dtype="int64"),
         "rank": pd.Series(list(regs.values()), dtype="int64")}
    )


def hll_users_gate(sf_dir: str, max_rel_err: float = 0.25,
                   num_partitions: int | None = None):
    """Distributed HyperLogLog distinct-user sketch per hourly window,
    accuracy-gated against the exact count (the recall-gate oracle pattern):
    output (window_start, n_users, hll_ok) where n_users is exact and
    hll_ok asserts |estimate - exact| <= max(3, max_rel_err * exact) — the
    absolute floor covers tiny windows where linear counting is per-window
    noisy, and 0.25 is ~3.8 sigma of HLL's 1.04/sqrt(m)=6.5% standard error,
    so a correct sketch passes every window with high margin while an
    implementation regression (wrong ranks, lost registers, bad merge)
    blows straight through it.

    The sketch is the 100-TB path: per-batch partial registers (<= 256 rows
    per window per block, REGARDLESS of event count) merge by elementwise
    max through one bucketed exchange — sketch rows, never events, cross the
    wire, and sketches of disjoint shards merge associatively. The exact
    count (events_hourly_users) exists independently; here it doubles as
    the gate so a sketch regression fails CORRECTNESS, not just a tolerance
    in a test."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        x = pd.DataFrame(
            {"window_start": w, "user_id": df["user_id"]}
        ).drop_duplicates()
        return _hll_rows(
            x["window_start"].to_numpy(np.int64),
            x["user_id"].to_numpy(np.int64),
        )

    merged = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["window_start", "reg_idx"],
        sum_cols=["rank"],
        schema=pa.schema(
            [("window_start", pa.int64()), ("reg_idx", pa.int64()),
             ("rank", pa.int64())]
        ),
        how="max",
    )

    exact = events_hourly_users(sf_dir, num_partitions=num_partitions)
    exact_df = exact.to_pandas()  # bounded: one row per window
    exact_ref = ray.put(dict(
        zip(exact_df["window_start"].astype(int),
            exact_df["n_users"].astype(int))
    ))

    def estimate(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.schema(
                [("window_start", pa.int64()), ("n_users", pa.int64()),
                 ("hll_ok", pa.int64())]
            ).empty_table()
        lk = ray.get(exact_ref)
        out_w, out_n, out_ok = [], [], []
        for w, grp in g.groupby("window_start"):
            regs = np.zeros(_HLL_M, dtype=np.float64)
            regs[grp["reg_idx"].to_numpy(np.int64)] = grp["rank"].to_numpy(
                np.float64
            )
            est = _HLL_ALPHA * _HLL_M * _HLL_M / np.sum(
                np.power(2.0, -regs)
            )
            zeros = int((regs == 0).sum())
            if est <= 2.5 * _HLL_M and zeros:
                est = _HLL_M * np.log(_HLL_M / zeros)
            n = int(lk.get(int(w), 0))
            ok = int(n > 0 and abs(est - n) <= max(3.0, max_rel_err * n))
            out_w.append(int(w))
            out_n.append(n)
            out_ok.append(ok)
        return pa.table(
            {"window_start": pa.array(out_w, pa.int64()),
             "n_users": pa.array(out_n, pa.int64()),
             "hll_ok": pa.array(out_ok, pa.int64())}
        )

    def bucket_w(batch: pa.Table) -> pa.Table:
        w = np.asarray(batch["window_start"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "wpart",
            pa.array((w % num_partitions).astype(np.int32), pa.int32()),
        )

    return (
        merged.map_batches(bucket_w, batch_format="pyarrow")
        .groupby("wpart")
        .map_groups(estimate, batch_format="pandas")
    )


def q3_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                         cutoff: str = "1998-01-01", top_n: int = 10,
                         num_partitions: int | None = None):
    """TPC-H Q3-style shipping priority: three-table join + global top-N.

    Shuffle-minimizing plan (SURVEY.md §4):
    - every read is column- AND predicate-pruned (only the filter survivors
      leave the scan);
    - lineitem pre-aggregates revenue to one row per orderkey per batch
      BEFORE any shuffle, so the join moves ~|orders| rows, not ~|lineitem|;
    - customer⋈orders is a bucketed semi-join on hash(custkey) % P and
      orders⋈revenue a bucketed hash join on hash(orderkey) % P — the
      union+bucket+in-task-merge pattern that is safe chained (Ray's
      JoinOperator is not, per CLAUDE.md);
    - each bucket emits only its LOCAL top-N, so the final global sort sees
      ≤ P·N rows regardless of corpus size.
    """
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    cutoff_ts = pd.Timestamp(cutoff)

    # side 1: customers in the segment (keys only)
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def cust_keys(df: pd.DataFrame) -> pa.Table:
        keys = df.loc[df["c_mktsegment"] == segment, "c_custkey"]
        return pa.table({
            "custkey": pa.array(keys.to_numpy(np.int64), pa.int64()),
            "is_order": pa.array(np.zeros(len(keys), np.int8), pa.int8()),
            "o_orderkey": pa.array(np.zeros(len(keys), np.int64), pa.int64()),
            "date_us": pa.array(np.zeros(len(keys), np.int64), pa.int64()),
            "o_orderpriority": pa.array([""] * len(keys), pa.string()),
        })

    # side 2: orders before the cutoff
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def order_rows(df: pd.DataFrame) -> pa.Table:
        df = df[df["o_orderdate"] < cutoff_ts]
        return pa.table({
            "custkey": pa.array(df["o_custkey"].to_numpy(np.int64)),
            "is_order": pa.array(np.ones(len(df), np.int8), pa.int8()),
            "o_orderkey": pa.array(df["o_orderkey"].to_numpy(np.int64)),
            "date_us": pa.array(
                df["o_orderdate"].astype("datetime64[us]")
                .astype("int64").to_numpy()
            ),
            "o_orderpriority": pa.array(
                df["o_orderpriority"].tolist(), pa.string()
            ),
        })

    def bucket_cust(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["custkey"].to_pylist(), dtype=np.int64)
        parts = (k % num_partitions).astype(np.int32)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    def semi(df: pd.DataFrame) -> pa.Table:
        sch = pa.schema([
            ("o_orderkey", pa.int64()), ("date_us", pa.int64()),
            ("o_orderpriority", pa.string()),
        ])
        if len(df) == 0:
            return sch.empty_table()
        in_seg = set(df.loc[df["is_order"] == 0, "custkey"])
        hits = df[(df["is_order"] == 1) & df["custkey"].isin(in_seg)]
        return pa.table({
            "o_orderkey": pa.array(hits["o_orderkey"].to_numpy(np.int64)),
            "date_us": pa.array(hits["date_us"].to_numpy(np.int64)),
            "o_orderpriority": pa.array(
                hits["o_orderpriority"].tolist(), pa.string()
            ),
        })

    seg_orders = (
        cust.map_batches(cust_keys, batch_format="pandas")
        .union(orders.map_batches(order_rows, batch_format="pandas"))
        .map_batches(bucket_cust, batch_format="pyarrow")
        .groupby("part")
        .map_groups(semi, batch_format="pandas")
    )

    # side 3: lineitem revenue partials per orderkey (post-cutoff shipments)
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev_partial(df: pd.DataFrame) -> pa.Table:
        df = df[df["l_shipdate"] > cutoff_ts]
        rev = money_cents(df["l_extendedprice"] * (1 - df["l_discount"]))
        g = df.assign(rev_c=rev).groupby("l_orderkey", as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        return pa.table({
            "o_orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "rev_c": pa.array(g["rev_c"].to_numpy(np.int64)),
            "is_rev": pa.array(np.ones(len(g), np.int8), pa.int8()),
            "date_us": pa.array(np.zeros(len(g), np.int64)),
            "o_orderpriority": pa.array([""] * len(g), pa.string()),
        })

    def order_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return batch.append_column(
            "rev_c", pa.array(np.zeros(n, np.int64))
        ).append_column("is_rev", pa.array(np.zeros(n, np.int8), pa.int8()))

    def bucket_order(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"].to_pylist(), dtype=np.int64)
        parts = ((k // 7) % num_partitions).astype(np.int32)
        return batch.append_column("part2", pa.array(parts, pa.int32()))

    def join_topk(df: pd.DataFrame) -> pa.Table:
        sch = pa.schema([
            ("l_orderkey", pa.int64()), ("rev_c", pa.int64()),
            ("order_date_us", pa.int64()), ("o_orderpriority", pa.string()),
        ])
        if len(df) == 0 or "is_rev" not in df.columns:
            return sch.empty_table()
        left = df[df["is_rev"] == 0][
            ["o_orderkey", "date_us", "o_orderpriority"]
        ]
        right = df[df["is_rev"] == 1].groupby(
            "o_orderkey", as_index=False
        ).agg(rev_c=("rev_c", "sum"))
        m = left.merge(right, on="o_orderkey")
        # all lineitems of an orderkey land in this bucket, so rev_c is the
        # complete revenue: the bucket-local top-N is safe to take here
        m = m.sort_values(
            ["rev_c", "o_orderkey"], ascending=[False, True]
        ).head(top_n)
        return pa.table({
            "l_orderkey": pa.array(m["o_orderkey"].to_numpy(np.int64)),
            "rev_c": pa.array(m["rev_c"].to_numpy(np.int64)),
            "order_date_us": pa.array(m["date_us"].to_numpy(np.int64)),
            "o_orderpriority": pa.array(
                m["o_orderpriority"].tolist(), pa.string()
            ),
        })

    merged = (
        seg_orders.map_batches(order_side, batch_format="pyarrow")
        .union(lineitem.map_batches(rev_partial, batch_format="pandas"))
        .map_batches(bucket_order, batch_format="pyarrow")
        .groupby("part2")
        .map_groups(join_topk, batch_format="pandas")
    )
    top = merged.sort(
        ["rev_c", "l_orderkey"], descending=[True, False]
    ).limit(top_n)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].astype("int64"),
            "revenue": df["rev_c"].astype("int64") / 100.0,
            "order_date_us": df["order_date_us"].astype("int64"),
            "o_orderpriority": df["o_orderpriority"],
        })

    return top.map_batches(finish, batch_format="pandas")


def inactive_customers(sf_dir: str, cutoff: str = "2001-01-01",
                       num_partitions: int | None = None):
    """Distributed ANTI-join: customers with no order since ``cutoff``.

    The orders side collapses to per-batch DISTINCT custkey partials before
    the one bucketed shuffle (hash(custkey) % P), and the anti-semantics run
    as a vectorized isin inside each bucket task — same data movement as a
    shuffle join, output only the non-matching left rows."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    cutoff_ts = pd.Timestamp(cutoff)

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def cust_rows(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "c_mktsegment": pa.array(df["c_mktsegment"].tolist(), pa.string()),
            "is_order": pa.array(np.zeros(len(df), np.int8), pa.int8()),
        })

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )

    def order_keys(df: pd.DataFrame) -> pa.Table:
        keys = df.loc[df["o_orderdate"] >= cutoff_ts, "o_custkey"].unique()
        return pa.table({
            "custkey": pa.array(keys.astype(np.int64)),
            "c_mktsegment": pa.array([""] * len(keys), pa.string()),
            "is_order": pa.array(np.ones(len(keys), np.int8), pa.int8()),
        })

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["custkey"].to_pylist(), dtype=np.int64)
        parts = (k % num_partitions).astype(np.int32)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    def anti(df: pd.DataFrame) -> pa.Table:
        sch = pa.schema([
            ("c_custkey", pa.int64()), ("c_mktsegment", pa.string()),
        ])
        if len(df) == 0 or "is_order" not in df.columns:
            return sch.empty_table()
        active = set(df.loc[df["is_order"] == 1, "custkey"])
        keep = df[(df["is_order"] == 0) & ~df["custkey"].isin(active)]
        return pa.table({
            "c_custkey": pa.array(keep["custkey"].to_numpy(np.int64)),
            "c_mktsegment": pa.array(
                keep["c_mktsegment"].tolist(), pa.string()
            ),
        })

    return (
        cust.map_batches(cust_rows, batch_format="pandas")
        .union(orders.map_batches(order_keys, batch_format="pandas"))
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(anti, batch_format="pandas")
    )


def latest_event_per_user(sf_dir: str, num_partitions: int | None = None):
    """Temporal keep-latest dedup: one surviving row per user_id (max ts,
    ties broken by max event_id). One bucketed hash(user_id) % P shuffle; the
    per-user argmax runs as a vectorized sort + groupby-tail inside each
    bucket task (the user_sessions pattern applied to dedup)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["user_id"].to_pylist(), dtype=np.int64)
        parts = (k % num_partitions).astype(np.int32)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    def keep_latest(df: pd.DataFrame) -> pa.Table:
        sch = pa.schema([
            ("user_id", pa.int64()), ("event_id", pa.int64()),
            ("ts_us", pa.int64()), ("event_type", pa.string()),
            ("value", pa.float64()),
        ])
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        last = df.groupby("user_id", as_index=False).tail(1)
        return pa.table({
            "user_id": pa.array(last["user_id"].to_numpy(np.int64)),
            "event_id": pa.array(last["event_id"].to_numpy(np.int64)),
            "ts_us": pa.array(
                last["ts"].astype("datetime64[us]").astype("int64").to_numpy()
            ),
            "event_type": pa.array(last["event_type"].tolist(), pa.string()),
            "value": pa.array(last["value"].to_numpy(np.float64)),
        })

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(keep_latest, batch_format="pandas")
    )


def events_quarantine(sf_dir: str):
    """Row-level validation with a quarantine side-output (SURVEY.md §2.8
    error model: bad rows route to a typed side table instead of failing the
    job). Rules evaluate in priority order, each row lands under its FIRST
    failing rule: error_event (event_type = 'error'), then value_out_of_range
    (value > 100). Output: the quarantined rows' (event_id, reason) —
    embarrassingly parallel, no shuffle at all."""
    import pyarrow as pa
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )

    def route(df: pd.DataFrame) -> pa.Table:
        is_err = (df["event_type"] == "error").to_numpy()
        is_big = df["value"].to_numpy() > 100.0
        reason = np.where(is_err, "error_event",
                          np.where(is_big, "value_out_of_range", "ok"))
        bad = reason != "ok"
        return pa.table({
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)[bad]),
            "reason": pa.array(reason[bad].tolist(), pa.string()),
        })

    return ds.map_batches(route, batch_format="pandas")


def funnel_conversion(sf_dir: str, window_minutes: int = 7 * 24 * 60,
                      num_partitions: int | None = None):
    """Signup -> purchase funnel: per signup DAY, how many signups saw a
    purchase by the same user within ``window_minutes``.

    Same scale shape as range_join_signup_clicks — one bucketed
    hash(user_id) % P exchange of the two filtered event streams, per-user
    vectorized searchsorted (existence, never a pair expansion) inside each
    bucket — then the bounded day-level partials fold through
    bucketed_sum_combine (days are bounded cardinality; Ray's aggregate
    would pay its fixed setup for nothing)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    win_us = window_minutes * 60_000_000
    day_us = 86_400_000_000
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "user_id", "event_type"],
    )

    tag_and_bucket = _two_type_tag_and_bucket(
        "signup", "purchase", num_partitions, with_event_id=False
    )

    _part_schema = pa.schema([
        ("day_start", pa.int64()), ("n_signups", pa.int64()),
        ("n_converted", pa.int64()),
    ])

    def convert_partials(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return _part_schema.empty_table()
        days, convs = [], []
        for _, g in df.groupby("user_id", sort=False):
            s = g[g["is_left"]]
            if len(s) == 0:
                continue
            buys = np.sort(g[~g["is_left"]]["ts_us"].to_numpy(np.int64))
            ts = s["ts_us"].to_numpy(np.int64)
            hit = (
                np.searchsorted(buys, ts + win_us, side="left")
                - np.searchsorted(buys, ts, side="left")
            ) > 0
            days.append(ts // day_us * 86_400)
            convs.append(hit.astype(np.int64))
        if not days:
            return _part_schema.empty_table()
        part = pd.DataFrame({
            "day_start": np.concatenate(days),
            "conv": np.concatenate(convs),
        }).groupby("day_start", as_index=False).agg(
            n_signups=("conv", "size"), n_converted=("conv", "sum")
        )
        return pa.table({
            "day_start": pa.array(part["day_start"].to_numpy(np.int64)),
            "n_signups": pa.array(part["n_signups"].to_numpy(np.int64)),
            "n_converted": pa.array(part["n_converted"].to_numpy(np.int64)),
        }, schema=_part_schema)

    partials = (
        ds.map_batches(tag_and_bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(convert_partials, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials, keys=["day_start"], sum_cols=["n_signups", "n_converted"],
        schema=_part_schema, num_partitions=num_partitions,
    )


def events_anomaly(sf_dir: str, z_threshold: float = 3.0):
    """Per-event-type z-score outliers: rows whose value sits more than
    ``z_threshold`` sigmas from their type's mean. Two streaming passes:
    (1) per-type moments as INTEGER-CENTS partials (sum and sum-of-squares
    in int64 — exact, summation-order-free) through one bounded combine;
    (2) the tiny moment table broadcast via ray.put, flags computed per
    batch. The z-test itself is the all-integer cross-multiplied form
    evaluated in double — (n*value_c - sum_c)^2 > z^2 * (n*sumsq_c -
    sum_c^2) — so both this and the SQL oracle derive identical doubles
    from identical integers (no accumulated float drift)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )

    def moment_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = money_cents(df["value"])
        g = df.assign(sum_c=vc, sumsq_c=vc * vc, n=1).groupby(
            "event_type", as_index=False
        ).agg(sum_c=("sum_c", "sum"), sumsq_c=("sumsq_c", "sum"),
              n=("n", "sum"))
        return g

    moments = bucketed_sum_combine(
        ds.map_batches(moment_partial, batch_format="pandas"),
        keys=["event_type"], sum_cols=["sum_c", "sumsq_c", "n"],
        schema=pa.schema([
            ("event_type", pa.string()), ("sum_c", pa.int64()),
            ("sumsq_c", pa.int64()), ("n", pa.int64()),
        ]),
    ).to_pandas().set_index("event_type")
    ref = ray.put(moments)
    z2 = z_threshold * z_threshold

    def flag(df: pd.DataFrame) -> pa.Table:
        m = ray.get(ref)
        vc = np.asarray(money_cents(df["value"]), dtype=np.int64)
        n = m["n"].reindex(df["event_type"]).to_numpy(np.float64)
        s = m["sum_c"].reindex(df["event_type"]).to_numpy(np.float64)
        ss = m["sumsq_c"].reindex(df["event_type"]).to_numpy(np.float64)
        # ((v - mean)/sigma)^2 > z^2 cross-multiplied by n^2 sigma^2:
        # (n*v - s)^2 > z^2 * (n*ss - s^2); one algebraic shape on both
        # sides so the doubles agree bit-for-bit
        lhs = (n * vc - s) ** 2
        rhs = z2 * (n * ss - s * s)
        out = lhs > rhs
        return pa.table({
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)[out]),
            "event_type": pa.array(
                df["event_type"].to_numpy(dtype=object)[out].tolist(),
                pa.string(),
            ),
            "value": pa.array(df["value"].to_numpy(np.float64)[out]),
        })

    return ds.map_batches(flag, batch_format="pandas")


def events_rollup(sf_dir: str):
    """ROLLUP-style multi-level aggregate in ONE pass: counts and
    integer-cents value sums at (event_type, hour), (event_type) and ()
    grouping levels, every level pre-aggregated inside the batch before a
    single bounded combine (levels are tagged, so the exchange moves
    3-level partials, not three scans). NULL group keys follow SQL ROLLUP
    ('' stands for NULL at rolled-up levels for a type-stable compare)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hour = df["ts"].dt.floor("h").astype("datetime64[s]").astype("int64")
        base = pd.DataFrame({
            "event_type": df["event_type"],
            "window_start": hour,
            "value_c": money_cents(df["value"]),
            "n": 1,
        })
        lv0 = base.groupby(["event_type", "window_start"], as_index=False)
        lv0 = lv0.agg(n_events=("n", "sum"), sum_c=("value_c", "sum"))
        lv0.insert(0, "level", 0)
        lv1 = base.groupby(["event_type"], as_index=False).agg(
            n_events=("n", "sum"), sum_c=("value_c", "sum")
        )
        lv1.insert(0, "level", 1)
        lv1["window_start"] = -1
        lv2 = pd.DataFrame({
            "level": [2], "event_type": [""], "window_start": [-1],
            "n_events": [int(base["n"].sum())],
            "sum_c": [int(base["value_c"].sum())],
        })
        return pd.concat([lv0, lv1, lv2], ignore_index=True)[
            ["level", "event_type", "window_start", "n_events", "sum_c"]
        ]

    agg = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["level", "event_type", "window_start"],
        sum_cols=["n_events", "sum_c"],
        schema=pa.schema([
            ("level", pa.int64()), ("event_type", pa.string()),
            ("window_start", pa.int64()), ("n_events", pa.int64()),
            ("sum_c", pa.int64()),
        ]),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = df["sum_c"].astype("int64") / 100.0
        return df[["level", "event_type", "window_start", "n_events",
                   "sum_value"]]

    return agg.map_batches(finish, batch_format="pandas")


def user_running_value(sf_dir: str, num_partitions: int | None = None):
    """Windowed running total per user (SUM OVER PARTITION BY user ORDER BY
    ts ROWS UNBOUNDED PRECEDING), in integer cents so the cumulative sums
    are exact. One bucketed hash(user_id) exchange; the cumsum is a
    vectorized sort + groupby-cumsum inside each bucket task."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )


    def running(df: pd.DataFrame) -> pa.Table:
        sch = pa.schema([
            ("event_id", pa.int64()), ("user_id", pa.int64()),
            ("running_value", pa.float64()),
        ])
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cum = df.assign(vc=money_cents(df["value"])).groupby("user_id")[
            "vc"
        ].cumsum()
        return pa.table({
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "running_value": pa.array(
                cum.to_numpy(np.int64) / 100.0, pa.float64()
            ),
        }, schema=sch)

    return (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(running, batch_format="pandas")
    )


def events_lead_lag(sf_dir: str, num_partitions: int | None = None):
    """LAG window per user: for each event, microseconds since the user's
    previous event (-1 for the first) and the exact integer-cents value
    delta (0 for the first). One bucketed hash(user_id) exchange; the lag
    itself is a vectorized in-task sort + groupby.shift — the same single-
    shuffle plan as ``user_running_value``, so it holds at any user count."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )


    sch = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("gap_us", pa.int64()), ("value_delta", pa.float64()),
    ])

    def lag(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        # parquet timestamps are microsecond-resolution; diff in int64 us
        # so the gap is exact (no float seconds)
        ts_us = df["ts"].astype("datetime64[us]").astype("int64")
        vc = pd.Series(money_cents(df["value"]), index=df.index)
        prev_ts = ts_us.groupby(df["user_id"]).shift()
        prev_vc = vc.groupby(df["user_id"]).shift()
        gap = (ts_us - prev_ts).fillna(-1).astype("int64")
        delta = (vc - prev_vc).fillna(0).astype("int64")
        return pa.table({
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "gap_us": pa.array(gap.to_numpy(np.int64)),
            "value_delta": pa.array(
                delta.to_numpy(np.int64) / 100.0, pa.float64()
            ),
        }, schema=sch)

    return (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(lag, batch_format="pandas")
    )


# the synthetic event stream's closed type vocabulary; the pivot asserts it
# so a new type fails loudly instead of silently dropping a column
_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_event_pivot(sf_dir: str):
    """Per-user feature matrix: event counts pivoted into one column per
    event type plus an exact integer-cents total. Classic conditional-
    aggregation pivot: the per-batch crosstab pre-aggregates to (users-in-
    batch x 6) partial rows, so the single bucketed combine moves bounded
    partials, never raw events. The type vocabulary is closed (asserted);
    an open vocabulary would make this a two-pass plan (distinct pass to
    pick columns, then the same pivot)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"],
    )
    cols = [f"n_{t}" for t in _EVENT_TYPES]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        unknown = set(df["event_type"].unique()) - set(_EVENT_TYPES)
        if unknown:
            raise ValueError(f"unknown event types: {sorted(unknown)}")
        out = df.assign(n=1).pivot_table(
            index="user_id", columns="event_type", values="n",
            aggfunc="sum", fill_value=0,
        )
        for t in _EVENT_TYPES:
            if t not in out.columns:
                out[t] = 0
        out = out[list(_EVENT_TYPES)].astype("int64")
        out.columns = cols
        out["spend_c"] = pd.Series(
            money_cents(df["value"]), index=df.index
        ).groupby(df["user_id"]).sum().astype("int64")
        return out.reset_index()

    agg = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["user_id"],
        sum_cols=cols + ["spend_c"],
        schema=pa.schema(
            [("user_id", pa.int64())]
            + [(c, pa.int64()) for c in cols]
            + [("spend_c", pa.int64())]
        ),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["total_value"] = df["spend_c"].astype("int64") / 100.0
        return df[["user_id"] + cols + ["total_value"]]

    return agg.map_batches(finish, batch_format="pandas")


def grouped_median(sf_dir: str):
    """Exact per-type value percentiles (median + p90, percentile_disc
    semantics) WITHOUT a distributed sort: values are integer cents, so the
    per-batch partial is a (event_type, value_c) -> count histogram and the
    single bucketed combine moves one row per distinct (type, cents) pair —
    bounded by the value RANGE, not the event count, at any corpus size.
    The final per-type scan of the merged histogram picks the first value
    whose cumulative count reaches q*N, compared by integer cross-
    multiplication (den*cum >= num*N) so there is no float threshold."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        g = df.assign(value_c=money_cents(df["value"]), n=1).groupby(
            ["event_type", "value_c"], as_index=False
        )["n"].sum()
        return pa.table({
            "event_type": pa.array(g["event_type"].astype(str), pa.string()),
            "value_c": pa.array(g["value_c"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
        })

    hist = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["event_type", "value_c"],
        sum_cols=["n"],
        schema=pa.schema([
            ("event_type", pa.string()), ("value_c", pa.int64()),
            ("n", pa.int64()),
        ]),
    )

    sch = pa.schema([
        ("event_type", pa.string()), ("n_events", pa.int64()),
        ("median_value", pa.float64()), ("p90_value", pa.float64()),
    ])

    def pick(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values("value_c")
        cum = df["n"].cumsum().to_numpy(np.int64)
        vals = df["value_c"].to_numpy(np.int64)
        total = int(cum[-1])

        def disc(num: int, den: int) -> float:
            # first value with cume_dist >= num/den, exactly
            idx = int(np.searchsorted(den * cum, num * total, side="left"))
            return vals[idx] / 100.0

        return pa.table({
            "event_type": pa.array([str(df["event_type"].iloc[0])]),
            "n_events": pa.array([total], pa.int64()),
            "median_value": pa.array([disc(1, 2)], pa.float64()),
            "p90_value": pa.array([disc(9, 10)], pa.float64()),
        }, schema=sch)

    # the histogram is tiny (distinct cents x 5 types); one group per type
    return hist.groupby("event_type").map_groups(pick, batch_format="pandas")


def _user_spend_totals(sf_dir: str):
    """Per-user exact integer-cents spend totals (partial sums -> one
    bucketed combine), MATERIALIZED as the pipeline breaker the rank/ntile
    family shares. Columns: user_id, spend_c."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        g = pd.Series(money_cents(df["value"]), index=df.index).groupby(
            df["user_id"]
        ).sum()
        return pa.table({
            "user_id": pa.array(g.index.to_numpy(np.int64)),
            "spend_c": pa.array(g.to_numpy(np.int64)),
        })

    return bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["user_id"],
        sum_cols=["spend_c"],
        schema=pa.schema([
            ("user_id", pa.int64()), ("spend_c", pa.int64()),
        ]),
    ).materialize()


def _spend_range_offsets(users, range_shift: int | None,
                         col: str = "spend_c"):
    """The range-bucket + offset-broadcast plan shared by the global
    window operators (RANK/CUME_DIST/NTILE): coarse range bucket
    rb = col >> range_shift with the shift DERIVED from the
    materialized max value (~128 buckets over the observed range) unless
    pinned — a fixed shift collapses small ranges into one serial bucket.
    The per-rb count table is tiny (bounded by value RANGE / 2^shift, not
    user count), so the driver cumsums it into per-bucket global-position
    offsets. Returns (range_shift, offsets dict, total rows)."""
    import pyarrow as pa

    from .common import bucketed_sum_combine

    if range_shift is None:
        # the max() runs over the already-materialized user table: one
        # cheap scan
        max_spend = int(users.max(col) or 0)
        range_shift = max(0, max_spend.bit_length() - 7)

    def rb_counts(batch: pa.Table) -> pa.Table:
        rb = np.asarray(
            batch[col].to_pylist(), dtype=np.int64
        ) >> range_shift
        u, c = np.unique(rb, return_counts=True)
        return pa.table({
            "rb": pa.array(u), "n": pa.array(c.astype(np.int64)),
        })

    counts = bucketed_sum_combine(
        users.map_batches(rb_counts, batch_format="pyarrow"),
        keys=["rb"], sum_cols=["n"],
        schema=pa.schema([("rb", pa.int64()), ("n", pa.int64())]),
    ).to_pandas().sort_values("rb")
    total = int(counts["n"].sum())
    cum = counts["n"].cumsum().to_numpy(np.int64)
    offsets = dict(zip(
        counts["rb"].to_numpy(np.int64).tolist(),
        (cum - counts["n"].to_numpy(np.int64)).tolist(),
    ))
    return range_shift, offsets, total


def _append_rb(range_shift: int, col: str = "spend_c"):
    def add_rb(batch):
        import pyarrow as pa

        rb = np.asarray(
            batch[col].to_pylist(), dtype=np.int64
        ) >> range_shift
        return batch.append_column("rb", pa.array(rb.astype(np.int64)))

    return add_rb


def user_spend_rank(sf_dir: str, range_shift: int | None = None):
    """Exact global RANK and CUME_DIST of per-user total spend WITHOUT a
    global sort: the classic range-bucket + offset-broadcast plan
    (`_user_spend_totals` + `_spend_range_offsets`), then one bucketed
    shuffle on rb; each task sorts only its value range and emits
    rank = offset + local strictly-less count + 1 and
    cume_dist = (offset + local less-or-equal count) / N.

    Ties land in the same rb by construction, so both counts are exact.
    A skewed spend distribution concentrates users in few rb buckets —
    lower range_shift (finer buckets) to spread them."""
    import pyarrow as pa

    users = _user_spend_totals(sf_dir)
    range_shift, offsets, total = _spend_range_offsets(users, range_shift)

    sch = pa.schema([
        ("user_id", pa.int64()), ("spend", pa.float64()),
        ("spend_rank", pa.int64()), ("spend_cume", pa.float64()),
    ])

    def rank(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        spend = df["spend_c"].to_numpy(np.int64)
        off = offsets[int(df["rb"].iloc[0])]
        order = np.sort(spend)
        left = np.searchsorted(order, spend, side="left")
        right = np.searchsorted(order, spend, side="right")
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "spend": pa.array(spend / 100.0, pa.float64()),
            "spend_rank": pa.array(off + left + 1),
            "spend_cume": pa.array((off + right) / total, pa.float64()),
        }, schema=sch)

    return (
        users.map_batches(_append_rb(range_shift), batch_format="pyarrow")
        .groupby("rb")
        .map_groups(rank, batch_format="pandas")
    )


def user_spend_ntile(sf_dir: str, n_tiles: int = 10,
                     range_shift: int | None = None):
    """Exact global NTILE(n) of per-user total spend, deterministic order
    (ORDER BY spend_c, user_id — NTILE over bare spend_c would be
    tie-order-dependent and irreproducible across runs). Same
    range-bucket + offset-broadcast plan as ``user_spend_rank``: rows in
    one rb bucket are contiguous in global order, so global row_number =
    driver-cumsum offset + in-task lexsort position, and the tile is pure
    arithmetic from row_number (first N % n tiles get ceil(N/n) rows)."""
    import pyarrow as pa

    users = _user_spend_totals(sf_dir)
    range_shift, offsets, total = _spend_range_offsets(users, range_shift)

    big = total // n_tiles + 1          # size of the first N % n tiles
    small = max(total // n_tiles, 1)
    n_big = total % n_tiles
    cut = n_big * big                   # rows covered by the big tiles

    sch = pa.schema([
        ("user_id", pa.int64()), ("spend", pa.float64()),
        ("tile", pa.int64()),
    ])

    def ntile(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        spend = df["spend_c"].to_numpy(np.int64)
        uid = df["user_id"].to_numpy(np.int64)
        off = offsets[int(df["rb"].iloc[0])]
        order = np.lexsort((uid, spend))
        rn = np.empty(len(df), dtype=np.int64)   # 1-based global row number
        rn[order] = off + np.arange(1, len(df) + 1, dtype=np.int64)
        tile = np.where(
            rn <= cut,
            (rn - 1) // big + 1,
            n_big + (rn - cut - 1) // small + 1,
        )
        return pa.table({
            "user_id": pa.array(uid),
            "spend": pa.array(spend / 100.0, pa.float64()),
            "tile": pa.array(tile.astype(np.int64)),
        }, schema=sch)

    return (
        users.map_batches(_append_rb(range_shift), batch_format="pyarrow")
        .groupby("rb")
        .map_groups(ntile, batch_format="pandas")
    )


def segment_active_customers(sf_dir: str, num_partitions: int | None = None):
    """Distributed SEMI-join (SQL EXISTS): customers with at least one
    order, counted per market segment. Same union + bucketed-shuffle plan
    as the anti-join in ``inactive_customers`` — the orders side collapses
    to per-batch DISTINCT custkey partials first — but keeps the MATCHING
    left rows; the per-segment count then rides one tiny bounded combine."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def cust_rows(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "c_mktsegment": pa.array(df["c_mktsegment"].tolist(), pa.string()),
            "is_order": pa.array(np.zeros(len(df), np.int8), pa.int8()),
        })

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )

    def order_keys(df: pd.DataFrame) -> pa.Table:
        keys = df["o_custkey"].unique()
        return pa.table({
            "custkey": pa.array(keys.astype(np.int64)),
            "c_mktsegment": pa.array([""] * len(keys), pa.string()),
            "is_order": pa.array(np.ones(len(keys), np.int8), pa.int8()),
        })

    def semi(df: pd.DataFrame) -> pa.Table:
        have = set(df.loc[df["is_order"] == 1, "custkey"].unique())
        left = df[df["is_order"] == 0]
        kept = left[left["custkey"].isin(have)]
        g = kept.groupby("c_mktsegment", as_index=False).size()
        return pa.table({
            "c_mktsegment": pa.array(g["c_mktsegment"].astype(str),
                                     pa.string()),
            "n_customers": pa.array(g["size"].to_numpy(np.int64)),
        })

    unioned = (
        cust.map_batches(cust_rows, batch_format="pandas")
        .union(orders.map_batches(order_keys, batch_format="pandas"))
        .map_batches(append_mod_part, batch_format="pyarrow",
                     fn_args=("custkey", num_partitions))
    )
    partials = unioned.groupby("part").map_groups(semi, batch_format="pandas")
    return bucketed_sum_combine(
        partials, keys=["c_mktsegment"], sum_cols=["n_customers"],
        schema=pa.schema([
            ("c_mktsegment", pa.string()), ("n_customers", pa.int64()),
        ]),
    )


def _user_day_flags(sf_dir: str):
    """Per-(user, day) (has_click, has_purchase) 0/1 flag table in ONE scan
    + one bucketed max-combine — the shared plan under the EXCEPT
    (``clickers_no_purchase``) and INTERSECT (``clickers_and_purchasers``)
    set operators; only the final filter differs."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        day = (
            df["ts"].dt.floor("d").astype("datetime64[s]").astype("int64")
        )
        flags = pd.DataFrame({
            "user_id": df["user_id"],
            "day_start": day,
            "has_click": (df["event_type"] == "click").astype("int64"),
            "has_purchase": (df["event_type"] == "purchase").astype("int64"),
        }).groupby(["user_id", "day_start"], as_index=False).max()
        return pa.table({
            "user_id": pa.array(flags["user_id"].to_numpy(np.int64)),
            "day_start": pa.array(flags["day_start"].to_numpy(np.int64)),
            "has_click": pa.array(flags["has_click"].to_numpy(np.int64)),
            "has_purchase": pa.array(
                flags["has_purchase"].to_numpy(np.int64)
            ),
        })

    return bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["user_id", "day_start"],
        sum_cols=["has_click", "has_purchase"],
        schema=pa.schema([
            ("user_id", pa.int64()), ("day_start", pa.int64()),
            ("has_click", pa.int64()), ("has_purchase", pa.int64()),
        ]),
        how="max",
    )


def _flag_filter(want_purchase: int):
    def keep(batch):
        import pyarrow as pa

        df = batch.to_pandas()
        out = df[(df["has_click"] == 1)
                 & (df["has_purchase"] == want_purchase)]
        return pa.table({
            "user_id": pa.array(out["user_id"].to_numpy(np.int64)),
            "day_start": pa.array(out["day_start"].to_numpy(np.int64)),
        })

    return keep


def clickers_no_purchase(sf_dir: str):
    """SQL EXCEPT as ONE scan: (user, day) pairs that saw a click but no
    purchase. Instead of the oracle's two distinct scans + set difference,
    every batch emits per-(user, day) 0/1 flag partials and a single
    max-combine + filter resolves the set op (``_user_day_flags``)."""
    return _user_day_flags(sf_dir).map_batches(
        _flag_filter(0), batch_format="pyarrow"
    )


def clickers_and_purchasers(sf_dir: str):
    """SQL INTERSECT as ONE scan: (user, day) pairs that saw BOTH a click
    and a purchase — the same flag-table plan as ``clickers_no_purchase``,
    filter flipped where the aggregate lands."""
    return _user_day_flags(sf_dir).map_batches(
        _flag_filter(1), batch_format="pyarrow"
    )


def power_users(sf_dir: str, min_events: int = 50, min_spend: float = 100.0):
    """SQL HAVING: users filtered by their own aggregates (event count >=
    min_events AND exact integer-cents spend >= min_spend). Per-batch
    partials -> one bucketed combine -> vectorized post-filter; the filter
    runs where the aggregate lands, so nothing re-shuffles."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    # half-up like every money conversion in the repo (round() is half-even)
    min_spend_c = int(np.floor(min_spend * 100 + 0.5))
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        g = pd.DataFrame({
            "user_id": df["user_id"],
            "n_events": 1,
            "spend_c": money_cents(df["value"]),
        }).groupby("user_id", as_index=False).sum()
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
            "n_events": pa.array(g["n_events"].to_numpy(np.int64)),
            "spend_c": pa.array(g["spend_c"].to_numpy(np.int64)),
        })

    agg = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["user_id"], sum_cols=["n_events", "spend_c"],
        schema=pa.schema([
            ("user_id", pa.int64()), ("n_events", pa.int64()),
            ("spend_c", pa.int64()),
        ]),
    )

    def having(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[(df["n_events"] >= min_events)
                & (df["spend_c"] >= min_spend_c)]
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "n_events": pa.array(df["n_events"].to_numpy(np.int64)),
            "spend": pa.array(
                df["spend_c"].to_numpy(np.int64) / 100.0, pa.float64()
            ),
        })

    return agg.map_batches(having, batch_format="pyarrow")


def value_quantile_sketch(sf_dir: str, k: int = 4096,
                          qs=(250, 500, 900, 990), n_sigma: float = 4.0):
    """Quantile sketch for an UNBOUNDED value domain (the bounded-domain
    exact path is ``grouped_median``'s cents histogram): a deterministic
    bottom-k sample — every row gets a uniform uint64 priority from a
    multiply-mixed hash of its event_id, each block keeps its k smallest
    (priority, value) pairs, and bottom-k is re-applied at the merge, which
    makes the sketch mergeable and the final sample an exact uniform
    k-sample without replacement. Quantile estimates read off the sorted
    sample; a second exact pass counts rank(value <= estimate) and gates
    |rank/N - q| <= n_sigma * sqrt(q(1-q)/k) (the HLL/CMS gate pattern —
    a sampling or merge regression blows through a 4-sigma band).

    Output is the SQL-checkable projection (q_milli, n_total, rank_ok);
    the estimate itself is data-dependent and rides the gate instead."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )

    def bottom_k(batch: pa.Table) -> pa.Table:
        h = mix64(np.asarray(batch["event_id"].to_pylist(), dtype=np.uint64))
        vals = np.asarray(batch["value"].to_pylist(), dtype=np.float64)
        if len(h) > k:
            idx = np.argpartition(h, k)[:k]
            h, vals = h[idx], vals[idx]
        return pa.table({
            "priority": pa.array(h.view(np.int64)),
            "value": pa.array(vals, pa.float64()),
        })

    # merge = global bottom-k over <= k x blocks partial rows (tiny); the
    # int64 view keeps priority ordering because the top bit is uniform —
    # sort on the uint64 meaning via two-key trick: sign splits the range
    partials = ds.map_batches(bottom_k, batch_format="pyarrow")

    def view_u64(batch: pa.Table) -> pa.Table:
        p = np.asarray(batch["priority"].to_pylist(), dtype=np.int64)
        key = u64_sort_key(p.view(np.uint64))
        return batch.append_column("sort_key", pa.array(key))

    sample = (
        partials.map_batches(view_u64, batch_format="pyarrow")
        .sort("sort_key").limit(k).to_pandas()
    )
    svals = np.sort(sample["value"].to_numpy(np.float64))
    k_eff = len(svals)

    # one exact pass: per-q count of value <= estimate, plus the total
    # percentile_disc position: 1-indexed ceil(q*k) -> 0-indexed - 1
    ests = {
        q: float(svals[min(k_eff - 1,
                           max(0, int(np.ceil(q / 1000 * k_eff)) - 1))])
        for q in qs
    }

    def rank_partial(batch: pa.Table, e=ests) -> pa.Table:
        vals = np.asarray(batch["value"].to_pylist(), dtype=np.float64)
        return pa.table({
            "q_milli": pa.array(sorted(e), pa.int64()),
            "n_le": pa.array(
                [int((vals <= e[q]).sum()) for q in sorted(e)], pa.int64()
            ),
            "n_rows": pa.array(
                [len(vals)] * len(e), pa.int64()
            ),
        })

    agg = bucketed_sum_combine(
        ds.map_batches(rank_partial, batch_format="pyarrow"),
        keys=["q_milli"], sum_cols=["n_le", "n_rows"],
        schema=pa.schema([
            ("q_milli", pa.int64()), ("n_le", pa.int64()),
            ("n_rows", pa.int64()),
        ]),
    )

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        q = df["q_milli"].to_numpy(np.int64) / 1000.0
        n = df["n_rows"].to_numpy(np.int64)
        rank = df["n_le"].to_numpy(np.int64) / n
        # the sampling band, floored at the rank RESOLUTION: the estimate
        # is one order statistic, so rank is only defined to ~1/N (ties at
        # the boundary add a little more)
        tol = np.maximum(n_sigma * np.sqrt(q * (1 - q) / k_eff), 3.0 / n)
        ok = (np.abs(rank - q) <= tol).astype("int64")
        return pd.DataFrame({
            "q_milli": df["q_milli"].astype("int64"),
            "n_total": df["n_rows"].astype("int64"),
            "rank_ok": pd.Series(ok, dtype="int64"),
        })

    return agg.map_batches(gate, batch_format="pandas")


# ---------------------------------------------------------------------------
# Bloom-prefiltered semi-join (the join-pushdown pattern)
# ---------------------------------------------------------------------------


def bloom_semi_join(sf_dir: str, segment: str = "BUILDING",
                    m_bits: int = 1 << 20,
                    num_partitions: int | None = None):
    """Order count and exact-cents revenue, by order status, of orders
    placed by customers in one market segment — a SEMI-join computed with
    a Bloom-filter pushdown, the join pattern that matters at 100 TB:

      1. BUILD: the segment customers stream into per-block Bloom BITMAP
         partials — each a fixed 128 KiB binary row (m_bits=2^20, k=2
         mix64 probes) regardless of how many keys the block held;
      2. MERGE: the driver OR-merges the <= #blocks partials (a bounded
         streaming reduction, like the connected-components convergence
         scalar — never the key set itself) and ships the one bitmap with
         ray.put;
      3. PROBE: orders test membership vectorized inside map_batches and
         drop non-members BEFORE any shuffle — the bucketed exact
         semi-join that removes Bloom false positives then moves only
         ~|matches| + FP rows, not the whole orders table;
      4. the exact pass re-uses the union + bucketed-shuffle plan of
         ``segment_active_customers``, and the per-status totals ride one
         bounded combine.

    The Bloom regime: a build side too big to broadcast as an exact hash
    set still fits as a bitmap (10^9 keys at ~10 bits/key = 1.25 GB vs
    tens of GB of set overhead); the false-positive tax is paid in the
    exact pass, never in correctness. Result is exactly the SQL EXISTS
    aggregate (oracle-checked); a unit test pins zero false negatives.
    """
    import ray
    import ray.data as rd
    import pyarrow as pa

    from ..functions.vectorized import bloom_test
    from .common import bloom_bitmap, bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def seg_keys(df: pd.DataFrame) -> pa.Table:
        keys = df.loc[
            df["c_mktsegment"] == segment, "c_custkey"
        ].unique().astype(np.int64)
        return pa.table({"k": pa.array(keys.astype(np.uint64), pa.uint64())})

    # ONE customer scan: the materialized segment-key set feeds both the
    # bitmap build and the exact pass's union side
    seg_set = cust.map_batches(seg_keys, batch_format="pandas").materialize()
    bloom_ref = ray.put(bloom_bitmap(seg_set, "k", m_bits))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderstatus", "o_totalprice"],
    )

    def probe(df: pd.DataFrame) -> pa.Table:
        bm = ray.get(bloom_ref)
        keys = df["o_custkey"].to_numpy(np.int64)
        kept = df[bloom_test(bm, keys.astype(np.uint64), m_bits)]
        return pa.table({
            "custkey": pa.array(kept["o_custkey"].to_numpy(np.int64)),
            "o_orderstatus": pa.array(
                kept["o_orderstatus"].tolist(), pa.string()
            ),
            "price_c": pa.array(money_cents(kept["o_totalprice"])),
            "is_cust": pa.array(np.zeros(len(kept), np.int8), pa.int8()),
        })

    def cust_keys(batch: pa.Table) -> pa.Table:
        keys = np.asarray(
            batch["k"].to_pylist(), dtype=np.uint64
        ).astype(np.int64)
        return pa.table({
            "custkey": pa.array(keys),
            "o_orderstatus": pa.array([""] * len(keys), pa.string()),
            "price_c": pa.array(np.zeros(len(keys), np.int64)),
            "is_cust": pa.array(np.ones(len(keys), np.int8), pa.int8()),
        })

    def exact_semi(df: pd.DataFrame) -> pa.Table:
        have = set(df.loc[df["is_cust"] == 1, "custkey"].unique())
        left = df[df["is_cust"] == 0]
        kept = left[left["custkey"].isin(have)]
        g = kept.groupby("o_orderstatus", as_index=False).agg(
            n_orders=("custkey", "size"), revenue_c=("price_c", "sum"),
        )
        return pa.table({
            "o_orderstatus": pa.array(
                g["o_orderstatus"].astype(str), pa.string()
            ),
            "n_orders": pa.array(g["n_orders"].to_numpy(np.int64)),
            "revenue_c": pa.array(g["revenue_c"].to_numpy(np.int64)),
        })

    unioned = (
        orders.map_batches(probe, batch_format="pandas")
        .union(seg_set.map_batches(cust_keys, batch_format="pyarrow"))
        .map_batches(append_mod_part, batch_format="pyarrow",
                     fn_args=("custkey", num_partitions))
    )
    partials = unioned.groupby("part").map_groups(
        exact_semi, batch_format="pandas"
    )
    return bucketed_sum_combine(
        partials, keys=["o_orderstatus"], sum_cols=["n_orders", "revenue_c"],
        schema=pa.schema([
            ("o_orderstatus", pa.string()), ("n_orders", pa.int64()),
            ("revenue_c", pa.int64()),
        ]),
    )


def event_transitions(sf_dir: str, num_partitions: int | None = None):
    """Markov transition counts over each user's temporally ordered event
    stream: global count per (prev_type, next_type) pair — the sequence-
    mining primitive (user-journey matrix). ONE bucketed hash(user_id)
    exchange (every transition is user-local, the events_lead_lag plan);
    the in-task sort + groupby.shift emits bounded (5x5) pair partials
    that ride the small combine. SQL-checkable against a LAG window."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def pairs(df: pd.DataFrame) -> pa.Table:
        sch = pa.schema([
            ("prev_type", pa.string()), ("next_type", pa.string()),
            ("n", pa.int64()),
        ])
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = df.groupby("user_id")["event_type"].shift()
        g = (
            pd.DataFrame({"prev_type": prev, "next_type": df["event_type"]})
            .dropna()
            .groupby(["prev_type", "next_type"], as_index=False)
            .size().rename(columns={"size": "n"})
        )
        return pa.table({
            "prev_type": pa.array(g["prev_type"].astype(str), pa.string()),
            "next_type": pa.array(g["next_type"].astype(str), pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
        }, schema=sch)

    partials = (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(pairs, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials, keys=["prev_type", "next_type"], sum_cols=["n"],
        schema=pa.schema([
            ("prev_type", pa.string()), ("next_type", pa.string()),
            ("n", pa.int64()),
        ]),
    )


def table_profile(sf_dir: str, num_partitions: int | None = None):
    """Single-read column profile of the events table — the ingest-
    validation primitive (what a 100-TB loader runs before anything else):
    per column, row count, null count, EXACT distinct count, and min/max
    in the engine's canonical forms (int64 for ids, integer cents for
    money, epoch microseconds for timestamps, raw strings for text — the
    same canonicalizations every oracle here pins).

    Two bounded exchanges, one table scan feeding both:
      1. per-batch stats partials (one row per column: counts + typed
         min/max) ride a tiny column-bucketed aggregate;
      2. exact distincts: per-batch (col, canonical value) dedup ->
         one crc32(col:value) exchange -> in-task dedup -> per-col count
         partials -> the small combine (the events_hourly_users plan —
         value payload shrinks at the batch, never a full-column shuffle).
    The read is materialized once as the pipeline breaker both consumers
    share (two lazy executions would re-read the table from storage);
    the <= #columns result rows assemble on the driver."""
    import zlib

    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    ds = rd.read_parquet(f"{sf_dir}/events.parquet").materialize()

    # canonical int64 / string views per column (None = string column)
    def canon_cols(df: pd.DataFrame) -> dict:
        ts = df["ts"].astype("datetime64[us]")
        ts_i = pd.Series(
            ts.values.view("int64"), index=df.index
        ).astype("Int64")
        ts_i[ts.isna()] = pd.NA
        return {
            "event_id": df["event_id"].astype("Int64"),
            "user_id": df["user_id"].astype("Int64"),
            "ts": ts_i,
            "value": pd.Series(
                np.floor(df["value"] * 100 + 0.5), index=df.index
            ).astype("Int64"),
            "event_type": df["event_type"],
            "props": df["props"],
        }

    _INT_COLS = ("event_id", "user_id", "ts", "value")
    stats_sch = pa.schema([
        ("col", pa.string()), ("n_rows", pa.int64()), ("n_nulls", pa.int64()),
        ("min_i", pa.int64()), ("max_i", pa.int64()),
        ("min_s", pa.string()), ("max_s", pa.string()),
    ])

    def stats_partial(df: pd.DataFrame) -> pa.Table:
        rows = []
        for col, s in canon_cols(df).items():
            nn = int(s.isna().sum())
            v = s.dropna()
            if col in _INT_COLS:
                mn_i = int(v.min()) if len(v) else None
                mx_i = int(v.max()) if len(v) else None
                mn_s = mx_s = None
            else:
                mn_i = mx_i = None
                mn_s = str(v.min()) if len(v) else None
                mx_s = str(v.max()) if len(v) else None
            rows.append((col, len(df), nn, mn_i, mx_i, mn_s, mx_s))
        cols = list(zip(*rows))
        return pa.table({
            "col": pa.array(cols[0], pa.string()),
            "n_rows": pa.array(cols[1], pa.int64()),
            "n_nulls": pa.array(cols[2], pa.int64()),
            "min_i": pa.array(cols[3], pa.int64()),
            "max_i": pa.array(cols[4], pa.int64()),
            "min_s": pa.array(cols[5], pa.string()),
            "max_s": pa.array(cols[6], pa.string()),
        }, schema=stats_sch)

    def stats_bucket(batch: pa.Table) -> pa.Table:
        parts = np.fromiter(
            (zlib.crc32(c.encode()) % num_partitions
             for c in batch["col"].to_pylist()),
            dtype=np.int32, count=batch.num_rows,
        )
        return batch.append_column("part", pa.array(parts, pa.int32()))

    def stats_fold(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return stats_sch.empty_table()

        def _fold(how):
            def f(s):
                v = s.dropna()
                return getattr(v, how)() if len(v) else None
            return f

        g = df.groupby("col", as_index=False).agg(
            n_rows=("n_rows", "sum"), n_nulls=("n_nulls", "sum"),
            min_i=("min_i", _fold("min")), max_i=("max_i", _fold("max")),
            min_s=("min_s", _fold("min")), max_s=("max_s", _fold("max")),
        )
        return pa.table({
            "col": pa.array(g["col"].astype(str), pa.string()),
            "n_rows": pa.array(g["n_rows"].to_numpy(np.int64)),
            "n_nulls": pa.array(g["n_nulls"].to_numpy(np.int64)),
            "min_i": pa.array(g["min_i"].astype("Int64"), pa.int64(),
                              from_pandas=True),
            "max_i": pa.array(g["max_i"].astype("Int64"), pa.int64(),
                              from_pandas=True),
            "min_s": pa.array(
                [None if pd.isna(x) else str(x) for x in g["min_s"]],
                pa.string()),
            "max_s": pa.array(
                [None if pd.isna(x) else str(x) for x in g["max_s"]],
                pa.string()),
        }, schema=stats_sch)

    stats = (
        ds.map_batches(stats_partial, batch_format="pandas")
        .map_batches(stats_bucket, batch_format="pyarrow")
        .groupby("part").map_groups(stats_fold, batch_format="pandas")
        .to_pandas()
    )

    dv_sch = pa.schema([("col", pa.string()), ("v", pa.string())])

    def distinct_partial(df: pd.DataFrame) -> pa.Table:
        cs, vs = [], []
        for col, s in canon_cols(df).items():
            u = s.dropna().unique()
            cs.extend([col] * len(u))
            vs.extend(str(x) for x in u)
        parts = np.fromiter(
            (zlib.crc32(f"{c}:{v}".encode()) % num_partitions
             for c, v in zip(cs, vs)),
            dtype=np.int32, count=len(cs),
        )
        return pa.table({
            "col": pa.array(cs, pa.string()), "v": pa.array(vs, pa.string()),
            "part": pa.array(parts, pa.int32()),
        })

    def distinct_count(df: pd.DataFrame) -> pa.Table:
        g = df.drop_duplicates(["col", "v"]).groupby(
            "col", as_index=False
        ).size().rename(columns={"size": "n_distinct"})
        return pa.table({
            "col": pa.array(g["col"].astype(str), pa.string()),
            "n_distinct": pa.array(g["n_distinct"].to_numpy(np.int64)),
        })

    distinct = bucketed_sum_combine(
        ds.map_batches(distinct_partial, batch_format="pandas")
        .groupby("part").map_groups(distinct_count, batch_format="pandas"),
        keys=["col"], sum_cols=["n_distinct"],
        schema=pa.schema([
            ("col", pa.string()), ("n_distinct", pa.int64()),
        ]),
        num_partitions=num_partitions,
    ).to_pandas()

    out = stats.merge(distinct, on="col", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    return out[[
        "col", "n_rows", "n_nulls", "n_distinct",
        "min_i", "max_i", "min_s", "max_s",
    ]].sort_values("col").reset_index(drop=True)


def user_trailing_window(sf_dir: str, window_us: int = 3_600_000_000,
                         num_partitions: int | None = None):
    """RANGE-frame window: per event, the exact integer-cents sum and
    count of the SAME user's events in the trailing hour
    (``RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW`` — a
    value-based frame, unlike the ROWS frames of ``user_running_value``).
    One bucketed hash(user_id) exchange; in-task: sort by ts, one prefix
    cumsum, two vectorized searchsorted calls per group — O(n log n),
    never a per-row rescan. RANGE frames include ts PEERS on both ends
    (side='right' on the current ts), matching the SQL semantics
    exactly."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    sch = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("trailing_sum", pa.float64()), ("trailing_n", pa.int64()),
    ])

    def window(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        vc = money_cents(df["value"])
        out_sum = np.empty(len(df), dtype=np.int64)
        out_n = np.empty(len(df), dtype=np.int64)
        uid = df["user_id"].to_numpy(np.int64)
        # per-user contiguous slices after the sort
        bounds = np.flatnonzero(np.diff(uid)) + 1
        for lo_i, hi_i in zip(
            np.concatenate([[0], bounds]),
            np.concatenate([bounds, [len(df)]]),
        ):
            t = ts_us[lo_i:hi_i]
            v = vc[lo_i:hi_i]
            csum = np.concatenate([[0], np.cumsum(v)])
            lo = np.searchsorted(t, t - window_us, side="left")
            hi = np.searchsorted(t, t, side="right")  # include ts peers
            out_sum[lo_i:hi_i] = csum[hi] - csum[lo]
            out_n[lo_i:hi_i] = hi - lo
        return pa.table({
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
            "user_id": pa.array(uid),
            "trailing_sum": pa.array(out_sum / 100.0, pa.float64()),
            "trailing_n": pa.array(out_n),
        }, schema=sch)

    return (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(window, batch_format="pandas")
    )


def events_cube(sf_dir: str):
    """CUBE-style multi-level aggregate in ONE pass: counts and integer-
    cents value sums at all four grouping levels of (event_type, day) —
    (type, day), (type), (day), () — every level pre-aggregated inside the
    batch before a single bounded combine. Extends the ROLLUP plan
    (``events_rollup``) with the cross level SQL ROLLUP omits; the exchange
    still moves 4-level partials bounded by |types| x |days|, never raw
    events. '' / -1 stand for NULL keys at rolled-up levels."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].dt.floor("D").astype("datetime64[s]").astype("int64")
        base = pd.DataFrame({
            "event_type": df["event_type"],
            "day_start": day,
            "value_c": money_cents(df["value"]),
            "n": 1,
        })
        levels = []
        for level, keys in enumerate(
            (["event_type", "day_start"], ["event_type"], ["day_start"])
        ):
            g = base.groupby(keys, as_index=False).agg(
                n_events=("n", "sum"), sum_c=("value_c", "sum")
            )
            g.insert(0, "level", level)
            if "event_type" not in keys:
                g["event_type"] = ""
            if "day_start" not in keys:
                g["day_start"] = -1
            levels.append(g)
        levels.append(pd.DataFrame({
            "level": [3], "event_type": [""], "day_start": [-1],
            "n_events": [int(base["n"].sum())],
            "sum_c": [int(base["value_c"].sum())],
        }))
        return pd.concat(levels, ignore_index=True)[
            ["level", "event_type", "day_start", "n_events", "sum_c"]
        ]

    agg = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["level", "event_type", "day_start"],
        sum_cols=["n_events", "sum_c"],
        schema=pa.schema([
            ("level", pa.int64()), ("event_type", pa.string()),
            ("day_start", pa.int64()), ("n_events", pa.int64()),
            ("sum_c", pa.int64()),
        ]),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = df["sum_c"].astype("int64") / 100.0
        return df[["level", "event_type", "day_start", "n_events",
                   "sum_value"]]

    return agg.map_batches(finish, batch_format="pandas")


def user_rows_window(sf_dir: str, frame_rows: int = 3,
                     num_partitions: int | None = None):
    """ROWS-frame trailing window per user: exact integer-cents sum and
    in-frame row count over the last ``frame_rows`` events (SQL ROWS
    BETWEEN frame_rows-1 PRECEDING AND CURRENT ROW, ordered by
    (ts, event_id)). Complements ``user_trailing_window`` (the RANGE/time
    frame): the same single bucketed hash(user_id) exchange, with the
    frame itself a vectorized cumsum-minus-shifted-cumsum inside each
    bucket task — O(n) per bucket, no per-row loop."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    sch = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("n_in_frame", pa.int64()), ("frame_sum", pa.float64()),
    ])

    def frame(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        vc = pd.Series(money_cents(df["value"]), index=df.index)
        cum = vc.groupby(df["user_id"]).cumsum()
        lag = cum.groupby(df["user_id"]).shift(frame_rows).fillna(0)
        pos = df.groupby("user_id").cumcount()
        n_in = np.minimum(pos.to_numpy(np.int64) + 1, frame_rows)
        return pa.table({
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "n_in_frame": pa.array(n_in),
            "frame_sum": pa.array(
                (cum - lag).to_numpy(np.int64) / 100.0, pa.float64()
            ),
        }, schema=sch)

    return (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(frame, batch_format="pandas")
    )


def cohort_retention(sf_dir: str, num_partitions: int | None = None):
    """Weekly cohort retention matrix: users cohorted by the Monday-
    anchored week of their FIRST event; each cell counts distinct users of
    cohort week W active in week W+offset. Plan: per-batch distinct
    (user, week) pre-aggregation (shrinks raw events to at most
    users x weeks rows) -> ONE bucketed hash(user_id) exchange — each task
    then owns every week of its users, so first-week and offsets are exact
    in-task and per-user distinctness is free — -> per-task partial cell
    counts -> one bounded combine over (cohort_week, week_offset)
    (≤ |weeks|^2/2 cells, corpus-size-independent)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def uw_partial(df: pd.DataFrame) -> pa.Table:
        ts = df["ts"]
        # Monday-anchored week start (DuckDB date_trunc('week') semantics)
        week = ts.dt.normalize() - pd.to_timedelta(ts.dt.dayofweek, unit="D")
        week_s = week.astype("datetime64[s]").astype("int64")
        g = pd.DataFrame({
            "user_id": df["user_id"], "week": week_s,
        }).drop_duplicates()
        u = g["user_id"].to_numpy(np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "week": pa.array(g["week"].to_numpy(np.int64)),
            "part": pa.array(
                (u % num_partitions).astype(np.int32), pa.int32()
            ),
        })

    cell_sch = pa.schema([
        ("cohort_week", pa.int64()), ("week_offset", pa.int64()),
        ("n_users", pa.int64()),
    ])

    def cells(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return cell_sch.empty_table()
        df = df.drop_duplicates(["user_id", "week"])
        first = df.groupby("user_id")["week"].transform("min")
        out = pd.DataFrame({
            "cohort_week": first,
            "week_offset": (df["week"] - first) // 604800,
        }).groupby(["cohort_week", "week_offset"], as_index=False).size()
        return pa.table({
            "cohort_week": pa.array(out["cohort_week"].to_numpy(np.int64)),
            "week_offset": pa.array(out["week_offset"].to_numpy(np.int64)),
            "n_users": pa.array(out["size"].to_numpy(np.int64)),
        }, schema=cell_sch)

    partials = (
        ds.map_batches(uw_partial, batch_format="pandas")
        .groupby("part")
        .map_groups(cells, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials,
        keys=["cohort_week", "week_offset"],
        sum_cols=["n_users"],
        schema=cell_sch,
    )


def daily_orders_purchases_balance(sf_dir: str,
                                   num_partitions: int | None = None):
    """FULL OUTER JOIN across two tables: per-day order counts (orders)
    against per-day purchase-event counts (events) — days present on only
    one side survive with 0 on the other (the TPC-H order dates and the
    event stream barely overlap, so the outer-ness is real). Because both
    sides aggregate to additive per-day counts first, the outer join IS a
    union of side-tagged partials + one bounded combine: no join operator,
    no NULL handling, nothing day-sized on the driver — the cheapest
    correct plan for an outer join of aggregates at any scale."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    side_sch = pa.schema([
        ("day_start", pa.int64()), ("n_orders", pa.int64()),
        ("n_purchases", pa.int64()),
    ])

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate"]
    )
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def order_partial(df: pd.DataFrame) -> pa.Table:
        day = (
            df["o_orderdate"].dt.floor("D")
            .astype("datetime64[s]").astype("int64")
        )
        g = day.value_counts().sort_index()
        return pa.table({
            "day_start": pa.array(g.index.to_numpy(np.int64)),
            "n_orders": pa.array(g.to_numpy(np.int64)),
            "n_purchases": pa.array(np.zeros(len(g), np.int64)),
        }, schema=side_sch)

    def purchase_partial(df: pd.DataFrame) -> pa.Table:
        sel = df[df["event_type"] == "purchase"]
        day = sel["ts"].dt.floor("D").astype("datetime64[s]").astype("int64")
        g = day.value_counts().sort_index()
        return pa.table({
            "day_start": pa.array(g.index.to_numpy(np.int64)),
            "n_orders": pa.array(np.zeros(len(g), np.int64)),
            "n_purchases": pa.array(g.to_numpy(np.int64)),
        }, schema=side_sch)

    partials = orders.map_batches(
        order_partial, batch_format="pandas"
    ).union(events.map_batches(purchase_partial, batch_format="pandas"))
    return bucketed_sum_combine(
        partials,
        keys=["day_start"],
        sum_cols=["n_orders", "n_purchases"],
        schema=side_sch,
        num_partitions=num_partitions,
    )


def grouped_p90_cont(sf_dir: str):
    """Exact per-type interpolated p90 (percentile_cont semantics) without
    a distributed sort: the same cents-histogram plan as ``grouped_median``
    (per-batch (type, cents)->count partials, one bounded combine), but the
    final pick interpolates between the two bracketing order statistics.
    All arithmetic stays integer until ONE final division — the interp in
    tenth-cents is 10*v_lo + frac*(v_hi - v_lo) with frac = (9*(N-1)) mod
    10 — so the Ray result and a SQL oracle mirroring the same integer
    formula are bit-identical doubles (no percentile_cont float drift)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        g = df.assign(value_c=money_cents(df["value"]), n=1).groupby(
            ["event_type", "value_c"], as_index=False
        )["n"].sum()
        return pa.table({
            "event_type": pa.array(g["event_type"].astype(str), pa.string()),
            "value_c": pa.array(g["value_c"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
        })

    hist = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["event_type", "value_c"],
        sum_cols=["n"],
        schema=pa.schema([
            ("event_type", pa.string()), ("value_c", pa.int64()),
            ("n", pa.int64()),
        ]),
    )

    sch = pa.schema([
        ("event_type", pa.string()), ("n_events", pa.int64()),
        ("p90_cont", pa.float64()),
    ])

    def pick(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values("value_c")
        cum = df["n"].cumsum().to_numpy(np.int64)
        vals = df["value_c"].to_numpy(np.int64)
        total = int(cum[-1])
        # zero-indexed h = 0.9 * (N - 1); lo = floor(h), frac = 10*(h - lo)
        lo, frac = divmod(9 * (total - 1), 10)
        v_lo = int(vals[np.searchsorted(cum, lo + 1, side="left")])
        hi = min(lo + 1, total - 1)
        v_hi = int(vals[np.searchsorted(cum, hi + 1, side="left")])
        tenth_cents = 10 * v_lo + frac * (v_hi - v_lo)
        return pa.table({
            "event_type": pa.array([str(df["event_type"].iloc[0])]),
            "n_events": pa.array([total], pa.int64()),
            "p90_cont": pa.array([tenth_cents / 1000.0], pa.float64()),
        }, schema=sch)

    # the merged histogram is tiny (distinct cents x 5 types)
    return hist.groupby("event_type").map_groups(pick, batch_format="pandas")


def user_first_last(sf_dir: str, num_partitions: int | None = None):
    """FIRST_VALUE / LAST_VALUE per partition: each user's first and last
    event (by ts, event_id) with its type and value — the classic
    sort-free arg-min/arg-max plan. Each batch pre-reduces to AT MOST two
    candidate rows per user (its local first and last), so the single
    bucketed hash(user_id) exchange moves O(users x blocks) slim rows,
    never the event stream; the in-task pick is a sorted head/tail."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    cand_sch = pa.schema([
        ("user_id", pa.int64()), ("ts_us", pa.int64()),
        ("event_id", pa.int64()), ("event_type", pa.string()),
        ("value", pa.float64()), ("part", pa.int32()),
    ])

    def candidates(df: pd.DataFrame) -> pa.Table:
        df = df.assign(
            ts_us=df["ts"].astype("datetime64[us]").astype("int64")
        ).sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        g = df.groupby("user_id", sort=False)
        sel = pd.concat([g.head(1), g.tail(1)]).drop_duplicates(
            ["user_id", "ts_us", "event_id"]
        )
        u = sel["user_id"].to_numpy(np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "ts_us": pa.array(sel["ts_us"].to_numpy(np.int64)),
            "event_id": pa.array(sel["event_id"].to_numpy(np.int64)),
            "event_type": pa.array(sel["event_type"].astype(str)),
            "value": pa.array(sel["value"].to_numpy(np.float64)),
            "part": pa.array(
                (u % num_partitions).astype(np.int32), pa.int32()
            ),
        }, schema=cand_sch)

    out_sch = pa.schema([
        ("user_id", pa.int64()),
        ("first_event_id", pa.int64()), ("first_type", pa.string()),
        ("first_value", pa.float64()),
        ("last_event_id", pa.int64()), ("last_type", pa.string()),
        ("last_value", pa.float64()),
    ])

    def pick(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        df = df.sort_values(["user_id", "ts_us", "event_id"],
                            kind="mergesort")
        g = df.groupby("user_id", sort=False)
        f, l = g.head(1).set_index("user_id"), g.tail(1).set_index("user_id")
        return pa.table({
            "user_id": pa.array(f.index.to_numpy(np.int64)),
            "first_event_id": pa.array(f["event_id"].to_numpy(np.int64)),
            "first_type": pa.array(f["event_type"].astype(str)),
            "first_value": pa.array(f["value"].to_numpy(np.float64)),
            "last_event_id": pa.array(l["event_id"].to_numpy(np.int64)),
            "last_type": pa.array(l["event_type"].astype(str)),
            "last_value": pa.array(l["value"].to_numpy(np.float64)),
        }, schema=out_sch)

    return (
        ds.map_batches(candidates, batch_format="pandas")
        .groupby("part")
        .map_groups(pick, batch_format="pandas")
    )


def market_basket_pairs(sf_dir: str, min_support: int = 2,
                        num_partitions: int | None = None):
    """Market-basket co-occurrence mining over lineitem: every pair of
    distinct parts appearing together in at least ``min_support`` orders,
    with the exact support count (the frequent-2-itemset step of Apriori).

    Plan: pruned 2-column read -> ONE hash(orderkey) exchange (each task
    owns whole orders) -> per-order unique-sorted parts expand to triu
    pairs, pre-aggregated to (part_a, part_b) partial counts in-task ->
    one bucketed pair-key combine + support filter. Pair fan-out is
    C(basket, 2) — inherent to the itemset, and baskets are bounded (7
    lines per TPC-H order); the combine exchange moves only distinct-pair
    partials."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )

    pair_sch = pa.schema([
        ("part_a", pa.int64()), ("part_b", pa.int64()),
        ("support", pa.int64()),
    ])

    def order_pairs(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return pair_sch.empty_table()
        a_all, b_all = [], []
        for _, parts in df.groupby("l_orderkey")["l_partkey"]:
            ps = np.unique(parts.to_numpy(np.int64))
            if len(ps) < 2:
                continue
            iu, iv = np.triu_indices(len(ps), k=1)
            a_all.append(ps[iu])
            b_all.append(ps[iv])
        if not a_all:
            return pair_sch.empty_table()
        g = pd.DataFrame({
            "part_a": np.concatenate(a_all), "part_b": np.concatenate(b_all),
        }).groupby(["part_a", "part_b"], as_index=False).size()
        return pa.table({
            "part_a": pa.array(g["part_a"].to_numpy(np.int64)),
            "part_b": pa.array(g["part_b"].to_numpy(np.int64)),
            "support": pa.array(g["size"].to_numpy(np.int64)),
        }, schema=pair_sch)

    partials = (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("l_orderkey", num_partitions),
        )
        .groupby("part")
        .map_groups(order_pairs, batch_format="pandas")
    )
    combined = bucketed_sum_combine(
        partials, keys=["part_a", "part_b"], sum_cols=["support"],
        schema=pair_sch, num_partitions=num_partitions,
    )

    def filt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.greater_equal(batch["support"], min_support)
        )

    return combined.map_batches(filt, batch_format="pyarrow")


def q5_local_supplier_volume(sf_dir: str, region: str = "ASIA",
                             date_from: str = "1996-01-01",
                             date_to: str = "1998-01-01",
                             num_partitions: int | None = None):
    """TPC-H Q5-style local-supplier volume: revenue per nation for orders
    in a date range where the CUSTOMER and the LINEITEM's SUPPLIER sit in
    the same nation of one region — the deepest join tree in the engine
    (lineitem x orders x customer x supplier x nation x region).

    Shuffle-minimizing plan:
    - nation x region resolves driver-side (25 x 5 rows) to the region's
      nationkey -> name map, broadcast once;
    - supplier prunes to the region's nations and broadcasts as sorted
      (suppkey -> nationkey) arrays (suppliers are the smallest fact-side
      dimension; at the 1e8+-supplier extreme switch this side to the same
      bucketed join the customer side uses);
    - customer x orders is a bucketed hash(custkey) % P join of pruned
      slim rows (in-region customers only; date-filtered orders only);
    - lineitem pre-aggregates revenue cents per (orderkey, supp_nation)
      per batch BEFORE its one hash(orderkey) % P exchange, so the big
      join moves ~|orders| rows, not ~|lineitem|;
    - the same-nation filter applies inside the join task; survivors
      pre-aggregate to (nationkey, cents) and ONE bounded combine
      finishes. Money follows the integer-cents half-up contract."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from ..functions.vectorized import money_cents
    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    rkey = reg.loc[reg["r_name"] == region, "r_regionkey"]
    nat = nation[nation["n_regionkey"].isin(set(rkey))]
    nat_names = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    nat_keys = np.asarray(sorted(nat_names), dtype=np.int64)

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp = supp[supp["s_nationkey"].isin(nat_names)].sort_values("s_suppkey")
    supp_ref = ray.put((
        supp["s_suppkey"].to_numpy(np.int64),
        supp["s_nationkey"].to_numpy(np.int64),
    ))

    # --- side A: in-region customers ⋈ date-filtered orders (custkey) ---
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    ab_sch = pa.schema([
        ("custkey", pa.int64()), ("o_orderkey", pa.int64()),
        ("c_nat", pa.int64()), ("is_order", pa.int8()),
    ])

    def cust_rows(df: pd.DataFrame) -> pa.Table:
        df = df[df["c_nationkey"].isin(nat_names)]
        n = len(df)
        return pa.table({
            "custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "o_orderkey": pa.array(np.zeros(n, np.int64)),
            "c_nat": pa.array(df["c_nationkey"].to_numpy(np.int64)),
            "is_order": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=ab_sch)

    def order_rows(df: pd.DataFrame) -> pa.Table:
        df = df[(df["o_orderdate"] >= t_from) & (df["o_orderdate"] < t_to)]
        n = len(df)
        return pa.table({
            "custkey": pa.array(df["o_custkey"].to_numpy(np.int64)),
            "o_orderkey": pa.array(df["o_orderkey"].to_numpy(np.int64)),
            "c_nat": pa.array(np.zeros(n, np.int64)),
            "is_order": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=ab_sch)

    def bucket_cust(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["custkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32())
        )

    onat_sch = pa.schema([
        ("o_orderkey", pa.int64()), ("c_nat", pa.int64()),
        ("s_nat", pa.int64()), ("rev_c", pa.int64()),
        ("is_rev", pa.int8()),
    ])

    def cust_join(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return onat_sch.empty_table()
        left = df[df["is_order"] == 0][["custkey", "c_nat"]]
        right = df[df["is_order"] == 1][["custkey", "o_orderkey"]]
        m = right.merge(left, on="custkey")
        n = len(m)
        return pa.table({
            "o_orderkey": pa.array(m["o_orderkey"].to_numpy(np.int64)),
            "c_nat": pa.array(m["c_nat"].to_numpy(np.int64)),
            "s_nat": pa.array(np.zeros(n, np.int64)),
            "rev_c": pa.array(np.zeros(n, np.int64)),
            "is_rev": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=onat_sch)

    order_nat = (
        cust.map_batches(cust_rows, batch_format="pandas")
        .union(orders.map_batches(order_rows, batch_format="pandas"))
        .map_batches(bucket_cust, batch_format="pyarrow")
        .groupby("part")
        .map_groups(cust_join, batch_format="pandas")
    )

    # --- side B: lineitem revenue partials per (orderkey, supp nation) ---
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def rev_partial(df: pd.DataFrame) -> pa.Table:
        sk, snat = ray.get(supp_ref)
        keys = df["l_suppkey"].to_numpy(np.int64)
        if len(sk) == 0:
            return onat_sch.empty_table()
        pos = np.minimum(np.searchsorted(sk, keys), len(sk) - 1)
        hit = sk[pos] == keys
        df = df[hit].assign(s_nat=snat[pos[hit]])
        df = df.assign(rev_c=money_cents(
            df["l_extendedprice"] * (1 - df["l_discount"])
        ))
        g = df.groupby(["l_orderkey", "s_nat"], as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        n = len(g)
        return pa.table({
            "o_orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "c_nat": pa.array(np.zeros(n, np.int64)),
            "s_nat": pa.array(g["s_nat"].to_numpy(np.int64)),
            "rev_c": pa.array(g["rev_c"].to_numpy(np.int64)),
            "is_rev": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=onat_sch)

    def bucket_order(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part2", pa.array(((k // 3) % num_partitions).astype(np.int32),
                              pa.int32())
        )

    nat_part_sch = pa.schema([
        ("nationkey", pa.int64()), ("revenue_c", pa.int64()),
    ])

    def order_join(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_rev" not in df.columns:
            return nat_part_sch.empty_table()
        left = df[df["is_rev"] == 0][["o_orderkey", "c_nat"]]
        right = df[df["is_rev"] == 1][["o_orderkey", "s_nat", "rev_c"]]
        m = right.merge(left, on="o_orderkey")
        m = m[m["s_nat"] == m["c_nat"]]
        g = m.groupby("s_nat", as_index=False).agg(rev_c=("rev_c", "sum"))
        return pa.table({
            "nationkey": pa.array(g["s_nat"].to_numpy(np.int64)),
            "revenue_c": pa.array(g["rev_c"].to_numpy(np.int64)),
        }, schema=nat_part_sch)

    partials = (
        order_nat.union(
            lineitem.map_batches(rev_partial, batch_format="pandas")
        )
        .map_batches(bucket_order, batch_format="pyarrow")
        .groupby("part2")
        .map_groups(order_join, batch_format="pandas")
    )
    combined = bucketed_sum_combine(
        partials, keys=["nationkey"], sum_cols=["revenue_c"],
        schema=nat_part_sch, num_partitions=num_partitions,
    )

    def name(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_name": df["nationkey"].map(nat_names).astype(str),
            "revenue_c": df["revenue_c"].astype("int64"),
        })

    return combined.map_batches(name, batch_format="pandas")


def user_status_intervals(sf_dir: str, num_partitions: int | None = None):
    """Compress-history (SCD-2 interval build): collapse each user's
    ordered event stream into validity intervals — one row per run of
    consecutive equal event_type, `[valid_from_us, valid_to_us)` where
    valid_to is the NEXT change's timestamp and the still-open last
    interval carries the sentinel -1 (a NULL-free contract so the oracle
    hash-compares exactly).

    Plan: pruned slim read -> ONE bucketed hash(user_id) % P exchange of
    (user, ts, id, type) rows -> in-task per-user ordered scan does the
    LAG-change-point filter and the LEAD valid_to vectorized (shift
    compare, no Python loop). The exchange moves the event stream once —
    inherent to an ordered per-key scan, the same cost class as any SQL
    window over the raw stream."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def slim(df: pd.DataFrame) -> pa.Table:
        u = df["user_id"].to_numpy(np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "ts_us": pa.array(
                df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
            ),
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
            "event_type": pa.array(df["event_type"].astype(str)),
            "part": pa.array(
                (u % num_partitions).astype(np.int32), pa.int32()
            ),
        })

    out_sch = pa.schema([
        ("user_id", pa.int64()), ("event_type", pa.string()),
        ("valid_from_us", pa.int64()), ("valid_to_us", pa.int64()),
    ])

    def intervals(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        df = df.sort_values(["user_id", "ts_us", "event_id"],
                            kind="mergesort")
        change = (df["user_id"].ne(df["user_id"].shift())
                  | df["event_type"].ne(df["event_type"].shift()))
        ch = df[change]
        same_user = ch["user_id"].eq(ch["user_id"].shift(-1))
        valid_to = ch["ts_us"].shift(-1).where(same_user, -1).astype("int64")
        return pa.table({
            "user_id": pa.array(ch["user_id"].to_numpy(np.int64)),
            "event_type": pa.array(ch["event_type"].astype(str)),
            "valid_from_us": pa.array(ch["ts_us"].to_numpy(np.int64)),
            "valid_to_us": pa.array(valid_to.to_numpy(np.int64)),
        }, schema=out_sch)

    return (
        ds.map_batches(slim, batch_format="pandas")
        .groupby("part")
        .map_groups(intervals, batch_format="pandas")
    )


def events_gap_fill(sf_dir: str, num_partitions: int | None = None):
    """Dense time-series resample: per (user, hour) event counts with the
    silent hours ZERO-FILLED between each user's first and last active
    hour — the gap-filling step every per-entity time-series model needs
    before training.

    Plan: per-batch pre-aggregation to (user, hour, n) partials (the only
    thing that ever shuffles) -> ONE bucketed hash(user) % P exchange ->
    in-task combine + vectorized dense-grid reindex (np.arange over the
    user's span, fill 0). The dense fan-out is |active span in hours| per
    user — inherent to the resample semantics, generated AFTER the
    exchange so it never crosses the wire."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    HOUR_US = 3_600_000_000
    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        hour = (
            df["ts"].dt.floor("h").astype("datetime64[us]").astype("int64")
        )
        g = df.assign(hour_us=hour).groupby(
            ["user_id", "hour_us"], as_index=False
        ).size()
        u = g["user_id"].to_numpy(np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "hour_us": pa.array(g["hour_us"].to_numpy(np.int64)),
            "n": pa.array(g["size"].to_numpy(np.int64)),
            "part": pa.array(
                (u % num_partitions).astype(np.int32), pa.int32()
            ),
        })

    out_sch = pa.schema([
        ("user_id", pa.int64()), ("hour_us", pa.int64()),
        ("n", pa.int64()),
    ])

    def densify(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        g = df.groupby(["user_id", "hour_us"], as_index=False)["n"].sum()
        users, hours, counts = [], [], []
        for uid, rows in g.groupby("user_id"):
            grid = np.arange(rows["hour_us"].min(),
                             rows["hour_us"].max() + HOUR_US, HOUR_US)
            dense = pd.Series(
                np.zeros(len(grid), np.int64), index=grid
            )
            dense.loc[rows["hour_us"].to_numpy()] = rows["n"].to_numpy()
            users.append(np.full(len(grid), uid, np.int64))
            hours.append(grid)
            counts.append(dense.to_numpy(np.int64))
        return pa.table({
            "user_id": pa.array(np.concatenate(users)),
            "hour_us": pa.array(np.concatenate(hours)),
            "n": pa.array(np.concatenate(counts)),
        }, schema=out_sch)

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("part")
        .map_groups(densify, batch_format="pandas")
    )


def customer_rfm(sf_dir: str, n_tiles: int = 5,
                 num_partitions: int | None = None):
    """RFM segmentation over the event stream: per user, recency (last
    activity), frequency (event count) and monetary (integer-cents spend)
    each scored with an exact global NTILE(n) — the classic
    marketing/curation segmentation, here as three instances of the
    rank-family's range-bucket + offset-broadcast plan.

    Plan: ONE combine builds the materialized per-user metric table
    (mixed max/sum aggregation, bucketed); then ONE histogram combine
    covers all three metrics at once (rows keyed by a packed
    (slot, range-bucket) id — per-metric histograms would pay the fixed
    combine setup three times for the same data movement), ONE bucketed
    exchange over the 3x-tagged slim rows assigns all three NTILEs
    in-task (deterministic order: metric then user_id), and a final
    hash(user) % P exchange pivots tiles against the base metrics.
    Everything that shuffles is O(|users|) slim rows — the event stream
    is read once. Tile arithmetic matches SQL NTILE (first N % n tiles
    take the extra row)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    base_sch = pa.schema([
        ("user_id", pa.int64()), ("last_us", pa.int64()),
        ("n_events", pa.int64()), ("spend_c", pa.int64()),
    ])

    def metric_partial(df: pd.DataFrame) -> pa.Table:
        g = df.assign(
            last_us=df["ts"].astype("datetime64[us]").astype("int64"),
            spend_c=money_cents(df["value"]),
            n_events=1,
        ).groupby("user_id", as_index=False).agg(
            last_us=("last_us", "max"), n_events=("n_events", "sum"),
            spend_c=("spend_c", "sum"),
        )
        return pa.Table.from_pandas(g, preserve_index=False).cast(base_sch)

    def bucket_user(batch: pa.Table) -> pa.Table:
        u = np.asarray(batch["user_id"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((u % num_partitions).astype(np.int32),
                             pa.int32())
        )

    def metric_combine(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return base_sch.empty_table()
        g = df.groupby("user_id", as_index=False).agg(
            last_us=("last_us", "max"), n_events=("n_events", "sum"),
            spend_c=("spend_c", "sum"),
        )
        return pa.Table.from_pandas(g, preserve_index=False).cast(base_sch)

    users = (
        ds.map_batches(metric_partial, batch_format="pandas")
        .map_batches(bucket_user, batch_format="pyarrow")
        .groupby("part")
        .map_groups(metric_combine, batch_format="pandas")
        .materialize()
    )

    wide_sch = pa.schema([
        ("user_id", pa.int64()), ("slot", pa.int8()), ("tile", pa.int64()),
        ("last_us", pa.int64()), ("n_events", pa.int64()),
        ("spend_c", pa.int64()),
    ])
    cols = ("last_us", "n_events", "spend_c")

    # derived per-metric shifts (~128 buckets over each observed range)
    # from one pass of per-block maxes over the materialized user table
    def block_maxes(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            f"m{i}": pa.array([int(df[c].max())], pa.int64())
            for i, c in enumerate(cols)
        })

    mx = users.map_batches(block_maxes, batch_format="pandas").to_pandas()
    shifts = [
        max(0, int(mx[f"m{i}"].max()).bit_length() - 7) for i in range(3)
    ]

    # one packed (slot << 40 | rb) key covers all three histograms:
    # derived shifts bound |rb| ~ 128, so slots can never collide
    def _grb(df: pd.DataFrame) -> np.ndarray:
        out = np.empty(3 * len(df), np.int64)
        for s, (c, sh) in enumerate(zip(cols, shifts)):
            out[s * len(df):(s + 1) * len(df)] = (
                (np.int64(s) << 40) + (df[c].to_numpy(np.int64) >> sh)
            )
        return out

    hist_sch = pa.schema([("grb", pa.int64()), ("n", pa.int64())])

    def hist_partial(df: pd.DataFrame) -> pa.Table:
        grb, n = np.unique(_grb(df), return_counts=True)
        return pa.table({
            "grb": pa.array(grb), "n": pa.array(n.astype(np.int64)),
        }, schema=hist_sch)

    counts = bucketed_sum_combine(
        users.map_batches(hist_partial, batch_format="pandas"),
        keys=["grb"], sum_cols=["n"], schema=hist_sch,
        num_partitions=num_partitions,
    ).to_pandas().sort_values("grb")
    counts["slot"] = counts["grb"].to_numpy(np.int64) >> 40
    offsets = {}
    for _, g in counts.groupby("slot"):
        cum = g["n"].cumsum().to_numpy(np.int64)
        offsets.update(zip(
            g["grb"].to_numpy(np.int64).tolist(),
            (cum - g["n"].to_numpy(np.int64)).tolist(),
        ))
    total = int(counts[counts["slot"] == 0]["n"].sum())
    big = total // n_tiles + 1
    small = max(total // n_tiles, 1)
    n_big = total % n_tiles
    cut = n_big * big

    tag_sch = pa.schema([
        ("user_id", pa.int64()), ("val", pa.int64()), ("grb", pa.int64()),
    ])

    def tag_rows(df: pd.DataFrame) -> pa.Table:
        uid = df["user_id"].to_numpy(np.int64)
        return pa.table({
            "user_id": pa.array(np.tile(uid, 3)),
            "val": pa.array(np.concatenate(
                [df[c].to_numpy(np.int64) for c in cols]
            )),
            "grb": pa.array(_grb(df)),
        }, schema=tag_sch)

    def ntile(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return wide_sch.empty_table()
        vals = df["val"].to_numpy(np.int64)
        uid = df["user_id"].to_numpy(np.int64)
        grb = int(df["grb"].iloc[0])
        off = offsets[grb]
        order = np.lexsort((uid, vals))
        rn = np.empty(len(df), dtype=np.int64)
        rn[order] = off + np.arange(1, len(df) + 1, dtype=np.int64)
        tile = np.where(
            rn <= cut,
            (rn - 1) // big + 1,
            n_big + (rn - cut - 1) // small + 1,
        )
        z = np.zeros(len(df), np.int64)
        return pa.table({
            "user_id": pa.array(uid),
            "slot": pa.array(
                np.full(len(df), grb >> 40, np.int8), pa.int8()
            ),
            "tile": pa.array(tile.astype(np.int64)),
            "last_us": pa.array(z), "n_events": pa.array(z),
            "spend_c": pa.array(z),
        }, schema=wide_sch)

    tile_tables = [
        users.map_batches(tag_rows, batch_format="pandas")
        .groupby("grb")
        .map_groups(ntile, batch_format="pandas")
    ]

    def base_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "user_id": batch["user_id"],
            "slot": pa.array(np.full(n, 3, np.int8), pa.int8()),
            "tile": pa.array(np.zeros(n, np.int64)),
            "last_us": batch["last_us"], "n_events": batch["n_events"],
            "spend_c": batch["spend_c"],
        }, schema=wide_sch)

    out_sch = pa.schema([
        ("user_id", pa.int64()), ("last_us", pa.int64()),
        ("n_events", pa.int64()), ("spend_c", pa.int64()),
        ("r_tile", pa.int64()), ("f_tile", pa.int64()),
        ("m_tile", pa.int64()), ("rfm", pa.int64()),
    ])

    def pivot(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "slot" not in df.columns:
            return out_sch.empty_table()
        base = df[df["slot"] == 3].set_index("user_id").sort_index()
        r = df[df["slot"] == 0].set_index("user_id")["tile"]
        f = df[df["slot"] == 1].set_index("user_id")["tile"]
        m = df[df["slot"] == 2].set_index("user_id")["tile"]
        idx = base.index
        rt = r.reindex(idx).to_numpy(np.int64)
        ft = f.reindex(idx).to_numpy(np.int64)
        mt = m.reindex(idx).to_numpy(np.int64)
        return pa.table({
            "user_id": pa.array(idx.to_numpy(np.int64)),
            "last_us": pa.array(base["last_us"].to_numpy(np.int64)),
            "n_events": pa.array(base["n_events"].to_numpy(np.int64)),
            "spend_c": pa.array(base["spend_c"].to_numpy(np.int64)),
            "r_tile": pa.array(rt), "f_tile": pa.array(ft),
            "m_tile": pa.array(mt),
            "rfm": pa.array(100 * rt + 10 * ft + mt),
        }, schema=out_sch)

    union = users.map_batches(base_rows, batch_format="pyarrow")
    for t in tile_tables:
        union = union.union(t)
    return (
        union.map_batches(bucket_user, batch_format="pyarrow")
        .groupby("part")
        .map_groups(pivot, batch_format="pandas")
    )


def above_nation_avg_customers(sf_dir: str):
    """Decorrelated correlated subquery: customers whose account balance
    exceeds their NATION's average balance (the classic
    `WHERE x > (SELECT avg(..) FROM .. WHERE same group)` plan: the
    subquery decorrelates into one bounded per-nation aggregate that
    broadcasts back over the fact scan — no self-join).

    The comparison is the exact integer CROSS-MULTIPLY
    bal_c * n > sum_c (the events_anomaly contract): comparing against a
    float average would round before comparing and flip boundary rows
    against the oracle."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        g = df.assign(
            bal_c=money_cents(df["c_acctbal"]), n=1
        ).groupby("c_nationkey", as_index=False).agg(
            sum_c=("bal_c", "sum"), n=("n", "sum")
        )
        return pa.table({
            "c_nationkey": pa.array(g["c_nationkey"].to_numpy(np.int64)),
            "sum_c": pa.array(g["sum_c"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
        })

    # 25 nations -> bounded combine, tiny collect, one broadcast
    nat = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["c_nationkey"], sum_cols=["sum_c", "n"],
        schema=pa.schema([
            ("c_nationkey", pa.int64()), ("sum_c", pa.int64()),
            ("n", pa.int64()),
        ]),
    ).to_pandas()
    ref = ray.put((
        nat.set_index("c_nationkey")["sum_c"].to_dict(),
        nat.set_index("c_nationkey")["n"].to_dict(),
    ))

    out_sch = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("c_nationkey", pa.int64()),
    ])

    def filt(df: pd.DataFrame) -> pa.Table:
        sums, ns = ray.get(ref)
        bal_c = money_cents(df["c_acctbal"])
        nk = df["c_nationkey"].astype("int64")
        keep = bal_c * nk.map(ns).to_numpy(np.int64) > nk.map(
            sums
        ).to_numpy(np.int64)
        sel = df[keep]
        return pa.table({
            "c_custkey": pa.array(sel["c_custkey"].to_numpy(np.int64)),
            "c_name": pa.array(sel["c_name"].astype(str)),
            "c_nationkey": pa.array(
                sel["c_nationkey"].to_numpy(np.int64)
            ),
        }, schema=out_sch)

    return ds.map_batches(filt, batch_format="pandas")


def monthly_revenue_growth(sf_dir: str):
    """Period-over-period trend: monthly order revenue with the previous
    month's value attached (LAG over the time axis; first month carries
    the -1 sentinel — NULL-free compare contract). Partials pre-aggregate
    per batch; the month axis is BOUNDED (data-span months), so one
    bounded combine collapses them and the LAG runs in one tiny
    single-partition finish — the shuffle-free shape any bounded-axis
    window should take."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        month = (
            df["o_orderdate"].dt.to_period("M").dt.start_time
            .astype("datetime64[us]").astype("int64")
        )
        g = df.assign(month_us=month, rev_c=money_cents(df["o_totalprice"]))\
            .groupby("month_us", as_index=False)["rev_c"].sum()
        return pa.table({
            "month_us": pa.array(g["month_us"].to_numpy(np.int64)),
            "rev_c": pa.array(g["rev_c"].to_numpy(np.int64)),
        })

    monthly = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["month_us"], sum_cols=["rev_c"],
        schema=pa.schema([
            ("month_us", pa.int64()), ("rev_c", pa.int64()),
        ]),
    )

    out_sch = pa.schema([
        ("month_us", pa.int64()), ("rev_c", pa.int64()),
        ("prev_c", pa.int64()),
    ])

    def lag(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        df = df.sort_values("month_us")
        prev = df["rev_c"].shift(1, fill_value=-1).astype("int64")
        return pa.table({
            "month_us": pa.array(df["month_us"].to_numpy(np.int64)),
            "rev_c": pa.array(df["rev_c"].to_numpy(np.int64)),
            "prev_c": pa.array(prev.to_numpy(np.int64)),
        }, schema=out_sch)

    # the month axis is tiny: one partition holds every (month, rev) row
    return monthly.repartition(1).map_batches(
        lag, batch_size=None, batch_format="pandas"
    )


def _pareto_sweep(df: pd.DataFrame) -> pd.DataFrame:
    """Exact 2-D skyline sweep (maximize both columns): survivors are the
    rows not dominated (>= in both dims, > in one). Vectorized: walk bal
    groups in descending order; a group's max-spend rows survive iff that
    max strictly beats the best spend seen at any strictly higher bal;
    within a group only the max-spend rows survive (equal-point ties all
    survive — neither dominates)."""
    d = df.sort_values("bal_c", ascending=False, kind="mergesort")
    gmax = d.groupby("bal_c", sort=False)["spend_c"].transform("max")
    gm = d.groupby("bal_c", sort=False)["spend_c"].max()
    run = np.maximum.accumulate(gm.to_numpy(np.int64))
    prev = np.concatenate(([np.iinfo(np.int64).min], run[:-1]))
    prev_per_bal = dict(zip(gm.index.to_numpy(np.int64).tolist(),
                            prev.tolist()))
    keep = (
        (d["spend_c"].to_numpy(np.int64) == gmax.to_numpy(np.int64))
        & (d["spend_c"].to_numpy(np.int64)
           > d["bal_c"].map(prev_per_bal).to_numpy(np.int64))
    )
    return d[keep]


def customer_skyline(sf_dir: str, num_partitions: int | None = None):
    """Pareto skyline over customers: every customer NOT dominated on
    (account balance, total order spend) — the classic multi-criteria
    'best customers' query, exact in integer cents.

    Plan exploits the skyline pruning lemma (a globally non-dominated
    point is non-dominated in any subset containing it): one bucketed
    custkey LEFT join attaches order-spend partials to balances, each
    block reduces to its LOCAL skyline (a vectorized descending sweep),
    and only that tiny candidate union crosses to the single final sweep
    — the full fact table never concentrates anywhere. Candidate size is
    sum of per-block skyline sizes (typically O(log) of block rows on
    real distributions; adversarially anti-correlated data degrades the
    final step, not correctness)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    u_sch = pa.schema([
        ("c_custkey", pa.int64()), ("bal_c", pa.int64()),
        ("spend_c", pa.int64()), ("is_cust", pa.int8()),
    ])

    def cust_rows(df: pd.DataFrame) -> pa.Table:
        n = len(df)
        return pa.table({
            "c_custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "bal_c": pa.array(money_cents(df["c_acctbal"])),
            "spend_c": pa.array(np.zeros(n, np.int64)),
            "is_cust": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=u_sch)

    def spend_partial(df: pd.DataFrame) -> pa.Table:
        g = df.assign(sp=money_cents(df["o_totalprice"])).groupby(
            "o_custkey", as_index=False
        )["sp"].sum()
        n = len(g)
        return pa.table({
            "c_custkey": pa.array(g["o_custkey"].to_numpy(np.int64)),
            "bal_c": pa.array(np.zeros(n, np.int64)),
            "spend_c": pa.array(g["sp"].to_numpy(np.int64)),
            "is_cust": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=u_sch)

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["c_custkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32())
        )

    out_sch = pa.schema([
        ("c_custkey", pa.int64()), ("bal_c", pa.int64()),
        ("spend_c", pa.int64()),
    ])

    def join_local_skyline(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_cust" not in df.columns:
            return out_sch.empty_table()
        left = df[df["is_cust"] == 1][["c_custkey", "bal_c"]]
        sp = df[df["is_cust"] == 0].groupby("c_custkey", as_index=False)[
            "spend_c"
        ].sum()
        m = left.merge(sp, on="c_custkey", how="left")
        m["spend_c"] = m["spend_c"].fillna(0).astype("int64")
        s = _pareto_sweep(m)
        return pa.table({
            "c_custkey": pa.array(s["c_custkey"].to_numpy(np.int64)),
            "bal_c": pa.array(s["bal_c"].to_numpy(np.int64)),
            "spend_c": pa.array(s["spend_c"].to_numpy(np.int64)),
        }, schema=out_sch)

    def final_skyline(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        s = _pareto_sweep(df)
        return pa.table({
            "c_custkey": pa.array(s["c_custkey"].to_numpy(np.int64)),
            "bal_c": pa.array(s["bal_c"].to_numpy(np.int64)),
            "spend_c": pa.array(s["spend_c"].to_numpy(np.int64)),
        }, schema=out_sch)

    candidates = (
        cust.map_batches(cust_rows, batch_format="pandas")
        .union(orders.map_batches(spend_partial, batch_format="pandas"))
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(join_local_skyline, batch_format="pandas")
    )
    # candidate union is tiny (per-bucket skylines); one block finishes
    return candidates.repartition(1).map_batches(
        final_skyline, batch_size=None, batch_format="pandas"
    )


def user_nth_event(sf_dir: str, n: int = 3,
                   num_partitions: int | None = None):
    """NTH_VALUE window: each user's n-th event in (ts, event_id) order
    (users with fewer than n events are absent — a NULL-free contract).
    Same sort-free candidate plan as ``user_first_last``: the global n-th
    event has at most n-1 predecessors overall, hence at most n-1 inside
    its own block, so each block's local first-n rows per user are a
    guaranteed superset — only those ≤ n-per-user-per-block slim rows
    cross the one bucketed hash(user) exchange."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def candidates(df: pd.DataFrame) -> pa.Table:
        df = df.assign(
            ts_us=df["ts"].astype("datetime64[us]").astype("int64")
        ).sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        sel = df.groupby("user_id", sort=False).head(n)
        u = sel["user_id"].to_numpy(np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "ts_us": pa.array(sel["ts_us"].to_numpy(np.int64)),
            "event_id": pa.array(sel["event_id"].to_numpy(np.int64)),
            "event_type": pa.array(sel["event_type"].astype(str)),
            "value": pa.array(sel["value"].to_numpy(np.float64)),
            "part": pa.array(
                (u % num_partitions).astype(np.int32), pa.int32()
            ),
        })

    out_sch = pa.schema([
        ("user_id", pa.int64()), ("nth_event_id", pa.int64()),
        ("nth_type", pa.string()), ("nth_value", pa.float64()),
    ])

    def pick(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        df = df.sort_values(["user_id", "ts_us", "event_id"],
                            kind="mergesort")
        sel = df.groupby("user_id", sort=False).nth(n - 1)
        return pa.table({
            "user_id": pa.array(sel["user_id"].to_numpy(np.int64)),
            "nth_event_id": pa.array(sel["event_id"].to_numpy(np.int64)),
            "nth_type": pa.array(sel["event_type"].astype(str)),
            "nth_value": pa.array(sel["value"].to_numpy(np.float64)),
        }, schema=out_sch)

    return (
        ds.map_batches(candidates, batch_format="pandas")
        .groupby("part")
        .map_groups(pick, batch_format="pandas")
    )


def user_spend_dense_rank(sf_dir: str, range_shift: int | None = None):
    """Exact global DENSE_RANK of per-user total spend: rank = number of
    DISTINCT lower values + 1 (no tiebreak needed — dense rank is a pure
    function of the value). Rank-family plan, distinct flavor: pass 1
    buckets the materialized user table by coarse range bucket and emits
    each rb's DISTINCT-value count (a tiny table the driver cumsums into
    per-rb dense offsets); pass 2 re-buckets and assigns
    offset + local-unique index + 1 in-task. Two slim rb exchanges, no
    global sort."""
    import pyarrow as pa

    users = _user_spend_totals(sf_dir)
    range_shift, _, _ = _spend_range_offsets(users, range_shift)

    nd_sch = pa.schema([("rb", pa.int64()), ("nd", pa.int64())])

    def rb_distinct(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return nd_sch.empty_table()
        return pa.table({
            "rb": pa.array([int(df["rb"].iloc[0])], pa.int64()),
            "nd": pa.array([int(df["spend_c"].nunique())], pa.int64()),
        }, schema=nd_sch)

    nd = (
        users.map_batches(_append_rb(range_shift), batch_format="pyarrow")
        .groupby("rb").map_groups(rb_distinct, batch_format="pandas")
        .to_pandas().sort_values("rb")
    )
    cum = nd["nd"].cumsum().to_numpy(np.int64)
    offsets = dict(zip(
        nd["rb"].to_numpy(np.int64).tolist(),
        (cum - nd["nd"].to_numpy(np.int64)).tolist(),
    ))

    sch = pa.schema([
        ("user_id", pa.int64()), ("spend", pa.float64()),
        ("dense_rank", pa.int64()),
    ])

    def rank(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        spend = df["spend_c"].to_numpy(np.int64)
        off = offsets[int(df["rb"].iloc[0])]
        uniq = np.unique(spend)
        dense = off + np.searchsorted(uniq, spend) + 1
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "spend": pa.array(spend / 100.0, pa.float64()),
            "dense_rank": pa.array(dense.astype(np.int64)),
        }, schema=sch)

    return (
        users.map_batches(_append_rb(range_shift), batch_format="pyarrow")
        .groupby("rb")
        .map_groups(rank, batch_format="pandas")
    )


def sliding_distinct_users(sf_dir: str, window_hours: int = 24,
                           num_partitions: int | None = None):
    """Sliding-window COUNT DISTINCT: for every ACTIVE hour h, the number
    of distinct users seen in the trailing ``window_hours`` window
    [h - w + 1, h] — the streaming-dashboard distinct that resists naive
    windowing because distinct doesn't decompose like a sum.

    Exact distributed plan: (1) the event stream collapses to distinct
    (hour, user) pairs — per-batch dedup partials, one bucketed
    hash(user) exchange finishes the dedup (the only pass over raw
    events); (2) each pair fans out to the ≤ w ACTIVE windows it serves
    (the active-hour set is bounded by the data's time span and
    broadcasts); (3) one bucketed hash(window) exchange counts distinct
    users per window in-task. Everything after step 1 is bounded by
    w x |distinct (hour, user)|, never the event count."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    HOUR_US = 3_600_000_000
    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    hu_sch = pa.schema([
        ("hour_us", pa.int64()), ("user_id", pa.int64()),
        ("part", pa.int32()),
    ])

    def pair_partial(df: pd.DataFrame) -> pa.Table:
        hour = (
            df["ts"].dt.floor("h").astype("datetime64[us]").astype("int64")
        )
        g = df.assign(hour_us=hour).drop_duplicates(["hour_us", "user_id"])
        u = g["user_id"].to_numpy(np.int64)
        return pa.table({
            "hour_us": pa.array(g["hour_us"].to_numpy(np.int64)),
            "user_id": pa.array(u),
            "part": pa.array(
                (u % num_partitions).astype(np.int32), pa.int32()
            ),
        }, schema=hu_sch)

    def dedup(df: pd.DataFrame) -> pa.Table:
        g = df.drop_duplicates(["hour_us", "user_id"])
        return pa.table({
            "hour_us": pa.array(g["hour_us"].to_numpy(np.int64)),
            "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
        })

    pairs = (
        ds.map_batches(pair_partial, batch_format="pandas")
        .groupby("part")
        .map_groups(dedup, batch_format="pandas")
        .materialize()
    )

    # bounded: hours in the data span; broadcast as a sorted array
    hours = np.sort(
        pairs.groupby("hour_us").count().to_pandas()["hour_us"]
        .to_numpy(np.int64)
    )
    href = ray.put(hours)

    wu_sch = pa.schema([
        ("hour_us", pa.int64()), ("user_id", pa.int64()),
        ("part", pa.int32()),
    ])

    def fan_out(df: pd.DataFrame) -> pa.Table:
        act = ray.get(href)
        hs = df["hour_us"].to_numpy(np.int64)
        us = df["user_id"].to_numpy(np.int64)
        # windows served by pair (h, u): active hours in [h, h + w - 1]
        lo = np.searchsorted(act, hs, side="left")
        hi = np.searchsorted(act, hs + (window_hours - 1) * HOUR_US,
                             side="right")
        reps = (hi - lo).astype(np.int64)
        if reps.sum() == 0:
            return wu_sch.empty_table()
        w = np.concatenate([
            act[a:b] for a, b in zip(lo, hi) if b > a
        ])
        uu = np.repeat(us, reps)
        return pa.table({
            "hour_us": pa.array(w), "user_id": pa.array(uu),
            "part": pa.array(
                ((w // HOUR_US) % num_partitions).astype(np.int32),
                pa.int32(),
            ),
        }, schema=wu_sch)

    out_sch = pa.schema([("hour_us", pa.int64()), ("n_users", pa.int64())])

    def count_distinct(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        g = df.groupby("hour_us")["user_id"].nunique()
        return pa.table({
            "hour_us": pa.array(g.index.to_numpy(np.int64)),
            "n_users": pa.array(g.to_numpy(np.int64)),
        }, schema=out_sch)

    return (
        pairs.map_batches(fan_out, batch_format="pandas")
        .groupby("part")
        .map_groups(count_distinct, batch_format="pandas")
    )


def merge_upsert(sf_dir: str, num_partitions: int | None = None):
    """CDC MERGE INTO (SCD-1 upsert): apply an update/insert changelog to
    the documents base table — updated keys take the new text, unmatched
    base rows pass through, inserts append. The changelog here derives
    deterministically from the base (doc_id % 7 -> uppercase rewrite;
    doc_id % 13 -> synthetic insert under a shifted key) so the oracle
    can replay it; in production it is a second Parquet source feeding
    the same plan.

    Plan: base and updates tag + union through ONE bucketed hash(doc_id)
    exchange; the in-task merge applies update-wins semantics; inserts
    are a stateless map that never shuffles. The exchange moves each row
    once — the same cost class as any hash join on the key."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    tag_sch = pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()),
        ("is_update", pa.int8()), ("part", pa.int32()),
    ])

    def base_and_updates(df: pd.DataFrame) -> pa.Table:
        upd = df[df["doc_id"] % 7 == 0]
        out = pd.concat([
            df.assign(is_update=np.int8(0)),
            upd.assign(text=upd["text"].str.upper(), is_update=np.int8(1)),
        ])
        k = out["doc_id"].to_numpy(np.int64)
        return pa.table({
            "doc_id": pa.array(k),
            "text": pa.array(out["text"].astype(str)),
            "is_update": pa.array(
                out["is_update"].to_numpy(np.int8), pa.int8()
            ),
            "part": pa.array(
                (k % num_partitions).astype(np.int32), pa.int32()
            ),
        }, schema=tag_sch)

    out_sch = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])

    def apply_merge(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        # update-wins: one row per key, is_update desc picks the new text
        g = df.sort_values(["doc_id", "is_update"], ascending=[True, False])
        g = g.drop_duplicates("doc_id", keep="first")
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(np.int64)),
            "text": pa.array(g["text"].astype(str)),
        }, schema=out_sch)

    def inserts(df: pd.DataFrame) -> pa.Table:
        ins = df[df["doc_id"] % 13 == 0]
        return pa.table({
            "doc_id": pa.array(
                ins["doc_id"].to_numpy(np.int64) + 10_000_000
            ),
            "text": pa.array(
                ("ins-" + ins["doc_id"].astype(str)).astype(str)
            ),
        }, schema=out_sch)

    merged = (
        ds.map_batches(base_and_updates, batch_format="pandas")
        .groupby("part")
        .map_groups(apply_merge, batch_format="pandas")
    )
    return merged.union(ds.map_batches(inserts, batch_format="pandas"))


def grouped_mode(sf_dir: str):
    """Exact MODE per group (most frequent value, ties to the SMALLEST
    value — deterministic): same value-histogram plan as
    ``grouped_median`` — per-batch (type, cents) count partials, one
    bounded combine (histogram size follows the value RANGE, not the
    event count), and a per-type argmax over the merged histogram."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        g = df.assign(value_c=money_cents(df["value"]), n=1).groupby(
            ["event_type", "value_c"], as_index=False
        )["n"].sum()
        return pa.table({
            "event_type": pa.array(g["event_type"].astype(str)),
            "value_c": pa.array(g["value_c"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
        })

    hist = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["event_type", "value_c"],
        sum_cols=["n"],
        schema=pa.schema([
            ("event_type", pa.string()), ("value_c", pa.int64()),
            ("n", pa.int64()),
        ]),
    )

    sch = pa.schema([
        ("event_type", pa.string()), ("mode_value_c", pa.int64()),
        ("n_occurrences", pa.int64()),
    ])

    def pick(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values(["n", "value_c"], ascending=[False, True],
                            kind="mergesort")
        return pa.table({
            "event_type": pa.array([str(df["event_type"].iloc[0])]),
            "mode_value_c": pa.array([int(df["value_c"].iloc[0])],
                                     pa.int64()),
            "n_occurrences": pa.array([int(df["n"].iloc[0])], pa.int64()),
        }, schema=sch)

    return hist.groupby("event_type").map_groups(pick, batch_format="pandas")


def user_event_type_agg(sf_dir: str, num_partitions: int | None = None):
    """Ordered STRING_AGG / LIST aggregate: per user, the sorted distinct
    event types joined with ',' plus the distinct count. Distinct (user,
    type) pairs are the per-batch partials (types are bounded, so the
    partial is tiny); one bucketed hash(user) exchange finishes the dedup
    and the deterministic in-task sort + join produces the string."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        g = df.drop_duplicates(["user_id", "event_type"])
        u = g["user_id"].to_numpy(np.int64)
        return pa.table({
            "user_id": pa.array(u),
            "event_type": pa.array(g["event_type"].astype(str)),
            "part": pa.array(
                (u % num_partitions).astype(np.int32), pa.int32()
            ),
        })

    sch = pa.schema([
        ("user_id", pa.int64()), ("types", pa.string()),
        ("n_types", pa.int64()),
    ])

    def agg(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        g = df.drop_duplicates(["user_id", "event_type"]).sort_values(
            ["user_id", "event_type"]
        ).groupby("user_id", sort=False)["event_type"]
        joined = g.agg(",".join)
        counts = g.size()
        return pa.table({
            "user_id": pa.array(joined.index.to_numpy(np.int64)),
            "types": pa.array(joined.astype(str)),
            "n_types": pa.array(counts.to_numpy(np.int64)),
        }, schema=sch)

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("part")
        .map_groups(agg, batch_format="pandas")
    )


def last_touch_attribution(sf_dir: str, target: str = "purchase",
                           num_partitions: int | None = None):
    """Last-touch channel attribution: every ``target`` event is credited
    to the user's most recent STRICTLY-EARLIER non-target event type (SQL:
    last_value(... IGNORE NULLS) OVER (PARTITION BY user ORDER BY ts,
    event_id ROWS ... 1 PRECEDING)); purchases with no preceding touch
    credit '(none)'. Output: per-channel purchase count and integer-cents
    revenue sum.

    ONE bucketed hash(user_id) exchange (every user's history lands in one
    task — the user_sessions plan); inside the task a mergesort by
    (user_id, ts, event_id) + a vectorized forward-fill of the last
    non-target type; the per-channel totals then ride the tiny bounded
    combine (rows bounded by distinct event types, not events)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    part_sch = pa.schema([
        ("channel", pa.string()), ("n_purchases", pa.int64()),
        ("sum_c", pa.int64()),
    ])

    def attribute(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return part_sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        touch = df["event_type"].where(df["event_type"] != target)
        # forward-fill within each user: the last non-target type so far
        last = touch.groupby(df["user_id"]).ffill()
        hits = df["event_type"] == target
        g = pd.DataFrame({
            "channel": last[hits].fillna("(none)"),
            "n": 1,
            "vc": money_cents(df.loc[hits, "value"]),
        }).groupby("channel", as_index=False).agg(
            n_purchases=("n", "sum"), sum_c=("vc", "sum")
        )
        return pa.table({
            "channel": pa.array(g["channel"].astype(str), pa.string()),
            "n_purchases": pa.array(g["n_purchases"].astype("int64")),
            "sum_c": pa.array(g["sum_c"].astype("int64")),
        }, schema=part_sch)

    partials = (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(attribute, batch_format="pandas")
    )
    agg = bucketed_sum_combine(
        partials, keys=["channel"], sum_cols=["n_purchases", "sum_c"],
        schema=part_sch,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "channel": df["channel"].astype(str),
            "n_purchases": df["n_purchases"].astype("int64"),
            "sum_value": df["sum_c"].astype("int64") / 100.0,
        })

    return agg.map_batches(finish, batch_format="pandas")


def events_grouping_sets(sf_dir: str):
    """SQL GROUPING SETS ((event_type), (isodow), ()) in ONE pass —
    the disjoint-sets cousin of ``events_rollup``/``events_cube``: counts
    and integer-cents value sums by event type, by ISO day-of-week, and
    grand-total, with every level pre-aggregated inside the batch and one
    bounded combine moving tagged partials (level 0/1/2; '' and -1 stand
    for the rolled-up keys so the compare is type-stable)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        base = pd.DataFrame({
            "event_type": df["event_type"],
            # pandas dayofweek is Mon=0; ISO (DuckDB isodow) is Mon=1
            "isodow": (df["ts"].dt.dayofweek + 1).astype("int64"),
            "value_c": money_cents(df["value"]),
            "n": 1,
        })
        lv0 = base.groupby("event_type", as_index=False).agg(
            n_events=("n", "sum"), sum_c=("value_c", "sum")
        )
        lv0.insert(0, "level", 0)
        lv0["isodow"] = -1
        lv1 = base.groupby("isodow", as_index=False).agg(
            n_events=("n", "sum"), sum_c=("value_c", "sum")
        )
        lv1.insert(0, "level", 1)
        lv1["event_type"] = ""
        lv2 = pd.DataFrame({
            "level": [2], "event_type": [""], "isodow": [-1],
            "n_events": [int(base["n"].sum())],
            "sum_c": [int(base["value_c"].sum())],
        })
        return pd.concat([lv0, lv1, lv2], ignore_index=True)[
            ["level", "event_type", "isodow", "n_events", "sum_c"]
        ]

    agg = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["level", "event_type", "isodow"],
        sum_cols=["n_events", "sum_c"],
        schema=pa.schema([
            ("level", pa.int64()), ("event_type", pa.string()),
            ("isodow", pa.int64()), ("n_events", pa.int64()),
            ("sum_c", pa.int64()),
        ]),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = df["sum_c"].astype("int64") / 100.0
        return df[["level", "event_type", "isodow", "n_events", "sum_value"]]

    return agg.map_batches(finish, batch_format="pandas")


def grouped_skew(sf_dir: str):
    """Exact per-type higher-moment statistics — population skewness and
    excess kurtosis of event value — from integer-cents raw-moment sums
    (n, sum v, sum v^2, sum v^3, sum v^4). v^4 in cents overflows int64 at
    ~$950 for a SINGLE event, so the big sums travel as exact DECIMAL
    STRINGS (unbounded Python ints in the tasks, the oracle's HUGEINT on
    the SQL side) and the closed forms run on identical integers on both
    sides (the grouped_corr contract). Partial rows are bounded by
    event types x blocks, so the driver fold is a tiny-table sum (the
    corpus_summary pattern), not a data-scale reduction."""
    import pyarrow as pa
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    m_sch = pa.schema([
        ("event_type", pa.string()), ("n", pa.int64()),
        ("s1", pa.int64()), ("s2", pa.string()),
        ("s3", pa.string()), ("s4", pa.string()),
    ])

    def partial(df: pd.DataFrame) -> pa.Table:
        rows = []
        for etype, grp in df.groupby("event_type", sort=False):
            vc = [int(v) for v in money_cents(grp["value"])]
            rows.append((
                str(etype), len(vc), sum(vc),
                str(sum(v * v for v in vc)),
                str(sum(v * v * v for v in vc)),
                str(sum(v * v * v * v for v in vc)),
            ))
        return pa.table({
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "s1": pa.array([r[2] for r in rows], pa.int64()),
            "s2": pa.array([r[3] for r in rows], pa.string()),
            "s3": pa.array([r[4] for r in rows], pa.string()),
            "s4": pa.array([r[5] for r in rows], pa.string()),
        }, schema=m_sch)

    parts = ds.map_batches(
        partial, batch_format="pandas"
    ).to_pandas()

    rows = []
    for etype in sorted(parts["event_type"].unique()):
        g = parts[parts["event_type"] == etype]
        n = int(g["n"].sum())
        s1 = int(g["s1"].sum())
        s2 = sum(int(s) for s in g["s2"])
        s3 = sum(int(s) for s in g["s3"])
        s4 = sum(int(s) for s in g["s4"])
        # integer-exact central moment numerators scaled by n^k:
        # n^2*m2 = n*s2 - s1^2 ; n^3*m3 = n^2*s3 - 3n*s1*s2 + 2*s1^3
        # n^4*m4 = n^3*s4 - 4n^2*s1*s3 + 6n*s1^2*s2 - 3*s1^4
        m2n = n * s2 - s1 * s1
        m3n = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 ** 3
        m4n = (n ** 3 * s4 - 4 * n * n * s1 * s3
               + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
        # the n^k scalings cancel: skew = m3/m2^1.5 = (m3n/n^3) /
        # (m2n/n^2)^1.5 = m3n/m2n^1.5 ; excess kurt = m4/m2^2 - 3 =
        # (m4n/n^4)/(m2n/n^2)^2 - 3 = m4n/m2n^2 - 3
        skew = (float(m3n) / float(m2n) ** 1.5
                if m2n > 0 else 0.0)
        kurt = (float(m4n) / (float(m2n) * float(m2n)) - 3.0
                if m2n > 0 else 0.0)
        rows.append((etype, n, skew, kurt))
    out = pd.DataFrame(
        rows,
        columns=["event_type", "n_events", "skewness", "kurtosis_excess"],
    )
    out["n_events"] = out["n_events"].astype("int64")
    return out


def time_to_conversion(sf_dir: str, start: str = "signup",
                       end: str = "purchase",
                       num_partitions: int | None = None):
    """Per-user conversion latency: seconds from the user's FIRST ``start``
    event to their first ``end`` event AT OR AFTER it (users with no start,
    or no end after the start, don't convert and are excluded). The classic
    activation-funnel timing; output one row per converted user.

    Events prune to the two types at the read; ONE bucketed hash(user_id)
    exchange puts each user's (first_start, first_end_after) resolution in
    a single task as two vectorized groupby-mins."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"]
    ).filter(
        expr=f"event_type == '{start}' or event_type == '{end}'"
    )

    out_sch = pa.schema([
        ("user_id", pa.int64()), ("signup_ts", pa.int64()),
        ("conversion_s", pa.int64()),
    ])

    def resolve(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        t_us = df["ts"].astype("datetime64[us]").astype("int64")
        starts = df["event_type"] == start
        first_start = t_us[starts].groupby(df.loc[starts, "user_id"]).min()
        e = pd.DataFrame({
            "user_id": df.loc[~starts, "user_id"],
            "t": t_us[~starts],
        })
        e["s0"] = e["user_id"].map(first_start)
        e = e[e["s0"].notna() & (e["t"] >= e["s0"])]
        first_end = e.groupby("user_id", as_index=False).agg(
            t=("t", "min"), s0=("s0", "min")
        )
        return pa.table({
            "user_id": pa.array(first_end["user_id"].to_numpy(np.int64)),
            "signup_ts": pa.array(first_end["s0"].to_numpy(np.int64)),
            "conversion_s": pa.array(
                ((first_end["t"] - first_end["s0"]) // 1_000_000)
                .to_numpy(np.int64)
            ),
        }, schema=out_sch)

    return (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(resolve, batch_format="pandas")
    )


def last_touch_oracle_sql(target: str = "purchase") -> str:
    """DuckDB mirror of ``last_touch_attribution`` generated from the SAME
    ``target`` parameter, so a non-default invocation keeps a matching
    oracle (advice-r3: the gate must check what the pipeline computes)."""
    return (
        "WITH w AS (SELECT event_type, value,"
        f"  last_value(CASE WHEN event_type <> '{target}'"
        "    THEN event_type END IGNORE NULLS) OVER ("
        "   PARTITION BY user_id ORDER BY ts, event_id"
        "   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)"
        "   AS channel FROM events)"
        " SELECT coalesce(channel, '(none)') AS channel,"
        " count(*)::BIGINT AS n_purchases,"
        " sum(floor(value * 100 + 0.5)::BIGINT) / 100.0 AS sum_value"
        f" FROM w WHERE event_type = '{target}' GROUP BY 1"
    )


def q18_oracle_sql(qty_threshold: int = 200) -> str:
    """DuckDB mirror of ``q18_large_orders``; the HAVING bound derives
    from the same ``qty_threshold`` (in quantity units; compared in
    cents on both sides)."""
    cents = int(qty_threshold) * 100
    return (
        "WITH big AS (SELECT l_orderkey,"
        "  sum(floor(l_quantity * 100 + 0.5)::BIGINT)::BIGINT AS qc"
        "  FROM lineitem GROUP BY 1"
        f"  HAVING sum(floor(l_quantity * 100 + 0.5)::BIGINT) > {cents})"
        " SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_totalprice,"
        " big.qc / 100.0 AS total_qty"
        " FROM big JOIN orders o ON o.o_orderkey = big.l_orderkey"
        " JOIN customer c ON c.c_custkey = o.o_custkey"
    )


def spend_concentration_oracle_sql(top_pct: int = 1) -> str:
    """DuckDB mirror of ``spend_concentration``; the top-slice size k =
    ceil(n * top_pct / 100) uses the same ``top_pct`` as the pipeline."""
    return (
        "WITH u AS (SELECT user_id,"
        "  sum(floor(value * 100 + 0.5)::BIGINT)::BIGINT AS c"
        "  FROM events GROUP BY 1),"
        " o AS (SELECT c,"
        "  row_number() OVER (ORDER BY c, user_id) AS rn FROM u),"
        " t AS (SELECT count(*)::BIGINT AS n, sum(c)::BIGINT AS s,"
        f"  ceil(count(*) * {int(top_pct)} / 100.0)::BIGINT AS k FROM u),"
        " g AS (SELECT sum(rn * c)::HUGEINT AS sr,"
        "  sum(c) FILTER (WHERE rn > (SELECT n - k FROM t))::BIGINT"
        "   AS top_c FROM o)"
        " SELECT t.n AS n_users, t.s / 100.0 AS total_spend,"
        " t.k AS top_users,"
        " g.top_c::DOUBLE / t.s::DOUBLE AS top_share,"
        " (2 * g.sr - (t.n + 1) * t.s)::DOUBLE"
        "  / (t.n * t.s)::DOUBLE AS gini"
        " FROM t, g"
    )


def q18_large_orders(sf_dir: str, qty_threshold: int = 200,
                     num_partitions: int | None = None):
    """TPC-H Q18 shape (large-volume orders): customers whose orders total
    more than ``qty_threshold`` quantity units across line items — the
    IN-subquery-on-an-aggregated-key pattern (HAVING-filtered semi-join).

    Plan: lineitem pre-aggregates (orderkey, qty cents) per batch, ONE
    bucketed hash(orderkey) exchange applies the HAVING filter, and the
    qualifying set — tiny by construction (the filter is the point of the
    query) — broadcasts via the object store into two map-side joins over
    orders then customer. No large-large shuffle anywhere: the only
    all-to-all moves one compact row per orderkey, pre-summed."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        g = pd.Series(
            money_cents(df["l_quantity"]), index=df.index
        ).groupby(df["l_orderkey"]).sum()
        return pa.table({
            "l_orderkey": pa.array(g.index.to_numpy(np.int64)),
            "qc": pa.array(g.to_numpy(np.int64)),
            "part": pa.array(
                (g.index.to_numpy(np.int64) % num_partitions)
                .astype(np.int32)
            ),
        })

    big_sch = pa.schema([("l_orderkey", pa.int64()), ("qc", pa.int64())])

    def having(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return big_sch.empty_table()
        g = df.groupby("l_orderkey", as_index=False)["qc"].sum()
        g = g[g["qc"] > qty_threshold * 100]
        return pa.table({
            "l_orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "qc": pa.array(g["qc"].to_numpy(np.int64)),
        }, schema=big_sch)

    big = (
        li.map_batches(partial, batch_format="pandas")
        .groupby("part")
        .map_groups(having, batch_format="pandas")
        .to_pandas()
    )
    big_ref = ray.put(dict(zip(
        big["l_orderkey"].astype("int64"), big["qc"].astype("int64")
    )))

    ord_sch = pa.schema([
        ("o_custkey", pa.int64()), ("o_orderkey", pa.int64()),
        ("o_totalprice", pa.float64()), ("qc", pa.int64()),
    ])

    def pick_orders(df: pd.DataFrame) -> pa.Table:
        qmap = ray.get(big_ref)
        hit = df["o_orderkey"].isin(qmap)
        sel = df[hit]
        return pa.table({
            "o_custkey": pa.array(sel["o_custkey"].to_numpy(np.int64)),
            "o_orderkey": pa.array(sel["o_orderkey"].to_numpy(np.int64)),
            "o_totalprice": pa.array(
                sel["o_totalprice"].to_numpy(np.float64)
            ),
            "qc": pa.array(
                np.asarray([qmap[int(k)] for k in sel["o_orderkey"]],
                           dtype=np.int64)
            ),
        }, schema=ord_sch)

    hits = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(pick_orders, batch_format="pandas").to_pandas()
    hits_ref = ray.put(hits)

    out_sch = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("o_orderkey", pa.int64()), ("o_totalprice", pa.float64()),
        ("total_qty", pa.float64()),
    ])

    def attach_customer(df: pd.DataFrame) -> pa.Table:
        h = ray.get(hits_ref)
        m = df[["c_custkey", "c_name"]].merge(
            h, left_on="c_custkey", right_on="o_custkey"
        )
        return pa.table({
            "c_custkey": pa.array(m["c_custkey"].to_numpy(np.int64)),
            "c_name": pa.array(m["c_name"].astype(str), pa.string()),
            "o_orderkey": pa.array(m["o_orderkey"].to_numpy(np.int64)),
            "o_totalprice": pa.array(
                m["o_totalprice"].to_numpy(np.float64)
            ),
            "total_qty": pa.array(
                m["qc"].to_numpy(np.int64) / 100.0, pa.float64()
            ),
        }, schema=out_sch)

    return rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(attach_customer, batch_format="pandas")


def session_concurrency(sf_dir: str, gap_minutes: int = 30,
                        num_partitions: int | None = None):
    """Hourly session concurrency: for every hour bucket, how many
    gap-based user sessions (the ``user_sessions`` definition) are ACTIVE
    — i.e. the session's [first event, last event] span overlaps the hour.
    The capacity-planning view of the session table (peak concurrency =
    the max row).

    Same ONE bucketed hash(user_id) exchange as ``user_sessions``; each
    task sessionizes its users, explodes every session to the hour buckets
    its span covers (bounded by session length — the 30-minute gap rule
    caps realistic spans), and pre-counts per hour, so the second combine
    moves one row per (hour x block): bounded by the TIME RANGE, not the
    event count."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def add_part(batch: pa.Table) -> pa.Table:
        parts = crc32_buckets(batch["user_id"].to_pylist(), num_partitions)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    hour_sch = pa.schema([
        ("window_start", pa.int64()), ("n_active", pa.int64()),
    ])

    def explode_hours(part: pd.DataFrame) -> pa.Table:
        if len(part) == 0:
            return hour_sch.empty_table()
        part = part.sort_values(["user_id", "ts"], kind="mergesort")
        gaps = part.groupby("user_id")["ts"].diff()
        new_s = gaps.isna() | (gaps > pd.Timedelta(minutes=gap_minutes))
        sid = new_s.groupby(part["user_id"]).cumsum()
        spans = part.assign(session_id=sid).groupby(
            ["user_id", "session_id"]
        )["ts"].agg(["min", "max"])
        h0 = (
            spans["min"].dt.floor("h").astype("datetime64[s]")
            .astype("int64").to_numpy()
        )
        h1 = (
            spans["max"].dt.floor("h").astype("datetime64[s]")
            .astype("int64").to_numpy()
        )
        n_hours = (h1 - h0) // 3600 + 1
        starts = np.repeat(h0, n_hours)
        offs = np.concatenate(
            [np.arange(k, dtype=np.int64) for k in n_hours]
        ) if len(n_hours) else np.array([], dtype=np.int64)
        hours = starts + 3600 * offs
        u, c = np.unique(hours, return_counts=True)
        return pa.table({
            "window_start": pa.array(u),
            "n_active": pa.array(c.astype(np.int64)),
        }, schema=hour_sch)

    partials = (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(explode_hours, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials, keys=["window_start"], sum_cols=["n_active"],
        schema=hour_sch,
    )


def gap_percentiles_by_type(sf_dir: str, num_partitions: int | None = None):
    """Per-type inter-event dwell time percentiles: exact median and p90 of
    the gap (whole seconds) between a user's consecutive events of the
    same type — the latency-distribution view behind polling-interval and
    session-gap choices.

    Window-then-order-statistics composite: ONE bucketed hash(user_id)
    exchange computes per-user LAG gaps in-task (every user's history in
    one task), the gaps collapse to a (type, gap_s) -> count histogram
    partial, and ONE bounded combine + per-type scan picks the exact
    percentile_disc values by integer cross-multiplication (the
    grouped_median plan: the exchange is bounded by the gap-value RANGE,
    never the event count)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts", "event_id"],
    )

    hist_sch = pa.schema([
        ("event_type", pa.string()), ("gap_s", pa.int64()),
        ("n", pa.int64()),
    ])

    def gaps(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return hist_sch.empty_table()
        df = df.sort_values(
            ["user_id", "event_type", "ts", "event_id"], kind="mergesort"
        )
        t_us = df["ts"].astype("datetime64[us]").astype("int64")
        prev = t_us.groupby(
            [df["user_id"], df["event_type"]]
        ).shift()
        ok = prev.notna()
        g = pd.DataFrame({
            "event_type": df.loc[ok, "event_type"],
            "gap_s": ((t_us[ok] - prev[ok].astype("int64")) // 1_000_000),
            "n": 1,
        }).groupby(["event_type", "gap_s"], as_index=False)["n"].sum()
        return pa.table({
            "event_type": pa.array(g["event_type"].astype(str), pa.string()),
            "gap_s": pa.array(g["gap_s"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
        }, schema=hist_sch)

    hist = bucketed_sum_combine(
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(gaps, batch_format="pandas"),
        keys=["event_type", "gap_s"], sum_cols=["n"],
        schema=hist_sch,
    )

    out_sch = pa.schema([
        ("event_type", pa.string()), ("n_gaps", pa.int64()),
        ("median_gap_s", pa.int64()), ("p90_gap_s", pa.int64()),
    ])

    def pick(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        df = df.sort_values("gap_s")
        cum = df["n"].cumsum().to_numpy(np.int64)
        vals = df["gap_s"].to_numpy(np.int64)
        total = int(cum[-1])

        def disc(num: int, den: int) -> int:
            idx = int(np.searchsorted(den * cum, num * total, side="left"))
            return int(vals[idx])

        return pa.table({
            "event_type": pa.array([str(df["event_type"].iloc[0])]),
            "n_gaps": pa.array([total], pa.int64()),
            "median_gap_s": pa.array([disc(1, 2)], pa.int64()),
            "p90_gap_s": pa.array([disc(9, 10)], pa.int64()),
        }, schema=out_sch)

    return hist.groupby("event_type").map_groups(
        pick, batch_format="pandas"
    )


def late_event_stats(sf_dir: str, num_partitions: int | None = None):
    """Out-of-order (late-data) diagnostics per event type: an event is
    LATE when its timestamp is earlier than the running maximum timestamp
    of the same user's previously-ARRIVED events (arrival order =
    event_id). The watermark-design input for any streaming consumer of
    this feed: late_rate bounds how much reordering a window operator must
    absorb, max_lateness_s sizes the allowed watermark delay.

    ONE bucketed hash(user_id) exchange; in-task vectorized running max
    over arrival order (grouped cummax + grouped shift, both cython
    kernels); each task emits one (type, n, n_late, max_late_s) partial
    row per type, and the driver folds the types x buckets tiny table
    (sums + max — the corpus_summary pattern)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts", "event_id"],
    )

    part_sch = pa.schema([
        ("event_type", pa.string()), ("n_events", pa.int64()),
        ("n_late", pa.int64()), ("max_late_s", pa.int64()),
    ])

    def late(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return part_sch.empty_table()
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        t_us = df["ts"].astype("datetime64[us]").astype("int64")
        cm = t_us.groupby(df["user_id"]).cummax()
        run_max = cm.groupby(df["user_id"].to_numpy()).shift()
        lateness = ((run_max - t_us) // 1_000_000).fillna(-1).astype("int64")
        g = pd.DataFrame({
            "event_type": df["event_type"],
            "n": 1,
            "is_late": (lateness > 0).astype("int64"),
            "late_s": lateness.clip(lower=0),
        }).groupby("event_type", as_index=False).agg(
            n_events=("n", "sum"), n_late=("is_late", "sum"),
            max_late_s=("late_s", "max"),
        )
        return pa.table({
            "event_type": pa.array(g["event_type"].astype(str), pa.string()),
            "n_events": pa.array(g["n_events"].astype("int64")),
            "n_late": pa.array(g["n_late"].astype("int64")),
            "max_late_s": pa.array(g["max_late_s"].astype("int64")),
        }, schema=part_sch)

    partials = (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(late, batch_format="pandas")
        .to_pandas()
    )
    g = partials.groupby("event_type", as_index=False).agg(
        n_events=("n_events", "sum"), n_late=("n_late", "sum"),
        max_late_s=("max_late_s", "max"),
    )
    g["late_rate"] = g["n_late"].astype("int64") / g["n_events"].astype(
        "int64"
    )
    for c in ("n_events", "n_late", "max_late_s"):
        g[c] = g[c].astype("int64")
    return g


def conversion_rate_by_signup_day(sf_dir: str, within_hours: int = 24,
                                  num_partitions: int | None = None):
    """Daily activation report: per signup DAY, how many users signed up
    and what fraction purchased within ``within_hours`` of their first
    signup — the day-over-day health metric a growth dashboard tracks
    (time_to_conversion gives the latency distribution; this gives the
    cohort-level rate including the non-converters).

    Same type-pruned read + ONE hash(user_id) exchange as
    time_to_conversion; each task resolves (first signup, converted-in-
    window flag) per user and pre-counts per day, so the second combine is
    bounded by the DATE RANGE."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"]
    ).filter(expr="event_type == 'signup' or event_type == 'purchase'")

    day_sch = pa.schema([
        ("day_start", pa.int64()), ("n_signups", pa.int64()),
        ("n_converted", pa.int64()),
    ])

    def resolve(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return day_sch.empty_table()
        t_us = df["ts"].astype("datetime64[us]").astype("int64")
        signs = df["event_type"] == "signup"
        s0 = t_us[signs].groupby(df.loc[signs, "user_id"]).min()
        if not len(s0):
            return day_sch.empty_table()
        p = pd.DataFrame({
            "user_id": df.loc[~signs, "user_id"], "t": t_us[~signs],
        })
        p["s0"] = p["user_id"].map(s0)
        p = p[p["s0"].notna() & (p["t"] >= p["s0"])]
        first_p = p.groupby("user_id")["t"].min()
        win_us = within_hours * 3600 * 1_000_000
        conv = (
            (first_p - s0.reindex(first_p.index)) <= win_us
        ).astype("int64")
        per_user = pd.DataFrame({
            "day_start": (s0 // 86_400_000_000) * 86_400,
            "converted": conv.reindex(s0.index).fillna(0).astype("int64"),
        })
        g = per_user.assign(n=1).groupby("day_start", as_index=False).agg(
            n_signups=("n", "sum"), n_converted=("converted", "sum")
        )
        return pa.table({
            "day_start": pa.array(g["day_start"].to_numpy(np.int64)),
            "n_signups": pa.array(g["n_signups"].astype("int64")),
            "n_converted": pa.array(g["n_converted"].astype("int64")),
        }, schema=day_sch)

    agg = bucketed_sum_combine(
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(resolve, batch_format="pandas"),
        keys=["day_start"], sum_cols=["n_signups", "n_converted"],
        schema=day_sch,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["conversion_rate"] = (
            df["n_converted"].astype("int64")
            / df["n_signups"].astype("int64")
        )
        return df[["day_start", "n_signups", "n_converted",
                   "conversion_rate"]]

    return agg.map_batches(finish, batch_format="pandas")


def event_path_trigrams(sf_dir: str, top_n: int = 20,
                        num_partitions: int | None = None):
    """Sequence mining one step deeper than the Markov transition matrix:
    the top-``top_n`` consecutive event-type TRIGRAMS over each user's
    timeline (ts, event_id order) — the path motifs behind funnel design.

    ONE bucketed hash(user_id) exchange; in-task double shift produces the
    (t1, t2, t3) triples vectorized, per-task value_counts pre-aggregates,
    and the bounded combine moves one row per distinct trigram per block
    (event-type alphabet cubed, tiny). Deterministic final order:
    (count DESC, path ASC)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts", "event_id"],
    )

    tri_sch = pa.schema([("path", pa.string()), ("n", pa.int64())])

    def trigrams(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return tri_sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = df["user_id"]
        t1 = df["event_type"]
        t2 = t1.shift(-1).where(uid.shift(-1).eq(uid))
        t3 = t1.shift(-2).where(uid.shift(-2).eq(uid))
        ok = t2.notna() & t3.notna()
        paths = (t1[ok] + " > " + t2[ok] + " > " + t3[ok]).value_counts()
        return pa.table({
            "path": pa.array(paths.index.astype(str), pa.string()),
            "n": pa.array(paths.to_numpy(np.int64)),
        }, schema=tri_sch)

    agg = bucketed_sum_combine(
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(trigrams, batch_format="pandas"),
        keys=["path"], sum_cols=["n"],
        schema=tri_sch,
    )
    return agg.sort(["n", "path"], descending=[True, False]).limit(top_n)


def nation_revenue_share(sf_dir: str, num_partitions: int | None = None):
    """RATIO_TO_REPORT window shape: each nation's share of total order
    revenue (integer-cents exact; the share is the double division of
    identical integers on both sides). Orders pre-aggregate to per-customer
    cents partials, the broadcast customer->nation map (dimension tables
    are tiny by definition) attaches the nation in-task, and ONE bounded
    combine yields 25 rows; the grand total is their sum — no second
    pass."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from .common import bucketed_sum_combine

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nat = rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    c2n = dict(zip(
        cust["c_custkey"].astype("int64"),
        cust["c_nationkey"].map(
            dict(zip(nat["n_nationkey"].astype("int64"),
                     nat["n_name"].astype(str)))
        ),
    ))
    ref = ray.put(c2n)

    part_sch = pa.schema([("n_name", pa.string()), ("rev_c", pa.int64())])

    def partial(df: pd.DataFrame) -> pa.Table:
        m = ray.get(ref)
        g = pd.Series(
            money_cents(df["o_totalprice"]), index=df.index
        ).groupby(df["o_custkey"].map(m)).sum()
        return pa.table({
            "n_name": pa.array(g.index.astype(str), pa.string()),
            "rev_c": pa.array(g.to_numpy(np.int64)),
        }, schema=part_sch)

    agg = bucketed_sum_combine(
        rd.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_totalprice"],
        ).map_batches(partial, batch_format="pandas"),
        keys=["n_name"], sum_cols=["rev_c"],
        schema=part_sch,
    ).to_pandas()

    total = int(agg["rev_c"].sum())
    agg = agg.sort_values("n_name").reset_index(drop=True)
    return pd.DataFrame({
        "n_name": agg["n_name"].astype(str),
        "revenue": agg["rev_c"].astype("int64") / 100.0,
        "revenue_share": agg["rev_c"].astype("int64") / total,
    })


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape (promotion effect): per ship MONTH, the share of
    line-item revenue from parts of type 'PROMO'. The classic
    fact-to-small-dimension pattern: the part table is tiny by definition,
    so the partkey -> is_promo bitmap broadcasts via the object store and
    lineitem streams through ONE pass with a months-bounded combine — no
    join shuffle at any corpus size (revenue in integer cents, the
    order_revenue_by_status contract; the share divides identical
    integers on both sides)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from .common import bucketed_sum_combine

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).to_pandas()
    promo = set(
        part.loc[part["p_type"] == "PROMO", "p_partkey"].astype("int64")
    )
    ref = ray.put(promo)

    m_sch = pa.schema([
        ("month_start", pa.int64()), ("promo_c", pa.int64()),
        ("total_c", pa.int64()),
    ])

    def partial(df: pd.DataFrame) -> pa.Table:
        pset = ray.get(ref)
        rc = money_cents(df["l_extendedprice"] * (1 - df["l_discount"]))
        month = (
            df["l_shipdate"].dt.to_period("M").dt.start_time
            .astype("datetime64[s]").astype("int64")
        )
        is_promo = df["l_partkey"].isin(pset).to_numpy()
        g = pd.DataFrame({
            "month_start": month,
            "promo_c": np.where(is_promo, rc, 0),
            "total_c": rc,
        }).groupby("month_start", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False).cast(m_sch)

    agg = bucketed_sum_combine(
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_shipdate", "l_extendedprice",
                     "l_discount"],
        ).map_batches(partial, batch_format="pandas"),
        keys=["month_start"], sum_cols=["promo_c", "total_c"],
        schema=m_sch,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "month_start": df["month_start"].astype("int64"),
            "promo_revenue": df["promo_c"].astype("int64") / 100.0,
            "total_revenue": df["total_c"].astype("int64") / 100.0,
            "promo_share": (
                df["promo_c"].astype("int64")
                / df["total_c"].astype("int64")
            ),
        })

    return agg.map_batches(finish, batch_format="pandas")


def spend_concentration(sf_dir: str, top_pct: int = 1,
                        range_shift: int | None = None):
    """Spend-concentration report: the exact Gini coefficient of per-user
    total spend plus the share held by the top ``top_pct`` percent of
    users — the whale-detection statistic behind sampling and abuse
    decisions. One row.

    Distributed exact rank statistic on the range-bucket +
    offset-broadcast plan (the user_spend_rank machinery): each rb-bucket
    task knows its rows' GLOBAL sorted positions from the broadcast
    offsets, so it emits exact integer partials (sum of rank*cents as a
    decimal string — it overflows int64 at scale — plus the top-k cents
    sum) and the driver folds one row per bucket into the closed forms
    gini = (2*sr - (n+1)*s) / (n*s) and top_share = top_c / s, both
    double divisions of identical integers on both sides."""
    import math

    import pyarrow as pa

    users = _user_spend_totals(sf_dir)
    range_shift, offsets, total = _spend_range_offsets(users, range_shift)
    k_top = math.ceil(total * top_pct / 100)
    cut = total - k_top  # rows with global rn > cut are the top slice

    part_sch = pa.schema([
        ("n", pa.int64()), ("s_c", pa.int64()),
        ("sr_str", pa.string()), ("top_c", pa.int64()),
    ])

    def partials(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return part_sch.empty_table()
        spend = df["spend_c"].to_numpy(np.int64)
        uid = df["user_id"].to_numpy(np.int64)
        off = offsets[int(df["rb"].iloc[0])]
        order = np.lexsort((uid, spend))
        rn = np.empty(len(df), dtype=np.int64)
        rn[order] = off + np.arange(1, len(df) + 1, dtype=np.int64)
        sr = sum(int(r) * int(c) for r, c in zip(rn, spend))
        top_c = int(spend[rn > cut].sum())
        return pa.table({
            "n": pa.array([len(df)], pa.int64()),
            "s_c": pa.array([int(spend.sum())], pa.int64()),
            "sr_str": pa.array([str(sr)], pa.string()),
            "top_c": pa.array([top_c], pa.int64()),
        }, schema=part_sch)

    parts = (
        users.map_batches(_append_rb(range_shift), batch_format="pyarrow")
        .groupby("rb")
        .map_groups(partials, batch_format="pandas")
        .to_pandas()
    )
    n = int(parts["n"].sum())
    s = int(parts["s_c"].sum())
    sr = sum(int(x) for x in parts["sr_str"])
    top_c = int(parts["top_c"].sum())
    gini = float(2 * sr - (n + 1) * s) / float(n * s) if n and s else 0.0
    return pd.DataFrame({
        "n_users": np.array([n], dtype="int64"),
        "total_spend": np.array([s], dtype="int64") / 100.0,
        "top_users": np.array([k_top], dtype="int64"),
        "top_share": np.array([top_c], dtype="int64")
        / np.array([s], dtype="int64"),
        "gini": np.array([gini], dtype="float64"),
    })


def order_dow_chisq(sf_dir: str):
    """Weekday-seasonality hypothesis test: chi-square statistic of the
    order-date ISO-weekday distribution against uniform — the one-row
    screen for "is this feed's time dimension synthetic/batched or
    organic?". Counts are exact (one 7-row bounded combine off per-batch
    partials); the statistic collapses to the closed form
    chi2 = (7*sum(o_i^2) - n^2) / n — missing weekdays contribute their
    expected mass automatically — so it's ONE double division of
    identical integers on both sides, with no float summation order to
    match."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate"]
    )

    cnt_sch = pa.schema([("isodow", pa.int64()), ("n", pa.int64())])

    def partial(df: pd.DataFrame) -> pa.Table:
        g = pd.DataFrame({
            "isodow": (df["o_orderdate"].dt.dayofweek + 1).astype("int64"),
            "n": 1,
        }).groupby("isodow", as_index=False)["n"].sum()
        return pa.Table.from_pandas(g, preserve_index=False).cast(cnt_sch)

    counts = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["isodow"], sum_cols=["n"], schema=cnt_sch,
    ).to_pandas().sort_values("isodow")

    n = int(counts["n"].sum())
    obs = counts["n"].to_numpy(np.int64)
    s2 = sum(int(o) * int(o) for o in obs)
    chi2 = float(7 * s2 - n * n) / float(n) if n else 0.0
    return pd.DataFrame({
        "n_orders": np.array([n], dtype="int64"),
        "n_days_seen": np.array([len(counts)], dtype="int64"),
        "chi2_uniform": np.array([chi2], dtype="float64"),
    })


def brand_price_cv(sf_dir: str):
    """Per-brand retail-price dispersion: exact mean and coefficient of
    variation from integer-cents moment sums — the assortment-pricing
    diagnostic (a near-zero CV brand is single-price; a huge CV brand
    mixes tiers). One bounded combine of (n, sum, sum of squares) per
    brand; the doubles derive from identical integers in the mirrored op
    order (population variance, the grouped_corr contract)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_brand", "p_retailprice"]
    )

    m_sch = pa.schema([
        ("p_brand", pa.string()), ("n", pa.int64()),
        ("s1", pa.int64()), ("s2", pa.int64()),
    ])

    def partial(df: pd.DataFrame) -> pa.Table:
        pc = pd.Series(money_cents(df["p_retailprice"]), index=df.index)
        g = df.assign(s1=pc, s2=pc * pc, n=1).groupby(
            "p_brand", as_index=False
        ).agg(n=("n", "sum"), s1=("s1", "sum"), s2=("s2", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False).select(
            m_sch.names
        ).cast(m_sch)

    agg = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["p_brand"], sum_cols=["n", "s1", "s2"],
        schema=m_sch,
    )

    out_sch = pa.schema([
        ("p_brand", pa.string()), ("n_parts", pa.int64()),
        ("mean_price", pa.float64()), ("price_cv", pa.float64()),
    ])

    def finish(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        import math

        rows = []
        for r in df.itertuples(index=False):
            n, s1, s2 = int(r.n), int(r.s1), int(r.s2)
            mean = float(s1) / float(n) / 100.0
            var_n2 = n * s2 - s1 * s1        # n^2 * population variance
            # math.sqrt == SQL sqrt: both IEEE correctly rounded
            cv = (math.sqrt(float(var_n2)) / float(s1) if s1 > 0 else 0.0)
            rows.append((str(r.p_brand), n, mean, cv))
        return pa.table({
            "p_brand": pa.array([x[0] for x in rows], pa.string()),
            "n_parts": pa.array([x[1] for x in rows], pa.int64()),
            "mean_price": pa.array([x[2] for x in rows], pa.float64()),
            "price_cv": pa.array([x[3] for x in rows], pa.float64()),
        }, schema=out_sch)

    return agg.map_batches(finish, batch_format="pandas")


def benford_value_digits(sf_dir: str):
    """Benford first-digit profile of event values — the classic
    fabricated-numbers screen: per leading digit 1-9, the observed count,
    Benford's expected probability log10(1+1/d), and that digit's
    chi-square contribution. Emitting PER-DIGIT rows keeps every float a
    row-local expression over identical integers (no cross-digit float
    sum to order-match); the driver-side screen is then 'read the contrib
    column'. Zero-value events have no leading digit and are excluded.

    One pass: per-batch digit counts (the leading digit of integer cents
    is a string op) -> one 9-row bounded combine."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    d_sch = pa.schema([("digit", pa.int64()), ("n", pa.int64())])

    def partial(df: pd.DataFrame) -> pa.Table:
        vc = money_cents(df["value"])
        vc = vc[vc > 0]
        digits = pd.Series(vc).astype(str).str[0].astype("int64")
        g = digits.value_counts().sort_index()
        return pa.table({
            "digit": pa.array(g.index.to_numpy(np.int64)),
            "n": pa.array(g.to_numpy(np.int64)),
        }, schema=d_sch)

    counts = bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        keys=["digit"], sum_cols=["n"], schema=d_sch,
    ).to_pandas().sort_values("digit")

    import math

    total = int(counts["n"].sum())
    rows = []
    for r in counts.itertuples(index=False):
        d, n = int(r.digit), int(r.n)
        p = math.log10(1.0 + 1.0 / d)
        e = total * p
        contrib = (n - e) * (n - e) / e if e else 0.0
        rows.append((d, n, p, contrib))
    out = pd.DataFrame(
        rows, columns=["digit", "n_obs", "benford_p", "chi2_contrib"]
    )
    out["digit"] = out["digit"].astype("int64")
    out["n_obs"] = out["n_obs"].astype("int64")
    return out


def order_size_histogram(sf_dir: str):
    """Order fan-out distribution: how many orders have k line items —
    the histogram that sizes the pre-aggregation win of every
    lineitem-side join (a heavy tail means per-order partials matter
    more). Two bounded exchanges: per-batch (orderkey, partial count)
    partials -> one hash(orderkey) combine -> per-batch (k, n_orders)
    partials -> one k-bounded combine."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine

    per_order = bucketed_sum_combine(
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
        ).map_batches(
            lambda df: pa.table({
                "l_orderkey": pa.array(
                    df["l_orderkey"].value_counts().index.to_numpy(
                        np.int64
                    )
                ),
                "k": pa.array(
                    df["l_orderkey"].value_counts().to_numpy(np.int64)
                ),
            }),
            batch_format="pandas",
        ),
        keys=["l_orderkey"], sum_cols=["k"],
        schema=pa.schema([("l_orderkey", pa.int64()), ("k", pa.int64())]),
    )

    h_sch = pa.schema([("n_items", pa.int64()), ("n_orders", pa.int64())])

    def hist(df: pd.DataFrame) -> pa.Table:
        g = df["k"].value_counts().sort_index()
        return pa.table({
            "n_items": pa.array(g.index.to_numpy(np.int64)),
            "n_orders": pa.array(g.to_numpy(np.int64)),
        }, schema=h_sch)

    return bucketed_sum_combine(
        per_order.map_batches(hist, batch_format="pandas"),
        keys=["n_items"], sum_cols=["n_orders"], schema=h_sch,
    )


def segment_priority_independence(sf_dir: str,
                                  num_partitions: int | None = None):
    """Chi-square INDEPENDENCE test cells: the (market segment x order
    priority) contingency table with each cell's expected count under
    independence and its chi-square contribution — the "does customer
    segment drive order urgency?" screen. Per-CELL rows keep every float
    a row-local expression over identical integers (the benford pattern),
    so nothing float-summation-order-dependent crosses the oracle.

    Large-large join done the house way (the doc_embedding_features /
    _bucketed_hash_join plan): tag + union customer(custkey, segment) and
    orders(custkey, priority), ONE crc32(custkey) bucket exchange, pandas
    merge inside each task, per-task cell counts, then a bounded combine
    (segments x priorities rows). Margins and expecteds compute on the
    driver from that tiny table."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions
    from .dedup import _bucketed_hash_join

    if num_partitions is None:
        num_partitions = cluster_partitions()

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def left(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "seg": pa.array(df["c_mktsegment"].astype(str), pa.string()),
            "prio": pa.array([""] * len(df), pa.string()),
            "is_right": pa.array(np.zeros(len(df), np.int8), pa.int8()),
        })

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )

    def right(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "custkey": pa.array(df["o_custkey"].to_numpy(np.int64)),
            "seg": pa.array([""] * len(df), pa.string()),
            "prio": pa.array(
                df["o_orderpriority"].astype(str), pa.string()
            ),
            "is_right": pa.array(np.ones(len(df), np.int8), pa.int8()),
        })

    cell_sch = pa.schema([
        ("c_mktsegment", pa.string()), ("o_orderpriority", pa.string()),
        ("n", pa.int64()),
    ])

    def merge(df: pd.DataFrame) -> pa.Table:
        l = df[df["is_right"] == 0][["custkey", "seg"]]
        r = df[df["is_right"] == 1][["custkey", "prio"]]
        if len(l) == 0 or len(r) == 0:
            return cell_sch.empty_table()
        m = r.merge(l, on="custkey")
        g = m.assign(n=1).groupby(["seg", "prio"], as_index=False)[
            "n"
        ].sum()
        return pa.table({
            "c_mktsegment": pa.array(g["seg"].astype(str), pa.string()),
            "o_orderpriority": pa.array(g["prio"].astype(str), pa.string()),
            "n": pa.array(g["n"].astype("int64")),
        }, schema=cell_sch)

    joined = _bucketed_hash_join(
        cust.map_batches(left, batch_format="pandas"),
        orders.map_batches(right, batch_format="pandas"),
        key="custkey", num_partitions=num_partitions, merge_fn=merge,
    )
    cells = bucketed_sum_combine(
        joined, keys=["c_mktsegment", "o_orderpriority"], sum_cols=["n"],
        schema=cell_sch,
    ).to_pandas()

    n = int(cells["n"].sum())
    row_t = cells.groupby("c_mktsegment")["n"].sum()
    col_t = cells.groupby("o_orderpriority")["n"].sum()
    rows = []
    for r in cells.sort_values(
        ["c_mktsegment", "o_orderpriority"]
    ).itertuples(index=False):
        rs = int(row_t[r.c_mktsegment])
        cs = int(col_t[r.o_orderpriority])
        e = float(rs * cs) / float(n)
        o = int(r.n)
        rows.append((
            str(r.c_mktsegment), str(r.o_orderpriority), o, e,
            (o - e) * (o - e) / e,
        ))
    out = pd.DataFrame(rows, columns=[
        "c_mktsegment", "o_orderpriority", "n_obs", "expected",
        "chi2_contrib",
    ])
    out["n_obs"] = out["n_obs"].astype("int64")
    return out


def q7_volume_shipping(sf_dir: str, nation_a: str = "NATION_1",
                       nation_b: str = "NATION_2",
                       date_from: str = "1996-01-01",
                       date_to: str = "1998-01-01",
                       num_partitions: int | None = None):
    """TPC-H Q7-style volume shipping: revenue by (supp_nation, cust_nation,
    ship year) for lineitems shipped between two named nations in a date
    range, counting both directions.

    Same two-exchange skeleton as q5 (the join tree differs only in which
    side carries the nation):
    - supplier prunes to the two nations driver-side and broadcasts as
      sorted (suppkey -> nationkey) arrays (smallest fact-side dimension;
      at the 1e8+-supplier extreme this side moves to the bucketed join);
    - customers of the two nations ⋈ ALL orders ride ONE bucketed
      hash(custkey) % P exchange -> (orderkey, cust nation);
    - lineitem filters on shipdate at the scan, maps suppkey -> nation via
      the broadcast, and pre-aggregates revenue cents per (orderkey,
      supp nation, year) per batch BEFORE its one hash(orderkey) % P
      exchange -- the big join moves ~|orders| rows, not ~|lineitem|;
    - the cross-nation filter (supp != cust) applies inside the join task;
      survivors pre-aggregate to the 2x2xYEARS cells and ONE bounded
      combine finishes. Integer-cents half-up money contract throughout."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    pair = nation[nation["n_name"].isin([nation_a, nation_b])]
    nat_names = dict(zip(pair["n_nationkey"].astype(int), pair["n_name"]))

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp = supp[supp["s_nationkey"].isin(nat_names)].sort_values("s_suppkey")
    supp_ref = ray.put((
        supp["s_suppkey"].to_numpy(np.int64),
        supp["s_nationkey"].to_numpy(np.int64),
    ))

    # --- side A: pair-nation customers ⋈ orders on custkey ---
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    ab_sch = pa.schema([
        ("custkey", pa.int64()), ("o_orderkey", pa.int64()),
        ("c_nat", pa.int64()), ("is_order", pa.int8()),
    ])

    def cust_rows(df: pd.DataFrame) -> pa.Table:
        df = df[df["c_nationkey"].isin(nat_names)]
        n = len(df)
        return pa.table({
            "custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "o_orderkey": pa.array(np.zeros(n, np.int64)),
            "c_nat": pa.array(df["c_nationkey"].to_numpy(np.int64)),
            "is_order": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=ab_sch)

    def order_rows(df: pd.DataFrame) -> pa.Table:
        n = len(df)
        return pa.table({
            "custkey": pa.array(df["o_custkey"].to_numpy(np.int64)),
            "o_orderkey": pa.array(df["o_orderkey"].to_numpy(np.int64)),
            "c_nat": pa.array(np.zeros(n, np.int64)),
            "is_order": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=ab_sch)

    def bucket_cust(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["custkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32())
        )

    onat_sch = pa.schema([
        ("o_orderkey", pa.int64()), ("c_nat", pa.int64()),
        ("s_nat", pa.int64()), ("l_year", pa.int64()),
        ("rev_c", pa.int64()), ("is_rev", pa.int8()),
    ])

    def cust_join(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return onat_sch.empty_table()
        left = df[df["is_order"] == 0][["custkey", "c_nat"]]
        right = df[df["is_order"] == 1][["custkey", "o_orderkey"]]
        m = right.merge(left, on="custkey")
        n = len(m)
        return pa.table({
            "o_orderkey": pa.array(m["o_orderkey"].to_numpy(np.int64)),
            "c_nat": pa.array(m["c_nat"].to_numpy(np.int64)),
            "s_nat": pa.array(np.zeros(n, np.int64)),
            "l_year": pa.array(np.zeros(n, np.int64)),
            "rev_c": pa.array(np.zeros(n, np.int64)),
            "is_rev": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=onat_sch)

    order_nat = (
        cust.map_batches(cust_rows, batch_format="pandas")
        .union(orders.map_batches(order_rows, batch_format="pandas"))
        .map_batches(bucket_cust, batch_format="pyarrow")
        .groupby("part")
        .map_groups(cust_join, batch_format="pandas")
    )

    # --- side B: shipdate-filtered lineitem revenue partials ---
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    )

    def rev_partial(df: pd.DataFrame) -> pa.Table:
        sk, snat = ray.get(supp_ref)
        df = df[(df["l_shipdate"] >= t_from) & (df["l_shipdate"] < t_to)]
        if len(sk) == 0 or len(df) == 0:
            return onat_sch.empty_table()
        keys = df["l_suppkey"].to_numpy(np.int64)
        pos = np.minimum(np.searchsorted(sk, keys), len(sk) - 1)
        hit = sk[pos] == keys
        df = df[hit].assign(
            s_nat=snat[pos[hit]],
            l_year=df["l_shipdate"][hit].dt.year.astype(np.int64),
        )
        df = df.assign(rev_c=money_cents(
            df["l_extendedprice"] * (1 - df["l_discount"])
        ))
        g = df.groupby(["l_orderkey", "s_nat", "l_year"], as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        n = len(g)
        return pa.table({
            "o_orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "c_nat": pa.array(np.zeros(n, np.int64)),
            "s_nat": pa.array(g["s_nat"].to_numpy(np.int64)),
            "l_year": pa.array(g["l_year"].to_numpy(np.int64)),
            "rev_c": pa.array(g["rev_c"].to_numpy(np.int64)),
            "is_rev": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=onat_sch)

    def bucket_order(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part2", pa.array(((k // 3) % num_partitions).astype(np.int32),
                              pa.int32())
        )

    cell_sch = pa.schema([
        ("s_nat", pa.int64()), ("c_nat", pa.int64()),
        ("l_year", pa.int64()), ("revenue_c", pa.int64()),
    ])

    def order_join(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_rev" not in df.columns:
            return cell_sch.empty_table()
        left = df[df["is_rev"] == 0][["o_orderkey", "c_nat"]]
        right = df[df["is_rev"] == 1][["o_orderkey", "s_nat", "l_year",
                                       "rev_c"]]
        m = right.merge(left, on="o_orderkey")
        m = m[m["s_nat"] != m["c_nat"]]  # both already pair-restricted
        g = m.groupby(["s_nat", "c_nat", "l_year"], as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        return pa.table({
            "s_nat": pa.array(g["s_nat"].to_numpy(np.int64)),
            "c_nat": pa.array(g["c_nat"].to_numpy(np.int64)),
            "l_year": pa.array(g["l_year"].to_numpy(np.int64)),
            "revenue_c": pa.array(g["rev_c"].to_numpy(np.int64)),
        }, schema=cell_sch)

    partials = (
        order_nat.union(
            lineitem.map_batches(rev_partial, batch_format="pandas")
        )
        .map_batches(bucket_order, batch_format="pyarrow")
        .groupby("part2")
        .map_groups(order_join, batch_format="pandas")
    )
    combined = bucketed_sum_combine(
        partials, keys=["s_nat", "c_nat", "l_year"], sum_cols=["revenue_c"],
        schema=cell_sch,
    )

    out_sch = pa.schema([
        ("supp_nation", pa.string()), ("cust_nation", pa.string()),
        ("l_year", pa.int64()), ("revenue_c", pa.int64()),
    ])

    def name(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "supp_nation": df["s_nat"].map(nat_names).astype(str),
            "cust_nation": df["c_nat"].map(nat_names).astype(str),
            "l_year": df["l_year"].astype("int64"),
            "revenue_c": df["revenue_c"].astype("int64"),
        }, schema=out_sch)

    # map_batches skips the schema-less empty blocks the exchanges emit, so
    # an empty result (zero-row tables, or sf0.001 where no lineitem ships
    # between the two nations) would have no schema: a leading typed empty
    # block gives Dataset.schema() the declared one
    return rd.from_arrow(out_sch.empty_table()).union(
        combined.map_batches(name, batch_format="pandas")
    )


def q10_returned_items(sf_dir: str, date_from: str = "1996-01-01",
                       date_to: str = "1996-04-01", top_n: int = 20,
                       num_partitions: int | None = None):
    """TPC-H Q10-style returned-item reporting: the top_n customers by
    revenue lost to returned lineitems ('R' flag) for orders placed in a
    quarter, with name / account balance / nation attached.

    Plan (two bucketed exchanges + one bounded top-k):
    - lineitem filters returnflag='R' at the scan and pre-aggregates
      revenue cents per orderkey per batch; quarter-filtered orders emit
      slim (orderkey, custkey); ONE hash(orderkey) % P exchange joins them
      -> (custkey, rev_c) partials;
    - partials re-bucket on hash(custkey) % P TOGETHER with the slim
      customer rows (name, acctbal, nationkey) -- the revenue collapse and
      the attribute attach ride the same exchange;
    - nation (25 rows) resolves driver-side; the final top-k is a
      sort-limit over <= |customers-with-returns| aggregated rows with a
      custkey tiebreak so the cut is deterministic. Integer-cents money."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    nat_names = dict(zip(nation["n_nationkey"].astype(int),
                         nation["n_name"]))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    )

    ok_sch = pa.schema([
        ("o_orderkey", pa.int64()), ("custkey", pa.int64()),
        ("rev_c", pa.int64()), ("is_rev", pa.int8()),
    ])

    def order_rows(df: pd.DataFrame) -> pa.Table:
        df = df[(df["o_orderdate"] >= t_from) & (df["o_orderdate"] < t_to)]
        n = len(df)
        return pa.table({
            "o_orderkey": pa.array(df["o_orderkey"].to_numpy(np.int64)),
            "custkey": pa.array(df["o_custkey"].to_numpy(np.int64)),
            "rev_c": pa.array(np.zeros(n, np.int64)),
            "is_rev": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=ok_sch)

    def rev_rows(df: pd.DataFrame) -> pa.Table:
        df = df[df["l_returnflag"] == "R"]
        if len(df) == 0:
            return ok_sch.empty_table()
        df = df.assign(rev_c=money_cents(
            df["l_extendedprice"] * (1 - df["l_discount"])
        ))
        g = df.groupby("l_orderkey", as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        n = len(g)
        return pa.table({
            "o_orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "custkey": pa.array(np.zeros(n, np.int64)),
            "rev_c": pa.array(g["rev_c"].to_numpy(np.int64)),
            "is_rev": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=ok_sch)

    def bucket_order(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array(((k // 3) % num_partitions).astype(np.int32),
                             pa.int32())
        )

    ck_sch = pa.schema([
        ("custkey", pa.int64()), ("rev_c", pa.int64()),
        ("c_name", pa.string()), ("c_acctbal", pa.float64()),
        ("c_nat", pa.int64()), ("is_cust", pa.int8()),
    ])

    def order_join(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_rev" not in df.columns:
            return ck_sch.empty_table()
        left = df[df["is_rev"] == 0][["o_orderkey", "custkey"]]
        right = df[df["is_rev"] == 1][["o_orderkey", "rev_c"]]
        m = right.merge(left, on="o_orderkey")
        g = m.groupby("custkey", as_index=False).agg(rev_c=("rev_c", "sum"))
        n = len(g)
        return pa.table({
            "custkey": pa.array(g["custkey"].to_numpy(np.int64)),
            "rev_c": pa.array(g["rev_c"].to_numpy(np.int64)),
            "c_name": pa.array([""] * n, pa.string()),
            "c_acctbal": pa.array(np.zeros(n, np.float64)),
            "c_nat": pa.array(np.zeros(n, np.int64)),
            "is_cust": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=ck_sch)

    rev_per_cust = (
        orders.map_batches(order_rows, batch_format="pandas")
        .union(lineitem.map_batches(rev_rows, batch_format="pandas"))
        .map_batches(bucket_order, batch_format="pyarrow")
        .groupby("part")
        .map_groups(order_join, batch_format="pandas")
    )

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
    )

    def cust_rows(df: pd.DataFrame) -> pa.Table:
        n = len(df)
        return pa.table({
            "custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "rev_c": pa.array(np.zeros(n, np.int64)),
            "c_name": pa.array(df["c_name"].astype(str), pa.string()),
            "c_acctbal": pa.array(df["c_acctbal"].to_numpy(np.float64)),
            "c_nat": pa.array(df["c_nationkey"].to_numpy(np.int64)),
            "is_cust": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=ck_sch)

    def bucket_cust(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["custkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part2", pa.array((k % num_partitions).astype(np.int32),
                              pa.int32())
        )

    out_sch = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("revenue_c", pa.int64()), ("c_acctbal", pa.float64()),
        ("n_name", pa.string()),
    ])

    def cust_join(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_cust" not in df.columns:
            return out_sch.empty_table()
        rev = df[df["is_cust"] == 0]
        if len(rev) == 0:
            return out_sch.empty_table()
        rev = rev.groupby("custkey", as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        attrs = df[df["is_cust"] == 1][
            ["custkey", "c_name", "c_acctbal", "c_nat"]
        ]
        m = rev.merge(attrs, on="custkey")
        return pa.table({
            "c_custkey": pa.array(m["custkey"].to_numpy(np.int64)),
            "c_name": pa.array(m["c_name"].astype(str), pa.string()),
            "revenue_c": pa.array(m["rev_c"].to_numpy(np.int64)),
            "c_acctbal": pa.array(m["c_acctbal"].to_numpy(np.float64)),
            "n_name": pa.array(
                m["c_nat"].map(nat_names).astype(str), pa.string()
            ),
        }, schema=out_sch)

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        # per-bucket top-k: the global cut is inside some bucket's local
        # top-k, so the driver sees at most P x top_n candidate rows, not
        # the customer-sized result (no full materialization at scale)
        return df.sort_values(
            ["revenue_c", "c_custkey"], ascending=[False, True],
            kind="mergesort",
        ).head(top_n)

    joined = (
        rev_per_cust.union(cust.map_batches(cust_rows, batch_format="pandas"))
        .map_batches(bucket_cust, batch_format="pyarrow")
        .groupby("part2")
        .map_groups(cust_join, batch_format="pandas")
        .map_batches(local_top, batch_format="pandas")
    )
    # deterministic top-k cut: revenue desc, custkey asc (ties pinned)
    top = joined.to_pandas().sort_values(
        ["revenue_c", "c_custkey"], ascending=[False, True],
        kind="mergesort",
    ).head(top_n).reset_index(drop=True)
    return top


def q13_customer_distribution(sf_dir: str,
                              num_partitions: int | None = None):
    """TPC-H Q13-style customer order-count distribution: how many
    customers placed exactly k orders, INCLUDING k=0 (the left join that
    makes Q13 awkward for naive engines).

    ONE bucketed hash(custkey) % P exchange carries both sides: orders
    pre-aggregate to (custkey, n) per batch; customer keys ride as n=0
    rows. The in-task collapse sums per custkey (zero-order customers
    keep 0 from their marker row), then reduces to per-task (c_count,
    custdist) partials -- at most |distinct counts| rows per task -- and
    ONE bounded combine finishes. No row ever moves twice."""
    import pyarrow as pa
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )

    cn_sch = pa.schema([
        ("custkey", pa.int64()), ("n", pa.int64()), ("is_cust", pa.int8()),
    ])

    def order_partial(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("o_custkey", as_index=False).size()
        return pa.table({
            "custkey": pa.array(g["o_custkey"].to_numpy(np.int64)),
            "n": pa.array(g["size"].to_numpy(np.int64)),
            "is_cust": pa.array(np.zeros(len(g), np.int8), pa.int8()),
        }, schema=cn_sch)

    def cust_marker(df: pd.DataFrame) -> pa.Table:
        n = len(df)
        return pa.table({
            "custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "n": pa.array(np.zeros(n, np.int64)),
            "is_cust": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=cn_sch)

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["custkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32())
        )

    dist_sch = pa.schema([("c_count", pa.int64()), ("custdist", pa.int64())])

    def collapse(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_cust" not in df.columns:
            return dist_sch.empty_table()
        # only keys present in the customer table count (an orphan order
        # row without its customer marker is dropped, matching LEFT JOIN)
        have = df[df["is_cust"] == 1][["custkey"]]
        per = df.groupby("custkey", as_index=False).agg(n=("n", "sum"))
        per = per.merge(have, on="custkey")
        g = per.groupby("n", as_index=False).size()
        return pa.table({
            "c_count": pa.array(g["n"].to_numpy(np.int64)),
            "custdist": pa.array(g["size"].to_numpy(np.int64)),
        }, schema=dist_sch)

    partials = (
        orders.map_batches(order_partial, batch_format="pandas")
        .union(cust.map_batches(cust_marker, batch_format="pandas"))
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(collapse, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials, keys=["c_count"], sum_cols=["custdist"], schema=dist_sch,
    )


def q8_market_share(sf_dir: str, region: str = "AMERICA",
                    target_nation: str = "NATION_6",
                    p_type: str = "ECONOMY",
                    date_from: str = "1996-01-01",
                    date_to: str = "1998-01-01",
                    num_partitions: int | None = None):
    """TPC-H Q8-style national market share: the target nation's share of
    revenue, per order year, among lineitems of one part type sold to
    customers of one region.

    Plan (q5's skeleton with a part semi-join bolted onto the lineitem
    scan):
    - nation x region resolves driver-side; parts of the type broadcast as
      a sorted partkey array; supplier broadcasts the FULL (suppkey ->
      nationkey) map (suppliers are the smallest fact-side dimension --
      the supplier nation is needed for every surviving lineitem, there is
      no pre-filter to prune it);
    - in-region customers ⋈ date-filtered orders ride ONE bucketed
      hash(custkey) % P exchange -> (orderkey, order year);
    - lineitem semi-joins the part set AND maps supplier nation inside the
      scan batch, pre-aggregating volume cents per (orderkey, supp
      nation);
    - ONE hash(orderkey) % P exchange joins the sides; survivors reduce to
      (year, supp nation) cells, a bounded combine collapses them, and the
      driver computes share = target / total per year from the tiny cell
      table (exact integer-cents arithmetic until the final division)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    rkey = reg.loc[reg["r_name"] == region, "r_regionkey"]
    in_region = set(
        nation.loc[nation["n_regionkey"].isin(set(rkey)), "n_nationkey"]
        .astype(int)
    )
    target_keys = set(
        nation.loc[nation["n_name"] == target_nation, "n_nationkey"]
        .astype(int)
    )

    parts = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).to_pandas()
    pkeys = np.sort(
        parts.loc[parts["p_type"] == p_type, "p_partkey"]
        .to_numpy(np.int64)
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas().sort_values("s_suppkey")
    side_ref = ray.put((
        pkeys,
        supp["s_suppkey"].to_numpy(np.int64),
        supp["s_nationkey"].to_numpy(np.int64),
    ))

    # --- side A: in-region customers ⋈ date-filtered orders ---
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    ab_sch = pa.schema([
        ("custkey", pa.int64()), ("o_orderkey", pa.int64()),
        ("o_year", pa.int64()), ("is_order", pa.int8()),
    ])

    def cust_rows(df: pd.DataFrame) -> pa.Table:
        df = df[df["c_nationkey"].isin(in_region)]
        n = len(df)
        return pa.table({
            "custkey": pa.array(df["c_custkey"].to_numpy(np.int64)),
            "o_orderkey": pa.array(np.zeros(n, np.int64)),
            "o_year": pa.array(np.zeros(n, np.int64)),
            "is_order": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=ab_sch)

    def order_rows(df: pd.DataFrame) -> pa.Table:
        df = df[(df["o_orderdate"] >= t_from) & (df["o_orderdate"] < t_to)]
        return pa.table({
            "custkey": pa.array(df["o_custkey"].to_numpy(np.int64)),
            "o_orderkey": pa.array(df["o_orderkey"].to_numpy(np.int64)),
            "o_year": pa.array(
                df["o_orderdate"].dt.year.to_numpy(np.int64)
            ),
            "is_order": pa.array(
                np.ones(len(df), np.int8), pa.int8()
            ),
        }, schema=ab_sch)

    def bucket_cust(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["custkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32())
        )

    ov_sch = pa.schema([
        ("o_orderkey", pa.int64()), ("o_year", pa.int64()),
        ("s_nat", pa.int64()), ("vol_c", pa.int64()),
        ("is_vol", pa.int8()),
    ])

    def cust_join(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return ov_sch.empty_table()
        left = df[df["is_order"] == 0][["custkey"]]
        right = df[df["is_order"] == 1][["custkey", "o_orderkey", "o_year"]]
        m = right.merge(left, on="custkey")
        n = len(m)
        return pa.table({
            "o_orderkey": pa.array(m["o_orderkey"].to_numpy(np.int64)),
            "o_year": pa.array(m["o_year"].to_numpy(np.int64)),
            "s_nat": pa.array(np.zeros(n, np.int64)),
            "vol_c": pa.array(np.zeros(n, np.int64)),
            "is_vol": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=ov_sch)

    order_year = (
        cust.map_batches(cust_rows, batch_format="pandas")
        .union(orders.map_batches(order_rows, batch_format="pandas"))
        .map_batches(bucket_cust, batch_format="pyarrow")
        .groupby("part")
        .map_groups(cust_join, batch_format="pandas")
    )

    # --- side B: part-filtered lineitem volume partials ---
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    )

    def vol_partial(df: pd.DataFrame) -> pa.Table:
        pk, sk, snat = ray.get(side_ref)
        if len(pk) == 0 or len(df) == 0:
            return ov_sch.empty_table()
        keys = df["l_partkey"].to_numpy(np.int64)
        pos = np.minimum(np.searchsorted(pk, keys), len(pk) - 1)
        df = df[pk[pos] == keys]
        if len(df) == 0:
            return ov_sch.empty_table()
        skeys = df["l_suppkey"].to_numpy(np.int64)
        spos = np.minimum(np.searchsorted(sk, skeys), len(sk) - 1)
        hit = sk[spos] == skeys
        df = df[hit].assign(s_nat=snat[spos[hit]])
        df = df.assign(vol_c=money_cents(
            df["l_extendedprice"] * (1 - df["l_discount"])
        ))
        g = df.groupby(["l_orderkey", "s_nat"], as_index=False).agg(
            vol_c=("vol_c", "sum")
        )
        n = len(g)
        return pa.table({
            "o_orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "o_year": pa.array(np.zeros(n, np.int64)),
            "s_nat": pa.array(g["s_nat"].to_numpy(np.int64)),
            "vol_c": pa.array(g["vol_c"].to_numpy(np.int64)),
            "is_vol": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=ov_sch)

    def bucket_order(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["o_orderkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part2", pa.array(((k // 3) % num_partitions).astype(np.int32),
                              pa.int32())
        )

    cell_sch = pa.schema([
        ("o_year", pa.int64()), ("s_nat", pa.int64()),
        ("vol_c", pa.int64()),
    ])

    def order_join(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_vol" not in df.columns:
            return cell_sch.empty_table()
        left = df[df["is_vol"] == 0][["o_orderkey", "o_year"]]
        right = df[df["is_vol"] == 1][["o_orderkey", "s_nat", "vol_c"]]
        m = right.merge(left, on="o_orderkey")
        g = m.groupby(["o_year", "s_nat"], as_index=False).agg(
            vol_c=("vol_c", "sum")
        )
        return pa.table({
            "o_year": pa.array(g["o_year"].to_numpy(np.int64)),
            "s_nat": pa.array(g["s_nat"].to_numpy(np.int64)),
            "vol_c": pa.array(g["vol_c"].to_numpy(np.int64)),
        }, schema=cell_sch)

    partials = (
        order_year.union(
            lineitem.map_batches(vol_partial, batch_format="pandas")
        )
        .map_batches(bucket_order, batch_format="pyarrow")
        .groupby("part2")
        .map_groups(order_join, batch_format="pandas")
    )
    cells = bucketed_sum_combine(
        partials, keys=["o_year", "s_nat"], sum_cols=["vol_c"],
        schema=cell_sch,
    ).to_pandas()

    tot = cells.groupby("o_year")["vol_c"].sum()
    tgt = cells[cells["s_nat"].isin(target_keys)].groupby(
        "o_year"
    )["vol_c"].sum()
    out = pd.DataFrame({
        "o_year": tot.index.to_numpy(np.int64),
        "mkt_share": (
            tgt.reindex(tot.index).fillna(0).to_numpy(np.float64)
            / tot.to_numpy(np.float64)
        ),
    })
    return out.reset_index(drop=True)


def q6_forecast_revenue(sf_dir: str, date_from: str = "1996-01-01",
                        date_to: str = "1997-01-01",
                        discount_lo: float = 0.05,
                        discount_hi: float = 0.07,
                        max_qty: float = 24.0):
    """TPC-H Q6-style forecast revenue change: one filtered scan of
    lineitem, per-batch integer-cents partials, one tiny combine — the
    canonical predicate-pushdown + partial-aggregation shape (no shuffle
    at all; the 'exchange' is a handful of scalar partials)."""
    import pyarrow as pa
    import ray.data as rd

    from .common import source_blocks

    path = f"{sf_dir}/lineitem.parquet"
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)
    ds = rd.read_parquet(
        path,
        columns=["l_shipdate", "l_discount", "l_quantity",
                 "l_extendedprice"],
        override_num_blocks=source_blocks(path, per_block_bytes=1 << 20),
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        m = df[(df["l_shipdate"] >= t_from) & (df["l_shipdate"] < t_to)
               & (df["l_discount"] >= discount_lo - 1e-9)
               & (df["l_discount"] <= discount_hi + 1e-9)
               & (df["l_quantity"] < max_qty)]
        cents = money_cents(m["l_extendedprice"] * m["l_discount"])
        return pa.table({
            "revenue_c": pa.array([int(cents.sum())], pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "revenue_c": [int(parts["revenue_c"].sum())],
    })


def q15_top_supplier(sf_dir: str, date_from: str = "1996-01-01",
                     date_to: str = "1996-04-01",
                     num_partitions: int | None = None):
    """TPC-H Q15-style top supplier(s): suppliers whose quarterly lineitem
    revenue equals the global maximum (ALL ties, per the spec's view
    semantics).

    Per-batch cents partials per suppkey -> ONE bounded combine (supplier
    cardinality), driver takes the max over the combined frame — the
    'revenue view + scalar subquery' decorrelates into a partial-agg plus
    a driver-side argmax over an already-small result. Supplier names
    resolve from the broadcast-scale supplier table at the end."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from .common import bucketed_sum_combine, cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)

    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    )
    sup_sch = pa.schema([
        ("s_suppkey", pa.int64()), ("revenue_c", pa.int64()),
    ])

    def partial(df: pd.DataFrame) -> pa.Table:
        m = df[(df["l_shipdate"] >= t_from) & (df["l_shipdate"] < t_to)]
        m = m.assign(rev_c=money_cents(
            m["l_extendedprice"] * (1 - m["l_discount"])
        ))
        g = m.groupby("l_suppkey", as_index=False).agg(
            rev_c=("rev_c", "sum")
        )
        return pa.table({
            "s_suppkey": pa.array(g["l_suppkey"].to_numpy(np.int64)),
            "revenue_c": pa.array(g["rev_c"].to_numpy(np.int64)),
        }, schema=sup_sch)

    def local_max(df: pd.DataFrame) -> pd.DataFrame:
        # per-bucket max-tied rows only: the global max lives in some
        # bucket's local maximum, so the driver sees at most P tie-groups,
        # never the supplier-sized table
        if len(df) == 0:
            return df
        return df[df["revenue_c"] == df["revenue_c"].max()]

    per_supp = bucketed_sum_combine(
        lineitem.map_batches(partial, batch_format="pandas"),
        keys=["s_suppkey"], sum_cols=["revenue_c"], schema=sup_sch,
        num_partitions=num_partitions,
    ).map_batches(local_max, batch_format="pandas").to_pandas()

    top = per_supp[per_supp["revenue_c"] == per_supp["revenue_c"].max()]
    supp = pd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = top.merge(supp, on="s_suppkey").sort_values("s_suppkey")
    return pd.DataFrame({
        "s_suppkey": out["s_suppkey"].astype("int64").to_numpy(),
        "s_name": out["s_name"].astype(str),
        "revenue_c": out["revenue_c"].astype("int64").to_numpy(),
    }).reset_index(drop=True)


def q17_small_quantity_revenue(sf_dir: str, brand: str | None = None,
                               frac: float = 0.5,
                               num_partitions: int | None = None):
    """TPC-H Q17-style small-quantity-order revenue: average yearly
    revenue lost if orders below ``frac`` x the part's average quantity
    were not taken — the classic correlated scalar subquery
    (l_quantity < frac * avg(l_quantity) per part), decorrelated.

    ONE bucketed hash(partkey) % P exchange carries per-batch partials of
    (sum_qty_micro, n, sum of per-row price cents keyed by quantity): the
    in-task collapse computes each part's average from the summed partials
    and re-filters its OWN rows against it — the subquery never runs per
    row and the lineitem table moves once. Quantities compare in exact
    integer micro-units (quantity x 1e6 vs frac x mean x 1e6, both
    integers when frac has <= 6 decimals) so the threshold is
    deterministic on both engine and oracle."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()

    pkeys = None
    if brand is not None:
        parts = pq.read_table(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
        ).to_pandas()
        pkeys = set(
            parts.loc[parts["p_brand"] == brand, "p_partkey"].astype(int)
        )

    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    row_sch = pa.schema([
        ("partkey", pa.int64()), ("qty_u", pa.int64()),
        ("price_c", pa.int64()), ("part", pa.int32()),
    ])

    def rows(df: pd.DataFrame) -> pa.Table:
        if pkeys is not None:
            df = df[df["l_partkey"].isin(pkeys)]
        k = df["l_partkey"].to_numpy(np.int64)
        return pa.table({
            "partkey": pa.array(k),
            "qty_u": pa.array(np.floor(
                df["l_quantity"].to_numpy(np.float64) * 1e6 + 0.5
            ).astype(np.int64)),
            "price_c": pa.array(money_cents(df["l_extendedprice"])),
            "part": pa.array(
                (k % num_partitions).astype(np.int32), pa.int32()
            ),
        }, schema=row_sch)

    out_sch = pa.schema([("revenue_c", pa.int64())])

    def collapse(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_sch.empty_table()
        import math

        g = df.groupby("partkey")["qty_u"]
        # threshold in micro-units: frac * mean = frac * sum / n; compare
        # qty * n * den < sum * num (pure integer cross-multiplication,
        # exact). gcd-reduced fraction keeps the products in int64 up to
        # ~1e9 rows per part for frac = k/2 etc.
        s = g.transform("sum").to_numpy(np.int64)
        n = g.transform("size").to_numpy(np.int64)
        q = df["qty_u"].to_numpy(np.int64)
        fr_num, fr_den = int(round(frac * 1e6)), 1_000_000
        gg = math.gcd(fr_num, fr_den)
        fr_num, fr_den = fr_num // gg, fr_den // gg
        keep = q * n * fr_den < s * fr_num
        total = int(df["price_c"].to_numpy(np.int64)[keep].sum())
        return pa.table({"revenue_c": pa.array([total], pa.int64())},
                        schema=out_sch)

    parts = (
        lineitem.map_batches(rows, batch_format="pandas")
        .groupby("part")
        .map_groups(collapse, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame({
        "revenue_c": [int(parts["revenue_c"].sum())],
    })


def q6_oracle_sql(date_from: str = "1996-01-01",
                  date_to: str = "1997-01-01",
                  discount_lo: float = 0.05, discount_hi: float = 0.07,
                  max_qty: float = 24.0) -> str:
    """Oracle generated from the SAME defaults as q6_forecast_revenue
    (advice-r3: parameterized oracles stay in sync by construction)."""
    return (
        "SELECT coalesce(sum(floor(l_extendedprice * l_discount * 100"
        " + 0.5)::BIGINT), 0)::BIGINT AS revenue_c FROM lineitem"
        f" WHERE l_shipdate >= TIMESTAMP '{date_from}'"
        f"  AND l_shipdate < TIMESTAMP '{date_to}'"
        f"  AND l_discount >= {discount_lo} - 1e-9"
        f"  AND l_discount <= {discount_hi} + 1e-9"
        f"  AND l_quantity < {max_qty}"
    )


def q15_oracle_sql(date_from: str = "1996-01-01",
                   date_to: str = "1996-04-01") -> str:
    """Oracle for q15_top_supplier (all max-revenue ties, spec view
    semantics), generated from the same defaults."""
    return (
        "WITH rev AS (SELECT l_suppkey AS s_suppkey,"
        " sum(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)"
        "     ::BIGINT)::BIGINT AS revenue_c"
        " FROM lineitem"
        f" WHERE l_shipdate >= TIMESTAMP '{date_from}'"
        f"  AND l_shipdate < TIMESTAMP '{date_to}'"
        " GROUP BY 1)"
        " SELECT s_suppkey, s_name, revenue_c"
        " FROM rev JOIN supplier USING (s_suppkey)"
        " WHERE revenue_c = (SELECT max(revenue_c) FROM rev)"
    )


def q17_oracle_sql(frac: float = 0.5) -> str:
    """Oracle for q17_small_quantity_revenue: the identical gcd-reduced
    integer cross-multiplication threshold."""
    import math

    fr_num, fr_den = int(round(frac * 1e6)), 1_000_000
    g = math.gcd(fr_num, fr_den)
    fr_num, fr_den = fr_num // g, fr_den // g
    return (
        "WITH lu AS (SELECT l_partkey,"
        "  floor(l_quantity * 1000000 + 0.5)::BIGINT AS qty_u,"
        "  floor(l_extendedprice * 100 + 0.5)::BIGINT AS price_c"
        " FROM lineitem),"
        " ag AS (SELECT l_partkey, sum(qty_u)::BIGINT AS s,"
        "  count(*)::BIGINT AS n FROM lu GROUP BY 1)"
        " SELECT coalesce(sum(price_c), 0)::BIGINT AS revenue_c"
        " FROM lu JOIN ag USING (l_partkey)"
        f" WHERE qty_u * n * {fr_den} < s * {fr_num}"
    )


def q4_order_priority(sf_dir: str, date_from: str = "1996-01-01",
                      date_to: str = "1996-04-01", late_days: int = 60,
                      m_bits: int = 1 << 20,
                      num_partitions: int | None = None):
    """TPC-H Q4 shape (order-priority checking): count orders per priority,
    in a 3-month window, that have AT LEAST ONE late lineitem — the
    canonical EXISTS semi-join. Adapted to the testdata schema (no
    l_commitdate/l_receiptdate): "late" means l_shipdate > o_orderdate +
    ``late_days``, the same decorrelation structure.

    100-TB plan: the date-window orders are a small fraction of the table,
    so their keys build a fixed-size Bloom bitmap (bounded per-block
    partials OR-merged on the driver, ``bloom_semi_join`` pattern) that
    prunes the lineitem scan BEFORE any exchange; surviving lineitems
    pre-reduce per batch to one (orderkey, max shipdate) row, and ONE
    bucketed hash(orderkey) exchange joins them with the window orders —
    Bloom false positives die there, never in correctness. The EXISTS
    collapses to max(shipdate) > orderdate + lag, and the result rides a
    5-group bounded combine."""
    import ray
    import ray.data as rd
    import pyarrow as pa

    from ..functions.vectorized import bloom_test
    from .common import (bloom_bitmap, bucketed_sum_combine,
                         cluster_partitions, source_blocks)

    if num_partitions is None:
        num_partitions = cluster_partitions()
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)
    lag_us = int(late_days) * 86_400_000_000

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def window_keys(df: pd.DataFrame) -> pa.Table:
        m = df[(df["o_orderdate"] >= t_from) & (df["o_orderdate"] < t_to)]
        return pa.table({
            "k": pa.array(
                m["o_orderkey"].to_numpy(np.int64).astype(np.uint64),
                pa.uint64()),
            "odate_us": pa.array(
                m["o_orderdate"].astype("datetime64[us]").astype("int64")
                .to_numpy()),
            "o_orderpriority": pa.array(
                m["o_orderpriority"].tolist(), pa.string()),
        })

    # ONE orders scan: the materialized window rows feed both the bitmap
    # build and the exchange's order side
    win = orders.map_batches(
        window_keys, batch_format="pandas"
    ).materialize()
    bloom_ref = ray.put(bloom_bitmap(win, "k", m_bits))

    uni_sch = pa.schema([
        ("orderkey", pa.int64()), ("t_us", pa.int64()),
        ("o_orderpriority", pa.string()), ("is_order", pa.int8()),
    ])

    def order_rows(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["k"].to_pylist(), dtype=np.uint64)
        n = len(k)
        return pa.table({
            "orderkey": pa.array(k.astype(np.int64)),
            "t_us": batch["odate_us"],
            "o_orderpriority": batch["o_orderpriority"],
            "is_order": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=uni_sch)

    li_path = f"{sf_dir}/lineitem.parquet"
    lineitem = rd.read_parquet(
        li_path, columns=["l_orderkey", "l_shipdate"],
        override_num_blocks=source_blocks(li_path, per_block_bytes=1 << 20),
    )

    def li_partial(df: pd.DataFrame) -> pa.Table:
        bm = ray.get(bloom_ref)
        keys = df["l_orderkey"].to_numpy(np.int64)
        m = df[bloom_test(bm, keys.astype(np.uint64), m_bits)]
        if len(m) == 0:
            return uni_sch.empty_table()
        g = m.assign(
            ship_us=m["l_shipdate"].astype("datetime64[us]").astype("int64")
        ).groupby("l_orderkey", as_index=False).agg(t_us=("ship_us", "max"))
        n = len(g)
        return pa.table({
            "orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "t_us": pa.array(g["t_us"].to_numpy(np.int64)),
            "o_orderpriority": pa.array([""] * n, pa.string()),
            "is_order": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=uni_sch)

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["orderkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32()))

    pr_sch = pa.schema([
        ("o_orderpriority", pa.string()), ("order_count", pa.int64()),
    ])

    def collapse(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_order" not in df.columns:
            return pr_sch.empty_table()
        li = df[df["is_order"] == 0]
        od = df[df["is_order"] == 1]
        if len(li) == 0 or len(od) == 0:
            return pr_sch.empty_table()
        mx = li.groupby("orderkey", as_index=False).agg(
            max_ship_us=("t_us", "max"))
        j = od.merge(mx, on="orderkey")  # inner = EXISTS any lineitem
        late = j[j["max_ship_us"] > j["t_us"] + lag_us]
        g = late.groupby("o_orderpriority", as_index=False).size()
        return pa.table({
            "o_orderpriority": pa.array(
                g["o_orderpriority"].tolist(), pa.string()),
            "order_count": pa.array(g["size"].to_numpy(np.int64)),
        }, schema=pr_sch)

    partials = (
        win.map_batches(order_rows, batch_format="pyarrow")
        .union(lineitem.map_batches(li_partial, batch_format="pandas"))
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(collapse, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials, keys=["o_orderpriority"], sum_cols=["order_count"],
        schema=pr_sch,
    )


def q4_oracle_sql(date_from: str = "1996-01-01",
                  date_to: str = "1996-04-01", late_days: int = 60) -> str:
    """Oracle for q4_order_priority, generated from the same defaults."""
    return (
        "SELECT o_orderpriority, count(*)::BIGINT AS order_count"
        " FROM orders"
        f" WHERE o_orderdate >= TIMESTAMP '{date_from}'"
        f"  AND o_orderdate < TIMESTAMP '{date_to}'"
        "  AND EXISTS (SELECT 1 FROM lineitem"
        "   WHERE l_orderkey = o_orderkey"
        f"   AND l_shipdate > o_orderdate + INTERVAL {late_days} DAY)"
        " GROUP BY 1"
    )


def q12_shipping_lateness(sf_dir: str, date_from: str = "1996-01-01",
                          date_to: str = "1997-01-01", late_days: int = 60,
                          num_partitions: int | None = None):
    """TPC-H Q12 shape (shipping-mode priority audit): per lineitem
    category, how many LATE-shipped lines belong to high-priority orders
    ('1-URGENT'/'2-HIGH') vs the rest. Adapted to the testdata schema (no
    l_shipmode/l_commitdate/l_receiptdate): the category is l_returnflag
    and "late" is l_shipdate > o_orderdate + ``late_days`` — the same
    large-large join + conditional two-way count.

    100-TB plan: the lineitem scan keeps only the ship-date window and
    projects three small columns; orders carry one pre-computed is_high
    bit. ONE bucketed hash(orderkey) exchange joins them in-task, and the
    per-bucket result is a ≤|flags| x 2 partial into a bounded combine —
    the fact table never moves twice and nothing order-sized reaches the
    driver."""
    import pyarrow as pa
    import ray.data as rd

    from .common import (bucketed_sum_combine, cluster_partitions,
                         source_blocks)

    if num_partitions is None:
        num_partitions = cluster_partitions()
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)
    lag_us = int(late_days) * 86_400_000_000

    uni_sch = pa.schema([
        ("orderkey", pa.int64()), ("t_us", pa.int64()),
        ("l_returnflag", pa.string()), ("is_order", pa.int8()),
        ("is_high", pa.int8()),
    ])

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def order_rows(df: pd.DataFrame) -> pa.Table:
        n = len(df)
        high = df["o_orderpriority"].isin(
            ["1-URGENT", "2-HIGH"]).to_numpy(np.int8)
        return pa.table({
            "orderkey": pa.array(df["o_orderkey"].to_numpy(np.int64)),
            "t_us": pa.array(df["o_orderdate"].astype("datetime64[us]")
                             .astype("int64").to_numpy()),
            "l_returnflag": pa.array([""] * n, pa.string()),
            "is_order": pa.array(np.ones(n, np.int8), pa.int8()),
            "is_high": pa.array(high, pa.int8()),
        }, schema=uni_sch)

    li_path = f"{sf_dir}/lineitem.parquet"
    lineitem = rd.read_parquet(
        li_path, columns=["l_orderkey", "l_shipdate", "l_returnflag"],
        override_num_blocks=source_blocks(li_path, per_block_bytes=1 << 20),
    )

    def li_rows(df: pd.DataFrame) -> pa.Table:
        m = df[(df["l_shipdate"] >= t_from) & (df["l_shipdate"] < t_to)]
        n = len(m)
        return pa.table({
            "orderkey": pa.array(m["l_orderkey"].to_numpy(np.int64)),
            "t_us": pa.array(m["l_shipdate"].astype("datetime64[us]")
                             .astype("int64").to_numpy()),
            "l_returnflag": pa.array(m["l_returnflag"].tolist(),
                                     pa.string()),
            "is_order": pa.array(np.zeros(n, np.int8), pa.int8()),
            "is_high": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=uni_sch)

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["orderkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32()))

    out_sch = pa.schema([
        ("l_returnflag", pa.string()), ("high_line_count", pa.int64()),
        ("low_line_count", pa.int64()),
    ])

    def collapse(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_order" not in df.columns:
            return out_sch.empty_table()
        li = df[df["is_order"] == 0]
        od = df[df["is_order"] == 1][["orderkey", "t_us", "is_high"]]
        if len(li) == 0 or len(od) == 0:
            return out_sch.empty_table()
        j = li.merge(od.rename(columns={"t_us": "odate_us"}), on="orderkey",
                     suffixes=("", "_o"))
        late = j[j["t_us"] > j["odate_us"] + lag_us]
        g = late.groupby("l_returnflag", as_index=False).agg(
            high_line_count=("is_high_o", "sum"),
            low_line_count=("is_high_o", lambda s: int((1 - s).sum())),
        )
        return pa.table({
            "l_returnflag": pa.array(g["l_returnflag"].tolist(),
                                     pa.string()),
            "high_line_count": pa.array(
                g["high_line_count"].to_numpy(np.int64)),
            "low_line_count": pa.array(
                g["low_line_count"].to_numpy(np.int64)),
        }, schema=out_sch)

    partials = (
        orders.map_batches(order_rows, batch_format="pandas")
        .union(lineitem.map_batches(li_rows, batch_format="pandas"))
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(collapse, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials, keys=["l_returnflag"],
        sum_cols=["high_line_count", "low_line_count"], schema=out_sch,
    )


def q12_oracle_sql(date_from: str = "1996-01-01",
                   date_to: str = "1997-01-01", late_days: int = 60) -> str:
    """Oracle for q12_shipping_lateness, generated from the same
    defaults."""
    return (
        "SELECT l_returnflag,"
        " sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')"
        "  THEN 1 ELSE 0 END)::BIGINT AS high_line_count,"
        " sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')"
        "  THEN 0 ELSE 1 END)::BIGINT AS low_line_count"
        " FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
        f" WHERE l_shipdate >= TIMESTAMP '{date_from}'"
        f"  AND l_shipdate < TIMESTAMP '{date_to}'"
        f"  AND l_shipdate > o_orderdate + INTERVAL {late_days} DAY"
        " GROUP BY 1"
    )


# (brand, qty_lo, qty_hi, size_lo, size_hi) — Q19's three disjunctive
# branches, using brands present in the testdata generator's Brand#N space
Q19_BRANCHES = (
    ("Brand#11", 1.0, 11.0, 1, 5),
    ("Brand#14", 10.0, 20.0, 1, 10),
    ("Brand#17", 20.0, 30.0, 1, 15),
)


def q19_discounted_revenue(sf_dir: str, branches=Q19_BRANCHES):
    """TPC-H Q19 shape (discounted revenue, disjunctive predicates):
    revenue from lineitems whose part matches ANY of three
    brand/quantity/size branches. Adapted to the testdata schema (no
    p_container/l_shipmode/l_shipinstruct — the brand + quantity + size
    disjunction is what survives the pared-down columns).

    100-TB plan: part is a dimension table — its (partkey -> brand, size)
    projection broadcasts ONCE via ray.put and every lineitem batch
    resolves it with a vectorized searchsorted lookup inside map_batches;
    the OR of the branches evaluates as numpy masks and each batch reduces
    to one integer-cents partial. No shuffle at all — the classic
    broadcast-join + predicate-pushdown scan."""
    import ray
    import ray.data as rd
    import pyarrow as pa

    from .common import source_blocks

    part = pd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    ).sort_values("p_partkey")
    pk = part["p_partkey"].to_numpy(np.int64)
    # brand as a small int code so the broadcast payload is 3 numpy arrays
    brand_names = sorted({b for b, *_ in branches})
    bcode = {b: i for i, b in enumerate(brand_names)}
    pbrand = part["p_brand"].map(bcode).fillna(-1).to_numpy(np.int64)
    psize = part["p_size"].to_numpy(np.int64)
    dim_ref = ray.put((pk, pbrand, psize))
    coded_branches = [
        (bcode[b], qlo, qhi, slo, shi) for b, qlo, qhi, slo, shi in branches
    ]

    li_path = f"{sf_dir}/lineitem.parquet"
    ds = rd.read_parquet(
        li_path,
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"],
        override_num_blocks=source_blocks(li_path, per_block_bytes=1 << 20),
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        keys, codes, sizes = ray.get(dim_ref)
        lp = df["l_partkey"].to_numpy(np.int64)
        pos = np.searchsorted(keys, lp)
        pos = np.clip(pos, 0, len(keys) - 1)
        found = keys[pos] == lp
        code, size = codes[pos], sizes[pos]
        qty = df["l_quantity"].to_numpy(np.float64)
        keep = np.zeros(len(df), dtype=bool)
        for bc, qlo, qhi, slo, shi in coded_branches:
            keep |= ((code == bc) & (qty >= qlo) & (qty <= qhi)
                     & (size >= slo) & (size <= shi))
        keep &= found
        m = df[keep]
        cents = money_cents(m["l_extendedprice"] * (1 - m["l_discount"]))
        return pa.table({
            "revenue_c": pa.array([int(cents.sum())], pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({"revenue_c": [int(parts["revenue_c"].sum())]})


def q19_oracle_sql(branches=Q19_BRANCHES) -> str:
    """Oracle for q19_discounted_revenue, generated from the same branch
    constants."""
    ors = " OR ".join(
        f"(p_brand = '{b}' AND l_quantity >= {qlo} AND l_quantity <= {qhi}"
        f" AND p_size >= {slo} AND p_size <= {shi})"
        for b, qlo, qhi, slo, shi in branches
    )
    return (
        "SELECT coalesce(sum(floor(l_extendedprice * (1 - l_discount)"
        " * 100 + 0.5)::BIGINT), 0)::BIGINT AS revenue_c"
        " FROM lineitem JOIN part ON p_partkey = l_partkey"
        f" WHERE {ors}"
    )


def q21_waiting_suppliers(sf_dir: str, status: str = "F",
                          num_partitions: int | None = None):
    """TPC-H Q21 shape (suppliers who kept orders waiting): in finished
    ('F') multi-supplier orders, the supplier who ALONE shipped last held
    the order up; count such orders per supplier. Adapted to the testdata
    schema (no l_commitdate/l_receiptdate): lateness ranks by l_shipdate —
    the same EXISTS (another supplier) + NOT EXISTS (another LATE
    supplier) intra-order peer comparison, decorrelated.

    100-TB plan: lineitem pre-reduces per batch to (orderkey, suppkey,
    max shipdate) rows; 'F' orderkeys ride the same ONE bucketed
    hash(orderkey) exchange as marker rows. Each bucket settles every
    order it owns locally (distinct-supplier count, unique-argmax test)
    and emits (suppkey, numwait) partials into a supplier-bounded combine;
    names resolve from the broadcast-scale supplier table at the end."""
    import pyarrow as pa
    import ray.data as rd

    from .common import (bucketed_sum_combine, cluster_partitions,
                         source_blocks)

    if num_partitions is None:
        num_partitions = cluster_partitions()

    uni_sch = pa.schema([
        ("orderkey", pa.int64()), ("suppkey", pa.int64()),
        ("t_us", pa.int64()), ("is_order", pa.int8()),
    ])

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus"],
    )

    def order_rows(df: pd.DataFrame) -> pa.Table:
        m = df[df["o_orderstatus"] == status]
        n = len(m)
        return pa.table({
            "orderkey": pa.array(m["o_orderkey"].to_numpy(np.int64)),
            "suppkey": pa.array(np.full(n, -1, np.int64)),
            "t_us": pa.array(np.zeros(n, np.int64)),
            "is_order": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=uni_sch)

    li_path = f"{sf_dir}/lineitem.parquet"
    lineitem = rd.read_parquet(
        li_path, columns=["l_orderkey", "l_suppkey", "l_shipdate"],
        override_num_blocks=source_blocks(li_path, per_block_bytes=1 << 20),
    )

    def li_partial(df: pd.DataFrame) -> pa.Table:
        g = df.assign(
            ship_us=df["l_shipdate"].astype("datetime64[us]").astype("int64")
        ).groupby(["l_orderkey", "l_suppkey"], as_index=False).agg(
            t_us=("ship_us", "max"))
        n = len(g)
        return pa.table({
            "orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "suppkey": pa.array(g["l_suppkey"].to_numpy(np.int64)),
            "t_us": pa.array(g["t_us"].to_numpy(np.int64)),
            "is_order": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=uni_sch)

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["orderkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32()))

    nw_sch = pa.schema([("s_suppkey", pa.int64()), ("numwait", pa.int64())])

    def collapse(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_order" not in df.columns:
            return nw_sch.empty_table()
        fkeys = df.loc[df["is_order"] == 1, ["orderkey"]].drop_duplicates()
        li = df[df["is_order"] == 0]
        if len(fkeys) == 0 or len(li) == 0:
            return nw_sch.empty_table()
        # combine cross-batch partials, keep only 'F' orders
        sm = li.merge(fkeys, on="orderkey").groupby(
            ["orderkey", "suppkey"], as_index=False).agg(
                t_us=("t_us", "max"))
        st = sm.groupby("orderkey")
        nsupp = st["suppkey"].transform("size").to_numpy(np.int64)
        omax = st["t_us"].transform("max").to_numpy(np.int64)
        at_max = sm["t_us"].to_numpy(np.int64) == omax
        nwin = sm.assign(w=at_max.astype(np.int64)).groupby(
            "orderkey")["w"].transform("sum").to_numpy(np.int64)
        winners = sm[(nsupp >= 2) & at_max & (nwin == 1)]
        g = winners.groupby("suppkey", as_index=False).size()
        return pa.table({
            "s_suppkey": pa.array(g["suppkey"].to_numpy(np.int64)),
            "numwait": pa.array(g["size"].to_numpy(np.int64)),
        }, schema=nw_sch)

    per_supp = bucketed_sum_combine(
        orders.map_batches(order_rows, batch_format="pandas")
        .union(lineitem.map_batches(li_partial, batch_format="pandas"))
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(collapse, batch_format="pandas"),
        keys=["s_suppkey"], sum_cols=["numwait"], schema=nw_sch,
    ).to_pandas()

    supp = pd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = per_supp.merge(supp, on="s_suppkey").sort_values(
        ["numwait", "s_suppkey"], ascending=[False, True])
    return pd.DataFrame({
        "s_suppkey": out["s_suppkey"].astype("int64").to_numpy(),
        "s_name": out["s_name"].astype(str),
        "numwait": out["numwait"].astype("int64").to_numpy(),
    }).reset_index(drop=True)


def q21_oracle_sql(status: str = "F") -> str:
    """Oracle for q21_waiting_suppliers: the identical unique-latest-
    supplier decorrelation in SQL."""
    return (
        "WITH sm AS (SELECT l_orderkey, l_suppkey,"
        "  max(l_shipdate) AS mx"
        " FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
        f" WHERE o_orderstatus = '{status}'"
        " GROUP BY 1, 2),"
        " st AS (SELECT l_orderkey, count(*)::BIGINT AS nsupp,"
        "  max(mx) AS omx FROM sm GROUP BY 1),"
        " tw AS (SELECT sm.l_orderkey, min(sm.l_suppkey) AS l_suppkey,"
        "  count(*)::BIGINT AS nwin"
        " FROM sm JOIN st USING (l_orderkey)"
        " WHERE sm.mx = st.omx AND st.nsupp >= 2"
        " GROUP BY 1)"
        " SELECT s_suppkey, s_name, count(*)::BIGINT AS numwait"
        " FROM tw JOIN supplier ON s_suppkey = l_suppkey"
        " WHERE nwin = 1"
        " GROUP BY 1, 2"
    )


# Q22's "phone prefix" stand-in: the testdata customer table has no
# c_phone, so the country filter is a fixed nationkey list
Q22_NATIONS = (1, 3, 5, 7, 9, 11, 13)


def q22_sales_opportunity(sf_dir: str, nations=Q22_NATIONS,
                          since: str = "2000-01-01",
                          num_partitions: int | None = None):
    """TPC-H Q22 shape (global sales opportunity): per country, count and
    total balance of ABOVE-AVERAGE-balance customers who are DORMANT.
    Adapted to the testdata schema and corpus (no c_phone, and every
    customer has at least one order): the country filter is a nationkey
    list instead of phone prefixes, and "never ordered" becomes "no order
    since ``since``" — the same scalar-subquery broadcast + anti-join,
    with the anti side pruned at the scan by the date predicate.

    100-TB plan: pass 1 reduces the filtered customer scan to TWO integers
    (positive-balance cents sum + count) and the average threshold becomes
    an exact integer cross-multiplication (bal_c * n > sum_c) broadcast in
    the task closure; pass 2 unions qualifying customers with per-batch
    DISTINCT order custkeys on ONE bucketed hash(custkey) exchange, where
    the NOT EXISTS settles locally and emits nation-bounded partials."""
    import pyarrow as pa
    import ray.data as rd

    from .common import (bucketed_sum_combine, cluster_partitions,
                         source_blocks)

    if num_partitions is None:
        num_partitions = cluster_partitions()
    nation_set = sorted(int(n) for n in nations)

    cust_cols = ["c_custkey", "c_nationkey", "c_acctbal"]
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=cust_cols)

    # pass 1: the scalar subquery — avg positive balance over the
    # in-scope countries, as exact integer partials
    def avg_partial(df: pd.DataFrame) -> pa.Table:
        m = df[df["c_nationkey"].isin(nation_set)]
        bal_c = money_cents(m["c_acctbal"])
        pos = bal_c[bal_c > 0]
        return pa.table({
            "sum_c": pa.array([int(pos.sum())], pa.int64()),
            "n": pa.array([len(pos)], pa.int64()),
        })

    parts = cust.map_batches(avg_partial, batch_format="pandas").to_pandas()
    sum_c, n_pos = int(parts["sum_c"].sum()), int(parts["n"].sum())

    out_sch = pa.schema([
        ("c_nationkey", pa.int64()), ("numcust", pa.int64()),
        ("totacctbal_c", pa.int64()),
    ])
    if n_pos == 0:
        return out_sch.empty_table()

    uni_sch = pa.schema([
        ("custkey", pa.int64()), ("nationkey", pa.int64()),
        ("bal_c", pa.int64()), ("is_cust", pa.int8()),
    ])

    def cust_rows(df: pd.DataFrame) -> pa.Table:
        m = df[df["c_nationkey"].isin(nation_set)]
        bal_c = money_cents(m["c_acctbal"])
        # exact integer form of bal > avg(positive bals)
        above = bal_c * n_pos > sum_c
        m, bal_c = m[above], bal_c[above]
        n = len(m)
        return pa.table({
            "custkey": pa.array(m["c_custkey"].to_numpy(np.int64)),
            "nationkey": pa.array(m["c_nationkey"].to_numpy(np.int64)),
            "bal_c": pa.array(bal_c),
            "is_cust": pa.array(np.ones(n, np.int8), pa.int8()),
        }, schema=uni_sch)

    o_path = f"{sf_dir}/orders.parquet"
    orders = rd.read_parquet(
        o_path, columns=["o_custkey", "o_orderdate"],
        override_num_blocks=source_blocks(o_path, per_block_bytes=1 << 20),
    )
    t_since = pd.Timestamp(since)

    def order_keys(df: pd.DataFrame) -> pa.Table:
        m = df[df["o_orderdate"] >= t_since]
        k = np.unique(m["o_custkey"].to_numpy(np.int64))
        n = len(k)
        return pa.table({
            "custkey": pa.array(k),
            "nationkey": pa.array(np.zeros(n, np.int64)),
            "bal_c": pa.array(np.zeros(n, np.int64)),
            "is_cust": pa.array(np.zeros(n, np.int8), pa.int8()),
        }, schema=uni_sch)

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch["custkey"].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "part", pa.array((k % num_partitions).astype(np.int32),
                             pa.int32()))

    def collapse(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 or "is_cust" not in df.columns:
            return out_sch.empty_table()
        cu = df[df["is_cust"] == 1]
        if len(cu) == 0:
            return out_sch.empty_table()
        have = set(df.loc[df["is_cust"] == 0, "custkey"].tolist())
        keep = cu[~cu["custkey"].isin(have)]
        g = keep.groupby("nationkey", as_index=False).agg(
            numcust=("custkey", "size"), totacctbal_c=("bal_c", "sum"))
        return pa.table({
            "c_nationkey": pa.array(g["nationkey"].to_numpy(np.int64)),
            "numcust": pa.array(g["numcust"].to_numpy(np.int64)),
            "totacctbal_c": pa.array(g["totacctbal_c"].to_numpy(np.int64)),
        }, schema=out_sch)

    partials = (
        cust.map_batches(cust_rows, batch_format="pandas")
        .union(orders.map_batches(order_keys, batch_format="pandas"))
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(collapse, batch_format="pandas")
    )
    return bucketed_sum_combine(
        partials, keys=["c_nationkey"],
        sum_cols=["numcust", "totacctbal_c"], schema=out_sch,
    )


def q22_oracle_sql(nations=Q22_NATIONS,
                   since: str = "2000-01-01") -> str:
    """Oracle for q22_sales_opportunity: the identical integer
    cross-multiplied average threshold and NOT EXISTS anti-join."""
    nlist = ", ".join(str(int(n)) for n in sorted(nations))
    bal = "floor(c_acctbal * 100 + 0.5)::BIGINT"
    return (
        "WITH pos AS (SELECT coalesce(sum(b), 0)::BIGINT AS s,"
        " count(*)::BIGINT AS n FROM ("
        f"  SELECT {bal} AS b FROM customer"
        f"  WHERE c_nationkey IN ({nlist})) WHERE b > 0)"
        " SELECT c_nationkey::BIGINT AS c_nationkey,"
        " count(*)::BIGINT AS numcust,"
        f" sum({bal})::BIGINT AS totacctbal_c"
        " FROM customer"
        f" WHERE c_nationkey IN ({nlist})"
        f"  AND {bal} * (SELECT n FROM pos) > (SELECT s FROM pos)"
        "  AND NOT EXISTS (SELECT 1 FROM orders"
        "   WHERE o_custkey = c_custkey"
        f"   AND o_orderdate >= TIMESTAMP '{since}')"
        " GROUP BY 1"
    )


def user_spend_percent_rank(sf_dir: str, range_shift: int | None = None):
    """Exact global PERCENT_RANK of per-user total spend — the last
    member of the rank family, same range-bucket + offset-broadcast plan
    as user_spend_rank (no global sort): percent_rank = (rank-1)/(N-1),
    emitted in integer MICRO units via floor(x*1e6+0.5) so the IEEE
    double division matches DuckDB's percent_rank() bit-for-bit (same
    int inputs -> same double -> same floor); N=1 defines 0."""
    import pyarrow as pa

    users = _user_spend_totals(sf_dir)
    range_shift, offsets, total = _spend_range_offsets(users, range_shift)

    sch = pa.schema([
        ("user_id", pa.int64()), ("spend", pa.float64()),
        ("pct_rank_micro", pa.int64()),
    ])

    def rank(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        spend = df["spend_c"].to_numpy(np.int64)
        off = offsets[int(df["rb"].iloc[0])]
        order = np.sort(spend)
        left = np.searchsorted(order, spend, side="left")
        if total > 1:
            pct = (off + left) / (total - 1)
        else:
            pct = np.zeros(len(spend))
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "spend": pa.array(spend / 100.0, pa.float64()),
            "pct_rank_micro": pa.array(
                np.floor(pct * 1e6 + 0.5).astype(np.int64)),
        }, schema=sch)

    return (
        users.map_batches(_append_rb(range_shift), batch_format="pyarrow")
        .groupby("rb")
        .map_groups(rank, batch_format="pandas")
    )


def user_value_ewma(sf_dir: str, horizon: int = 8,
                    num_partitions: int | None = None):
    """EXACT bounded-horizon EWMA per user event stream — the streaming
    feature-engineering shape (decay-weighted recent activity), made
    hash-exact by truncating the exponential tail at ``horizon`` lags
    with binary weights 2^(horizon-1-k) (most-recent term heaviest) and
    renormalizing over the terms actually present:

        ewma_t = sum_k w_k * v_{t-k} / sum_k w_k,  w_k = 2^(h-1-k)

    in integer milli-cents ((num * 1000) // den — non-negative values,
    so truncating division matches DuckDB's // exactly). Same single
    bucketed hash(user_id) exchange as user_rows_window; the lag terms
    are vectorized groupby-shift columns, never a per-row loop."""
    import pyarrow as pa
    import ray.data as rd

    from .common import cluster_partitions

    if num_partitions is None:
        num_partitions = cluster_partitions()
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    sch = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ewma_milli_cents", pa.int64()),
    ])

    def ewma(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return sch.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        vc = pd.Series(money_cents(df["value"]), index=df.index)
        g = vc.groupby(df["user_id"].to_numpy())
        num = np.zeros(len(df), np.int64)
        den = np.zeros(len(df), np.int64)
        for k in range(horizon):
            w = 1 << (horizon - 1 - k)
            lagged = g.shift(k)
            have = lagged.notna().to_numpy()
            num[have] += w * lagged.to_numpy(np.float64,
                                            na_value=0)[have].astype(np.int64)
            den[have] += w
        return pa.table({
            "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "ewma_milli_cents": pa.array(num * 1000 // den),
        }, schema=sch)

    return (
        ds.map_batches(
            append_mod_part, batch_format="pyarrow",
            fn_args=("user_id", num_partitions),
        )
        .groupby("part")
        .map_groups(ewma, batch_format="pandas")
    )
