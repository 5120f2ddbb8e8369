//! Every metric the benchmark prints, with its unit and direction; the
//! same lists make up `BENCHMARK.json` (a self-test keeps them equal).
//! Every run prints every end-to-end metric (untraced) or every
//! per-layer metric (traced), whatever its workload.

/// The workloads: the paper's three data families (§4). Each runs the
/// `build`, `query` and `ingest` phases on its own family.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "uniform",
        "uniform squares at density 5 (paper 4.1) in all three phases: even node MBRs, the paper's baseline",
    ),
    (
        "tiger",
        "TIGER-like street segments in all three phases: thin, clustered rectangles, the paper's GIS data",
    ),
    (
        "vlsi",
        "VLSI-like chip shapes in all three phases: area ratio 4e4, the paper's most skewed family",
    ),
];

/// The phases every workload runs, by the name their per-layer
/// self-time metrics end in.
pub const BUILD: &str = "build";
pub const QUERY: &str = "query";
pub const INGEST: &str = "ingest";

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("build_entries_per_s", "1/s", "higher", 0.25),
    e2e("external_build_entries_per_s", "1/s", "higher", 0.25),
    e2e("flatten_entries_per_s", "1/s", "higher", 0.25),
    e2e("paged_query_p50_us", "us", "lower", 0.25),
    e2e("paged_query_p99_us", "us", "lower", 0.25),
    e2e("flat_query_p50_us", "us", "lower", 0.25),
    e2e("flat_query_p99_us", "us", "lower", 0.25),
    e2e("disk_reads_per_query", "pages", "lower", 0.15),
    e2e("insert_entries_per_s", "1/s", "higher", 0.25),
    e2e("insert_batch_p99_us", "us", "lower", 0.25),
    e2e("lsm_query_p50_us", "us", "lower", 0.25),
    e2e("lsm_query_p99_us", "us", "lower", 0.25),
    e2e("bytes_per_entry", "B", "lower", 0.05),
    e2e("lsm_bytes_per_entry", "B", "lower", 0.05),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

pub const PER_LAYER: &[PerLayer] = &[
    layer("datagen.gen_s", "s", "lower"),
    layer("geom.soa_ns_per_rect", "ns", "lower"),
    layer("core.str_order_s", "s", "lower"),
    layer("core.external_pack_s", "s", "lower"),
    layer("rtree.bulk_load_s", "s", "lower"),
    layer("rtree.nodes_visited_per_query", "nodes", "lower"),
    layer("rtree.query_self_us", "us", "lower"),
    layer("storage.pages_written_per_entry", "pages", "lower"),
    layer("storage.disk_write_s", "s", "lower"),
    layer("storage.buffer_hit_ratio", "ratio", "higher"),
    layer("storage.disk_read_us", "us", "lower"),
    layer("storage.disk_read_share", "ratio", "lower"),
    layer("storage.wal_fsync_us", "us", "lower"),
    layer("storage.wal_syncs_per_batch", "count", "lower"),
    layer("storage.wal_bytes_per_entry", "B", "lower"),
    layer("extsort.sort_s", "s", "lower"),
    layer("extsort.drain_sort_s", "s", "lower"),
    layer("extsort.scratch_pages_per_entry", "pages", "lower"),
    layer("flat.lower_s", "s", "lower"),
    layer("flat.write_s", "s", "lower"),
    layer("flat.open_s", "s", "lower"),
    layer("flat.slots_scanned_per_query", "slots", "lower"),
    layer("flat.ns_per_slot", "ns", "lower"),
    layer("hilbert.key_ns", "ns", "lower"),
    layer("lsm.compactions", "count", "lower"),
    layer("lsm.compaction_batch_us", "us", "lower"),
    layer("lsm.plain_batch_us", "us", "lower"),
    layer("lsm.segment_bytes_per_entry", "B", "lower"),
    layer("lsm.segment_sync_us", "us", "lower"),
    layer("lsm.levels_per_read", "levels", "lower"),
    layer("lsm.memtable_items_per_read", "items", "lower"),
    layer("obs.trace_overhead_query", "ratio", "lower"),
    layer("obs.trace_overhead_ingest", "ratio", "lower"),
    // Span self time per operation of a phase (build round, query window
    // pair, ingest batch with its read), from the span rollup, for the
    // layers that open spans in that phase.
    layer("storage.self_us.build", "us", "lower"),
    layer("rtree.self_us.build", "us", "lower"),
    layer("core.self_us.build", "us", "lower"),
    layer("flat.self_us.build", "us", "lower"),
    layer("storage.self_us.query", "us", "lower"),
    layer("rtree.self_us.query", "us", "lower"),
    layer("flat.self_us.query", "us", "lower"),
    layer("storage.self_us.ingest", "us", "lower"),
    layer("core.self_us.ingest", "us", "lower"),
    layer("flat.self_us.ingest", "us", "lower"),
    layer("lsm.self_us.ingest", "us", "lower"),
];

/// The self-time metrics of `phase`, with their layers.
pub fn self_time_metrics(phase: &str) -> Vec<(&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .filter_map(|m| {
            let (layer, rest) = m.name.split_once(".self_us.")?;
            (rest == phase).then_some((m.name, layer))
        })
        .collect()
}

/// Unit and better direction of a metric from either list.
pub fn spec(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.better))
        })
}

/// Names every run must print, untraced or traced.
pub fn expected(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use str_bench::schema::{parse, Value};

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_object()
            .and_then(|o| o.get(key))
            .unwrap_or_else(|| panic!("missing '{key}'"))
    }

    fn s<'a>(v: &'a Value, key: &str) -> &'a str {
        field(v, key).as_str().expect("string field")
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics the
    /// command prints, so renaming a metric in one place fails here.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<(&str, &str)> = field(&doc, "workloads")
            .as_array()
            .expect("workloads array")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        assert_eq!(workloads, WORKLOADS.to_vec());

        let e2e = field(&doc, "end_to_end").as_array().expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(s(got, "better"), want.better, "{}", want.name);
            let bound = field(got, "bound").as_number().expect("bound");
            assert_eq!(bound, want.bound, "{}", want.name);
        }

        let layers = field(&doc, "per_layer").as_array().expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(s(got, "better"), want.better, "{}", want.name);
        }
    }

    #[test]
    fn names_are_unique_and_every_phase_has_self_times() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(expected(false).contains(&"setup_s"));
        for phase in [BUILD, QUERY, INGEST] {
            assert!(!self_time_metrics(phase).is_empty(), "{phase}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }
}
